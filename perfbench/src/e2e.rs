//! The untraced run: the real `fq serve` binary over loopback. Times
//! every request on the client, checks every answer outside the timed
//! interval, and (serve_write) checks crash recovery after the window.

use crate::gen::ReasonDb;
use crate::model::{Check, Expect, Req, Schedule, Verb, INFO_LINE};
use crate::proc::{Conn, Server};
use crate::scan::{scan, Completeness, Resp};
use crate::stats::{median, percentile, sorted, Record};
use crate::{Job, Workload};
use std::collections::HashMap;
use std::ffi::OsString;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a correct response must agree with.
pub struct Ctx<'a> {
    pub expect: &'a Expect,
    /// The epoch the server starts at (offsets in `expect` count from it).
    pub start_epoch: u64,
    pub reason: Option<&'a ReasonDb>,
}

/// Check one response against its request's expectation. Returns the
/// scanned response on success.
pub fn check(req: &Req, response: &str, ctx: &Ctx) -> Result<Resp, String> {
    let keep = matches!(req.check, Check::Partial { .. });
    let r = scan(response, keep).map_err(|e| format!("unreadable response: {e}"))?;
    if !r.ok {
        return Err(format!("ok:false: {}", r.error.as_deref().unwrap_or("?")));
    }
    let at = |id: usize| {
        let epoch = r.epoch.ok_or("response without epoch")?;
        let offset = epoch
            .checked_sub(ctx.start_epoch)
            .ok_or("response epoch older than the start")?;
        ctx.expect
            .at_epoch(id, offset)
            .ok_or_else(|| format!("no expectation for text {id}"))
    };
    let fail = |what: String| Err(format!("{}: {what}", req.class));
    match &req.check {
        Check::Rows(want) => {
            if r.rows != Some(*want) {
                return fail(format!("rows {:?}, expected {want:?}", r.rows));
            }
        }
        Check::AtEpoch(id) => {
            let want = at(*id)?;
            if r.rows != Some(want) {
                return fail(format!(
                    "rows {:?} at epoch {:?}, expected {want:?}",
                    r.rows, r.epoch
                ));
            }
        }
        Check::ExplainRows(n) => {
            if r.row_count != Some(*n) {
                return fail(format!(
                    "explain counts {:?} rows, expected {n}",
                    r.row_count
                ));
            }
        }
        Check::ExplainAtEpoch(id) => {
            let want = at(*id)?;
            if r.row_count != Some(want.count) {
                return fail(format!(
                    "explain counts {:?} rows, expected {}",
                    r.row_count, want.count
                ));
            }
        }
        Check::ExplainOk => {}
        Check::Decided(v) => {
            if r.completeness != Completeness::Decided(*v) {
                return fail(format!("{:?}, expected decided {v}", r.completeness));
            }
        }
        Check::Ranf { core, infinite } => {
            if r.rows != Some(*core)
                || r.completeness
                    != (Completeness::Ranf {
                        infinite: *infinite,
                    })
            {
                return fail(format!(
                    "{:?} {:?}, expected {core:?} infinite={infinite}",
                    r.rows, r.completeness
                ));
            }
        }
        Check::Partial { pred, budget } => {
            if r.completeness
                != (Completeness::Partial {
                    tried: *budget,
                    max: *budget,
                })
            {
                return fail(format!(
                    "{:?}, expected a budget-exhausted partial answer",
                    r.completeness
                ));
            }
            let db = ctx
                .reason
                .ok_or("partial answer without the reason store")?;
            if let Some(bad) = r.kept.iter().find(|row| !db.satisfies(*pred, row)) {
                return fail(format!("row {bad:?} does not satisfy {pred:?}"));
            }
        }
        Check::Info => {
            if r.epoch.is_none() || r.fingerprint.is_none() {
                return fail("snapshot-info without epoch or fingerprint".into());
            }
        }
        Check::Ingest { added } => {
            if r.added != Some(*added) {
                return fail(format!("added {:?}, expected {added}", r.added));
            }
        }
    }
    Ok(r)
}

/// One completed request.
struct Done {
    class: String,
    verb: Verb,
    ms: f64,
    /// The first answer for its text at an epoch newer than its last one.
    fresh: bool,
}

#[derive(Default)]
struct Tally {
    done: Vec<Done>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Send `req` on `conn`, time it, then check it. Returns the scanned
    /// response when it was correct.
    fn send(&mut self, conn: &mut Conn, req: &Req, ctx: &Ctx) -> Option<(Resp, f64)> {
        self.attempted += 1;
        match conn.request(&req.line) {
            Ok((start, end)) => {
                let ms = (end - start).as_secs_f64() * 1e3;
                match check(req, &conn.response, ctx) {
                    Ok(r) => Some((r, ms)),
                    Err(e) => {
                        self.fail(e);
                        None
                    }
                }
            }
            Err(e) => {
                self.fail(format!("{}: transport: {e}", req.class));
                None
            }
        }
    }
}

/// Text id of an epoch-checked request (for freshness tracking).
fn text_id(req: &Req) -> Option<usize> {
    match req.check {
        Check::AtEpoch(id) | Check::ExplainAtEpoch(id) => Some(id),
        _ => None,
    }
}

/// A closed-loop connection: the next request goes out when the previous
/// response is in, until `stop` is raised.
fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    stop: &AtomicBool,
    ctx: &Ctx,
    warm: &HashMap<usize, u64>,
) -> Tally {
    let mut t = Tally::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            t.attempted += 1;
            t.fail(format!("connect: {e}"));
            return t;
        }
    };
    let mut last_epoch: HashMap<usize, u64> = warm.clone();
    let mut newest = 0u64;
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let req = &reqs[i % reqs.len()];
        i += 1;
        let Some((r, ms)) = t.send(&mut conn, req, ctx) else {
            continue;
        };
        let mut fresh = false;
        if let Some(epoch) = r.epoch {
            if epoch < newest {
                t.fail(format!(
                    "{}: epoch went back from {newest} to {epoch}",
                    req.class
                ));
            }
            newest = newest.max(epoch);
            if let Some(id) = text_id(req) {
                let last = last_epoch.entry(id).or_insert(epoch);
                fresh = epoch > *last;
                *last = (*last).max(epoch);
            }
        }
        t.done.push(Done {
            class: req.class.clone(),
            verb: req.verb,
            ms,
            fresh: fresh && req.verb == Verb::Query,
        });
    }
    t
}

/// The writer's view of its open loop.
#[derive(Default)]
struct Writer {
    tally: Tally,
    /// Ack latency from the scheduled send time, ms.
    ack_ms: Vec<f64>,
    /// How late each send left, ms.
    late_ms: Vec<f64>,
    last_ack_epoch: Option<u64>,
}

/// The open-loop writer: batch `i` is due at `start + i / rate` whatever
/// the server's speed, so every run publishes the same epochs.
fn open_loop(addr: SocketAddr, batches: &[Req], start: Instant, rate: f64, ctx: &Ctx) -> Writer {
    let mut w = Writer::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            w.tally.attempted += 1;
            w.tally.fail(format!("writer connect: {e}"));
            return w;
        }
    };
    for (i, b) in batches.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        w.tally.attempted += 1;
        let (sent, acked) = match conn.request(&b.line) {
            Ok(t) => t,
            Err(e) => {
                w.tally.fail(format!("ingest {i}: transport: {e}"));
                break;
            }
        };
        w.late_ms
            .push((sent.saturating_duration_since(due)).as_secs_f64() * 1e3);
        let ms = (acked - due).as_secs_f64() * 1e3;
        match check(b, &conn.response, ctx) {
            Ok(r) => {
                let want = ctx.start_epoch + i as u64 + 1;
                if r.epoch != Some(want) {
                    w.tally.fail(format!(
                        "ingest {i}: acked at epoch {:?}, expected {want}",
                        r.epoch
                    ));
                }
                w.last_ack_epoch = r.epoch;
                w.ack_ms.push(ms);
                w.tally.done.push(Done {
                    class: b.class.clone(),
                    verb: Verb::Ingest,
                    ms,
                    fresh: false,
                });
            }
            Err(e) => w.tally.fail(format!("ingest {i}: {e}")),
        }
    }
    w
}

/// One timed leg on a fresh server: every distinct read text once (so
/// plans and column stats are cached), then the closed-loop readers and
/// the open-loop writer for `time`.
fn leg(
    addr: SocketAddr,
    schedule: &Schedule,
    time: Duration,
    ctx: &Ctx,
    total: &mut Tally,
) -> Result<(Tally, Writer, Duration), String> {
    let mut warm_epochs = HashMap::new();
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    for req in schedule.warmup.iter().filter(|r| r.class != "all_halted") {
        if let Some((r, _)) = total.send(&mut conn, req, ctx) {
            if let (Some(id), Some(e)) = (text_id(req), r.epoch) {
                warm_epochs.insert(id, e);
            }
        }
    }
    drop(conn);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + time;
    let (readers, writer, wall) = std::thread::scope(|s| {
        let readers: Vec<_> = schedule
            .conns
            .iter()
            .map(|reqs| s.spawn(|| closed_loop(addr, reqs, &stop, ctx, &warm_epochs)))
            .collect();
        let writer = (!schedule.batches.is_empty()).then(|| {
            s.spawn(|| open_loop(addr, &schedule.batches, start, crate::gen::WRITER_RATE, ctx))
        });
        let writer = writer.map(|h| h.join().expect("writer thread"));
        let now = Instant::now();
        if now < deadline {
            std::thread::sleep(deadline - now);
        }
        stop.store(true, Ordering::Relaxed);
        let readers: Vec<Tally> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (readers, writer, start.elapsed())
    });
    let mut window = Tally::default();
    readers.into_iter().for_each(|t| window.merge(t));
    Ok((window, writer.unwrap_or_default(), wall))
}

/// The server's command line for a workload.
fn serve_args(workload: Workload, cache: &Path, data: &Path) -> Vec<OsString> {
    let mut args: Vec<OsString> = vec![cache.join("store.json").into(), "127.0.0.1:0".into()];
    if workload == Workload::ServeWrite {
        args.extend([
            "--data-dir".into(),
            data.into(),
            "--durability".into(),
            "batch".into(),
        ]);
    }
    args
}

/// Replace `dst` with a copy of the pristine directory `src`.
pub fn restore(src: &Path, dst: &Path) -> Result<(), String> {
    if dst.exists() {
        std::fs::remove_dir_all(dst).map_err(|e| format!("cannot clear {}: {e}", dst.display()))?;
    }
    std::fs::create_dir_all(dst).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(src).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let to = dst.join(entry.file_name());
        std::fs::copy(entry.path(), &to)
            .and_then(|_| std::fs::File::open(&to)?.sync_all())
            .map_err(|e| format!("cannot copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Parse a `snapshot-info` response.
fn info(conn: &mut Conn, t: &mut Tally) -> Option<fq_json::Value> {
    t.attempted += 1;
    let parsed = conn
        .request(INFO_LINE)
        .map_err(|e| e.to_string())
        .and_then(|_| fq_json::parse(&conn.response).map_err(|e| e.to_string()));
    match parsed {
        Ok(v) if v.get("ok").and_then(|o| o.as_bool()) == Some(true) => Some(v),
        Ok(v) => {
            t.fail(format!("snapshot-info failed: {}", v.to_compact()));
            None
        }
        Err(e) => {
            t.fail(format!("snapshot-info: {e}"));
            None
        }
    }
}

fn num(v: &fq_json::Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for k in path {
        cur = cur.get(k)?;
    }
    cur.as_int().map(|n| n as f64)
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Run one untraced benchmark.
pub fn run(job: &Job, record: &mut Record) -> Result<Outcome, String> {
    let Job {
        workload,
        fq,
        cache,
        work,
        schedule,
        seconds,
        threads,
    } = *job;
    let reason = (workload == Workload::Reason).then(|| crate::gen::reason_db(record.seed));
    let facts = &record.facts;
    let start_epoch = facts.get("start_epoch").copied().unwrap_or(0.0) as u64;
    let ctx = Ctx {
        expect: &schedule.expect,
        start_epoch,
        reason: reason.as_ref(),
    };
    let data: PathBuf = work.join("data");
    let args = serve_args(workload, cache, &data);
    let mut total = Tally::default();

    // Set-up, several times: spawn → `listening on`, then the first query.
    // serve_write times its window in legs, one per spawn, and pools them:
    // a single server landed whole runs in one of two scheduling modes 40%
    // apart, and five independent servers average that out.
    let reps = Workload::SETUP_REPS;
    let legs = if workload == Workload::ServeWrite {
        reps
    } else {
        1
    };
    let leg_time = Duration::from_secs_f64(seconds as f64 / legs as f64);
    let first = schedule
        .first
        .as_ref()
        .ok_or("schedule without a first query")?;
    let (mut setups, mut ttfqs, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut window, mut writer, mut wall) = (Tally::default(), Writer::default(), Duration::ZERO);
    let mut server = None;
    for rep in 0..reps {
        if workload == Workload::ServeWrite {
            restore(&cache.join("data"), &data)?;
        }
        let s = Server::start(fq, &args, threads)?;
        setups.push(s.setup.as_secs_f64());
        let mut conn = Conn::open(s.addr).map_err(|e| format!("connect: {e}"))?;
        if let Some((_, ms)) = total.send(&mut conn, first, &ctx) {
            ttfqs.push(ms);
        }
        if rep == 0 {
            record.banner = s.banner.clone();
            if let Some(v) = info(&mut conn, &mut total) {
                for key in ["stored_rows", "dict_entries", "snapshot_bytes", "epoch"] {
                    if let Some(n) = num(&v, &[key]) {
                        record.store.push((format!("server_{key}"), n));
                    }
                }
            }
        }
        // Closed before the leg, so no more than nproc connections are open.
        drop(conn);
        if rep + legs < reps {
            s.kill();
            continue;
        }
        let (t, w, elapsed) = leg(s.addr, schedule, leg_time, &ctx, &mut total)?;
        window.merge(t);
        window.merge(w.tally);
        writer.ack_ms.extend(w.ack_ms);
        writer.late_ms.extend(w.late_ms);
        writer.last_ack_epoch = w.last_ack_epoch;
        wall += elapsed;
        rss.push(s.peak_rss_mb().ok_or("cannot read the server's VmHWM")?);
        if rep + 1 < reps {
            s.kill();
        } else {
            server = Some(s);
        }
    }
    for (i, (s, t)) in setups.iter().zip(&ttfqs).enumerate() {
        record.extra.push((format!("setup_s.{i}"), *s));
        record.extra.push((format!("ttfq_ms.{i}"), *t));
    }
    let (setups, ttfqs) = (sorted(setups), sorted(ttfqs));
    let peak_rss = median(&sorted(rss));
    let server = server.expect("at least one set-up");
    let addr = server.addr;
    let final_checks: Vec<&Req> = schedule
        .warmup
        .iter()
        .filter(|r| r.class == "all_halted")
        .collect();

    // serve_write: final visibility, then kill -9 and recover.
    let mut crash_ok = true;
    if workload == Workload::ServeWrite {
        let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
        for req in &final_checks {
            total.send(&mut conn, req, &ctx);
        }
        let before = info(&mut conn, &mut total);
        let last_ack = writer.last_ack_epoch;
        let expected_rows = facts.get("expected_final_rows").copied();
        let fingerprint = |v: &fq_json::Value| {
            v.get("fingerprint")
                .and_then(|f| f.as_str())
                .map(str::to_string)
        };
        if let Some(v) = &before {
            for (key, path) in [
                ("wal_segments", &["durability", "segments"][..]),
                ("wal_compactions", &["durability", "compactions"][..]),
                ("wal_log_bytes", &["durability", "log_bytes"][..]),
                ("wal_appended", &["durability", "appended"][..]),
                ("final_stored_rows", &["stored_rows"][..]),
                ("final_epoch", &["epoch"][..]),
            ] {
                if let Some(n) = num(v, path) {
                    record.store.push((key.to_string(), n));
                }
            }
            if num(v, &["epoch"]).map(|e| e as u64) != last_ack {
                crash_ok = false;
                total.fail(format!(
                    "final epoch {:?} != last ack {last_ack:?}",
                    num(v, &["epoch"])
                ));
            }
            if num(v, &["stored_rows"]) != expected_rows {
                crash_ok = false;
                total.fail(format!(
                    "final stored rows {:?} != expected {expected_rows:?}",
                    num(v, &["stored_rows"])
                ));
            }
        }
        drop(conn);
        server.kill();
        // A SIGKILL leaves the OS page cache intact: this checks recovery
        // logic, not power-loss durability.
        let restarted = Server::start(fq, &args, threads)?;
        let mut conn = Conn::open(restarted.addr).map_err(|e| format!("connect: {e}"))?;
        let after = info(&mut conn, &mut total);
        let recovered = after
            .as_ref()
            .and_then(|v| num(v, &["epoch"]))
            .map(|e| e as u64);
        let same_fp = before.as_ref().and_then(fingerprint) == after.as_ref().and_then(fingerprint);
        if recovered != last_ack || !same_fp || before.is_none() {
            crash_ok = false;
            total.fail(format!("crash restart: recovered epoch {recovered:?} vs last ack {last_ack:?}, fingerprint equal: {same_fp}"));
        }
        record
            .store
            .push(("recovery_s".into(), restarted.setup.as_secs_f64()));
        restarted.kill();
    } else {
        server.kill();
    }
    record.crash_restart_ok = (workload == Workload::ServeWrite).then_some(crash_ok);

    // Metrics.
    let lat = |f: &dyn Fn(&Done) -> bool| -> Vec<f64> {
        let mut v: Vec<f64> = window.done.iter().filter(|d| f(d)).map(|d| d.ms).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let queries = lat(&|d| d.verb == Verb::Query);
    let explains = lat(&|d| d.verb == Verb::Explain);
    let fresh = lat(&|d| d.fresh);
    let mut classes: Vec<&str> = window.done.iter().map(|d| d.class.as_str()).collect();
    classes.sort();
    classes.dedup();
    for c in classes {
        let v = lat(&|d| d.class == c);
        record
            .classes
            .push((c.to_string(), v.len(), median(&v), percentile(&v, 99.0)));
    }
    let mut acks = writer.ack_ms.clone();
    acks.sort_by(f64::total_cmp);
    let mut late = writer.late_ms.clone();
    late.sort_by(f64::total_cmp);
    if !acks.is_empty() {
        record.extra.push(("ingest_p50_ms".into(), median(&acks)));
        record
            .extra
            .push(("ingest_p90_ms".into(), percentile(&acks, 90.0)));
        record.extra.push(("ingests".into(), acks.len() as f64));
        record
            .extra
            .push(("writer_late_p50_ms".into(), median(&late)));
        record.extra.push((
            "writer_late_max_ms".into(),
            late.last().copied().unwrap_or(0.0),
        ));
    }
    if !fresh.is_empty() {
        record
            .extra
            .push(("fresh_query_p50_ms".into(), median(&fresh)));
        record
            .extra
            .push(("fresh_queries".into(), fresh.len() as f64));
    }
    // Recorded, not gated: a single cold request per spawn varied ±40%
    // within a run (see NOTES.md).
    record.extra.push(("ttfq_ms".into(), median(&ttfqs)));
    record.extra.push(("window_s".into(), wall.as_secs_f64()));
    record.extra.push(("queries".into(), queries.len() as f64));
    record
        .extra
        .push(("explains".into(), explains.len() as f64));
    record.extra.push((
        "queries_beyond_p99".into(),
        (queries.len() as f64 * 0.01).floor(),
    ));
    let n_done = window.done.len();
    total.merge(window);
    record.errors = total.errors.clone();
    let metrics = vec![
        ("query_p50_ms", "ms", median(&queries)),
        ("query_p99_ms", "ms", percentile(&queries, 99.0)),
        ("explain_p50_ms", "ms", median(&explains)),
        ("requests_per_s", "1/s", n_done as f64 / wall.as_secs_f64()),
        ("setup_s", "s", median(&setups)),
        ("peak_rss_mb", "MiB", peak_rss),
    ];
    Ok(Outcome {
        correct: total.failed == 0 && crash_ok,
        attempted: total.attempted,
        failed: total.failed,
        metrics,
    })
}
