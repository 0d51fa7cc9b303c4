//! The traced run: the same schedules replayed in-process, one thread per
//! connection, through the public calls of each layer in the order
//! `fq serve` makes them. Spans live in memory and are written out at
//! the end; per-layer self times and counts are derived from them.

use crate::e2e::{check, restore, Ctx, Outcome};
use crate::model::{Req, Verb};
use crate::stats::{median, percentile, sorted, Record};
use crate::{Job, Workload};
use fq_engine::{Engine, EngineConfig};
use fq_json::{FromJson, ToJson, Value as Json};
use fq_query::{Completeness, DomainId, Executor, QueryOutcome};
use fq_relational::{format, SharedState, State, Value, WalOptions};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed call. Spans of one request share `req`; `parent` indexes
/// the request's root span in the same thread's list.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    req: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a request did, beyond its spans.
#[derive(Clone, Debug, Default)]
struct Facts {
    verb: Option<Verb>,
    warm: bool,
    strategy: &'static str,
    plan_hit: Option<bool>,
    answer_rows: u64,
    op_rows: u64,
    morsels: u64,
    candidates: Option<u64>,
    rows_sent: u64,
    rows_added: u64,
    response_bytes: u64,
    wal_bytes: Option<u64>,
    wal_segments_delta: i64,
    compactions_delta: u64,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    facts: Vec<Facts>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Time `f` as a child span of request `req` (root at `root`).
    fn time<T>(&mut self, name: &'static str, root: u32, req: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(root),
            req,
        });
        out
    }
}

/// The in-process stand-in for `fq serve`'s request handler.
struct Service {
    shared: Arc<SharedState>,
    exec: Executor,
    fingerprinted: Mutex<HashSet<u64>>,
}

fn err(msg: impl ToString) -> String {
    fq_json::object([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.to_string())),
    ])
    .to_compact()
}

fn completeness_json(c: &Completeness) -> Json {
    match c {
        Completeness::Certified => Json::Str("certified".into()),
        Completeness::CertifiedRanf {
            infinite,
            restrictor_rows,
        } => fq_json::object([(
            "certified_ranf",
            fq_json::object([
                ("infinite", infinite.to_json()),
                ("restrictor_rows", restrictor_rows.to_json()),
            ]),
        )]),
        Completeness::Decided { value } => fq_json::object([("decided", value.to_json())]),
        Completeness::Partial {
            candidates_tried,
            max_candidates,
        } => fq_json::object([(
            "partial",
            fq_json::object([
                ("candidates_tried", candidates_tried.to_json()),
                ("max_candidates", max_candidates.to_json()),
            ]),
        )]),
    }
}

/// The layer an execution is attributed to, by plan strategy.
fn execute_span(strategy: &str) -> &'static str {
    match strategy {
        "algebra" => "physical.execute",
        "ranf" => "ranf.execute",
        "active-domain" => "active_eval.execute",
        "enumerate-and-ask" => "answer.execute",
        _ => "domains.decide",
    }
}

impl Service {
    /// Handle one request line as `QueryService::handle_line` does, with
    /// a span around every call into a layer.
    fn handle(&self, line: &str, tr: &mut Tracer, req: u32, facts: &mut Facts) -> String {
        let root = tr.spans.len() as u32;
        let start_ns = tr.now();
        tr.spans.push(Span {
            name: "request",
            start_ns,
            end_ns: start_ns,
            parent: None,
            req,
        });
        let response = self.dispatch(line, tr, root, req, facts);
        let end = tr.now();
        tr.spans[root as usize].end_ns = end;
        facts.response_bytes = response.len() as u64;
        response
    }

    fn dispatch(
        &self,
        line: &str,
        tr: &mut Tracer,
        root: u32,
        req: u32,
        facts: &mut Facts,
    ) -> String {
        let request = match tr.time("json.decode", root, req, || fq_json::parse(line)) {
            Ok(r) => r,
            Err(e) => return err(format!("malformed request: {e}")),
        };
        let response = match request.get("cmd").and_then(Json::as_str) {
            Some(cmd @ ("query" | "explain")) => {
                self.query(&request, cmd == "explain", tr, root, req, facts)
            }
            Some("ingest") => self.ingest(&request, tr, root, req, facts),
            Some("snapshot-info") => {
                let snapshot = self.shared.snapshot();
                tr.time("serve.snapshot_info", root, req, || {
                    let mut info = fq_query::serve::snapshot_info_json(&snapshot, &self.exec);
                    if let (Some(wal), Json::Object(members)) = (self.shared.wal_info(), &mut info)
                    {
                        members.push(("durability".into(), fq_query::serve::wal_info_json(&wal)));
                    }
                    let mut members = vec![("ok".to_string(), Json::Bool(true))];
                    if let Json::Object(fields) = info {
                        members.extend(fields);
                    }
                    Json::Object(members).to_compact()
                })
            }
            _ => err("missing or unknown `cmd`"),
        };
        // Freeing the parsed request (a whole batch, for an ingest) is
        // fq-json's cost too.
        tr.time("json.drop", root, req, move || drop(request));
        response
    }

    fn query(
        &self,
        request: &Json,
        explain: bool,
        tr: &mut Tracer,
        root: u32,
        req: u32,
        facts: &mut Facts,
    ) -> String {
        let (Some(source), Some(domain)) = (
            request.get("query").and_then(Json::as_str),
            request.get("domain").and_then(Json::as_str),
        ) else {
            return err("missing `query` or `domain`");
        };
        let domain = match DomainId::parse(domain) {
            Ok(d) => d,
            Err(e) => return err(e),
        };
        let snapshot = self.shared.snapshot();
        let fresh = self
            .fingerprinted
            .lock()
            .expect("not poisoned")
            .insert(snapshot.epoch());
        if fresh {
            tr.time("state.fingerprint", root, req, || snapshot.fingerprint());
        }
        let planned = {
            let start_ns = tr.now();
            let planned = self.exec.plan(&snapshot, source, domain);
            let end_ns = tr.now();
            let hit = matches!(planned, Ok((_, true)));
            facts.plan_hit = Some(hit);
            tr.spans.push(Span {
                name: if hit { "plan.hit" } else { "plan.miss" },
                start_ns,
                end_ns,
                parent: Some(root),
                req,
            });
            match planned {
                Ok((p, _)) => p,
                Err(e) => return err(e),
            }
        };
        let strategy = planned.plan.strategy();
        facts.strategy = strategy;
        let out: QueryOutcome = match tr.time(execute_span(strategy), root, req, || {
            self.exec.execute_snapshot(&snapshot, source, domain)
        }) {
            Ok(o) => o,
            Err(e) => return err(e),
        };
        facts.answer_rows = out.rows.len() as u64;
        facts.op_rows = out.operators.iter().map(|o| o.rows as u64).sum();
        facts.morsels = out.operators.iter().map(|o| o.morsels as u64).sum();
        if let Completeness::Partial {
            candidates_tried, ..
        } = out.completeness
        {
            facts.candidates = Some(candidates_tried as u64);
        }
        // The closure owns the outcome, so freeing its rows is timed with
        // the encoding that consumed them.
        tr.time("json.encode", root, req, move || {
            let mut members = vec![
                ("ok".to_string(), Json::Bool(true)),
                ("epoch".to_string(), snapshot.epoch().to_json()),
                ("domain".to_string(), domain.key().to_json()),
                ("strategy".to_string(), strategy.to_json()),
            ];
            if explain {
                members.push(("explain".into(), planned.explain().to_json()));
                members.push(("rows".into(), out.rows.len().to_json()));
            } else {
                members.push(("vars".into(), out.vars.to_json()));
                members.push(("rows".into(), out.rows.to_json()));
                members.push(("completeness".into(), completeness_json(&out.completeness)));
                members.push(("plan_cached".into(), out.stats.plan_cached.to_json()));
            }
            Json::Object(members).to_compact()
        })
    }

    fn ingest(
        &self,
        request: &Json,
        tr: &mut Tracer,
        root: u32,
        req: u32,
        facts: &mut Facts,
    ) -> String {
        let Some(relation) = request.get("relation").and_then(Json::as_str) else {
            return err("missing `relation`");
        };
        let rows: Vec<Vec<Value>> = match tr.time("json.decode", root, req, || {
            request.get("rows").map(<Vec<Vec<Value>>>::from_json)
        }) {
            Some(Ok(rows)) => rows,
            _ => return err("bad `rows`"),
        };
        facts.rows_sent = rows.len() as u64;
        let before = self.shared.wal_info();
        let published = tr.time("snapshot.ingest", root, req, || {
            self.shared.ingest_batches([(relation.to_string(), rows)])
        });
        let (added, epoch) = match published {
            Ok(p) => p,
            Err(e) => return err(e),
        };
        let after = self.shared.wal_info();
        if let (Some(b), Some(a)) = (before, after) {
            facts.compactions_delta = a.compactions - b.compactions;
            facts.wal_segments_delta = a.segments as i64 - b.segments as i64;
            if a.compactions == b.compactions {
                facts.wal_bytes = Some(a.log_bytes.saturating_sub(b.log_bytes));
            }
        }
        facts.rows_added = added as u64;
        let snapshot = self.shared.snapshot();
        let len = tr.time("format.snapshot_len", root, req, || {
            format::snapshot_len(snapshot.state())
        });
        tr.time("json.encode", root, req, || {
            fq_json::object([
                ("ok", Json::Bool(true)),
                ("added", added.to_json()),
                ("epoch", epoch.to_json()),
                ("format", Json::Str(fq_relational::FORMAT_ID.to_string())),
                ("snapshot_bytes", len.to_json()),
            ])
            .to_compact()
        })
    }
}

struct Thread {
    tracer: Tracer,
    failed: u64,
    attempted: u64,
    errors: Vec<String>,
}

impl Thread {
    fn new(t0: Instant) -> Thread {
        Thread {
            tracer: Tracer {
                t0,
                spans: Vec::new(),
                facts: Vec::new(),
            },
            failed: 0,
            attempted: 0,
            errors: Vec::new(),
        }
    }

    fn send(&mut self, svc: &Service, r: &Req, ctx: &Ctx, warm: bool) -> Option<crate::scan::Resp> {
        let id = self.tracer.facts.len() as u32;
        let mut facts = Facts {
            verb: Some(r.verb),
            warm,
            ..Facts::default()
        };
        let response = svc.handle(&r.line, &mut self.tracer, id, &mut facts);
        self.tracer.facts.push(facts);
        self.attempted += 1;
        match check(r, &response, ctx) {
            Ok(resp) => Some(resp),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// Replay one workload in-process with tracing.
pub fn run(job: &Job, record: &mut Record) -> Result<Outcome, String> {
    let Job {
        workload,
        cache,
        work,
        schedule,
        seconds,
        threads,
        ..
    } = *job;
    let t0 = Instant::now();
    let mut setup = Thread::new(t0);
    let mut layer: Vec<(&'static str, &'static str, f64)> = Vec::new();
    let (mut load_s, mut read_s, mut recover_s) = (0.0, 0.0, 0.0);
    let (mut bytes_per_row, mut replayed) = (0.0, 0.0);
    let shared = if workload == Workload::ServeWrite {
        let data = work.join("data");
        restore(&cache.join("data"), &data)?;
        let base = std::fs::read_dir(&data)
            .map_err(|e| e.to_string())?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "fqsnap"))
            .ok_or("no base snapshot in the data directory")?;
        let bytes = std::fs::read(&base).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let state = State::read_snapshot(&bytes).map_err(|e| e.to_string())?;
        read_s = started.elapsed().as_secs_f64();
        bytes_per_row = bytes.len() as f64 / state.size().max(1) as f64;
        drop(state);
        let started = Instant::now();
        let (shared, recovery) = SharedState::open_durable(&data, WalOptions::default())
            .map_err(|e| format!("recovery failed: {e}"))?;
        recover_s = started.elapsed().as_secs_f64();
        replayed = recovery.replayed as f64;
        shared
    } else {
        let text = std::fs::read_to_string(cache.join("store.json")).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let state: State = fq_json::from_str(&text).map_err(|e| e.to_string())?;
        load_s = started.elapsed().as_secs_f64();
        SharedState::new(state)
    };
    let svc = Service {
        shared: Arc::new(shared),
        exec: Executor::new(Engine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        })),
        fingerprinted: Mutex::new(HashSet::new()),
    };
    let reason = (workload == Workload::Reason).then(|| crate::gen::reason_db(record.seed));
    let start_epoch = svc.shared.epoch();
    let ctx = Ctx {
        expect: &schedule.expect,
        start_epoch,
        reason: reason.as_ref(),
    };
    if let Some(first) = &schedule.first {
        setup.send(&svc, first, &ctx, true);
    }
    for r in schedule.warmup.iter().filter(|r| r.class != "all_halted") {
        setup.send(&svc, r, &ctx, true);
    }

    // The window: readers closed-loop, the writer open-loop, as untraced.
    let engine0 = svc.exec.engine().cache_stats();
    let plan0 = svc.exec.plan_cache_stats();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    // serve_write replays one leg (its schedule holds one leg's batches).
    let legs = if workload == Workload::ServeWrite {
        Workload::SETUP_REPS
    } else {
        1
    };
    let deadline = start + Duration::from_secs_f64(seconds as f64 / legs as f64);
    let mut done: Vec<Thread> = std::thread::scope(|s| {
        let readers: Vec<_> = schedule
            .conns
            .iter()
            .map(|reqs| {
                let (svc, ctx, stop) = (&svc, &ctx, &stop);
                s.spawn(move || {
                    let mut t = Thread::new(t0);
                    let mut i = 0;
                    while !stop.load(Ordering::Relaxed) {
                        t.send(svc, &reqs[i % reqs.len()], ctx, false);
                        i += 1;
                    }
                    t
                })
            })
            .collect();
        let writer = (!schedule.batches.is_empty()).then(|| {
            let (svc, ctx) = (&svc, &ctx);
            s.spawn(move || {
                let mut t = Thread::new(t0);
                for (i, b) in schedule.batches.iter().enumerate() {
                    let due = start + Duration::from_secs_f64(i as f64 / crate::gen::WRITER_RATE);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    t.send(svc, b, ctx, false);
                }
                t
            })
        });
        let mut out: Vec<Thread> = writer
            .map(|h| h.join().expect("writer thread"))
            .into_iter()
            .collect();
        let now = Instant::now();
        if now < deadline {
            std::thread::sleep(deadline - now);
        }
        stop.store(true, Ordering::Relaxed);
        out.extend(
            readers
                .into_iter()
                .map(|h| h.join().expect("reader thread")),
        );
        out
    });
    let wall = start.elapsed().as_secs_f64();
    let engine1 = svc.exec.engine().cache_stats();
    let plan1 = svc.exec.plan_cache_stats();
    done.push(setup);

    // Derive the per-layer figures.
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut layer_ns: HashMap<&'static str, u64> = HashMap::new();
    let (mut req_ns, mut child_ns) = (0u64, 0u64);
    let mut query_ms = Vec::new();
    let mut all: Vec<Facts> = Vec::new();
    let mut spans_out = String::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut errors = Vec::new();
    for (tid, t) in done.iter().enumerate() {
        attempted += t.attempted;
        failed += t.failed;
        errors.extend(t.errors.iter().cloned());
        for s in &t.tracer.spans {
            let f = &t.tracer.facts[s.req as usize];
            let _ = writeln!(
                spans_out,
                "{tid}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or(-1, i64::from)
            );
            let ms = s.ns() as f64 / 1e6;
            // Plan misses count over the whole replay (warm-up included);
            // everything else over the window.
            if s.name == "plan.miss" || s.name == "state.fingerprint" || !f.warm {
                by_name.entry(s.name).or_default().push(ms);
            }
            if f.warm {
                continue;
            }
            if s.parent.is_none() {
                req_ns += s.ns();
                if f.verb == Some(Verb::Query) {
                    query_ms.push(ms);
                }
            } else {
                child_ns += s.ns();
                *layer_ns.entry(s.name).or_default() += s.ns();
            }
        }
        all.extend(t.tracer.facts.iter().cloned());
    }
    let trace_path = work.join(format!("spans-{}-{}.tsv", record.workload, record.seed));
    std::fs::write(&trace_path, spans_out).map_err(|e| e.to_string())?;
    let get = |name: &str| sorted(by_name.get(name).cloned().unwrap_or_default());
    let p50 = |name: &str| median(&get(name));
    let busy = |name: &str| layer_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let window: Vec<&Facts> = all.iter().filter(|f| !f.warm).collect();
    let sum = |f: &dyn Fn(&Facts) -> u64| window.iter().map(|x| f(x)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let algebra = |f: &Facts| f.strategy == "algebra";
    let n_algebra = window.iter().filter(|f| algebra(f)).count() as f64;
    let plan_lookups = window.iter().filter(|f| f.plan_hit.is_some()).count() as f64;
    let plan_hits = window.iter().filter(|f| f.plan_hit == Some(true)).count() as f64;
    let hit_p50_ms = p50("plan.hit");
    // execute_snapshot re-plans internally (a hit, by construction): take
    // the median hit off each execution, as plan time.
    let physical = get("physical.execute");
    let phys_net: Vec<f64> = sorted(physical.iter().map(|x| (x - hit_p50_ms).max(0.0)).collect());
    let partial: Vec<&&Facts> = window.iter().filter(|f| f.candidates.is_some()).collect();
    let engine_lookups = (engine1.0 + engine1.1 - engine0.0 - engine0.1) as f64;
    let engine_hits = (engine1.0 - engine0.0) as f64;
    let plan_traffic = (plan1.0 + plan1.1 - plan0.0 - plan0.1) as f64;
    let plan_traffic_hits = (plan1.0 - plan0.0) as f64;
    let wal_bytes: Vec<&&Facts> = window.iter().filter(|f| f.wal_bytes.is_some()).collect();
    let payload = record
        .facts
        .get("writer_payload_bytes")
        .copied()
        .unwrap_or(0.0);
    let rows_sent_all = record.facts.get("writer_rows_sent").copied().unwrap_or(0.0);
    let sent_window = sum(&|f| f.rows_sent);
    // Payload bytes of the rows each ingest carried, pro rata.
    let payload_per_row = ratio(payload, rows_sent_all);
    let wal_user = wal_bytes
        .iter()
        .map(|f| f.rows_sent as f64 * payload_per_row)
        .sum::<f64>();
    let wal_written = wal_bytes
        .iter()
        .map(|f| f.wal_bytes.unwrap_or(0) as f64)
        .sum::<f64>();
    let query_ms = sorted(query_ms);
    let response_kb = sorted(
        window
            .iter()
            .map(|f| f.response_bytes as f64 / 1024.0)
            .collect(),
    );
    let encode_us = sorted(get("json.encode").iter().map(|x| x * 1e3).collect());
    let decode_us = sorted(get("json.decode").iter().map(|x| x * 1e3).collect());
    let snaplen_us = sorted(get("format.snapshot_len").iter().map(|x| x * 1e3).collect());
    let rotations = window
        .iter()
        .map(|f| f.wal_segments_delta.max(0) as f64)
        .sum::<f64>();
    layer.extend([
        ("json.decode_p50_us", "us", median(&decode_us)),
        ("json.encode_p50_us", "us", median(&encode_us)),
        ("json.response_kb_p50", "KiB", median(&response_kb)),
        ("json.load_s", "s", load_s),
        ("plan.lookups", "count", plan_lookups),
        ("plan.hit_ratio", "ratio", ratio(plan_hits, plan_lookups)),
        ("plan.hit_p50_us", "us", hit_p50_ms * 1e3),
        ("plan.miss_p50_ms", "ms", p50("plan.miss")),
        (
            "plan.miss_busy_s",
            "s",
            get("plan.miss").iter().sum::<f64>() / 1e3,
        ),
        ("state.fingerprint_p50_ms", "ms", p50("state.fingerprint")),
        ("physical.execute_p50_ms", "ms", median(&phys_net)),
        ("physical.busy_s", "s", phys_net.iter().sum::<f64>() / 1e3),
        (
            "physical.rows_examined_per_row",
            "ratio",
            ratio(
                window
                    .iter()
                    .filter(|f| algebra(f))
                    .map(|f| f.op_rows as f64)
                    .sum(),
                window
                    .iter()
                    .filter(|f| algebra(f))
                    .map(|f| f.answer_rows as f64)
                    .sum(),
            ),
        ),
        (
            "physical.morsels_per_query",
            "count",
            ratio(
                window
                    .iter()
                    .filter(|f| algebra(f))
                    .map(|f| f.morsels as f64)
                    .sum(),
                n_algebra,
            ),
        ),
        ("ranf.execute_p50_ms", "ms", p50("ranf.execute")),
        (
            "active_eval.execute_p50_ms",
            "ms",
            p50("active_eval.execute"),
        ),
        ("answer.execute_p50_ms", "ms", p50("answer.execute")),
        (
            "answer.rows_per_candidate",
            "ratio",
            ratio(
                partial.iter().map(|f| f.answer_rows as f64).sum(),
                partial
                    .iter()
                    .map(|f| f.candidates.unwrap_or(0) as f64)
                    .sum(),
            ),
        ),
        ("domains.decide_p50_ms", "ms", p50("domains.decide")),
        (
            "engine.memo_lookups",
            "count",
            engine_lookups - plan_traffic,
        ),
        (
            "engine.memo_hit_ratio",
            "ratio",
            ratio(
                engine_hits - plan_traffic_hits,
                engine_lookups - plan_traffic,
            ),
        ),
        ("snapshot.ingest_p50_ms", "ms", p50("snapshot.ingest")),
        ("snapshot.ingest_busy_s", "s", busy("snapshot.ingest")),
        (
            "snapshot.rows_added_per_row_sent",
            "ratio",
            ratio(sum(&|f| f.rows_added), sent_window),
        ),
        ("format.snapshot_len_p50_us", "us", median(&snaplen_us)),
        ("format.read_s", "s", read_s),
        ("format.bytes_per_stored_row", "B", bytes_per_row),
        ("wal.recover_s", "s", recover_s),
        ("wal.replayed_records", "count", replayed),
        (
            "wal.bytes_per_user_byte",
            "ratio",
            ratio(wal_written, wal_user),
        ),
        ("wal.rotations", "count", rotations),
        ("wal.compactions", "count", sum(&|f| f.compactions_delta)),
        (
            "trace.coverage",
            "ratio",
            ratio(child_ns as f64, req_ns as f64),
        ),
        ("traced.query_p50_ms", "ms", median(&query_ms)),
        ("traced.query_p99_ms", "ms", percentile(&query_ms, 99.0)),
        ("traced.requests_per_s", "1/s", window.len() as f64 / wall),
    ]);
    let mut self_times: Vec<(String, f64)> = layer_ns
        .iter()
        .map(|(k, v)| (format!("self_s.{k}"), *v as f64 / 1e9))
        .collect();
    self_times.sort_by(|a, b| a.0.cmp(&b.0));
    record.extra.extend(self_times);
    record
        .extra
        .push(("traced_request_s".into(), req_ns as f64 / 1e9));
    record.extra.push((
        "spans_file_rows".into(),
        done.iter().map(|t| t.tracer.spans.len()).sum::<usize>() as f64,
    ));
    record.errors = errors;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layer,
    })
}
