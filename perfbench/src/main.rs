//! `fq-perfbench`: the end-to-end benchmark of `fq serve`.
//!
//! ```text
//! fq-perfbench --fq PATH --work DIR --workload serve_read|serve_write|reason
//!              --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the real `fq serve` binary over loopback and
//! prints the end-to-end metrics; `--trace 1` replays the same schedules
//! in-process with spans around every layer call and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. The run record
//! (host, settings, store sizes, weights, per-class latencies) goes to
//! standard error and to `DIR/runs/`. NOTES.md explains the design.

mod e2e;
mod gen;
mod model;
mod proc;
mod scan;
mod stats;
mod traced;

use model::Schedule;
use stats::Record;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeRead,
    ServeWrite,
    Reason,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve_read" => Some(Workload::ServeRead),
            "serve_write" => Some(Workload::ServeWrite),
            "reason" => Some(Workload::Reason),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve_read",
            Workload::ServeWrite => "serve_write",
            Workload::Reason => "reason",
        }
    }

    /// Server spawns per run; `setup_s` and `ttfq_ms` are their medians.
    pub const SETUP_REPS: usize = 5;
}

/// One run's settings and inputs.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub workload: Workload,
    /// The `fq` binary.
    pub fq: &'a Path,
    /// The cached inputs of (workload, seed, seconds).
    pub cache: &'a Path,
    /// Scratch space of this run (the durable directory, span files).
    pub work: &'a Path,
    pub schedule: &'a Schedule,
    pub seconds: u64,
    /// Server threads (`FQ_THREADS`), one per core.
    pub threads: usize,
}

struct Args {
    fq: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        fq: get("fq")?.into(),
        work: get("work")?.into(),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

/// Cached inputs kept per workload (≈110 MB per seed for the trace-store
/// workloads); the least recently used seeds beyond this are evicted.
const CACHE_KEEP: usize = 12;

/// Build the inputs of (workload, seed, seconds) once and cache them; a
/// later run reads them back. The durable directory is restored from its
/// pristine copy before every server start.
fn inputs(a: &Args) -> Result<Inputs, String> {
    let root = a.work.join("cache");
    let dir = root.join(format!("{}-{}-{}s", a.workload.name(), a.seed, a.seconds));
    let ready = dir.join("READY");
    if !ready.exists() {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let started = std::time::Instant::now();
        let built = match a.workload {
            Workload::ServeRead => gen::serve_read(a.seed, &dir, a.seconds, threads())?,
            Workload::ServeWrite => {
                gen::serve_write(a.seed, &dir, a.seconds as f64 / Workload::SETUP_REPS as f64)?
            }
            Workload::Reason => gen::reason(a.seed, &dir, a.seconds)?,
        };
        built
            .schedule
            .write(&dir.join("schedule.txt"))
            .map_err(|e| e.to_string())?;
        let mut facts = String::new();
        for (k, v) in &built.facts {
            facts.push_str(&format!("fact\t{k}\t{v}\n"));
        }
        for (k, v) in &built.weights {
            facts.push_str(&format!("weight\t{k}\t{v}\n"));
        }
        std::fs::write(dir.join("facts.txt"), facts).map_err(|e| e.to_string())?;
        // Flush the ≈100 MB just written, so its write-back does not run
        // during the timed window (it slowed the first run of a fresh seed
        // by up to 25%).
        sync_tree(&dir).map_err(|e| format!("cannot sync {}: {e}", dir.display()))?;
        std::fs::write(&ready, "").map_err(|e| e.to_string())?;
        eprintln!(
            "[perfbench] built inputs in {:.1} s",
            started.elapsed().as_secs_f64()
        );
    }
    // Mark as recently used, then evict the least recently used others.
    let _ = std::fs::File::options()
        .write(true)
        .open(&ready)
        .and_then(|f| f.set_modified(SystemTime::now()));
    evict(&root, a.workload.name(), &dir);
    let schedule = Schedule::read(&dir.join("schedule.txt"))?;
    let text = std::fs::read_to_string(dir.join("facts.txt")).map_err(|e| e.to_string())?;
    let (mut facts, mut weights) = (HashMap::new(), Vec::new());
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let v: f64 = f
            .get(2)
            .and_then(|v| v.parse().ok())
            .ok_or("bad facts.txt")?;
        match f[0] {
            "fact" => {
                facts.insert(f[1].to_string(), v);
            }
            _ => weights.push((f[1].to_string(), v)),
        }
    }
    Ok(Inputs {
        dir,
        schedule,
        facts,
        weights,
    })
}

/// A workload's cached inputs, read back.
struct Inputs {
    dir: PathBuf,
    schedule: Schedule,
    facts: HashMap<String, f64>,
    weights: Vec<(String, f64)>,
}

/// `fsync` every file under `dir`.
fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(())
}

fn evict(root: &Path, workload: &str, keep: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut dirs: Vec<(SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p != keep)
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&format!("{workload}-")))
        })
        .map(|p| {
            let t = std::fs::metadata(p.join("READY"))
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            (t, p)
        })
        .collect();
    dirs.sort();
    let excess = (dirs.len() + 1).saturating_sub(CACHE_KEEP);
    for (_, p) in dirs.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(p);
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(a: &Args) -> Result<(e2e::Outcome, Record), String> {
    if !a.fq.is_file() {
        return Err(format!("no fq binary at {}", a.fq.display()));
    }
    if a.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let Inputs {
        dir: cache,
        schedule,
        facts,
        weights,
    } = inputs(a)?;
    let run_dir = a.work.join("run").join(a.workload.name());
    std::fs::create_dir_all(&run_dir).map_err(|e| e.to_string())?;
    let nproc = threads();
    let fq_threads = nproc;
    let mut record = Record {
        workload: a.workload.name().into(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        nproc,
        fq_threads,
        durability: if a.workload == Workload::ServeWrite {
            "batch"
        } else {
            "none (in-memory store)"
        },
        facts,
        weights,
        ..Record::default()
    };
    let job = Job {
        workload: a.workload,
        fq: &a.fq,
        cache: &cache,
        work: &run_dir,
        schedule: &schedule,
        seconds: a.seconds,
        threads: fq_threads,
    };
    let outcome = if a.trace {
        traced::run(&job, &mut record)?
    } else {
        e2e::run(&job, &mut record)?
    };
    Ok((outcome, record))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fq-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (outcome, mut record) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fq-perfbench: {e}");
            std::process::exit(1);
        }
    };
    if outcome.metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        eprintln!(
            "fq-perfbench: a metric is not a finite number: {:?}",
            outcome.metrics
        );
        std::process::exit(1);
    }
    record.metrics = outcome
        .metrics
        .iter()
        .map(|(k, u, v)| (k.to_string(), u.to_string(), *v))
        .collect();
    // A traced run shows its own latencies beside the untraced run's.
    let runs = args.work.join("runs");
    let _ = std::fs::create_dir_all(&runs);
    let stem = format!("{}-{}", args.workload.name(), args.seed);
    if args.trace {
        if let Ok(text) = std::fs::read_to_string(runs.join(format!("{stem}-trace0.json"))) {
            if let Ok(untraced) = fq_json::parse(&text) {
                for key in ["query_p50_ms", "query_p99_ms", "requests_per_s"] {
                    let value = untraced
                        .get("metrics")
                        .and_then(|m| m.get(key))
                        .and_then(|m| m.get("value"))
                        .and_then(|v| v.as_str())
                        .and_then(|v| v.parse::<f64>().ok());
                    if let Some(v) = value {
                        record.extra.push((format!("untraced.{key}"), v));
                    }
                }
            }
        }
    }
    let text = record.to_json().to_pretty();
    eprintln!("{text}");
    let _ = std::fs::write(
        runs.join(format!("{stem}-trace{}.json", u8::from(args.trace))),
        &text,
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        // `+ 0.0` turns a negative zero into 0.
        .map(|(k, u, v)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", v + 0.0))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
