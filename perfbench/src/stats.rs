//! Percentiles and the run record.

use fq_json::Value as Json;
use std::collections::HashMap;

/// The median of sorted values (0 when empty).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted values (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Everything a run records besides its gated metrics: host, settings,
/// store sizes, weights, per-class latencies and the checks' outcome.
#[derive(Default)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub fq_threads: usize,
    pub durability: &'static str,
    /// Facts the input builder recorded (store sizes, writer volume).
    pub facts: HashMap<String, f64>,
    pub weights: Vec<(String, f64)>,
    /// Facts observed at run time (server banner numbers, WAL counters).
    pub store: Vec<(String, f64)>,
    pub banner: Vec<String>,
    /// (class, samples, p50 ms, p99 ms)
    pub classes: Vec<(String, usize, f64, f64)>,
    pub extra: Vec<(String, f64)>,
    pub crash_restart_ok: Option<bool>,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, String, f64)>,
}

fn num(x: f64) -> Json {
    // The repository's JSON codec holds integers only; keep six decimals
    // of every figure by writing it as a string.
    Json::Str(format!("{x:.6}"))
}

fn pairs(v: &[(String, f64)]) -> Json {
    Json::Object(v.iter().map(|(k, x)| (k.clone(), num(*x))).collect())
}

impl Record {
    pub fn to_json(&self) -> Json {
        let mut facts: Vec<(String, f64)> =
            self.facts.iter().map(|(k, v)| (k.clone(), *v)).collect();
        facts.sort_by(|a, b| a.0.cmp(&b.0));
        let int = |n: u64| Json::Int(i128::from(n));
        Json::Object(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), int(self.seed)),
            ("seconds".into(), int(self.seconds)),
            ("trace".into(), Json::Bool(self.trace)),
            ("nproc".into(), int(self.nproc as u64)),
            ("fq_threads".into(), int(self.fq_threads as u64)),
            ("durability".into(), Json::Str(self.durability.into())),
            ("inputs".into(), pairs(&facts)),
            ("weights".into(), pairs(&self.weights)),
            ("store".into(), pairs(&self.store)),
            (
                "banner".into(),
                Json::Array(self.banner.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "classes".into(),
                Json::Array(
                    self.classes
                        .iter()
                        .map(|(c, n, p50, p99)| {
                            Json::Object(vec![
                                ("class".into(), Json::Str(c.clone())),
                                ("samples".into(), int(*n as u64)),
                                ("p50_ms".into(), num(*p50)),
                                ("p99_ms".into(), num(*p99)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("extra".into(), pairs(&self.extra)),
            (
                "crash_restart_ok".into(),
                self.crash_restart_ok.map_or(Json::Null, Json::Bool),
            ),
            (
                "errors".into(),
                Json::Array(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "metrics".into(),
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(k, unit, v)| {
                            (
                                k.clone(),
                                Json::Object(vec![
                                    ("value".into(), num(*v)),
                                    ("unit".into(), Json::Str(unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
