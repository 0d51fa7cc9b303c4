//! The benchmark's vocabulary: requests with their expected answers, the
//! row digest both sides compute, and the on-disk form of a workload's
//! cached inputs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// One value of an answer row, as the generator computes it and as the
/// response scanner decodes it.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Val {
    Nat(u64),
    Str(String),
}

/// Order-independent digest of a row set: the wrapping sum of a mixed
/// 64-bit hash per row. Equal sets give equal digests however the server
/// orders its rows.
pub fn row_hash<'a>(values: impl IntoIterator<Item = ValRef<'a>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for v in values {
        match v {
            ValRef::Nat(n) => {
                eat(0);
                n.to_le_bytes().into_iter().for_each(&mut eat);
            }
            ValRef::Str(s) => {
                eat(1);
                s.iter().copied().for_each(&mut eat);
                eat(0xff);
            }
        }
    }
    // splitmix64 finalizer, so that summing hashes mixes well.
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug)]
pub enum ValRef<'a> {
    Nat(u64),
    Str(&'a [u8]),
}

impl Val {
    pub fn as_ref(&self) -> ValRef<'_> {
        match self {
            Val::Nat(n) => ValRef::Nat(*n),
            Val::Str(s) => ValRef::Str(s.as_bytes()),
        }
    }
}

/// Count and digest of a row set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowSet {
    pub count: u64,
    pub digest: u64,
}

impl RowSet {
    pub fn add(&mut self, row: &[Val]) {
        self.count += 1;
        self.digest = self
            .digest
            .wrapping_add(row_hash(row.iter().map(Val::as_ref)));
    }

    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Vec<Val>>) -> RowSet {
        let mut set = RowSet::default();
        for r in rows {
            set.add(r);
        }
        set
    }
}

/// The verbs the benchmark sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Query,
    Explain,
    Info,
    Ingest,
}

/// A property of a partial (budget-exhausted) answer that every returned
/// row must satisfy, checked on integers decoded from the row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pred {
    /// `!F(x, y) & x < y + k`
    NotFBelow(i64),
    /// `F(x, y) | x < k`
    FOrXBelow(i64),
    /// `!F(x, y) & x < k`
    NotFXBelowConst(i64),
}

/// What a response must say to count as correct.
#[derive(Clone, Debug, PartialEq)]
pub enum Check {
    /// Exactly this row set.
    Rows(RowSet),
    /// The row set the text has at the response's epoch (see
    /// [`Expect::at_epoch`]); `usize` is the text id.
    AtEpoch(usize),
    /// `explain`: the answer has exactly this many rows.
    ExplainRows(u64),
    /// `explain`: the row count the text has at the response's epoch.
    ExplainAtEpoch(usize),
    /// `explain` of an answer with no exact row count (partial or decided).
    ExplainOk,
    /// A decided sentence with this truth value.
    Decided(bool),
    /// A RANF answer: exactly this active-domain core and verdict.
    Ranf { core: RowSet, infinite: bool },
    /// A partial answer: the budget ran out and every row satisfies `Pred`.
    Partial { pred: Pred, budget: u64 },
    /// `snapshot-info`: `ok` and an epoch no older than the last one seen.
    Info,
    /// An ingest: acknowledged at the next epoch with this many new rows.
    Ingest { added: u64 },
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Req {
    /// Template class, for per-class reporting and weights.
    pub class: String,
    pub verb: Verb,
    pub check: Check,
    /// The request line, without the trailing newline.
    pub line: String,
}

/// Expected row sets of epoch-dependent texts: for each text id, the
/// change points `(epoch offset, row set)` in increasing offset order.
#[derive(Clone, Debug, Default)]
pub struct Expect {
    pub changes: HashMap<usize, Vec<(u64, RowSet)>>,
}

impl Expect {
    /// The row set of `text` at `offset` epochs past the starting epoch.
    pub fn at_epoch(&self, text: usize, offset: u64) -> Option<RowSet> {
        let changes = self.changes.get(&text)?;
        let i = changes.partition_point(|(o, _)| *o <= offset);
        (i > 0).then(|| changes[i - 1].1)
    }
}

/// A workload's generated inputs, as cached on disk.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Every distinct read text once, sent before the timed window.
    pub warmup: Vec<Req>,
    /// The fixed first query each fresh server answers (`ttfq_ms`).
    pub first: Option<Req>,
    /// One closed-loop schedule per reading connection.
    pub conns: Vec<Vec<Req>>,
    /// The open-loop writer's batches, in send order.
    pub batches: Vec<Req>,
    pub expect: Expect,
}

fn check_to_string(check: &Check) -> String {
    let set = |s: &RowSet| format!("{}:{}", s.count, s.digest);
    match check {
        Check::Rows(s) => format!("rows:{}", set(s)),
        Check::AtEpoch(t) => format!("at:{t}"),
        Check::ExplainRows(n) => format!("xrows:{n}"),
        Check::ExplainAtEpoch(t) => format!("xat:{t}"),
        Check::ExplainOk => "xok".to_string(),
        Check::Decided(b) => format!("dec:{}", u8::from(*b)),
        Check::Ranf { core, infinite } => format!("ranf:{}:{}", set(core), u8::from(*infinite)),
        Check::Partial { pred, budget } => {
            let (p, k) = match pred {
                Pred::NotFBelow(k) => ("nfb", k),
                Pred::FOrXBelow(k) => ("fox", k),
                Pred::NotFXBelowConst(k) => ("nfc", k),
            };
            format!("part:{p}:{k}:{budget}")
        }
        Check::Info => "info".to_string(),
        Check::Ingest { added } => format!("ingest:{added}"),
    }
}

fn check_from_str(s: &str) -> Option<Check> {
    let parts: Vec<&str> = s.split(':').collect();
    let num = |i: usize| parts.get(i)?.parse::<u64>().ok();
    let set = |i: usize| {
        Some(RowSet {
            count: num(i)?,
            digest: num(i + 1)?,
        })
    };
    Some(match parts[0] {
        "rows" => Check::Rows(set(1)?),
        "at" => Check::AtEpoch(num(1)? as usize),
        "xrows" => Check::ExplainRows(num(1)?),
        "xat" => Check::ExplainAtEpoch(num(1)? as usize),
        "xok" => Check::ExplainOk,
        "dec" => Check::Decided(num(1)? == 1),
        "ranf" => Check::Ranf {
            core: set(1)?,
            infinite: num(3)? == 1,
        },
        "part" => {
            let k = parts.get(2)?.parse::<i64>().ok()?;
            let pred = match parts[1] {
                "nfb" => Pred::NotFBelow(k),
                "fox" => Pred::FOrXBelow(k),
                "nfc" => Pred::NotFXBelowConst(k),
                _ => return None,
            };
            Check::Partial {
                pred,
                budget: num(3)?,
            }
        }
        "info" => Check::Info,
        "ingest" => Check::Ingest { added: num(1)? },
        _ => return None,
    })
}

fn verb_key(v: Verb) -> &'static str {
    match v {
        Verb::Query => "query",
        Verb::Explain => "explain",
        Verb::Info => "info",
        Verb::Ingest => "ingest",
    }
}

impl Schedule {
    /// Serialize as tab-separated lines: `section, class, verb, check,
    /// request line` (request lines are compact JSON, free of tabs and
    /// newlines), then `expect` lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let mut put = |section: &str, r: &Req| {
            let _ = writeln!(
                out,
                "{section}\t{}\t{}\t{}\t{}",
                r.class,
                verb_key(r.verb),
                check_to_string(&r.check),
                r.line
            );
        };
        self.warmup.iter().for_each(|r| put("warmup", r));
        self.first.iter().for_each(|r| put("first", r));
        for (i, conn) in self.conns.iter().enumerate() {
            conn.iter().for_each(|r| put(&format!("conn{i}"), r));
        }
        self.batches.iter().for_each(|r| put("batch", r));
        let mut texts: Vec<_> = self.expect.changes.iter().collect();
        texts.sort_by_key(|(t, _)| **t);
        for (text, changes) in texts {
            for (offset, set) in changes {
                let _ = writeln!(
                    out,
                    "expect\t{text}\t{offset}\t{}\t{}",
                    set.count, set.digest
                );
            }
        }
        std::fs::write(path, out)
    }

    pub fn read(path: &Path) -> Result<Schedule, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut s = Schedule::default();
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("{}:{}: malformed schedule line", path.display(), n + 1);
            let f: Vec<&str> = line.splitn(5, '\t').collect();
            if f[0] == "expect" {
                let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or_else(bad);
                let set = RowSet {
                    count: num(3)?,
                    digest: num(4)?,
                };
                s.expect
                    .changes
                    .entry(num(1)? as usize)
                    .or_default()
                    .push((num(2)?, set));
                continue;
            }
            if f.len() != 5 {
                return Err(bad());
            }
            let verb = match f[2] {
                "query" => Verb::Query,
                "explain" => Verb::Explain,
                "info" => Verb::Info,
                "ingest" => Verb::Ingest,
                _ => return Err(bad()),
            };
            let req = Req {
                class: f[1].to_string(),
                verb,
                check: check_from_str(f[3]).ok_or_else(bad)?,
                line: f[4].to_string(),
            };
            match f[0] {
                "warmup" => s.warmup.push(req),
                "first" => s.first = Some(req),
                "batch" => s.batches.push(req),
                conn => {
                    let i: usize = conn
                        .strip_prefix("conn")
                        .and_then(|i| i.parse().ok())
                        .ok_or_else(bad)?;
                    if s.conns.len() <= i {
                        s.conns.resize(i + 1, Vec::new());
                    }
                    s.conns[i].push(req);
                }
            }
        }
        Ok(s)
    }
}

/// A JSON string literal (the generator writes request lines itself).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The request line of a `query` or `explain`.
pub fn query_line(verb: Verb, query: &str, domain: &str) -> String {
    let cmd = match verb {
        Verb::Explain => "explain",
        _ => "query",
    };
    format!(
        "{{\"cmd\":\"{cmd}\",\"query\":{},\"domain\":\"{domain}\"}}",
        json_str(query)
    )
}

pub const INFO_LINE: &str = "{\"cmd\":\"snapshot-info\"}";

/// The request line of an `ingest` of string rows.
pub fn ingest_line(relation: &str, rows: &[Vec<String>]) -> String {
    let mut out = format!(
        "{{\"cmd\":\"ingest\",\"relation\":{},\"rows\":[",
        json_str(relation)
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"Str\":{}}}", json_str(v));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order() {
        let a = vec![Val::Str("x".into()), Val::Nat(3)];
        let b = vec![Val::Nat(7)];
        assert_eq!(RowSet::of([&a, &b]), RowSet::of([&b, &a]));
        assert_ne!(RowSet::of([&a]), RowSet::of([&b]));
    }

    #[test]
    fn checks_round_trip_through_text() {
        for check in [
            Check::Rows(RowSet {
                count: 3,
                digest: u64::MAX,
            }),
            Check::AtEpoch(4),
            Check::Decided(true),
            Check::Partial {
                pred: Pred::NotFBelow(-2),
                budget: 10_000,
            },
            Check::Ingest { added: 9 },
        ] {
            assert_eq!(check_from_str(&check_to_string(&check)), Some(check));
        }
    }
}
