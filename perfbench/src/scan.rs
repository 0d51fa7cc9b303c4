//! A single-pass scanner for `fq serve` responses. It hashes answer rows
//! as it reads them instead of building a JSON tree, so checking a
//! 10⁵-row answer costs the generator one pass over the bytes.

use crate::model::{row_hash, RowSet, Val, ValRef};

/// What the checker needs from one response.
#[derive(Debug, Default)]
pub struct Resp {
    pub ok: bool,
    pub error: Option<String>,
    pub epoch: Option<u64>,
    /// `rows` as an array: its row set (and the rows, when kept).
    pub rows: Option<RowSet>,
    pub kept: Vec<Vec<Val>>,
    /// `rows` as a number (`explain`).
    pub row_count: Option<u64>,
    pub completeness: Completeness,
    pub added: Option<u64>,
    pub fingerprint: Option<String>,
}

#[derive(Debug, Default, PartialEq, Eq)]
pub enum Completeness {
    #[default]
    Absent,
    Certified,
    Ranf {
        infinite: bool,
    },
    Decided(bool),
    Partial {
        tried: u64,
        max: u64,
    },
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

type R<T> = Result<T, String>;

impl<'a> Cursor<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> R<()> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str) -> bool {
        self.ws();
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            true
        } else {
            false
        }
    }

    /// A string, decoded into `buf` (the fast path copies the raw bytes).
    fn string_into(&mut self, buf: &mut Vec<u8>) -> R<()> {
        self.eat(b'"')?;
        buf.clear();
        loop {
            let start = self.i;
            while self.i < self.b.len() && self.b[self.i] != b'"' && self.b[self.i] != b'\\' {
                self.i += 1;
            }
            buf.extend_from_slice(&self.b[start..self.i]);
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    let esc = *self.b.get(self.i + 1).ok_or("truncated escape")?;
                    self.i += 2;
                    let simple = match esc {
                        b'"' => Some(b'"'),
                        b'\\' => Some(b'\\'),
                        b'/' => Some(b'/'),
                        b'b' => Some(8),
                        b'f' => Some(12),
                        b'n' => Some(b'\n'),
                        b'r' => Some(b'\r'),
                        b't' => Some(b'\t'),
                        b'u' => None,
                        _ => return Err("bad escape".into()),
                    };
                    match simple {
                        Some(c) => buf.push(c),
                        None => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code) && self.lit("\\u") {
                                let low = self.hex4()?;
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            let c = char::from_u32(code).ok_or("bad \\u escape")?;
                            let mut tmp = [0u8; 4];
                            buf.extend_from_slice(c.encode_utf8(&mut tmp).as_bytes());
                        }
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> R<u32> {
        let s = self.b.get(self.i..self.i + 4).ok_or("truncated \\u")?;
        self.i += 4;
        u32::from_str_radix(std::str::from_utf8(s).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())
    }

    fn string(&mut self) -> R<String> {
        let mut buf = Vec::new();
        self.string_into(&mut buf)?;
        String::from_utf8(buf).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> R<i128> {
        self.ws();
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected a number at byte {start}"))
    }

    fn boolean(&mut self) -> R<bool> {
        if self.lit("true") {
            Ok(true)
        } else if self.lit("false") {
            Ok(false)
        } else {
            Err(format!("expected a boolean at byte {}", self.i))
        }
    }

    fn skip_value(&mut self) -> R<()> {
        match self.peek().ok_or("truncated value")? {
            b'"' => {
                let mut scratch = Vec::new();
                self.string_into(&mut scratch)
            }
            b'{' | b'[' => {
                let close = if self.b[self.i] == b'{' { b'}' } else { b']' };
                self.i += 1;
                if self.peek() == Some(close) {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    if close == b'}' {
                        self.string()?;
                        self.eat(b':')?;
                    }
                    self.skip_value()?;
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(c) if c == close => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad container at byte {}", self.i)),
                    }
                }
            }
            b't' | b'f' => self.boolean().map(|_| ()),
            b'n' if self.lit("null") => Ok(()),
            _ => self.number().map(|_| ()),
        }
    }

    /// Iterate the members of an object, handing each key to `f`, which
    /// must consume the value.
    fn object(&mut self, mut f: impl FnMut(&mut Self, &str) -> R<()>) -> R<()> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            f(self, &key)?;
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("bad object at byte {}", self.i)),
            }
        }
    }

    /// `[[{"Str":…}|{"Nat":…}, …], …]` → row set, keeping rows if asked.
    fn rows(&mut self, keep: bool, kept: &mut Vec<Vec<Val>>) -> R<RowSet> {
        let mut set = RowSet::default();
        let mut bufs: Vec<Vec<u8>> = Vec::new();
        let mut nats: Vec<Option<u64>> = Vec::new();
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(set);
        }
        loop {
            self.eat(b'[')?;
            let mut width = 0;
            if self.peek() != Some(b']') {
                loop {
                    if bufs.len() <= width {
                        bufs.push(Vec::new());
                        nats.push(None);
                    }
                    self.eat(b'{')?;
                    let tag = self.string()?;
                    self.eat(b':')?;
                    match tag.as_str() {
                        "Str" => {
                            self.string_into(&mut bufs[width])?;
                            nats[width] = None;
                        }
                        "Nat" => {
                            let n = self.number()?;
                            nats[width] = Some(u64::try_from(n).map_err(|e| e.to_string())?);
                        }
                        other => return Err(format!("unknown value tag `{other}`")),
                    }
                    self.eat(b'}')?;
                    width += 1;
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        _ => break,
                    }
                }
            }
            self.eat(b']')?;
            let values = (0..width).map(|k| match nats[k] {
                Some(n) => ValRef::Nat(n),
                None => ValRef::Str(&bufs[k]),
            });
            set.count += 1;
            set.digest = set.digest.wrapping_add(row_hash(values));
            if keep {
                kept.push(
                    (0..width)
                        .map(|k| match nats[k] {
                            Some(n) => Val::Nat(n),
                            None => Val::Str(String::from_utf8_lossy(&bufs[k]).into_owned()),
                        })
                        .collect(),
                );
            }
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(set);
                }
                _ => return Err(format!("bad rows at byte {}", self.i)),
            }
        }
    }
}

/// Scan one response line; `keep_rows` also returns the decoded rows.
pub fn scan(line: &str, keep_rows: bool) -> R<Resp> {
    let mut c = Cursor {
        b: line.as_bytes(),
        i: 0,
    };
    let mut r = Resp::default();
    c.object(|c, key| {
        match key {
            "ok" => r.ok = c.boolean()?,
            "error" => r.error = Some(c.string()?),
            "epoch" => r.epoch = Some(u64::try_from(c.number()?).map_err(|e| e.to_string())?),
            "added" => r.added = Some(u64::try_from(c.number()?).map_err(|e| e.to_string())?),
            "fingerprint" => r.fingerprint = Some(c.string()?),
            "rows" => {
                if c.peek() == Some(b'[') {
                    r.rows = Some(c.rows(keep_rows, &mut r.kept)?);
                } else {
                    r.row_count = Some(u64::try_from(c.number()?).map_err(|e| e.to_string())?);
                }
            }
            "completeness" => r.completeness = completeness(c)?,
            _ => c.skip_value()?,
        }
        Ok(())
    })?;
    Ok(r)
}

fn completeness(c: &mut Cursor) -> R<Completeness> {
    if c.peek() == Some(b'"') {
        let s = c.string()?;
        return match s.as_str() {
            "certified" => Ok(Completeness::Certified),
            other => Err(format!("unknown completeness `{other}`")),
        };
    }
    let mut out = Completeness::Absent;
    c.object(|c, key| {
        match key {
            "decided" => out = Completeness::Decided(c.boolean()?),
            "certified_ranf" => {
                let mut infinite = None;
                c.object(|c, k| {
                    if k == "infinite" {
                        infinite = Some(c.boolean()?);
                    } else {
                        c.skip_value()?;
                    }
                    Ok(())
                })?;
                out = Completeness::Ranf {
                    infinite: infinite.ok_or("certified_ranf without `infinite`")?,
                };
            }
            "partial" => {
                let (mut tried, mut max) = (None, None);
                c.object(|c, k| {
                    match k {
                        "candidates_tried" => tried = Some(c.number()?),
                        "max_candidates" => max = Some(c.number()?),
                        _ => c.skip_value()?,
                    }
                    Ok(())
                })?;
                let n = |v: Option<i128>| -> R<u64> {
                    u64::try_from(v.ok_or("partial without counts")?).map_err(|e| e.to_string())
                };
                out = Completeness::Partial {
                    tried: n(tried)?,
                    max: n(max)?,
                };
            }
            _ => c.skip_value()?,
        }
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_a_query_response() {
        let line = r#"{"ok":true,"epoch":3,"domain":"eq","strategy":"algebra","vars":["m","w"],"rows":[[{"Str":"a\"b"},{"Nat":7}],[{"Str":"é"},{"Nat":1}]],"completeness":{"partial":{"candidates_tried":10,"max_candidates":10}},"plan_cached":true}"#;
        let r = scan(line, true).unwrap();
        assert!(r.ok);
        assert_eq!(r.epoch, Some(3));
        assert_eq!(r.kept[0], vec![Val::Str("a\"b".into()), Val::Nat(7)]);
        assert_eq!(r.kept[1][0], Val::Str("é".into()));
        assert_eq!(r.rows, Some(RowSet::of(&r.kept)));
        assert_eq!(r.completeness, Completeness::Partial { tried: 10, max: 10 });
    }

    #[test]
    fn scans_errors_and_explains() {
        let r = scan(r#"{"ok":false,"error":"boom"}"#, false).unwrap();
        assert!(!r.ok && r.error.as_deref() == Some("boom"));
        let r = scan(
            r#"{"ok":true,"epoch":0,"explain":"x","rows":12,"stats":{"a":[1,{"b":null}]}}"#,
            false,
        )
        .unwrap();
        assert_eq!(r.row_count, Some(12));
    }
}
