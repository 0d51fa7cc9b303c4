//! Dependency-free JSON for the finite-queries workspace.
//!
//! This crate replaces `serde`/`serde_json` so the workspace builds
//! with no external dependencies. It keeps the exact wire format the
//! serde derives produced — structs as objects with fields in
//! declaration order, enums externally tagged (`{"Nat": 1}`), maps as
//! objects, sequences as arrays — so existing files under
//! `examples/data/` parse unchanged.
//!
//! The surface is three parts: the [`Value`] model with a parser
//! ([`parse`]) and printers, and the [`ToJson`] / [`FromJson`] traits
//! with blanket impls for the std collections the workspace stores.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A JSON document.
///
/// Objects preserve insertion order (like `serde_json`'s default
/// struct serialization) rather than sorting keys.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers the workspace stores are integers (`u64` values,
    /// arities, millisecond counts); `i128` covers them all.
    Int(i128),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space-indented rendering (the `serde_json::to_string_pretty`
    /// layout).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Value::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * level) {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Parse or conversion failure, with a byte offset for parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: Option<usize>,
}

impl JsonError {
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {}", self.message, o),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`parse`] accepts; deeper input is
/// a parse error. The parser, and every walk over the [`Value`] it
/// builds (drop included), recurses once per level, so the bound keeps
/// one request line from exhausting a server thread's stack. Documents
/// the workspace writes nest at most 5 deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::at("trailing characters", pos));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(format!("expected `{}`", c as char), *pos))
    }
}

/// Parse one value inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::at(
            format!("nesting deeper than {MAX_DEPTH} levels"),
            *pos,
        )),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(members));
                    }
                    _ => return Err(JsonError::at("expected `,` or `}`", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(JsonError::at("expected `,` or `]`", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::at(format!("expected `{word}`"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == start || (bytes[start] == b'-' && *pos == start + 1) {
        return Err(JsonError::at("expected a value", start));
    }
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
        return Err(JsonError::at(
            "non-integer numbers are not used by this workspace",
            start,
        ));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
    text.parse::<i128>()
        .map(Value::Int)
        .map_err(|_| JsonError::at("integer out of range", start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at("expected a string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at("truncated \\u escape", *pos))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| JsonError::at("bad \\u escape", *pos))?,
                            16,
                        )
                        .map_err(|_| JsonError::at("bad \\u escape", *pos))?;
                        // Surrogate pairs are not needed for the trace
                        // alphabet; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the maximal run of unescaped bytes and
                // validate it as UTF-8 once — validating from `*pos` to
                // the end of the document per character would make
                // parsing quadratic in the document size.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError::at("invalid utf-8", start))?;
                out.push_str(run);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Conversion traits.
// ---------------------------------------------------------------------

/// Types renderable as JSON.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Types reconstructible from JSON.
pub trait FromJson: Sized {
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

/// Parse text straight into a `FromJson` type (the `serde_json::from_str`
/// entry point).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Compact rendering of a `ToJson` type.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Pretty rendering of a `ToJson` type.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_pretty()
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i128)
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self, JsonError> {
                let n = value
                    .as_int()
                    .ok_or_else(|| JsonError::new(concat!("expected a ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| JsonError::new(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize, u128, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::new("expected a bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected a string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::new("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::new("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_object()
            .ok_or_else(|| JsonError::new("expected an object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

/// Build an object value from `(key, value)` pairs in order.
pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Fetch a required object member.
pub fn member<'v>(value: &'v Value, key: &str) -> Result<&'v Value, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::new(format!("missing member `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_past_the_bound_is_a_parse_error() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        for deep in [
            arrays(MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
        ] {
            let e = parse(&deep).unwrap_err();
            assert!(e.message.contains("nesting deeper than"), "{e}");
        }
    }

    #[test]
    fn parse_and_print_round_trip() {
        let text = r#"{"schema":{"relations":{"F":2},"constants":[]},"relations":{"F":[[{"Nat":1},{"Nat":2}]]},"constants":{}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(
            v.get("schema")
                .and_then(|s| s.get("relations"))
                .and_then(|r| r.get("F")),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let v = object([("pass", Value::Bool(false)), ("n", Value::Int(3))]);
        assert_eq!(v.to_pretty(), "{\n  \"pass\": false,\n  \"n\": 3\n}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\té—🙂".to_string();
        let v = s.to_json();
        assert_eq!(
            String::from_json(&parse(&v.to_compact()).unwrap()).unwrap(),
            s
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::Str("Aé".to_string()));
    }

    #[test]
    fn numbers_parse_with_sign() {
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Value::Int(u64::MAX as i128)
        );
        assert!(parse("1.5").is_err());
    }

    #[test]
    fn collections_round_trip() {
        let mut m: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        m.insert("a".into(), vec![1, 2]);
        m.insert("b".into(), vec![]);
        let back: BTreeMap<String, Vec<u64>> = from_str(&to_string(&m)).unwrap();
        assert_eq!(back, m);
        let s: BTreeSet<u64> = [3, 1, 2].into_iter().collect();
        let back: BTreeSet<u64> = from_str(&to_string(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} junk").is_err());
    }

    /// Large string-heavy documents must parse in linear time; the
    /// per-character path used to re-validate the whole remaining
    /// document as UTF-8, which made multi-megabyte state files hang.
    /// 4 MB of mixed escapes/multi-byte content parses well inside the
    /// test timeout iff parsing is linear (quadratic would need ~10¹³
    /// byte scans), and round-trips exactly.
    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        let chunk = "trace#1#11&é🙂\"\\\n".repeat(1 << 12);
        let doc = Value::Array((0..64).map(|_| chunk.to_json()).collect());
        let text = doc.to_compact();
        assert!(text.len() > 4_000_000);
        let start = std::time::Instant::now();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "string parsing is no longer linear: {:?}",
            start.elapsed()
        );
    }
}
