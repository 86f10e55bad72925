//! # dsmatch-json — one JSON value for the whole workspace
//!
//! Minimal hand-rolled JSON **value + writer + parser** (no external
//! dependencies). Every machine-readable surface of the workspace speaks
//! through this one type: the CLI's `--json` output, the bench artifacts
//! (`BENCH_pipeline.json`, `BENCH_speedup.json`), the `trendcheck`
//! regression gate that reads them back, and the `dsmatch serve` job/report
//! line protocol. Having a single [`Json`] means the writer and the reader
//! cannot drift apart — what one half emits the other half parses, pinned
//! by round-trip property tests.
//!
//! Writing: [`Json`] renders via [`std::fmt::Display`] with correct string
//! escaping (control characters become `\uXXXX`) and non-finite-number
//! handling (`NaN`/`±∞` render as `null`, the only valid JSON stand-in).
//!
//! Parsing: [`parse_json`] supports the full value grammar — objects,
//! arrays, strings with the writer's escape set, numbers, booleans and
//! `null`. Integer literals parse into the exact variants ([`Json::Int`] /
//! [`Json::UInt`]) rather than being routed through `f64`, so `u64::MAX`
//! survives a round trip textually *and* structurally. Malformed input
//! produces an error with a byte offset, never a panic; so does nesting
//! deeper than 128 arrays and objects (serde_json's default recursion
//! limit), which would otherwise overflow the stack of the reading thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A JSON value, rendered via [`std::fmt::Display`] and parsed by
/// [`parse_json`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (kept exact rather than routed through `f64`).
    Int(i64),
    /// Unsigned integer (kept exact — JSON permits arbitrary-precision
    /// integer literals, so `u64::MAX` round-trips textually).
    UInt(u64),
    /// Floating-point number; non-finite values render as `null`.
    Num(f64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as an ordered key → value list (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `Some(v)` → `v.into()`, `None` → `null`.
    pub fn opt<T: Into<Json>>(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }

    /// Parse a complete JSON document — an inherent alias of
    /// [`parse_json`].
    pub fn parse(text: &str) -> Result<Json, String> {
        parse_json(text)
    }

    /// Member lookup on objects (first match), `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value of any number variant, coerced to `f64` (`None`
    /// for non-numbers). Integer variants coerce so readers of numeric
    /// fields need not care whether the writer emitted `4` or `4.0`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as an `i64`: exact integer variants only (`None` for
    /// floats and out-of-range unsigned values — no silent truncation).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`: exact non-negative integer variants only.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `usize` (via [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean value (`None` for non-booleans).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True for the `null` variant.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

fn write_escaped(f: &mut std::fmt::Formatter<'_>, s: &str) -> std::fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. The
/// parser recurses once per level, so this bounds its stack use.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// Parse one value inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("numeric bytes are ASCII");
    // Integer literals stay exact: `i64` first (the writer's `Int`), then
    // `u64` for the upper half of the unsigned range, `f64` only for
    // fractional/exponent forms and magnitudes beyond 64 bits.
    if !text.bytes().any(|c| matches!(c, b'.' | b'e' | b'E')) {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into());
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        let c =
                            char::from_u32(code).ok_or_else(|| "bad \\u code point".to_string())?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        pairs.push((key, parse_value(b, pos, depth)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj(vec![
            ("name", Json::from("er\n\"quoted\"")),
            ("n", Json::from(1000usize)),
            ("t", Json::from(0.25f64)),
            ("missing", Json::opt(None::<usize>)),
            ("arr", Json::Arr(vec![Json::from(1i64), Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"name":"er\n\"quoted\"","n":1000,"t":0.25,"missing":null,"arr":[1,true,null]}"#
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
    }

    #[test]
    fn u64_round_trips_without_wrapping() {
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(i64::MIN).to_string(), "-9223372036854775808");
        assert_eq!(parse_json("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(parse_json("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(Json::from("a\u{1}b").to_string(), "\"a\\u0001b\"");
    }

    #[test]
    fn parses_scalars_and_structure() {
        let doc =
            parse_json(r#"{"a": 1, "b": -2.5e-3, "c": [true, false, null], "s": "x\n\"y\" é"}"#)
                .unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("a").unwrap().as_usize(), Some(1));
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(-2.5e-3));
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap()[0].as_bool(), Some(true));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x\n\"y\" é"));
    }

    #[test]
    fn integer_literals_parse_exact_and_coerce_to_f64() {
        // `"threads":4` written as an integer must satisfy readers that
        // ask for a float — the trendcheck gate reads thread counts this
        // way — without losing the exact representation.
        let doc = parse_json(r#"{"threads":4,"seconds":0.5}"#).unwrap();
        assert_eq!(doc.get("threads").unwrap(), &Json::Int(4));
        assert_eq!(doc.get("threads").unwrap().as_f64(), Some(4.0));
        assert_eq!(doc.get("threads").unwrap().as_i64(), Some(4));
        assert_eq!(doc.get("seconds").unwrap().as_i64(), None, "floats never truncate");
    }

    #[test]
    fn accessor_conversions_respect_ranges() {
        assert_eq!(Json::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Int(-1).as_usize(), None);
        assert_eq!(Json::UInt(7).as_i64(), Some(7));
        assert_eq!(Json::Int(7).as_u64(), Some(7));
        assert!(Json::Null.is_null());
        assert!(!Json::Bool(false).is_null());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_at_128_levels() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(parse_json(&nested(MAX_DEPTH, open, close)).is_ok(), "{open}");
            let err = parse_json(&nested(MAX_DEPTH + 1, open, close)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{open}: {err}");
        }
        // Far past the cap: an error, not a stack overflow.
        assert!(parse_json(&nested(50_000, "[", "]")).is_err());
    }
}
