//! The workspace's one JSON module (the build is offline: no serde).
//!
//! [`Json::U64`] carries the integers the harness and the service persist
//! — counters, content keys, and `f64` values as IEEE-754 bit patterns
//! ([`Json::f64_bits`]) — at full precision. Only a digits-only literal
//! that fits in `u64` parses as `U64`, and [`Json::as_u64`] accepts nothing
//! else, so cache and wire decoders reject floats and negatives.
//! [`Json::Num`] carries every other number: the fractional timestamps and
//! gauge values of Chrome traces ([`Json::as_num`] reads both). Object keys
//! keep insertion order, so output is byte-stable, and [`parse`] rejects
//! nesting deeper than [`MAX_DEPTH`], so untrusted input cannot exhaust the
//! stack.

use std::fmt::Write as _;

/// The deepest array/object nesting [`parse`] accepts (the workspace writes a few).
pub const MAX_DEPTH: usize = 128;

/// Formats a number the way trace viewers expect: integers without a
/// fractional part, everything else via Rust's shortest round-trip `{}`
/// display. Non-finite values (which JSON cannot carry) degrade to `0`.
pub fn fmt_num(value: f64) -> String {
    if !value.is_finite() {
        return "0".into();
    }
    if value == value.trunc() && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Escapes a string for embedding in a JSON document (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer written with digits only.
    U64(u64),
    /// Any other number: signed, fractional, exponent, or beyond `u64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

/// The old name of [`Json`], still imported by the benchmark package (`perf/`).
pub type Value = Json;

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Stores an `f64` as its exact bit pattern.
    pub fn f64_bits(v: f64) -> Json {
        Json::U64(v.to_bits())
    }

    /// Looks up a key in an object (the first match; `None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a [`Json::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`, decoding the bit-pattern convention.
    pub fn as_f64_bits(&self) -> Option<f64> {
        self.as_u64().map(f64::from_bits)
    }

    /// The value as `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => out.push_str(&fmt_num(*v)),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` quoted. A string with nothing to escape — most of them, the
/// served reply vectors included — is copied whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if needs_escape(s) {
        out.push_str(&escape(s));
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// Whether [`escape`] would change `s`: a quote, a backslash or a control
/// character. Characters below U+0020 are single bytes in UTF-8, so a scan
/// of the bytes is exact. The fold has no early exit, so it compiles to a
/// loop without a branch per byte.
fn needs_escape(s: &str) -> bool {
    s.bytes().fold(false, |any, b| any | (b < 0x20) | (b == b'"') | (b == b'\\'))
}

/// Parses a complete JSON document, rejecting trailing data and nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { b: text.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn consume(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? != byte {
            return Err(format!("expected '{}' at byte {}", byte as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.container(b'}'),
            b'[' => self.container(b']'),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            // The only bytes that can start a number `number` accepts.
            b'-' | b'+' | b'.' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected byte {:?} at {}", other as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.b[self.pos..].starts_with(word.as_bytes()) {
            return Err(format!("invalid literal at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.b.get(self.pos), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())?;
        match text.parse() {
            Ok(v) if text.bytes().all(|c| c.is_ascii_digit()) => Ok(Json::U64(v)),
            _ => text.parse().map(Json::Num).map_err(|_| format!("bad number {text:?} at {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = Vec::new();
        loop {
            // The run up to the next quote or backslash is copied in one step.
            let rest = &self.b[self.pos..];
            let run = rest.iter().position(|&c| c == b'"' || c == b'\\').unwrap_or(rest.len());
            out.extend_from_slice(&rest[..run]);
            self.pos += run;
            let Some(&c) = self.b.get(self.pos) else { break };
            self.pos += 1;
            if c == b'"' {
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            let esc = *self.b.get(self.pos).ok_or("unterminated escape")?;
            self.pos += 1;
            let ch = match esc {
                b'"' | b'\\' | b'/' => esc as char,
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self.b.get(self.pos..self.pos + 4).unwrap_or_default();
                    let hex = std::str::from_utf8(hex).unwrap_or_default();
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    self.pos += 4;
                    // The writer never emits surrogates; a lone one decodes as U+FFFD.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                other => return Err(format!("unknown escape \\{}", other as char)),
            };
            out.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
        }
        Err("unterminated string".into())
    }

    /// An array (`close` is `]`) or object (`close` is `}`), one nesting
    /// level deeper than its parent.
    fn container(&mut self, close: u8) -> Result<Json, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.pos += 1;
        let (mut items, mut pairs) = (Vec::new(), Vec::new());
        if self.peek()? != close {
            loop {
                if close == b']' {
                    items.push(self.value()?);
                } else {
                    let key = self.string()?;
                    self.consume(b':')?;
                    pairs.push((key, self.value()?));
                }
                match self.peek()? {
                    b',' => self.pos += 1,
                    c if c == close => break,
                    _ => {
                        return Err(format!(
                            "expected ',' or '{}' at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(if close == b']' { Json::Arr(items) } else { Json::Obj(pairs) })
    }
}

/// What `validate_chrome_trace` learned about a trace file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Counter events (`ph == "C"`).
    pub counter_events: usize,
    /// Complete duration events (`ph == "X"`).
    pub duration_events: usize,
    /// Metadata events (`ph == "M"`).
    pub metadata_events: usize,
    /// Distinct counter-track names.
    pub counter_tracks: Vec<String>,
}

/// Validates `text` as a Chrome trace-event JSON object and summarizes it.
///
/// Checks the envelope (`traceEvents` array), then that every event has a
/// one-character `ph`, a `name`, and — for counter (`C`) and complete (`X`)
/// events — a numeric `ts` (plus `dur` and finite values where required).
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = parse(text)?;
    let events =
        root.get("traceEvents").and_then(Json::as_arr).ok_or("missing \"traceEvents\" array")?;
    let mut summary = TraceSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        match ph {
            "M" => summary.metadata_events += 1,
            "C" => {
                ev.get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): counter without numeric ts"))?;
                let args =
                    ev.get("args").ok_or_else(|| format!("event {i} ({name}): missing args"))?;
                let value = args
                    .get("value")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): counter without args.value"))?;
                if !value.is_finite() {
                    return Err(format!("event {i} ({name}): non-finite counter value"));
                }
                summary.counter_events += 1;
                if !summary.counter_tracks.iter().any(|t| t == name) {
                    summary.counter_tracks.push(name.to_string());
                }
            }
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): slice without numeric ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): slice without numeric dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative ts/dur"));
                }
                summary.duration_events += 1;
            }
            other => return Err(format!("event {i} ({name}): unsupported ph {other:?}")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj(vec![
            ("kind", Json::Str("sim".into())),
            ("bits", Json::f64_bits(-1.5)),
            ("max", Json::U64(u64::MAX)),
            ("work", Json::Arr(vec![Json::U64(1), Json::Num(-2.5), Json::Null])),
            ("ok", Json::Bool(true)),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&v.to_text()).unwrap(), v);
        for x in [0.0, -0.0, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, 2.5e-300] {
            let back = parse(&Json::f64_bits(x).to_text()).unwrap().as_f64_bits().unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn keys_keep_insertion_order() {
        let text = r#"{"b":1,"a":{"z":true,"y":null}}"#;
        assert_eq!(parse(text).unwrap().to_text(), text);
    }

    #[test]
    fn strings_escape_and_parse() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let v = Json::Str("a\"b\\c\nd\u{1}é\t".into());
        assert_eq!(parse(&v.to_text()).unwrap(), v);
        assert_eq!(parse(r#""\/\b\f\u0041""#).unwrap().as_str(), Some("/\u{8}\u{c}A"));
    }

    #[test]
    fn a_long_plain_run_then_escapes_parses_whole() {
        let plain = "0123456789abcdef".repeat(2048);
        let s = format!("{plain}\"\\\n\t\u{1}é{plain}");
        let text = Json::Str(s.clone()).to_text();
        assert_eq!(text, format!("\"{}\"", escape(&s)));
        assert_eq!(parse(&text).unwrap().as_str(), Some(s.as_str()));
        let tail = format!("\"{plain}\\u0041\\/\"");
        assert_eq!(parse(&tail).unwrap().as_str(), Some(format!("{plain}A/").as_str()));
        assert!(parse(&format!("\"{plain}")).is_err(), "unterminated after a long run");
        assert!(parse(&format!("\"{plain}\\")).is_err(), "unterminated escape after a long run");
    }

    /// Characters that take every path of the writer and the parser: plain
    /// ASCII, the escaped printables, control characters and multi-byte
    /// UTF-8.
    const PICKS: [char; 14] =
        ['a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀'];

    /// Strings mixing [`PICKS`] with arbitrary scalar values.
    fn arb_string() -> impl Strategy<Value = String> {
        proptest::collection::vec((0..PICKS.len() + 1, 0u32..0x11_0000), 0..48).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(i, code)| {
                    PICKS.get(i).copied().unwrap_or_else(|| char::from_u32(code).unwrap_or('?'))
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
        #[test]
        fn strings_write_as_escape_and_parse_back(s in arb_string()) {
            let text = Json::Str(s.clone()).to_text();
            prop_assert_eq!(&text, &format!("\"{}\"", escape(&s)));
            prop_assert_eq!(parse(&text).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn numbers_split_into_u64_and_num() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(parse("18446744073709551616").unwrap(), Json::Num(18446744073709551616.0));
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(parse("2e3").unwrap(), Json::Num(2000.0));
        assert_eq!(parse("1.5").unwrap().as_u64(), None, "as_u64 rejects floats");
        assert_eq!(parse("-3").unwrap().as_u64(), None, "as_u64 rejects negatives");
        assert_eq!(parse("7").unwrap().as_num(), Some(7.0), "as_num reads both variants");
    }

    #[test]
    fn a_value_that_cannot_start_a_number_names_its_byte() {
        // Every byte a number can start with still reaches `number`.
        assert_eq!(parse("-1").unwrap(), Json::Num(-1.0));
        assert_eq!(parse("+1").unwrap(), Json::Num(1.0));
        assert_eq!(parse(".5").unwrap(), Json::Num(0.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("garbage").unwrap_err(), "unexpected byte 'g' at 0");
        assert_eq!(parse(" x").unwrap_err(), "unexpected byte 'x' at 1");
        assert_eq!(parse("[1,@]").unwrap_err(), "unexpected byte '@' at 3");
    }

    #[test]
    fn fmt_num_is_compact_and_round_trips() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.5), "0.5");
        assert_eq!(fmt_num(-12.0), "-12");
        assert_eq!(fmt_num(f64::NAN), "0");
        assert_eq!(fmt_num(f64::INFINITY), "0");
        for v in [0.1, 123.456, 1.0e-9, 9.5e15] {
            assert_eq!(parse(&fmt_num(v)).unwrap().as_num(), Some(v));
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , true ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "[1, 2,]", "{}x", "{\"a\": 1} junk", "tru", "-", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn validator_accepts_minimal_trace() {
        let text = r#"{"displayTimeUnit":"ns","traceEvents":[
            {"ph":"M","pid":1,"name":"process_name","args":{"name":"spacea"}},
            {"ph":"C","pid":1,"name":"vault0/ldq/l1-occupancy","ts":0.5,"args":{"value":3}},
            {"ph":"X","pid":1,"tid":0,"name":"X block 1","ts":1,"dur":2}
        ]}"#;
        let summary = validate_chrome_trace(text).unwrap();
        assert_eq!(summary.counter_events, 1);
        assert_eq!(summary.duration_events, 1);
        assert_eq!(summary.metadata_events, 1);
        assert_eq!(summary.counter_tracks, vec!["vault0/ldq/l1-occupancy".to_string()]);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"name":"x"}]}"#).is_err());
        let bad_counter = r#"{"traceEvents":[{"ph":"C","name":"c","ts":0,"args":{}}]}"#;
        assert!(validate_chrome_trace(bad_counter).is_err());
    }
}
