//! Minimal JSON document model for the artefact writers.
//!
//! Only what the `BENCH_`/`TRACE_`/`HEATMAP_`/`METRICS_`/`DIFF_`
//! documents need: objects, arrays, strings, integers and floats, rendered with deterministic key order (insertion order) so
//! diffs between PRs stay readable. [`Json::parse`] reads the same dialect
//! back, so CI can validate emitted artefacts without external crates.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
///
/// # Examples
///
/// ```
/// use sortmid_devharness::json::Json;
///
/// let doc = Json::obj([
///     ("name", Json::str("fig5")),
///     ("samples", Json::arr([Json::U64(3), Json::U64(4)])),
/// ]);
/// assert_eq!(doc.render(), r#"{"name":"fig5","samples":[3,4]}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer, rendered exactly (no float rounding).
    U64(u64),
    /// A signed (negative) integer, rendered exactly — the artefact
    /// differ emits cycle/miss deltas, which must round-trip without the
    /// float precision loss past 2^53.
    I64(i64),
    /// A float, rendered via Rust's shortest-roundtrip formatting.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array from any iterator of values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses a JSON document (the dialect [`render`](Self::render) emits:
    /// standard JSON minus `\uXXXX` surrogate pairs outside the BMP).
    /// Numbers parse as [`Json::U64`] when they are unsigned integral,
    /// as [`Json::I64`] when they are negative integral, else as
    /// [`Json::F64`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] with a byte offset on malformed input or
    /// trailing garbage.
    ///
    /// # Examples
    ///
    /// ```
    /// use sortmid_devharness::json::Json;
    ///
    /// let doc = Json::parse(r#"{"suite":"fig5","samples":[3,4.5]}"#).unwrap();
    /// assert_eq!(doc.get("suite").and_then(Json::as_str), Some("fig5"));
    /// assert_eq!(doc.render(), r#"{"suite":"fig5","samples":[3,4.5]}"#);
    /// ```
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks a key up in an object (`None` for missing keys and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when this is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as a signed integer (unsigned values widen when
    /// they fit).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(n) => Some(*n),
            Json::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                // JSON has no NaN/Infinity; clamp to null like serde_json.
                if x.is_finite() {
                    let mut s = String::new();
                    let _ = write!(s, "{x}");
                    // "2" would read back as an integer; keep floats floats.
                    if !s.contains(['.', 'e', 'E']) {
                        s.push_str(".0");
                    }
                    out.push_str(&s);
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
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
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parse failure with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Containers may nest at most this deep: the parser recurses per level,
/// so unbounded nesting (e.g. a few thousand `[`s) would overflow the
/// stack instead of reporting a parse error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs a container parser one nesting level down, failing cleanly at
    /// [`MAX_DEPTH`] (each level is a stack frame).
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("containers nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        c => return Err(self.err(format!("unknown escape '\\{}'", c as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        match text.parse::<f64>() {
            // `1e999` parses "successfully" to infinity; a finiteness
            // check keeps non-representable numbers out of the document
            // (Json::F64 renders non-finite values as null, so accepting
            // them would silently corrupt round trips).
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            Ok(_) => Err(self.err(format!("number '{text}' is not representable"))),
            Err(_) => Err(self.err(format!("invalid number '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(18_446_744_073_709_551_615).render(), "18446744073709551615");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(-3.0).render(), "-3.0");
        assert_eq!(Json::F64(0.0).render(), "0.0");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn nesting_renders_in_order() {
        let doc = Json::obj([
            ("b", Json::U64(1)),
            ("a", Json::arr([Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(doc.render(), r#"{"b":1,"a":[null,false]}"#);
    }

    #[test]
    fn parse_round_trips_a_bench_style_document() {
        let doc = Json::obj([
            ("suite", Json::str("sweep")),
            ("warmup_iters", Json::U64(1)),
            ("samples", Json::U64(5)),
            (
                "benchmarks",
                Json::arr([Json::obj([
                    ("id", Json::str("grid/shared-plan")),
                    ("median_ns", Json::U64(44_700_000)),
                    ("p10_ns", Json::U64(44_000_000)),
                    ("p90_ns", Json::U64(46_000_000)),
                    ("samples_ns", Json::arr([Json::U64(1), Json::U64(2)])),
                    ("throughput_per_sec", Json::F64(1342.5)),
                ])]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.render(), text);
        let benches = back.get("benchmarks").and_then(Json::as_arr).unwrap();
        assert_eq!(
            benches[0].get("id").and_then(Json::as_str),
            Some("grid/shared-plan")
        );
        assert_eq!(
            benches[0].get("median_ns").and_then(Json::as_u64),
            Some(44_700_000)
        );
        assert_eq!(
            benches[0].get("throughput_per_sec").and_then(Json::as_f64),
            Some(1342.5)
        );
    }

    #[test]
    fn parse_handles_whitespace_escapes_and_numbers() {
        let doc = Json::parse(
            " { \"a\\n\\\"b\" : [ -1.5 , 2e3 , 7 , \"\\u0041\" ] , \"t\" : true } ",
        )
        .unwrap();
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
        let arr = doc.get("a\n\"b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0], Json::F64(-1.5));
        assert_eq!(arr[1], Json::F64(2000.0));
        assert_eq!(arr[2], Json::U64(7));
        assert_eq!(arr[3], Json::str("A"));
    }

    #[test]
    fn as_f64_widens_integers() {
        assert_eq!(Json::U64(3).as_f64(), Some(3.0));
        assert_eq!(Json::F64(0.5).as_u64(), None);
        assert_eq!(Json::I64(-3).as_f64(), Some(-3.0));
    }

    #[test]
    fn negative_integers_round_trip_exactly() {
        // -2^60 - 1 is not representable in f64; it must survive a render
        // round trip bit-exactly (delta artefacts rely on this).
        let n = -(1i64 << 60) - 1;
        assert_eq!(Json::I64(n).render(), n.to_string());
        assert_eq!(Json::parse(&n.to_string()).unwrap(), Json::I64(n));
        assert_eq!(Json::parse("-5").unwrap(), Json::I64(-5));
        assert_eq!(Json::parse("-5").unwrap().as_i64(), Some(-5));
        assert_eq!(Json::parse(&i64::MIN.to_string()).unwrap(), Json::I64(i64::MIN));
        // Unsigned values widen through as_i64 only when they fit.
        assert_eq!(Json::U64(7).as_i64(), Some(7));
        assert_eq!(Json::U64(u64::MAX).as_i64(), None);
        // Below i64::MIN falls back to a float.
        assert!(matches!(Json::parse("-99999999999999999999").unwrap(), Json::F64(_)));
    }

    #[test]
    fn as_bool_reads_booleans_only() {
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::U64(1).as_bool(), None);
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let e = Json::parse("[1,]").unwrap_err();
        assert_eq!(e.offset, 3);
        let e = Json::parse("{\"a\":1} x").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
        let e = Json::parse("\"open").unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
        assert!(Json::parse("").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // One level inside the cap parses...
        let fine = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&fine).is_ok());
        // ...one past it reports a clean error (and a pathological input
        // far past it must not blow the stack).
        let over = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = Json::parse(&over).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
        let bomb = format!("{}{}", "[".repeat(100_000), "{".repeat(100_000));
        assert!(Json::parse(&bomb).is_err());
        let mixed = format!("{}1{}", "[{\"k\":".repeat(80), "}]".repeat(80));
        let e = Json::parse(&mixed).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
    }

    #[test]
    fn trailing_garbage_is_rejected_after_any_document() {
        for doc in ["1 2", "[] []", "{} null", "\"s\"garbage", "truefalse"] {
            assert!(Json::parse(doc).is_err(), "{doc:?} must not parse");
        }
        // Whitespace after the document is fine.
        assert!(Json::parse("  [1, 2]\n\t ").is_ok());
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for doc in [r#""\ud800""#, r#""\udfff""#, r#"{"k":"\ud912"}"#] {
            let e = Json::parse(doc).unwrap_err();
            assert!(e.message.contains("scalar value"), "{doc:?}: {e}");
        }
        // An escaped surrogate *pair* is still two lone escapes to this
        // parser (it does not combine them) and is rejected; actual astral
        // characters pass through as raw UTF-8 instead.
        assert!(Json::parse(r#""\ud83d\ude00""#).is_err());
        assert_eq!(
            Json::parse("\"\u{1f600}\"").unwrap().as_str(),
            Some("\u{1f600}")
        );
    }

    #[test]
    fn overflowing_numbers_are_rejected_not_infinite() {
        for doc in ["1e999", "-1e999", "1e308e"] {
            assert!(Json::parse(doc).is_err(), "{doc:?} must not parse");
        }
        // The largest finite doubles still parse.
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(Json::parse("-1.7976931348623157e308").unwrap().as_f64(), Some(f64::MIN));
        // Integers beyond u64 fall back to (finite) floats.
        assert_eq!(
            Json::parse("99999999999999999999999999").unwrap().as_f64(),
            Some(1e26)
        );
    }
}
