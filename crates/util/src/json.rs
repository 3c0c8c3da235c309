//! A tiny JSON value type with a writer and a recursive-descent parser,
//! replacing `serde` for the workspace's config/result serialization.
//!
//! Objects preserve insertion order (they are association lists, not
//! maps), so emitted files are stable and diff-friendly.
//!
//! ```
//! use sdm_util::json::Json;
//! let v = Json::parse(r#"{"rows": [1, 2.5], "name": "fw"}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("fw"));
//! assert_eq!(v.get("rows").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
//! let text = v.to_string();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An object builder from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if any.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object pairs, if any.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Compact serialization (same as `format!("{self}")`).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Shared serializer behind [`fmt::Display`] (compact) and
    /// [`Json::to_string_pretty`].
    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * depth),
                " ".repeat(w * (depth + 1)),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            s: input,
            b: input.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// Compact serialization; `.to_string()` callers go through here.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.i,
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal, expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex =
                                std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                    .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // surrogate pairs unsupported; map to U+FFFD
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // copy the run up to the next quote or escape; both
                    // are ASCII, so the run ends on a char boundary
                    let run = self.b[self.i..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(self.b.len() - self.i);
                    out.push_str(&self.s[self.i..self.i + run]);
                    self.i += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError {
                msg: format!("invalid number `{text}`"),
                at: start,
            })
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u16> for Json {
    fn from(v: u16) -> Json {
        Json::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj([
            ("name", Json::from("fw0")),
            ("loads", Json::Arr(vec![Json::from(1u64), Json::from(2.5)])),
            ("failed", Json::from(false)),
            ("note", Json::Null),
            ("nested", Json::obj([("k", Json::from("v\"esc\\aped\n"))])),
        ]);
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v, "via {text}");
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5e2 , \"x\\u0041y\" ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-250.0));
        assert_eq!(arr[2].as_str(), Some("xAy"));
        // Unescaped runs, multi-byte characters included, copy through whole.
        let s = Json::parse("\"é€\\n𝄞 \\\"q\\\" ok\"").unwrap();
        assert_eq!(s.as_str(), Some("é€\n𝄞 \"q\" ok"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "1 2"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn mutated_documents_never_panic_and_errors_point_inside_them() {
        const FILES: [&str; 2] = [
            include_str!("../../../results/reach_corpus.json"),
            include_str!("../../../results/telemetry_golden.json"),
        ];
        // Bytes the grammar cares about, and ones that break UTF-8.
        const BYTES: &[u8] = b" \t\r\n{}[]:,\"\\/-+.eE0123456789truefalsnu\xc3\xa9\xff";
        crate::prop::fuzz_text(
            "Json::parse over byte-mutated result documents",
            2_000,
            &FILES,
            BYTES,
            |text| {
                if let Err(e) = Json::parse(text) {
                    crate::prop_assert!(e.at <= text.len(), "{e}: the text has {} bytes", text.len());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::from(5u64).to_string(), "5");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }
}
