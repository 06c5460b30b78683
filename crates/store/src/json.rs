//! Minimal JSON value model, parser and canonical writer.
//!
//! The workspace has no serialization dependency (the build is
//! offline), so the store hand-rolls its wire format the way
//! `restore-audit` does.
//! The subset is exactly what trial records need — `null`, booleans,
//! integers (unsigned and signed, never floats), strings, arrays and
//! objects — and the writer is *canonical*: objects preserve insertion
//! order, numbers render in their shortest decimal form, and strings
//! escape only what JSON requires. Canonical output is what makes
//! "byte-identical record streams" a meaningful equivalence: the same
//! value always renders to the same bytes, so `render ∘ parse` is the
//! identity on anything this writer produced.
//!
//! Floats are rejected by the parser on purpose: a trial record must
//! round-trip exactly, and every quantity a record carries is integral.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (anything without a leading `-`).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (and is part of the
    /// canonical rendering).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte position plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser stopped at.
    pub pos: usize,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.detail)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// content is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after the document"));
        }
        Ok(v)
    }

    /// Renders the value canonically (compact, insertion-ordered).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the canonical rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` ([`Json::UInt`] only — negatives refuse).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `i64` (either integer form, range permitting).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

/// `Some(n)` → number, `None` → `null` (the record shape for optional
/// latencies).
impl From<Option<u64>> for Json {
    fn from(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::UInt)
    }
}

/// Signed values render as [`Json::Int`] only when negative, keeping
/// the canonical form unique (`5`, never two spellings of five).
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        match u64::try_from(n) {
            Ok(u) => Json::UInt(u),
            Err(_) => Json::Int(n),
        }
    }
}

/// Appends `s` as a JSON string literal. Runs of bytes that need no
/// escape are copied whole: every byte that does is ASCII, so a run
/// boundary never splits a UTF-8 sequence.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            out.push_str(&format!("\\u{b:04x}"));
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: &str) -> JsonError {
        JsonError { pos: self.pos, detail: detail.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let start = self.pos;
        let mut magnitude: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .checked_mul(10)
                .and_then(|m| m.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("integer out of range"))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digits"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not part of the record format"));
        }
        if negative {
            // -2^63 .. -1; zero keeps its canonical unsigned spelling.
            if magnitude == 0 {
                return Err(self.err("`-0` has no canonical form"));
            }
            let n = 0i64
                .checked_sub_unsigned(magnitude)
                .ok_or_else(|| self.err("integer out of range"))?;
            Ok(Json::Int(n))
        } else {
            Ok(Json::UInt(magnitude))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escapes unsupported"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character"));
                }
                Some(_) => {
                    // Consume the whole run of ordinary bytes at once.
                    // The run starts and ends on ASCII delimiters, so it
                    // sits on character boundaries of the (`&str`) input
                    // and converts back without a copy or a rescan of
                    // the document tail.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.render();
        assert_eq!(&Json::parse(&text).unwrap(), v, "{text}");
        assert_eq!(Json::parse(&text).unwrap().render(), text, "render∘parse must be identity");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::UInt(0));
        roundtrip(&Json::UInt(u64::MAX));
        roundtrip(&Json::Int(-1));
        roundtrip(&Json::Int(i64::MIN));
        roundtrip(&Json::Str(String::new()));
        roundtrip(&Json::Str("plain region-name".into()));
        roundtrip(&Json::Str("esc \"q\" \\ \n \t \r \u{1} π".into()));
    }

    /// Escape-free runs are copied whole around each escape, so the
    /// rendering is pinned byte for byte: the five short escapes, `\u`
    /// for the other control characters, and non-ASCII text verbatim.
    #[test]
    fn strings_render_escapes_between_verbatim_runs() {
        let cases = [
            ("", r#""""#),
            ("0123456789abcdef", r#""0123456789abcdef""#),
            ("say \"hi\"", r#""say \"hi\"""#),
            ("a\\b\\", r#""a\\b\\""#),
            ("\n\r\tx", r#""\n\r\tx""#),
            ("\u{0}\u{1}\u{1f}\u{20}", r#""\u0000\u0001\u001f ""#),
            ("π≈3\t→ \"ü\"\\", r#""π≈3\t→ \"ü\"\\""#),
            ("\u{7f}é\u{8}", "\"\u{7f}é\\u0008\""),
        ];
        for (s, want) in cases {
            assert_eq!(Json::Str(s.to_owned()).render(), want, "{s:?}");
            assert_eq!(Json::parse(want).unwrap(), Json::Str(s.to_owned()), "{want}");
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&Json::Arr(vec![Json::UInt(1), Json::Null, Json::Bool(false)]));
        roundtrip(&Json::Obj(vec![
            ("key".into(), Json::Arr(vec![Json::UInt(7)])),
            ("nested".into(), Json::Obj(vec![("x".into(), Json::Int(-3))])),
        ]));
    }

    #[test]
    fn canonical_form_is_unique_for_signed_zero_and_positives() {
        assert_eq!(Json::from(5i64), Json::UInt(5));
        assert_eq!(Json::from(0i64), Json::UInt(0));
        assert_eq!(Json::from(-5i64), Json::Int(-5));
        assert!(Json::parse("-0").is_err(), "no second spelling of zero");
    }

    #[test]
    fn rejections() {
        assert!(Json::parse("1.5").is_err(), "floats are rejected");
        assert!(Json::parse("1e3").is_err(), "exponents are rejected");
        assert!(Json::parse("18446744073709551616").is_err(), "u64 overflow");
        assert!(Json::parse("-9223372036854775809").is_err(), "i64 underflow");
        assert!(Json::parse("{\"a\":1").is_err(), "torn object");
        assert!(Json::parse("[1,]").is_err(), "trailing comma");
        assert!(Json::parse("{} {}").is_err(), "trailing content");
        assert!(Json::parse("\"\u{1}\"").is_err(), "unescaped control char");
    }

    #[test]
    fn boundary_integers_parse_exactly() {
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(Json::parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        assert_eq!(
            Json::parse(" {\"a\" : 1 , \"b\" : null } ").unwrap().get("a"),
            Some(&Json::UInt(1))
        );
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"n\":3,\"neg\":-2,\"s\":\"x\",\"b\":true,\"z\":null}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("neg").and_then(Json::as_i64), Some(-2));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert!(v.get("z").is_some_and(Json::is_null));
        assert!(v.get("missing").is_none());
    }
}
