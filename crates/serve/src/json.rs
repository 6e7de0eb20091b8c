//! Minimal hand-rolled JSON reader/writer (the workspace builds offline,
//! without serde) behind the HTTP/JSON side of the wire protocol
//! ([`crate::wire`]) and the admin endpoints. The parser accepts any
//! well-formed JSON nested at most [`MAX_DEPTH`] levels; the writer helpers
//! emit exactly what the server's response formats need.

/// A parsed JSON value.
///
/// Object fields keep their source order (a `Vec` of pairs, not a map):
/// deterministic iteration matters more here than lookup speed, and every
/// consumer scans a handful of known keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The fields of an object, or `None` for any other variant.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items of an array, or `None` for any other variant.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value, or `None` for any other variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numbers pass through; `null` decodes as NaN (the writer encodes
    /// non-finite components as `null` because JSON has no NaN/Inf).
    pub fn as_f64_or_null(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The string payload, or `None` for any other variant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, or `None` for any other variant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// First object field with the given key (objects preserve source
    /// order; duplicate keys resolve to the first occurrence).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Writes `s` as a JSON string literal with escapes.
pub fn write_string(out: &mut String, s: &str) {
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

/// Writes an f64 so it parses back bit-exactly; non-finite values
/// (unrepresentable in JSON) are written as `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest round-trip representation.
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Parse error: the byte offset where the input stopped being JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}", self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so without a cap a body of nested `[` overflows a connection
/// thread's stack and aborts the process. The deepest request body the
/// server reads nests 5 levels.
pub const MAX_DEPTH: usize = 32;

/// Parses a complete JSON document (trailing bytes are an error, and so is
/// nesting deeper than [`MAX_DEPTH`]).
pub fn parse(s: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err());
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self) -> ParseError {
        ParseError { offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err())
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err())
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek().ok_or_else(|| self.err())? {
            open @ (b'{' | b'[') => {
                // Refused before the level is built, so no `Value` is ever
                // deeper than the cap (dropping one recurses per level too).
                if self.depth == MAX_DEPTH {
                    return Err(self.err());
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true").map(|_| Value::Bool(true)),
            b'f' => self.literal("false").map(|_| Value::Bool(false)),
            b'n' => self.literal("null").map(|_| Value::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err()),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err()),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err())? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or_else(|| self.err())? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err())?;
                            let hex = std::str::from_utf8(hex).map_err(|_| self.err())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| self.err())?;
                            // Surrogate pairs are not emitted by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err()),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the whole run up to the next `"` or `\` at
                    // once. Both are ASCII, so the run ends on a UTF-8
                    // boundary of the input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err());
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| ParseError { offset: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,null,true,"x\n"],"b":{"c":false}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[0].as_f64(),
            Some(1.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[4].as_str(),
            Some("x\n")
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(false));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&arrays(MAX_DEPTH + 1)).unwrap_err(),
            ParseError { offset: MAX_DEPTH }
        );
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    /// 100,000 unclosed `[` on a thread with a connection thread's 2 MiB
    /// stack: a typed error, not a stack overflow that aborts the process.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let body = "[".repeat(100_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&body).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"trailing escape\\").is_err());
    }

    #[test]
    fn f64_writer_round_trips() {
        for x in [0.1, -1.5e300, 3.0, f64::MIN_POSITIVE] {
            let mut s = String::new();
            write_f64(&mut s, x);
            assert_eq!(parse(&s).unwrap().as_f64(), Some(x));
        }
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    /// A long string parses in time linear in its length: a body near
    /// `max_body_bytes` must not hold a connection thread for hours.
    #[test]
    fn long_strings_parse_in_linear_time() {
        // Mixed one-, two- and four-byte scalars, 1 MiB in all.
        let payload = "aé\u{1F600}".repeat((1 << 20) / 7 + 1);
        assert!(payload.len() >= 1 << 20);
        let mut doc = String::new();
        write_string(&mut doc, &payload);
        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.as_str(), Some(payload.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn string_writer_escapes() {
        let mut s = String::new();
        write_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
        // Escapes between multi-byte runs.
        let v = parse(r#""é\"ß\\\u00e9x\t""#).unwrap();
        assert_eq!(v.as_str(), Some("é\"ß\\\u{e9}x\t"));
    }
}
