//! The one JSON layer: every document the workspace writes or reads —
//! `pf-simnet-trace-v1` traces, the `BENCH_*.json` files and the fabric
//! checkpoint — is built as a [`Value`] and printed by one of two
//! printers, and read back by one parser.
//!
//! * [`Value`] keeps object members in document order and numbers as their
//!   source text, so integers stay exact past 2⁵³ and a `{:.3}` rendering
//!   survives a parse → print round trip byte for byte.
//! * [`parse`] accepts standard JSON and refuses documents nested deeper
//!   than [`MAX_DEPTH`]; errors are typed ([`JsonError`]), never panics.
//!   Typed access goes through [`Obj`]: [`Obj::get_u64`] reads the number
//!   text as an integer (no fraction, exponent, sign or overflow) and
//!   [`Obj::get_u32`] range-checks it.
//! * [`Value::compact`] (traces, checkpoints) prints no whitespace.
//!   [`Value::pretty`] (bench files) follows one rule: a scalar-only
//!   object or array nested inside an array prints on one line, and every
//!   other container puts one member per line at a two-space indent.

use std::fmt;

/// Deepest container nesting [`parse`] accepts. The deepest document the
/// workspace writes, `BENCH_simnet.json`, nests five containers.
pub const MAX_DEPTH: usize = 64;

/// A parsed or to-be-printed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number, as its JSON text (equality is textual).
    Number(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in document order.
    Object(Vec<(String, Value)>),
}

/// Why a document could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON: `expected` was due at byte offset `at`.
    Syntax { at: usize, expected: &'static str },
    /// Containers nest deeper than [`MAX_DEPTH`]; `at` is the byte offset
    /// of the one that crossed the limit.
    TooDeep { at: usize },
    /// A required member is absent.
    Missing(String),
    /// Member `key` has the wrong type, or its number does not fit the
    /// field's `expected` type.
    Type { key: String, expected: &'static str },
    /// The `schema` tag is `found`, not the `expected` format.
    Schema { expected: &'static str, found: String },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { at, expected } => write!(f, "expected {expected} at byte {at}"),
            JsonError::TooDeep { at } => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
            JsonError::Missing(key) => write!(f, "missing field {key:?}"),
            JsonError::Type { key, expected } => write!(f, "field {key:?} is not a {expected}"),
            JsonError::Schema { expected, found } => write!(f, "schema {found:?} is not {expected:?}"),
        }
    }
}

impl std::error::Error for JsonError {}

macro_rules! from_integer {
    ($($t:ty),+) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::Number(x.to_string())
            }
        }
    )+};
}

from_integer!(u64, u32, usize);

/// Rust's shortest round-trip `Display`, with a decimal point guaranteed,
/// so the float parses back to identical bits.
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        let s = x.to_string();
        let has_point = s.contains(['.', 'e', 'i', 'N']);
        Value::Number(if has_point { s } else { s + ".0" })
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Collects into an array.
impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::Array(items.into_iter().collect())
    }
}

impl Value {
    /// An object from `(key, value)` members, in order.
    pub fn object<'k>(members: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `x` with exactly `decimals` digits after the point (`{:.N}`).
    pub fn fixed(x: f64, decimals: usize) -> Value {
        Value::Number(format!("{x:.decimals$}"))
    }

    /// The value as an object, for typed member access.
    pub fn as_object(&self) -> Option<Obj<'_>> {
        match self {
            Value::Object(m) => Some(Obj(m)),
            _ => None,
        }
    }

    /// The root object of a document tagged `"schema": expected` — the
    /// check every reader starts with.
    pub fn document(&self, expected: &'static str) -> Result<Obj<'_>, JsonError> {
        let o = self.as_object().ok_or_else(|| JsonError::Missing("schema".to_string()))?;
        let found = o.get_str("schema")?;
        if found != expected {
            return Err(JsonError::Schema { expected, found: found.to_string() });
        }
        Ok(o)
    }

    /// The document on one line with no whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, (",", ":"));
        out
    }

    /// The document laid out by the module's one pretty rule, ending in a
    /// newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0), (", ", ": "));
        out.push('\n');
        out
    }

    /// True for scalars and for containers whose members are all scalars.
    fn is_flat(&self) -> bool {
        let scalar = |v: &Value| !matches!(v, Value::Array(_) | Value::Object(_));
        match self {
            Value::Array(items) => items.iter().all(scalar),
            Value::Object(members) => members.iter().all(|(_, v)| scalar(v)),
            _ => true,
        }
    }

    /// Writes one member per line at `depth` when it is `Some` (and the
    /// container is not empty), else on one line with the `(comma, colon)`
    /// separators. Flat array elements stay on one line either way.
    fn write(&self, out: &mut String, depth: Option<usize>, seps: (&str, &str)) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Number(text) => return out.push_str(text),
            Value::Str(s) => return write_string(out, s),
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(m) => ('{', '}', m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
        };
        let depth = depth.filter(|_| !members.is_empty());
        let newline = |out: &mut String, d: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        };
        out.push(open);
        for (i, (key, v)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if depth.is_some() { "," } else { seps.0 });
            }
            if let Some(d) = depth {
                newline(out, d + 1);
            }
            if let Some(k) = key {
                write_string(out, k);
                out.push_str(seps.1);
            }
            let child = depth.filter(|_| key.is_some() || !v.is_flat());
            v.write(out, child.map(|d| d + 1), seps);
        }
        if let Some(d) = depth {
            newline(out, d);
        }
        out.push(close);
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A Rust type a JSON value converts to, for [`Obj`]'s typed getters.
pub trait FromJson<'a>: Sized {
    /// The type's name in [`JsonError::Type`].
    const EXPECTED: &'static str;
    /// The conversion; `None` when `v` does not fit.
    fn from_json(v: &'a Value) -> Option<Self>;
}

macro_rules! from_json {
    ($($t:ty, $expected:literal, |$v:ident| $body:expr;)+) => {$(
        impl<'a> FromJson<'a> for $t {
            const EXPECTED: &'static str = $expected;
            fn from_json($v: &'a Value) -> Option<Self> {
                $body
            }
        }
    )+};
}

from_json! {
    // Exact: a plain decimal integer in range — no fraction, exponent or sign.
    u64, "u64", |v| match v {
        Value::Number(t) if t.bytes().all(|b| b.is_ascii_digit()) => t.parse().ok(),
        _ => None,
    };
    u32, "u32", |v| u64::from_json(v).and_then(|x| x.try_into().ok());
    f64, "number", |v| match v {
        Value::Number(t) => t.parse().ok(),
        _ => None,
    };
    &'a str, "string", |v| match v {
        Value::Str(s) => Some(s),
        _ => None,
    };
    String, "string", |v| <&str>::from_json(v).map(str::to_string);
    &'a [Value], "array", |v| match v {
        Value::Array(items) => Some(items),
        _ => None,
    };
    Obj<'a>, "object", |v| v.as_object();
}

/// Typed member access over a parsed object. Duplicate keys resolve to
/// the first occurrence.
#[derive(Debug, Clone, Copy)]
pub struct Obj<'a>(&'a [(String, Value)]);

impl<'a> Obj<'a> {
    /// The member `key` converted to `T`; missing or mistyped is an error.
    pub fn get<T: FromJson<'a>>(&self, key: &str) -> Result<T, JsonError> {
        self.get_opt(key)?.ok_or_else(|| JsonError::Missing(key.to_string()))
    }

    /// Like [`Obj::get`], but a missing key is `Ok(None)` — for fields
    /// added to a schema after its first release.
    pub fn get_opt<T: FromJson<'a>>(&self, key: &str) -> Result<Option<T>, JsonError> {
        let Some((_, v)) = self.0.iter().find(|(k, _)| k == key) else {
            return Ok(None);
        };
        let mistyped = || JsonError::Type { key: key.to_string(), expected: T::EXPECTED };
        T::from_json(v).map(Some).ok_or_else(mistyped)
    }

    /// An exact unsigned integer member.
    pub fn get_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.get(key)
    }

    /// An exact unsigned integer member that fits in 32 bits.
    pub fn get_u32(&self, key: &str) -> Result<u32, JsonError> {
        self.get(key)
    }

    /// A number member.
    pub fn get_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.get(key)
    }

    /// A string member.
    pub fn get_str(&self, key: &str) -> Result<&'a str, JsonError> {
        self.get(key)
    }

    /// An array member.
    pub fn get_array(&self, key: &str) -> Result<&'a [Value], JsonError> {
        self.get(key)
    }

    /// An object member.
    pub fn get_object(&self, key: &str) -> Result<Obj<'a>, JsonError> {
        self.get(key)
    }

    /// An array member whose every element converts to `T`.
    pub fn get_list<T: FromJson<'a>>(&self, key: &str) -> Result<Vec<T>, JsonError> {
        let mistyped = || JsonError::Type { key: key.to_string(), expected: T::EXPECTED };
        self.get_array(key)?.iter().map(|v| T::from_json(v).ok_or_else(mistyped)).collect()
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { b: text.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("end of document"));
    }
    Ok(v)
}

struct Parser<'t> {
    b: &'t [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> JsonError {
        JsonError::Syntax { at: self.pos, expected }
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `c` after optional whitespace, reporting whether it was there.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.b.get(self.pos) == Some(&c);
        self.pos += usize::from(hit);
        hit
    }

    /// Advances past ASCII digits; at least one is required.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("a digit"));
        }
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.b.get(self.pos) {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(JsonError::TooDeep { at: self.pos }),
            Some(b'{') => self
                .container(b'}', |p| {
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return Err(p.err("':'"));
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Object),
            Some(b'[') => self.container(b']', |p| p.value(depth + 1)).map(Value::Array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a value")),
        }
    }

    /// `open item (, item)* close` or `open close`; the opener is at `pos`.
    fn container<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.err("',' or a closing bracket"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("a string"));
        }
        let mut out = String::new();
        loop {
            // Runs between quotes and escapes are whole UTF-8 sequences:
            // neither byte occurs inside a multi-byte character.
            let start = self.pos;
            while matches!(self.b.get(self.pos), Some(&c) if c != b'"' && c != b'\\' && c >= b' ') {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.b[start..self.pos]).expect("input is a str"));
            let at = self.b.get(self.pos).copied();
            self.pos += 1;
            match at {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                _ => return Err(JsonError::Syntax { at: self.pos - 1, expected: "a closing quote" }),
            }
        }
    }

    /// One escape after the backslash. A `\uXXXX` must name a character by
    /// itself: surrogate pairs, which the writer never emits, are refused.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.b.get(self.pos).copied();
        self.pos += 1;
        if let Some(i) = c.and_then(|c| b"\"\\/bfnrt".iter().position(|&e| e == c)) {
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        let hex = self.b.get(self.pos..self.pos + 4).filter(|h| h.iter().all(u8::is_ascii_hexdigit));
        let code = hex.filter(|_| c == Some(b'u')).map(|h| {
            u32::from_str_radix(std::str::from_utf8(h).expect("hex digits"), 16).expect("4 hex digits")
        });
        let ch = code.and_then(char::from_u32).ok_or_else(|| self.err("an escape"))?;
        self.pos += 4;
        Ok(ch)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.pos += usize::from(self.b[self.pos] == b'-');
        if self.b.get(self.pos) == Some(&b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.b.get(self.pos), Some(b'+' | b'-')));
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ASCII number");
        Ok(Value::Number(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(text: &str) -> Value {
        parse(&format!("{{\"x\":{text}}}")).unwrap()
    }

    fn get_u64(text: &str) -> Result<u64, JsonError> {
        field(text).as_object().unwrap().get_u64("x")
    }

    #[test]
    fn integers_are_exact() {
        assert_eq!(get_u64("9007199254740993"), Ok(9_007_199_254_740_993));
        assert_eq!(get_u64("18446744073709551615"), Ok(u64::MAX));
        let v = field("9007199254740993");
        assert_eq!(parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn u64_rejects_fraction_exponent_sign_and_overflow() {
        for bad in ["1e3", "1.0", "-1", "18446744073709551616", "\"7\""] {
            let mistyped = JsonError::Type { key: "x".into(), expected: "u64" };
            assert_eq!(get_u64(bad), Err(mistyped), "{bad}");
        }
    }

    #[test]
    fn u32_is_range_checked() {
        let get_u32 = |text: &str| field(text).as_object().unwrap().get_u32("x");
        assert_eq!(get_u32("4294967295"), Ok(u32::MAX));
        assert_eq!(get_u32("4294967296"), Err(JsonError::Type { key: "x".into(), expected: "u32" }));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), Err(JsonError::TooDeep { at: MAX_DEPTH }));
        assert!(matches!(parse(&"[".repeat(1_000_000)), Err(JsonError::TooDeep { .. })));
    }

    #[test]
    fn numbers_keep_their_text() {
        assert_eq!(parse("[0.100, 1E+2, -0, 5]").unwrap().compact(), "[0.100,1E+2,-0,5]");
        assert_eq!(Value::fixed(2.0 / 3.0, 3).compact(), "0.667");
        assert_eq!(Value::from(3.0).compact(), "3.0");
        assert_eq!(Value::from(0.1).compact(), "0.1");
        for bad in ["01", "1.", ".5", "-", "1e", "+1", "0x10"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::from("quote \" slash \\ line\n tab\t bell\u{7} é 😀");
        assert_eq!(parse(&v.compact()).unwrap(), v);
        assert_eq!(parse(r#""\/\u00e9\t\"""#).unwrap(), Value::from("/é\t\""));
        for bad in ["\"abc", "\"\\x\"", "\"\\u12\"", "\"\\u+1ab\"", "\"\\ud83d\\ude00\"", "\"a\nb\""] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in ["", "{", "[1,]", "{\"a\"}", "{\"a\":1,}", "[1 2]", "{1:2}", "true", "[1]x"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(parse(" [ 1 , {} ] ").unwrap().compact(), "[1,{}]");
    }

    #[test]
    fn objects_keep_member_order_and_typed_access() {
        let v = parse(r#"{"b": 1, "a": [2], "c": {"d": "e"}}"#).unwrap();
        assert_eq!(v.compact(), r#"{"b":1,"a":[2],"c":{"d":"e"}}"#);
        let o = v.as_object().unwrap();
        assert_eq!(o.get_list::<u32>("a"), Ok(vec![2]));
        assert_eq!(o.get_object("c").unwrap().get_str("d"), Ok("e"));
        assert_eq!(o.get_opt::<u64>("zz"), Ok(None));
        assert_eq!(o.get_str("zz"), Err(JsonError::Missing("zz".into())));
        assert!(o.get_str("b").is_err());
    }

    #[test]
    fn pretty_follows_the_one_line_rule() {
        let v = parse(r#"{"s":"x","rows":[{"a":1,"b":2.50},[1,2],{"n":[1]}],"o":{"k":1},"e":[]}"#)
            .unwrap();
        let want = "{\n  \"s\": \"x\",\n  \"rows\": [\n    {\"a\": 1, \"b\": 2.50},\n    \
                    [1, 2],\n    {\n      \"n\": [\n        1\n      ]\n    }\n  ],\n  \
                    \"o\": {\n    \"k\": 1\n  },\n  \"e\": []\n}\n";
        assert_eq!(v.pretty(), want);
        assert_eq!(parse(want).unwrap(), v);
    }
}
