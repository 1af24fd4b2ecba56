//! Offline stand-in for the `serde` crate.
//!
//! The build container has no registry access, so the workspace vendors
//! the piece it relies on: a [`Serialize`] trait (with a derive behind
//! the `derive` feature, mirroring upstream's feature name) that lowers
//! a report struct into a self-describing [`Value`] tree, which renders
//! to JSON via [`Value::to_json`].
//!
//! This is *not* upstream serde's visitor architecture — it is a
//! direct-to-tree design, sized for the harness's report structs
//! (flat-ish structs of numbers, strings, tuples, and `Vec`s of rows).

#![forbid(unsafe_code)]

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// A self-describing serialized value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (from `Option::None`).
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map of named fields (declaration order preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Renders the value as compact JSON.
    ///
    /// Non-finite floats (which JSON cannot express) render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Float(f) if f.is_finite() => {
                // Keep integral floats readable but unambiguous.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&format!("{f}"));
                }
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// The fields of an object, if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items of an array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value of a named object field, if this is an object with
    /// that field (first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// Parses compact or whitespace-formatted JSON text into a value
    /// tree — the inverse of [`Value::to_json`].
    ///
    /// Numbers without a fraction or exponent become [`Value::UInt`]
    /// (or [`Value::Int`] when negative); all others become
    /// [`Value::Float`]. Duplicate object keys are kept in order, as
    /// the tree preserves field order generally.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax
    /// error, trailing garbage, or unterminated construct, and rejects
    /// arrays and objects nested more than [`MAX_NESTING`] deep.
    pub fn parse_json(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// The deepest nesting of arrays and objects [`Value::parse_json`]
/// accepts. The parser recurses once per level, so without a bound a
/// line of `[`s overflows the stack and aborts the process.
pub const MAX_NESTING: usize = 128;

/// A minimal recursive-descent JSON reader over raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_NESTING {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // A high surrogate must pair with a
                                // following \uXXXX low surrogate.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or("invalid unicode escape".to_string())?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar (input is &str, so
                    // slicing at char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "bad utf-8".to_string())?;
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated unicode escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad unicode escape".to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad unicode escape".to_string())?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if fractional {
            let f: f64 = text
                .parse()
                .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
            Ok(Value::Float(f))
        } else if let Some(digits) = text.strip_prefix('-') {
            let _: u64 = digits
                .parse()
                .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
            let i: i64 = text
                .parse()
                .map_err(|_| format!("integer out of range at byte {start}"))?;
            Ok(Value::Int(i))
        } else {
            let u: u64 = text
                .parse()
                .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
            Ok(Value::UInt(u))
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
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

/// Types that can lower themselves into a [`Value`] tree.
pub trait Serialize {
    /// The serialized form of `self`.
    fn to_value(&self) -> Value;
}

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
impl_serialize_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}
impl_serialize_uint!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_serialize_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    };
}
impl_serialize_tuple!(A.0);
impl_serialize_tuple!(A.0, B.1);
impl_serialize_tuple!(A.0, B.1, C.2);
impl_serialize_tuple!(A.0, B.1, C.2, D.3);
impl_serialize_tuple!(A.0, B.1, C.2, D.3, E.4);
impl_serialize_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a \"b\"\n".into())),
            ("n".into(), Value::UInt(3)),
            ("x".into(), Value::Float(1.5)),
            ("whole".into(), Value::Float(2.0)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            ("pair".into(), (1.0f64, 2.5f64).to_value()),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"name":"a \"b\"\n","n":3,"x":1.5,"whole":2.0,"flag":true,"none":null,"pair":[1.0,2.5]}"#
        );
    }

    #[test]
    fn collections_serialize() {
        assert_eq!(
            vec![1u64, 2].to_value(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)])
        );
        assert_eq!(None::<u64>.to_value(), Value::Null);
        assert_eq!(Some("x".to_string()).to_value(), Value::Str("x".into()));
    }

    #[test]
    fn parse_roundtrips_own_rendering() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a \"b\"\n\t\\".into())),
            ("n".into(), Value::UInt(u64::MAX)),
            ("neg".into(), Value::Int(-42)),
            ("x".into(), Value::Float(1.5)),
            ("whole".into(), Value::Float(2.0)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "rows".into(),
                Value::Array(vec![Value::UInt(1), Value::Str("é∀".into())]),
            ),
            ("empty_obj".into(), Value::Object(vec![])),
            ("empty_arr".into(), Value::Array(vec![])),
        ]);
        assert_eq!(Value::parse_json(&v.to_json()), Ok(v));
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v =
            Value::parse_json(" { \"a\" : [ 1 , -2.5e3 ] , \"b\" : \"\\u0041\\ud83d\\ude00\" } ")
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2500.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"open",
            "{} extra",
            "[01x]",
            "\"\\u12\"",
            "nul",
            "{\"a\" 1}",
        ] {
            assert!(Value::parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n - 1) + "{}" + &"}".repeat(n - 1);
        assert!(Value::parse_json(&arrays(MAX_NESTING)).is_ok());
        assert!(Value::parse_json(&objects(MAX_NESTING)).is_ok());
        assert_eq!(
            Value::parse_json(&arrays(MAX_NESTING + 1)),
            Err(format!("nesting too deep at byte {MAX_NESTING}"))
        );
        assert!(Value::parse_json(&objects(MAX_NESTING + 1))
            .unwrap_err()
            .starts_with("nesting too deep"));
        // Far past the limit: an error, not a stack overflow.
        let err = Value::parse_json(&"[".repeat(500_000)).unwrap_err();
        assert_eq!(err, format!("nesting too deep at byte {MAX_NESTING}"));
    }

    #[test]
    fn accessors_pick_types() {
        let v = Value::parse_json("{\"u\":7,\"i\":-7,\"f\":1.5,\"s\":\"x\",\"b\":false}").unwrap();
        assert_eq!(v.get("u").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("u").unwrap().as_i64(), Some(7));
        assert_eq!(v.get("i").unwrap().as_i64(), Some(-7));
        assert_eq!(v.get("i").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("x"), None);
    }
}
