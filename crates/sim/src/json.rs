//! A small self-contained JSON value type with canonical serialization.
//!
//! crates.io (and therefore serde) is unreachable in the build
//! environment, so the simulator carries its own serialization
//! substrate. `flumen-sweep` hashes canonical job specs with it and
//! stores results in it, so two properties matter more here than
//! generality:
//!
//! * **Canonical output** — object keys are kept sorted ([`BTreeMap`])
//!   and floats print in Rust's shortest-roundtrip form, so the same
//!   value always serializes to the same bytes. Job content hashes are
//!   taken over this canonical form.
//! * **Total round-trip** — simulation outputs contain `inf` (saturated
//!   latency points), which strict JSON cannot express; the writer emits
//!   the JSON5-style tokens `Infinity`/`-Infinity`/`NaN` and the parser
//!   accepts them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use flumen_units::Picojoules;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; `u64` counters round-trip exactly up
    /// to 2^53, far beyond any cycle count the simulator produces).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

/// A serialization/deserialization failure with a path-ish message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a required object field.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(m) => m
                .get(key)
                .ok_or_else(|| JsonError(format!("missing field `{key}`"))),
            _ => err(format!("expected object looking up `{key}`")),
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            _ => err("expected number"),
        }
    }

    /// The value as `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let x = self.as_f64()?;
        if x < 0.0 || x.fract() != 0.0 || !x.is_finite() {
            return err(format!("expected unsigned integer, got {x}"));
        }
        Ok(x as u64)
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as `u32`.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        Ok(self.as_u64()? as u32)
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => err("expected bool"),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => err("expected string"),
        }
    }

    /// The value as a slice of elements.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => err("expected array"),
        }
    }

    /// Serializes to the canonical single-line form (hash input).
    pub fn to_canonical(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Serializes with two-space indentation (cache files, manifests).
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    e.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
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

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(v) if !v.is_empty() => {
                out.push_str("[\n");
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    e.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(m) if !m.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            _ => self.write(out),
        }
    }

    /// Parses a value from text. Hostile input — malformed escapes,
    /// nesting deeper than [`MAX_DEPTH`] — is an `Err`, never a panic.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_num(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
    } else if x == f64::INFINITY {
        out.push_str("Infinity");
    } else if x == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Integers print without the trailing ".0" `{:?}` would add.
        let _ = write!(out, "{}", x as i64);
    } else {
        // Shortest round-trip form; deterministic for a given bit pattern.
        let _ = write!(out, "{x:?}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the simulator writes, a full run's sweep cache entry, nests
/// 5 levels (`result.data.net_stats.latency_hist`); the bound only stops
/// a file of repeated `[` from recursing the parser off the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'N') if self.eat("NaN") => Ok(Json::Num(f64::NAN)),
            Some(b'I') if self.eat("Infinity") => Ok(Json::Num(f64::INFINITY)),
            Some(b'"') => self.string().map(Json::Str),
            Some(c @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if c == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(Json::Num(f64::NEG_INFINITY))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => err(format!("bad number `{text}` at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(c) = self.peek() else {
                return err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            // `get` also refuses a range that splits a
                            // multi-byte character.
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError(format!("bad \\u escape `{hex}`")))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return err(format!("bad escape `\\{}`", esc as char)),
                    }
                }
                _ => {
                    // Re-scan the full UTF-8 character (escapes consume
                    // whole characters, so `pos - 1` is a boundary).
                    let ch = self
                        .text
                        .get(self.pos - 1..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| JsonError("invalid utf-8".into()))?;
                    s.push(ch);
                    self.pos += ch.len_utf8() - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Conversion into [`Json`].
pub trait ToJson {
    /// Serializes `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from [`Json`].
pub trait FromJson: Sized {
    /// Deserializes a value.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64()
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for u64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_u64()
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for usize {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_usize()
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for u32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_u32()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.as_str()?.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let v: Vec<T> = FromJson::from_json(j)?;
        let got = v.len();
        v.try_into()
            .map_err(|_| JsonError(format!("expected array of length {N}, got {got}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

// Unit newtypes serialize as their raw numeric value: the canonical JSON
// text (and therefore every content-addressed job hash) is identical to the
// pre-`flumen-units` encoding. The unit lives in the *key* name (`_pj`
// suffix), not the value.
impl ToJson for Picojoules {
    fn to_json(&self) -> Json {
        Json::Num(self.value())
    }
}

impl FromJson for Picojoules {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Picojoules::new(j.as_f64()?))
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a plain struct, field by field.
///
/// Exported so every crate can bridge the types *it* owns (the orphan rule
/// keeps these impls next to the struct definitions, not centralized in one
/// downstream crate). Deserialization errors name the full
/// `Type.field: cause` path.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([$(
                    (stringify!($field), $crate::json::ToJson::to_json(&self.$field)),
                )+])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                j: &$crate::json::Json,
            ) -> ::core::result::Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $($field: j
                        .get(stringify!($field))
                        .and_then($crate::json::FromJson::from_json)
                        .map_err(|e| {
                            $crate::json::JsonError(format!(
                                concat!(stringify!($ty), ".", stringify!($field), ": {}"),
                                e
                            ))
                        })?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_round_trip() {
        let v = Json::obj([
            ("b", Json::Num(1.5)),
            (
                "a",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Str("x\"y".into())]),
            ),
            ("n", Json::Num(-0.703)),
        ]);
        let text = v.to_canonical();
        // Keys sorted regardless of insertion order.
        assert!(text.starts_with("{\"a\""));
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn canonical_is_stable() {
        let make = || Json::obj([("x", Json::Num(0.1 + 0.2)), ("y", Json::Num(16384.0))]);
        assert_eq!(make().to_canonical(), make().to_canonical());
        assert_eq!(
            make().to_canonical(),
            "{\"x\":0.30000000000000004,\"y\":16384}"
        );
    }

    #[test]
    fn non_finite_numbers_round_trip() {
        let v = Json::Arr(vec![Json::Num(f64::INFINITY), Json::Num(f64::NEG_INFINITY)]);
        let parsed = Json::parse(&v.to_canonical()).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr[0].as_f64().unwrap(), f64::INFINITY);
        assert_eq!(arr[1].as_f64().unwrap(), f64::NEG_INFINITY);
        let nan = Json::parse("NaN").unwrap();
        assert!(nan.as_f64().unwrap().is_nan());
    }

    #[test]
    fn large_counters_round_trip_exactly() {
        let cycles: u64 = 80_000_000_000;
        let j = cycles.to_json();
        assert_eq!(
            u64::from_json(&Json::parse(&j.to_canonical()).unwrap()).unwrap(),
            cycles
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").is_err());
        let obj = Json::obj([("a", Json::Num(1.0))]);
        assert!(obj.get("b").is_err());
        assert!(obj.get("a").unwrap().as_str().is_err());
        assert!(Json::Num(1.5).as_u64().is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nwith \"quotes\" \\ tab\t and unicode λβ";
        let j = Json::Str(s.into());
        assert_eq!(Json::parse(&j.to_canonical()).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<u64> = vec![3, 1, 2];
        assert_eq!(v.to_json().to_canonical(), "[3,1,2]");
        assert_eq!(Vec::<u64>::from_json(&v.to_json()).unwrap(), v);

        let a: [u64; 3] = [3, 1, 2];
        assert_eq!(<[u64; 3]>::from_json(&a.to_json()).unwrap(), a);
        assert!(<[u64; 2]>::from_json(&a.to_json()).is_err());

        assert_eq!(Some(7u64).to_json(), Json::Num(7.0));
        assert_eq!(None::<u64>.to_json(), Json::Null);
    }
}
