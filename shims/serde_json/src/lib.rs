//! Offline stand-in for `serde_json`: renders the `serde` shim's
//! [`Value`] tree to JSON text and parses it back. Supports the calls
//! this workspace makes — `to_string`, `to_string_pretty`, `from_str` —
//! with standard JSON escapes and number handling (non-finite floats
//! serialize as `null`, matching real `serde_json`).
//!
//! One parser reads every JSON text of the workspace: model files, the
//! wire's lines and the binary wire's JSON bodies. It recurses once per
//! array or object it opens and refuses to open one past
//! [`MAX_NESTING`] levels, naming the nesting and the byte offset, so no
//! input can overflow the stack of the thread that parses it (real
//! `serde_json` stops at 128).
//!
//! [`from_str_prefix`] is the one call beyond `serde_json`'s API (and
//! [`MAX_NESTING`] the one constant): it parses the value at the start
//! of a string and says where that value ends, as
//! `StreamDeserializer::byte_offset` does there.

use serde::{Deserialize, Error, Serialize, Value};

/// How many arrays and objects a value may nest. The deepest file the
/// workspace writes nests 16 levels; the deepest wire message, 5.
pub const MAX_NESTING: usize = 64;

/// Serializes any `Serialize` type to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes any `Serialize` type to pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let (v, end) = from_str_prefix(s)?;
    let rest = s[end..].trim_start_matches([' ', '\t', '\n', '\r']);
    if !rest.is_empty() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            s.len() - rest.len()
        )));
    }
    T::from_json_value(&v)
}

/// Parses the JSON value at the start of `s` (after any whitespace) and
/// returns it with the byte offset where it ends; what follows is left
/// unread.
pub fn from_str_prefix(s: &str) -> Result<(Value, usize), Error> {
    let mut p = Parser {
        src: s,
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    Ok((v, p.pos))
}

/// Parses the JSON number at the start of `s` (no whitespace before it)
/// into the `f64` that [`Value::as_f64`] reads off the [`Value`] the
/// parser makes of it, and returns it with the byte offset where the
/// number ends: one scan, no `Value`.
pub fn number_prefix(s: &str) -> Result<(f64, usize), Error> {
    let (value, len) = number(s)?;
    Ok((value.as_f64()?, len))
}

/// The number at the start of `s` — an `I64`, else a `U64`, else an `F64`
/// — and the byte offset where it ends.
fn number(s: &str) -> Result<(Value, usize), Error> {
    let b = s.as_bytes();
    let digits = |mut at: usize| {
        while b.get(at).is_some_and(u8::is_ascii_digit) {
            at += 1;
        }
        at
    };
    let mut end = digits(usize::from(b.first() == Some(&b'-')));
    let mut is_float = false;
    if b.get(end) == Some(&b'.') {
        is_float = true;
        end = digits(end + 1);
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        is_float = true;
        end += 1;
        if matches!(b.get(end), Some(b'+' | b'-')) {
            end += 1;
        }
        end = digits(end);
    }
    let text = &s[..end];
    if !is_float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok((Value::I64(v), end));
        }
        if let Ok(v) = text.parse::<u64>() {
            return Ok((Value::U64(v), end));
        }
    }
    text.parse::<f64>()
        .map(|v| (Value::F64(v), end))
        .map_err(|_| Error::custom(format!("invalid number `{text}`")))
}

// --- Writer ----------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(n) => {
            if n.is_finite() {
                // Keep floats round-trippable and visibly floating-point.
                let s = format!("{n:?}");
                out.push_str(&s);
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
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
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, pv)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(pv, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

// --- Parser ----------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as
            // it stands. Both are ASCII, so the run ends on a character
            // boundary of the source.
            let run = self.src.as_bytes()[self.pos..]
                .iter()
                .position(|c| matches!(c, b'"' | b'\\'))
                .ok_or_else(|| Error::custom("unterminated string"))?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            let stop = self.src.as_bytes()[self.pos + run];
            self.pos += run + 1;
            if stop == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000c}'),
                Some(b'u') => {
                    let code = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| Error::custom("bad \\u escape"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                    );
                    self.pos += 4;
                }
                _ => return Err(Error::custom("bad escape")),
            }
            self.pos += 1;
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let (value, len) = number(&self.src[self.pos..])?;
        self.pos += len;
        Ok(value)
    }

    /// Steps into the array or object opening at `pos`, one level deeper.
    ///
    /// # Errors
    ///
    /// When that level would pass [`MAX_NESTING`].
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        if self.depth == MAX_NESTING {
            return Err(Error::custom(format!(
                "values nest deeper than {MAX_NESTING} at byte {}",
                self.pos
            )));
        }
        self.expect(bracket)?;
        self.depth += 1;
        Ok(())
    }

    /// After one member: `,` for another, or `close`, which ends the
    /// container and steps back out of it.
    fn next_or_close(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(Error::custom(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.open(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            if !self.next_or_close(b']')? {
                return Ok(Value::Array(items));
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.open(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            if !self.next_or_close(b'}')? {
                return Ok(Value::Object(pairs));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = Value::Object(vec![
            ("a".into(), Value::I64(-3)),
            ("b".into(), Value::F64(1.5)),
            (
                "c".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("d".into(), Value::Str("hi \"there\"\n".into())),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn parses_nested_json() {
        let v: Value = from_str(r#"{"x": [1, 2.5, "s"], "y": {"z": null}}"#).unwrap();
        assert_eq!(
            v.field("x").unwrap().index(1).unwrap().as_f64().unwrap(),
            2.5
        );
    }

    /// `depth` containers, `[` or `{"k":` as `object` says of each level
    /// from the outside in, around `0`.
    fn nested(depth: usize, object: impl Fn(usize) -> bool) -> String {
        let (mut open, mut close) = (String::new(), String::new());
        for level in 0..depth {
            let (o, c) = if object(level) {
                ("{\"k\":", "}")
            } else {
                ("[", "]")
            };
            open.push_str(o);
            close.insert_str(0, c);
        }
        format!("{open}0{close}")
    }

    #[test]
    fn nesting_stops_at_the_limit_for_arrays_objects_and_a_mix() {
        let shapes: [fn(usize) -> bool; 3] = [|_| false, |_| true, |level| level % 3 == 1];
        for object in shapes {
            let at = nested(MAX_NESTING, object);
            assert!(from_str::<Value>(&at).is_ok(), "{at}");
            let past = nested(MAX_NESTING + 1, object);
            let err = from_str::<Value>(&past).unwrap_err().to_string();
            assert!(err.contains("nest") && err.contains("byte"), "{err}");
        }
    }

    #[test]
    fn a_megabyte_of_brackets_is_refused_without_overflowing_the_stack() {
        for text in ["[".repeat(1 << 20), "{\"k\":".repeat(1 << 20)] {
            let err = from_str::<Value>(&text).unwrap_err().to_string();
            assert!(err.contains("nest"), "{err}");
            assert!(from_str_prefix(&text).is_err());
        }
    }

    #[test]
    fn the_prefix_call_ends_where_each_kind_of_value_ends() {
        let cases = [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("0", Value::I64(0)),
            ("-0", Value::I64(0)),
            ("-12", Value::I64(-12)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("1.5", Value::F64(1.5)),
            ("-2.5e-3", Value::F64(-2.5e-3)),
            ("4E+2", Value::F64(400.0)),
            ("1e3", Value::F64(1000.0)),
            ("\"\"", Value::Str(String::new())),
            ("\"plain\"", Value::Str("plain".into())),
            (
                r#""a\"b\\c\/d\n\t\r\b\f""#,
                Value::Str("a\"b\\c/d\n\t\r\u{8}\u{c}".into()),
            ),
            (r#""\u0041\u00e9\u20AC""#, Value::Str("Aé€".into())),
            ("\"héllo ✓\"", Value::Str("héllo ✓".into())),
            ("[]", Value::Array(vec![])),
            (
                "[1, [\"]\"]]",
                Value::Array(vec![
                    Value::I64(1),
                    Value::Array(vec![Value::Str("]".into())]),
                ]),
            ),
            ("{}", Value::Object(vec![])),
            (
                r#"{"}": {"a": null}}"#,
                Value::Object(vec![(
                    "}".into(),
                    Value::Object(vec![("a".into(), Value::Null)]),
                )]),
            ),
        ];
        for (text, want) in cases {
            for tail in ["", ",1", " ]", "}x", "\n\"more\""] {
                let s = format!(" \t{text}{tail}");
                let (value, end) = from_str_prefix(&s).unwrap();
                assert_eq!(value, want, "{s:?}");
                assert_eq!(&s[end..], tail, "{s:?}");
            }
        }
        assert!(from_str_prefix("").is_err());
        assert!(from_str_prefix("\"open").is_err());
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        let text = format!("\"{}\\n{}\"", "a".repeat(1 << 20), "é".repeat(1 << 18));
        let t0 = std::time::Instant::now();
        let s: String = from_str(&text).unwrap();
        assert_eq!(s.len(), (1 << 20) + 1 + 2 * (1 << 18));
        assert!(t0.elapsed().as_secs_f64() < 1.0, "{:?}", t0.elapsed());
    }
}
