//! The JSON codec under the record/replay trace format
//! ([`trace`](crate::trace)): a [`Json`] value with one compact writer,
//! a depth-capped, linear-time reader, typed field getters that word every
//! "missing field" error once, hex digest strings ([`hex`] /
//! [`parse_hex`]) and enum label lookups ([`label`] / [`Json::label`]).
//! Hand-rolled because the workspace vendors no serializer and the format
//! is ours.

/// Minimal JSON value: objects (keys in write order), arrays, strings,
/// unsigned integers and booleans, which is the entire vocabulary the
/// trace format uses.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(u64),
    Bool(bool),
}

impl Json {
    /// An object with `fields` in the given order.
    pub(crate) fn obj(fields: Vec<(&str, Json)>) -> Json {
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Obj(fields.collect())
    }

    /// Appends the compact form of `self` (no whitespace) to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    v.write(out);
                }
                out.push(']');
            }
            Json::Str(s) => write_str(out, s),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field `key` of this object through `f`, or an error naming the
    /// field and the type (`ty`) it should have had. The typed getters below
    /// word every reader error about a field here.
    fn field<'a, T>(
        &'a self,
        key: &str,
        ty: &str,
        f: fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let value = self.get(key).and_then(f);
        value.ok_or_else(|| format!("missing {ty} field `{key}`"))
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, "integer", |v| match v {
            Json::Num(n) => Some(*n),
            _ => None,
        })
    }

    pub(crate) fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key, "string", Json::as_str)
    }

    pub(crate) fn bool(&self, key: &str) -> Result<bool, String> {
        self.field(key, "bool", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    pub(crate) fn arr(&self, key: &str) -> Result<&[Json], String> {
        self.field(key, "array", |v| match v {
            Json::Arr(items) => Some(&items[..]),
            _ => None,
        })
    }

    pub(crate) fn object(&self, key: &str) -> Result<&Json, String> {
        self.field(key, "object", |v| matches!(v, Json::Obj(_)).then_some(v))
    }

    /// A label string decoded through `table` (the inverse of [`label`]).
    pub(crate) fn label<T: Copy>(&self, key: &str, table: &[(T, &str)]) -> Result<T, String> {
        let s = self.str(key)?;
        let found = table.iter().find(|(_, l)| *l == s);
        found
            .map(|(v, _)| *v)
            .ok_or_else(|| format!("unknown {key} `{s}`"))
    }

    /// Refuses a line whose `type` is not `kind`.
    pub(crate) fn expect_type(&self, kind: &str) -> Result<(), String> {
        let tagged = self.get("type").and_then(Json::as_str) == Some(kind);
        tagged
            .then_some(())
            .ok_or_else(|| format!("expected {kind} line"))
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A 64-bit digest as a `0x%016x` string. A JSON number would round-trip
/// through f64 in sloppy readers and silently lose low bits, which for a
/// digest means false matches.
pub(crate) fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// Inverse of [`hex`]; `None` unless `s` is `0x` and hex digits.
pub(crate) fn parse_hex(s: &str) -> Option<u64> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
}

/// The wire label of `v` in `table`, a list of every value of an enum
/// with its label (the inverse is [`Json::label`]).
pub(crate) fn label<T: Copy + PartialEq>(table: &[(T, &'static str)], v: T) -> &'static str {
    let found = table.iter().find(|(x, _)| *x == v);
    found
        .map(|(_, l)| *l)
        .expect("a label table lists every value")
}

/// How deeply arrays and objects may nest. The writer emits at most 4
/// levels (round → kernel → steps → step); the parser recurses once per
/// level, so a hostile line of a million `[` would otherwise overflow the
/// stack and abort the process instead of returning `Err`.
const MAX_JSON_DEPTH: usize = 32;

/// Parses one line holding one JSON value.
pub(crate) fn parse_json(line: &str) -> Result<Json, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let v = parse_value(bytes, &mut i, 0)?;
    skip_ws(bytes, &mut i);
    if i != bytes.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && (b[*i] == b' ' || b[*i] == b'\t') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{' | b'[') if depth >= MAX_JSON_DEPTH => {
            Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {i}"))
        }
        Some(&open @ (b'{' | b'[')) => {
            // Objects and arrays share one loop: an object's items are
            // `key: value` pairs, an array's bare values.
            let (is_obj, close) = (open == b'{', if open == b'{' { b'}' } else { b']' });
            *i += 1;
            let (mut keys, mut items) = (Vec::new(), Vec::new());
            skip_ws(b, i);
            if b.get(*i) != Some(&close) {
                loop {
                    if is_obj {
                        match parse_value(b, i, depth + 1)? {
                            Json::Str(s) => keys.push(s),
                            _ => return Err(format!("object key must be a string at byte {i}")),
                        }
                        skip_ws(b, i);
                        if b.get(*i) != Some(&b':') {
                            return Err(format!("expected `:` at byte {i}"));
                        }
                        *i += 1;
                    }
                    items.push(parse_value(b, i, depth + 1)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(&c) if c == close => break,
                        _ => {
                            return Err(format!("expected `,` or `{}` at byte {i}", close as char))
                        }
                    }
                }
            }
            *i += 1;
            Ok(match is_obj {
                true => Json::Obj(keys.into_iter().zip(items).collect()),
                false => Json::Arr(items),
            })
        }
        Some(b'"') => {
            *i += 1;
            let mut s = String::new();
            loop {
                match b.get(*i) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *i += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *i += 1;
                        match b.get(*i) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*i + 1..*i + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or("bad \\u escape")?;
                                s.push(hex);
                                *i += 4;
                            }
                            _ => return Err(format!("bad escape at byte {i}")),
                        }
                        *i += 1;
                    }
                    Some(&c) => {
                        // Copy one whole code point, its width read off the
                        // lead byte: validating only that slice keeps a
                        // long multi-byte string linear.
                        let len = match c {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let point = b
                            .get(*i..*i + len)
                            .and_then(|p| std::str::from_utf8(p).ok())
                            .ok_or_else(|| format!("invalid utf-8 at byte {i}"))?;
                        s.push_str(point);
                        *i += len;
                    }
                }
            }
        }
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *i;
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .expect("a run of ASCII digits is UTF-8")
                .parse::<u64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
        other => Err(format!("unexpected token {other:?} at byte {i}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value the writer emits reads back as itself, and the writer
    /// escapes what the reader unescapes.
    #[test]
    fn written_values_read_back() {
        let v = Json::obj(vec![
            ("s", Json::Str("a \"quoted\" \\ line\u{1}é".into())),
            ("n", Json::Num(u64::MAX)),
            ("b", Json::Bool(false)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::obj(vec![])])),
        ]);
        let mut text = String::new();
        v.write(&mut text);
        assert_eq!(
            text,
            r#"{"s":"a \"quoted\" \\ line\u0001é","n":18446744073709551615,"b":false,"a":[true,{}]}"#
        );
        assert_eq!(parse_json(&text), Ok(v));
        assert_eq!(parse_hex(&hex(0xdead_beef)), Some(0xdead_beef));
        assert_eq!(hex(1), "0x0000000000000001");
        assert_eq!(parse_hex("dead"), None);
    }

    /// Regression: the string reader re-validated the whole rest of the
    /// line as UTF-8 for every non-ASCII character, so a string of `k`
    /// two-byte characters cost `O(k²)` (80k `é` took 4.4 s; a 1 MiB line,
    /// hours). Widths now come from the lead byte.
    #[test]
    fn long_multibyte_strings_parse_in_linear_time() {
        let long = "é".repeat(1 << 19);
        let mut text = String::new();
        Json::obj(vec![("scenario", Json::Str(long.clone()))]).write(&mut text);
        assert!(text.len() > 1 << 20);
        let start = std::time::Instant::now();
        let v = parse_json(&text).expect("reads");
        assert_eq!(v.get("scenario").and_then(Json::as_str), Some(&long[..]));
        // Linear is milliseconds even in debug; quadratic is hours.
        assert!(start.elapsed().as_secs() < 20, "{:?}", start.elapsed());
        // A truncated or stray continuation byte is still an error.
        for bad in [&b"\"\xC3\""[..], b"\"\xA9\"", b"\"\xF0\x9F\""] {
            assert!(parse_value(bad, &mut 0, 0).is_err(), "{bad:?}");
        }
    }
}
