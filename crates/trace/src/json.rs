//! A small, dependency-free JSON toolkit.
//!
//! This container has no network and no vendored registry, so the report
//! layer cannot lean on `serde`. This module supplies what the workspace
//! actually needs: an ordered JSON value type ([`Json`]), one writer that
//! renders it compact (`Display`) or pretty ([`Json::to_string_pretty`])
//! straight into the output buffer, and a strict recursive-descent
//! [`parse`] used by the daemon and by the golden tests that validate
//! `scald-tv --format json` output.
//!
//! Objects preserve insertion order (they are `Vec<(String, Json)>`), so
//! a document renders in the order it was built — stable for golden
//! files and diffs.

use std::fmt;

/// A JSON value with order-preserving objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; written shortest-form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value (convenience over `Json::Str(s.into())`).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value at `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the human-facing form `scald-tv --format json` emits.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(0)).expect("String write cannot fail");
        out.push('\n');
        out
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        #[allow(clippy::cast_precision_loss)]
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, None)
    }
}

/// Spaces for one run of pretty-print indentation; deeper levels write
/// it more than once.
const INDENT: &str = "                                ";

/// The one JSON writer behind [`Json`]'s compact `Display` and
/// [`Json::to_string_pretty`]: `indent` is the nesting level of `value`
/// in the pretty form (two spaces per level, newline-separated members,
/// `": "` after keys) and `None` for the compact form.
fn write_value<W: fmt::Write>(out: &mut W, value: &Json, indent: Option<usize>) -> fmt::Result {
    match value {
        Json::Null => out.write_str("null"),
        Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => write_members(out, ('[', ']'), items, indent, |out, item, inner| {
            write_value(out, item, inner)
        }),
        Json::Obj(fields) => {
            write_members(out, ('{', '}'), fields, indent, |out, (k, v), inner| {
                write_escaped(out, k)?;
                out.write_str(if inner.is_some() { ": " } else { ":" })?;
                write_value(out, v, inner)
            })
        }
    }
}

/// Writes a bracketed, comma-separated member list; an empty list is
/// `[]`/`{}` in both forms.
fn write_members<W: fmt::Write, T>(
    out: &mut W,
    (open, close): (char, char),
    members: &[T],
    indent: Option<usize>,
    mut member: impl FnMut(&mut W, &T, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    if !members.is_empty() {
        let inner = indent.map(|level| level + 1);
        for (i, m) in members.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            if let Some(level) = inner {
                write_newline(out, level)?;
            }
            member(out, m, inner)?;
        }
        if let Some(level) = indent {
            write_newline(out, level)?;
        }
    }
    out.write_char(close)
}

fn write_newline<W: fmt::Write>(out: &mut W, level: usize) -> fmt::Result {
    out.write_char('\n')?;
    let mut spaces = 2 * level;
    while spaces > 0 {
        let run = spaces.min(INDENT.len());
        out.write_str(&INDENT[..run])?;
        spaces -= run;
    }
    Ok(())
}

/// Shortest round-trip form, as `{}` prints an `f64` (`-0` for −0.0, every
/// digit of a large integral value). Integral values that an `i64` holds
/// exactly skip the float formatter. JSON has no Inf/NaN; `null` is the
/// conventional stand-in.
fn write_number<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    /// 2^53: every integral `f64` below it converts to `i64` exactly.
    const EXACT: f64 = 9_007_199_254_740_992.0;
    if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < EXACT && !(n == 0.0 && n.is_sign_negative()) {
        #[allow(clippy::cast_possible_truncation)]
        let whole = n as i64;
        write!(out, "{whole}")
    } else {
        write!(out, "{n}")
    }
}

/// Writes `s` as a quoted JSON string, copying runs of bytes that need no
/// escape in one piece.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        // `i` indexes an ASCII byte, so both slices end on char boundaries.
        out.write_str(&s[run..i])?;
        if escaped.is_empty() {
            out.write_str("\\u00")?;
            out.write_char(char::from(HEX[usize::from(b >> 4)]))?;
            out.write_char(char::from(HEX[usize::from(b & 0xf)]))?;
        } else {
            out.write_str(escaped)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Deepest array/object nesting [`parse`] accepts. Parsing recurses once
/// per level, so without a cap one line of `[`s from an untrusted peer
/// could exhaust the stack; real documents (a report, a nested sweep)
/// stay far below it.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Strict: trailing garbage, trailing
/// commas, unquoted keys, bare control characters, numbers outside the
/// RFC 8259 grammar (`+1`, `01`, `.5`, `1.`) and nesting deeper than 128
/// arrays/objects are errors.
///
/// # Errors
///
/// Returns a message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let open = bytes.get(*pos);
    if matches!(open, Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match open {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(text, bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(text, bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — RFC 8259 §6.
fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut valid = if bytes.get(*pos) == Some(&b'0') {
        *pos += 1;
        true
    } else {
        bytes.get(*pos).is_some_and(u8::is_ascii_digit) && digits(pos)
    };
    if valid && bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        valid = digits(pos);
    }
    if valid && matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        valid = digits(pos);
    }
    if !valid {
        return Err(format!("invalid number at byte {start}"));
    }
    text[start..*pos]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    // Start of the current run of bytes copied through unchanged. Runs
    // end only at ASCII bytes, so every slice is on char boundaries.
    let mut run = *pos;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_owned());
        };
        match b {
            b'"' => {
                out.push_str(&text[run..*pos]);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(&text[run..*pos]);
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_owned());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_owned())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are rejected rather than joined:
                        // nothing in this workspace emits them.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
                run = *pos;
            }
            0x00..=0x1f => return Err(format!("control character in string at byte {}", *pos)),
            _ => *pos += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_round_trip() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("scald-tv-report")),
            ("version".into(), Json::from(1u64)),
            ("clean".into(), Json::from(false)),
            (
                "cases".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::str("case 1")),
                    ("missed_by_ns".into(), Json::from(3.5)),
                    ("at".into(), Json::Null),
                ])]),
            ),
        ]);
        for text in [doc.to_string(), doc.to_string_pretty()] {
            let parsed = parse(&text).expect("round trip");
            assert_eq!(parsed, doc, "text: {text}");
        }
    }

    #[test]
    fn escapes_and_unescapes() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let quoted = Json::str(s).to_string();
        assert_eq!(quoted, r#""a\"b\\c\nd\te\u0001f""#);
        let back = parse(&quoted).expect("valid");
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn object_lookup_preserves_order() {
        let doc = parse(r#"{"b": 1, "a": 2}"#).expect("valid");
        let fields = doc.as_object().expect("object");
        assert_eq!(fields[0].0, "b");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_and_print_shortest_form() {
        assert_eq!(parse("3.5").unwrap().as_f64(), Some(3.5));
        assert_eq!(parse("-0.25").unwrap().as_f64(), Some(-0.25));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::from(49.0).to_string(), "49");
        assert_eq!(Json::from(3.5).to_string(), "3.5");
        assert_eq!(parse("12").unwrap().as_u64(), Some(12));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_with_an_offset() {
        let at_cap = parse(&nested(MAX_DEPTH)).expect("128 levels parse");
        assert_eq!(at_cap.to_string(), nested(MAX_DEPTH));
        let obj_at_cap = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&obj_at_cap).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("129 levels");
        assert_eq!(
            err,
            format!("nesting deeper than 128 levels at byte {MAX_DEPTH}")
        );
        let obj_past = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&obj_past).expect_err("129 object levels");
        assert!(
            err.starts_with("nesting deeper than 128 levels at byte"),
            "{err}"
        );
        // Far past the cap the error is the same, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for good in [
            "0", "-0", "7", "-12", "0.5", "-0.25", "10.01", "1e3", "1E+3", "2e-2", "0e0",
        ] {
            assert!(parse(good).is_ok(), "rejected {good:?}");
        }
        for bad in [
            "+1", "01", "-01", ".5", "-.5", "1.", "1.e3", "-", "1e", "1e+", "--1", "0x10", "1_0",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(
                err.ends_with("at byte 0") || err.starts_with("trailing data"),
                "{bad:?}: {err}"
            );
        }
        assert_eq!(parse("[1,.5]").unwrap_err(), "invalid number at byte 3");
        assert_eq!(parse("01").unwrap_err(), "trailing data at byte 1");
    }
}
