//! A minimal JSON value type with a renderer, a parser, and a CSV
//! flattener, plus [`ToJson`], the one trait for a value's JSON form.
//!
//! The workspace is dependency-free by design (the build must succeed with
//! no network access), so structured artifacts are emitted through this
//! small JSON implementation instead of serde. It supports exactly what
//! run artifacts need: ordered objects, arrays, strings, booleans,
//! unsigned integers, and floats. Floats render via `{:?}` (Rust's
//! shortest round-trip representation), so `parse(render(v)) == v` holds
//! for every value the simulator produces.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so rendered artifacts
/// are stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, cycles, seeds).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON indented by two spaces.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, padc) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth)),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no Infinity/NaN; encode as null like
                    // serde_json does.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&padc);
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
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&padc);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error
    /// (an unescaped U+0000 to U+001F inside a string is one), or of the
    /// first array or object nested deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// A value with a JSON form. `None` renders as `null`, vectors and arrays
/// as arrays.
///
/// [`record!`](crate::record) derives it for `counters;` and `json;`
/// records: an object of the fields in declaration order. A hand-written
/// impl is for a value whose form is not its fields in order, such as one
/// keyed by labels or one holding computed values.
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::UInt(u64::from(*self))
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a cap a job file of nested
/// `[` overflows the stack and aborts the process.
const MAX_DEPTH: usize = 128;

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // The byte offset of the backslash, for error
                        // positions.
                        let esc = *pos - 1;
                        let unit = parse_hex4(bytes, *pos + 1)?;
                        *pos += 5;
                        let c = match unit {
                            // High surrogate: must combine with a trailing
                            // \uXXXX low surrogate into one supplementary
                            // scalar (UTF-16 as JSON mandates).
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos) != Some(&b'\\')
                                    || bytes.get(*pos + 1) != Some(&b'u')
                                {
                                    return Err(format!(
                                        "unpaired high surrogate \\u{unit:04x} at byte {esc}"
                                    ));
                                }
                                let low = parse_hex4(bytes, *pos + 2)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "high surrogate \\u{unit:04x} at byte {esc} followed by \
                                         non-low-surrogate \\u{low:04x}"
                                    ));
                                }
                                *pos += 6;
                                let code = 0x1_0000
                                    + ((u32::from(unit) - 0xD800) << 10)
                                    + (u32::from(low) - 0xDC00);
                                char::from_u32(code).expect("valid supplementary scalar")
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{unit:04x} at byte {esc}"
                                ));
                            }
                            _ => char::from_u32(u32::from(unit)).expect("BMP non-surrogate"),
                        };
                        out.push(c);
                        continue;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            // RFC 8259 admits U+0000 to U+001F in a string only escaped.
            Some(&b) if b < 0x20 => {
                return Err(format!(
                    "raw control character U+{b:04X} in a string at byte {pos}"
                ));
            }
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // character in one piece. All are ASCII, so the run ends on
                // a character boundary, and each byte is validated once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

/// Parses the four hex digits of a `\uXXXX` escape starting at `start`.
fn parse_hex4(bytes: &[u8], start: usize) -> Result<u16, String> {
    let hex = bytes
        .get(start..start + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {}", start.saturating_sub(2)))?;
    let text = std::str::from_utf8(hex)
        .map_err(|_| format!("bad \\u escape at byte {}", start.saturating_sub(2)))?;
    u16::from_str_radix(text, 16).map_err(|_| {
        format!(
            "bad \\u escape {text:?} at byte {}",
            start.saturating_sub(2)
        )
    })
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Flattens an array of JSON objects into CSV: scalar fields become
/// columns (nested objects flatten with dotted keys, in first-seen order);
/// arrays are skipped. Rows missing a column leave the cell empty.
#[must_use]
pub fn to_csv(rows: &[Json]) -> String {
    let mut columns: Vec<String> = Vec::new();
    let mut flat_rows: Vec<Vec<(String, String)>> = Vec::new();
    for row in rows {
        let mut cells = Vec::new();
        flatten(row, "", &mut cells);
        for (key, _) in &cells {
            if !columns.contains(key) {
                columns.push(key.clone());
            }
        }
        flat_rows.push(cells);
    }
    let mut out = String::new();
    out.push_str(
        &columns
            .iter()
            .map(|c| csv_cell(c))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for cells in &flat_rows {
        let line: Vec<String> = columns
            .iter()
            .map(|col| {
                cells
                    .iter()
                    .find(|(k, _)| k == col)
                    .map(|(_, v)| csv_cell(v))
                    .unwrap_or_default()
            })
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

fn flatten(value: &Json, prefix: &str, out: &mut Vec<(String, String)>) {
    match value {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(v, &key, out);
            }
        }
        Json::Arr(_) => {}
        Json::Null => out.push((prefix.to_string(), String::new())),
        Json::Bool(b) => out.push((prefix.to_string(), b.to_string())),
        Json::UInt(n) => out.push((prefix.to_string(), n.to_string())),
        Json::Num(x) => out.push((prefix.to_string(), format!("{x:?}"))),
        Json::Str(s) => out.push((prefix.to_string(), s.clone())),
    }
}

fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("name", Json::Str("mcf \"quoted\"\n".into())),
            ("count", Json::UInt(u64::MAX)),
            ("ratio", Json::Num(0.1 + 0.2)),
            ("neg", Json::Num(-3.5)),
            ("on", Json::Bool(true)),
            ("none", Json::Null),
            (
                "nested",
                Json::obj(vec![
                    ("a", Json::UInt(1)),
                    ("b", Json::Arr(vec![Json::UInt(2)])),
                ]),
            ),
        ])
    }

    /// Levels of arrays and objects along the first-child path of `v`.
    fn depth(mut v: &Json) -> usize {
        let mut levels = 0;
        loop {
            let first = match v {
                Json::Arr(items) => items.first(),
                Json::Obj(pairs) => pairs.first().map(|(_, x)| x),
                _ => return levels,
            };
            levels += 1;
            match first {
                Some(x) => v = x,
                None => return levels,
            }
        }
    }

    #[test]
    fn nesting_is_capped_with_the_offset_of_the_first_level_too_deep() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        for text in [arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
            let v = Json::parse(&text).expect("a document exactly at the cap parses");
            assert_eq!(depth(&v), MAX_DEPTH);
        }
        let too_deep = |at: usize| {
            Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {at}"
            ))
        };
        assert_eq!(Json::parse(&arrays(MAX_DEPTH + 1)), too_deep(MAX_DEPTH));
        assert_eq!(
            Json::parse(&objects(MAX_DEPTH + 1)),
            too_deep(5 * MAX_DEPTH)
        );
        // Deep enough to overflow the stack without the cap.
        assert_eq!(Json::parse(&arrays(100_000)), too_deep(MAX_DEPTH));
        assert_eq!(Json::parse(&objects(100_000)), too_deep(5 * MAX_DEPTH));
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = sample();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn u64_survives_exactly() {
        let v = Json::UInt(u64::MAX);
        assert_eq!(Json::parse(&v.render()).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn float_renders_shortest_round_trip() {
        let v = Json::Num(0.30000000000000004);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_decode_bmp_and_surrogate_pairs() {
        // BMP escape.
        assert_eq!(
            Json::parse("\"caf\\u00e9\"").unwrap(),
            Json::Str("café".into())
        );
        // Surrogate pair combining into one supplementary scalar (U+1F600).
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
        // Pair embedded in surrounding text.
        assert_eq!(
            Json::parse("\"a\\ud83d\\ude00b\"").unwrap(),
            Json::Str("a😀b".into())
        );
    }

    #[test]
    fn unicode_escapes_reject_malformed_surrogates_with_position() {
        // Lone high surrogate at end of string.
        let err = Json::parse("\"\\ud83d\"").unwrap_err();
        assert!(err.contains("unpaired high surrogate"), "{err}");
        assert!(err.contains("byte 1"), "{err}");
        // High surrogate followed by a non-surrogate escape.
        let err = Json::parse("\"\\ud83d\\u0041\"").unwrap_err();
        assert!(err.contains("non-low-surrogate"), "{err}");
        // High surrogate followed by plain text.
        assert!(Json::parse("\"\\ud83dxx\"").is_err());
        // Lone low surrogate.
        let err = Json::parse("\"\\ude00\"").unwrap_err();
        assert!(err.contains("lone low surrogate"), "{err}");
        // Truncated and non-hex escapes.
        assert!(Json::parse("\"\\u00\"").is_err());
        assert!(Json::parse("\"\\uzzzz\"").is_err());
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected_with_position() {
        // A label holding a raw tab and a raw U+0001, which RFC 8259
        // admits only escaped: the first one is named with its offset.
        let err = Json::parse("{\"label\":\"a\tb\u{1}c\"}").unwrap_err();
        assert!(err.contains("U+0009") && err.contains("byte 11"), "{err}");
        let err = Json::parse("\"ab\u{1}c\"").unwrap_err();
        assert!(err.contains("U+0001") && err.contains("byte 3"), "{err}");
        assert!(Json::parse("\"\u{0}\"").is_err());
        assert!(Json::parse("\"\u{1f}\"").is_err());
        // The renderer escapes every control character, so the same label
        // still round-trips.
        let label = Json::obj(vec![("label", Json::Str("a\tb\u{1}c".into()))]);
        assert_eq!(Json::parse(&label.render()), Ok(label));
        // Whitespace between tokens is not inside a string.
        assert!(Json::parse("{\"a\":\t1,\n\"b\":\r2}").is_ok());
    }

    #[test]
    fn non_bmp_round_trips_through_parse() {
        let v = Json::Str("snowman ☃ and 😀 mix".into());
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn a_long_string_parses_in_time_linear_in_its_length() {
        // Plain and multi-byte runs between escapes (quote, backslash,
        // newline, tab and a `\u0001` control character).
        let piece = "plain text, café ☃ 😀 \"quoted\" back\\slash\n\t\u{1} ";
        let long = piece.repeat((4 << 20) / piece.len() + 1);
        assert!(long.len() >= 4 << 20);
        let v = Json::Str(long);
        let text = v.render();
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text);
        let took = started.elapsed();
        assert_eq!(parsed, Ok(v));
        // Copying run by run takes milliseconds; a parser that validates
        // the rest of the input at every character takes minutes.
        assert!(took < std::time::Duration::from_secs(5), "{took:?}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("nested").unwrap().get("a").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("name").unwrap().as_str().unwrap().chars().next(),
            Some('m')
        );
        assert!(v.get("missing").is_none());
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn csv_flattens_with_dotted_keys() {
        let rows = vec![
            Json::obj(vec![
                ("a", Json::UInt(1)),
                ("o", Json::obj(vec![("x", Json::Str("p,q".into()))])),
            ]),
            Json::obj(vec![("a", Json::UInt(2)), ("extra", Json::Bool(false))]),
        ];
        let csv = to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,o.x,extra");
        assert_eq!(lines[1], "1,\"p,q\",");
        assert_eq!(lines[2], "2,,false");
    }
}
