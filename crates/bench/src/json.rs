//! Minimal JSON support for the `serve` binary's JSONL protocol.
//!
//! The vendored `serde` stand-in is an inert marker crate (see
//! `vendor/serde`), so request parsing and response emission are done with
//! this small hand-rolled implementation. It covers the full JSON value
//! grammar (objects, arrays, strings with escapes, numbers, booleans,
//! null) — more than the flat request objects need — and is replaced by
//! `serde_json` the day a registry is reachable.
//!
//! [`parse`] runs in time linear in its input: a string is copied run by
//! run between escapes, never re-validated (an inline CSV table is one
//! long string). Nesting deeper than [`MAX_DEPTH`] arrays and objects is
//! an error, so no line can exhaust the stack of the thread parsing it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order preserved via `BTreeMap` for determinism).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64()
            .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as usize)
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Protocol
/// requests nest at most two deep; the cap bounds the parser's recursion,
/// so a hostile line is an error rather than a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document. Errors carry a byte offset and a short reason.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// One value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(input, pos, depth + 1),
        Some(b'[') => parse_array(input, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::String(parse_string(input, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

/// The string opening at `pos`. Each run of bytes up to the next `"` or
/// `\` is copied with one `push_str`: both delimiters are ASCII, so every
/// run starts and ends on a char boundary of the already-valid `input`,
/// and the whole string costs time linear in its bytes.
fn parse_string(input: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&input[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1; // consume '\'
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .ok_or("truncated \\u escape")?;
                let code =
                    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
                        .map_err(|e| e.to_string())?;
                // Surrogate pairs are not needed by the protocol; map lone
                // surrogates to the replacement character. Only ASCII
                // digits parse, so the next run starts on a char boundary.
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                *pos += 4;
            }
            _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
        }
        *pos += 1;
    }
}

fn parse_array(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(input, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(input, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(input, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Escape a string for embedding in JSON output (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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
    out
}

/// Format an `f64` for JSON output (finite values only; NaN/∞ become null).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of strings.
pub fn string_array<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    let quoted: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_flat_request_object() {
        let v = parse(r#"{"id": "q1", "k": 8, "query": "santos_query_0"}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("q1"));
        assert_eq!(v.get("k").unwrap().as_usize(), Some(8));
        assert_eq!(v.get("query").unwrap().as_str(), Some("santos_query_0"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_values_numbers_and_literals() {
        let v = parse(r#"{"a": [1, -2.5, 1e3, true, false, null], "b": {"c": "x"}}"#).unwrap();
        match v.get("a").unwrap() {
            JsonValue::Array(items) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].as_f64(), Some(-2.5));
                assert_eq!(items[2].as_f64(), Some(1000.0));
                assert_eq!(items[3], JsonValue::Bool(true));
                assert_eq!(items[5], JsonValue::Null);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(JsonValue::as_str),
            Some("x")
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" back\\slash ünïcode";
        let json = format!("\"{}\"", escape(original));
        let parsed = parse(&json).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn csv_payloads_survive_embedded_newlines() {
        // the serve protocol ships CSV tables inside JSON strings
        let line = r#"{"csv": "Park Name,Country\nRiver Park,USA\nHyde Park,UK"}"#;
        let v = parse(line).unwrap();
        let csv = v.get("csv").unwrap().as_str().unwrap();
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("[1, 2,]").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let too_deep = "nesting deeper than 64 at byte 64";
        assert_eq!(parse(&nested(MAX_DEPTH + 1)).unwrap_err(), too_deep);
        assert_eq!(parse(&"[".repeat(300_000)).unwrap_err(), too_deep);
        // objects count toward the same depth
        let objects = |depth: usize| format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&objects(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than 64 at byte {}", 5 * MAX_DEPTH)
        );
    }

    /// The scalar-at-a-time string decoder `parse_string` replaced: every
    /// plain character re-validates the rest of the input, so a string
    /// costs time quadratic in its length. Kept as the oracle.
    fn parse_string_by_scalar(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    /// One seeded string literal: plain text of 1- to 4-byte characters,
    /// every escape, `\u` forms good and bad, and endings that close the
    /// string, leave it open, or cut an escape short.
    fn random_literal(rng: &mut impl rand::Rng) -> String {
        const GOOD: &[&str] = &[
            "a", "Z", " ", ",", "0", "\n", "é", "ß", "€", "中", "✓", "😀", "𝄞", r#"\""#, r"\\",
            r"\/", r"\b", r"\f", r"\n", r"\r", r"\t", r"\u0041", r"\u00e9", r"\u20AC", r"\uD83D",
            r"\uFFFF", r"\u+041",
        ];
        const BAD: &[&str] = &[r"\uzzzz", r"\u00é", r"\u-041", r"\x", r"\é", r"\ "];
        const ENDINGS: &[&str] = &["\"", "\"", "\"", "\" trailing", "", r"\", r"\u12", r"\u"];
        let mut literal = String::from("\"");
        for _ in 0..rng.gen_range(0..24) {
            let piece = if rng.gen_bool(0.02) {
                BAD[rng.gen_range(0..BAD.len())]
            } else {
                GOOD[rng.gen_range(0..GOOD.len())]
            };
            literal.push_str(piece);
            if rng.gen_bool(0.3) {
                // a longer plain run, as a CSV payload has
                literal.push_str(&piece.repeat(rng.gen_range(1..8)));
            }
        }
        literal.push_str(ENDINGS[rng.gen_range(0..ENDINGS.len())]);
        literal
    }

    #[test]
    fn run_copying_matches_the_scalar_decoder_on_seeded_strings() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1447);
        let (mut ok, mut err) = (0, 0);
        for _ in 0..12_000 {
            let literal = random_literal(&mut rng);
            let (mut run_pos, mut scalar_pos) = (0, 0);
            let by_run = parse_string(&literal, &mut run_pos);
            let by_scalar = parse_string_by_scalar(literal.as_bytes(), &mut scalar_pos);
            assert_eq!(by_run, by_scalar, "{literal:?}");
            if by_run.is_ok() {
                assert_eq!(run_pos, scalar_pos, "{literal:?}");
                ok += 1;
            } else {
                err += 1;
            }
            // a whole document is the string alone, with nothing after it
            let whole = by_scalar.ok().filter(|_| scalar_pos == literal.len());
            assert_eq!(parse(&literal).ok(), whole.map(JsonValue::String));
        }
        // both outcomes are well represented
        assert!(ok > 3_000 && err > 3_000, "{ok} ok, {err} errors");
    }

    #[test]
    fn a_one_mebibyte_inline_csv_request_decodes_in_linear_time() {
        use dust_table::{parse_csv, CsvOptions};
        // an add_table line just under the pool's line cap
        let envelope = r#"{"id":"big","mode":"add_table","name":"big","csv":""}"#;
        let mut csv = String::from("park,city,visitors,rating,open\n");
        let mut line_len = envelope.len() + escape(&csv).len();
        let mut rows = 0;
        loop {
            let row =
                format!("\"Park {rows}, Zürich\",\"Köln \"\"Nord\"\"\",{rows},{rows}.5,N/A\n");
            line_len += escape(&row).len();
            if line_len > crate::pool::MAX_LINE_BYTES {
                break;
            }
            csv.push_str(&row);
            rows += 1;
        }
        let line = format!(
            r#"{{"id":"big","mode":"add_table","name":"big","csv":"{}"}}"#,
            escape(&csv)
        );
        assert!(
            line.len() > crate::pool::MAX_LINE_BYTES - 128,
            "{} bytes",
            line.len()
        );
        let start = std::time::Instant::now();
        let request = parse(&line).unwrap();
        let text = request.get("csv").and_then(JsonValue::as_str).unwrap();
        let table = parse_csv("big", text, CsvOptions::default()).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(text, csv);
        assert_eq!(table.num_rows(), rows);
        // json::parse of such a line: 1.3 ms in a release build on a shared
        // 2-vCPU Xeon VM; the scalar decoder took 124 s
        assert!(elapsed.as_secs_f64() < 1.0, "decoded in {elapsed:?}");
    }

    #[test]
    fn number_formatting_handles_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn string_array_quotes_and_escapes() {
        assert_eq!(string_array(["a", "b\"c"]), r#"["a","b\"c"]"#);
        assert_eq!(string_array([]), "[]");
    }
}
