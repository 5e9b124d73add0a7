//! Cell values.
//!
//! A [`Value`] is the content of a single table cell. The DUST pipeline is
//! mostly text-oriented (tuples are serialized to text before embedding) but
//! column alignment benefits from knowing whether a column is numeric, so we
//! keep a small typed enum and a lossless textual rendering.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A single cell value in a table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing value (empty cell, `nan` padding introduced by outer union).
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// Free text value.
    Text(String),
}

impl Value {
    /// Build a text value from anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Build an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Build a float value.
    pub fn float(v: f64) -> Self {
        Value::Float(v)
    }

    /// Returns `true` when this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` when the value is numeric (int or float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Returns `true` when the value is textual.
    pub fn is_text(&self) -> bool {
        matches!(self, Value::Text(_))
    }

    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Textual view of the value without allocating for text values.
    ///
    /// Nulls render as an empty string; numbers use their canonical display
    /// form. This rendering is what gets tokenized by `dust-embed`.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Bool(b) => Cow::Owned(b.to_string()),
            Value::Int(v) => Cow::Owned(v.to_string()),
            Value::Float(v) => Cow::Owned(format_float(*v)),
            Value::Text(s) => Cow::Borrowed(s.as_str()),
        }
    }

    /// The form every value-overlap signal compares (TUS / D3L setup):
    /// rendered, trimmed, ASCII-lower-cased. `None` for nulls and blanks.
    /// The workspace's only normaliser — [`crate::ValueSet`] and the
    /// inverted index key on it, so they can never disagree.
    pub fn normalized(&self) -> Option<String> {
        let normalized = self.render().trim().to_ascii_lowercase();
        (!normalized.is_empty()).then_some(normalized)
    }

    /// Parse a raw string into the most specific value type.
    ///
    /// Empty strings and a small set of conventional null markers become
    /// [`Value::Null`]. Integers are preferred over floats, floats over
    /// booleans, and anything else remains text (with surrounding whitespace
    /// trimmed only for the type probe, not for the stored text).
    pub fn parse(raw: &str) -> Self {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        let is = |word: &str| trimmed.eq_ignore_ascii_case(word);
        if ["null", "nan", "na", "n/a", "none", "-"]
            .into_iter()
            .any(is)
        {
            return Value::Null;
        }
        if let Ok(v) = trimmed.parse::<i64>() {
            return Value::Int(v);
        }
        if let Ok(v) = trimmed.parse::<f64>() {
            if v.is_finite() {
                return Value::Float(v);
            }
        }
        if is("true") {
            return Value::Bool(true);
        }
        if is("false") {
            return Value::Bool(false);
        }
        Value::Text(raw.to_string())
    }

    /// A stable ordering key used by deterministic algorithms (medoid tie
    /// breaking, canonical table ordering in tests).
    ///
    /// Numeric keys must compare lexicographically in numeric order, which
    /// plain zero-padded formatting gets wrong for negatives (`-5` would
    /// sort before `-10`, and `-` < `0` games the digit comparison). Ints
    /// are offset-encoded into `0..=u64::MAX` so the padded decimal string
    /// orders exactly like the signed value; floats use the sign-flipped
    /// IEEE bit trick, whose unsigned order is `total_cmp` order.
    pub fn sort_key(&self) -> (u8, String) {
        match self {
            Value::Null => (0, String::new()),
            Value::Bool(b) => (1, b.to_string()),
            Value::Int(v) => {
                let offset = (*v as i128 - i64::MIN as i128) as u128;
                (2, format!("{offset:020}"))
            }
            Value::Float(v) => {
                let bits = v.to_bits();
                let key = if bits >> 63 == 1 {
                    !bits
                } else {
                    bits | (1 << 63)
                };
                (3, format!("{key:016x}"))
            }
            Value::Text(s) => (4, s.clone()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => {
                (a.is_nan() && b.is_nan()) || (a - b).abs() == 0.0
            }
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Render a float without unnecessary trailing zeros but keeping a decimal
/// point so the value round-trips as a float.
fn format_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn parse_detects_integers() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-7"), Value::Int(-7));
    }

    #[test]
    fn parse_detects_floats() {
        assert_eq!(Value::parse("3.25"), Value::Float(3.25));
        assert_eq!(Value::parse("-0.5"), Value::Float(-0.5));
    }

    #[test]
    fn parse_detects_nulls() {
        for raw in ["", "  ", "null", "NaN", "N/A", "none", "-"] {
            assert!(Value::parse(raw).is_null(), "{raw:?} should parse as null");
        }
    }

    /// `Value::parse` as it was before the null and bool words were
    /// matched with `eq_ignore_ascii_case`: one lower-cased copy per cell.
    fn parse_by_lowering(raw: &str) -> Value {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        let lowered = trimmed.to_ascii_lowercase();
        if matches!(
            lowered.as_str(),
            "null" | "nan" | "na" | "n/a" | "none" | "-"
        ) {
            return Value::Null;
        }
        if let Ok(v) = trimmed.parse::<i64>() {
            return Value::Int(v);
        }
        if let Ok(v) = trimmed.parse::<f64>() {
            if v.is_finite() {
                return Value::Float(v);
            }
        }
        match lowered.as_str() {
            "true" => return Value::Bool(true),
            "false" => return Value::Bool(false),
            _ => {}
        }
        Value::Text(raw.to_string())
    }

    #[test]
    fn parse_matches_the_lowering_oracle_on_every_casing() {
        let words = [
            "null", "nan", "na", "n/a", "none", "-", "true", "false", "inf", "nil",
        ];
        let mut raws: Vec<String> = Vec::new();
        for word in words {
            // every upper/lower casing of the word's letters
            for mask in 0u32..1 << word.len() {
                let cased: String = word
                    .chars()
                    .enumerate()
                    .map(|(i, c)| match mask >> i & 1 {
                        1 => c.to_ascii_uppercase(),
                        _ => c,
                    })
                    .collect();
                for padded in [
                    cased.clone(),
                    format!("  {cased}\t"),
                    format!("{cased}x"),
                    format!("x{cased}"),
                    format!("{cased}\u{a0}"),
                ] {
                    raws.push(padded);
                }
            }
        }
        let others = [
            "",
            " ",
            "42",
            " -7 ",
            "3.25",
            "1e3",
            "NaN1",
            "İnf",
            "ſ",
            "nuLL!",
            "trüe",
            "ＴＲＵＥ",
            "--",
            "n / a",
            "River Park",
        ];
        raws.extend(others.map(String::from));
        for raw in &raws {
            let (got, want) = (Value::parse(raw), parse_by_lowering(raw));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{raw:?}");
        }
    }

    #[test]
    fn parse_detects_bools_and_text() {
        assert_eq!(Value::parse("true"), Value::Bool(true));
        assert_eq!(Value::parse("False"), Value::Bool(false));
        assert_eq!(Value::parse("River Park"), Value::text("River Park"));
    }

    #[test]
    fn render_round_trips_numbers() {
        assert_eq!(Value::Int(12).render(), "12");
        assert_eq!(Value::Float(2.5).render(), "2.5");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Null.render(), "");
    }

    #[test]
    fn int_and_float_compare_equal_when_equal() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn hashing_is_consistent_with_equality_for_int_float() {
        let mut set = HashSet::new();
        set.insert(Value::Int(3));
        assert!(set.contains(&Value::Float(3.0)));
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut values = [
            Value::text("b"),
            Value::Null,
            Value::Int(10),
            Value::Float(1.5),
            Value::text("a"),
            Value::Bool(true),
        ];
        values.sort();
        assert!(values[0].is_null());
        assert_eq!(values.last().unwrap(), &Value::text("b"));
    }

    #[test]
    fn as_f64_covers_numeric_variants() {
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::text("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn numeric_and_text_predicates() {
        assert!(Value::Int(1).is_numeric());
        assert!(Value::Float(0.1).is_numeric());
        assert!(!Value::text("x").is_numeric());
        assert!(Value::text("x").is_text());
        assert!(!Value::Null.is_text());
    }

    #[test]
    fn int_sort_keys_order_like_the_integers() {
        let ints = [
            i64::MIN,
            -1_000_000,
            -10,
            -5,
            -1,
            0,
            1,
            5,
            10,
            1_000_000,
            i64::MAX,
        ];
        for pair in ints.windows(2) {
            assert!(
                Value::Int(pair[0]) < Value::Int(pair[1]),
                "{} should sort before {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn float_sort_keys_order_like_total_cmp() {
        let floats = [
            f64::NEG_INFINITY,
            -1.0e300,
            -10.0,
            -5.0,
            -1.5,
            -0.0,
            0.0,
            1.5,
            5.0,
            10.0,
            1.0e300,
            f64::INFINITY,
        ];
        for pair in floats.windows(2) {
            assert!(
                Value::Float(pair[0]) <= Value::Float(pair[1]),
                "{} should not sort after {}",
                pair[0],
                pair[1]
            );
        }
        // NaN sorts after every finite value (total_cmp order), so a sort
        // with a stray NaN stays deterministic instead of shuffling.
        assert!(Value::Float(f64::NAN) > Value::Float(f64::INFINITY));
    }
}
