//! Property-based tests for the table substrate: CSV round-trips, value
//! parsing totality, tuple permutation invariants, outer-append shape, and
//! the cached value sets against a per-call `HashSet` oracle.

use dust_table::{parse_csv, write_csv, Column, CsvOptions, Table, Tuple, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// Cell strategy: printable text without exotic control characters, or
/// numeric-looking strings, or empties.
fn cell() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 ,\\.\"'-]{0,12}",
        (-1000i64..1000).prop_map(|v| v.to_string()),
        Just(String::new()),
    ]
}

/// Values from a tiny alphabet, so two columns overlap and collide after
/// normalisation: mixed case, stray whitespace, blanks, every typed
/// rendering, nulls.
fn overlap_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[abAB ]{0,3}".prop_map(Value::text),
        (-3i64..4).prop_map(Value::Int),
        (-3i64..4).prop_map(|v| Value::Float(v as f64 / 2.0)),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        Just(Value::Null),
    ]
}

fn overlap_values() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(overlap_value(), 0..14)
}

/// The reference the cached sets must equal: what every `jaccard` call used
/// to build, restated here on purpose rather than shared with the code
/// under test.
fn oracle_set(values: &[Value]) -> HashSet<String> {
    let mut set = HashSet::new();
    for value in values.iter().filter(|v| !v.is_null()) {
        let rendered = value.render();
        let folded = rendered.trim().to_ascii_lowercase();
        if !folded.is_empty() {
            set.insert(folded);
        }
    }
    set
}

fn oracle_jaccard(a: &[Value], b: &[Value]) -> f64 {
    let (a, b) = (oracle_set(a), oracle_set(b));
    let inter = a.intersection(&b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// The column's cached set holds exactly the oracle's values, ascending.
fn assert_set_of(column: &Column, values: &[Value]) {
    let mut expected: Vec<String> = oracle_set(values).into_iter().collect();
    expected.sort_unstable();
    let set = column.value_set();
    assert_eq!(set.iter().collect::<Vec<_>>(), expected);
    assert_eq!(
        (set.len(), set.is_empty()),
        (expected.len(), expected.is_empty())
    );
    assert!(expected.iter().all(|v| set.contains(v)));
    assert!(!set.contains("never generated"));
}

#[test]
fn empty_and_all_null_columns_have_empty_sets_and_zero_scores() {
    let empty = Column::new("e", vec![]);
    let nulls = Column::new("n", vec![Value::Null, Value::text("  "), Value::Null]);
    let some = Column::from_strings("s", ["x", "Y"]);
    for blank in [&empty, &nulls] {
        assert_set_of(blank, &[]);
        for (a, b) in [(blank, &some), (&some, blank), (blank, blank)] {
            assert_eq!(a.jaccard(b).to_bits(), 0f64.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sorted-merge `jaccard` over cached sets equals the per-call
    /// `HashSet` oracle to the last bit, from either side, on a clone taken
    /// before or after the cache was filled, and read twice.
    #[test]
    fn merge_scores_equal_the_hashset_oracle(a in overlap_values(), b in overlap_values()) {
        let (ca, cb) = (Column::new("a", a.clone()), Column::new("b", b.clone()));
        let cold_clone = ca.clone();
        for _ in 0..2 {
            prop_assert_eq!(ca.jaccard(&cb).to_bits(), oracle_jaccard(&a, &b).to_bits());
            prop_assert_eq!(cb.jaccard(&ca).to_bits(), oracle_jaccard(&b, &a).to_bits());
        }
        assert_set_of(&ca, &a);
        let warm_clone = ca.clone();
        for clone in [&cold_clone, &warm_clone] {
            assert_set_of(clone, &a);
            prop_assert_eq!(clone.jaccard(&cb).to_bits(), ca.jaccard(&cb).to_bits());
        }
    }

    /// A read followed by `push` or `values_mut` answers for the *new*
    /// values: no mutator leaves a stale set behind.
    #[test]
    fn every_mutator_drops_the_cached_set(
        a in overlap_values(),
        b in overlap_values(),
        extra in overlap_value(),
    ) {
        let mut column = Column::new("shared", a.clone());
        let mut now = a.clone();
        assert_set_of(&column, &now);
        column.push(extra.clone());
        now.push(extra);
        assert_set_of(&column, &now);
        column.values_mut().extend(b.iter().cloned());
        now.extend(b.iter().cloned());
        assert_set_of(&column, &now);
        column.values_mut().clear();
        assert_set_of(&column, &[]);
    }

    /// `==` on columns and tables never sees the cache, whichever side has
    /// it filled.
    #[test]
    fn equality_ignores_which_side_is_cached(a in overlap_values(), b in overlap_values()) {
        let build = || Table::from_columns(
            "t",
            vec![Column::new("x", a.clone()), Column::new("y", a.clone())],
        ).unwrap();
        let (warm, cold) = (build(), build());
        warm.columns().iter().for_each(|c| { c.value_set(); });
        prop_assert_eq!(&warm, &cold);
        prop_assert_eq!(&cold, &warm);
        prop_assert_eq!(&warm.columns()[0], &cold.columns()[0]);
        prop_assert_eq!(&cold.columns()[0], &warm.columns()[0]);
        let other = Column::new("x", b.clone());
        other.value_set();
        prop_assert_eq!(warm.columns()[0] == other, a == b);
        prop_assert_eq!(other == cold.columns()[0], a == b);
    }

    /// Any table built from arbitrary cells survives a CSV write/parse
    /// round-trip with the same shape and the same rendered cell values.
    #[test]
    fn csv_round_trip_preserves_shape_and_values(
        rows in prop::collection::vec(prop::collection::vec(cell(), 3), 1..12),
    ) {
        let headers: Vec<String> = ["alpha", "beta", "gamma"].iter().map(|h| h.to_string()).collect();
        let table = Table::from_rows("t", &headers, &rows).unwrap();
        let csv = write_csv(&table, CsvOptions::default());
        let parsed = parse_csv("t", &csv, CsvOptions::default()).unwrap();
        prop_assert_eq!(parsed.num_rows(), table.num_rows());
        prop_assert_eq!(parsed.num_columns(), table.num_columns());
        for r in 0..table.num_rows() {
            for c in 0..table.num_columns() {
                let original = table.cell(r, c).unwrap();
                let round_tripped = parsed.cell(r, c).unwrap();
                // rendered values are compared because parsing may normalize
                // the *type* (e.g. "007" stays text, "7" becomes an integer)
                // but never the rendered content of non-null cells
                if original.is_null() {
                    prop_assert!(round_tripped.is_null());
                } else {
                    let original_text = original.render().trim().to_string();
                    let round_tripped_text = round_tripped.render().trim().to_string();
                    prop_assert_eq!(original_text, round_tripped_text);
                }
            }
        }
    }

    /// Value parsing never panics and always classifies into exactly one of
    /// the null / numeric / textual categories.
    #[test]
    fn value_parsing_is_total(raw in ".{0,24}") {
        let value = Value::parse(&raw);
        let classes =
            [value.is_null(), value.is_numeric(), matches!(value, Value::Text(_) | Value::Bool(_))];
        prop_assert_eq!(classes.iter().filter(|c| **c).count(), 1);
    }

    /// Permuting a tuple's columns never changes its deduplication key, its
    /// non-null count, or the value associated with each header.
    #[test]
    fn tuple_permutation_invariants(
        values in prop::collection::vec(cell(), 2..6),
        seed in 0u64..1000,
    ) {
        let headers: Vec<String> = (0..values.len()).map(|i| format!("col_{i}")).collect();
        let typed: Vec<Value> = values.iter().map(|v| Value::parse(v)).collect();
        let tuple = Tuple::new(headers.clone(), typed, "t", 0);
        // derive a permutation deterministically from the seed
        let mut order: Vec<usize> = (0..headers.len()).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state as usize) % (i + 1));
        }
        let permuted = tuple.permuted(&order);
        prop_assert_eq!(permuted.dedup_key(), tuple.dedup_key());
        prop_assert_eq!(permuted.non_null_count(), tuple.non_null_count());
        for h in &headers {
            prop_assert_eq!(tuple.value_for(h), permuted.value_for(h));
        }
    }
}
