//! Helpers shared by the session suites (`session_concurrency`,
//! `session_equivalence`, `session_mutation`, `session_recovery`).

use dust_core::DustResult;

/// Field-by-field equality, bit-exact on every floating-point score except
/// the wall-clock timings (which legitimately differ between runs).
pub fn assert_same_result(a: &DustResult, b: &DustResult, context: &str) {
    assert_eq!(a.tuples, b.tuples, "{context}: selected tuples differ");
    assert_eq!(
        a.retrieved_tables, b.retrieved_tables,
        "{context}: retrieved tables differ"
    );
    assert_eq!(
        a.dropped_tables, b.dropped_tables,
        "{context}: dropped-table diagnostics differ"
    );
    assert_eq!(a.alignment, b.alignment, "{context}: alignment differs");
    assert_eq!(
        a.candidate_tuples, b.candidate_tuples,
        "{context}: candidate pool size differs"
    );
    assert_eq!(
        a.diversity.average.to_bits(),
        b.diversity.average.to_bits(),
        "{context}: average diversity differs"
    );
    assert_eq!(
        a.diversity.minimum.to_bits(),
        b.diversity.minimum.to_bits(),
        "{context}: min diversity differs"
    );
}
