//! Pipeline results and stage timings.

use dust_align::Alignment;
use dust_diversify::DiversityScores;
use dust_table::Tuple;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Wall-clock time spent in each stage of Algorithm 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// `SearchTables` duration in seconds.
    pub search_secs: f64,
    /// `AlignColumns` (+ outer union) duration in seconds.
    pub align_secs: f64,
    /// `EmbedTuples` duration in seconds (including fine-tuning when the
    /// pipeline trains a model).
    pub embed_secs: f64,
    /// `DiversifyTuples` duration in seconds.
    pub diversify_secs: f64,
}

impl StageTimings {
    /// Total pipeline time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.search_secs + self.align_secs + self.embed_secs + self.diversify_secs
    }

    /// Record a duration into a stage field.
    pub(crate) fn record(field: &mut f64, duration: Duration) {
        *field = duration.as_secs_f64();
    }
}

/// The result of one DUST pipeline run.
#[derive(Debug, Clone)]
pub struct DustResult {
    /// The k selected diverse unionable tuples (under the query header).
    pub tuples: Vec<Tuple>,
    /// Names of the unionable tables retrieved by the search step.
    pub retrieved_tables: Vec<String>,
    /// Retrieved table names whose lake lookup failed (stale index entries,
    /// tables dropped between indexing and serving). These silently shrank
    /// the candidate pool before; now every drop is recorded so callers can
    /// alert on a lake/index skew instead of quietly returning less.
    pub dropped_tables: Vec<String>,
    /// The column alignment used for the outer union.
    pub alignment: Alignment,
    /// Number of unionable tuples produced by the outer union (before
    /// diversification).
    pub candidate_tuples: usize,
    /// Diversity scores of the selected set (Sec. 5.4 metrics).
    pub diversity: DiversityScores,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

impl DustResult {
    /// Number of selected tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuples were selected.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// True when every retrieved table resolved in the lake (no stale
    /// index entries were dropped).
    pub fn is_complete(&self) -> bool {
        self.dropped_tables.is_empty()
    }

    /// How many selected tuples are novel with respect to the query table
    /// (their deduplication key does not appear among the query tuples).
    pub fn novel_tuple_count(&self, query_tuples: &[Tuple]) -> usize {
        let query_keys: std::collections::BTreeSet<String> =
            query_tuples.iter().map(|t| t.dedup_key()).collect();
        self.tuples
            .iter()
            .filter(|t| !query_keys.contains(&t.dedup_key()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_table::Value;

    fn tuple(name: &str) -> Tuple {
        Tuple::new(vec!["Park Name".into()], vec![Value::text(name)], "t", 0)
    }

    #[test]
    fn timings_total() {
        let timings = StageTimings {
            search_secs: 1.0,
            align_secs: 2.0,
            embed_secs: 3.0,
            diversify_secs: 4.0,
        };
        assert_eq!(timings.total_secs(), 10.0);
        let mut field = 0.0;
        StageTimings::record(&mut field, Duration::from_millis(250));
        assert!((field - 0.25).abs() < 1e-9);
    }

    #[test]
    fn novelty_counting() {
        let result = DustResult {
            tuples: vec![tuple("River Park"), tuple("Chippewa Park")],
            retrieved_tables: vec![],
            dropped_tables: vec![],
            alignment: Alignment::default(),
            candidate_tuples: 2,
            diversity: DiversityScores {
                average: 0.0,
                minimum: 0.0,
            },
            timings: StageTimings::default(),
        };
        let query = vec![tuple("River Park")];
        assert_eq!(result.novel_tuple_count(&query), 1);
        assert_eq!(result.len(), 2);
        assert!(!result.is_empty());
        assert!(result.is_complete());
        let mut skewed = result;
        skewed.dropped_tables.push("stale_table".into());
        assert!(!skewed.is_complete());
    }
}
