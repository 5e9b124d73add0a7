//! End-to-end baselines for the Table 3 and Fig. 8 comparisons.
//!
//! Each baseline answers the same question as DUST — "give me k tuples to
//! add to the query table" — but with the strategy of an existing system:
//!
//! * [`StarmieBaseline`] — tuple-as-table Starmie: return the k data-lake
//!   tuples most *similar* to the query (Sec. 6.5.1);
//! * [`TupleRetrievalBaseline`] — a table-search system (Starmie or D3L)
//!   used as intended: union its top tables under the query schema and take
//!   the first k tuples (optionally deduplicated — the `-D` variants of the
//!   case study);
//! * [`LlmBaseline`] — the simulated generative model.

use dust_align::{outer_union, HolisticAligner};
use dust_diversify::{LlmConfig, SimulatedLlm};
use dust_search::{D3lSearch, StarmieSearch, StarmieTupleSearch, TableUnionSearch};
use dust_table::{DataLake, Table, Tuple};

/// Which table-search system backs a [`TupleRetrievalBaseline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalSystem {
    /// Starmie table search.
    Starmie,
    /// D3L table search.
    D3l,
}

impl RetrievalSystem {
    /// Name used in experiment output (`-D` suffix is added by the caller
    /// for the deduplicated variants).
    pub fn name(&self) -> &'static str {
        match self {
            RetrievalSystem::Starmie => "starmie",
            RetrievalSystem::D3l => "d3l",
        }
    }
}

/// Tuple-as-table Starmie baseline: every data-lake tuple of the retrieved
/// unionable tables is scored by its similarity to the query tuples and the
/// top-k most similar tuples are returned.
#[derive(Debug, Default)]
pub struct StarmieBaseline {
    search: StarmieTupleSearch,
}

impl StarmieBaseline {
    /// Create the baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the k data-lake tuples most similar to the query table.
    /// `candidates` are the unionable tuples produced by the outer union
    /// (so all baselines operate on the same candidate pool).
    pub fn top_k(&self, query: &Table, candidates: &[Tuple], k: usize) -> Vec<Tuple> {
        self.search
            .search_tuples(query, candidates, k)
            .into_iter()
            .map(|r| r.tuple)
            .collect()
    }
}

/// A table-search system used directly: union the tuples of its top-ranked
/// tables (in rank order) until k tuples are collected.
#[derive(Debug)]
pub struct TupleRetrievalBaseline {
    /// Backing search system.
    pub system: RetrievalSystem,
    /// Drop exact-duplicate tuples before taking the first k (the `-D`
    /// case-study variants).
    pub deduplicate: bool,
    /// Number of tables retrieved before unioning.
    pub tables_per_query: usize,
}

impl TupleRetrievalBaseline {
    /// Create a baseline over the given system.
    pub fn new(system: RetrievalSystem, deduplicate: bool) -> Self {
        TupleRetrievalBaseline {
            system,
            deduplicate,
            tables_per_query: 10,
        }
    }

    /// Human-readable name (`starmie`, `starmie-d`, `d3l`, `d3l-d`).
    pub fn name(&self) -> String {
        if self.deduplicate {
            format!("{}-d", self.system.name())
        } else {
            self.system.name().to_string()
        }
    }

    /// Run the baseline: search top tables, align + outer-union them in rank
    /// order, then take the first k tuples (after optional deduplication,
    /// which also removes tuples identical to a query tuple).
    pub fn top_k(&self, lake: &DataLake, query: &Table, k: usize) -> Vec<Tuple> {
        let ranked = match self.system {
            RetrievalSystem::Starmie => {
                StarmieSearch::new().search(lake, query, self.tables_per_query)
            }
            RetrievalSystem::D3l => D3lSearch::new().search(lake, query, self.tables_per_query),
        };
        let tables: Vec<&Table> = ranked
            .iter()
            .filter_map(|r| lake.table(&r.table).ok())
            .collect();
        if tables.is_empty() {
            return Vec::new();
        }
        let aligner = HolisticAligner::new();
        let mut collected: Vec<Tuple> = Vec::new();
        let mut seen: std::collections::HashSet<String> = if self.deduplicate {
            query.tuples().iter().map(|t| t.dedup_key()).collect()
        } else {
            std::collections::HashSet::new()
        };
        // union tables one by one, in rank order, until k tuples are collected
        for table in tables {
            let alignment = aligner.align(query, &[table]);
            let tuples = outer_union(query, &[table], &alignment);
            for tuple in tuples {
                if self.deduplicate && !seen.insert(tuple.dedup_key()) {
                    continue;
                }
                collected.push(tuple);
                if collected.len() >= k {
                    return collected;
                }
            }
        }
        collected
    }
}

/// The simulated LLM baseline: generate k unionable tuples from the query
/// table alone.
#[derive(Debug, Default)]
pub struct LlmBaseline {
    generator: SimulatedLlm,
}

impl LlmBaseline {
    /// Create the baseline with the default novelty budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create the baseline with a custom configuration.
    pub fn with_config(config: LlmConfig) -> Self {
        LlmBaseline {
            generator: SimulatedLlm::with_config(config),
        }
    }

    /// Generate k tuples unionable with the query.
    pub fn top_k(&self, query: &Table, k: usize) -> Vec<Tuple> {
        self.generator.generate(query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_datagen::BenchmarkConfig;

    fn setup() -> (DataLake, Table) {
        let lake = BenchmarkConfig::tiny().generate().lake;
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        (lake, query)
    }

    #[test]
    fn starmie_tuple_baseline_returns_similar_tuples() {
        let (lake, query) = setup();
        // candidate pool: tuples of all ground-truth unionable tables,
        // re-expressed under the query header
        let gt = lake.ground_truth().unionable_with(query.name());
        let tables: Vec<&Table> = gt.iter().map(|t| lake.table(t).unwrap()).collect();
        let alignment = HolisticAligner::new().align(&query, &tables);
        let candidates = outer_union(&query, &tables, &alignment);
        let baseline = StarmieBaseline::new();
        let top = baseline.top_k(&query, &candidates, 5);
        assert_eq!(top.len(), 5);
        // the baseline should retrieve at least one tuple that duplicates a
        // query tuple's subject (the redundancy the paper criticizes)
        let query_subjects = query.column(0).unwrap().value_set();
        let dup = top.iter().any(|t| {
            t.values()
                .iter()
                .any(|v| v.normalized().is_some_and(|v| query_subjects.contains(&v)))
        });
        assert!(dup, "similarity search should surface redundant tuples");
    }

    #[test]
    fn retrieval_baseline_names() {
        assert_eq!(
            TupleRetrievalBaseline::new(RetrievalSystem::Starmie, false).name(),
            "starmie"
        );
        assert_eq!(
            TupleRetrievalBaseline::new(RetrievalSystem::Starmie, true).name(),
            "starmie-d"
        );
        assert_eq!(
            TupleRetrievalBaseline::new(RetrievalSystem::D3l, true).name(),
            "d3l-d"
        );
    }

    #[test]
    fn deduplicated_variant_returns_no_query_duplicates() {
        let (lake, query) = setup();
        let baseline = TupleRetrievalBaseline::new(RetrievalSystem::D3l, true);
        let top = baseline.top_k(&lake, &query, 10);
        assert!(!top.is_empty());
        let query_keys: std::collections::HashSet<String> =
            query.tuples().iter().map(|t| t.dedup_key()).collect();
        for t in &top {
            assert!(!query_keys.contains(&t.dedup_key()));
        }
        // and no duplicates among the returned tuples either
        let keys: std::collections::HashSet<String> = top.iter().map(|t| t.dedup_key()).collect();
        assert_eq!(keys.len(), top.len());
    }

    #[test]
    fn plain_variant_can_return_duplicates_and_respects_k() {
        let (lake, query) = setup();
        let baseline = TupleRetrievalBaseline::new(RetrievalSystem::Starmie, false);
        let top = baseline.top_k(&lake, &query, 7);
        assert!(top.len() <= 7);
        assert!(!top.is_empty());
    }

    #[test]
    fn llm_baseline_generates_unionable_tuples() {
        let (_, query) = setup();
        let baseline = LlmBaseline::new();
        let top = baseline.top_k(&query, 6);
        assert_eq!(top.len(), 6);
        for t in &top {
            assert_eq!(t.headers(), query.headers());
        }
    }
}
