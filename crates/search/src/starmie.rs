//! Starmie-style table union search (Fan et al., PVLDB 2023).
//!
//! Starmie embeds every column *with the context of its whole table*
//! (contrastively-trained contextualized column embeddings) and scores a
//! table pair by the maximum-weight bipartite matching between the two
//! tables' column embeddings. We reproduce the two behaviours that matter
//! for the paper's experiments (DESIGN.md §2):
//!
//! * contextualization — each column embedding is blended with the table
//!   centroid, so columns of the same table embed close together (this is
//!   what hurts Starmie in the column-alignment experiment of Table 1);
//! * similarity-driven ranking — the most similar (often near-duplicate)
//!   tables/tuples rank first (this is what hurts Starmie in the diversity
//!   experiments of Table 3 and Fig. 8).
//!
//! [`StarmieTupleSearch`] is the tuple-as-table adaptation used as a
//! baseline in Sec. 6.5: every data-lake tuple is indexed as a single-row
//! table and the top-k tuples are returned directly.

use crate::bipartite::max_weight_matching;
use crate::{rank_and_truncate, SearchResult, TableUnionSearch};
use dust_embed::{
    cosine_similarity, ColumnEncoder, ColumnSerialization, EmbeddingStore, PretrainedModel,
    TupleEncoder, Vector,
};
use dust_table::{Column, DataLake, Table, Tuple};
use std::borrow::Cow;

/// Starmie-style union search over tables.
#[derive(Debug, Clone)]
pub struct StarmieSearch {
    /// How strongly each column embedding is blended with its table context
    /// (0 = no contextualization, 1 = pure table centroid).
    pub context_blend: f32,
    encoder: ColumnEncoder,
}

impl Default for StarmieSearch {
    fn default() -> Self {
        StarmieSearch {
            context_blend: 0.5,
            encoder: ColumnEncoder::new(PretrainedModel::Roberta, ColumnSerialization::ColumnLevel),
        }
    }
}

impl StarmieSearch {
    /// Create a Starmie search with the default contextualization strength.
    pub fn new() -> Self {
        Self::default()
    }

    /// Contextualized column embeddings of a table (one vector per column,
    /// in column order). Exposed so the column-alignment experiment can use
    /// Starmie embeddings with both bipartite and holistic matching.
    pub fn contextual_column_embeddings(&self, table: &Table) -> Vec<Vector> {
        let columns: Vec<&Column> = table.columns().iter().collect();
        let raw = self.encoder.embed_columns(&columns);
        let centroid =
            Vector::mean(raw.iter()).unwrap_or_else(|| Vector::zeros(self.encoder.dim()));
        raw.into_iter()
            .map(|col| {
                let mut blended = col.scaled(1.0 - self.context_blend);
                blended.add_assign(&centroid.scaled(self.context_blend));
                blended.normalize();
                blended
            })
            .collect()
    }

    /// Starmie's table-pair score: total weight of the maximum bipartite
    /// matching between column embeddings, normalized by the number of query
    /// columns.
    pub fn score_pair(&self, query: &Table, candidate: &Table) -> f64 {
        self.score_pair_with(
            &self.contextual_column_embeddings(query),
            &self.contextual_column_embeddings(candidate),
            query.num_columns(),
        )
    }

    /// [`Self::score_pair`] over already-computed contextualized column
    /// embeddings — the single scoring code path, so the resident search
    /// ([`Self::search_resident`]) produces results byte-identical to the
    /// embed-per-query path.
    pub fn score_pair_with(
        &self,
        query_embeddings: &[Vector],
        candidate_embeddings: &[Vector],
        num_query_columns: usize,
    ) -> f64 {
        let weights: Vec<Vec<f64>> = query_embeddings
            .iter()
            .map(|q| {
                candidate_embeddings
                    .iter()
                    .map(|c| cosine_similarity(q, c).max(0.0))
                    .collect()
            })
            .collect();
        let matching = max_weight_matching(&weights);
        matching.total_weight / num_query_columns.max(1) as f64
    }

    /// The dimension of every column embedding this search produces.
    pub fn column_dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Search with each lake table's contextualized column embeddings read
    /// by table name through `columns` — a serving session keeps them in
    /// the table's block — instead of re-embedding every lake table per
    /// query. The query's columns are embedded fresh, as is any table
    /// `columns` does not know. Contextualization blends only within a
    /// table, so the embeddings are query-independent and the ranking is
    /// byte-identical to [`TableUnionSearch::search`] on the same lake.
    pub fn search_resident<'a>(
        &self,
        lake: &DataLake,
        query: &Table,
        k: usize,
        columns: impl Fn(&str) -> Option<&'a [Vector]>,
    ) -> Vec<SearchResult> {
        let qe = self.contextual_column_embeddings(query);
        let results = lake
            .tables()
            .map(|table| {
                let fresh = || Cow::Owned(self.contextual_column_embeddings(table));
                let ce = columns(table.name()).map_or_else(fresh, Cow::Borrowed);
                SearchResult {
                    table: table.name().to_string(),
                    score: self.score_pair_with(&qe, &ce, query.num_columns()),
                }
            })
            .collect();
        rank_and_truncate(results, k)
    }
}

impl TableUnionSearch for StarmieSearch {
    fn name(&self) -> &'static str {
        "starmie"
    }

    fn search(&self, lake: &DataLake, query: &Table, k: usize) -> Vec<SearchResult> {
        let results = lake
            .tables()
            .map(|table| SearchResult {
                table: table.name().to_string(),
                score: self.score_pair(query, table),
            })
            .collect();
        rank_and_truncate(results, k)
    }
}

/// A ranked tuple returned by [`StarmieTupleSearch`].
#[derive(Debug, Clone)]
pub struct TupleResult {
    /// The retrieved data-lake tuple.
    pub tuple: Tuple,
    /// Its similarity score to the query table.
    pub score: f64,
}

/// The tuple-as-table Starmie baseline (Sec. 6.5): each data-lake tuple is
/// treated as a single-row table and the most similar tuples are returned.
#[derive(Debug, Clone)]
pub struct StarmieTupleSearch {
    encoder: TupleEncoder,
}

impl Default for StarmieTupleSearch {
    fn default() -> Self {
        StarmieTupleSearch {
            encoder: TupleEncoder::new(PretrainedModel::Roberta),
        }
    }
}

impl StarmieTupleSearch {
    /// Create the tuple search baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rank candidate tuples by their maximum similarity to any query tuple
    /// and return the top-k (most similar first). The query embeddings are
    /// packed into a shared [`EmbeddingStore`] once, so re-ranking performs
    /// no per-candidate query-norm work.
    pub fn search_tuples(&self, query: &Table, candidates: &[Tuple], k: usize) -> Vec<TupleResult> {
        let query_embeddings: Vec<Vector> = query
            .tuples()
            .iter()
            .map(|t| self.encoder.embed_tuple(t))
            .collect();
        let query_store = EmbeddingStore::from_vectors(&query_embeddings);
        let mut results: Vec<TupleResult> = candidates
            .iter()
            .map(|t| {
                let e = self.encoder.embed_tuple(t);
                let score = query_store.max_cosine_similarity(&e);
                TupleResult {
                    tuple: t.clone(),
                    score: if score.is_finite() { score } else { 0.0 },
                }
            })
            .collect();
        // NaN-safe total order (shared comparator): a poisoned similarity
        // must rank last, never Equal-to-everything.
        results.sort_by(|a, b| {
            dust_embed::desc_nan_last(a.score, b.score)
                .then_with(|| a.tuple.source_table().cmp(b.tuple.source_table()))
                .then_with(|| a.tuple.source_row().cmp(&b.tuple.source_row()))
        });
        results.truncate(k);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableUnionSearch;

    fn query() -> Table {
        Table::builder("query")
            .column("Park Name", ["River Park", "West Lawn Park"])
            .column("Supervisor", ["Vera Onate", "Paul Veliotis"])
            .column("Country", ["USA", "USA"])
            .build()
            .unwrap()
    }

    fn lake() -> DataLake {
        let mut lake = DataLake::new("toy");
        lake.add_table(
            Table::builder("parks_b")
                .column("Park Name", ["River Park", "West Lawn Park", "Hyde Park"])
                .column("Supervisor", ["Vera Onate", "Paul Veliotis", "Jenny Rishi"])
                .column("Country", ["USA", "USA", "UK"])
                .build()
                .unwrap(),
        )
        .unwrap();
        lake.add_table(
            Table::builder("paintings_c")
                .column("Painting", ["Northern Lake", "Memory Landscape 2"])
                .column("Medium", ["Oil on canvas", "Mixed media"])
                .column("Country", ["Canada", "USA"])
                .build()
                .unwrap(),
        )
        .unwrap();
        lake
    }

    #[test]
    fn near_copy_outranks_unrelated_table() {
        let search = StarmieSearch::new();
        let results = search.search(&lake(), &query(), 2);
        assert_eq!(results[0].table, "parks_b");
        assert!(results[0].score > results[1].score);
        assert_eq!(search.name(), "starmie");
    }

    #[test]
    fn contextualization_pulls_same_table_columns_together() {
        let table = lake().table("parks_b").unwrap().clone();
        let plain = StarmieSearch {
            context_blend: 0.0,
            ..StarmieSearch::default()
        };
        let contextual = StarmieSearch {
            context_blend: 0.8,
            ..StarmieSearch::default()
        };
        let avg_pairwise = |embs: &[Vector]| -> f64 {
            let mut sum = 0.0;
            let mut count = 0;
            for i in 0..embs.len() {
                for j in (i + 1)..embs.len() {
                    sum += cosine_similarity(&embs[i], &embs[j]);
                    count += 1;
                }
            }
            sum / count as f64
        };
        let plain_sim = avg_pairwise(&plain.contextual_column_embeddings(&table));
        let ctx_sim = avg_pairwise(&contextual.contextual_column_embeddings(&table));
        assert!(
            ctx_sim > plain_sim,
            "contextualized columns of the same table must be more similar ({ctx_sim} vs {plain_sim})"
        );
    }

    #[test]
    fn score_pair_is_bounded_and_reflexive_ish() {
        let search = StarmieSearch::new();
        let q = query();
        let self_score = search.score_pair(&q, &q);
        assert!(
            self_score > 0.9,
            "a table should be maximally unionable with itself"
        );
        assert!(self_score <= 1.0 + 1e-9);
    }

    #[test]
    fn tuple_search_prefers_duplicates_of_query_tuples() {
        let q = query();
        let mut candidates = lake().table("parks_b").unwrap().tuples();
        candidates.extend(lake().table("paintings_c").unwrap().tuples());
        let search = StarmieTupleSearch::new();
        let top = search.search_tuples(&q, &candidates, 3);
        assert_eq!(top.len(), 3);
        // The first results are the tuples already present in the query table
        // (River Park / West Lawn Park), illustrating the redundancy problem.
        let first = &top[0].tuple;
        let name = first.value_for("Park Name").unwrap().render().to_string();
        assert!(
            name == "River Park" || name == "West Lawn Park",
            "got {name}"
        );
        assert!(top[0].score >= top[1].score);
    }

    #[test]
    fn resident_store_reproduces_the_fresh_ranking_exactly() {
        let search = StarmieSearch::new();
        let lake = lake();
        let resident: std::collections::BTreeMap<String, Vec<Vector>> = lake
            .tables()
            .map(|t| (t.name().to_string(), search.contextual_column_embeddings(t)))
            .collect();
        let columns = |name: &str| resident.get(name).map(Vec::as_slice);
        assert!(resident
            .values()
            .flatten()
            .all(|v| v.dim() == search.column_dim()));
        let fresh = search.search(&lake, &query(), 10);
        let served = search.search_resident(&lake, &query(), 10, columns);
        crate::assert_same_ranking(&fresh, &served);
        // a table the resident side does not know is embedded fresh
        let fallback = search.search_resident(&lake, &query(), 10, |_| None);
        crate::assert_same_ranking(&fresh, &fallback);
    }

    #[test]
    fn tuple_search_handles_empty_candidates_and_k_zero() {
        let q = query();
        let search = StarmieTupleSearch::new();
        assert!(search.search_tuples(&q, &[], 5).is_empty());
        let candidates = lake().table("parks_b").unwrap().tuples();
        assert!(search.search_tuples(&q, &candidates, 0).is_empty());
    }
}
