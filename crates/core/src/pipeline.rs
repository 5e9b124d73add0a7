//! The DUST pipeline (Algorithm 1).
//!
//! The stage sequence itself lives in [`run_query`], which is shared —
//! verbatim — between the one-shot [`DustPipeline`] and the resident
//! [`crate::session::LakeSession`]: the two differ only in *where* the
//! search structures and the tuple embedder come from (built per query vs
//! kept warm across queries), so a session-served query is byte-identical
//! to a fresh pipeline run by construction.

use crate::config::{PipelineConfig, SearchTechnique, TupleEmbedderKind};
use crate::result::{DustResult, StageTimings};
use dust_align::{outer_union, HolisticAligner};
use dust_cluster::Linkage;
use dust_diversify::{
    DiversificationInput, Diversifier, DiversityScores, DustConfig, DustDiversifier,
};
use dust_embed::{ColumnEncoder, DustModel, TupleEncoder, Vector};
use dust_search::{D3lSearch, OverlapSearch, StarmieSearch, TableUnionSearch};
use dust_table::{DataLake, Table, TableError, Tuple};

/// The end-to-end Diverse Unionable Tuple Search pipeline.
#[derive(Debug)]
pub struct DustPipeline {
    config: PipelineConfig,
    /// A pre-trained DUST model injected by the caller (when present, the
    /// pipeline skips its own fine-tuning even if the config asks for one).
    model: Option<DustModel>,
}

impl DustPipeline {
    /// Create a pipeline from a configuration.
    pub fn new(config: PipelineConfig) -> Self {
        DustPipeline {
            config,
            model: None,
        }
    }

    /// Create a pipeline that embeds tuples with an already-trained DUST
    /// model (e.g. one trained once on a benchmark's fine-tuning split and
    /// reused across every query).
    pub fn with_model(config: PipelineConfig, model: DustModel) -> Self {
        DustPipeline {
            config,
            model: Some(model),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run Algorithm 1: search, align, embed, diversify.
    pub fn run(&self, lake: &DataLake, query: &Table, k: usize) -> Result<DustResult, TableError> {
        let aligner_encoder = ColumnEncoder::new(
            self.config.alignment_model,
            self.config.alignment_serialization,
        );
        Ok(run_query(
            lake,
            query,
            k,
            &self.config,
            &aligner_encoder,
            &|lake, query| self.search_tables(lake, query),
            &|query_tuples, candidates| self.embed_tuples(lake, query_tuples, candidates),
        ))
    }

    /// The `SearchTables` step.
    fn search_tables(&self, lake: &DataLake, query: &Table) -> Vec<String> {
        let k = self.config.tables_per_query;
        let results = match self.config.search {
            SearchTechnique::Overlap => OverlapSearch::new().search(lake, query, k),
            SearchTechnique::D3l => D3lSearch::new().search(lake, query, k),
            SearchTechnique::Starmie => StarmieSearch::new().search(lake, query, k),
        };
        results.into_iter().map(|r| r.table).collect()
    }

    /// The `EmbedTuples` step: embeds the query tuples and the candidate
    /// unionable tuples with the configured embedder.
    fn embed_tuples(
        &self,
        lake: &DataLake,
        query_tuples: &[Tuple],
        candidates: &[Tuple],
    ) -> (Vec<Vector>, Vec<Vector>) {
        if let Some(model) = &self.model {
            return (
                model.embed_tuples(query_tuples),
                model.embed_tuples(candidates),
            );
        }
        match &self.config.embedder {
            TupleEmbedderKind::Pretrained(backbone) => {
                let encoder = TupleEncoder::new(*backbone);
                (
                    encoder.embed_tuples(query_tuples),
                    encoder.embed_tuples(candidates),
                )
            }
            TupleEmbedderKind::FineTuned {
                backbone,
                config,
                training_pairs,
            } => {
                let model = train_dust_model(lake, *backbone, config, *training_pairs);
                (
                    model.embed_tuples(query_tuples),
                    model.embed_tuples(candidates),
                )
            }
        }
    }
}

/// The DUST fine-tuning recipe: sample labelled pairs from the lake's
/// ground truth and train the projection head. The single implementation
/// behind both the per-query pipeline path and the train-once
/// [`LakeSession`] path — a recipe change here cannot desynchronize them.
/// Deterministic (seeded RNG, lake-derived dataset), which is what makes
/// the session's train-once ≡ the pipeline's train-per-query.
///
/// [`LakeSession`]: crate::session::LakeSession
pub(crate) fn train_dust_model(
    lake: &DataLake,
    backbone: dust_embed::PretrainedModel,
    config: &dust_embed::FineTuneConfig,
    training_pairs: usize,
) -> DustModel {
    let mut model = DustModel::new(backbone, config.clone());
    let dataset = dust_datagen::build_finetune_dataset(
        lake,
        &dust_datagen::FineTuneDatasetConfig {
            total_pairs: training_pairs,
            ..dust_datagen::FineTuneDatasetConfig::default()
        },
    );
    if !dataset.train.is_empty() {
        let train = dust_datagen::FineTuneDataset::triples(&dataset.train);
        let val = dust_datagen::FineTuneDataset::triples(&dataset.validation);
        model.train(&train, &val);
    }
    model
}

/// The `EmbedTuples` closure shape: (query tuples, candidate tuples) →
/// (query embeddings, candidate embeddings).
pub(crate) type EmbedFn<'a> = dyn Fn(&[Tuple], &[Tuple]) -> (Vec<Vector>, Vec<Vector>) + 'a;

/// The shared body of Algorithm 1: search → align → embed → diversify.
///
/// `search` returns the retrieved lake-table names for a query; `embed`
/// turns (query tuples, candidate tuples) into their embedding sets. Both
/// [`DustPipeline::run`] and [`LakeSession::query`] call this with closures
/// over their own state, so every stage in between — alignment, outer
/// union, diversification, scoring — is literally the same code on both
/// paths, and equal search/embed outputs imply byte-identical results.
///
/// [`LakeSession::query`]: crate::session::LakeSession::query
pub(crate) fn run_query(
    lake: &DataLake,
    query: &Table,
    k: usize,
    config: &PipelineConfig,
    aligner_encoder: &ColumnEncoder,
    search: &dyn Fn(&DataLake, &Table) -> Vec<String>,
    embed: &EmbedFn,
) -> DustResult {
    let mut timings = StageTimings::default();

    // ---- SearchTables ---------------------------------------------
    let start = crate::clock::now();
    let retrieved = search(lake, query);
    StageTimings::record(&mut timings.search_secs, start.elapsed());

    // A retrieved name can fail to resolve when the index and the lake have
    // drifted apart (stale entry, table dropped after indexing). Dropping
    // it is the right serving behaviour — but it must leave a trace, not
    // silently shrink the candidate pool.
    let mut dropped_tables: Vec<String> = Vec::new();
    let tables: Vec<&Table> = retrieved
        .iter()
        .filter_map(|name| match lake.table(name) {
            Ok(table) => Some(table),
            Err(_) => {
                dropped_tables.push(name.clone());
                None
            }
        })
        .collect();

    // ---- AlignColumns + outer union --------------------------------
    let start = crate::clock::now();
    let aligner = HolisticAligner {
        encoder: aligner_encoder.clone(),
        linkage: config.alignment_linkage,
        distance: config.distance,
    };
    let alignment = aligner.align(query, &tables);
    let candidates: Vec<Tuple> = outer_union(query, &tables, &alignment);
    StageTimings::record(&mut timings.align_secs, start.elapsed());

    // ---- EmbedTuples -----------------------------------------------
    let start = crate::clock::now();
    let query_tuples = query.tuples();
    let (query_embeddings, candidate_embeddings) = embed(&query_tuples, &candidates);
    StageTimings::record(&mut timings.embed_secs, start.elapsed());

    // ---- DiversifyTuples -------------------------------------------
    let start = crate::clock::now();
    let sources: Vec<usize> = {
        let mut table_ids: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        candidates
            .iter()
            .map(|t| {
                let next = table_ids.len();
                *table_ids
                    .entry(t.source_table().to_string())
                    .or_insert(next)
            })
            .collect()
    };
    // The constructor packs both embedding sets into shared stores, so
    // every diversification stage reads cached norms and (lazily) the
    // shared pairwise matrix instead of recomputing distances.
    let input = DiversificationInput::with_sources(
        &query_embeddings,
        &candidate_embeddings,
        &sources,
        config.distance,
    );
    let diversifier = DustDiversifier::with_config(DustConfig {
        linkage: Linkage::Average,
        ..config.diversifier.to_dust_config()
    });
    let selection = diversifier.select(&input, k);
    StageTimings::record(&mut timings.diversify_secs, start.elapsed());

    let selected_tuples: Vec<Tuple> = selection.iter().map(|&i| candidates[i].clone()).collect();
    let selected_embeddings: Vec<Vector> = selection
        .iter()
        .map(|&i| candidate_embeddings[i].clone())
        .collect();
    let diversity =
        DiversityScores::compute(&query_embeddings, &selected_embeddings, config.distance);

    DustResult {
        tuples: selected_tuples,
        retrieved_tables: retrieved,
        dropped_tables,
        alignment,
        candidate_tuples: candidates.len(),
        diversity,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_datagen::BenchmarkConfig;

    fn tiny_lake() -> DataLake {
        BenchmarkConfig::tiny().generate().lake
    }

    #[test]
    fn fast_pipeline_returns_k_unionable_tuples() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let pipeline = DustPipeline::new(PipelineConfig::fast());
        let result = pipeline.run(&lake, &query, 5).unwrap();
        assert_eq!(result.len(), 5);
        assert!(result.candidate_tuples >= 5);
        assert!(!result.retrieved_tables.is_empty());
        assert!(
            result.is_complete(),
            "no retrieved table should fail its lake lookup on a fresh lake"
        );
        // selected tuples carry the query header
        for t in &result.tuples {
            assert_eq!(t.headers(), query.headers());
        }
        assert!(result.timings.total_secs() > 0.0);
    }

    #[test]
    fn retrieved_tables_are_from_the_query_domain() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let pipeline = DustPipeline::new(PipelineConfig::fast());
        let result = pipeline.run(&lake, &query, 3).unwrap();
        let gt = lake.ground_truth();
        let relevant = result
            .retrieved_tables
            .iter()
            .filter(|t| gt.is_unionable(&query_name, t))
            .count();
        assert!(
            relevant * 2 >= result.retrieved_tables.len(),
            "at least half of the retrieved tables should be truly unionable: {:?}",
            result.retrieved_tables
        );
    }

    #[test]
    fn selected_tuples_add_novel_information() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let pipeline = DustPipeline::new(PipelineConfig::fast());
        let result = pipeline.run(&lake, &query, 5).unwrap();
        let novel = result.novel_tuple_count(&query.tuples());
        assert!(novel >= 3, "expected mostly novel tuples, got {novel}/5");
        assert!(result.diversity.average > 0.0);
    }

    #[test]
    fn k_larger_than_candidates_returns_all_candidates() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let pipeline = DustPipeline::new(PipelineConfig::fast());
        let result = pipeline.run(&lake, &query, 100_000).unwrap();
        assert_eq!(result.len(), result.candidate_tuples);
    }

    #[test]
    fn stale_retrieved_names_are_recorded_not_silently_dropped() {
        // A search index that has drifted from the lake returns a name the
        // lake no longer resolves. The query must still succeed on the
        // resolvable tables AND surface the drop in the diagnostics.
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let config = PipelineConfig::fast();
        let encoder = ColumnEncoder::new(config.alignment_model, config.alignment_serialization);
        let real = lake.table_names();
        let result = run_query(
            &lake,
            &query,
            3,
            &config,
            &encoder,
            &|_, _| {
                vec![
                    real[0].clone(),
                    "ghost_table".to_string(),
                    real[1].clone(),
                    "second_ghost".to_string(),
                ]
            },
            &|query_tuples, candidates| {
                let enc = TupleEncoder::new(dust_embed::PretrainedModel::Roberta);
                (enc.embed_tuples(query_tuples), enc.embed_tuples(candidates))
            },
        );
        assert_eq!(
            result.dropped_tables,
            vec!["ghost_table".to_string(), "second_ghost".to_string()]
        );
        assert!(!result.is_complete());
        // the stale names remain visible in the retrieved list too
        assert!(result.retrieved_tables.contains(&"ghost_table".to_string()));
        assert_eq!(result.len(), 3, "resolvable tables still serve the query");
    }

    #[test]
    fn injected_model_is_used_without_retraining() {
        let lake = tiny_lake();
        let query_name = lake.query_names()[0].clone();
        let query = lake.query(&query_name).unwrap().clone();
        let model = DustModel::new(
            dust_embed::PretrainedModel::Bert,
            dust_embed::FineTuneConfig {
                hidden_dim: 16,
                output_dim: 8,
                max_epochs: 1,
                ..dust_embed::FineTuneConfig::default()
            },
        );
        let pipeline = DustPipeline::with_model(PipelineConfig::fast(), model);
        let result = pipeline.run(&lake, &query, 4).unwrap();
        assert_eq!(result.len(), 4);
        assert_eq!(pipeline.config().tables_per_query, 5);
    }
}
