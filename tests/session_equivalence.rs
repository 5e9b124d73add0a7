//! Session/pipeline equivalence suite: a resident [`LakeSession`] must be a
//! pure performance optimisation, never a behaviour change.
//!
//! Pins, for every search technique and for both embedder kinds:
//!
//! * `LakeSession::query` ≡ a fresh `DustPipeline::run` on the same lake —
//!   identical `DustResult` including tuple order, retrieved tables,
//!   alignment, and bit-identical diversity scores;
//! * `LakeSession::query_batch` ≡ sequential `LakeSession::query`, result
//!   `i` for query `i`.

mod common;

use common::assert_same_result;
use dust_core::{DustPipeline, LakeSession, PipelineConfig, SearchTechnique};
use dust_datagen::BenchmarkConfig;
use dust_embed::{FineTuneConfig, PretrainedModel};
use dust_table::{DataLake, Table};

fn tiny_lake() -> DataLake {
    BenchmarkConfig::tiny().generate().lake
}

fn queries(lake: &DataLake, n: usize) -> Vec<Table> {
    lake.query_names()
        .iter()
        .take(n)
        .map(|name| lake.query(name).unwrap().clone())
        .collect()
}

#[test]
fn session_query_matches_fresh_pipeline_across_search_techniques() {
    let lake = tiny_lake();
    let qs = queries(&lake, 2);
    for technique in [
        SearchTechnique::Overlap,
        SearchTechnique::D3l,
        SearchTechnique::Starmie,
    ] {
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        let pipeline = DustPipeline::new(config.clone());
        let session = LakeSession::new(lake.clone(), config);
        for (qi, query) in qs.iter().enumerate() {
            let fresh = pipeline.run(&lake, query, 5).unwrap();
            let resident = session.query(query, 5).unwrap();
            assert_same_result(&fresh, &resident, &format!("{technique:?} query {qi}"));
        }
    }
}

#[test]
fn session_query_matches_fresh_pipeline_with_finetuning() {
    // The fresh pipeline trains the DUST model per run; the session trains
    // it once at construction. Training is deterministic (seeded RNG,
    // lake-derived dataset), so the results must still be identical.
    let lake = tiny_lake();
    let qs = queries(&lake, 1);
    let config = PipelineConfig {
        embedder: dust_core::TupleEmbedderKind::FineTuned {
            backbone: PretrainedModel::Bert,
            config: FineTuneConfig {
                hidden_dim: 16,
                output_dim: 8,
                max_epochs: 2,
                patience: 1,
                ..FineTuneConfig::default()
            },
            training_pairs: 40,
        },
        tables_per_query: 5,
        ..PipelineConfig::default()
    };
    let pipeline = DustPipeline::new(config.clone());
    let session = LakeSession::new(lake.clone(), config);
    let fresh = pipeline.run(&lake, &qs[0], 5).unwrap();
    let resident = session.query(&qs[0], 5).unwrap();
    assert_same_result(&fresh, &resident, "fine-tuned embedder");
}

#[test]
fn session_with_injected_model_matches_pipeline_with_model() {
    let lake = tiny_lake();
    let qs = queries(&lake, 1);
    let make_model = || {
        dust_embed::DustModel::new(
            PretrainedModel::Bert,
            FineTuneConfig {
                hidden_dim: 16,
                output_dim: 8,
                max_epochs: 1,
                ..FineTuneConfig::default()
            },
        )
    };
    let config = PipelineConfig::fast();
    let pipeline = DustPipeline::with_model(config.clone(), make_model());
    let session = LakeSession::with_model(lake.clone(), config, make_model());
    let fresh = pipeline.run(&lake, &qs[0], 4).unwrap();
    let resident = session.query(&qs[0], 4).unwrap();
    assert_same_result(&fresh, &resident, "injected model");
}

#[test]
fn query_batch_matches_sequential_queries() {
    let lake = tiny_lake();
    // duplicate queries so the batch is wider than the distinct query set
    // (checks result/slot alignment, not just per-query correctness)
    let mut qs = queries(&lake, 3);
    let extra = qs.clone();
    qs.extend(extra);
    let session = LakeSession::new(lake, PipelineConfig::fast());
    let batch = session.query_batch(&qs, 4);
    assert_eq!(batch.len(), qs.len());
    for (i, (query, batched)) in qs.iter().zip(&batch).enumerate() {
        let sequential = session.query(query, 4).unwrap();
        assert_same_result(
            batched.as_ref().unwrap(),
            &sequential,
            &format!("batch slot {i}"),
        );
    }
}
