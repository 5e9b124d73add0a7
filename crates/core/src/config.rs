//! Pipeline configuration.

use dust_cluster::{AgglomerativeAlgorithm, Linkage};
use dust_diversify::DustConfig;
use dust_embed::{ColumnSerialization, Distance, FineTuneConfig, PretrainedModel};
use serde::{Deserialize, Serialize};

/// Which table-union-search technique fills the `SearchTables` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SearchTechnique {
    /// Value-overlap search (TUS-style) — the default, fast and accurate on
    /// the synthetic benchmarks.
    #[default]
    Overlap,
    /// D3L multi-signal search.
    D3l,
    /// Starmie contextualized-embedding search.
    Starmie,
}

impl SearchTechnique {
    /// Name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            SearchTechnique::Overlap => "overlap",
            SearchTechnique::D3l => "d3l",
            SearchTechnique::Starmie => "starmie",
        }
    }
}

/// Which tuple embedder fills the `EmbedTuples` step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TupleEmbedderKind {
    /// A pre-trained (non-fine-tuned) model — used as an ablation.
    Pretrained(PretrainedModel),
    /// The DUST fine-tuned model over the given backbone; the pipeline
    /// trains the projection head on pairs sampled from the lake's ground
    /// truth before embedding.
    FineTuned {
        /// Backbone model.
        backbone: PretrainedModel,
        /// Fine-tuning hyper-parameters.
        config: FineTuneConfig,
        /// Number of tuple pairs sampled for fine-tuning.
        training_pairs: usize,
    },
}

impl Default for TupleEmbedderKind {
    fn default() -> Self {
        TupleEmbedderKind::FineTuned {
            backbone: PretrainedModel::Roberta,
            config: FineTuneConfig {
                max_epochs: 30,
                patience: 5,
                ..FineTuneConfig::default()
            },
            training_pairs: 300,
        }
    }
}

/// Configuration of the full DUST pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Union-search technique.
    pub search: SearchTechnique,
    /// Number of unionable tables retrieved per query.
    pub tables_per_query: usize,
    /// Column-encoder backbone for the holistic alignment step.
    pub alignment_model: PretrainedModel,
    /// Column serialization for the alignment step.
    pub alignment_serialization: ColumnSerialization,
    /// Linkage used by the alignment clustering.
    pub alignment_linkage: Linkage,
    /// Tuple embedder.
    pub embedder: TupleEmbedderKind,
    /// Distance function used for diversification and evaluation.
    pub distance: Distance,
    /// DUST diversifier configuration (p, pruning budget, linkage).
    pub diversifier: DustConfigSerde,
}

/// Serializable mirror of [`DustConfig`] (the diversifier's own config type
/// is kept serde-free to avoid leaking serde into the algorithm crates'
/// public API guarantees).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DustConfigSerde {
    /// Candidate multiplier `p`.
    pub p: usize,
    /// Pruning budget `s` (`None` disables pruning).
    pub prune_to: Option<usize>,
    /// Agglomerative clustering engine for the diversifier's clustering
    /// step (`Auto` picks the expected-fastest valid engine for the
    /// linkage and candidate count). Defaults on deserialization so
    /// configs persisted before this field existed keep loading.
    #[serde(default)]
    pub algorithm: AgglomerativeAlgorithm,
}

impl Default for DustConfigSerde {
    fn default() -> Self {
        DustConfigSerde {
            p: 2,
            prune_to: Some(2500),
            algorithm: AgglomerativeAlgorithm::Auto,
        }
    }
}

impl DustConfigSerde {
    /// Convert into the diversifier's configuration.
    pub fn to_dust_config(&self) -> DustConfig {
        DustConfig {
            p: self.p,
            prune_to: self.prune_to,
            linkage: Linkage::Average,
            algorithm: self.algorithm,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            search: SearchTechnique::Overlap,
            tables_per_query: 10,
            alignment_model: PretrainedModel::Roberta,
            alignment_serialization: ColumnSerialization::ColumnLevel,
            alignment_linkage: Linkage::Average,
            embedder: TupleEmbedderKind::default(),
            distance: Distance::Cosine,
            diversifier: DustConfigSerde::default(),
        }
    }
}

impl PipelineConfig {
    /// A configuration that skips fine-tuning (fast, for tests and smoke
    /// runs): pre-trained RoBERTa embeddings and a small table budget.
    pub fn fast() -> Self {
        PipelineConfig {
            embedder: TupleEmbedderKind::Pretrained(PretrainedModel::Roberta),
            tables_per_query: 5,
            ..PipelineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let config = PipelineConfig::default();
        assert_eq!(config.search, SearchTechnique::Overlap);
        assert_eq!(config.distance, Distance::Cosine);
        assert!(matches!(
            config.embedder,
            TupleEmbedderKind::FineTuned { .. }
        ));
        assert_eq!(config.diversifier.p, 2);
    }

    #[test]
    fn fast_config_avoids_fine_tuning() {
        let config = PipelineConfig::fast();
        assert!(matches!(config.embedder, TupleEmbedderKind::Pretrained(_)));
        assert!(config.tables_per_query < PipelineConfig::default().tables_per_query);
    }

    #[test]
    fn search_technique_names() {
        assert_eq!(SearchTechnique::Overlap.name(), "overlap");
        assert_eq!(SearchTechnique::D3l.name(), "d3l");
        assert_eq!(SearchTechnique::Starmie.name(), "starmie");
    }

    #[test]
    fn dust_config_conversion() {
        let serde_config = DustConfigSerde {
            p: 3,
            prune_to: None,
            algorithm: AgglomerativeAlgorithm::Generic,
        };
        let config = serde_config.to_dust_config();
        assert_eq!(config.p, 3);
        assert_eq!(config.prune_to, None);
        assert_eq!(config.algorithm, AgglomerativeAlgorithm::Generic);
    }
}
