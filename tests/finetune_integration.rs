//! Integration tests of the tuple-representation stack (Fig. 6 / Fig. 10
//! behaviour): fine-tuning on a generated benchmark's pair dataset must beat
//! the pre-trained baselines, and the resulting embeddings must be robust to
//! column-order shuffling. The training goldens at the bottom pin the
//! trained weights and every lake-tuple embedding to the bits the per-unit
//! serial head produced (computed at commit `be41721`, before the
//! lane-tiled kernels), so no later kernel or layout change can move them.

use dust_datagen::{
    build_finetune_dataset, BenchmarkConfig, FineTuneDataset, FineTuneDatasetConfig,
};
use dust_embed::{
    classification_accuracy, cosine_similarity, DustModel, FineTuneConfig, PretrainedModel,
    TupleEncoder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset() -> FineTuneDataset {
    let lake = BenchmarkConfig::tiny().generate().lake;
    build_finetune_dataset(
        &lake,
        &FineTuneDatasetConfig {
            total_pairs: 260,
            ..FineTuneDatasetConfig::default()
        },
    )
}

fn trained_model(dataset: &FineTuneDataset, backbone: PretrainedModel) -> DustModel {
    let mut model = DustModel::new(
        backbone,
        FineTuneConfig {
            hidden_dim: 64,
            output_dim: 32,
            max_epochs: 60,
            patience: 10,
            ..FineTuneConfig::default()
        },
    );
    model.train(
        &FineTuneDataset::triples(&dataset.train),
        &FineTuneDataset::triples(&dataset.validation),
    );
    model
}

#[test]
fn fine_tuning_beats_every_pretrained_baseline() {
    let dataset = dataset();
    let test = FineTuneDataset::triples(&dataset.test);
    assert!(test.len() >= 20, "test split too small: {}", test.len());
    let threshold = 0.7;

    let mut baseline_best: f64 = 0.0;
    for backbone in PretrainedModel::tuple_models() {
        let encoder = TupleEncoder::new(backbone);
        let accuracy = classification_accuracy(|t| encoder.embed_tuple(t), &test, threshold);
        baseline_best = baseline_best.max(accuracy);
    }

    let model = trained_model(&dataset, PretrainedModel::Roberta);
    let tuned = model.classification_accuracy(&test, threshold);
    assert!(
        tuned > baseline_best,
        "fine-tuned accuracy {tuned:.3} must beat the best pre-trained baseline {baseline_best:.3}"
    );
    assert!(tuned >= 0.7, "fine-tuned accuracy too low: {tuned:.3}");
}

#[test]
fn fine_tuned_space_separates_unionable_from_non_unionable_pairs() {
    let dataset = dataset();
    let model = trained_model(&dataset, PretrainedModel::Roberta);
    let mut unionable = Vec::new();
    let mut non_unionable = Vec::new();
    for pair in &dataset.test {
        let sim = cosine_similarity(&model.embed_tuple(&pair.a), &model.embed_tuple(&pair.b));
        if pair.unionable {
            unionable.push(sim);
        } else {
            non_unionable.push(sim);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&unionable) > mean(&non_unionable) + 0.2,
        "unionable pairs ({:.3}) must be clearly closer than non-unionable pairs ({:.3})",
        mean(&unionable),
        mean(&non_unionable)
    );
}

#[test]
fn embeddings_are_robust_to_column_shuffling() {
    // Appendix A.2.1 / Fig. 10: shuffling a tuple's column order barely moves
    // its embedding.
    let dataset = dataset();
    let model = trained_model(&dataset, PretrainedModel::Roberta);
    let mut rng = StdRng::seed_from_u64(77);
    let mut similarities = Vec::new();
    for pair in dataset.test.iter().take(40) {
        let tuple = &pair.a;
        if tuple.arity() < 2 {
            continue;
        }
        let mut order: Vec<usize> = (0..tuple.arity()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let shuffled = tuple.permuted(&order);
        similarities.push(cosine_similarity(
            &model.embed_tuple(tuple),
            &model.embed_tuple(&shuffled),
        ));
    }
    assert!(!similarities.is_empty());
    let mean = similarities.iter().sum::<f64>() / similarities.len() as f64;
    assert!(
        mean > 0.9,
        "column-shuffled embeddings should stay similar (mean {mean:.3})"
    );
}

#[test]
fn bert_and_roberta_backbones_both_fine_tune_successfully() {
    let dataset = dataset();
    let test = FineTuneDataset::triples(&dataset.test);
    for backbone in [PretrainedModel::Bert, PretrainedModel::Roberta] {
        let model = trained_model(&dataset, backbone);
        let accuracy = model.classification_accuracy(&test, 0.7);
        assert!(
            accuracy > 0.6,
            "DUST ({}) accuracy {accuracy:.3} too low",
            backbone.name()
        );
    }
}

/// FNV-1a-64 over the little-endian bytes of each value's bit pattern.
fn fnv1a(hash: &mut u64, values: &[f32]) {
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The serving recipe (`serve --finetune`) on a generated lake: `(epochs
/// run, hash of w1 · b1 · w2 · b2 in the exported row-major form, hash of
/// the embedding of every lake tuple, number of lake tuples)`.
fn training_golden(benchmark: BenchmarkConfig) -> (usize, u64, u64, usize) {
    let lake = benchmark.generate().lake;
    let dataset = build_finetune_dataset(
        &lake,
        &FineTuneDatasetConfig {
            total_pairs: 150,
            ..FineTuneDatasetConfig::default()
        },
    );
    let mut model = DustModel::new(
        PretrainedModel::Roberta,
        FineTuneConfig {
            max_epochs: 15,
            patience: 3,
            ..FineTuneConfig::default()
        },
    );
    let report = model.train(
        &FineTuneDataset::triples(&dataset.train),
        &FineTuneDataset::triples(&dataset.validation),
    );
    let (w1, b1, w2, b2) = model.head().raw_weights();
    let mut weights = FNV_OFFSET;
    for part in [w1, b1, w2, b2] {
        fnv1a(&mut weights, &part);
    }
    let mut embeddings = FNV_OFFSET;
    let mut tuples = 0;
    for table in lake.tables() {
        for embedding in model.embed_tuples(&table.tuples()) {
            fnv1a(&mut embeddings, embedding.as_slice());
            tuples += 1;
        }
    }
    (report.epochs_run, weights, embeddings, tuples)
}

#[test]
fn training_goldens_match_the_serial_head() {
    assert_eq!(
        training_golden(BenchmarkConfig::tiny()),
        (6, 0x1e3b_7b6b_3554_d015, 0x7c92_ba7a_548a_3496, 128)
    );
    let (epochs, weights, embeddings, _) = training_golden(BenchmarkConfig::ugen_v1());
    assert_eq!(
        (epochs, weights, embeddings),
        (12, 0xf8c3_b795_c230_944e, 0xaa0d_17ca_ce0f_9812)
    );
}

/// The same on the benchmark's lake shape at three seeds — minutes in a
/// debug build, so run it as `cargo test --release --test
/// finetune_integration -- --ignored`.
#[test]
#[ignore = "slow in a debug build"]
fn training_goldens_match_the_serial_head_on_santos() {
    let expected = [
        (1447, 4, 0x63b5_4146_2560_7885, 0x4c2d_05a1_48bf_6486),
        (7, 4, 0xb7bb_feaa_6f0b_8612, 0xb366_9c02_df3c_24a5),
        (31, 8, 0x3e16_9035_7a31_3062, 0x14ae_7e85_ca30_f036),
    ];
    for (seed, epochs, weights, embeddings) in expected {
        let benchmark = BenchmarkConfig {
            seed,
            ..BenchmarkConfig::santos()
        };
        let (e, w, x, _) = training_golden(benchmark);
        assert_eq!((e, w, x), (epochs, weights, embeddings), "seed {seed}");
    }
}
