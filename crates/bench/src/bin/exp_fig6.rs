//! Figure 6 — unionable-tuple representation accuracy.
//!
//! Builds the TUS fine-tuning benchmark (balanced tuple pairs with
//! unionability labels, split 70:15:15 without leakage), then reports the
//! threshold-classification accuracy (cosine distance < 0.7 ⇒ unionable) of
//! the pre-trained baselines (BERT, RoBERTa, sBERT, the entity-matching
//! model Ditto) and the two fine-tuned DUST variants (DUST (BERT) and
//! DUST (RoBERTa)).
//!
//! Run with `cargo run --release -p dust-bench --bin exp_fig6`.

use dust_bench::report::{fmt3, Report};
use dust_bench::setup::scale;
use dust_datagen::{build_finetune_dataset, FineTuneDataset, FineTuneDatasetConfig};
use dust_embed::{
    classification_accuracy, DustModel, FineTuneConfig, PretrainedModel, TupleEncoder,
};

const THRESHOLD: f64 = 0.7;

fn main() {
    let scale = scale();
    // The fine-tuning benchmark is built from a TUS-like lake (Sec. 6.1.1).
    let lake = scale.tus_sampled_config().generate().lake;
    let dataset = build_finetune_dataset(
        &lake,
        &FineTuneDatasetConfig {
            total_pairs: scale.finetune_pairs(),
            ..FineTuneDatasetConfig::default()
        },
    );
    let train = FineTuneDataset::triples(&dataset.train);
    let validation = FineTuneDataset::triples(&dataset.validation);
    let test = FineTuneDataset::triples(&dataset.test);
    println!(
        "fine-tuning pairs: {} train / {} validation / {} test (balanced)",
        train.len(),
        validation.len(),
        test.len()
    );

    let mut report = Report::new("Figure 6: unionable tuple representation accuracy")
        .headers(["Model", "Accuracy"]);

    // pre-trained baselines
    for model in PretrainedModel::tuple_models() {
        let encoder = TupleEncoder::new(model);
        let accuracy = classification_accuracy(|t| encoder.embed_tuple(t), &test, THRESHOLD);
        report.row([model.name().to_string(), fmt3(accuracy)]);
    }

    // fine-tuned DUST variants
    for backbone in [PretrainedModel::Bert, PretrainedModel::Roberta] {
        let mut model = DustModel::new(
            backbone,
            FineTuneConfig {
                hidden_dim: 96,
                output_dim: 64,
                max_epochs: 80,
                patience: 12,
                ..FineTuneConfig::default()
            },
        );
        let training_report = model.train(&train, &validation);
        let accuracy = model.classification_accuracy(&test, THRESHOLD);
        report.row([format!("DUST ({})", backbone.name()), fmt3(accuracy)]);
        println!(
            "DUST ({}) trained for {} epochs (best validation loss {:.3})",
            backbone.name(),
            training_report.epochs_run,
            training_report.best_val_loss
        );
    }
    report.note("paper: BERT 0.50, RoBERTa 0.50, sBERT 0.56, Ditto 0.66, DUST (BERT) 0.84, DUST (RoBERTa) 0.85");
    report.print();
}
