//! Figure 10 / Appendix A.2.1 — robustness of DUST embeddings to
//! column-order shuffling.
//!
//! For every tuple of the fine-tuning test split, embed the original tuple
//! and a randomly column-permuted copy with the trained DUST model and
//! report the distribution of cosine similarities between the two
//! embeddings (the paper reports mean 0.98, standard deviation 0.04).
//!
//! Run with `cargo run --release -p dust-bench --bin exp_fig10`.

use dust_bench::report::{fmt3, Report};
use dust_bench::setup::{scale, train_dust_model};
use dust_embed::{cosine_similarity, PretrainedModel};
use dust_table::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let scale = scale();
    let lake = scale.tus_sampled_config().generate().lake;
    let (model, dataset) =
        train_dust_model(&lake, PretrainedModel::Roberta, scale.finetune_pairs());

    // Collect the distinct tuples appearing in the test split.
    let mut tuples: Vec<Tuple> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for pair in &dataset.test {
        for tuple in [&pair.a, &pair.b] {
            let key = format!("{}:{}", tuple.source_table(), tuple.source_row());
            if seen.insert(key) {
                tuples.push(tuple.clone());
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(0x510);
    let mut similarities = Vec::with_capacity(tuples.len());
    for tuple in &tuples {
        let mut order: Vec<usize> = (0..tuple.arity()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let shuffled = tuple.permuted(&order);
        let original_embedding = model.embed_tuple(tuple);
        let shuffled_embedding = model.embed_tuple(&shuffled);
        similarities.push(cosine_similarity(&original_embedding, &shuffled_embedding));
    }

    let n = similarities.len().max(1) as f64;
    let mean = similarities.iter().sum::<f64>() / n;
    let std_dev = (similarities.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n).sqrt();

    let mut report = Report::new(
        "Figure 10: cosine similarity between original and column-shuffled tuple embeddings",
    )
    .headers(["Statistic", "Value"]);
    report.row(["Tuples".to_string(), similarities.len().to_string()]);
    report.row(["Mean similarity".to_string(), fmt3(mean)]);
    report.row(["Std deviation".to_string(), fmt3(std_dev)]);
    report.row([
        "Min similarity".to_string(),
        fmt3(similarities.iter().copied().fold(f64::INFINITY, f64::min)),
    ]);

    // coarse histogram over [0, 1]
    let mut histogram = [0usize; 10];
    for s in &similarities {
        let bin = ((s.clamp(0.0, 1.0)) * 10.0).min(9.0) as usize;
        histogram[bin] += 1;
    }
    for (i, count) in histogram.iter().enumerate() {
        report.row([
            format!("[{:.1}, {:.1})", i as f64 / 10.0, (i + 1) as f64 / 10.0),
            count.to_string(),
        ]);
    }
    report.note(
        "paper: mean 0.98, standard deviation 0.04 — embeddings are insensitive to column order",
    );
    report.print();
}
