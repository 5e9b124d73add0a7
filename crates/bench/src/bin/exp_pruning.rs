//! Appendix A.2.3 — influence of pre-diversification pruning.
//!
//! Starting from a large pool of unionable tuples, run the DUST diversifier
//! with pruning enabled (cap the pool at `s` tuples before clustering) and
//! disabled, and report the per-query runtime and the diversity metrics of
//! both variants. The paper reports 990 s → 85 s per query on SANTOS with no
//! loss of effectiveness relative to the baselines.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_pruning`.

use dust_bench::report::{fmt3, Report};
use dust_bench::setup::{scale, Scale};
use dust_diversify::{
    DiversificationInput, Diversifier, DiversityScores, DustConfig, DustDiversifier,
};
use dust_embed::{Distance, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let scale = scale();
    let (pool_size, prune_to, k) = match scale {
        Scale::Small => (2500usize, 600usize, 50usize),
        Scale::Full => (10_000, 2500, 100),
    };

    // Synthetic clustered tuple embeddings standing in for one query's
    // unionable tuples (same generator as the Fig. 7 runtime sweep).
    let mut rng = StdRng::seed_from_u64(0xA23);
    let dim = 64;
    let centroids: Vec<Vec<f32>> = (0..30)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let point = |spread: f32, rng: &mut StdRng| -> Vector {
        let c = &centroids[rng.gen_range(0..centroids.len())];
        Vector::new(
            c.iter()
                .map(|x| x + rng.gen_range(-spread..spread))
                .collect(),
        )
        .normalized()
    };
    let query: Vec<Vector> = (0..30).map(|_| point(0.1, &mut rng)).collect();
    let candidates: Vec<Vector> = (0..pool_size).map(|_| point(0.4, &mut rng)).collect();
    let sources: Vec<usize> = (0..pool_size).map(|i| i % 20).collect();

    let variants = [
        ("DUST (with pruning)", Some(prune_to)),
        ("DUST (no pruning)", None),
    ];
    let mut report = Report::new(format!(
        "Appendix A.2.3: pruning influence (pool = {pool_size} tuples, s = {prune_to}, k = {k})"
    ))
    .headers(["Variant", "Time (s)", "Avg Diversity", "Min Diversity"]);

    for (name, prune) in variants {
        let diversifier = DustDiversifier::with_config(DustConfig {
            prune_to: prune,
            ..DustConfig::default()
        });
        let input =
            DiversificationInput::with_sources(&query, &candidates, &sources, Distance::Cosine);
        let start = Instant::now();
        let selection = diversifier.select(&input, k);
        let elapsed = start.elapsed().as_secs_f64();
        let selected: Vec<Vector> = selection.iter().map(|&i| candidates[i].clone()).collect();
        let scores = DiversityScores::compute(&query, &selected, Distance::Cosine);
        report.row([
            name.to_string(),
            fmt3(elapsed),
            fmt3(scores.average),
            fmt3(scores.minimum),
        ]);
    }
    report.note(
        "paper: pruning cuts the per-query time from 990 s to 85 s without hurting effectiveness",
    );
    report.print();
}
