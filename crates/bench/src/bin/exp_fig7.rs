//! Figure 7 — diversification runtime scaling.
//!
//! (a) Runtime vs the number of input unionable tuples `s` (k fixed).
//! (b) Runtime vs the number of output tuples `k` (s fixed).
//!
//! GMC's runtime grows quadratically with `s`; DUST grows roughly linearly
//! with a small slope and is essentially flat in `k`; CLT behaves like DUST
//! without the re-ranking step.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_fig7`
//! (use `DUST_SCALE=full` for the paper-scale sweep up to 6 000 tuples).

use dust_bench::report::{fmt3, Report};
use dust_bench::setup::{scale, Scale};
use dust_diversify::{
    CltDiversifier, DiversificationInput, Diversifier, DustConfig, DustDiversifier, GmcDiversifier,
};
use dust_embed::{Distance, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let scale = scale();
    let (s_values, k_fixed, s_fixed, k_values): (Vec<usize>, usize, usize, Vec<usize>) = match scale
    {
        Scale::Small => (vec![250, 500, 1000, 1500], 50, 1500, vec![25, 50, 100, 150]),
        Scale::Full => (
            vec![1000, 2000, 3000, 4000, 5000, 6000],
            100,
            5000,
            vec![100, 200, 300, 400, 500],
        ),
    };

    let dim = 64;
    let max_s = *s_values.iter().max().unwrap_or(&1000);
    let (query, candidates) = synthetic_embeddings(20, max_s.max(s_fixed), dim);

    let gmc = GmcDiversifier::new();
    let clt = CltDiversifier::new();
    // DUST's pruning budget (Sec. 5.1) is part of the algorithm: beyond it
    // the clustering cost stops growing with s, which is what makes DUST's
    // curve flat while GMC keeps growing quadratically.
    let prune_budget = match scale {
        Scale::Small => 500,
        Scale::Full => 2500,
    };
    let dust = DustDiversifier::with_config(DustConfig {
        prune_to: Some(prune_budget),
        ..DustConfig::default()
    });
    let algorithms: Vec<(&str, &dyn Diversifier)> =
        vec![("GMC", &gmc), ("CLT", &clt), ("DUST", &dust)];

    // ---- (a) runtime vs s ------------------------------------------------
    let mut report_a =
        Report::new("Figure 7a: runtime (seconds) vs number of input unionable tuples (s)")
            .headers(["s", "GMC", "CLT", "DUST"]);
    for &s in &s_values {
        let slice = &candidates[..s];
        let mut cells = vec![s.to_string()];
        for (_, algorithm) in &algorithms {
            let input = DiversificationInput::new(&query, slice, Distance::Cosine);
            let start = Instant::now();
            let selection = algorithm.select(&input, k_fixed);
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(selection.len(), k_fixed.min(s));
            cells.push(fmt3(elapsed));
        }
        report_a.row(cells);
    }
    report_a.note("paper: GMC grows quadratically in s; DUST is linear with a small slope");
    report_a.print();

    // ---- (b) runtime vs k ------------------------------------------------
    let slice = &candidates[..s_fixed.min(candidates.len())];
    let mut report_b = Report::new(format!(
        "Figure 7b: runtime (seconds) vs number of output tuples (k), s = {s_fixed}"
    ))
    .headers(["k", "GMC", "CLT", "DUST"]);
    for &k in &k_values {
        let mut cells = vec![k.to_string()];
        for (_, algorithm) in &algorithms {
            let input = DiversificationInput::new(&query, slice, Distance::Cosine);
            let start = Instant::now();
            let selection = algorithm.select(&input, k);
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(selection.len(), k.min(slice.len()));
            cells.push(fmt3(elapsed));
        }
        report_b.row(cells);
    }
    report_b.note("paper: DUST's runtime is essentially unaffected by k");
    report_b.print();
}

/// Synthetic, clustered tuple embeddings (unit-norm vectors around a few
/// dozen topic centroids) standing in for the unionable tuples of one query.
fn synthetic_embeddings(
    num_query: usize,
    num_candidates: usize,
    dim: usize,
) -> (Vec<Vector>, Vec<Vector>) {
    let mut rng = StdRng::seed_from_u64(0xF16);
    let num_centroids = 24;
    let centroids: Vec<Vec<f32>> = (0..num_centroids)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let point = |spread: f32, rng: &mut StdRng| -> Vector {
        let c = &centroids[rng.gen_range(0..num_centroids)];
        let v: Vec<f32> = c
            .iter()
            .map(|x| x + rng.gen_range(-spread..spread))
            .collect();
        Vector::new(v).normalized()
    };
    let query: Vec<Vector> = (0..num_query).map(|_| point(0.1, &mut rng)).collect();
    let candidates: Vec<Vector> = (0..num_candidates).map(|_| point(0.4, &mut rng)).collect();
    (query, candidates)
}
