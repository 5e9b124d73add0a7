//! Clustering-engine experiment: NN-chain vs the cached-NN "generic"
//! agglomerative algorithm, and the k-capped build vs the full build, on
//! the diversification hot path.
//!
//! Three views:
//!
//! * **raw engines** — full-dendrogram construction time over a prebuilt
//!   [`PairwiseMatrix`] at n ∈ {200, 1000, 2000} (the `BENCH_cluster.json`
//!   numbers come from the Criterion `clustering` group; this table is the
//!   quick release-build sanity check), asserting both engines produce the
//!   same `cut(k)` partition;
//! * **capped** — the production configuration DUST actually consumes
//!   (stop at `k·p = 100` clusters) against the full build at
//!   n ∈ {2000, 5000, 10000}, both compacting (the entry point compacts
//!   from 256 points up), asserting the capped `cut(100)` is *identical*
//!   to the full build's;
//! * **end to end** — the DUST diversifier with the engine threaded
//!   through [`DustConfig`], asserting the selection is engine-independent
//!   and drawn from the medoids of the uncapped dendrogram's `k·p` cut.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_clustering`.

#![forbid(unsafe_code)]

use dust_bench::report::{fmt3, Report};
use dust_bench::setup::clustered_points;
use dust_cluster::{
    agglomerative_with, cluster_medoids_from_matrix, clusters_from_assignment,
    AgglomerativeAlgorithm, Linkage,
};
use dust_diversify::{DiversificationInput, Diversifier, DustConfig, DustDiversifier};
use dust_embed::{Distance, PairwiseMatrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const ENGINES: [(&str, AgglomerativeAlgorithm); 2] = [
    ("nn_chain", AgglomerativeAlgorithm::NnChain),
    ("generic", AgglomerativeAlgorithm::Generic),
];

/// DUST's cut: k = 50 diverse tuples at the paper's p = 2.
const K_CAP: usize = 100;

fn main() {
    let dim = 32;

    // ---- raw engine comparison (full builds) -----------------------------
    let mut raw = Report::new("Agglomerative engines: dendrogram build seconds (average linkage)")
        .headers(["n", "nn_chain", "generic", "speedup"]);
    for &n in &[200usize, 1000, 2000] {
        let points = clustered_points(n, dim, 7);
        let matrix = PairwiseMatrix::compute(&points, Distance::Cosine);
        let mut secs = Vec::new();
        let mut cuts = Vec::new();
        for (_, algorithm) in ENGINES {
            let start = Instant::now();
            let dendro = agglomerative_with(&matrix, Linkage::Average, algorithm, 1);
            secs.push(start.elapsed().as_secs_f64());
            cuts.push(dendro.cut(n / 20));
        }
        assert_eq!(
            partition_signature(&cuts[0]),
            partition_signature(&cuts[1]),
            "engines disagree at n = {n}"
        );
        raw.row([
            n.to_string(),
            fmt3(secs[0]),
            fmt3(secs[1]),
            format!("{:.2}x", secs[0] / secs[1]),
        ]);
    }
    raw.note("identical cut(n/20) partitions verified per row");
    raw.print();

    // ---- capped vs the full build -----------------------------------------
    let mut capped_report = Report::new(format!(
        "Generic engine, k-capped at {K_CAP} vs full build, both compacting (average linkage)"
    ))
    .headers(["n", "full", "capped", "speedup", "merges"]);
    for &n in &[2000usize, 5000, 10000] {
        let points = clustered_points(n, dim, 7);
        let matrix = PairwiseMatrix::compute(&points, Distance::Cosine);
        let start = Instant::now();
        let full = agglomerative_with(
            &matrix,
            Linkage::Average,
            AgglomerativeAlgorithm::Generic,
            1,
        );
        let full_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let capped = agglomerative_with(
            &matrix,
            Linkage::Average,
            AgglomerativeAlgorithm::Generic,
            K_CAP,
        );
        let capped_secs = start.elapsed().as_secs_f64();
        assert_eq!(
            capped.cut(K_CAP),
            full.cut(K_CAP),
            "capped cut({K_CAP}) diverged from the full build at n = {n}"
        );
        capped_report.row([
            n.to_string(),
            fmt3(full_secs),
            fmt3(capped_secs),
            format!("{:.2}x", full_secs / capped_secs),
            format!("{}/{}", capped.merges().len(), full.merges().len()),
        ]);
    }
    capped_report.note(format!(
        "identical cut({K_CAP}) assignments verified per row (bit-for-bit, not just up to relabelling)"
    ));
    capped_report.print();

    // ---- threaded through the DUST diversifier --------------------------
    let s = 2000;
    let (query, candidates) = synthetic_embeddings(20, s, dim);
    let mut e2e = Report::new(format!(
        "DUST diversifier (s = {s}, k = 50, pruning off): engine via DustConfig"
    ))
    .headers(["engine", "dendrogram", "seconds"]);
    let mut selections = Vec::new();
    for (name, algorithm) in ENGINES {
        let input = DiversificationInput::new(&query, &candidates, Distance::Cosine);
        let diversifier = DustDiversifier::with_config(DustConfig {
            prune_to: None,
            algorithm,
            ..DustConfig::default()
        });
        let start = Instant::now();
        selections.push(diversifier.select(&input, 50));
        e2e.row([
            name.to_string(),
            "capped".to_string(),
            fmt3(start.elapsed().as_secs_f64()),
        ]);
    }
    assert!(
        selections.windows(2).all(|w| w[0] == w[1]),
        "selection depends on the engine"
    );
    // The one "full" row: the diversifier's matrix + clustering + medoid
    // steps with the dendrogram built all the way up.
    let input = DiversificationInput::new(&query, &candidates, Distance::Cosine);
    let start = Instant::now();
    let matrix = input.pairwise();
    let full = agglomerative_with(matrix, Linkage::Average, AgglomerativeAlgorithm::Generic, 1);
    let medoids = cluster_medoids_from_matrix(matrix, &full.cut(K_CAP));
    e2e.row([
        "generic".to_string(),
        "full".to_string(),
        fmt3(start.elapsed().as_secs_f64()),
    ]);
    assert!(
        selections[0].iter().all(|i| medoids.contains(i)),
        "capped selection is not drawn from the full dendrogram's medoids"
    );
    e2e.note("identical k = 50 selections verified across engines, all medoids of the full cut");
    e2e.print();
}

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

fn partition_signature(assignment: &[usize]) -> Vec<Vec<usize>> {
    let mut groups = clusters_from_assignment(assignment);
    groups.sort();
    groups
}
