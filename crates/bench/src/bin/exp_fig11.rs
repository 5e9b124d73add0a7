//! Figure 11 / Appendix A.2.2 — impact of the candidate multiplier `p`.
//!
//! For `p` in 1..=5 on the SANTOS-like and UGEN-V1-like benchmarks, run the
//! DUST diversifier with `k·p` clusters and report the percentage change of
//! the two diversity metrics relative to the previous value of `p`. The
//! paper selects `p = 2`: beyond it the Max-Min score degrades and the
//! Average score barely moves.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_fig11`.

use dust_bench::report::{fmt1, Report};
use dust_bench::setup::{build_candidates_for_query, scale, train_dust_model};
use dust_diversify::{
    DiversificationInput, Diversifier, DiversityScores, DustConfig, DustDiversifier,
};
use dust_embed::{Distance, PretrainedModel};

fn main() {
    let scale = scale();
    for (bench_name, config, k) in [
        ("SANTOS", scale.santos_config(), scale.santos_k()),
        ("UGEN-V1", scale.ugen_config(), scale.ugen_k()),
    ] {
        let lake = config.generate().lake;
        let (model, _) = train_dust_model(&lake, PretrainedModel::Roberta, scale.finetune_pairs());

        // Pre-embed every query's candidate pool once.
        let mut pools = Vec::new();
        for query_name in lake.query_names() {
            let query = lake.query(&query_name).expect("query exists");
            let (tuples, sources) = build_candidates_for_query(&lake, query, 50);
            if tuples.len() < k * 2 {
                continue;
            }
            pools.push((
                model.embed_tuples(&query.tuples()),
                model.embed_tuples(&tuples),
                sources,
            ));
        }

        // Average metrics per p.
        let mut per_p: Vec<(usize, f64, f64)> = Vec::new();
        for p in 1..=5usize {
            let diversifier = DustDiversifier::with_config(DustConfig {
                p,
                ..DustConfig::default()
            });
            let mut avg_sum = 0.0;
            let mut min_sum = 0.0;
            for (query_embeddings, candidate_embeddings, sources) in &pools {
                let input = DiversificationInput::with_sources(
                    query_embeddings,
                    candidate_embeddings,
                    sources,
                    Distance::Cosine,
                );
                let selection = diversifier.select(&input, k);
                let selected: Vec<_> = selection
                    .iter()
                    .map(|&i| candidate_embeddings[i].clone())
                    .collect();
                let scores =
                    DiversityScores::compute(query_embeddings, &selected, Distance::Cosine);
                avg_sum += scores.average;
                min_sum += scores.minimum;
            }
            let n = pools.len().max(1) as f64;
            per_p.push((p, avg_sum / n, min_sum / n));
        }

        let mut report = Report::new(format!(
            "Figure 11 ({bench_name}): % change of diversity metrics vs previous p (k = {k}, {} queries)",
            pools.len()
        ))
        .headers(["p", "Avg Diversity", "Min Diversity", "% change Avg", "% change Min"]);
        for window in per_p.windows(2) {
            let (prev, current) = (&window[0], &window[1]);
            report.row([
                current.0.to_string(),
                fmt1(current.1 * 1000.0) + "e-3",
                fmt1(current.2 * 1000.0) + "e-3",
                fmt1(percent_change(prev.1, current.1)),
                fmt1(percent_change(prev.2, current.2)),
            ]);
        }
        if let Some(first) = per_p.first() {
            report.note(format!(
                "p = 1 reference: Avg {:.4}, Min {:.4}",
                first.1, first.2
            ));
        }
        report.note("paper: beyond p = 2 the Max-Min score drops and the Average score changes insignificantly");
        report.print();
    }
}

fn percent_change(previous: f64, current: f64) -> f64 {
    if previous.abs() < 1e-12 {
        0.0
    } else {
        (current - previous) / previous * 100.0
    }
}
