//! Table 2 — tuple-diversification effectiveness and efficiency.
//!
//! For the SANTOS-like and UGEN-V1-like benchmarks: for every query, build
//! the pool of truly unionable tuples (ground-truth tables, aligned and
//! outer-unioned), embed them with the fine-tuned DUST model, run every
//! diversification algorithm (GMC, GNE — UGEN only, CLT, Random, DUST), and
//! report (i) the number of queries for which each algorithm achieves the
//! best Average Diversity and the best Min Diversity, and (ii) the average
//! per-query time.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_table2`.

use dust_bench::diversity_eval::{evaluate_diversifiers, QueryCandidates};
use dust_bench::report::{fmt3, Report};
use dust_bench::setup::{build_candidates_for_query, scale, train_dust_model};
use dust_diversify::{
    CltDiversifier, Diversifier, DustDiversifier, GmcDiversifier, GneDiversifier, RandomDiversifier,
};
use dust_embed::{Distance, PretrainedModel};

fn main() {
    let scale = scale();
    for (bench_name, config, k, include_gne) in [
        ("SANTOS", scale.santos_config(), scale.santos_k(), false),
        ("UGEN-V1", scale.ugen_config(), scale.ugen_k(), true),
    ] {
        let lake = config.generate().lake;
        let (model, _) = train_dust_model(&lake, PretrainedModel::Roberta, scale.finetune_pairs());

        // Build and embed candidate pools per query.
        let mut queries = Vec::new();
        for query_name in lake.query_names() {
            let query = lake.query(&query_name).expect("query exists");
            let (tuples, sources) = build_candidates_for_query(&lake, query, 50);
            if tuples.len() < k {
                continue;
            }
            queries.push(QueryCandidates {
                query_name: query_name.clone(),
                query_embeddings: model.embed_tuples(&query.tuples()),
                candidate_embeddings: model.embed_tuples(&tuples),
                sources,
            });
        }
        println!(
            "{bench_name}: {} queries, avg {} candidate tuples per query, k = {k}",
            queries.len(),
            queries
                .iter()
                .map(|q| q.candidate_embeddings.len())
                .sum::<usize>()
                / queries.len().max(1)
        );

        let gmc = GmcDiversifier::new();
        let gne = GneDiversifier::new();
        let clt = CltDiversifier::new();
        let random = RandomDiversifier::default();
        let dust = DustDiversifier::new();
        let mut algorithms: Vec<(&str, &dyn Diversifier)> = vec![
            ("GMC", &gmc),
            ("CLT", &clt),
            ("Random", &random),
            ("DUST", &dust),
        ];
        if include_gne {
            algorithms.insert(1, ("GNE", &gne));
        }

        let outcomes = evaluate_diversifiers(&queries, &algorithms, k, Distance::Cosine);

        let mut report = Report::new(format!(
            "Table 2 ({bench_name}): # queries with best Average / Min diversity and avg time per query"
        ))
        .headers(["Method", "# Average", "# Min", "Mean Avg Div", "Mean Min Div", "Time (s)"]);
        for outcome in &outcomes {
            report.row([
                outcome.name.clone(),
                outcome.best_average.to_string(),
                outcome.best_min.to_string(),
                fmt3(outcome.mean_average),
                fmt3(outcome.mean_min),
                fmt3(outcome.avg_time_secs),
            ]);
        }
        report.note("paper (SANTOS, k=100): GMC 23/1/556s, CLT 0/0/82s, DUST 27/49/85s; (UGEN-V1, k=30): GMC 3/2, GNE 0/0, CLT 18/12, DUST 27/34");
        report.print();
    }
}
