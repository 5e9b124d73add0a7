//! Table 3 — DUST against table-search techniques.
//!
//! For every query of the SANTOS-like and UGEN-V1-like benchmarks, produce
//! `k` tuples with three strategies — Starmie used as a tuple search (most
//! similar tuples first), the simulated LLM generator (UGEN only, as in the
//! paper), and DUST — embed every returned set with the same fine-tuned
//! DUST model, and count for how many queries each method achieves the best
//! Average Diversity and the best Min Diversity.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_table3`.

use dust_bench::report::Report;
use dust_bench::setup::{build_candidates_for_query, scale, train_dust_model};
use dust_core::{LlmBaseline, StarmieBaseline};
use dust_diversify::{DiversificationInput, Diversifier, DiversityScores, DustDiversifier};
use dust_embed::{Distance, PretrainedModel};

fn main() {
    let scale = scale();
    for (bench_name, config, k, include_llm) in [
        ("SANTOS", scale.santos_config(), scale.santos_k(), false),
        ("UGEN-V1", scale.ugen_config(), scale.ugen_k(), true),
    ] {
        let lake = config.generate().lake;
        let (model, _) = train_dust_model(&lake, PretrainedModel::Roberta, scale.finetune_pairs());
        let starmie = StarmieBaseline::new();
        let llm = LlmBaseline::new();
        let dust = DustDiversifier::new();

        let mut method_names: Vec<&str> = vec!["Starmie", "DUST"];
        if include_llm {
            method_names.insert(1, "LLM");
        }
        let mut best_average = vec![0usize; method_names.len()];
        let mut best_min = vec![0usize; method_names.len()];
        let mut evaluated_queries = 0usize;

        for query_name in lake.query_names() {
            let query = lake.query(&query_name).expect("query exists");
            let (candidates, sources) = build_candidates_for_query(&lake, query, 50);
            if candidates.len() < k {
                continue;
            }
            evaluated_queries += 1;
            let query_embeddings = model.embed_tuples(&query.tuples());
            let candidate_embeddings = model.embed_tuples(&candidates);

            let mut scores: Vec<DiversityScores> = Vec::new();
            for name in &method_names {
                let selected_embeddings = match *name {
                    "Starmie" => {
                        let top = starmie.top_k(query, &candidates, k);
                        model.embed_tuples(&top)
                    }
                    "LLM" => {
                        let generated = llm.top_k(query, k);
                        model.embed_tuples(&generated)
                    }
                    "DUST" => {
                        let input = DiversificationInput::with_sources(
                            &query_embeddings,
                            &candidate_embeddings,
                            &sources,
                            Distance::Cosine,
                        );
                        dust.select(&input, k)
                            .into_iter()
                            .map(|i| candidate_embeddings[i].clone())
                            .collect()
                    }
                    _ => unreachable!(),
                };
                scores.push(DiversityScores::compute(
                    &query_embeddings,
                    &selected_embeddings,
                    Distance::Cosine,
                ));
            }
            let max_avg = scores
                .iter()
                .map(|s| s.average)
                .fold(f64::NEG_INFINITY, f64::max);
            let max_min = scores
                .iter()
                .map(|s| s.minimum)
                .fold(f64::NEG_INFINITY, f64::max);
            for (i, s) in scores.iter().enumerate() {
                if (s.average - max_avg).abs() < 1e-12 {
                    best_average[i] += 1;
                }
                if (s.minimum - max_min).abs() < 1e-12 {
                    best_min[i] += 1;
                }
            }
        }

        let mut report = Report::new(format!(
            "Table 3 ({bench_name}): # queries ({evaluated_queries} total) where each method is best"
        ))
        .headers(["Method", "# Average", "# Min"]);
        for (i, name) in method_names.iter().enumerate() {
            report.row([
                name.to_string(),
                best_average[i].to_string(),
                best_min[i].to_string(),
            ]);
        }
        report.note("paper (SANTOS): Starmie 5/1, DUST 45/49; (UGEN-V1): Starmie 11/2, LLM 14/21, DUST 23/25");
        report.print();
    }
}
