//! Figure 2 — table vs tuple embedding distributions.
//!
//! The paper motivates tuple-level diversification by showing (via PCA of
//! 768-dimensional embeddings) that unionable *tables* occupy a small region
//! of the embedding space while unionable *tuples* are spread widely. This
//! experiment reproduces the figure's data: it embeds the tables and tuples
//! of five unionable sets, projects them to 2-D with PCA, and reports the
//! within-set and between-set spreads for both granularities.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_fig2`.

use dust_bench::report::{fmt3, Report};
use dust_bench::setup::{scale, train_dust_model};
use dust_embed::{Distance, Pca, PretrainedModel, Vector};
use dust_search::StarmieSearch;
use dust_table::DataLake;

fn main() {
    let scale = scale();
    let lake = scale.santos_config().generate().lake;
    let (model, _) = train_dust_model(&lake, PretrainedModel::Roberta, scale.finetune_pairs());

    // Pick five unionable sets (domains); each set = the tables of one domain.
    let domains: Vec<String> = {
        let mut names: Vec<String> = lake
            .table_names()
            .iter()
            .map(|n| n.split("_dl_").next().unwrap_or(n).to_string())
            .collect();
        names.sort();
        names.dedup();
        names.into_iter().take(5).collect()
    };

    // ---- table embeddings (Starmie-style table vectors) -----------------
    let starmie = StarmieSearch::new();
    let mut table_embeddings: Vec<Vector> = Vec::new();
    let mut table_sets: Vec<usize> = Vec::new();
    for (set_id, domain) in domains.iter().enumerate() {
        for table in tables_of_domain(&lake, domain) {
            let columns = starmie.contextual_column_embeddings(table);
            if let Some(mean) = Vector::mean(columns.iter()) {
                table_embeddings.push(mean.normalized());
                table_sets.push(set_id);
            }
        }
    }

    // ---- tuple embeddings (DUST model), sampled per domain --------------
    let mut tuple_embeddings: Vec<Vector> = Vec::new();
    let mut tuple_sets: Vec<usize> = Vec::new();
    let tuples_per_domain = 60usize;
    for (set_id, domain) in domains.iter().enumerate() {
        let mut taken = 0usize;
        for table in tables_of_domain(&lake, domain) {
            for tuple in table.tuples() {
                if taken >= tuples_per_domain {
                    break;
                }
                tuple_embeddings.push(model.embed_tuple(&tuple));
                tuple_sets.push(set_id);
                taken += 1;
            }
        }
    }

    let mut report = Report::new("Figure 2: table vs tuple embedding spread (PCA)").headers([
        "Granularity",
        "Points",
        "PC1+PC2 variance",
        "Within-set spread",
        "Between-set spread",
        "Spread ratio (within/between)",
    ]);
    for (label, embeddings, sets) in [
        ("Tables", &table_embeddings, &table_sets),
        ("Tuples", &tuple_embeddings, &tuple_sets),
    ] {
        let (variance, within, between) = project_and_measure(embeddings, sets);
        report.row([
            label.to_string(),
            embeddings.len().to_string(),
            fmt3(variance),
            fmt3(within),
            fmt3(between),
            fmt3(if between > 0.0 { within / between } else { 0.0 }),
        ]);
    }
    report.note(
        "the paper's observation: tuples are spread much more widely than tables \
         (higher within-set spread), so diversifying tuples is worthwhile while \
         diversifying tables has limited effect",
    );
    report.print();
}

fn tables_of_domain<'a>(lake: &'a DataLake, domain: &str) -> Vec<&'a dust_table::Table> {
    lake.tables()
        .filter(|t| t.name().starts_with(&format!("{domain}_dl_")))
        .collect()
}

/// PCA-project embeddings to 2-D and measure average within-set and
/// between-set pairwise distances in the projected space.
fn project_and_measure(embeddings: &[Vector], sets: &[usize]) -> (f64, f64, f64) {
    if embeddings.len() < 2 {
        return (0.0, 0.0, 0.0);
    }
    let pca = Pca::fit(embeddings, 2).expect("non-empty embeddings");
    let projected = pca.transform_all(embeddings);
    let variance: f64 = pca.explained_variance().iter().sum();
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt()
    };
    let mut within = (0.0, 0usize);
    let mut between = (0.0, 0usize);
    for i in 0..projected.len() {
        for j in (i + 1)..projected.len() {
            let d = dist(&projected[i], &projected[j]);
            if sets[i] == sets[j] {
                within.0 += d;
                within.1 += 1;
            } else {
                between.0 += d;
                between.1 += 1;
            }
        }
    }
    let _ = Distance::Euclidean; // distances in projected space are Euclidean by construction
    (
        variance,
        within.0 / within.1.max(1) as f64,
        between.0 / between.1.max(1) as f64,
    )
}
