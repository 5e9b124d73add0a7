//! Table 1 — column-alignment effectiveness.
//!
//! For every benchmark (TUS-Sampled, SANTOS, UGEN-V1) and every column
//! representation (cell-level FastText / GloVe / BERT / RoBERTa / sBERT,
//! column-level BERT / RoBERTa / sBERT, and Starmie embeddings with
//! bipartite vs holistic matching), align the columns of each query's
//! ground-truth unionable tables to the query columns and report precision,
//! recall, and F1 against the generator's ground truth.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_table1`.

use dust_align::{
    alignment_items, bipartite_alignment, ground_truth_from_map, precision_recall_f1, Alignment,
    ColumnRef, HolisticAligner,
};
use dust_bench::report::{fmt3, Report};
use dust_bench::setup::scale;
use dust_datagen::{BenchmarkConfig, Domain};
use dust_embed::{ColumnEncoder, ColumnSerialization, PretrainedModel};
use dust_search::StarmieSearch;
use dust_table::{DataLake, Table};
use std::collections::BTreeSet;

/// (technique, matcher, per-benchmark (precision, recall, f1)).
type MethodRow = (String, String, Vec<(f64, f64, f64)>);

fn main() {
    let scale = scale();
    let benchmarks: Vec<(&str, BenchmarkConfig)> = vec![
        ("TUS-Sampled", scale.tus_sampled_config()),
        ("SANTOS", scale.santos_config()),
        ("UGEN-V1", scale.ugen_config()),
    ];

    let mut report = Report::new("Table 1: column alignment effectiveness (P / R / F1)").headers([
        "Serialization",
        "Model",
        "TUS-Sampled",
        "SANTOS",
        "UGEN-V1",
    ]);

    // method name -> per-benchmark (P, R, F1)
    let mut method_rows: Vec<MethodRow> = Vec::new();

    for (_bench_name, config) in &benchmarks {
        let lake = config.generate().lake;
        let mut col = 0usize;
        // cell-level models
        for model in PretrainedModel::alignment_models() {
            let scores = evaluate_encoder(&lake, model, ColumnSerialization::CellLevel);
            push_scores(&mut method_rows, "Cell-level", model.name(), col, scores);
        }
        // column-level language models
        for model in [
            PretrainedModel::Bert,
            PretrainedModel::Roberta,
            PretrainedModel::SBert,
        ] {
            let scores = evaluate_encoder(&lake, model, ColumnSerialization::ColumnLevel);
            push_scores(&mut method_rows, "Column-level", model.name(), col, scores);
        }
        // Starmie embeddings: bipartite and holistic matching
        let starmie_b = evaluate_starmie(&lake, false);
        push_scores(
            &mut method_rows,
            "Table context",
            "Starmie (B)",
            col,
            starmie_b,
        );
        let starmie_h = evaluate_starmie(&lake, true);
        push_scores(
            &mut method_rows,
            "Table context",
            "Starmie (H)",
            col,
            starmie_h,
        );
        col += 1;
        let _ = col;
    }

    for (serialization, model, scores) in &method_rows {
        let cells: Vec<String> = scores
            .iter()
            .map(|(p, r, f1)| format!("{} / {} / {}", fmt3(*p), fmt3(*r), fmt3(*f1)))
            .collect();
        let mut row = vec![serialization.clone(), model.clone()];
        row.extend(cells);
        report.row(row);
    }
    report.note("paper's best configuration is Column-level RoBERTa (F1 0.74 / 0.76 / 0.58)");
    report.print();
}

/// Accumulate scores into the per-method rows (methods appear once; each
/// benchmark appends one (P, R, F1) triple).
fn push_scores(
    rows: &mut Vec<MethodRow>,
    serialization: &str,
    model: &str,
    _benchmark_idx: usize,
    scores: (f64, f64, f64),
) {
    if let Some(entry) = rows
        .iter_mut()
        .find(|(s, m, _)| s == serialization && m == model)
    {
        entry.2.push(scores);
    } else {
        rows.push((serialization.to_string(), model.to_string(), vec![scores]));
    }
}

/// Average alignment P/R/F1 over every query of a lake for a hashing-encoder
/// configuration.
fn evaluate_encoder(
    lake: &DataLake,
    model: PretrainedModel,
    serialization: ColumnSerialization,
) -> (f64, f64, f64) {
    let aligner = HolisticAligner::with_encoder(ColumnEncoder::new(model, serialization));
    evaluate_alignment_method(lake, |query, tables| aligner.align(query, tables))
}

/// Average alignment P/R/F1 using Starmie's contextualized column
/// embeddings, matched either pairwise (bipartite) or holistically.
fn evaluate_starmie(lake: &DataLake, holistic: bool) -> (f64, f64, f64) {
    let starmie = StarmieSearch::new();
    evaluate_alignment_method(lake, |query, tables| {
        let embed = |t: &Table| starmie.contextual_column_embeddings(t);
        if holistic {
            HolisticAligner::new().align_with(query, tables, embed)
        } else {
            bipartite_alignment(query, tables, embed)
        }
    })
}

fn evaluate_alignment_method<F>(lake: &DataLake, align: F) -> (f64, f64, f64)
where
    F: Fn(&Table, &[&Table]) -> Alignment,
{
    let mut totals = (0.0, 0.0, 0.0);
    let mut count = 0usize;
    for query_name in lake.query_names() {
        let query = lake.query(&query_name).expect("query exists");
        let unionable = lake.ground_truth().unionable_with(&query_name);
        let tables: Vec<&Table> = unionable
            .iter()
            .filter_map(|t| lake.table(t).ok())
            .collect();
        if tables.is_empty() {
            continue;
        }
        let alignment = align(query, &tables);
        let method_items = alignment_items(&alignment, query);
        let truth = alignment_ground_truth(query, &tables);
        let scores = precision_recall_f1(&method_items, &truth);
        totals.0 += scores.precision;
        totals.1 += scores.recall;
        totals.2 += scores.f1;
        count += 1;
    }
    let n = count.max(1) as f64;
    (totals.0 / n, totals.1 / n, totals.2 / n)
}

/// Ground-truth column alignment derived from the generator: a data-lake
/// column aligns with a query column iff both resolve to the same canonical
/// column of the same domain.
fn alignment_ground_truth(query: &Table, tables: &[&Table]) -> BTreeSet<dust_align::AlignmentItem> {
    let domain_name = query.name().split("_query_").next().unwrap_or(query.name());
    let domain = Domain::by_name(domain_name);
    let canonical = |header: &str| -> String {
        if let Some(d) = &domain {
            for c in &d.columns {
                if c.name == header || c.alt_name == header {
                    return c.name.to_string();
                }
            }
        }
        header.to_string()
    };
    let mut mapping: Vec<(String, Vec<ColumnRef>)> = Vec::new();
    for q_header in query.headers() {
        let q_canonical = canonical(q_header);
        let mut members = Vec::new();
        for table in tables {
            for header in table.headers() {
                if canonical(header) == q_canonical {
                    members.push(ColumnRef::new(table.name(), header.clone()));
                }
            }
        }
        mapping.push((q_header.clone(), members));
    }
    ground_truth_from_map(query, &mapping)
}
