//! Figure 8 — case study: novel values added to the query table.
//!
//! On the IMDB-like corpus (one query table plus 20 unionable movie tables),
//! compare how many *new* distinct values each method adds to selected query
//! columns (Title, Director, Filming Location) as the number of output
//! tuples k grows. Methods: D3L and Starmie used as table search (tuples
//! taken from their top-ranked tables in order), their duplicate-free
//! variants (D3L-D, Starmie-D), and DUST.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_fig8`.

use dust_bench::report::Report;
use dust_bench::setup::{scale, Scale};
use dust_core::{DustPipeline, PipelineConfig, RetrievalSystem, TupleRetrievalBaseline};
use dust_datagen::{generate_imdb, ImdbConfig};
use dust_table::{Tuple, ValueSet};
use std::collections::HashSet;

fn main() {
    let scale = scale();
    let config = match scale {
        Scale::Small => ImdbConfig {
            base_movies: 200,
            lake_tables: 10,
            query_rows: 40,
            row_fraction: 0.25,
            ..ImdbConfig::default()
        },
        Scale::Full => ImdbConfig::default(),
    };
    let study = generate_imdb(&config);
    let query = study
        .lake
        .query(&study.query_name)
        .expect("query exists")
        .clone();
    let k_values: Vec<usize> = match scale {
        Scale::Small => vec![10, 20, 30, 40],
        Scale::Full => vec![20, 40, 60, 80, 100],
    };
    let columns = ["Title", "Director", "Filming Location"];

    // Baselines that take tuples from the top-ranked tables in rank order.
    let baselines = [
        TupleRetrievalBaseline::new(RetrievalSystem::D3l, false),
        TupleRetrievalBaseline::new(RetrievalSystem::D3l, true),
        TupleRetrievalBaseline::new(RetrievalSystem::Starmie, false),
        TupleRetrievalBaseline::new(RetrievalSystem::Starmie, true),
    ];
    // DUST end-to-end pipeline (no fine-tuning needed at case-study scale —
    // there is a single topic, so the pre-trained encoder's geometry is what
    // matters for diversity within it).
    let pipeline = DustPipeline::new(PipelineConfig {
        tables_per_query: config.lake_tables,
        ..PipelineConfig::fast()
    });

    for column in columns {
        let mut report = Report::new(format!(
            "Figure 8: new distinct values added to query column '{column}'"
        ))
        .headers(["k", "D3L", "D3L-D", "Starmie", "Starmie-D", "DUST"]);
        let existing = query.column_by_name(column).map(|c| c.value_set());
        for &k in &k_values {
            let mut cells = vec![k.to_string()];
            for baseline in &baselines {
                let tuples = baseline.top_k(&study.lake, &query, k);
                cells.push(novel_values(&tuples, column, existing).to_string());
            }
            let dust_result = pipeline
                .run(&study.lake, &query, k)
                .expect("pipeline runs on the case study");
            cells.push(novel_values(&dust_result.tuples, column, existing).to_string());
            report.row(cells);
        }
        report.note("paper: DUST adds ~25% more unique movie titles than Starmie-D; D3L and Starmie overlap heavily");
        report.print();
    }
}

fn novel_values(tuples: &[Tuple], column: &str, existing: Option<&ValueSet>) -> usize {
    let novel: HashSet<String> = tuples
        .iter()
        .filter_map(|tuple| tuple.value_for(column)?.normalized())
        .filter(|value| !existing.is_some_and(|e| e.contains(value)))
        .collect();
    novel.len()
}
