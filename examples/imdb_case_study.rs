//! The paper's Sec. 6.6 case study in miniature: an IMDB-like movie lake
//! with one query table and a set of unionable tables. Compare how many new
//! movie titles, languages, and filming locations each method adds to the
//! query table — Starmie / D3L (with and without duplicate removal) vs DUST.
//!
//! Run with `cargo run --release -p dust-core --example imdb_case_study`.

use dust_core::{DustPipeline, PipelineConfig, RetrievalSystem, TupleRetrievalBaseline};
use dust_datagen::{generate_imdb, ImdbConfig};
use dust_table::{Table, Tuple};
use std::collections::HashSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ImdbConfig {
        base_movies: 150,
        lake_tables: 8,
        query_rows: 35,
        row_fraction: 0.25,
        ..ImdbConfig::default()
    };
    let study = generate_imdb(&config);
    let query = study.lake.query(&study.query_name)?.clone();
    println!(
        "IMDB case study: query with {} movies, {} unionable data-lake tables (base corpus of {} movies)",
        query.num_rows(),
        study.lake.num_tables(),
        study.base.num_rows()
    );

    let k = 25;
    let columns = ["Title", "Director", "Filming Location"];

    // Baselines: take tuples from the top-ranked tables of a table-search
    // system in rank order (optionally dropping duplicates).
    let baselines = [
        TupleRetrievalBaseline::new(RetrievalSystem::D3l, false),
        TupleRetrievalBaseline::new(RetrievalSystem::D3l, true),
        TupleRetrievalBaseline::new(RetrievalSystem::Starmie, false),
        TupleRetrievalBaseline::new(RetrievalSystem::Starmie, true),
    ];
    let pipeline = DustPipeline::new(PipelineConfig {
        tables_per_query: config.lake_tables,
        ..PipelineConfig::fast()
    });
    let dust_tuples = pipeline.run(&study.lake, &query, k)?.tuples;

    println!("\nNew distinct values added to the query table (k = {k}):");
    println!(
        "{:<18} {:>8} {:>10} {:>18}",
        "method", "Title", "Director", "Filming Location"
    );
    for baseline in &baselines {
        let tuples = baseline.top_k(&study.lake, &query, k);
        print_row(&baseline.name(), &tuples, &query, &columns);
    }
    print_row("dust", &dust_tuples, &query, &columns);

    println!("\nSample of DUST's suggestions:");
    for tuple in dust_tuples.iter().take(5) {
        let title = tuple
            .value_for("Title")
            .map(|v| v.render().to_string())
            .unwrap_or_default();
        let location = tuple
            .value_for("Filming Location")
            .map(|v| v.render().to_string())
            .unwrap_or_default();
        println!("  {title}  (filmed in {location})");
    }
    Ok(())
}

fn print_row(name: &str, tuples: &[Tuple], query: &Table, columns: &[&str]) {
    let counts: Vec<usize> = columns
        .iter()
        .map(|column| novel_values(tuples, query, column))
        .collect();
    println!(
        "{:<18} {:>8} {:>10} {:>18}",
        name, counts[0], counts[1], counts[2]
    );
}

fn novel_values(tuples: &[Tuple], query: &Table, column: &str) -> usize {
    let existing = query.column_by_name(column).map(|c| c.value_set());
    let novel: HashSet<String> = tuples
        .iter()
        .filter_map(|tuple| tuple.value_for(column)?.normalized())
        .filter(|value| !existing.is_some_and(|e| e.contains(value)))
        .collect();
    novel.len()
}
