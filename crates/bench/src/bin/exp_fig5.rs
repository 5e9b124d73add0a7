//! Figure 5 — benchmark statistics.
//!
//! Regenerates the corpus-statistics table: for every benchmark, the number
//! of query tables / columns / tuples, the number of data-lake tables /
//! columns / tuples, and the average number of unionable tables per query.
//!
//! Run with `cargo run --release -p dust-bench --bin exp_fig5`
//! (set `DUST_SCALE=full` for the larger corpora).

use dust_bench::report::Report;
use dust_bench::setup::scale;
use dust_datagen::BenchmarkConfig;

fn main() {
    let scale = scale();
    let configs: Vec<(&str, BenchmarkConfig)> = vec![
        ("TUS-Sampled", scale.tus_sampled_config()),
        ("SANTOS", scale.santos_config()),
        ("UGEN-V1", scale.ugen_config()),
    ];

    let mut report = Report::new("Figure 5: benchmarks used in the experiments").headers([
        "Benchmark",
        "Q tables",
        "Q columns",
        "Q tuples",
        "DL tables",
        "DL columns",
        "DL tuples",
        "Avg unionable/query",
    ]);

    for (name, config) in configs {
        let generated = config.generate();
        let lake = generated.lake;
        let q = lake.query_stats();
        let d = lake.lake_stats();
        report.row([
            name.to_string(),
            q.tables.to_string(),
            q.columns.to_string(),
            q.tuples.to_string(),
            d.tables.to_string(),
            d.columns.to_string(),
            d.tuples.to_string(),
            format!("{:.0}", lake.ground_truth().avg_unionable_per_query()),
        ]);
    }
    report.note(format!(
        "synthetic regeneration at scale {:?}; paper-scale originals: TUS 125/1.6K/557K vs 5044/55.5K/9.6M (188), \
         SANTOS 50/615/1.07M vs 550/6.3K/3.8M (14), UGEN-V1 50/400/550 vs 1000/8K/10K (10)",
        scale
    ));
    report.print();
}
