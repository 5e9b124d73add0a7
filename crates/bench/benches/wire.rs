//! Criterion microbenchmark for the decode step of `serve`'s
//! `handle_request`: `json::parse` of one request line plus `parse_csv` of
//! its inline table. The lines are the benchmark's `add_table` requests
//! (`benchmark/src/gen.rs`): the first lake table of the `NARROW` and
//! `WIDE` lake (`benchmark/src/spec.rs`, seed 1447) as escaped CSV, 1.3 KB
//! and 11.3 KB. Before timing, the decoded string must be the CSV the line
//! was built from and the decoded table must equal `Table::from_rows` over
//! that CSV's records — a failed guard aborts the bench.
//!
//! ## Where a request's decode time went
//!
//! Time per line: the range of the bench's medians over three alternating
//! before/after runs on a shared 2-vCPU Xeon VM. Before = the decoder at
//! `060c083`, which re-validated the rest of the line as UTF-8 for every
//! plain character of a string (quadratic in the line) and copied the CSV
//! records once more before typing them; after = one `push_str` per run
//! between escapes, the records typed from a borrowed slice, and the null
//! and bool words matched without lower-casing a copy of each cell.
//!
//! | line | before | after |
//! |---|---|---|
//! | `decode/narrow_add_table` (1.3 KB) | 105–136 µs | 27–35 µs |
//! | `decode/wide_add_table` (11.3 KB) | 3.20–4.42 ms | 0.22–0.27 ms |

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dust_bench::json::{self, JsonValue};
use dust_datagen::BenchmarkConfig;
use dust_table::{parse_csv, write_csv, CsvOptions, Table};

/// The benchmark's `add_table` line for the first lake table of its
/// `NARROW` or `WIDE` lake, the CSV it carries, and the table the CSV's
/// records type to: `Table::from_rows` over its header and rendered rows.
fn add_table_line(wide: bool) -> (String, String, Table) {
    let (name, num_domains, lake_tables_per_domain, base_rows, min_row_fraction, max_row_fraction) =
        if wide {
            ("wide", 4, 5, 480, 0.34, 0.36)
        } else {
            ("narrow", 12, 16, 50, 0.32, 0.38)
        };
    let lake = BenchmarkConfig {
        name: name.into(),
        num_domains,
        lake_tables_per_domain,
        base_rows,
        queries_per_domain: 2,
        min_row_fraction,
        max_row_fraction,
        min_columns: usize::MAX,
        seed: 1447,
        ..BenchmarkConfig::santos()
    }
    .generate()
    .lake;
    let table = lake.tables().next().expect("the lake has tables");
    let csv = write_csv(table, CsvOptions::default());
    let line = format!(
        "{{\"id\":\"m1\",\"mode\":\"add_table\",\"name\":\"{}\",\"csv\":\"{}\"}}",
        json::escape(table.name()),
        json::escape(&csv)
    );
    let rows: Vec<Vec<String>> = table
        .rows()
        .map(|row| {
            row.values()
                .iter()
                .map(|v| v.render().into_owned())
                .collect()
        })
        .collect();
    let typed = Table::from_rows(table.name(), table.headers(), &rows).unwrap();
    (line, csv, typed)
}

/// `handle_request`'s decode step: the request object, then its table.
fn decode(line: &str) -> Table {
    let request = json::parse(line).expect("the line is JSON");
    let name = request.get("name").and_then(JsonValue::as_str).unwrap();
    let csv = request.get("csv").and_then(JsonValue::as_str).unwrap();
    parse_csv(name, csv, CsvOptions::default()).expect("the CSV parses")
}

fn bench_decode(c: &mut Criterion) {
    for (shape, wide) in [("narrow", false), ("wide", true)] {
        let (line, csv, typed) = add_table_line(wide);
        let request = json::parse(&line).unwrap();
        let carried = request.get("csv").and_then(JsonValue::as_str);
        assert_eq!(carried, Some(csv.as_str()), "{shape}: the CSV string");
        let decoded = format!("{:?}", decode(&line));
        assert_eq!(decoded, format!("{typed:?}"), "{shape}: the decoded table");
        c.bench_function(format!("decode/{shape}_add_table"), |b| {
            b.iter(|| decode(black_box(&line)));
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_decode
}
criterion_main!(benches);
