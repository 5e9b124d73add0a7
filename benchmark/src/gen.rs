//! Seeded inputs: the lake's CSV files and the clients' request streams.
//! Everything `serve` receives is made here from `--seed`; the program
//! never sees the seed.

use crate::spec::{LakeShape, K, MUTATED_TABLES, PROBE_ROWS, QUERIES_PER_DOMAIN};
use dust_bench::json::escape;
use dust_datagen::BenchmarkConfig;
use dust_table::{write_csv, CsvOptions, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedCsv {
    pub name: String,
    pub csv: String,
}

/// The generated inputs of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Lake tables in name order (the order `serve --lake-dir` loads them).
    pub lake: Vec<NamedCsv>,
    /// Distinct query tables, sent inline with every diverse query.
    pub queries: Vec<NamedCsv>,
    /// The first [`PROBE_ROWS`] rows of each query table: the `similar` probe.
    pub probes: Vec<String>,
    /// Indices into `lake` of the tables the writer removes and re-adds.
    pub mutated: Vec<usize>,
}

impl Inputs {
    pub fn generate(shape: &LakeShape, seed: u64) -> Inputs {
        let generated = BenchmarkConfig {
            name: shape.name.to_string(),
            num_domains: shape.domains,
            lake_tables_per_domain: shape.tables_per_domain,
            base_rows: shape.base_rows,
            queries_per_domain: QUERIES_PER_DOMAIN,
            min_row_fraction: shape.min_row_fraction,
            max_row_fraction: shape.max_row_fraction,
            min_columns: usize::MAX,
            seed,
            ..BenchmarkConfig::santos()
        }
        .generate()
        .lake;
        let named = |t: &Table| NamedCsv {
            name: t.name().to_string(),
            csv: write_csv(t, CsvOptions::default()),
        };
        let lake: Vec<NamedCsv> = generated.tables().map(named).collect();
        let queries: Vec<NamedCsv> = generated.queries().map(named).collect();
        let probes = generated
            .queries()
            .map(|q| {
                let rows: Vec<usize> = (0..q.num_rows().min(PROBE_ROWS)).collect();
                let probe = q.select(&rows, q.name()).expect("rows are in range");
                write_csv(&probe, CsvOptions::default())
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4D55_5441);
        let mut mutated: Vec<usize> = Vec::new();
        while mutated.len() < MUTATED_TABLES.min(lake.len()) {
            let pick = rng.gen_range(0..lake.len());
            if !mutated.contains(&pick) {
                mutated.push(pick);
            }
        }
        Inputs {
            lake,
            queries,
            probes,
            mutated,
        }
    }

    /// Write one `<table>.csv` per lake table, the layout `--lake-dir` reads.
    pub fn write_lake_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for table in &self.lake {
            std::fs::write(dir.join(format!("{}.csv", table.name)), &table.csv)?;
        }
        Ok(())
    }

    pub fn lake_csv_bytes(&self) -> u64 {
        self.lake.iter().map(|t| t.csv.len() as u64).sum()
    }

    /// The lake table generation `generation` has removed, if any: the
    /// writer's `j`-th mutation removes `mutated[(j / 2) % M]` when `j` is
    /// even and adds it back when `j` is odd, so every even generation holds
    /// the full lake.
    pub fn removed_at(&self, generation: u64) -> Option<usize> {
        (generation % 2 == 1)
            .then(|| self.mutated[((generation - 1) / 2) as usize % self.mutated.len()])
    }

    /// The JSONL request line for `op`.
    pub fn request_line(&self, id: &str, op: Op) -> String {
        match op {
            Op::Query(q) => format!(
                "{{\"id\":\"{id}\",\"csv\":\"{}\",\"k\":{K}}}",
                escape(&self.queries[q].csv)
            ),
            Op::Similar(q) => format!(
                "{{\"id\":\"{id}\",\"mode\":\"similar\",\"csv\":\"{}\",\"k\":{K}}}",
                escape(&self.probes[q])
            ),
            Op::Mutation(j) => {
                let table = &self.lake[self.removed_at(j | 1).expect("odd generation")];
                if j % 2 == 0 {
                    format!(
                        "{{\"id\":\"{id}\",\"mode\":\"remove_table\",\"table\":\"{}\"}}",
                        escape(&table.name)
                    )
                } else {
                    format!(
                        "{{\"id\":\"{id}\",\"mode\":\"add_table\",\"name\":\"{}\",\"csv\":\"{}\"}}",
                        escape(&table.name),
                        escape(&table.csv)
                    )
                }
            }
        }
    }
}

/// One request of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Diverse query with query table `.0` inline.
    Query(usize),
    /// `mode:"similar"` with the probe of query table `.0`.
    Similar(usize),
    /// The writer's `.0`-th mutation (0-based) since the server started.
    Mutation(u64),
}

/// A client's endless, seeded request stream. Client 0 is the only writer
/// and repeats *mutation, similar*; every other client is a reader and
/// repeats *query, query, similar, query*. The writer keeps one core busy
/// with single-threaded work, so the reader's parallel matrix builds meet
/// the same contention on every run; when both clients sent queries, the
/// two drifted in and out of phase and whole runs came out 25 % apart.
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    writer: bool,
    queries: usize,
    step: u64,
    mutations: u64,
}

impl OpStream {
    pub fn new(inputs: &Inputs, seed: u64, client: usize) -> OpStream {
        OpStream {
            rng: StdRng::seed_from_u64(seed ^ (0x434C_4900 + client as u64)),
            writer: client == 0,
            queries: inputs.queries.len(),
            step: 0,
            mutations: 0,
        }
    }

    /// Mutations handed out so far.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// The next mutation, outside the cycle (used to pad the WAL tail).
    pub fn next_mutation(&mut self) -> Op {
        self.mutations += 1;
        Op::Mutation(self.mutations - 1)
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let step = self.step;
        self.step += 1;
        let q = self.rng.gen_range(0..self.queries);
        Some(match (self.writer, step) {
            (true, _) if step.is_multiple_of(2) => self.next_mutation(),
            (false, _) if step % 4 != 2 => Op::Query(q),
            _ => Op::Similar(q),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NARROW;

    fn lines(inputs: &Inputs, seed: u64, client: usize) -> Vec<String> {
        OpStream::new(inputs, seed, client)
            .take(40)
            .enumerate()
            .map(|(i, op)| inputs.request_line(&format!("c{client}-{i}"), op))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = Inputs::generate(&NARROW, 7);
        let b = Inputs::generate(&NARROW, 7);
        let c = Inputs::generate(&NARROW, 8);
        assert_eq!(a, b);
        assert_ne!(a.lake, c.lake);
        assert_ne!(a.queries, c.queries);
        for client in 0..2 {
            assert_eq!(lines(&a, 7, client), lines(&b, 7, client));
            assert_ne!(lines(&a, 7, client), lines(&c, 8, client));
        }
        assert_ne!(lines(&a, 7, 0), lines(&a, 7, 1));
    }

    #[test]
    fn writer_alternates_remove_and_add_of_the_same_table() {
        let inputs = Inputs::generate(&NARROW, 3);
        let mutations: Vec<String> = OpStream::new(&inputs, 3, 0)
            .filter(|op| matches!(op, Op::Mutation(_)))
            .take(2 * MUTATED_TABLES + 2)
            .map(|op| inputs.request_line("m", op))
            .collect();
        for (j, line) in mutations.iter().enumerate() {
            let table = &inputs.lake[inputs.mutated[(j / 2) % MUTATED_TABLES]].name;
            let mode = if j % 2 == 0 {
                "remove_table"
            } else {
                "add_table"
            };
            assert!(
                line.contains(mode) && line.contains(table.as_str()),
                "{j}: {line}"
            );
        }
        assert_eq!(inputs.removed_at(0), None);
        assert_eq!(inputs.removed_at(1), Some(inputs.mutated[0]));
        assert_eq!(inputs.removed_at(2), None);
        assert_eq!(inputs.removed_at(3), Some(inputs.mutated[1]));
        assert!(OpStream::new(&inputs, 3, 1)
            .take(50)
            .all(|op| !matches!(op, Op::Mutation(_))));
    }
}
