//! The repository's benchmark: one seeded, wire-level run of `serve` per
//! workload, plus a traced in-process pass for the per-layer numbers.
//! README.md describes the workloads, the metrics and how they interact.
//!
//! Two ways in, both through `run.sh` (which builds `serve` and this
//! package first):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run; the last
//!   line of standard output is the result object the driver reads;
//! * `[--seed N] [--workload W] [--repeat K]` — the whole set, untraced
//!   and traced, K times; prints every metric, writes `out/results.json`
//!   and, for K ≥ 2, holds the repeats against the benchmark's bounds.

mod alloc;
mod gen;
mod layers;
mod reference;
mod report;
mod server;
mod spec;
mod stats;
mod trace;
mod wire;

use report::{Outcome, Repeat, Suite};
use server::Scratch;
use spec::{Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

struct Cli {
    serve_bin: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    seconds: f64,
    workload: Option<&'static Workload>,
    /// `Some` selects the single-run mode the driver uses.
    trace: Option<bool>,
    repeat: usize,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            serve_bin: PathBuf::new(),
            out_dir: PathBuf::new(),
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            workload: None,
            trace: None,
            repeat: 1,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--serve-bin" => cli.serve_bin = PathBuf::from(value),
                "--out-dir" => cli.out_dir = PathBuf::from(value),
                "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => cli.seconds = value.parse().map_err(|e| bad(&e))?,
                "--repeat" => cli.repeat = value.parse().map_err(|e| bad(&e))?,
                "--workload" => {
                    cli.workload = Some(spec::workload(value).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        bad(&format!("unknown workload (known: {})", known.join(", ")))
                    })?)
                }
                "--trace" => {
                    cli.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if cli.serve_bin.as_os_str().is_empty() || cli.out_dir.as_os_str().is_empty() {
            return Err(
                "run me through benchmark/run.sh (--serve-bin and --out-dir are set there)".into(),
            );
        }
        if cli.seconds.is_nan() || cli.seconds <= 0.0 || cli.repeat == 0 {
            return Err("--seconds and --repeat must be positive".into());
        }
        Ok(cli)
    }

    /// A scratch directory of this process's own under `out/`.
    fn scratch(&self, workload: &Workload, pass: &str) -> Result<Scratch, String> {
        Scratch::create(self.out_dir.join(format!(
            "run-{}-{}-{pass}",
            std::process::id(),
            workload.name
        )))
    }

    /// One untraced run or one traced pass of `workload`, with its metric
    /// table printed.
    fn pass(&self, workload: &Workload, traced: bool) -> Result<Outcome, String> {
        let scratch = self.scratch(workload, if traced { "traced" } else { "untraced" })?;
        let (specs, title, outcome) = if traced {
            let trace_path = self.out_dir.join(format!("trace-{}.jsonl", workload.name));
            let outcome = layers::run(
                workload,
                self.seed,
                &self.serve_bin,
                scratch.path(),
                &trace_path,
            )?;
            let title = format!("traced pass (spans in {})", trace_path.display());
            (&PER_LAYER[..], title, outcome)
        } else {
            let outcome = wire::run(
                workload,
                self.seed,
                self.seconds,
                &self.serve_bin,
                scratch.path(),
            )?;
            let title = format!("untraced, {} s of timed load over TCP", self.seconds);
            (&END_TO_END[..], title, outcome)
        };
        report::print_table(
            &format!("{} · seed {} · {title}", workload.name, self.seed),
            specs,
            &outcome.metrics,
            &outcome.samples,
        )?;
        println!("attempted {}  failed {}", outcome.attempted, outcome.failed);
        for failure in &outcome.failures {
            eprintln!("failed: {failure}");
        }
        Ok(outcome)
    }
}

/// One run for the driver. `Ok(true)` when every answer was correct.
fn single_run(cli: &Cli, workload: &Workload, traced: bool) -> Result<bool, String> {
    let outcome = cli.pass(workload, traced)?;
    let specs = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "{}",
        report::final_line(specs, &outcome.metrics, outcome.attempted, outcome.failed)
    );
    Ok(outcome.failed == 0)
}

/// The whole set, `--repeat` times. `Ok(true)` when every answer was
/// correct and the repeats agree within the bounds.
fn full_set(cli: &Cli) -> Result<bool, String> {
    let mut suite = Suite {
        seed: cli.seed,
        seconds: cli.seconds,
        ..Suite::default()
    };
    for repeat in 1..=cli.repeat {
        for workload in WORKLOADS
            .iter()
            .filter(|w| cli.workload.is_none_or(|only| only.name == w.name))
        {
            println!("-- repeat {repeat} of {}", cli.repeat);
            let (untraced, traced) = (cli.pass(workload, false)?, cli.pass(workload, true)?);
            suite
                .repeats
                .entry(workload.name)
                .or_default()
                .push(Repeat {
                    end_to_end: untraced.metrics,
                    per_layer: traced.metrics,
                    attempted: untraced.attempted + traced.attempted,
                    failed: untraced.failed + traced.failed,
                });
        }
    }
    let results = cli.out_dir.join("results.json");
    std::fs::write(&results, suite.to_json(&WORKLOADS))
        .map_err(|e| format!("{}: {e}", results.display()))?;
    println!("results written to {}", results.display());
    let violations = suite.check_repeats();
    for violation in &violations {
        eprintln!("repeat check: {violation}");
    }
    let failed: u64 = suite.repeats.values().flatten().map(|r| r.failed).sum();
    Ok(failed == 0 && violations.is_empty())
}

fn run(args: &[String]) -> Result<bool, String> {
    let cli = Cli::parse(args)?;
    ensure_file(&cli.serve_bin)?;
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    match (cli.trace, cli.workload) {
        (Some(traced), Some(workload)) => single_run(&cli, workload, traced),
        (Some(_), None) => Err("--trace needs --workload".into()),
        (None, _) => full_set(&cli),
    }
}

fn ensure_file(path: &Path) -> Result<(), String> {
    if path.is_file() {
        Ok(())
    } else {
        Err(format!(
            "{} is not a file — build `serve` first",
            path.display()
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every guard (children, scratch directories) has dropped by the time
    // `run` returns, whichever way it returns.
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
