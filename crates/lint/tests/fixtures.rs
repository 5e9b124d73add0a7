//! Fixture-driven golden tests: each directory under `tests/fixtures/`
//! is a miniature workspace with violations planted on purpose, plus an
//! `expected.txt` holding the exact diagnostic lines `dust_lint::run`
//! must produce (empty for the `clean` fixture). The engine skips any
//! directory named `fixtures` when linting the real workspace, so these
//! trees never leak into the workspace-clean check.

use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_fixture(name: &str) -> (dust_lint::Report, String) {
    let root = fixture_root(name);
    let report = dust_lint::run(&root).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    let rendered: String = report
        .diagnostics
        .iter()
        .map(|d| format!("{d}\n"))
        .collect();
    (report, rendered)
}

fn assert_golden(name: &str) -> dust_lint::Report {
    let expected = std::fs::read_to_string(fixture_root(name).join("expected.txt"))
        .unwrap_or_else(|e| panic!("fixture {name} has no expected.txt: {e}"));
    let (report, rendered) = run_fixture(name);
    assert_eq!(
        rendered, expected,
        "fixture {name} diverged from its golden output"
    );
    report
}

#[test]
fn delta_float_sub_fixture() {
    let report = assert_golden("delta_float_sub");
    // Only the float `-=` inside remove_document; the integer delta and
    // the read-path subtraction in idf() both pass.
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].line, 11);
}

#[test]
fn pragma_fixture() {
    let report = assert_golden("pragma");
    // The justified allow suppressed its hit; the bare/unknown/typo'd
    // pragmas suppressed nothing and are themselves violations.
    assert_eq!(report.suppressed_by_pragma, 1);
}

#[test]
fn baseline_fixture() {
    let report = assert_golden("baseline_flow");
    assert_eq!(report.suppressed_by_baseline, 1);
}

#[test]
fn clean_fixture_exits_zero() {
    let report = assert_golden("clean");
    assert!(report.is_clean());
}

#[test]
fn update_baseline_round_trips() {
    // Write a delta path with two float subtractions into a scratch tree,
    // grandfather its violations, and verify the regenerated baseline
    // parses back and suppresses exactly the hits it was written from.
    let scratch = std::env::temp_dir().join("dust-lint-baseline-roundtrip");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("crates/search/src")).unwrap();
    let two_hits = "impl Index {\n    pub fn remove_table(&mut self, w: f64) {\n        \
                    self.weight -= w;\n        self.norm = self.norm - w;\n    }\n}\n";
    std::fs::write(scratch.join("crates/search/src/index.rs"), two_hits).unwrap();

    let written = dust_lint::update_baseline(&scratch).unwrap();
    assert_eq!(written, 2);
    let report = dust_lint::run(&scratch).unwrap();
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.suppressed_by_baseline, 2);

    // Shrink-only: after fixing one hit, its entry is stale and reported.
    let fixed = "impl Index {\n    pub fn remove_table(&mut self, w: f64) {\n        \
                 self.weight -= w;\n        self.norm = self.recompute_norm();\n    }\n}\n";
    std::fs::write(scratch.join("crates/search/src/index.rs"), fixed).unwrap();
    let report = dust_lint::run(&scratch).unwrap();
    assert_eq!(report.suppressed_by_baseline, 1);
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].rule, dust_lint::Rule::Baseline);
}
