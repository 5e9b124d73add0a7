//! The engine: walk the workspace, run every rule on every file, and
//! apply pragmas and the baseline.
//!
//! The walk is rooted at the workspace root and covers `crates/`, the
//! root package's `src/`, `tests/`, `examples/`, and `benches/`. It
//! skips build output (`target/`), vendored stand-ins (`vendor/`),
//! hidden directories, and any directory named `fixtures` — fixture
//! trees contain violations *on purpose* and are linted by pointing
//! `run` at the fixture root instead.

use crate::baseline::{self, Baseline, BASELINE_PATH};
use crate::diag::Diagnostic;
use crate::pragma;
use crate::rules::delta_float_sub;
use crate::source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories under the root that may contain lintable Rust sources.
const WALK_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures"];

/// Outcome of one lint run.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed violations, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    pub files_checked: usize,
    pub suppressed_by_pragma: usize,
    pub suppressed_by_baseline: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `(rule-id, hits)` pairs for every rule with at least one hit.
    pub fn per_rule(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for d in &self.diagnostics {
            match counts.iter_mut().find(|(id, _)| *id == d.rule.id()) {
                Some((_, n)) => *n += 1,
                None => counts.push((d.rule.id(), 1)),
            }
        }
        counts
    }
}

/// Everything one walk of the tree produced, before baseline handling.
struct Scan {
    /// Rule violations that survived pragmas.
    check_diags: Vec<Diagnostic>,
    /// Malformed-pragma diagnostics — never suppressible.
    meta_diags: Vec<Diagnostic>,
    files: Vec<SourceFile>,
    suppressed_by_pragma: usize,
}

fn scan(root: &Path) -> Result<Scan, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in WALK_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(&rel, &text));
    }

    let mut check_diags = Vec::new();
    let mut meta_diags = Vec::new();
    let mut suppressed_by_pragma = 0usize;

    for file in &files {
        let (pragmas, pragma_diags) = pragma::collect(file);
        meta_diags.extend(pragma_diags);
        for d in delta_float_sub::check(file) {
            if pragmas.allows(d.line, d.rule) {
                suppressed_by_pragma += 1;
            } else {
                check_diags.push(d);
            }
        }
    }

    Ok(Scan {
        check_diags,
        meta_diags,
        files,
        suppressed_by_pragma,
    })
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Text of `file:line`, for baseline snippet matching (empty for
/// file-level diagnostics and anything out of range).
fn line_text(files: &[SourceFile]) -> impl Fn(&str, usize) -> String + '_ {
    move |file: &str, line: usize| {
        files
            .iter()
            .find(|f| f.rel == file)
            .and_then(|f| line.checked_sub(1).and_then(|i| f.raw.get(i)))
            .cloned()
            .unwrap_or_default()
    }
}

/// Lint the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let scan = scan(root)?;
    let bl: Baseline = baseline::load(root)?;
    let files_checked = scan.files.len();

    // Rule violations are baselinable; meta diagnostics (malformed
    // pragmas) must be fixed.
    let (mut kept, suppressed_by_baseline) = bl.apply(scan.check_diags, line_text(&scan.files));
    kept.extend(scan.meta_diags);
    kept.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.id()).cmp(&(b.file.as_str(), b.line, b.rule.id()))
    });

    Ok(Report {
        diagnostics: kept,
        files_checked,
        suppressed_by_pragma: scan.suppressed_by_pragma,
        suppressed_by_baseline,
    })
}

/// Rewrite `lint/baseline.toml` to grandfather every current violation.
/// Returns the number of entries written.
pub fn update_baseline(root: &Path) -> Result<usize, String> {
    let scan = scan(root)?;
    let mut baselinable: Vec<Diagnostic> = scan.check_diags;
    baselinable.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.id()).cmp(&(b.file.as_str(), b.line, b.rule.id()))
    });
    let text = baseline::render(&baselinable, line_text(&scan.files));
    let path = root.join(BASELINE_PATH);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(baselinable.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Rule;

    fn mini_root(files: &[(&str, &str)]) -> PathBuf {
        // Deterministic per-test-name temp dirs; no wall clock, no RNG.
        let name = files
            .first()
            .map(|(p, _)| p.replace('/', "_"))
            .unwrap_or_default();
        let root = std::env::temp_dir().join(format!("dust-lint-engine-{name}"));
        let _ = fs::remove_dir_all(&root);
        for (rel, text) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        root
    }

    #[test]
    fn clean_tree_reports_clean() {
        let root = mini_root(&[(
            "crates/x/src/lib.rs",
            "pub fn id(x: u32) -> u32 {\n    x\n}\n",
        )]);
        let report = run(&root).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.files_checked, 1);
    }

    #[test]
    fn violation_pragma_and_baseline_flow() {
        let root = mini_root(&[(
            "crates/search/src/index.rs",
            "impl I {\n    pub fn remove_table(&mut self, w: f64) {\n        self.weight -= w;\n    }\n}\n",
        )]);
        let report = run(&root).unwrap();
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, Rule::DeltaFloatSubtraction);

        // Grandfather it, then the tree is clean-with-suppression.
        let n = update_baseline(&root).unwrap();
        assert_eq!(n, 1);
        let report = run(&root).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed_by_baseline, 1);

        // Fix the violation: the baseline entry is now stale.
        fs::write(
            root.join("crates/search/src/index.rs"),
            "impl I {\n    pub fn remove_table(&mut self) {\n        self.weight = self.recompute_weight();\n    }\n}\n",
        )
        .unwrap();
        let report = run(&root).unwrap();
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, Rule::Baseline);
    }

    #[test]
    fn fixtures_dirs_are_skipped() {
        let root = mini_root(&[
            (
                "crates/z/tests/fixtures/crates/embed/src/tokenize.rs",
                "fn remove_document(&mut self, w: f64) { self.weight -= w; }\n",
            ),
            ("crates/z/src/lib.rs", "pub fn ok() {}\n"),
        ]);
        let report = run(&root).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.files_checked, 1);
    }

    #[test]
    fn per_rule_counts_hits() {
        let root = mini_root(&[(
            "crates/search/src/d3l.rs",
            "impl I {\n    fn remove(&mut self, w: f64) {\n        self.weight -= w;\n        // dust-lint: allow(delta-float-subtraction)\n        self.norm = self.norm - w;\n    }\n}\n",
        )]);
        let report = run(&root).unwrap();
        let per_rule = report.per_rule();
        assert!(
            per_rule.contains(&("delta-float-subtraction", 2)),
            "{per_rule:?}"
        );
        assert!(per_rule.contains(&("pragma", 1)), "{per_rule:?}");
    }
}
