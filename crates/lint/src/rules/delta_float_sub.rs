//! Rule `delta-float-subtraction` — integer deltas only on mutation
//! paths.
//!
//! Origin: PR 5's documented no-float-subtraction rule. Incremental
//! `add_table`/`remove_table` must leave the session **bit-identical** to
//! a fresh rebuild. Integer document-frequency deltas are exact inverses;
//! float subtraction is not (`(a + b) - b != a` in general), so anything
//! float-valued and lake-global must be *recomputed*, never adjusted by
//! subtraction. This rule guards the delta modules: inside their
//! mutation functions, a binary `-`/`-=` that looks float-typed is
//! flagged.
//!
//! "Looks float-typed" is a heuristic, not a type check (this linter is
//! a token scanner by design): the statement line must mention a float
//! (an `f32`/`f64` token, a float literal, or one of the module's
//! float-valued vocabulary words like `idf`/`weight`/`norm`). Integer
//! subtraction (`df - 1`, `self.documents -= 1`) passes untouched. A justified
//! exception takes a `// dust-lint: allow(delta-float-subtraction)`
//! pragma.

use crate::diag::{Diagnostic, Rule};
use crate::rules::scan_scopes;
use crate::source::{line_has_word, SourceFile};
use std::collections::BTreeSet;

/// The delta/mutation modules (where PR 5's rule applies).
const SCOPE_FILES: &[&str] = &[
    "crates/core/src/session.rs",
    "crates/embed/src/tokenize.rs",
    "crates/search/src/lib.rs",
    "crates/search/src/index.rs",
    "crates/search/src/starmie.rs",
    "crates/search/src/d3l.rs",
];

/// Mutation-path functions within those modules.
const DELTA_FNS: &[&str] = &[
    "add_table",
    "remove_table",
    "add_document",
    "remove_document",
    "insert",
    "remove",
];

/// Identifiers that are float-valued throughout these modules.
const FLOAT_VOCAB: &[&str] = &[
    "idf",
    "tfidf",
    "weight",
    "score",
    "dist",
    "norm",
    "sim",
    "mean",
    "embedding",
];

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !SCOPE_FILES.contains(&file.rel.as_str()) {
        return Vec::new();
    }
    let (spans, _) = scan_scopes(file);
    let mut lines = BTreeSet::new();
    for span in spans
        .iter()
        .filter(|s| DELTA_FNS.contains(&s.name.as_str()))
    {
        for line in span.body_start..=span.end.min(file.masked.len()) {
            let ml = &file.masked[line - 1];
            if has_binary_minus(ml) && looks_float(ml) {
                lines.insert(line);
            }
        }
    }
    lines
        .into_iter()
        .map(|line| {
            Diagnostic::new(
                Rule::DeltaFloatSubtraction,
                &file.rel,
                line,
                "float subtraction on a delta path: recompute the value instead — only \
                 exact integer deltas keep mutation bit-identical to a rebuild (PR 5 rule)",
            )
        })
        .collect()
}

/// Any `-` used as a binary (or compound-assign) operator?
fn has_binary_minus(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'-' {
            continue;
        }
        // `->` return arrows are not subtraction.
        if bytes.get(i + 1) == Some(&b'>') {
            continue;
        }
        // Binary iff something value-like ends right before it.
        let prev = bytes[..i].iter().rev().find(|b| !b.is_ascii_whitespace());
        match prev {
            Some(&p) if p == b')' || p == b']' || p == b'_' || p.is_ascii_alphanumeric() => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Does the line mention anything float-typed?
fn looks_float(line: &str) -> bool {
    if line_has_word(line, "f32") || line_has_word(line, "f64") {
        return true;
    }
    // Float literal: digit '.' digit.
    let bytes = line.as_bytes();
    for i in 1..bytes.len().saturating_sub(1) {
        if bytes[i] == b'.' && bytes[i - 1].is_ascii_digit() && bytes[i + 1].is_ascii_digit() {
            return true;
        }
    }
    let lower = line.to_ascii_lowercase();
    FLOAT_VOCAB.iter().any(|w| lower.contains(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_scope(body: &str) -> SourceFile {
        SourceFile::parse(
            "crates/embed/src/tokenize.rs",
            &format!("impl C {{\n    pub fn remove_document(&mut self) {{\n{body}    }}\n}}\n"),
        )
    }

    #[test]
    fn integer_delta_passes() {
        let f = in_scope("        self.documents -= 1;\n        let d = df - 1;\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn float_subtraction_is_flagged() {
        let f = in_scope("        let delta = new_idf - old_idf;\n");
        assert_eq!(check(&f).len(), 1);
        let f = in_scope("        total -= w as f64;\n");
        assert_eq!(check(&f).len(), 1);
        let f = in_scope("        let x = a - 0.5;\n");
        assert_eq!(check(&f).len(), 1);
    }

    #[test]
    fn only_delta_fns_are_scoped() {
        let f = SourceFile::parse(
            "crates/embed/src/tokenize.rs",
            "fn idf(&self) -> f64 {\n    let x = self.a_idf - self.b_idf;\n    x\n}\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn other_files_are_out_of_scope() {
        let f = SourceFile::parse(
            "crates/search/src/signals.rs",
            "fn remove(&mut self) { let u = ma - da; }\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn arrows_and_unary_minus_are_not_subtraction() {
        let f = in_scope("        let w: f64 = -1.0;\n        let g = |x: f64| -> f64 { x };\n");
        assert!(check(&f).is_empty());
    }
}
