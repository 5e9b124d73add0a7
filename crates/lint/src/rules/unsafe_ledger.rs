//! Rule `unsafe-ledger` — every `unsafe` is commented and ledgered.
//!
//! Origin: the buffer-reconstruction work in PR 6 (length-cross-checked
//! `from_raw_parts`-style decode paths) and a counting global allocator
//! that a serving experiment binary once carried (since retired; the
//! ledger is empty). Library crates all carry `#![forbid(unsafe_code)]`,
//! but binary targets do not inherit a library's crate attributes, so
//! "we have no unsafe" was only ever true by inspection. This rule makes
//! it mechanical: each `unsafe` token must sit next to a `// SAFETY:`
//! comment *and* be matched by an entry in `lint/unsafe_ledger.toml`, so
//! any new unsafe shows up as an explicit diff to a checked-in file.
//! Stale ledger entries are reported by the engine, keeping the ledger
//! exact in both directions.

use crate::diag::{Diagnostic, Rule};
use crate::ledger::{Ledger, LEDGER_PATH};
use crate::source::SourceFile;

/// How many lines above an `unsafe` token the SAFETY comment may sit.
const SAFETY_WINDOW: usize = 5;

/// Check one file. Returns diagnostics plus the indices of ledger
/// entries consumed by this file (the engine reports unconsumed entries
/// as stale once every file has been scanned).
pub fn check(file: &SourceFile, ledger: &Ledger) -> (Vec<Diagnostic>, Vec<usize>) {
    let mut diags = Vec::new();
    let mut used = Vec::new();
    for line in file.find_word("unsafe") {
        let has_safety = file
            .raw
            .iter()
            .take(line)
            .skip(line.saturating_sub(SAFETY_WINDOW + 1))
            .any(|raw| raw.contains("SAFETY:"));
        if !has_safety {
            diags.push(Diagnostic::new(
                Rule::UnsafeLedger,
                &file.rel,
                line,
                "unsafe without a `// SAFETY:` comment justifying why it is sound",
            ));
        }
        let raw_line = &file.raw[line - 1];
        let entry = ledger.entries.iter().enumerate().find(|(i, e)| {
            !used.contains(i) && e.file == file.rel && raw_line.contains(&e.contains)
        });
        match entry {
            Some((i, _)) => used.push(i),
            None => diags.push(Diagnostic::new(
                Rule::UnsafeLedger,
                &file.rel,
                line,
                format!("unsafe not recorded in {LEDGER_PATH} — add an entry for this site"),
            )),
        }
    }
    (diags, used)
}

/// Engine hook: report ledger entries no site consumed.
pub fn stale_entries(ledger: &Ledger, used: &[usize]) -> Vec<Diagnostic> {
    ledger
        .entries
        .iter()
        .enumerate()
        .filter(|(i, _)| !used.contains(i))
        .map(|(_, e)| {
            Diagnostic::new(
                Rule::UnsafeLedger,
                &e.file,
                0,
                format!(
                    "stale ledger entry (contains `{}`) — no matching unsafe remains; remove it from {LEDGER_PATH}",
                    e.contains
                ),
            )
        })
        .collect()
}

// The `line_has_word` import is exercised through SourceFile::find_word;
// keep a direct assertion that attribute tokens never count as unsafe.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerEntry;
    use crate::source::line_has_word;

    fn ledger(file: &str, contains: &str) -> Ledger {
        Ledger {
            entries: vec![LedgerEntry {
                file: file.into(),
                contains: contains.into(),
                reason: "test".into(),
            }],
        }
    }

    #[test]
    fn commented_and_ledgered_unsafe_passes() {
        let f = SourceFile::parse(
            "crates/b/src/bin/x.rs",
            "// SAFETY: delegates to System\nunsafe impl GlobalAlloc for A {\n}\n",
        );
        let (d, used) = check(
            &f,
            &ledger("crates/b/src/bin/x.rs", "unsafe impl GlobalAlloc"),
        );
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(used, vec![0]);
    }

    #[test]
    fn missing_safety_comment_is_flagged() {
        let f = SourceFile::parse("crates/b/src/bin/x.rs", "unsafe { ptr.read() }\n");
        let (d, _) = check(&f, &ledger("crates/b/src/bin/x.rs", "unsafe {"));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("SAFETY"));
    }

    #[test]
    fn unledgered_unsafe_is_flagged() {
        let f = SourceFile::parse(
            "crates/b/src/bin/x.rs",
            "// SAFETY: fine\nunsafe { ptr.read() }\n",
        );
        let (d, _) = check(&f, &Ledger::default());
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("ledger"));
    }

    #[test]
    fn forbid_attribute_is_not_unsafe() {
        assert!(!line_has_word("#![forbid(unsafe_code)]", "unsafe"));
        let f = SourceFile::parse("crates/b/src/lib.rs", "#![forbid(unsafe_code)]\n");
        let (d, _) = check(&f, &Ledger::default());
        assert!(d.is_empty());
    }

    #[test]
    fn stale_entries_are_reported() {
        let l = ledger("crates/gone.rs", "unsafe fn alloc");
        let d = stale_entries(&l, &[]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("stale"));
    }
}
