//! The grandfather file, `lint/baseline.toml`.
//!
//! A baseline entry suppresses one existing violation so a new rule can
//! land before every historical hit is fixed. Matching is by rule, file,
//! and a **snippet** of the offending line — not a line number — so
//! unrelated edits above the hit don't invalidate the baseline. Each
//! entry consumes at most one diagnostic, and an entry that consumes
//! nothing is itself reported (`baseline` rule): the file can only ever
//! shrink, never rot.
//!
//! `cargo run -p dust-lint -- --update-baseline` rewrites the file from
//! the current set of unsuppressed violations.

use crate::diag::{Diagnostic, Rule};
use crate::toml;
use std::fs;
use std::path::Path;

/// Where the baseline lives, relative to the workspace root.
pub const BASELINE_PATH: &str = "lint/baseline.toml";

/// Longest snippet recorded per entry; a prefix keeps matching after the
/// truncation because matching is by substring.
const SNIPPET_LEN: usize = 80;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub rule: Rule,
    pub file: String,
    pub snippet: String,
}

#[derive(Debug, Default)]
pub struct Baseline {
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Partition `diags` into (kept, suppressed-count) and report stale
    /// entries. Consumes each entry at most once, in file order.
    pub fn apply(
        &self,
        diags: Vec<Diagnostic>,
        line_text: impl Fn(&str, usize) -> String,
    ) -> (Vec<Diagnostic>, usize) {
        let mut used = vec![false; self.entries.len()];
        let mut kept = Vec::new();
        let mut suppressed = 0usize;
        for d in diags {
            let text = line_text(&d.file, d.line);
            let matched = self.entries.iter().enumerate().find(|(i, e)| {
                !used[*i] && e.rule == d.rule && e.file == d.file && text.contains(&e.snippet)
            });
            match matched {
                Some((i, _)) => {
                    used[i] = true;
                    suppressed += 1;
                }
                None => kept.push(d),
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            if !used[i] {
                kept.push(Diagnostic::new(
                    Rule::Baseline,
                    &e.file,
                    0,
                    format!(
                        "stale baseline entry for {} (snippet `{}`) — remove it from {BASELINE_PATH}",
                        e.rule.id(),
                        e.snippet
                    ),
                ));
            }
        }
        (kept, suppressed)
    }
}

/// Load the baseline; missing file = empty baseline.
pub fn load(root: &Path) -> Result<Baseline, String> {
    let path = root.join(BASELINE_PATH);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Baseline::default()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let doc = toml::parse(&text).map_err(|e| format!("{BASELINE_PATH}: {e}"))?;
    let mut entries = Vec::new();
    for t in doc.tables_named("entry") {
        let rule = t
            .get_str("rule")
            .and_then(Rule::from_id)
            .ok_or_else(|| format!("{BASELINE_PATH}: entry with missing/unknown rule"))?;
        let file = t
            .get_str("file")
            .ok_or_else(|| format!("{BASELINE_PATH}: entry missing file"))?
            .to_string();
        let snippet = t
            .get_str("snippet")
            .ok_or_else(|| format!("{BASELINE_PATH}: entry missing snippet"))?
            .to_string();
        entries.push(Entry {
            rule,
            file,
            snippet,
        });
    }
    Ok(Baseline { entries })
}

/// Serialize entries for the current violations.
pub fn render(diags: &[Diagnostic], line_text: impl Fn(&str, usize) -> String) -> String {
    let mut out = String::from(
        "# dust-lint baseline — grandfathered violations.\n\
         # Each entry suppresses exactly one hit (matched by rule + file + line\n\
         # snippet). Stale entries are themselves violations: this file only\n\
         # shrinks. Regenerate with `cargo run -p dust-lint -- --update-baseline`.\n",
    );
    for d in diags {
        let text = line_text(&d.file, d.line);
        let snippet: String = text.trim().chars().take(SNIPPET_LEN).collect();
        out.push_str(&format!(
            "\n[[entry]]\nrule = \"{}\"\nfile = \"{}\"\nsnippet = \"{}\"\n",
            d.rule.id(),
            toml::escape(&d.file),
            toml::escape(&snippet)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: Rule, file: &str, line: usize) -> Diagnostic {
        Diagnostic::new(rule, file, line, "msg")
    }

    #[test]
    fn matching_entry_suppresses_once() {
        let b = Baseline {
            entries: vec![Entry {
                rule: Rule::DeltaFloatSubtraction,
                file: "a.rs".into(),
                snippet: "w -= idf".into(),
            }],
        };
        let diags = vec![
            diag(Rule::DeltaFloatSubtraction, "a.rs", 3),
            diag(Rule::DeltaFloatSubtraction, "a.rs", 9),
        ];
        let (kept, suppressed) = b.apply(diags, |_, _| "self.w -= idf;".into());
        assert_eq!(suppressed, 1);
        // Second hit survives: one entry, one suppression.
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 9);
    }

    #[test]
    fn stale_entry_is_reported() {
        let b = Baseline {
            entries: vec![Entry {
                rule: Rule::DeltaFloatSubtraction,
                file: "gone.rs".into(),
                snippet: "whatever".into(),
            }],
        };
        let (kept, suppressed) = b.apply(Vec::new(), |_, _| String::new());
        assert_eq!(suppressed, 0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, Rule::Baseline);
        assert!(kept[0].message.contains("stale"));
    }

    #[test]
    fn render_parses_back() {
        let diags = vec![diag(Rule::DeltaFloatSubtraction, "crates/x/src/a.rs", 4)];
        let text = render(&diags, |_, _| {
            "    let d = new_idf - old_idf; // \"q\"".into()
        });
        std::fs::create_dir_all(std::env::temp_dir().join("dust-lint-bl/lint")).unwrap();
        let root = std::env::temp_dir().join("dust-lint-bl");
        std::fs::write(root.join(BASELINE_PATH), &text).unwrap();
        let b = load(&root).unwrap();
        assert_eq!(b.entries.len(), 1);
        assert_eq!(b.entries[0].rule, Rule::DeltaFloatSubtraction);
        assert!(b.entries[0].snippet.contains("new_idf - old_idf"));
        assert!(b.entries[0].snippet.contains("\"q\""));
    }
}
