//! `dust-lint:` pragmas — the in-place escape hatch, living in ordinary
//! line comments.
//!
//! `// dust-lint: allow(<rule-id>) -- <reason>` suppresses that rule on
//! this line (trailing comment) or on the next line (standalone comment).
//! The reason is **mandatory**: an allow without a justification is
//! itself a `pragma` violation, so the tree can never accumulate bare
//! waivers.
//!
//! Anything else that starts with `dust-lint:` is a `pragma` violation — a typo'd pragma that silently did nothing would
//! be worse than no pragma at all.

use crate::diag::{Diagnostic, Rule};
use crate::source::SourceFile;

/// All pragmas of one file, resolved to the lines they apply to.
#[derive(Debug, Default)]
pub struct Pragmas {
    /// `(line, rule)` pairs a diagnostic may be suppressed by.
    allows: Vec<(usize, Rule, String)>,
}

impl Pragmas {
    /// Is `rule` allowed (with a reason) on `line`?
    pub fn allows(&self, line: usize, rule: Rule) -> bool {
        self.allows.iter().any(|(l, r, _)| *l == line && *r == rule)
    }
}

/// Extract every pragma from a file's comments. Returns the resolved
/// pragmas plus diagnostics for malformed ones.
pub fn collect(file: &SourceFile) -> (Pragmas, Vec<Diagnostic>) {
    let mut pragmas = Pragmas::default();
    let mut diags = Vec::new();
    for (idx, comment) in file.comments.iter().enumerate() {
        let line = idx + 1;
        // A pragma comment *starts* with the marker (`// dust-lint: ...`);
        // doc comments merely mentioning `dust-lint:` carry a `/`/`!`
        // doc-marker or prose first and are never parsed as pragmas.
        let Some(body) = comment.trim_start().strip_prefix("dust-lint:") else {
            continue;
        };
        let body = body.trim();
        // A standalone comment line applies to the line below; a trailing
        // comment applies to its own line.
        let standalone = file
            .masked
            .get(idx)
            .map(|m| m.trim().is_empty())
            .unwrap_or(true);
        let target = if standalone { line + 1 } else { line };
        match parse_body(body) {
            Ok((rule, reason)) => pragmas.allows.push((target, rule, reason)),
            Err(msg) => diags.push(Diagnostic::new(Rule::Pragma, &file.rel, line, msg)),
        }
    }
    (pragmas, diags)
}

fn parse_body(body: &str) -> Result<(Rule, String), String> {
    if let Some(rest) = body.strip_prefix("allow(") {
        let (id, rest) = rest
            .split_once(')')
            .ok_or("malformed pragma: missing `)` in `allow(<rule>)`")?;
        let rule = Rule::from_id(id.trim())
            .filter(|r| Rule::CHECKS.contains(r))
            .ok_or_else(|| format!("unknown rule `{}` in allow pragma", id.trim()))?;
        let reason = rest
            .trim()
            .strip_prefix("--")
            .map(str::trim)
            .unwrap_or_default();
        if reason.is_empty() {
            return Err(format!(
                "allow({}) needs a justification: `-- <reason>`",
                rule.id()
            ));
        }
        return Ok((rule, reason.to_string()));
    }
    Err(format!(
        "unrecognised dust-lint pragma `{body}` (expected `allow(<rule>) -- <reason>`)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse("t.rs", text)
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let f = file("w -= idf; // dust-lint: allow(delta-float-subtraction) -- test fixture\n");
        let (p, d) = collect(&f);
        assert!(d.is_empty());
        assert!(p.allows(1, Rule::DeltaFloatSubtraction));
        assert!(!p.allows(2, Rule::DeltaFloatSubtraction));
    }

    #[test]
    fn standalone_allow_applies_to_next_line() {
        let f =
            file("// dust-lint: allow(delta-float-subtraction) -- recomputed below\nw -= idf;\n");
        let (p, d) = collect(&f);
        assert!(d.is_empty());
        assert!(p.allows(2, Rule::DeltaFloatSubtraction));
        assert!(!p.allows(1, Rule::DeltaFloatSubtraction));
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let f = file("x(); // dust-lint: allow(delta-float-subtraction)\n");
        let (p, d) = collect(&f);
        assert!(!p.allows(1, Rule::DeltaFloatSubtraction));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::Pragma);
        assert!(d[0].message.contains("justification"));
    }

    #[test]
    fn unknown_rule_is_a_violation() {
        let (_, d) = collect(&file("// dust-lint: allow(made-up) -- because\n"));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unknown rule"));
    }

    #[test]
    fn meta_rules_cannot_be_allowed() {
        let (_, d) = collect(&file("// dust-lint: allow(pragma) -- sneaky\n"));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn garbage_pragma_is_flagged() {
        let (_, d) = collect(&file(
            "// dust-lint: allw(delta-float-subtraction) -- oops\n",
        ));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unrecognised"));
    }
}
