//! Rule identities and the diagnostic they emit.

use std::fmt;

/// Every check the linter performs: the one project invariant no
/// compiler or clippy check expresses, and two meta-checks keeping the
/// escape hatches themselves honest.
// The derived PartialOrd orders unit variants — no floats — so the
// workspace partial_cmp ban does not apply here.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Float subtraction inside a delta/mutation function — integer df
    /// deltas are the only sanctioned subtraction there.
    DeltaFloatSubtraction,
    /// Malformed `dust-lint:` pragma (unknown rule, missing reason, …).
    Pragma,
    /// Stale `lint/baseline.toml` entry that no longer matches anything.
    Baseline,
}

impl Rule {
    /// The invariant checks a pragma may name in `allow(..)`.
    pub const CHECKS: [Rule; 1] = [Rule::DeltaFloatSubtraction];

    /// Stable kebab-case id used in output, pragmas, and the baseline.
    pub fn id(self) -> &'static str {
        match self {
            Rule::DeltaFloatSubtraction => "delta-float-subtraction",
            Rule::Pragma => "pragma",
            Rule::Baseline => "baseline",
        }
    }

    /// Inverse of [`Rule::id`] over every rule (including the meta rules,
    /// so baseline files can round-trip any diagnostic).
    pub fn from_id(id: &str) -> Option<Rule> {
        let all = [Rule::DeltaFloatSubtraction, Rule::Pragma, Rule::Baseline];
        all.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation: rule, location, and a message that tells the reader
/// what the sanctioned alternative is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: Rule,
    /// Workspace-relative path with forward slashes (`crates/...`).
    pub file: String,
    /// 1-based; 0 for file-level diagnostics (stale baseline entries).
    pub line: usize,
    pub message: String,
}

impl Diagnostic {
    pub fn new(
        rule: Rule,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.rule.id(),
            self.file,
            self.line,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for rule in Rule::CHECKS {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("pragma"), Some(Rule::Pragma));
        assert_eq!(Rule::from_id("nonsense"), None);
    }

    #[test]
    fn display_is_grep_friendly() {
        let d = Diagnostic::new(
            Rule::DeltaFloatSubtraction,
            "crates/x/src/lib.rs",
            7,
            "recompute the value",
        );
        assert_eq!(
            d.to_string(),
            "delta-float-subtraction crates/x/src/lib.rs:7 recompute the value"
        );
    }
}
