//! The invariant rules, plus the lexical scope scanner they use
//! (function spans and brace depths, derived from masked text).

pub mod delta_float_sub;

use crate::source::SourceFile;

/// One `fn` item's lexical extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    pub name: String,
    /// Line of the `fn` keyword (1-based).
    pub start: usize,
    /// Line of the body's opening `{`.
    pub body_start: usize,
    /// Line of the body's closing `}`.
    pub end: usize,
    /// Brace depth *inside* the body.
    pub body_depth: usize,
}

impl FnSpan {
    pub fn contains(&self, line: usize) -> bool {
        line >= self.body_start && line <= self.end
    }
}

/// Scan a file for function spans and per-line brace depth (depth at the
/// start of each line). Closures and inner blocks stay attributed to the
/// enclosing `fn`, so a closure inside a delta function is checked as
/// part of it. Bodyless trait-method declarations (`fn f();`) are
/// cancelled by their `;` and produce no span.
pub fn scan_scopes(file: &SourceFile) -> (Vec<FnSpan>, Vec<usize>) {
    let mut spans: Vec<FnSpan> = Vec::new();
    let mut open: Vec<FnSpan> = Vec::new();
    let mut pending: Option<(String, usize)> = None;
    let mut depth = 0usize;
    let mut line_depth = Vec::with_capacity(file.masked.len());
    for (idx, ml) in file.masked.iter().enumerate() {
        let line = idx + 1;
        line_depth.push(depth);
        let bytes = ml.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            match b {
                b'{' => {
                    depth += 1;
                    if let Some((name, start)) = pending.take() {
                        open.push(FnSpan {
                            name,
                            start,
                            body_start: line,
                            end: line,
                            body_depth: depth,
                        });
                    }
                    i += 1;
                }
                b'}' => {
                    while let Some(f) = open.last() {
                        if f.body_depth == depth {
                            let mut f = open.pop().expect("non-empty");
                            f.end = line;
                            spans.push(f);
                        } else {
                            break;
                        }
                    }
                    depth = depth.saturating_sub(1);
                    i += 1;
                }
                b';' => {
                    // `fn f(...);` — declaration without a body.
                    pending = None;
                    i += 1;
                }
                b'f' if is_word_at(bytes, i, b"fn") => {
                    i += 2;
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    let name_start = i;
                    while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric())
                    {
                        i += 1;
                    }
                    if i > name_start {
                        pending = Some((ml[name_start..i].to_string(), line));
                    }
                }
                _ => i += 1,
            }
        }
    }
    // Unterminated spans (truncated file): close at EOF.
    for mut f in open {
        f.end = file.masked.len();
        spans.push(f);
    }
    spans.sort_by_key(|f| f.start);
    (spans, line_depth)
}

fn is_word_at(bytes: &[u8], i: usize, word: &[u8]) -> bool {
    if i + word.len() > bytes.len() || &bytes[i..i + word.len()] != word {
        return false;
    }
    let before_ok = i == 0 || !is_ident(bytes[i - 1]);
    let after = i + word.len();
    let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
    before_ok && after_ok
}

fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_bodies_and_skip_declarations() {
        let f = SourceFile::parse(
            "t.rs",
            "trait T {\n    fn decl(&self);\n}\nimpl S {\n    fn add_table(&mut self) {\n        let x = 1;\n    }\n}\n",
        );
        let (spans, depths) = scan_scopes(&f);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "add_table");
        assert_eq!(spans[0].body_start, 5);
        assert_eq!(spans[0].end, 7);
        assert!(spans[0].contains(6));
        assert_eq!(depths[0], 0);
        assert_eq!(depths[5], 2); // inside add_table's body
    }

    #[test]
    fn closures_belong_to_the_enclosing_fn() {
        let f = SourceFile::parse(
            "t.rs",
            "fn outer() {\n    jobs.for_each(|i| {\n        work(i);\n    });\n}\n",
        );
        let (spans, _) = scan_scopes(&f);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "outer");
        assert!(spans[0].contains(3));
    }
}
