//! Fixture: pragma parsing — good, bare, typo'd, and unknown-rule.

impl Corpus {
    pub fn remove_document(&mut self, w: f64) {
        // dust-lint: allow(delta-float-subtraction) -- fixture exercises a justified waiver
        self.weight -= w;
        // dust-lint: allow(delta-float-subtraction)
        self.weight -= w;
        // dust-lint: allow(made-up-rule) -- no such rule
        self.weight -= w;
        // dust-lint: allw(delta-float-subtraction) -- typo in the keyword
        self.weight -= w;
    }
}
