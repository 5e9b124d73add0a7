//! Fixture: one baselined hit, one new hit, one stale entry.

impl Index {
    pub fn add_table(&mut self, w: f64) {
        self.weight += w;
        self.norm = self.norm - w;
    }

    pub fn remove_table(&mut self, w: f64) {
        self.weight -= w;
    }
}
