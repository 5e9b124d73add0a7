//! Fixture: nothing to report. A float subtraction quoted in comments
//! and strings, or outside a delta path, must not trip the rule.

pub fn describe() -> &'static str {
    "self.weight -= w — quoted, not executed"
}

pub fn remove_document(weight: f64, w: f64) -> f64 {
    weight - w
}
