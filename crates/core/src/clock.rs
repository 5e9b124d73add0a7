//! The one sanctioned wall-clock read in the library crates.
//!
//! Query results and snapshot bytes are pure functions of the lake:
//! clippy's `disallowed-methods` and `disallowed-types` lists ban
//! `Instant::now` and `SystemTime` everywhere outside `crates/bench`. Diagnostic stage timings still need a monotonic
//! clock, so they route through this module — a single auditable
//! chokepoint that makes "time never reaches an output byte" a
//! greppable claim instead of a hope.

use std::time::Instant;

/// A monotonic timestamp for diagnostic timings (stage durations,
/// load/assemble telemetry). Never feed the result into ranked output
/// or encoded bytes.
#[allow(clippy::disallowed_methods)] // the sanctioned chokepoint itself
pub fn now() -> Instant {
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
    }
}
