//! `dust-lint` — a workspace-native invariant checker.
//!
//! The workspace's invariants are enforced by the compiler and clippy
//! wherever one of them can express the rule: the lock order is a type
//! (`dust_core::sync`), `unsafe_code` is forbidden workspace-wide, and
//! clippy's `disallowed-methods` / `disallowed-types` carry the NaN-safe
//! ranking, wall-clock and hasher-order bans. One rule has no such check,
//! because it depends on which functions form the mutation path rather
//! than on a type or a method: `dust-lint` enforces it.
//!
//! It is deliberately **not** a `syn`-based analyzer: the workspace builds
//! offline against vendored stand-in dependencies, so the linter is a
//! hand-rolled line-and-token scanner with zero dependencies that
//! compiles in well under a second and runs as the first CI step. String
//! literals and comments are masked before any pattern matching, so a
//! rule name quoted in a doc comment (or in this crate's own source)
//! never trips the rule itself.
//!
//! # Rules
//!
//! | id | invariant |
//! |----|-----------|
//! | `delta-float-subtraction` | integer-only deltas on mutation paths |
//!
//! # Escape hatches
//!
//! A violation can be justified in place with a pragma **with a mandatory
//! reason**:
//!
//! ```text
//! // dust-lint: allow(delta-float-subtraction) -- recomputed right after
//! ```
//!
//! or grandfathered in `lint/baseline.toml` (see [`baseline`]). Stale
//! baseline entries are themselves violations, so the file shrinks
//! monotonically.

pub mod baseline;
pub mod diag;
pub mod engine;
pub mod pragma;
pub mod rules;
pub mod source;
pub mod toml;

pub use diag::{Diagnostic, Rule};
pub use engine::{run, update_baseline, Report};
