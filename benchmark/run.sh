#!/usr/bin/env bash
# Build `serve` and the benchmark, then run the benchmark.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh [--seed N] [--workload W] [--repeat K]          the whole set, K times
#
# `serve` is built by binary name, so moving it to another crate of the
# workspace does not break the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="$(realpath -m "${CARGO_TARGET_DIR:-$root/target}")"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --manifest-path "$root/Cargo.toml" --bin serve 1>&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/dust-benchmark" \
    --serve-bin "$target/release/serve" --out-dir "$here/out" "$@"
