#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload sweep|serve-fleet|serve-paged \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr and to
# $CARGO_TARGET_DIR (default .bench_build); the benchmark's last stdout
# line is its JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/optimus-perfbench" "$@"
