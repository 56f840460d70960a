#!/usr/bin/env bash
# Build the benchmark and run it. Every argument goes to the program:
#
#   benchmark/run.sh                       all five workloads, tracing off
#   benchmark/run.sh --trace 1             the ladder-traced run of each
#   benchmark/run.sh --workload ingest --seed 43 --seconds 8 --trace 0
#   benchmark/run.sh --smoke               small corpus, 200 ops, all checks
#
# The last line of standard output is the result of the (last) workload
# as one JSON object; the exit code is nonzero if any answer was wrong.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The driver names the target directory; on its own the benchmark builds
# into benchmark/target, never into the repository's.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export BENCH_OUT_DIR="${BENCH_OUT_DIR:-$here/out}"
export BENCH_GIT_REV="${BENCH_GIT_REV:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
exec "$CARGO_TARGET_DIR/release/repo-benchmark" "$@"
