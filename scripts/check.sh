#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails
# fastest. Run from the repository root (or anywhere inside it).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> one copy of each storage primitive; one index, reader and snapshot format"
# A count, so it repeats exactly: the CRC-32 polynomial and the
# definitions of crc32, the varint codec and the CRC-trailed file
# helpers live in crates/storage alone, and ShardedIndex, ShardedReader
# and the per-shard snapshot directory (read with persisted block
# headers, PostingsList::from_raw_blocks) are the only index, reader and
# on-disk format. crates/shims stand in for external crates and are
# exempt.
copies=$(grep -rnE --include='*.rs' --exclude-dir=storage --exclude-dir=shims \
    '0xedb8_?8320|fn (crc32|read_varint|write_varint|atomic_write|read_verified)\b|struct InvertedIndex\b|trait IndexReader\b|fn save_collection_flat\b|fn from_raw\(' crates || true)
if [ -n "$copies" ]; then
    echo "$copies"
    echo "REGRESSION: a storage primitive outside crates/storage, or a second index, reader or snapshot format"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q -p system-tests --test recovery (crash recovery)"
cargo test -q -p system-tests --test recovery

echo "==> bench smoke (query hot path, writes BENCH_query_smoke.json)"
# Exits nonzero and prints REGRESSION if the pruned top-k ranking ever
# differs from the exhaustive ranking.
cargo run -q -p coupling-bench --release --bin bench_query -- --smoke

echo "==> E5 planner gate (mixed-query planner does the cheaper order's structural work)"
# Count-based, no timing: panics if, at any point of the selectivity
# sweep, the planner's structural_checks differ from
# min(forced Independent, forced IrsFirst) or the three answers differ.
cargo run -q -p coupling-bench --release --bin experiments -- e5

echo "==> bench smoke (serve front-end, writes BENCH_serve.json)"
# Exits nonzero and prints REGRESSION if 8 concurrent clients fail to
# beat 1 client by more than 2x throughput, or if any request fails.
cargo run -q -p coupling-bench --release --bin bench_serve -- --smoke

echo "==> loopback smoke (wire protocol over real sockets)"
cargo test -q -p system-tests --test net --test wire

echo "==> chaos pass (replica failover under seeded network faults)"
# Fixed-seed chaos: black-holed/reset/truncated/delayed connections via
# the in-process ChaosProxy. Deterministic — a failure here reproduces.
cargo test -q -p system-tests --test failover

echo "==> bench smoke (replica fan-out, writes BENCH_replica.json)"
# Exits nonzero and prints REGRESSION if any hedged read fails, the
# degraded-phase p99 exceeds hedge_delay + attempt_timeout (+slack), or
# black-holing the preferred replica never fires a hedge.
cargo run -q -p coupling-bench --release --bin bench_replica -- --smoke

echo "==> bench smoke (partitioned scatter/gather, writes BENCH_shard.json)"
# Exits nonzero and prints REGRESSION if any merged result diverges
# bit-for-bit from a single-node evaluation, any scattered read fails,
# or losing a partition fails warmed queries instead of serving stale.
cargo run -q -p coupling-bench --release --bin bench_shard -- --smoke

echo "==> bench smoke (wire protocol, writes BENCH_net.json)"
# Exits nonzero and prints REGRESSION if any request fails over the
# wire, any response has the wrong shape, or loopback throughput falls
# below 10% of in-process (catching protocol-level stalls).
cargo run -q -p coupling-bench --release --bin bench_net -- --smoke

echo "==> bench smoke (task batching, writes BENCH_tasks.json)"
# Exits nonzero and prints REGRESSION if batched ingest fails to beat
# the unbatched drain by more than 2x, any task fails, the batched
# drain merges nothing, or an UpdateText batch through a journaled
# eager executor costs other than 2 propagation-journal syncs (a count,
# so it repeats exactly).
cargo run -q -p coupling-bench --release --bin bench_tasks -- --smoke

echo "==> repo benchmark smoke (all five workloads' correctness checks over TCP)"
# Exits nonzero if any verified answer differs bit-for-bit from the
# exhaustive reference, an acknowledged write is lost, or a scattered
# merge diverges from single-node. Timings at this size mean nothing.
bash benchmark/run.sh --smoke

echo "==> repo benchmark unit tests"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> task-queue pass (batching, crash replay, torn ledgers)"
cargo test -q -p system-tests --test tasks

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."
