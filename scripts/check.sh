#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails
# fastest. Run from the repository root (or anywhere inside it).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> one copy of each storage primitive and of the byte codec; one index, reader, snapshot format and write shape; one commit point for a saved system; one attempt pool; one experiment harness"
# A count, so it repeats exactly: the CRC-32 polynomial and the
# definitions of crc32, the varint codec and the CRC-trailed file
# helpers live in crates/storage alone, and so does the byte codec
# every binary format reads and writes through (storage::codec: no
# second cursor struct, no private put_*/get_*/read_str/write_str
# helpers, no take_u64 closure); ShardedIndex, ShardedReader
# and the per-shard snapshot directory (read with persisted block
# headers, PostingsList::from_raw_blocks) are the only index, reader and
# on-disk format; and an enqueued task is the only write request, so no
# deprecated shape and no task-completion callback remain. The IRS
# content epoch is the one validity rule of buffered results and cached
# statistics: no epoch means "never cache" (so no `epoch == 0` test), and
# Collection's mutators invalidate nothing by hand (set_result_limit's
# call, for a change the epoch does not see, is the one left). A saved
# system commits through one storage::codec manifest: the `.meta` text
# dialect (its version line, its mode/derivation codecs and its line
# escaping) stays deleted, and the generation helpers every multi-file
# snapshot commits by (next_generation, cleanup_stale_generations) are
# defined in crates/storage alone.
# crates/shims stand in for external crates and are exempt.
copies=$(grep -rnE --include='*.rs' --exclude-dir=storage --exclude-dir=shims \
    '0xedb8_?8320|fn (crc32|read_varint|write_varint|atomic_write|read_verified)\b|struct InvertedIndex\b|trait IndexReader\b|fn save_collection_flat\b|fn from_raw\(|#\[(allow\()?deprecated|\bTaskWaiter\b|fn enqueue_with_waiter\b|struct (Dec|Rd)\b|fn (put_u32|put_u64|put_f64|put_str|get_varint|get_bytes|get_f64|read_str|write_str)\b|take_u64\b|epoch == 0\b|coupling-meta-v1|fn (mode|derivation)_(to|from)_meta\b|fn (un)?escape_line\b|fn (next_generation|cleanup_stale_generations)\b' crates || true)
if [ -n "$copies" ]; then
    echo "$copies"
    echo "REGRESSION: a storage primitive, byte-codec or generation helper outside crates/storage, a second index, reader or snapshot format, a second write shape, an epoch that means \"never cache\", or the .meta text dialect"
    exit 1
fi
# `experiments` is the one harness of the paper's numbers, and
# crates/bench/tests/paper_claims.rs pins them: no second harness times
# the same workloads (no criterion bench, no `[[bench]]` target).
benches=$( (grep -rnE --include='*.rs' 'criterion_(main|group)!' crates tests examples benchmark/src
    find . -name Cargo.toml -not -path '*/target/*' -print0 | xargs -0 grep -nF '[[bench]]') || true)
if [ -n "$benches" ]; then
    echo "$benches"
    echo "REGRESSION: a second benchmark harness beside experiments"
    exit 1
fi
invalidations=$(grep -c 'self\.buffer\.invalidate_all()' crates/coupling/src/collection.rs || true)
if [ "$invalidations" -gt 1 ]; then
    grep -n 'self\.buffer\.invalidate_all()' crates/coupling/src/collection.rs
    echo "REGRESSION: Collection invalidates its result buffer by hand; the IRS epoch already retires every entry a mutation outdates"
    exit 1
fi
# Replica attempts run on coupling::pool's reused threads and a read
# waits on every partition from the calling thread: the fan-out itself
# starts no thread of its own.
threads=$(grep -nE 'thread::(spawn|scope|Builder)\b' \
    crates/coupling/src/remote.rs crates/coupling/src/partition.rs || true)
if [ -n "$threads" ]; then
    echo "$threads"
    echo "REGRESSION: the replica fan-out starts threads outside the attempt pool"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> bench smoke (query hot path, writes BENCH_query_smoke.json)"
# Exits nonzero and prints REGRESSION if the pruned top-k ranking ever
# differs from the exhaustive ranking, or if the engine scores more
# candidates exactly than the count the binary records (a count, so it
# repeats exactly).
cargo run -q -p coupling-bench --release --bin bench_query -- --smoke

echo "==> E5 planner gate (mixed-query planner does the cheaper order's structural work)"
# Count-based, no timing: panics if, at any point of the selectivity
# sweep, the planner's structural_checks differ from
# min(forced Independent, forced IrsFirst) or the three answers differ.
cargo run -q -p coupling-bench --release --bin experiments -- e5

echo "==> repo benchmark smoke (all five workloads' correctness checks over TCP)"
# Exits nonzero if any verified answer differs bit-for-bit from the
# exhaustive reference, an acknowledged write is lost, or a scattered
# merge diverges from single-node. Timings at this size mean nothing.
bash benchmark/run.sh --smoke

echo "==> repo benchmark unit tests"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."
