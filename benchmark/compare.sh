#!/usr/bin/env bash
# Compare two sets of runs: benchmark/compare.sh A.jsonl B.jsonl
#
# A and B are history files (run.sh --history FILE): one record per run
# and metric. For every workload and end-to-end metric this prints both
# medians with their quartiles, the ratio B/A, and a verdict against the
# metric's bound in BENCHMARK.json:
#
#   same        B's median is within the bound of A's
#   better      B's median beats A's by more than the bound
#   worse       B's median is worse than A's by more than the bound
#   unresolved  a side's quartile spread is wider than the bound, so the
#               runs cannot tell
#
# Exit code 1 if any row is worse or unresolved.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 A.jsonl B.jsonl" >&2; exit 2; }
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here/../BENCHMARK.json" "$1" "$2" <<'PY'
import collections, json, statistics, sys

spec = json.load(open(sys.argv[1]))
metrics = {m["name"]: m for m in spec["end_to_end"]}


def load(path):
    runs = collections.defaultdict(list)
    for line in open(path):
        r = json.loads(line)
        if r["trace"] == 0 and r["metric"] in metrics:
            runs[(r["workload"], r["metric"])].append(r["value"])
    return runs


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return statistics.median(values), q1, q3


a, b = load(sys.argv[2]), load(sys.argv[3])
bad = False
print(f"{'workload':<11} {'metric':<10} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
      f"{'B/A':>7} {'bound':>6}  verdict")
for w in [w["name"] for w in spec["workloads"]]:
    for name, m in metrics.items():
        if (w, name) not in a or (w, name) not in b:
            continue
        (am, aq1, aq3), (bm, bq1, bq3) = summary(a[(w, name)]), summary(b[(w, name)])
        spread = max((aq3 - aq1) / am, (bq3 - bq1) / bm)
        gain = (bm - am) / am if m["better"] == "higher" else (am - bm) / am
        if spread > m["bound"]:
            verdict = "unresolved"
        elif gain < -m["bound"]:
            verdict = "worse"
        elif gain > m["bound"]:
            verdict = "better"
        else:
            verdict = "same"
        bad |= verdict in ("worse", "unresolved")
        cell = lambda med, q1, q3: f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
        print(f"{w:<11} {name:<10} {cell(am, aq1, aq3):>34} {cell(bm, bq1, bq3):>34} "
              f"{bm / am:>7.3f} {m['bound']:>6}  {verdict}  ({m['unit']}, {m['better']} is better; "
              f"n={len(a[(w, name)])}/{len(b[(w, name)])})")
sys.exit(1 if bad else 0)
PY
