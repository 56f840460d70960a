//! Query hot-path benchmark gate: runs the E14 three-engine sweep
//! (block-max pruned vs. collection-bound pruned vs. exhaustive) and
//! writes machine-readable results to `BENCH_query.json` for CI
//! tracking.
//!
//! Usage:
//!
//! ```text
//! cargo run -p coupling-bench --release --bin bench_query            # full
//! cargo run -p coupling-bench --release --bin bench_query -- --smoke
//! ```
//!
//! The full run ends at the 10^5-document tier where the block-max
//! scaling claim is made; `--smoke` shrinks the corpus so the run
//! finishes in seconds while still checking every gate on its smaller
//! tiers. The process exits nonzero and prints a line containing
//! `REGRESSION` if:
//!
//! * either pruned ranking differs bitwise from the exhaustive ranking
//!   anywhere in the sweep, or on a seeded variant of the base corpus
//!   with about 10 % of its documents tombstoned (where `df` comes from
//!   the maintained dead-postings counts), or
//! * block-max is slower than the collection-bound engine at any tier
//!   beyond a noise allowance (block metadata must pay for itself —
//!   strictest at the largest tier, where skipping matters most).
//!
//! CI greps for the `REGRESSION` marker.

use coupling_bench::exp::e14_topk;
use coupling_bench::workload::WorkloadConfig;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut config = if smoke {
        WorkloadConfig::small()
    } else {
        WorkloadConfig::standard()
    };
    if smoke {
        config.corpus.docs = 10;
    }

    let report = e14_topk::run(&config, !smoke);
    println!("{report}");
    let tombstoned_rankings_match = e14_topk::tombstoned_rankings_match(&config);
    println!(
        "with ~10% of the base corpus tombstoned, rankings bitwise identical: {}",
        if tombstoned_rankings_match {
            "yes"
        } else {
            "NO"
        }
    );

    // Hand-rolled JSON: the workspace deliberately carries no serde.
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"{}\",\n",
        json_escape("query_topk_vs_exhaustive")
    ));
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"query_set\": {},\n", report.query_set));
    out.push_str(&format!(
        "  \"rankings_match\": {},\n",
        report.rankings_match
    ));
    out.push_str(&format!(
        "  \"tombstoned_rankings_match\": {tombstoned_rankings_match},\n"
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, p) in report.sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"docs\": {}, \"k\": {}, \"blockmax_us\": {}, \"collbound_us\": {}, \"exhaustive_us\": {}, \"speedup\": {:.3}, \"blockmax_vs_collbound\": {:.3}}}{}\n",
            p.docs,
            p.k,
            p.blockmax_us,
            p.collbound_us,
            p.exhaustive_us,
            p.speedup,
            p.blockmax_vs_collbound,
            if i + 1 < report.sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");

    // The full-run artifact (with the 10^5-doc tier) is committed;
    // smoke runs write next to it so CI gates don't clobber it.
    let path = std::path::Path::new(if smoke {
        "BENCH_query_smoke.json"
    } else {
        "BENCH_query.json"
    });
    std::fs::write(path, &out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());

    let mut failed = false;
    if !report.rankings_match {
        eprintln!("REGRESSION: pruned top-k ranking differs from exhaustive ranking");
        failed = true;
    }
    if !tombstoned_rankings_match {
        eprintln!(
            "REGRESSION: with ~10% of documents tombstoned, pruned top-k ranking differs from exhaustive ranking"
        );
        failed = true;
    }
    // Block-max must not lose to the collection-bound engine it extends.
    // Timing noise dominates sub-millisecond cells, so small tiers get a
    // flat-plus-relative allowance; the 10^5-document tier — where block
    // skips actually matter, full runs only — is held to a tight
    // relative bound.
    for p in &report.sweep {
        let slack = if p.docs == e14_topk::LARGE_TIER_DOCS {
            p.collbound_us / 10
        } else {
            (p.collbound_us / 4).max(300)
        };
        if p.blockmax_us > p.collbound_us + slack {
            eprintln!(
                "REGRESSION: block-max slower than collection-bound at docs={} k={}: {}us vs {}us (slack {}us)",
                p.docs, p.k, p.blockmax_us, p.collbound_us, slack
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
