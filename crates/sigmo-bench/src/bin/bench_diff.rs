//! Regression gate against the committed `BENCH_*.json` files: re-runs
//! every bench of the [`sigmo_bench::gate`] table fresh (same scale,
//! seeds and configurations, with each runner's own invariant asserts)
//! and compares field by field. An exact field must reproduce its
//! committed token, a wall must stay within `committed × 1.25 + 10 ms`,
//! and a key missing on either side fails. Each fresh rendering is
//! written under `target/bench_diff/` for inspection.
//!
//! Run from the repo root (`scripts/bench_diff.sh` does).

use sigmo_bench::gate::{self, Field, BENCHES};
use sigmo_bench::BenchScale;
use std::path::Path;

/// Where fresh renderings go.
const OUT_DIR: &str = "target/bench_diff";

fn main() {
    let scale = BenchScale::from_env();
    std::fs::create_dir_all(OUT_DIR).unwrap_or_else(|e| panic!("create {OUT_DIR}: {e}"));
    let mut failures: Vec<String> = Vec::new();
    for bench in BENCHES {
        let committed = match std::fs::read_to_string(bench.file)
            .map_err(|e| e.to_string())
            .and_then(|text| gate::parse(&text))
        {
            Ok(pairs) => pairs,
            Err(e) => {
                failures.push(format!("{}: {e}", bench.file));
                continue;
            }
        };
        // A scale mismatch is reported without paying for the run.
        let scale_field = Field::scale(scale);
        if let Some((_, token)) = committed.iter().find(|(k, _)| k == "scale") {
            if *token != scale_field.token {
                failures.push(format!(
                    "{}: scale: this run is {} but the file was recorded at {token}; \
                     set SIGMO_BENCH_SCALE to match or re-record it",
                    bench.file, scale_field.token
                ));
                continue;
            }
        }

        let fresh = (bench.run)(scale);
        let out = Path::new(OUT_DIR).join(bench.file);
        std::fs::write(&out, gate::render(&fresh))
            .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
        let cmp = gate::compare(&committed, &fresh);
        println!(
            "{:<36} {:>12} {:>12} {:>12}  status",
            format!("{} wall", bench.name),
            "committed_s",
            "fresh_min_s",
            "limit_s"
        );
        for w in &cmp.walls {
            println!(
                "{:<36} {:>12.6} {:>12.6} {:>12.6}  {}",
                w.key,
                w.committed,
                w.fresh,
                w.limit,
                if w.ok() { "ok" } else { "REGRESSED" }
            );
        }
        println!(
            "{}: {} exact fields match, {} failure(s)\n",
            bench.name,
            cmp.exact_matched,
            cmp.failures.len()
        );
        failures.extend(cmp.failures.iter().map(|f| format!("{}: {f}", bench.file)));
    }

    if failures.is_empty() {
        println!("bench_diff: no regression");
    } else {
        eprintln!("bench_diff: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
