//! Per-kernel profiling summary of one full pipeline run — the executor's
//! equivalent of an `nsys`/`rocprof` summary table (supports §5.1.3's
//! resource-utilization analysis). The run is one rep of the
//! `BENCH_pipeline.json` workload ([`sigmo_bench::pipeline_bench`]).

use sigmo_bench::{pipeline_bench, BenchScale};
use sigmo_device::render_table;

fn main() {
    let scale = BenchScale::from_env();
    let run = pipeline_bench::run_once(scale);
    let report = &run.report;
    println!("# Pipeline kernel profile ({scale:?} scale, V100S model)\n");
    print!("{}", render_table(&run.kernels));
    println!("\nmatches: {}", report.total_matches);
    let (t, ms) = (&report.timings, |d: std::time::Duration| {
        d.as_secs_f64() * 1e3
    });
    println!(
        "data side: CSR-GO {:.3} ms, signatures {:.3} ms, pair signatures {:.3} ms, attributes {:.3} ms",
        ms(t.data.csr_build),
        ms(t.data.signatures),
        ms(t.data.pairs),
        ms(t.data.attrs),
    );
    println!(
        "memory: bitmap {:.1} MB ({}%), graphs {:.1} MB, signatures {:.1} MB",
        report.bitmap_bytes as f64 / 1e6,
        (100 * report.bitmap_bytes)
            / (report.bitmap_bytes + report.graph_bytes + report.signature_bytes).max(1),
        report.graph_bytes as f64 / 1e6,
        report.signature_bytes as f64 / 1e6,
    );
}
