//! End-to-end benchmark of the SIGMo workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <screen|serve-cold|serve-hot> --seed <n> --seconds <s> --trace <0|1> \
//!     [--workers <n>]
//! ```
//!
//! The timed loops run the executor at `--workers` worker threads, one by
//! default; see README.md for why not at the program's default count.
//!
//! Prints a human-readable report, then one JSON result line. With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! the per-layer ledger. See README.md for what each workload and metric
//! is for.

mod inputs;
mod ledger;
mod screen;
mod serve;
mod util;

use sigmo_serve::WorkloadConfig;
use std::collections::BTreeMap;
use util::{median, quantile, ratio, result_json, Metric};

/// Workload sizes. `rounds` is fixed by `--seconds` and a nominal round
/// time, so operation counts repeat exactly across runs of one seed.
pub struct Sizes {
    /// Executor worker threads during the run.
    pub workers: usize,
    pub corpus: usize,
    /// Timed set-ups: before the run (serve), or before each round (screen).
    pub setups: usize,
    pub rounds: usize,
    /// screen: molecules per screening job, and per engine chunk.
    pub job: usize,
    pub chunk: usize,
    /// serve: closed-loop steps per round and the hot working-set size.
    pub steps_per_round: usize,
    pub working_set: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Screen,
    ServeCold,
    ServeHot,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "screen" => Some(Self::Screen),
            "serve-cold" => Some(Self::ServeCold),
            "serve-hot" => Some(Self::ServeHot),
            _ => None,
        }
    }

    /// Full sizes. The nominal round times were measured on a 2-vCPU
    /// x86-64 host at one worker. At `--seconds 10` every
    /// workload yields well over `MIN_LATENCY_SAMPLES` operations.
    fn sizes(self, seconds: u64, workers: usize) -> Sizes {
        let rounds = |nominal_s: f64| ((seconds as f64 / nominal_s).round() as usize).max(2);
        match self {
            Self::Screen => Sizes {
                workers,
                corpus: 1500,
                // Set-ups before each round.
                setups: 2,
                // A round is one pass over the corpus.
                rounds: rounds(1.0),
                job: 6,
                chunk: 6,
                steps_per_round: 0,
                working_set: 0,
            },
            Self::ServeCold => Sizes {
                workers,
                corpus: 240,
                setups: 5,
                rounds: rounds(0.22),
                job: 0,
                chunk: 0,
                steps_per_round: 10,
                working_set: 0,
            },
            Self::ServeHot => Sizes {
                workers,
                corpus: 240,
                setups: 5,
                rounds: rounds(0.16),
                job: 0,
                chunk: 0,
                steps_per_round: 400,
                // The molecule pool of the server's own simulator
                // workload, which fits the result cache.
                working_set: WorkloadConfig::default().mol_pool,
            },
        }
    }

    /// The determinism self-test's tiny instance.
    fn tiny(self, workers: usize) -> Sizes {
        Sizes {
            workers,
            corpus: 40,
            setups: 1,
            rounds: 2,
            job: 8,
            chunk: 4,
            steps_per_round: 3,
            working_set: 8,
        }
    }

    fn run(self, seed: u64, sizes: &Sizes, tracer: &mut Option<Tracer>) -> Outcome {
        match self {
            Self::Screen => screen::run(seed, sizes, tracer),
            Self::ServeCold => serve::run(serve::Kind::Cold, seed, sizes, tracer),
            Self::ServeHot => serve::run(serve::Kind::Hot, seed, sizes, tracer),
        }
    }
}

/// Timed operations a run needs so that its p90 has 100 beyond it.
const MIN_LATENCY_SAMPLES: usize = 1000;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// A failure with no diagnosed cause, or a broken harness invariant.
    pub unexplained: u64,
    /// Failure cause -> (count, first few operations).
    pub causes: BTreeMap<String, (u64, Vec<String>)>,
    pub setup_s: Vec<f64>,
    /// Molecules per busy second of each round, in round order.
    pub round_rates: Vec<f64>,
    /// Every timed operation's latency, in order.
    pub latencies_ms: Vec<f64>,
    /// Molecules answered and matches reported, over every operation.
    pub molecules: usize,
    pub matches: u64,
    /// Process (user, system) CPU ticks before and after the timed loop.
    pub cpu: ((u64, u64), (u64, u64)),
    /// Counts that must not depend on the worker count.
    pub fingerprint: String,
}

impl Outcome {
    /// Counts a failed operation under `cause`.
    pub fn fail(&mut self, what: &str, cause: String, unexplained: bool) {
        self.failed += 1;
        self.unexplained += u64::from(unexplained);
        let entry = self.causes.entry(cause).or_default();
        entry.0 += 1;
        if entry.1.len() < 3 {
            entry.1.push(what.to_string());
        }
    }

    /// Records a broken check that is not an operation.
    pub fn broken(&mut self, what: String) {
        self.unexplained += 1;
        self.causes.entry(what).or_default().0 += 1;
    }

    /// Takes over another outcome's failures (warm-up operations are not
    /// counted as attempted, but a wrong answer there still shows).
    pub fn absorb_failures(&mut self, other: Outcome) {
        self.unexplained += other.unexplained;
        for (cause, (n, examples)) in other.causes {
            self.causes
                .entry(format!("warm-up: {cause}"))
                .or_insert((n, examples));
        }
    }

    /// The share of process CPU time spent in the kernel.
    pub fn sys_cpu_frac(&self) -> f64 {
        let ((u0, s0), (u1, s1)) = self.cpu;
        ratio((s1 - s0) as f64, ((u1 - u0) + (s1 - s0)) as f64)
    }
}

/// The traced run's per-layer metrics and kernel reconciliation table.
#[derive(Default)]
pub struct Tracer {
    pub metrics: Vec<Metric>,
    pub table: String,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} needs a whole number"))
    };
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: num("trace")? == 1,
        workers: match flags.get("workers") {
            Some(_) => num("workers")?.max(1) as usize,
            None => 1,
        },
    })
}

/// Runs the tiny instance at one and at two workers; every count in the
/// fingerprint must agree.
fn self_test(workload: Workload, seed: u64) -> Result<(), String> {
    let prints: Vec<String> = [1, 2]
        .into_iter()
        .map(|workers| {
            util::with_workers(workers, || {
                let mut tracer = Some(Tracer::default());
                let out = workload.run(seed, &workload.tiny(workers), &mut tracer);
                format!(
                    "{} unexplained={} ok_frac={}",
                    out.fingerprint,
                    out.unexplained,
                    ratio((out.attempted - out.failed) as f64, out.attempted as f64)
                )
            })
        })
        .collect();
    println!("determinism self-test (workers 1 and 2): {}", prints[0]);
    if prints[0] == prints[1] {
        Ok(())
    } else {
        Err(format!(
            "self-test differs across worker counts:\n  1: {}\n  2: {}",
            prints[0], prints[1]
        ))
    }
}

fn quartiles(v: &[f64]) -> String {
    format!(
        "q1 {:.4} / median {:.4} / q3 {:.4} (n={})",
        quantile(v, 0.25),
        quantile(v, 0.5),
        quantile(v, 0.75),
        v.len()
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Every launch of the run reads this; nothing else has started yet.
    std::env::set_var("RAYON_NUM_THREADS", args.workers.to_string());
    println!(
        "workers {} (the program's default is {})",
        args.workers,
        util::default_workers()
    );
    let probe_start = util::probe_ms();
    let self_test = self_test(args.workload, args.seed);

    let sizes = args.workload.sizes(args.seconds, args.workers);
    let steal0 = util::steal_ticks();
    let mut tracer = args.trace.then(Tracer::default);
    let mut out = args.workload.run(args.seed, &sizes, &mut tracer);
    let steal1 = util::steal_ticks();
    let probe_end = util::probe_ms();
    if let Err(e) = self_test {
        out.broken(e);
    }
    if out.latencies_ms.len() < MIN_LATENCY_SAMPLES {
        out.broken(format!(
            "only {} latency samples; p90 needs 100 beyond it",
            out.latencies_ms.len()
        ));
    }

    println!("harness.probe_ms start {probe_start:.3} end {probe_end:.3}");
    println!(
        "host steal share during the run {:.3}",
        ratio((steal1.0 - steal0.0) as f64, (steal1.1 - steal0.1) as f64)
    );
    println!("setup_s samples {:?}", out.setup_s);
    println!("round mol/s {}", quartiles(&out.round_rates));
    println!("latency ms {}", quartiles(&out.latencies_ms));
    println!(
        "operations {} failed {} unexplained {}",
        out.attempted, out.failed, out.unexplained
    );
    for (cause, (n, examples)) in &out.causes {
        println!("  {n} x {cause}: {}", examples.join("; "));
    }

    let metrics = match tracer {
        Some(tr) => {
            println!("{}", tr.table);
            fill_missing(tr.metrics)
        }
        None => vec![
            Metric::new("mol_per_s", median(&out.round_rates), "mol/s"),
            Metric::new("latency_p50_ms", quantile(&out.latencies_ms, 0.5), "ms"),
            Metric::new("latency_p90_ms", quantile(&out.latencies_ms, 0.9), "ms"),
            Metric::new("setup_s", median(&out.setup_s), "s"),
            Metric::new(
                "ok_frac",
                ratio((out.attempted - out.failed) as f64, out.attempted as f64),
                "frac",
            ),
            Metric::new("peak_rss_mb", util::status_kb("VmHWM") / 1024.0, "MB"),
        ],
    };
    println!(
        "{}",
        result_json(out.unexplained == 0, out.attempted, out.failed, &metrics)
    );
}

/// Adds, as 0, the per-layer metrics of layers the workload never calls.
fn fill_missing(mut got: Vec<Metric>) -> Vec<Metric> {
    for (name, unit) in PER_LAYER_ZERO_DEFAULTS {
        if !got.iter().any(|m| m.name == *name) {
            got.push(Metric::new(*name, 0.0, unit));
        }
    }
    got
}

/// Per-layer metrics only the serve workloads produce.
const PER_LAYER_ZERO_DEFAULTS: &[(&str, &str)] = &[
    ("mol.canonical_code_us", "us"),
    ("index.digest_us", "us"),
    ("index.screen_us", "us"),
    ("index.prune_frac", "frac"),
    ("index.open_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.step_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.executed_per_step", "count"),
    ("serve.batches_per_step", "count"),
    ("serve.plan_hit_frac", "frac"),
    ("serve.mol_hit_frac", "frac"),
    ("serve.result_hit_frac", "frac"),
    ("serve.remove_us", "us"),
    ("serve.rejected", "count"),
    ("serve.rss_growth_kb_per_kstep", "KB"),
];
