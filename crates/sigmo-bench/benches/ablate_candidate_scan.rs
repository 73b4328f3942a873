//! Ablation: word-parallel candidate kernels vs the per-bit reference.
//!
//! Measures the three hot paths the word-parallel rework touched —
//! candidate initialization (label-bucketed vs full row scan), signature
//! refinement (the filter pass's class-major refine stage at radius 1, where every row
//! with a non-empty signature is dirty, vs per-row), and set-bit
//! enumeration (`trailing_zeros` word walk vs per-column `get`) — against
//! the `sigmo_core::naive` per-bit oracle on the same filter-dominated
//! synthetic workload the other filter benches use. Refinement is timed
//! from an identical pre-seeded snapshot (restored with
//! `CandidateBitmap::copy_from`) so seeding cost does not dilute the
//! comparison. After the criterion groups, `main` prints a summary with
//! explicit speedup ratios; the scan-dominated paths (refine, enumerate)
//! must come out ≥2× faster word-parallel. Initialization is reported
//! too, but both variants issue the same atomic `set` per candidate, so
//! its gain is bounded by the label-scan share of the kernel.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use sigmo_core::{
    filter::{filter_pass, initialize_candidates, Stage},
    naive, CandidateBitmap, DeltaClasses, Governor, LabelSchema, Signature, SignatureSet,
    WordWidth,
};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::CsrGo;
use sigmo_mol::{Dataset, DatasetConfig};
use std::time::{Duration, Instant};

fn dataset(n: usize) -> (CsrGo, CsrGo) {
    let d = Dataset::build(&DatasetConfig {
        num_molecules: n,
        num_extracted_queries: 20,
        seed: 42,
        ..Default::default()
    });
    (d.query_batch(), d.data_batch())
}

/// Signatures after one refinement round plus a bitmap seeded by init —
/// the state both refine variants start from. At radius 1 every query row
/// with a non-empty signature is dirty, and an empty signature is
/// dominated by every data node, so the delta kernel's bitmap equals the
/// per-row oracle's.
struct RefineWorld {
    queries: CsrGo,
    data: CsrGo,
    queue: Queue,
    schema: LabelSchema,
    qs: SignatureSet,
    ds: SignatureSet,
    delta: DeltaClasses,
    seeded: CandidateBitmap,
    scratch: CandidateBitmap,
}

impl RefineWorld {
    fn build(n: usize) -> Self {
        let (queries, data) = dataset(n);
        let queue = Queue::new(DeviceProfile::host());
        let schema = LabelSchema::organic();
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        qs.advance(&queries);
        ds.advance(&data);
        let radius0 = vec![Signature::EMPTY; queries.num_nodes()];
        let delta = DeltaClasses::build(&schema, &radius0, qs.signatures());
        let seeded = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        naive::initialize_candidates(&queries, &data, &seeded);
        let scratch = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        Self {
            queries,
            data,
            queue,
            schema,
            qs,
            ds,
            delta,
            seeded,
            scratch,
        }
    }

    fn refine_per_bit(&self) -> u64 {
        self.scratch.copy_from(&self.seeded);
        naive::refine_candidates(
            &self.queries,
            &self.qs,
            &self.ds,
            &self.scratch,
            self.data.num_nodes(),
        )
    }

    fn refine_word_parallel(&self) -> u64 {
        self.scratch.copy_from(&self.seeded);
        let stage = Stage::Refine {
            delta: &self.delta,
            data: self.ds.signatures(),
            all_tops: self.schema.top_bits(u64::MAX),
        };
        filter_pass(&self.queue, &[stage], &self.scratch, &Governor::unlimited()).cleared(0)
    }
}

fn bench_init(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_init");
    for n in [100usize, 400] {
        let (queries, data) = dataset(n);
        let queue = Queue::new(DeviceProfile::host());
        group.bench_with_input(BenchmarkId::new("per_bit", n), &n, |b, _| {
            b.iter(|| {
                let bm =
                    CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
                naive::initialize_candidates(&queries, &data, &bm);
                bm
            })
        });
        group.bench_with_input(BenchmarkId::new("word_parallel", n), &n, |b, _| {
            b.iter(|| {
                let bm =
                    CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
                initialize_candidates(&queue, &queries, &data, &bm, 1024);
                bm
            })
        });
    }
    group.finish();
}

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_refine");
    for n in [100usize, 400] {
        let w = RefineWorld::build(n);
        group.bench_with_input(BenchmarkId::new("per_bit", n), &n, |b, _| {
            b.iter(|| w.refine_per_bit())
        });
        group.bench_with_input(BenchmarkId::new("word_parallel", n), &n, |b, _| {
            b.iter(|| w.refine_word_parallel())
        });
    }
    group.finish();
}

/// A refined bitmap ready to enumerate, shared by both enumeration sides.
fn enumerate_world(n: usize) -> (CandidateBitmap, usize) {
    let w = RefineWorld::build(n);
    w.refine_word_parallel();
    let nd = w.data.num_nodes();
    let bm = CandidateBitmap::new(w.queries.num_nodes(), nd, WordWidth::U64);
    bm.copy_from(&w.scratch);
    (bm, nd)
}

fn enumerate_per_bit(bm: &CandidateBitmap, nd: usize) -> usize {
    (0..bm.rows())
        .map(|r| naive::enumerate_row(bm, r, 0, nd).len())
        .sum()
}

fn enumerate_word_parallel(bm: &CandidateBitmap, nd: usize) -> usize {
    (0..bm.rows())
        .map(|r| bm.iter_set_in_range(r, 0, nd).count())
        .sum()
}

fn bench_enumerate(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_enumerate");
    for n in [100usize, 400] {
        let (bm, nd) = enumerate_world(n);
        group.bench_with_input(BenchmarkId::new("per_bit", n), &n, |b, _| {
            b.iter(|| enumerate_per_bit(&bm, nd))
        });
        group.bench_with_input(BenchmarkId::new("word_parallel", n), &n, |b, _| {
            b.iter(|| enumerate_word_parallel(&bm, nd))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_init, bench_refine, bench_enumerate
}

/// Median wall time of `f` over `reps` runs.
fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn main() {
    benches();

    // Explicit speedup summary on the larger workload: the acceptance
    // criterion for the word-parallel rework is ≥2× on the scan paths.
    let n = 400usize;
    let w = RefineWorld::build(n);
    let (bm, nd) = enumerate_world(n);
    let reps = 7;
    let refine_ref = median_time(reps, || w.refine_per_bit());
    let refine_wp = median_time(reps, || w.refine_word_parallel());
    let enum_ref = median_time(reps, || enumerate_per_bit(&bm, nd));
    let enum_wp = median_time(reps, || enumerate_word_parallel(&bm, nd));
    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64();
    println!("\n# ablate_candidate_scan summary ({n} molecules)");
    println!(
        "refine     per-bit {refine_ref:>10.3?}   word-parallel {refine_wp:>10.3?}   speedup {:.2}x",
        ratio(refine_ref, refine_wp)
    );
    println!(
        "enumerate  per-bit {enum_ref:>10.3?}   word-parallel {enum_wp:>10.3?}   speedup {:.2}x",
        ratio(enum_ref, enum_wp)
    );
    let scan_ref = refine_ref + enum_ref;
    let scan_wp = refine_wp + enum_wp;
    let scan = ratio(scan_ref, scan_wp);
    println!("candidate scan (refine + enumerate) speedup: {scan:.2}x");
    assert!(
        scan >= 2.0,
        "word-parallel candidate scan regressed below the 2x acceptance bar ({scan:.2}x)"
    );
}
