//! Criterion microbenches of the filter-phase kernels (Algorithm 1):
//! candidate initialization, signature refinement, and candidate pruning.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sigmo_core::{
    filter::{filter_pass, initialize_candidates, Stage},
    CandidateBitmap, DeltaClasses, Governor, LabelSchema, Signature, SignatureSet, WordWidth,
};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::CsrGo;
use sigmo_mol::{Dataset, DatasetConfig};

fn dataset(n: usize) -> (CsrGo, CsrGo) {
    let d = Dataset::build(&DatasetConfig {
        num_molecules: n,
        num_extracted_queries: 20,
        seed: 42,
        ..Default::default()
    });
    (d.query_batch(), d.data_batch())
}

fn bench_initialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("initialize_candidates");
    for n in [100usize, 400] {
        let (queries, data) = dataset(n);
        let queue = Queue::new(DeviceProfile::host());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let bm =
                    CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
                initialize_candidates(&queue, &queries, &data, &bm, 1024);
                bm.total_count()
            })
        });
    }
    group.finish();
}

fn bench_signature_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature_advance_3_rounds");
    for n in [100usize, 400] {
        let (_, data) = dataset(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut sigs = SignatureSet::new(&data, LabelSchema::organic());
                for _ in 0..3 {
                    sigs.advance(&data);
                }
                sigs.signature(0)
            })
        });
    }
    group.finish();
}

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine_candidates");
    for n in [100usize, 400] {
        let (queries, data) = dataset(n);
        let queue = Queue::new(DeviceProfile::host());
        let schema = LabelSchema::organic();
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        qs.advance(&queries);
        ds.advance(&data);
        // Radius 1 from init: every row with a neighbour moved.
        let radius0 = vec![Signature::EMPTY; queries.num_nodes()];
        let delta = DeltaClasses::build(&schema, &radius0, qs.signatures());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let bm =
                    CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
                initialize_candidates(&queue, &queries, &data, &bm, 1024);
                let stage = Stage::Refine {
                    delta: &delta,
                    data: ds.signatures(),
                    all_tops: schema.top_bits(u64::MAX),
                };
                filter_pass(&queue, &[stage], &bm, &Governor::unlimited()).cleared(0)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_initialize, bench_signature_advance, bench_refine
}
criterion_main!(benches);
