//! Device-memory accounting (paper §5.1.3).
//!
//! The paper reports the footprint of each pipeline structure on its
//! dataset: candidate bitmaps ≈ 1 GB (80% of the total, predictable as
//! `|V_Q| × |V_D| / 8` bytes), data graphs ≈ 64 MB, query graphs ≈ 90 KB,
//! signatures ≈ 128 MB. [`MemoryEstimate`] predicts the same quantities
//! *before* allocation, which is how Figure 12's out-of-memory point is
//! detected and how multi-GPU partition sizes would be chosen.

use serde::Serialize;
use sigmo_graph::{CsrGo, LabeledGraph};

/// Predicted device memory for one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemoryEstimate {
    /// Candidate bitmap bytes per the §5.1.3 packed-bit formula:
    /// `⌈rows × cols / 8⌉`.
    pub bitmap_bytes: u64,
    /// Bitmap bytes the allocation actually takes, every row padded to
    /// whole 64-bit words: `rows × ⌈cols/64⌉ × 8`. This, not the packed
    /// figure, is what [`total`](Self::total) and OOM planning use.
    pub bitmap_padded_bytes: u64,
    /// Query + data CSR-GO bytes.
    pub graph_bytes: u64,
    /// Signature array bytes (8 per node) plus the cached BFS frontier
    /// state (visited bitset + ring, estimated per node).
    pub signature_bytes: u64,
    /// GMCR worst case: every pair retained (4 bytes each + offsets).
    pub gmcr_bytes: u64,
}

impl MemoryEstimate {
    /// Total predicted bytes (bitmap at its padded allocation size).
    /// Saturates at `u64::MAX` for absurdly large synthetic inputs: a
    /// saturated total still compares correctly against any real device
    /// budget (`fits` returns false), instead of wrapping and "fitting".
    pub fn total(&self) -> u64 {
        self.bitmap_padded_bytes
            .saturating_add(self.graph_bytes)
            .saturating_add(self.signature_bytes)
            .saturating_add(self.gmcr_bytes)
    }

    /// Fraction of the total the candidate bitmap takes (the paper: 80%).
    pub fn bitmap_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.bitmap_padded_bytes as f64 / self.total() as f64
        }
    }

    /// Whether the run fits a device with `device_bytes` of memory.
    pub fn fits(&self, device_bytes: u64) -> bool {
        self.total() <= device_bytes
    }
}

/// Predicts memory for batched inputs. All arithmetic saturates: a
/// synthetic input whose true footprint exceeds `u64::MAX` bytes yields a
/// saturated (still ordered-correct) estimate instead of a wrapped one.
pub fn estimate_batched(queries: &CsrGo, data: &CsrGo) -> MemoryEstimate {
    estimate_counts(
        queries,
        data.num_nodes() as u64,
        data.num_edges() as u64,
        data.num_graphs() as u64,
    )
}

/// Predicts memory for `queries` against a data batch of `n` nodes, `m`
/// undirected edges and `g` graphs, without building that batch — the one
/// formula every estimate shares. Its graph bytes equal what a built
/// CSR-GO of those counts measures (`CsrGo::memory_bytes`); all
/// arithmetic saturates.
pub fn estimate_counts(queries: &CsrGo, n: u64, m: u64, g: u64) -> MemoryEstimate {
    let rows = queries.num_nodes() as u64;
    let bitmap_bytes = rows.saturating_mul(n).div_ceil(8);
    let bitmap_padded_bytes = rows.saturating_mul(n.div_ceil(64)).saturating_mul(8);
    // CSR: row offsets (n+1)×4 + column indices 2m×4 + edge labels 2m +
    // node labels n; CSR-GO adds graph offsets (g+1)×4 — the layout
    // `CsrGo::memory_bytes` measures.
    let data_csr = n
        .saturating_add(1)
        .saturating_mul(4)
        .saturating_add(m.saturating_mul(8))
        .saturating_add(m.saturating_mul(2))
        .saturating_add(n)
        .saturating_add(g.saturating_add(1).saturating_mul(4));
    let graph_bytes = (queries.memory_bytes() as u64).saturating_add(data_csr);
    // 8 bytes per signature + ~24 bytes of frontier state per node.
    let signature_bytes = rows.saturating_add(n).saturating_mul(8 + 24);
    let gmcr_bytes = g.saturating_add(1).saturating_mul(4).saturating_add(
        g.saturating_mul(queries.num_graphs() as u64)
            .saturating_mul(5),
    );
    MemoryEstimate {
        bitmap_bytes,
        bitmap_padded_bytes,
        graph_bytes,
        signature_bytes,
        gmcr_bytes,
    }
}

/// Predicts memory for unbatched graph lists.
pub fn estimate(queries: &[LabeledGraph], data: &[LabeledGraph]) -> MemoryEstimate {
    estimate_batched(&CsrGo::from_graphs(queries), &CsrGo::from_graphs(data))
}

/// Exact memory estimate for the base data batch replicated `factor`
/// times, computed arithmetically (no materialization). Agrees byte-for-
/// byte with [`estimate_batched`] on the materialized replication.
pub fn estimate_scaled(queries: &CsrGo, base: &CsrGo, factor: usize) -> MemoryEstimate {
    let f = factor as u64;
    estimate_counts(
        queries,
        (base.num_nodes() as u64).saturating_mul(f),
        (base.num_edges() as u64).saturating_mul(f),
        (base.num_graphs() as u64).saturating_mul(f),
    )
}

/// Largest dataset scale factor (replication count) that fits a device —
/// the planning calculation behind Figure 12's x-axis. Returns 0 when even
/// one copy does not fit.
pub fn max_scale_factor(
    queries: &[LabeledGraph],
    base_data: &[LabeledGraph],
    device_bytes: u64,
) -> usize {
    let q = CsrGo::from_graphs(queries);
    let base = CsrGo::from_graphs(base_data);
    let mut factor = 0usize;
    while factor <= 1 << 20 {
        if !estimate_scaled(&q, &base, factor + 1).fits(device_bytes) {
            return factor;
        }
        factor += 1;
    }
    factor // device effectively unbounded for this input
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_graph::random_sparse_graph;

    fn world(n_data: usize) -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
        let queries: Vec<LabeledGraph> = (0..10).map(|i| random_sparse_graph(6, 2, 5, i)).collect();
        let data: Vec<LabeledGraph> = (0..n_data)
            .map(|i| random_sparse_graph(40, 10, 5, 100 + i as u64))
            .collect();
        (queries, data)
    }

    #[test]
    fn bitmap_formula_matches_paper_example() {
        // §5.1.3: 3,413 query nodes × 2,745,872 data nodes ≈ 1.17 GB as
        // packed bits.
        let rows = 3413u64;
        let cols = 2_745_872u64;
        let bytes = (rows * cols).div_ceil(8);
        assert!((1.0..1.3).contains(&(bytes as f64 / 1e9)));
        // Word padding adds at most 8 bytes per row on top of that.
        let padded = rows * cols.div_ceil(64) * 8;
        assert!(padded >= bytes && padded - bytes < rows * 8);
    }

    #[test]
    fn bitmap_dominates_at_scale() {
        // Dominance needs a paper-sized query population: with thousands of
        // query nodes each data node costs rows/8 bitmap bytes, dwarfing
        // its ~60 bytes of CSR + signature state.
        let queries: Vec<LabeledGraph> =
            (0..500).map(|i| random_sparse_graph(7, 2, 5, i)).collect();
        let data: Vec<LabeledGraph> = (0..100)
            .map(|i| random_sparse_graph(40, 10, 5, 900 + i as u64))
            .collect();
        let est = estimate(&queries, &data);
        assert!(
            est.bitmap_fraction() > 0.5,
            "bitmap fraction {}",
            est.bitmap_fraction()
        );
        assert!(est.total() > 0);
    }

    #[test]
    fn scaled_estimate_agrees_with_materialized() {
        let (queries, data) = world(8);
        let q = CsrGo::from_graphs(&queries);
        let base = CsrGo::from_graphs(&data);
        for f in 1..=4usize {
            let scaled: Vec<LabeledGraph> = (0..f).flat_map(|_| data.iter().cloned()).collect();
            let materialized = estimate(&queries, &scaled);
            let arithmetic = estimate_scaled(&q, &base, f);
            assert_eq!(arithmetic, materialized, "factor {f}");
        }
    }

    #[test]
    fn counts_formula_matches_measured_csr_bytes() {
        // The counts-only formula must reproduce what a built CSR-GO
        // actually holds, down to the empty batch and empty graphs.
        let (queries, data) = world(6);
        let q = CsrGo::from_graphs(&queries);
        let mut batches: Vec<Vec<LabeledGraph>> = vec![Vec::new(), vec![LabeledGraph::new()]];
        batches.extend((1..=data.len()).map(|k| data[..k].to_vec()));
        for batch in batches {
            let d = CsrGo::from_graphs(&batch);
            let n: usize = batch.iter().map(LabeledGraph::num_nodes).sum();
            let m: usize = batch.iter().map(LabeledGraph::num_edges).sum();
            let est = estimate_counts(&q, n as u64, m as u64, batch.len() as u64);
            assert_eq!(
                est.graph_bytes,
                (q.memory_bytes() + d.memory_bytes()) as u64,
                "{} graphs",
                batch.len()
            );
        }
    }

    #[test]
    fn estimate_matches_engine_report() {
        use crate::engine::{Engine, EngineConfig};
        use sigmo_device::{DeviceProfile, Queue};
        let (queries, data) = world(20);
        let est = estimate(&queries, &data);
        let report = Engine::new(EngineConfig::default()).run(
            &queries,
            &data,
            &Queue::new(DeviceProfile::host()),
        );
        assert_eq!(est.bitmap_bytes, report.bitmap_bytes as u64);
        assert_eq!(est.bitmap_padded_bytes, report.bitmap_padded_bytes as u64);
        assert_eq!(est.graph_bytes, report.graph_bytes as u64);
    }

    #[test]
    fn fits_is_a_threshold() {
        let (queries, data) = world(10);
        let est = estimate(&queries, &data);
        assert!(est.fits(est.total()));
        assert!(!est.fits(est.total() - 1));
    }

    #[test]
    fn max_scale_factor_is_the_exact_threshold() {
        let (queries, data) = world(10);
        let budget = 4u64 << 20; // 4 MiB keeps the sweep short
        let f = max_scale_factor(&queries, &data, budget);
        assert!(f >= 1);
        let q = CsrGo::from_graphs(&queries);
        let base = CsrGo::from_graphs(&data);
        assert!(estimate_scaled(&q, &base, f).fits(budget));
        assert!(!estimate_scaled(&q, &base, f + 1).fits(budget));
        // Monotone in the budget.
        assert!(max_scale_factor(&queries, &data, 2 * budget) >= f);
    }

    #[test]
    fn max_scale_factor_zero_when_nothing_fits() {
        let (queries, data) = world(10);
        assert_eq!(max_scale_factor(&queries, &data, 16), 0);
    }

    #[test]
    fn huge_scale_factor_saturates_instead_of_wrapping() {
        // factor = usize::MAX drives every intermediate product past
        // u64::MAX. The estimate must saturate — a wrapped total could
        // look tiny and "fit" a real device.
        let (queries, data) = world(4);
        let q = CsrGo::from_graphs(&queries);
        let base = CsrGo::from_graphs(&data);
        let est = estimate_scaled(&q, &base, usize::MAX);
        assert_eq!(est.bitmap_padded_bytes, u64::MAX, "must saturate");
        assert_eq!(est.total(), u64::MAX);
        assert!(!est.fits(u64::MAX - 1));
        assert!((0.0..=1.0).contains(&est.bitmap_fraction()));
        // One step below the edge: still saturated, still ordered.
        let est2 = estimate_scaled(&q, &base, usize::MAX - 1);
        assert!(est2.total() >= estimate_scaled(&q, &base, 1000).total());
    }

    #[test]
    fn saturated_totals_keep_fits_monotone() {
        let (queries, data) = world(4);
        let q = CsrGo::from_graphs(&queries);
        let base = CsrGo::from_graphs(&data);
        let mut prev = 0u64;
        // Sweep across the overflow edge: totals never decrease.
        for shift in [0usize, 8, 16, 24, 32, 40, 48, 56, 62] {
            let est = estimate_scaled(&q, &base, 1usize << shift);
            assert!(
                est.total() >= prev,
                "total decreased at factor 2^{shift}: {} < {prev}",
                est.total()
            );
            prev = est.total();
        }
        assert_eq!(prev, u64::MAX, "the sweep must reach saturation");
    }
}
