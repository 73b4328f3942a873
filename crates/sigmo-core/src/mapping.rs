//! The mapping phase: Graph Mapping Compressed Representation (§4.5).
//!
//! After filtering, each data graph is mapped only to the query graphs
//! that are *potential* matches — those whose every query node retains at
//! least one candidate inside the data graph's node range. The GMCR stores
//! this as CSR-like offsets plus indices, with a per-pair boolean the join
//! phase sets when a match is found.
//!
//! Built with two kernels, as in the paper: a sizing kernel whose per-data-
//! graph counts are prefix-summed on the host, and a population kernel.
//! The sizing kernel scans the bitmap once and keeps each pair's verdict
//! in a (data graph × query graph) bitset, which the population kernel
//! reads instead of scanning again.

use crate::candidates::CandidateBitmap;
use sigmo_device::Queue;
use sigmo_graph::CsrGo;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Graph Mapping Compressed Representation.
pub struct Gmcr {
    /// Per data graph, the start of its entries in `query_graph_indices`
    /// (length `num_data_graphs + 1`).
    data_graph_offsets: Vec<u32>,
    /// Indices of potentially matching query graphs.
    query_graph_indices: Vec<u32>,
    /// One boolean per entry of `query_graph_indices`: set by the join
    /// phase when a match between that pair was found.
    matched: Vec<AtomicBool>,
}

impl Gmcr {
    /// Builds the GMCR from the filtered candidate bitmap.
    pub fn build(
        queue: &Queue,
        queries: &CsrGo,
        data: &CsrGo,
        bitmap: &CandidateBitmap,
        work_group_size: usize,
    ) -> Self {
        let n_data = data.num_graphs();
        let n_query = queries.num_graphs();
        let word_bytes = bitmap.word_width().bytes();

        // Kernel 1: per data graph, the potential query graphs (bit `qg`
        // of the data graph's `pair_words` words of `potential`), their
        // count, and the bitmap words the scan loaded.
        let pair_words = n_query.div_ceil(64);
        let potential: Vec<AtomicU64> = (0..n_data * pair_words)
            .map(|_| AtomicU64::new(0))
            .collect();
        let scanned: Vec<AtomicU64> = (0..n_data).map(|_| AtomicU64::new(0)).collect();
        let counts: Vec<AtomicU32> = (0..n_data).map(|_| AtomicU32::new(0)).collect();
        queue.parallel_for(
            "gmcr_size",
            "mapping",
            n_data,
            work_group_size,
            |dg, counters| {
                let mut c = 0u32;
                let mut probed_rows = 0u64;
                let mut words_loaded = 0u64;
                let verdicts = &potential[dg * pair_words..][..pair_words];
                for qg in 0..n_query {
                    let (is_potential, rows, words) =
                        pair_is_potential_counted(queries, data, bitmap, qg, dg);
                    if is_potential {
                        c += 1;
                        // sigmo-lint: allow(relaxed-read-in-report) — the graph's own words
                        let word = verdicts[qg / 64].load(Ordering::Relaxed);
                        verdicts[qg / 64].store(word | 1 << (qg % 64), Ordering::Relaxed);
                    }
                    probed_rows += rows;
                    words_loaded += words;
                }
                counts[dg].store(c, Ordering::Relaxed);
                scanned[dg].store(words_loaded, Ordering::Relaxed);
                counters.add_instructions(probed_rows * 6);
                counters.add_word_reads(words_loaded, word_bytes);
                counters.add_bytes_written(4);
                // Work per data graph varies with how many query graphs
                // remain potential — the source of the mapping phase's
                // partial occupancy (§5.1.3: 47-55%).
                counters.record_trips(c as u64 + 1);
            },
        );

        // Host-side inclusive prefix sum (paper: "the data graph offsets
        // array is also updated on the host by performing an inclusive
        // sum").
        let mut data_graph_offsets = Vec::with_capacity(n_data + 1);
        data_graph_offsets.push(0u32);
        let mut acc = 0u32;
        for c in &counts {
            acc += c.load(Ordering::Relaxed);
            data_graph_offsets.push(acc);
        }

        // Kernel 2: populate the indices from the sizing kernel's
        // verdicts. It charges the scan a device kernel repeats (the
        // words the sizing scan loaded), though the host reads the bitset.
        let total = acc as usize;
        let indices: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
        {
            let offsets = &data_graph_offsets;
            queue.parallel_for(
                "gmcr_populate",
                "mapping",
                n_data,
                work_group_size,
                |dg, counters| {
                    let mut pos = offsets[dg] as usize;
                    let verdicts = &potential[dg * pair_words..][..pair_words];
                    for (k, word) in verdicts.iter().enumerate() {
                        let mut bits = word.load(Ordering::Relaxed);
                        // sigmo-lint: allow(unbounded-kernel-loop) — one set
                        // bit of a loaded word per pass (≤ 64).
                        while bits != 0 {
                            let qg = k * 64 + bits.trailing_zeros() as usize;
                            indices[pos].store(qg as u32, Ordering::Relaxed);
                            pos += 1;
                            bits &= bits - 1;
                        }
                    }
                    debug_assert_eq!(pos, offsets[dg + 1] as usize);
                    counters.add_instructions(n_query as u64 * 8);
                    counters.add_word_reads(scanned[dg].load(Ordering::Relaxed), word_bytes);
                    counters.add_bytes_written((offsets[dg + 1] - offsets[dg]) as u64 * 4);
                    counters.record_trips((offsets[dg + 1] - offsets[dg]) as u64 + 1);
                },
            );
        }
        let query_graph_indices: Vec<u32> = indices.into_iter().map(|a| a.into_inner()).collect();
        let matched = (0..total).map(|_| AtomicBool::new(false)).collect();
        Self {
            data_graph_offsets,
            query_graph_indices,
            matched,
        }
    }

    /// Number of data graphs covered.
    pub fn num_data_graphs(&self) -> usize {
        self.data_graph_offsets.len() - 1
    }

    /// Total (data graph, query graph) pairs the join must examine.
    pub fn num_pairs(&self) -> usize {
        self.query_graph_indices.len()
    }

    /// The query graphs potentially matching data graph `dg`.
    pub fn queries_for(&self, dg: usize) -> &[u32] {
        let lo = self.data_graph_offsets[dg] as usize;
        let hi = self.data_graph_offsets[dg + 1] as usize;
        &self.query_graph_indices[lo..hi]
    }

    /// Entry index of the `k`-th pair of data graph `dg` (for the matched
    /// flags).
    pub fn pair_index(&self, dg: usize, k: usize) -> usize {
        self.data_graph_offsets[dg] as usize + k
    }

    /// Marks pair `idx` (from [`Gmcr::pair_index`]) matched.
    pub fn mark_matched(&self, idx: usize) {
        self.matched[idx].store(true, Ordering::Relaxed);
    }

    /// Whether pair `idx` was marked matched by the join.
    pub fn is_matched(&self, idx: usize) -> bool {
        self.matched[idx].load(Ordering::Relaxed)
    }

    /// All matched (data graph, query graph) pairs.
    // sigmo-lint: allow(relaxed-read-in-report) — matched flags are read
    // after the join launch returned; they only ever latch to true.
    pub fn matched_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for dg in 0..self.num_data_graphs() {
            let lo = self.data_graph_offsets[dg] as usize;
            for (k, &qg) in self.queries_for(dg).iter().enumerate() {
                if self.matched[lo + k].load(Ordering::Relaxed) {
                    out.push((dg, qg as usize));
                }
            }
        }
        out
    }

    /// The raw offsets array.
    pub fn data_graph_offsets(&self) -> &[u32] {
        &self.data_graph_offsets
    }

    /// Heap bytes of the representation.
    pub fn memory_bytes(&self) -> usize {
        self.data_graph_offsets.len() * 4 + self.query_graph_indices.len() * 4 + self.matched.len()
    }
}

/// A (query graph, data graph) pair is *potential* iff every query node of
/// `qg` has ≥ 1 surviving candidate within `dg`'s node range.
///
/// Both zero-row detection and its accounting are word-granular: each row
/// is scanned with the early-exiting word probe, the pair check stops at
/// the first empty row, and the return reports `(potential, rows probed,
/// bitmap words loaded)` so the kernels charge exactly the traffic the
/// scan generated.
// sigmo-lint: allow(uncharged-access) — deliberately returns (rows, words)
// instead of charging: the sizing kernel charges the exact counts this
// scan reports, and the population kernel charges its words again.
fn pair_is_potential_counted(
    queries: &CsrGo,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    qg: usize,
    dg: usize,
) -> (bool, u64, u64) {
    let drange = data.node_range(dg);
    let (dlo, dhi) = (drange.start as usize, drange.end as usize);
    let mut rows = 0u64;
    let mut words = 0u64;
    for qn in queries.node_range(qg) {
        let (any, w) = bitmap.row_any_in_range_counted(qn as usize, dlo, dhi);
        rows += 1;
        words += w;
        if !any {
            return (false, rows, words);
        }
    }
    (true, rows, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::WordWidth;
    use crate::filter::initialize_candidates;
    use sigmo_device::DeviceProfile;
    use sigmo_graph::LabeledGraph;

    fn queue() -> Queue {
        Queue::new(DeviceProfile::host())
    }

    /// Queries: [C-O], [C-N]. Data: [C-O-H molecule], [C-H molecule].
    fn setup() -> (CsrGo, CsrGo, CandidateBitmap) {
        let q0 = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let q1 = LabeledGraph::from_edges(&[1, 2], &[(0, 1)]).unwrap();
        let d0 = LabeledGraph::from_edges(&[1, 3, 0], &[(0, 1), (0, 2)]).unwrap();
        let d1 = LabeledGraph::from_edges(&[1, 0], &[(0, 1)]).unwrap();
        let queries = CsrGo::from_graphs(&[q0, q1]);
        let data = CsrGo::from_graphs(&[d0, d1]);
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&queue(), &queries, &data, &bm, 64);
        (queries, data, bm)
    }

    #[test]
    fn gmcr_keeps_only_potential_pairs() {
        let (queries, data, bm) = setup();
        let g = Gmcr::build(&queue(), &queries, &data, &bm, 64);
        // Data graph 0 (C,O,H): query 0 (C-O) potential; query 1 (C-N) has
        // no N candidate -> dropped.
        assert_eq!(g.queries_for(0), &[0]);
        // Data graph 1 (C,H): no O, no N -> nothing.
        assert_eq!(g.queries_for(1), &[] as &[u32]);
        assert_eq!(g.num_pairs(), 1);
    }

    #[test]
    fn offsets_are_consistent() {
        let (queries, data, bm) = setup();
        let g = Gmcr::build(&queue(), &queries, &data, &bm, 64);
        assert_eq!(g.data_graph_offsets(), &[0, 1, 1]);
        assert_eq!(g.num_data_graphs(), 2);
    }

    #[test]
    fn matched_flags_start_false_and_stick() {
        let (queries, data, bm) = setup();
        let g = Gmcr::build(&queue(), &queries, &data, &bm, 64);
        let idx = g.pair_index(0, 0);
        assert!(!g.is_matched(idx));
        assert!(g.matched_pairs().is_empty());
        g.mark_matched(idx);
        assert!(g.is_matched(idx));
        assert_eq!(g.matched_pairs(), vec![(0, 0)]);
    }

    #[test]
    fn empty_bitmap_yields_empty_gmcr() {
        let (queries, data, _) = setup();
        let empty = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let g = Gmcr::build(&queue(), &queries, &data, &empty, 64);
        assert_eq!(g.num_pairs(), 0);
    }

    #[test]
    fn full_bitmap_yields_all_pairs() {
        let (queries, data, _) = setup();
        let full = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        for r in 0..queries.num_nodes() {
            for c in 0..data.num_nodes() {
                full.set(r, c);
            }
        }
        let g = Gmcr::build(&queue(), &queries, &data, &full, 64);
        assert_eq!(g.num_pairs(), 4);
        assert_eq!(g.queries_for(0), &[0, 1]);
        assert_eq!(g.queries_for(1), &[0, 1]);
    }
}
