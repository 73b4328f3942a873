//! The mapping phase: Graph Mapping Compressed Representation (§4.5).
//!
//! After filtering, each data graph is mapped only to the query graphs
//! that are *potential* matches — those whose every query node retains at
//! least one candidate inside the data graph's node range. The GMCR stores
//! this as CSR-like offsets plus indices, with a per-pair boolean the join
//! phase sets when a match is found.
//!
//! Built in one kernel, one work-item per data graph, from the bitmap the
//! fused filter pass leaves: a query graph is potential iff each of its
//! rows keeps a candidate in the graph's columns, a masked load per word,
//! and the probe stops at the first row that keeps none — starting from
//! the row that failed last in the work-group. The host prefix-sums the
//! counts and lists the pairs (DESIGN.md §23).

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
        // Per data graph, the potential query graphs (bit `qg` of its
        // `pair_words` words). A query graph's rows are probed from the one
        // that failed last in the work-group (`first_probe`): a row with no
        // candidate in one data graph seldom has one in the next.
        let pair_words = n_query.div_ceil(64);
        let groups = n_data.div_ceil(work_group_size.max(1));
        let potential: Vec<AtomicU64> = (0..n_data * pair_words).map(|_| 0.into()).collect();
        let first_probe: Vec<AtomicU32> = (0..groups * n_query).map(|_| 0.into()).collect();
        queue.parallel_for(
            "gmcr_populate",
            "mapping",
            n_data,
            work_group_size,
            |dg, counters| {
                let span = Span::columns(data, dg);
                let memo = &first_probe[dg / work_group_size.max(1) * n_query..][..n_query];
                let (mut c, mut probed_rows) = (0u32, 0u64);
                let verdicts = &potential[dg * pair_words..][..pair_words];
                for (qg, memo) in memo.iter().enumerate() {
                    let range = queries.node_range(qg);
                    let (lo, len) = (range.start as usize, range.len());
                    // sigmo-lint: allow(relaxed-read-in-report) — the group's own memo
                    let start = memo.load(Ordering::Relaxed) as usize;
                    let mut keeps = true;
                    for i in 0..len {
                        let at = (start + i) % len;
                        probed_rows += 1;
                        if !span.row_keeps(bitmap, lo + at) {
                            memo.store(at as u32, Ordering::Relaxed);
                            keeps = false;
                            break;
                        }
                    }
                    if keeps {
                        c += 1;
                        // sigmo-lint: allow(relaxed-read-in-report) — the graph's own words
                        let word = verdicts[qg / 64].load(Ordering::Relaxed);
                        verdicts[qg / 64].store(word | 1 << (qg % 64), Ordering::Relaxed);
                    }
                }
                counters.add_instructions(probed_rows * 6 + n_query as u64 * 8);
                counters.add_bytes_read(n_query as u64 * 4);
                counters.add_word_reads(probed_rows * span.words as u64, word_bytes);
                counters.add_bytes_written(u64::from(c) * 4 + 4);
                // Work per data graph varies with how many query graphs
                // remain potential — the source of the mapping phase's
                // partial occupancy (§5.1.3: 47-55%).
                counters.record_trips(u64::from(c) + 1);
            },
        );

        // The pairs in data-graph order, and the host-side inclusive
        // prefix sum (paper: "the data graph offsets array is also updated
        // on the host by performing an inclusive sum").
        let mut data_graph_offsets = vec![0u32];
        let mut query_graph_indices = Vec::new();
        for dg in 0..n_data {
            for (k, word) in potential[dg * pair_words..][..pair_words]
                .iter()
                .enumerate()
            {
                let mut bits = word.load(Ordering::Relaxed);
                while bits != 0 {
                    query_graph_indices.push((k * 64 + bits.trailing_zeros() as usize) as u32);
                    bits &= bits - 1;
                }
            }
            data_graph_offsets.push(query_graph_indices.len() as u32);
        }
        let matched = (0..query_graph_indices.len())
            .map(|_| AtomicBool::new(false))
            .collect();
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

/// A data graph's columns as bitmap words: `words` words from `first`,
/// the first and last masked to the graph's own columns.
#[derive(Default)]
struct Span {
    first: usize,
    words: usize,
    first_mask: u64,
    last_mask: u64,
}

impl Span {
    fn columns(data: &CsrGo, dg: usize) -> Self {
        let cols = data.node_range(dg);
        let (lo, hi) = (cols.start as usize, cols.end as usize);
        if lo == hi {
            return Span::default();
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        let top = u64::MAX >> ((64 - hi % 64) % 64);
        let bottom = u64::MAX << (lo % 64);
        Span {
            first,
            words: last - first + 1,
            first_mask: if first == last { bottom & top } else { bottom },
            last_mask: top,
        }
    }

    /// Whether `row` keeps a candidate in the graph's columns: one masked
    /// load per word, without a branch.
    // sigmo-lint: allow(uncharged-access) — the GMCR kernel charges the
    // span's words per probed row.
    #[inline]
    fn row_keeps(&self, bitmap: &CandidateBitmap, row: usize) -> bool {
        let mut acc = 0u64;
        for k in 0..self.words {
            let mut mask = u64::MAX;
            if k == 0 {
                mask = self.first_mask;
            } else if k + 1 == self.words {
                mask = self.last_mask;
            }
            acc |= bitmap.word(row, self.first + k) & mask;
        }
        acc != 0
    }
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
