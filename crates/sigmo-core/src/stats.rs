//! Candidate-set statistics collected per refinement iteration (Figure 5).

use crate::candidates::CandidateBitmap;
use serde::Serialize;

/// Five-number summary of the per-query-node candidate-set sizes plus the
/// total — the contents of one box (and one line point) of Figure 5.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CandidateStats {
    /// Minimum candidates over query nodes.
    pub min: usize,
    /// First quartile.
    pub q1: usize,
    /// Median.
    pub median: usize,
    /// Third quartile.
    pub q3: usize,
    /// Maximum (the paper's persistent outliers live here).
    pub max: usize,
    /// Mean candidates per query node.
    pub mean: f64,
    /// Total candidates across all query nodes (the line of Figure 5).
    pub total: usize,
    /// Query rows left with zero candidates — the rows the mapping phase
    /// will use to drop (query, data-graph) pairs.
    pub empty_rows: usize,
}

impl CandidateStats {
    /// Computes the summary from a candidate bitmap, one popcount pass
    /// over every row. The engine summarizes the per-row counts its filter
    /// pass reports instead; this stays as their oracle.
    pub fn from_bitmap(bitmap: &CandidateBitmap) -> Self {
        let counts: Vec<usize> = (0..bitmap.rows()).map(|r| bitmap.row_count(r)).collect();
        Self::from_counts(&counts)
    }

    /// Computes the summary from raw per-query-node counts.
    ///
    /// The quartiles come from a histogram of the counts, one slot per
    /// value between the smallest and the largest count. Candidate counts
    /// of one bitmap lie between 0 and its columns, so the histogram never
    /// has more slots than the bitmap has columns (plus one).
    pub fn from_counts(counts: &[usize]) -> Self {
        if counts.is_empty() {
            return Self {
                min: 0,
                q1: 0,
                median: 0,
                q3: 0,
                max: 0,
                mean: 0.0,
                total: 0,
                empty_rows: 0,
            };
        }
        let n = counts.len();
        let (min, max) = counts
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let total: usize = counts.iter().sum();
        let mut hist = vec![0usize; max - min + 1];
        for &c in counts {
            hist[c - min] += 1;
        }
        // The count at sorted rank r is the first value whose running
        // total in the histogram exceeds r.
        let rank = |p: f64| ((n - 1) as f64 * p).round() as usize;
        let ranks = [rank(0.25), rank(0.5), rank(0.75)];
        let (mut below, mut picks, mut next) = (0usize, ranks, 0);
        for (offset, &h) in hist.iter().enumerate() {
            below += h;
            while next < 3 && ranks[next] < below {
                picks[next] = min + offset;
                next += 1;
            }
        }
        let [q1, median, q3] = picks;
        Self {
            min,
            q1,
            median,
            q3,
            max,
            mean: total as f64 / n as f64,
            total,
            empty_rows: counts.iter().filter(|&&c| c == 0).count(),
        }
    }
}

/// Statistics of one refinement iteration, combining candidate pruning with
/// the iteration's timings (Figures 5 and 6 share these rows).
///
/// With convergence-driven filtering the vector of these records is also
/// the run's *actual* iteration trace: an engine that exits at the filter
/// fixpoint reports fewer entries than `refinement_iterations`, and the
/// `cleared_bits` / `dirty_nodes` pair makes the early-exit and delta
/// behavior observable (surfaced by the CLI `--profile` table).
#[derive(Debug, Clone, Serialize)]
pub struct IterationStats {
    /// 1-based refinement iteration (1 = label-only initialization).
    pub iteration: usize,
    /// Candidate summary after this iteration's refinement.
    pub candidates: CandidateStats,
    /// Bits cleared by this iteration's refine kernel. Iteration 1 (init)
    /// reports the label-pair pre-check's and predicate filter's clears.
    pub cleared_bits: u64,
    /// Query rows whose signature moved at this radius — the rows the
    /// delta kernel re-tested. Iteration 1 (init) reports the rows the
    /// label-pair pre-check and the predicate filter scanned.
    pub dirty_nodes: u64,
}

/// Per-run tally of the adaptive join engine's per-pair decisions: which
/// variant (DFS vs BFS) and which matching order (max-degree vs
/// min-candidates-first) each surviving GMCR pair was joined with. Fixed
/// strategies tally too — every run pair lands in exactly one variant
/// bucket and one order bucket, so `dfs_pairs + bfs_pairs` is the number
/// of joined pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StrategyCounts {
    /// Pairs joined with the explicit-stack DFS.
    pub dfs_pairs: u64,
    /// Pairs joined with the frontier-materializing BFS.
    pub bfs_pairs: u64,
    /// Pairs joined in max-degree-first matching order.
    pub max_degree_pairs: u64,
    /// Pairs joined in min-candidates-first matching order.
    pub min_candidates_pairs: u64,
}

impl StrategyCounts {
    /// Number of (query, data-graph) pairs that reached the join.
    pub fn total_pairs(&self) -> u64 {
        self.dfs_pairs + self.bfs_pairs
    }

    /// Accumulates another run's tallies (stream chunks fold into one).
    pub fn add(&mut self, other: &StrategyCounts) {
        self.dfs_pairs += other.dfs_pairs;
        self.bfs_pairs += other.bfs_pairs;
        self.max_degree_pairs += other.max_degree_pairs;
        self.min_candidates_pairs += other.min_candidates_pairs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::WordWidth;

    #[test]
    fn five_number_summary() {
        let s = CandidateStats::from_counts(&[1, 2, 3, 4, 100]);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 3);
        assert_eq!(s.max, 100);
        assert_eq!(s.total, 110);
        assert!((s.mean - 22.0).abs() < 1e-12);
        assert_eq!(s.q1, 2);
        assert_eq!(s.q3, 4);
    }

    #[test]
    fn empty_counts() {
        let s = CandidateStats::from_counts(&[]);
        assert_eq!(s.total, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn single_count() {
        let s = CandidateStats::from_counts(&[7]);
        assert_eq!(s.min, 7);
        assert_eq!(s.q1, 7);
        assert_eq!(s.median, 7);
        assert_eq!(s.q3, 7);
        assert_eq!(s.max, 7);
    }

    #[test]
    fn from_bitmap_matches_row_counts() {
        let b = CandidateBitmap::new(3, 100, WordWidth::U64);
        b.set(0, 1);
        b.set(0, 2);
        b.set(1, 50);
        let s = CandidateStats::from_bitmap(&b);
        assert_eq!(s.total, 3);
        assert_eq!(s.max, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.empty_rows, 1);
    }

    /// The histogram gives the summary of the sorted counts, whether the
    /// counts span a few values or many more than there are counts.
    #[test]
    fn summary_equals_the_sorted_reference() {
        let reference = |counts: &[usize]| {
            let mut sorted = counts.to_vec();
            sorted.sort_unstable();
            let n = sorted.len();
            let pick = |p: f64| sorted[((n - 1) as f64 * p).round() as usize];
            let total: usize = sorted.iter().sum();
            CandidateStats {
                min: sorted[0],
                q1: pick(0.25),
                median: pick(0.5),
                q3: pick(0.75),
                max: sorted[n - 1],
                mean: total as f64 / n as f64,
                total,
                empty_rows: sorted.iter().take_while(|&&c| c == 0).count(),
            }
        };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for n in 1..=40usize {
            for spread in [1usize, 3, 50, 10_000] {
                let counts: Vec<usize> = (0..n)
                    .map(|_| {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        (x >> 33) as usize % (spread * n) + (x >> 60) as usize
                    })
                    .collect();
                assert_eq!(
                    CandidateStats::from_counts(&counts),
                    reference(&counts),
                    "{counts:?}"
                );
            }
        }
    }

    #[test]
    fn empty_rows_counted() {
        let s = CandidateStats::from_counts(&[0, 0, 3, 1]);
        assert_eq!(s.empty_rows, 2);
        assert_eq!(CandidateStats::from_counts(&[1, 2]).empty_rows, 0);
    }
}
