//! Reusable query-side plans: everything the filter and join phases can
//! precompute from the query batch alone, built once and shared.
//!
//! The streaming runner used to rebuild the query CSR-GO, the
//! [`LabelBuckets`] and the per-radius query signatures for *every* chunk
//! — and the cluster simulator replays the same query batch on every
//! rank. All of that state is a pure function of the query batch and the
//! engine configuration, so [`QueryPlan`] computes it exactly once:
//!
//! * query signatures at every radius the configured iteration count can
//!   reach — built by the same [`BatchFacts`] routine as the data side;
//! * [`DeltaClasses`] per radius — the dirty rows the incremental refine
//!   kernel re-tests (empty once the query side converges, which is what
//!   lets the engine stop refining early);
//! * the label buckets for candidate initialization and the max-degree
//!   join plans.
//!
//! The plan is immutable and `Sync`: [`crate::StreamRunner`] builds one
//! per stream and every chunk borrows it; `sigmo-cluster` builds one per
//! run and every rank borrows it.

use crate::candidates::CandidateBitmap;
use crate::engine::EngineConfig;
use crate::facts::BatchFacts;
use crate::filter::{self, DeltaClasses, LabelBuckets, PairRow, PredRow};
use crate::join;
use crate::schema::LabelSchema;
use crate::signature::Signature;
use sigmo_graph::{CsrGo, LabeledGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`QueryPlan`] constructions. Test instrumentation
/// only: the stream/cluster reuse pins assert a multi-chunk run builds
/// exactly one plan.
static PLAN_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of plans built so far in this process (test instrumentation).
#[doc(hidden)]
pub fn plan_build_count() -> u64 {
    PLAN_BUILDS.load(Ordering::Relaxed)
}

/// Precomputed, immutable query-side state for [`crate::Engine`] runs.
pub struct QueryPlan {
    csr: CsrGo,
    schema: LabelSchema,
    induced: bool,
    buckets: LabelBuckets,
    /// Query signatures at radii `1..=max_radius` and label-pair
    /// signatures.
    facts: BatchFacts,
    /// `deltas[r - 1]` holds the dirty rows (signature moved reaching
    /// radius `r`) that iteration `r + 1` re-tests; radius 0 is the
    /// all-empty signature set and needs no entry.
    deltas: Vec<DeltaClasses>,
    /// Largest radius with a non-empty delta (0 when no signature ever
    /// moves). Iterations beyond `last_dirty_radius + 1` cannot clear a
    /// bit, so the incremental engine stops there.
    last_dirty_radius: usize,
    /// Max-degree join plans per query graph, with each query's
    /// automorphism group and twin marks (the data-aware min-candidates
    /// ordering still has to be built per run).
    join_plans: Vec<join::QueryPlan>,
    /// Schema of the label-pair signatures (fixed 16 uniform buckets).
    pair_schema: LabelSchema,
    /// Query rows with a non-empty label-pair signature, each with its
    /// live-bucket mask — the work list of the label-pair pre-check kernel
    /// (a pure function of the batch).
    pair_rows: Vec<PairRow>,
    /// Query rows with a non-trivial compiled [`NodePredicate`] (SMARTS
    /// atom lists, degree, ring, H-count, charge) — the work list of the
    /// predicate filter kernel. Empty for predicate-free batches, in which
    /// case that kernel never launches.
    pred_rows: Vec<PredRow>,
}

impl QueryPlan {
    /// Builds a plan from raw query graphs.
    pub fn build(query_graphs: &[LabeledGraph], config: &EngineConfig) -> Self {
        Self::from_batch(CsrGo::from_graphs(query_graphs), config)
    }

    /// Builds a plan from an already-batched query CSR-GO.
    pub fn from_batch(csr: CsrGo, config: &EngineConfig) -> Self {
        assert!(config.refinement_iterations >= 1, "need ≥ 1 iteration");
        PLAN_BUILDS.fetch_add(1, Ordering::Relaxed);
        let buckets = LabelBuckets::build(&csr);
        let max_radius = config.refinement_iterations - 1;
        let facts = BatchFacts::compute(&csr, &config.schema, max_radius, false);
        let mut deltas: Vec<DeltaClasses> = Vec::with_capacity(max_radius);
        let mut last_dirty_radius = 0usize;
        let radius0 = vec![Signature::EMPTY; csr.num_nodes()];
        let mut prev_sigs: &[Signature] = &radius0;
        for r in 1..=max_radius {
            let sigs = facts.signatures_at(r);
            let delta = DeltaClasses::build(&config.schema, prev_sigs, sigs);
            if !delta.is_empty() {
                last_dirty_radius = r;
            }
            prev_sigs = sigs;
            deltas.push(delta);
        }
        let join_plans = join::QueryPlan::build_batch(&csr, config.induced);
        let pair_schema = filter::pair_schema();
        let pair_rows = filter::pair_rows(facts.pairs(), &pair_schema);
        let pred_rows = filter::pred_rows(&csr);
        Self {
            csr,
            schema: config.schema.clone(),
            induced: config.induced,
            buckets,
            facts,
            deltas,
            last_dirty_radius,
            join_plans,
            pair_schema,
            pair_rows,
            pred_rows,
        }
    }

    /// Panics unless the plan can serve runs under `config`: enough
    /// radii of query state and the same induced semantics.
    pub(crate) fn assert_fits(&self, config: &EngineConfig) {
        assert!(config.refinement_iterations >= 1, "need ≥ 1 iteration");
        assert!(
            self.max_radius() + 1 >= config.refinement_iterations,
            "plan holds {} iterations of query state, config wants {}",
            self.max_radius() + 1,
            config.refinement_iterations
        );
        assert_eq!(
            self.induced, config.induced,
            "plan and config disagree on induced semantics"
        );
    }

    /// Join plans starting at each query graph's node with the fewest
    /// surviving candidates in `bitmap` — the data-aware ordering, built
    /// per run from the max-degree plans' symmetry (no second search). A zero-node query has no start node and gets the empty
    /// plan (it matches nothing, the join skips it). Count ties break
    /// toward the smallest node id: an explicit key, so the ordering is a
    /// stated contract — adaptive runs must be bit-identical across
    /// thread counts.
    pub(crate) fn min_candidates_plans(&self, bitmap: &CandidateBitmap) -> Vec<join::QueryPlan> {
        (0..self.csr.num_graphs())
            .map(|qg| {
                match self
                    .csr
                    .node_range(qg)
                    .min_by_key(|&v| (bitmap.row_count(v as usize), v))
                {
                    Some(start) => {
                        self.join_plans[qg].reordered(&self.csr, qg, self.induced, start as NodeId)
                    }
                    None => join::QueryPlan::empty(),
                }
            })
            .collect()
    }

    /// The batched query graphs.
    pub fn batch(&self) -> &CsrGo {
        &self.csr
    }

    /// The signature schema the plan was built with.
    pub fn schema(&self) -> &LabelSchema {
        &self.schema
    }

    /// Whether the join plans use induced semantics.
    pub fn induced(&self) -> bool {
        self.induced
    }

    /// The label buckets for candidate initialization.
    pub fn buckets(&self) -> &LabelBuckets {
        &self.buckets
    }

    /// Largest radius the plan holds state for
    /// (`refinement_iterations − 1` at build time).
    pub fn max_radius(&self) -> usize {
        self.deltas.len()
    }

    /// Largest radius at which any query signature still moved. Refinement
    /// iterations beyond `last_dirty_radius() + 1` cannot clear a bit.
    pub fn last_dirty_radius(&self) -> usize {
        self.last_dirty_radius
    }

    /// Every query signature at `radius` (1-based).
    pub fn signatures_at(&self, radius: usize) -> &[Signature] {
        self.facts.signatures_at(radius)
    }

    /// The dirty-row delta at `radius` (1-based).
    pub fn delta_at(&self, radius: usize) -> &DeltaClasses {
        assert!(
            (1..=self.deltas.len()).contains(&radius),
            "plan holds radii 1..={}, asked for {radius}",
            self.deltas.len()
        );
        &self.deltas[radius - 1]
    }

    /// The precomputed max-degree join plans, one per query graph.
    pub fn join_plans(&self) -> &[join::QueryPlan] {
        &self.join_plans
    }

    /// The label-pair signature schema.
    pub fn pair_schema(&self) -> &LabelSchema {
        &self.pair_schema
    }

    /// Query rows with a non-empty label-pair signature, class-major, each
    /// with its live-bucket mask — the pre-check kernel's work list (empty
    /// when every query edge or neighbor is a wildcard, in which case the
    /// pre-check is skipped).
    pub fn pair_rows(&self) -> &[PairRow] {
        &self.pair_rows
    }

    /// Query rows with a non-trivial node predicate, class-major — the
    /// predicate filter kernel's work list.
    pub fn pred_rows(&self) -> &[PredRow] {
        &self.pred_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureSet;
    use sigmo_graph::LabeledGraph;

    fn queries() -> Vec<LabeledGraph> {
        vec![
            // C-O and a lone C: tiny diameters, fast convergence.
            LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap(),
            LabeledGraph::from_edges(&[1], &[]).unwrap(),
        ]
    }

    #[test]
    fn plan_converges_and_memoizes_classes() {
        let cfg = EngineConfig::default(); // 6 iterations → radii 1..=5
        let plan = QueryPlan::build(&queries(), &cfg);
        assert_eq!(plan.max_radius(), 5);
        // C-O has diameter 1: signatures move only at radius 1.
        assert_eq!(plan.last_dirty_radius(), 1);
        assert!(!plan.delta_at(1).is_empty());
        // Radius 1's delta classes hold every row with a neighbour (the
        // lone C never moves); the converged radii hold none.
        assert_eq!(plan.delta_at(1).dirty_rows(), 2);
        assert!((2..=5).all(|r| plan.delta_at(r).is_empty()));
    }

    #[test]
    fn plan_signatures_match_a_fresh_signature_set() {
        let cfg = EngineConfig::with_iterations(4);
        let plan = QueryPlan::build(&queries(), &cfg);
        let csr = CsrGo::from_graphs(&queries());
        let mut set = SignatureSet::new(&csr, cfg.schema.clone());
        for r in 1..=3usize {
            set.advance(&csr);
            assert_eq!(plan.signatures_at(r), set.signatures(), "radius {r}");
        }
    }

    #[test]
    fn join_plans_cover_every_query_graph() {
        let plan = QueryPlan::build(&queries(), &EngineConfig::default());
        assert_eq!(plan.join_plans().len(), 2);
    }

    #[test]
    fn pair_rows_list_constrained_query_nodes_only() {
        let plan = QueryPlan::build(&queries(), &EngineConfig::default());
        // Both C-O endpoints carry one concrete (edge, neighbor) pair; the
        // isolated C node has none and must not enter the work list.
        let rows: Vec<u32> = plan.pair_rows().iter().map(|r| r.row).collect();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "radii 1..=5")]
    fn out_of_range_radius_panics() {
        let plan = QueryPlan::build(&queries(), &EngineConfig::default());
        plan.delta_at(6);
    }
}
