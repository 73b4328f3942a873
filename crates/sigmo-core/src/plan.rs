//! Reusable query-side plans: everything the filter and join phases can
//! precompute from the query batch alone, built once and shared.
//!
//! The streaming runner used to rebuild the query CSR-GO, the
//! [`LabelBuckets`], the per-radius query signatures, and the
//! [`SignatureClasses`] for *every* chunk — and the cluster simulator
//! replays the same query batch on every rank. All of that state is a
//! pure function of the query batch and the engine configuration, so
//! [`QueryPlan`] computes it exactly once:
//!
//! * query signatures at every radius the configured iteration count can
//!   reach — built by the same [`BatchFacts`] routine as the data side;
//! * [`SignatureClasses`] per radius, memoized — a radius where no query
//!   signature moved shares the previous radius' classes by `Arc` instead
//!   of rebuilding them;
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
use crate::filter::{self, DeltaClasses, LabelBuckets, PairRow, PredRow, SignatureClasses};
use crate::join;
use crate::schema::LabelSchema;
use crate::signature::Signature;
use sigmo_graph::{CsrGo, LabeledGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of [`QueryPlan`] constructions. Test instrumentation
/// only: the stream/cluster reuse pins assert a multi-chunk run builds
/// exactly one plan.
static PLAN_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of plans built so far in this process (test instrumentation).
#[doc(hidden)]
pub fn plan_build_count() -> u64 {
    PLAN_BUILDS.load(Ordering::Relaxed)
}

/// Query-side filter state at one refinement radius.
struct RadiusState {
    /// Signature-equivalence classes at this radius; shares the previous
    /// radius' `Arc` when no signature moved.
    classes: Arc<SignatureClasses>,
    /// Dirty rows (signature moved reaching this radius), grouped for the
    /// delta kernel.
    delta: DeltaClasses,
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
    /// `radii[r - 1]` is the state at radius `r` (used by iteration
    /// `r + 1`); radius 0 is the all-empty signature set and needs no
    /// entry.
    radii: Vec<RadiusState>,
    /// Largest radius with a non-empty delta (0 when no signature ever
    /// moves). Iterations beyond `last_dirty_radius + 1` cannot clear a
    /// bit, so the incremental engine stops there.
    last_dirty_radius: usize,
    /// How many times `SignatureClasses` were actually rebuilt (≤ number
    /// of radii; the memoization pin tests read this).
    classes_builds: usize,
    /// Max-degree join plans per query graph (the data-aware
    /// min-candidates ordering still has to be built per run).
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
        let mut radii: Vec<RadiusState> = Vec::with_capacity(max_radius);
        let mut last_dirty_radius = 0usize;
        let mut classes_builds = 0usize;
        let radius0 = vec![Signature::EMPTY; csr.num_nodes()];
        let mut prev_sigs: &[Signature] = &radius0;
        for r in 1..=max_radius {
            let sigs = facts.signatures_at(r);
            let delta = DeltaClasses::build(&config.schema, prev_sigs, sigs);
            if !delta.is_empty() {
                last_dirty_radius = r;
            }
            // A radius where nothing moved keeps the previous classes —
            // same signatures, same first-seen grouping.
            let classes = match radii.last() {
                Some(prev) if delta.is_empty() => Arc::clone(&prev.classes),
                _ => {
                    classes_builds += 1;
                    Arc::new(SignatureClasses::build(sigs))
                }
            };
            prev_sigs = sigs;
            radii.push(RadiusState { classes, delta });
        }
        let join_plans = (0..csr.num_graphs())
            .map(|qg| join::QueryPlan::build(&csr, qg, config.induced))
            .collect();
        let pair_schema = filter::pair_schema();
        let pair_rows = filter::pair_rows(facts.pairs(), &pair_schema);
        let pred_rows = filter::pred_rows(&csr);
        Self {
            csr,
            schema: config.schema.clone(),
            induced: config.induced,
            buckets,
            facts,
            radii,
            last_dirty_radius,
            classes_builds,
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
    /// per run. A zero-node query has no start node and gets the empty
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
                        join::QueryPlan::build_from(&self.csr, qg, self.induced, start as NodeId)
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
        self.radii.len()
    }

    /// Largest radius at which any query signature still moved. Refinement
    /// iterations beyond `last_dirty_radius() + 1` cannot clear a bit.
    pub fn last_dirty_radius(&self) -> usize {
        self.last_dirty_radius
    }

    /// How many distinct `SignatureClasses` were built (the rest were
    /// memoized from the previous radius).
    pub fn classes_builds(&self) -> usize {
        self.classes_builds
    }

    fn state(&self, radius: usize) -> &RadiusState {
        assert!(
            (1..=self.radii.len()).contains(&radius),
            "plan holds radii 1..={}, asked for {radius}",
            self.radii.len()
        );
        &self.radii[radius - 1]
    }

    /// Every query signature at `radius` (1-based).
    pub fn signatures_at(&self, radius: usize) -> &[Signature] {
        self.facts.signatures_at(radius)
    }

    /// The signature classes at `radius` (1-based).
    pub fn classes_at(&self, radius: usize) -> &SignatureClasses {
        &self.state(radius).classes
    }

    /// The dirty-row delta at `radius` (1-based).
    pub fn delta_at(&self, radius: usize) -> &DeltaClasses {
        &self.state(radius).delta
    }

    /// The precomputed max-degree join plans, one per query graph.
    pub fn join_plans(&self) -> &[join::QueryPlan] {
        &self.join_plans
    }

    /// The label-pair signature schema.
    pub fn pair_schema(&self) -> &LabelSchema {
        &self.pair_schema
    }

    /// Query rows with a non-empty label-pair signature, ascending, each
    /// with its live-bucket mask — the pre-check kernel's work list (empty
    /// when every query edge or neighbor is a wildcard, in which case the
    /// pre-check is skipped).
    pub fn pair_rows(&self) -> &[PairRow] {
        &self.pair_rows
    }

    /// Query rows with a non-trivial node predicate, ascending — the
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
        assert!(plan.delta_at(2).is_empty());
        // Classes rebuilt once (radius 1); radii 2..=5 share that Arc.
        assert_eq!(plan.classes_builds(), 1);
        assert_eq!(
            plan.classes_at(2).classes().len(),
            plan.classes_at(5).classes().len()
        );
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
        plan.classes_at(6);
    }
}
