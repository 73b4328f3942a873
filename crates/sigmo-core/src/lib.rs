//! The SIGMo pipeline: batched subgraph isomorphism via filter-and-join.
//!
//! This crate implements the paper's primary contribution (§3–§4):
//!
//! 1. **Candidate initialization** — per query node, every data node with a
//!    matching label ([`filter::initialize_candidates`]);
//! 2. **Iterative signature refinement** — node signatures count, per
//!    label, the nodes within a growing radius; stored as frequency-skewed
//!    masked bitsets in a single `u64` ([`Signature`], [`LabelSchema`]);
//!    a data node survives iff its signature *dominates* the query node's
//!    ([`filter::refine_candidates`]);
//! 3. **Mapping** — the Graph Mapping Compressed Representation
//!    ([`Gmcr`]) lists, per data graph, the query graphs whose every node
//!    still has candidates there;
//! 4. **Join** — stack-based DFS backtracking over the pruned candidates,
//!    one work-group per data graph ([`join`]), in *Find All* or
//!    *Find First* mode.
//!
//! [`Engine`] orchestrates the full pipeline (Figure 2) and produces a
//! [`RunReport`] with the per-phase timings and per-iteration candidate
//! statistics the paper's figures are built from.
//!
//! ## Matching semantics
//!
//! Definition 2.1 requires label preservation and `(v,u) ∈ E_Q ⇒
//! (f(v),f(u)) ∈ E_H` — i.e. substructure (monomorphism) semantics: extra
//! data-graph edges among mapped nodes are allowed. That is the standard
//! semantics for molecular substructure search and the default here;
//! [`EngineConfig::induced`] switches to strict induced matching as an
//! extension. Edge labels (bond orders) are checked during the join, as in
//! §4.6. Wildcard atoms and bonds — the paper's announced future work — are
//! supported via `sigmo_graph::WILDCARD_LABEL` / `WILDCARD_EDGE`.

pub mod candidates;
pub mod engine;
pub mod facts;
pub mod filter;
pub mod governor;
pub mod join;
pub mod join_bfs;
pub mod mapping;
pub mod memory;
pub mod naive;
pub mod plan;
pub mod schema;
pub mod signature;
pub mod stats;
pub mod stream;

pub use candidates::{CandidateBitmap, WordWidth};
pub use engine::{
    Engine, EngineConfig, FilterMode, JoinOrder, JoinStrategy, MatchMode, PhaseTimings, RunReport,
};
pub use facts::{BatchFacts, MolFacts};
pub use filter::{DeltaClasses, LabelBuckets, SignatureClasses};
pub use governor::{CancelToken, Completion, Governor, RunBudget, TruncationReason};
pub use join::cost::{JoinVariant, OrderChoice};
pub use join::{JoinOutcome, MatchRecord};
pub use join_bfs::{join_bfs, BfsJoinOutcome};
pub use mapping::Gmcr;
pub use memory::{estimate as estimate_memory, estimate_scaled, max_scale_factor, MemoryEstimate};
pub use plan::QueryPlan;
pub use schema::LabelSchema;
pub use signature::{Signature, SignatureSet};
pub use stats::{CandidateStats, IterationStats, StrategyCounts};
pub use stream::{Quarantined, StreamReport, StreamRunner};
