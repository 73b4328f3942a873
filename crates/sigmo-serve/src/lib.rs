//! Batched request serving for the SIGMo engine.
//!
//! The paper frames SIGMo as the matching core of a high-throughput
//! screening service (§1–2): many concurrent clients, each with a small
//! query set and a slice of a molecule library, sharing one accelerator.
//! This crate is that serving layer:
//!
//! * [`Server`] — admission control over a bounded queue (backpressure by
//!   rejection), micro-batching of compatible requests into shared
//!   [`sigmo_core::StreamRunner`] passes, and per-request scatter of the
//!   batched attribution.
//! * [`cache`] — three dedup stores: the canonical-molecule store
//!   ([`cache::MolStore`], keyed on [`sigmo_mol::canonical_code`]), the
//!   plan cache ([`cache::PlanCache`], keyed on ordered query canonical
//!   codes), and the per-molecule result cache ([`cache::ResultCache`]).
//! * [`sim`] — a deterministic virtual-clock load simulator and the
//!   unbatched oracle the soak tests compare against.
//! * sharded serving — with [`ServeConfig::sharding`] set, the corpus is
//!   partitioned across simulated ranks and every executed slice is
//!   dispatched through [`sigmo_cluster::ShardRouter`] (re-exported here):
//!   replica retry, seeded fault injection, work-stealing, and graceful
//!   degradation on the virtual clock, one tick per molecule — results
//!   bit-identical to the unsharded fault-free oracle.
//!
//! The [`sigmo_index`] screening tier plugs in underneath the molecule
//! store: each interned molecule's signature digest is registered once,
//! and every execution batch is screened against the standing index
//! before the engine runs. Screening is sound (DESIGN.md §13) — a pruned
//! molecule's synthesized empty outcome is exactly what the engine would
//! have produced — so index-on and index-off transcripts are
//! bit-identical, ticks included.
//!
//! The design contract (DESIGN.md §9): batching and caching are invisible
//! to results. A molecule's outcome is a pure function of (plan, molecule,
//! mode, step budget) because the stream runner bisects truncated chunks
//! down to solo runs and join-step budgets are local to each molecule's
//! work-group — so serving the cached outcome is bit-identical to
//! re-running the molecule alone.

pub mod cache;
pub mod server;
pub mod sim;

pub use cache::{MolOutcome, MolStore, PlanCache, ResultCache};
pub use server::{
    CorpusLoad, MatchRequest, RejectReason, RequestReport, ServeConfig, ServeStats, Server,
    StepOutcome,
};
pub use sigmo_cluster::{
    FaultPlan, RetryPolicy, ShardConfig, ShardRouter, ShardStats, SliceDispatch,
};
pub use sigmo_index::{FrozenIndex, IndexConfig, IndexFileError, ScreenQuery};
pub use sim::{
    generate_workload, oracle_replay, run_soak, served_outcome, OracleOutcome, SoakEntry,
    SoakReport, TimedRequest, WorkloadConfig,
};
