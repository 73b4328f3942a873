//! Corpus-scale persistent signature index.
//!
//! A serving deployment holds a *standing corpus* of molecules and
//! answers a stream of substructure queries against it. Without an
//! index, screening cost grows with the corpus: every request pays the
//! bitmap filter over every molecule it touches. This crate moves that
//! cost to ingest time. Each molecule is summarized **once** — into the
//! label set it contains, inverted label / label-pair posting lists,
//! and a per-molecule *signature digest* (the per-group maximum of its
//! node signatures at radius `k`, folded from the very same
//! [`sigmo_core::BatchFacts`] the engine's filter reads) — so a query can reject whole molecules with a handful
//! of `u64` compares before any [`sigmo_core::QueryPlan`] bitmap is
//! allocated. Screening cost then scales with the *surviving* set, not
//! the corpus.
//!
//! # Soundness (no false rejects), and bit-identity
//!
//! Screening is only usable in front of an exact engine if it never
//! rejects a molecule the engine would match. The checks here are
//! strictly stronger: every rejection implies some query node's
//! candidate row over that molecule is **empty** at a point the exact
//! filter itself enforces, so the molecule could not have reached the
//! join at all. Concretely, [`MoleculeIndex::screen`] rejects a
//! molecule for a query graph only when some query node
//!
//! 1. has a concrete label the molecule does not contain (its candidate
//!    row is empty at label-bucketed init),
//! 2. has a label-pair signature the molecule's pair digest fails to
//!    dominate (the row is wiped by the unconditional init-time
//!    label-pair pre-check), or
//! 3. has a radius-`r` signature (`r = min(k, last_dirty_radius)`) the
//!    molecule's radius-`k` signature digest fails to dominate (the row
//!    is wiped by refinement at radius `r`; data signatures only grow
//!    with radius, so the radius-`k` digest dominates everything the
//!    radius-`r` data signatures dominate).
//!
//! A molecule is pruned only when **every** query graph rejects it —
//! exactly the condition under which the exact run has no GMCR pair for
//! the molecule, produces zero matches, performs zero join steps, and
//! reports `Complete`. The serving layer can therefore synthesize that
//! empty outcome for pruned molecules and stay bit-identical to the
//! index-off path, step budgets included. DESIGN.md §13 carries the
//! full argument.
//!
//! # Layout
//!
//! * [`digest`] — per-molecule summaries ([`MolDigest`]).
//! * [`query`] — the query side ([`ScreenQuery`], built from a plan).
//! * [`index`] — the in-memory index ([`MoleculeIndex`]): postings,
//!   incremental add / tombstoning remove, per-molecule and
//!   corpus-level screening.
//! * [`disk`] — the persistent form: a little-endian, fixed-width,
//!   checksummed section file ([`FrozenIndex`]) validated without
//!   copying, loadable back into a [`MoleculeIndex`].

pub mod digest;
pub mod disk;
pub mod index;
pub mod query;

pub use digest::MolDigest;
pub use disk::{serialize, FrozenIndex, IndexFileError, IndexStat};
pub use index::{IndexStats, MoleculeIndex};
pub use query::ScreenQuery;

/// Index build parameters. The radius must cover the deepest signature
/// the screen will be asked to check; [`ScreenQuery`] clamps itself to
/// `min(radius, plan.last_dirty_radius())`, so any value is *sound* —
/// larger radii just screen more sharply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Signature digest radius `k`: per-molecule digests summarize each
    /// node's radius-`k` neighborhood. The default matches the engine's
    /// default refinement depth (`refinement_iterations − 1`).
    pub radius: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self { radius: 4 }
    }
}
