//! The filtering kernels of Algorithm 1.
//!
//! * [`initialize_candidates`] — one work-item per data node; sets the
//!   candidate bit for every query node with a matching label. Query rows
//!   are pre-bucketed by label ([`LabelBuckets`], built once per batch),
//!   so each data node only walks the rows it will actually set —
//!   O(matching rows) instead of O(|V_Q|). A work-group takes its nodes
//!   one bitmap word at a time and ORs each label's column mask into
//!   every row of the label's bucket: one atomic word update per (row,
//!   word, label), where a device's lanes would coalesce one bit each;
//! * [`refine_candidates_delta`] — one refinement radius: only the query
//!   rows whose signature moved at this radius ([`DeltaClasses`]) are
//!   re-tested, so the candidate sets shrink monotonically and a radius
//!   where no query signature moved needs no launch (DESIGN.md §4b).
//!
//! The row-transposed kernels — [`label_pair_filter`],
//! [`node_predicate_filter`] and [`refine_candidates_delta`] — share one
//! class-major launch (`class_major_filter`). A row's verdict at a data
//! node depends only on the node and the row's class — its signature, or
//! its compiled predicate — so the plan lists each stage's rows class by
//! class, and the work-item of a class's first row judges the class once
//! over the union of its rows' live bits. Every row of the class then
//! clears its failing bits with one load and one store per word
//! (DESIGN.md §19). The domination tests are branch-free SWAR compares
//! over every selected group at once ([`Signature::dominates_tops`]).
//!
//! All kernels charge their modeled work to the device counters at word
//! granularity: every distinct bitmap word actually loaded goes through
//! `add_word_reads` (at the configured [`crate::WordWidth`]), one
//! signature load per domination test, and a handful of modeled
//! instructions per comparison — the accounting behind Figures 8 and 9.
//! The charges model a device kernel, so they count one set, test or
//! clear per candidate bit however the host batches the bits into words.
//!
//! The per-bit forms live in [`crate::naive`], whose
//! [`reference_filter`](crate::naive::reference_filter) is the oracle of
//! the whole filter phase; the differential test
//! `word_parallel_differential` pins the kernels to bit-identical bitmaps.

use crate::candidates::CandidateBitmap;
use crate::governor::Governor;
use crate::schema::LabelSchema;
use crate::signature::Signature;
use crate::stats::RowCounts;
use sigmo_device::Queue;
use sigmo_graph::{
    CsrGo, EdgeLabel, Label, NodeAttrs, NodeId, NodePredicate, WILDCARD_EDGE, WILDCARD_LABEL,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Modeled instruction cost of one label comparison in the init kernel.
const INIT_INSTR_PER_QNODE: u64 = 4;
/// Modeled instruction cost of one domination test (|L| group compares).
const REFINE_INSTR_PER_TEST: u64 = 24;

/// Plan-time verdict classes of a row list, given each row's verdict key
/// (the inputs its per-bit verdict reads besides the data node): every
/// distinct key gets a dense class id in first-seen order, keys only one
/// row holds included. Deterministic. The stage builders then sort their
/// rows by class id (stably, so a class's rows stay ascending): the
/// class-major order [`class_major_filter`] walks.
fn class_ids<K: std::hash::Hash + Eq>(keys: impl Iterator<Item = K>) -> Vec<u32> {
    let mut ids: std::collections::HashMap<K, u32> = std::collections::HashMap::new();
    keys.map(|k| {
        let next = ids.len() as u32;
        *ids.entry(k).or_insert(next)
    })
    .collect()
}

/// A row of a class-major filter stage: its query row and verdict class.
trait ClassRow: Sync {
    fn row_class(&self) -> (usize, u32);
}

/// The class-major launch shared by the row-transposed filter kernels
/// (DESIGN.md §19): one work-item per row of `rows` (class-major, as the
/// stage builders list them), [`DELTA_ROWS_PER_GROUP`] to a group. The
/// work-item of a class's first row does the class's work: it ORs the
/// class's rows into the class's slot, judges every bit of that union
/// once — `keep(row, column)`, branch-free — and leaves the failing bits
/// in the slot; every row of the class then clears `live & fail` with one
/// load and one store per word. The work-items of the class's other rows
/// find their rows done.
///
/// Exact: `keep` is a pure function of the class key and the column, so
/// the union's verdict at a column is each row's own. No two work-items
/// touch one class's rows or slot, so nothing races. The charges are the
/// per-bit walk's: per row, `tested = popcount(live)`,
/// `cleared = popcount(live & fail)`, `instr_per_test(row)` modeled
/// instructions per test, one load of each row word, one data-side fact
/// (8 bytes) per test and the row's own key (16 bytes). They are sums over
/// rows, so it does not matter which work-group charges a row. Each walked
/// row's live count goes to `counts`.
///
/// Returns the number of bits cleared.
#[allow(clippy::too_many_arguments)]
fn class_major_filter<R: ClassRow>(
    queue: &Queue,
    name: &str,
    rows: &[R],
    bitmap: &CandidateBitmap,
    counts: &RowCounts,
    governor: &Governor,
    instr_per_test: impl Fn(&R) -> u64 + Sync,
    keep: impl Fn(&R, usize) -> bool + Sync,
) -> u64 {
    let word_bytes = bitmap.word_width().bytes();
    let row_words = bitmap.words_per_row();
    // One zeroed slot per class, allocated outside the kernel closure: a
    // launch has at most one class per row, so the slots never exceed
    // the rows' share of the bitmap.
    let classes = rows.last().map_or(0, |r| r.row_class().1 as usize + 1);
    let slots: Vec<AtomicU64> = (0..classes * row_words)
        .map(|_| AtomicU64::new(0))
        .collect();
    let snap = queue.parallel_for_chunks_until(
        name,
        "filter",
        rows.len(),
        DELTA_ROWS_PER_GROUP,
        || governor.stopped(),
        |items, counters| {
            // Group-local charge accumulation, flushed once per work-group:
            // the counters take a handful of adds per group, not per row.
            let mut cleared = 0u64;
            let mut tests = 0u64;
            let mut test_instr = 0u64;
            let mut trip_sq = 0u64;
            let mut rows_run = 0u64;
            for i in items {
                if governor.stopped() {
                    break; // consult once per row, never per bit
                }
                let class = rows[i].row_class().1;
                if i > 0 && rows[i - 1].row_class().1 == class {
                    continue; // done with its class's first row
                }
                let len = rows[i..].iter().position(|m| m.row_class().1 != class);
                let members = &rows[i..i + len.unwrap_or(rows.len() - i)];
                let key = &rows[i];
                let slot = &slots[class as usize * row_words..][..row_words];
                for m in members {
                    bitmap.or_row_into(m.row_class().0, slot);
                }
                for (w, out) in slot.iter().enumerate() {
                    // sigmo-lint: allow(relaxed-read-in-report) — the slot
                    // and the class's rows are this work-item's alone.
                    let union = out.load(Ordering::Relaxed);
                    let fail = CandidateBitmap::fail_bits(union, w, |d| keep(key, d));
                    out.store(fail, Ordering::Relaxed);
                }
                for m in members {
                    let row = m.row_class().0;
                    let (row_tests, row_cleared) = bitmap.clear_row_failing(row, slot);
                    counts.set(row, row_tests - row_cleared);
                    cleared += row_cleared;
                    tests += row_tests;
                    test_instr += instr_per_test(m) * row_tests;
                    trip_sq += row_tests * row_tests;
                    rows_run += 1;
                }
            }
            if rows_run == 0 {
                return; // the group's rows were done with their classes' first rows
            }
            // Cost model of a transposed kernel: every bitmap word of a
            // scanned row is loaded exactly once (word-granular traffic);
            // each live bit costs one data-side load (8 bytes) and one
            // test; each scanned row loads its own key once (16 bytes).
            let words = rows_run * row_words as u64;
            counters.add_instructions(test_instr + words);
            counters.add_word_reads(words, word_bytes);
            counters.add_bytes_read(tests * 8 + rows_run * 16);
            counters.add_atomics(cleared);
            counters.add_bytes_written(cleared * word_bytes);
            counters.record_trip_moments(tests, trip_sq, rows_run);
        },
    );
    snap.atomic_ops
}

/// Per-label query-row lists, built once per batch (or once per *plan* —
/// [`crate::plan::QueryPlan`] caches them across stream chunks). The rows
/// whose candidate bit the init kernel must set for a data node labeled
/// `dl` are exactly the concrete bucket for `dl` plus the wildcard rows.
/// Wildcard query rows live only in the wildcard list, so every row is
/// set at most once for any data label (including the degenerate case of
/// a wildcard-labeled data node, whose concrete bucket is empty).
///
/// Storage is sparse: only labels that actually occur in the batch get a
/// bucket (molecular batches touch ~a dozen of the 256 possible labels),
/// and lookup is a linear scan of that short list — cheaper than
/// allocating 256 `Vec`s per stream chunk ever was.
pub struct LabelBuckets {
    by_label: Vec<(Label, Vec<u32>)>,
    wildcard: Vec<u32>,
}

impl LabelBuckets {
    /// Buckets every query node by its label in one O(|V_Q|) pass,
    /// allocating only for labels the batch actually uses.
    pub fn build(queries: &CsrGo) -> Self {
        let mut by_label: Vec<(Label, Vec<u32>)> = Vec::new();
        let mut wildcard = Vec::new();
        for q in 0..queries.num_nodes() {
            let ql = queries.label(q as NodeId);
            if ql == WILDCARD_LABEL {
                wildcard.push(q as u32);
            } else {
                match by_label.iter_mut().find(|(l, _)| *l == ql) {
                    Some((_, rows)) => rows.push(q as u32),
                    None => by_label.push((ql, vec![q as u32])),
                }
            }
        }
        LabelBuckets { by_label, wildcard }
    }

    /// Number of distinct concrete labels in the batch.
    pub fn touched_labels(&self) -> usize {
        self.by_label.len()
    }

    /// The concrete query rows labeled `label`, ascending.
    fn bucket(&self, label: Label) -> &[u32] {
        self.by_label
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, rows)| rows.as_slice())
            .unwrap_or(&[])
    }
}

/// The InitializeCandidates kernel: candidate bit `(q, d)` is set iff the
/// labels match, or the query node is a wildcard atom. Each data node
/// walks only its label bucket (plus wildcards), so work — and the
/// modeled instruction charge — scales with the bits actually set, not
/// with the full query population.
pub fn initialize_candidates(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    work_group_size: usize,
) {
    let buckets = LabelBuckets::build(queries);
    let governor = Governor::unlimited();
    initialize_candidates_bucketed(queue, &buckets, data, bitmap, work_group_size, &governor)
}

/// [`initialize_candidates`] with caller-provided [`LabelBuckets`] — the
/// form [`crate::plan::QueryPlan`] uses so the buckets are built once per
/// plan instead of once per chunk — under a [`Governor`]: a stopped
/// governor skips not-yet-started work-groups at dispatch and unprocessed
/// data nodes inside running groups. A truncated init leaves some
/// candidate bits unset — strictly fewer candidates, so downstream
/// results remain sound (every reported embedding is real) but
/// incomplete.
pub fn initialize_candidates_bucketed(
    queue: &Queue,
    buckets: &LabelBuckets,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    work_group_size: usize,
    governor: &Governor,
) {
    let word_bytes = bitmap.word_width().bytes();
    queue.parallel_for_chunks_until(
        "initialize_candidates",
        "filter",
        data.num_nodes(),
        work_group_size,
        || governor.stopped(),
        |items, counters| {
            // Group-local charge accumulation (see the refine kernels):
            // one counter flush per work-group.
            let mut sets = 0u64;
            let mut labels = 0u64;
            // The group's nodes one bitmap word (≤ 64 nodes) at a time:
            // gather the word's (label, column mask) pairs in a fixed
            // stack array, then OR each mask into every row of its label
            // bucket — one RMW per (row, word, label) instead of one per
            // bit. Wildcard rows take the whole span's mask.
            let mut lo = items.start;
            while lo < items.end {
                if governor.stopped() {
                    break; // one relaxed load per bitmap word
                }
                let word = lo / 64;
                let hi = items.end.min((word + 1) * 64);
                let mut by_label: [(Label, u64); 64] = [(0, 0); 64];
                let mut distinct = 0usize;
                for d in lo..hi {
                    let dl = data.label(d as NodeId);
                    let bit = 1u64 << (d % 64);
                    match by_label[..distinct].iter_mut().find(|(l, _)| *l == dl) {
                        Some((_, mask)) => *mask |= bit,
                        None => {
                            by_label[distinct] = (dl, bit);
                            distinct += 1;
                        }
                    }
                }
                let mut span = 0u64;
                for &(dl, mask) in &by_label[..distinct] {
                    let rows = buckets.bucket(dl);
                    for &q in rows {
                        bitmap.or_word(q as usize, word, mask);
                    }
                    sets += rows.len() as u64 * u64::from(mask.count_ones());
                    span |= mask;
                }
                for &q in &buckets.wildcard {
                    bitmap.or_word(q as usize, word, span);
                }
                sets += buckets.wildcard.len() as u64 * (hi - lo) as u64;
                labels += (hi - lo) as u64;
                lo = hi;
            }
            // Per data node: one bucket lookup plus one set per matching
            // row — the per-bit charge of a device kernel, whose lanes
            // coalesce into the word RMWs the host issues directly.
            counters.add_instructions(INIT_INSTR_PER_QNODE * sets + 2 * labels);
            counters.add_bytes_read(labels); // the data nodes' labels
            counters.add_atomics(sets);
            counters.add_bytes_written(sets * word_bytes);
        },
    );
}

/// The dirty query rows of one refinement radius, flattened for the
/// transposed (row-major) delta kernel: rows whose signature *changed*
/// when the query signatures advanced to this radius, each carrying
/// its new signature and its signature class's moved-field mask.
///
/// Restricting refinement to these rows is *exact*, not heuristic, by two
/// monotonicity facts (DESIGN.md §4b): `Signature::add` only grows
/// per-group counts, so data signatures grow pointwise with radius; and
/// domination `dsig ⊒ qsig` is monotone in `dsig`. A bit that survived
/// radius `r−1` against a query signature that did not move at radius `r`
/// therefore still satisfies `dsig_r ⊒ dsig_{r−1} ⊒ qsig_{r−1} = qsig_r`
/// — only rows whose signature moved can lose bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaClasses {
    rows: Vec<DeltaRow>,
}

/// One dirty query row at one radius.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRow {
    /// The row's signature at this radius.
    pub sig: Signature,
    /// Union, over the rows sharing `sig`, of the schema groups whose
    /// count moved reaching this radius (bit `i` = schema group `i`). The
    /// kernel's domination test checks only these fields — exact per live
    /// bit, because a surviving bit's data signature already dominates
    /// every unmoved field (the monotonicity argument above), and the
    /// union can only add fields the full test would also check.
    pub changed: u64,
    /// The top bit of every `changed` field ([`LabelSchema::top_bits`]):
    /// the mask of the kernel's branch-free test
    /// ([`Signature::dominates_tops`]).
    pub tops: u64,
    /// The dirty query row index.
    pub row: u32,
    /// The row's verdict class: the dirty rows with this `sig` (hence
    /// this `tops`), a singleton when only this row holds it.
    pub class: u32,
}

impl DeltaClasses {
    /// Collects the rows with `prev[q] != cur[q]` in one O(|V_Q|) pass,
    /// recording per signature class which schema fields moved (the union
    /// over class members — exact for every member, since a skipped field
    /// is unmoved for *all* of them). Deterministic: rows are class-major,
    /// classes in first-seen order and each class's rows ascending.
    pub fn build(schema: &LabelSchema, prev: &[Signature], cur: &[Signature]) -> Self {
        let mut index: std::collections::HashMap<Signature, usize> =
            std::collections::HashMap::new();
        let mut classes: Vec<u64> = Vec::new(); // moved-field union per class
        let mut dirty: Vec<(u32, u32)> = Vec::new(); // (row, class)
        for q in 0..cur.len() {
            let moved = cur[q].diff_groups(schema, &prev[q]);
            if moved == 0 {
                continue;
            }
            let class = *index.entry(cur[q]).or_insert_with(|| {
                classes.push(0);
                classes.len() - 1
            });
            classes[class] |= moved;
            dirty.push((q as u32, class as u32));
        }
        let mut rows: Vec<DeltaRow> = dirty
            .into_iter()
            .map(|(row, class)| {
                let changed = classes[class as usize];
                DeltaRow {
                    sig: cur[row as usize],
                    changed,
                    tops: schema.top_bits(changed),
                    row,
                    class,
                }
            })
            .collect();
        rows.sort_by_key(|r| r.class);
        DeltaClasses { rows }
    }

    /// True when no query signature moved at this radius — the refine
    /// launch for this iteration can be skipped entirely.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of dirty query rows (the `dirty_nodes` of
    /// [`crate::IterationStats`]).
    pub fn dirty_rows(&self) -> usize {
        self.rows.len()
    }

    /// The dirty rows, class-major — the delta kernel's work-items.
    pub fn rows(&self) -> &[DeltaRow] {
        &self.rows
    }
}

/// Rows dispatched per work-group of the class-major launch. A row
/// work-item scans its whole candidate row — three orders of magnitude
/// heavier than one data node's work — so the groups stay small to keep
/// every core busy even at a few hundred dirty rows.
const DELTA_ROWS_PER_GROUP: usize = 4;

/// The RefineCandidates kernel restricted to one radius' dirty work,
/// *transposed*: one work-item per dirty query row (not per data node),
/// in the class-major launch (`class_major_filter`): each
/// [`DeltaRow::class`] is judged once per word with the field-restricted
/// domination verdict, branch-free ([`Signature::dominates_tops`] over
/// [`DeltaRow::tops`]), and each dirty row clears its failing bits. Work
/// is O(bitmap words + live bits) in the dirty rows — columns whose bits
/// are long gone cost 1/64th of a word load, and data graphs with no live
/// bit anywhere (the per-graph deadness the convergence machinery tracks)
/// are skipped wholesale for free, because their columns are all-zero
/// words. Skipped work is never charged or ticked, so the word-read
/// accounting in `KernelSummary` reflects the real savings.
///
/// Bit-identical to testing every live bit of every query row at this
/// radius (`naive::refine_candidates`): the verdict for a live bit
/// `(q, d)` depends only on the two signatures, and the field-restricted
/// test is exact per live bit (see [`DeltaRow`]; the differential and
/// property tests pin it). Rows are disjoint across
/// work-items, so clears never race. Each walked row's live count goes to
/// `counts`.
///
/// Returns the number of bits cleared.
#[allow(clippy::too_many_arguments)]
pub fn refine_candidates_delta(
    queue: &Queue,
    data: &CsrGo,
    schema: &LabelSchema,
    delta: &DeltaClasses,
    data_sigs: &[Signature],
    bitmap: &CandidateBitmap,
    counts: &RowCounts,
    governor: &Governor,
) -> u64 {
    debug_assert_eq!(data.num_nodes(), bitmap.cols());
    let all_tops = schema.top_bits(u64::MAX);
    class_major_filter(
        queue,
        "refine_candidates",
        delta.rows(),
        bitmap,
        counts,
        governor,
        // Field-restricted test: ~2 instructions per moved field instead
        // of one compare per schema group (see [`DeltaRow::changed`]).
        |r| 2 * u64::from(r.changed.count_ones()) + 2,
        |r, d| data_sigs[d].dominates_tops(&r.sig, all_tops, r.tops),
    )
}

impl ClassRow for DeltaRow {
    fn row_class(&self) -> (usize, u32) {
        (self.row as usize, self.class)
    }
}

/// Number of (edge label, neighbor label) pair buckets: 16 uniform 4-bit
/// groups fill the 64-bit pair [`Signature`].
pub const PAIR_BUCKETS: usize = 16;

/// Schema of the label-pair signatures ([`pair_signature`]).
pub fn pair_schema() -> LabelSchema {
    LabelSchema::uniform(PAIR_BUCKETS)
}

/// Bucket of a fully-concrete (edge label, neighbor node label) pair.
/// Both sides hash with the same function, so a query pair and the data
/// pair that satisfies it always land in the same bucket.
#[inline]
pub fn pair_bucket(edge_label: EdgeLabel, neighbor_label: Label) -> Label {
    ((edge_label as u32 * 31 + neighbor_label as u32 * 131) % PAIR_BUCKETS as u32) as u8
}

/// The label-pair signature of node `v`: saturating bucketed counts of
/// its fully-concrete incident (edge label, neighbor label) pairs.
///
/// Pairs with a wildcard on either side are skipped — on the query side
/// because a wildcard pair constrains nothing, on the data side because a
/// wildcard data edge/neighbor can never satisfy a *concrete* query pair
/// (the join and init kernels require exact equality against concrete
/// query labels). Soundness: under any embedding, injectivity maps the
/// query node's concrete pairs to distinct data pairs with equal edge and
/// neighbor labels, so the data node's bucket counts dominate the query
/// node's — bucketing (a pure function of the pair) and saturation both
/// preserve domination.
pub fn pair_signature(graph: &CsrGo, schema: &LabelSchema, v: NodeId) -> Signature {
    let mut sig = Signature::EMPTY;
    let nbrs = graph.neighbors(v);
    let labels = graph.neighbor_edge_labels(v);
    for (i, &u) in nbrs.iter().enumerate() {
        let el = labels[i];
        let nl = graph.label(u);
        if el == WILDCARD_EDGE || nl == WILDCARD_LABEL {
            continue;
        }
        sig.add(schema, pair_bucket(el, nl), 1);
    }
    sig
}

/// The label-pair pre-check kernel: clears candidate bits whose data node
/// cannot supply the query node's concrete (edge label, neighbor label)
/// pairs. Runs once, right after init — edge labels are invisible to the
/// signature refinement loop (node-label signatures only), so this is the
/// one filter that prunes bond-order mismatches *before* the join's
/// per-extension edge checks, and the bits it clears make `next_candidate`
/// reject those extensions word-parallel via the bitmap probe.
///
/// Transposed like [`refine_candidates_delta`]: one work-item per
/// constrained query row (`pair_rows`, precomputed by the plan — rows
/// whose pair signature is non-empty), in the class-major launch: each
/// [`PairRow::class`] is judged once per word with the branch-free bucket
/// domination test over the row's live buckets ([`PairRow::tops`]). The
/// data nodes' pair signatures (`data_pairs[d]`) come precomputed from
/// [`crate::BatchFacts`]. Each walked row's live count goes to `counts`.
///
/// Returns the number of bits cleared.
pub fn label_pair_filter(
    queue: &Queue,
    data_pairs: &[Signature],
    schema: &LabelSchema,
    pair_rows: &[PairRow],
    bitmap: &CandidateBitmap,
    counts: &RowCounts,
    governor: &Governor,
) -> u64 {
    if pair_rows.is_empty() {
        return 0;
    }
    debug_assert_eq!(data_pairs.len(), bitmap.cols());
    let all_tops = schema.top_bits(u64::MAX);
    class_major_filter(
        queue,
        "label_pair_filter",
        pair_rows,
        bitmap,
        counts,
        governor,
        |_| REFINE_INSTR_PER_TEST,
        |r, d| data_pairs[d].dominates_tops(&r.sig, all_tops, r.tops),
    )
}

/// One constrained query row of the label-pair pre-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRow {
    /// The query row (flat query node id).
    pub row: u32,
    /// The row's label-pair signature (never empty).
    pub sig: Signature,
    /// Its live buckets: bit `i` set iff bucket `i` of `sig` is non-zero.
    /// Testing only these buckets is exact — a bucket where the query
    /// count is zero is dominated by every data count.
    pub live: u64,
    /// The top bit of every live bucket ([`LabelSchema::top_bits`] of
    /// `live`): the mask of the kernel's branch-free test
    /// ([`Signature::dominates_tops`]).
    pub tops: u64,
    /// The row's verdict class: the constrained rows with this `sig`
    /// (hence this `tops`), a singleton when only this row holds it.
    pub class: u32,
}

impl ClassRow for PairRow {
    fn row_class(&self) -> (usize, u32) {
        (self.row as usize, self.class)
    }
}

/// The constrained-row list [`label_pair_filter`] consumes: every query
/// row with a non-empty pair signature (`query_pairs[q]` is row `q`'s),
/// classed by pair signature, class-major. Plans build this once per
/// batch.
pub fn pair_rows(query_pairs: &[Signature], schema: &LabelSchema) -> Vec<PairRow> {
    let constrained =
        || (0..query_pairs.len() as u32).filter(|&q| query_pairs[q as usize] != Signature::EMPTY);
    let classes = class_ids(constrained().map(|q| query_pairs[q as usize]));
    let mut rows: Vec<PairRow> = constrained()
        .zip(classes)
        .map(|(row, class)| {
            let sig = query_pairs[row as usize];
            let live = sig.diff_groups(schema, &Signature::EMPTY);
            PairRow {
                row,
                sig,
                live,
                tops: schema.top_bits(live),
                class,
            }
        })
        .collect();
    rows.sort_by_key(|r| r.class);
    rows
}

/// One predicated query row of the node-predicate filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredRow {
    /// The query row (flat query node id).
    pub row: u32,
    /// Its compiled, non-trivial predicate.
    pub pred: NodePredicate,
    /// The row's verdict class: the predicated rows with an equal
    /// predicate, a singleton when only this row holds it.
    pub class: u32,
}

impl ClassRow for PredRow {
    fn row_class(&self) -> (usize, u32) {
        (self.row as usize, self.class)
    }
}

/// The predicated-row list [`node_predicate_filter`] consumes: every
/// query row with a non-trivial compiled predicate, classed by predicate,
/// class-major. Plans build this once per batch.
pub fn pred_rows(queries: &CsrGo) -> Vec<PredRow> {
    let predicated = || queries.predicates().iter().filter(|(_, p)| !p.is_trivial());
    let classes = class_ids(predicated().map(|(_, p)| p));
    let mut rows: Vec<PredRow> = predicated()
        .zip(classes)
        .map(|((row, pred), class)| PredRow {
            row: *row,
            pred: pred.clone(),
            class,
        })
        .collect();
    rows.sort_by_key(|r| r.class);
    rows
}

/// The node-predicate filter kernel: clears candidate bits whose data
/// node fails a query node's compiled [`NodePredicate`] (SMARTS atom
/// lists, degree, ring membership/size, H-count, formal charge). Runs
/// once, right after the label-pair pre-check — predicates are *local*
/// node properties, so like edge labels they are invisible to the
/// node-label signature refinement loop, and the bits cleared here
/// propagate to the join for free through the bitmap probe.
///
/// Transposed like [`label_pair_filter`]: one work-item per predicated
/// query row, in the class-major launch: each [`PredRow::class`] is judged
/// once per word by evaluating the predicate against the data nodes'
/// precomputed attributes ([`NodeAttrs`]: degree, H-neighbor count,
/// charge, smallest-ring size — from [`crate::BatchFacts`]). Each walked
/// row's live count goes to `counts`.
///
/// Returns the number of bits cleared.
pub fn node_predicate_filter(
    queue: &Queue,
    attrs: &NodeAttrs,
    pred_rows: &[PredRow],
    bitmap: &CandidateBitmap,
    counts: &RowCounts,
    governor: &Governor,
) -> u64 {
    if pred_rows.is_empty() {
        return 0;
    }
    debug_assert_eq!(attrs.labels.len(), bitmap.cols());
    // Each live bit loads the data node's packed attributes (8 bytes:
    // degree, h-count, charge, min-ring) and runs one predicate
    // evaluation; each row its own predicate record (16 bytes).
    class_major_filter(
        queue,
        "node_predicate_filter",
        pred_rows,
        bitmap,
        counts,
        governor,
        |_| REFINE_INSTR_PER_TEST,
        |r, d| r.pred.matches(attrs, d as NodeId),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::WordWidth;
    use crate::engine::{Engine, EngineConfig};
    use crate::facts::BatchFacts;
    use crate::plan::QueryPlan;
    use crate::schema::LabelSchema;
    use sigmo_device::DeviceProfile;
    use sigmo_graph::LabeledGraph;

    fn queue() -> Queue {
        Queue::new(DeviceProfile::host())
    }

    fn pairs_of(batch: &CsrGo) -> Vec<Signature> {
        (0..batch.num_nodes() as NodeId)
            .map(|v| pair_signature(batch, &pair_schema(), v))
            .collect()
    }

    /// Query: C-O (labels 1, 3). Data: two molecules — C(-O)(-H) and C-H.
    fn tiny() -> (CsrGo, CsrGo) {
        let q = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let d0 = LabeledGraph::from_edges(&[1, 3, 0], &[(0, 1), (0, 2)]).unwrap();
        let d1 = LabeledGraph::from_edges(&[1, 0], &[(0, 1)]).unwrap();
        (CsrGo::from_graphs(&[q]), CsrGo::from_graphs(&[d0, d1]))
    }

    #[test]
    fn init_sets_label_matches_only() {
        let (queries, data) = tiny();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&queue(), &queries, &data, &bm, 64);
        // Query node 0 (C) matches data nodes 0 (C) and 3 (C).
        assert!(bm.get(0, 0));
        assert!(bm.get(0, 3));
        assert!(!bm.get(0, 1));
        assert!(!bm.get(0, 2));
        // Query node 1 (O) matches only data node 1.
        assert!(bm.get(1, 1));
        assert_eq!(bm.row_count(1), 1);
    }

    /// Refines `bm` with the delta kernel at radii `1..=radii`, as the
    /// engine does after init (without the label-pair and predicate
    /// stages); returns the bits cleared at each radius.
    fn refine_radii(queries: &CsrGo, data: &CsrGo, bm: &CandidateBitmap, radii: usize) -> Vec<u64> {
        let cfg = EngineConfig::with_iterations(radii + 1);
        let plan = QueryPlan::from_batch(queries.clone(), &cfg);
        let facts = BatchFacts::compute(data, &cfg.schema, radii, false);
        let counts = RowCounts::of(bm);
        (1..=radii)
            .map(|r| {
                refine_candidates_delta(
                    &queue(),
                    data,
                    &cfg.schema,
                    plan.delta_at(r),
                    facts.signatures_at(r),
                    bm,
                    &counts,
                    &Governor::unlimited(),
                )
            })
            .collect()
    }

    /// The engine's filter phase at `iterations` over a fresh bitmap.
    fn engine_filter(queries: &CsrGo, data: &CsrGo, iterations: usize) -> CandidateBitmap {
        let cfg = EngineConfig::with_iterations(iterations);
        let plan = QueryPlan::from_batch(queries.clone(), &cfg);
        let facts = BatchFacts::for_run(&cfg, &plan, data, &[]);
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), cfg.bitmap_word);
        let governor = Governor::unlimited();
        Engine::new(cfg).filter_with_facts(&plan, data, &facts, &bm, &queue(), &governor);
        bm
    }

    #[test]
    fn refine_prunes_carbon_without_oxygen_neighbor() {
        let (queries, data) = tiny();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&queue(), &queries, &data, &bm, 64);
        let cleared = refine_radii(&queries, &data, &bm, 1);
        // Data node 3 (the C of C-H) has no O neighbor: pruned.
        assert!(bm.get(0, 0));
        assert!(!bm.get(0, 3));
        assert_eq!(cleared, [1]);
    }

    #[test]
    fn refinement_is_monotone() {
        let (queries, data) = tiny();
        let mut prev = usize::MAX;
        for iterations in 1..=5 {
            let cur = engine_filter(&queries, &data, iterations).total_count();
            assert!(cur <= prev, "candidates grew: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn kernel_filter_agrees_with_reference() {
        let (queries, data) = tiny();
        let schema = LabelSchema::organic();
        for iters in 1..=3usize {
            let bm = engine_filter(&queries, &data, iters);
            let reference =
                CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), bm.word_width());
            crate::naive::reference_filter(&queries, &data, &schema, iters, &reference);
            for qn in 0..queries.num_nodes() {
                for d in 0..data.num_nodes() {
                    assert_eq!(
                        bm.get(qn, d),
                        reference.get(qn, d),
                        "bit ({qn}, {d}) at {iters} iterations"
                    );
                }
            }
        }
    }

    #[test]
    fn filter_soundness_never_prunes_true_match_site() {
        // Query C=O is present in data molecule formaldehyde-like C(=O)H2
        // (ignoring bond orders: filter is structure-only).
        let q = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let d = LabeledGraph::from_edges(&[1, 3, 0, 0], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let data = CsrGo::from_graphs(&[d]);
        let bm = engine_filter(&queries, &data, 6);
        // The true embedding maps q0 -> d0, q1 -> d1; both bits must survive.
        assert!(bm.get(0, 0), "true candidate for C pruned");
        assert!(bm.get(1, 1), "true candidate for O pruned");
    }

    #[test]
    fn label_buckets_partition_query_rows() {
        let q = LabeledGraph::from_edges(&[1, 3, 1, WILDCARD_LABEL], &[(0, 1), (2, 3)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let buckets = LabelBuckets::build(&queries);
        assert_eq!(buckets.bucket(1), [0, 2]);
        assert_eq!(buckets.bucket(3), [1]);
        assert_eq!(buckets.wildcard, [3]);
        // An unmatched label, and a wildcard data label, match only the
        // wildcard row.
        assert!(buckets.bucket(7).is_empty());
        assert!(buckets.bucket(WILDCARD_LABEL).is_empty());
    }

    #[test]
    fn bucketed_init_matches_naive() {
        let (queries, data) = tiny();
        let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&queue(), &queries, &data, &fast, 64);
        crate::naive::initialize_candidates(&queries, &data, &slow);
        for q in 0..queries.num_nodes() {
            for d in 0..data.num_nodes() {
                assert_eq!(fast.get(q, d), slow.get(q, d), "bit ({q}, {d})");
            }
        }
    }

    #[test]
    fn pair_rows_mark_exactly_the_non_zero_buckets() {
        let schema = pair_schema();
        let queries: Vec<LabeledGraph> = (0..20)
            .map(|i| sigmo_graph::random_sparse_graph(8, 4, 12, 500 + i))
            .collect();
        let batch = CsrGo::from_graphs(&queries);
        let rows = pair_rows(&pairs_of(&batch), &schema);
        assert!(!rows.is_empty());
        for r in &rows {
            let nonzero = (0..PAIR_BUCKETS as u8)
                .filter(|&b| r.sig.count(&schema, b) != 0)
                .fold(0u64, |m, b| m | 1 << b);
            assert_eq!(r.live, nonzero, "row {}", r.row);
            assert_eq!(r.sig, pair_signature(&batch, &schema, r.row));
        }
    }

    #[test]
    fn label_pair_filter_matches_naive_on_random_batches() {
        // Twelve node labels and three edge labels spread the pairs over
        // every bucket, so a test that skipped any live bucket would keep
        // a bit the per-bit oracle clears.
        let schema = pair_schema();
        for seed in 0..8u64 {
            let queries: Vec<LabeledGraph> = (0..6)
                .map(|i| sigmo_graph::random_sparse_graph(5, 2, 12, seed * 100 + i))
                .collect();
            let data: Vec<LabeledGraph> = (0..30)
                .map(|i| sigmo_graph::random_sparse_graph(20, 6, 12, seed * 1000 + 50 + i))
                .collect();
            let (queries, data) = (CsrGo::from_graphs(&queries), CsrGo::from_graphs(&data));
            let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            initialize_candidates(&queue(), &queries, &data, &fast, 64);
            crate::naive::initialize_candidates(&queries, &data, &slow);
            let rows = pair_rows(&pairs_of(&queries), &schema);
            let cleared = label_pair_filter(
                &queue(),
                &pairs_of(&data),
                &schema,
                &rows,
                &fast,
                &RowCounts::of(&fast),
                &Governor::unlimited(),
            );
            let expected = crate::naive::label_pair_filter(&queries, &data, &schema, &slow);
            assert_eq!(cleared, expected, "seed {seed}");
            assert!(cleared > 0, "seed {seed} must exercise the pre-check");
            for q in 0..queries.num_nodes() {
                for d in 0..data.num_nodes() {
                    assert_eq!(fast.get(q, d), slow.get(q, d), "seed {seed} bit ({q}, {d})");
                }
            }
        }
    }

    #[test]
    fn wildcard_query_node_accepts_all_labels() {
        let q = LabeledGraph::from_edges(&[WILDCARD_LABEL, 3], &[(0, 1)]).unwrap();
        let d = LabeledGraph::from_edges(&[1, 3, 0], &[(0, 1), (0, 2)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let data = CsrGo::from_graphs(&[d]);
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&queue(), &queries, &data, &bm, 64);
        assert_eq!(bm.row_count(0), 3, "wildcard row holds every data node");
        assert_eq!(bm.row_count(1), 1);
    }
}
