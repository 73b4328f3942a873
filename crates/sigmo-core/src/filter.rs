//! The filtering kernels of Algorithm 1.
//!
//! * [`initialize_candidates`] — one work-item per data node; sets the
//!   candidate bit for every query node with a matching label. Query rows
//!   are pre-bucketed by label ([`LabelBuckets`], built once per batch),
//!   so each data node only walks the rows it will actually set —
//!   O(matching rows) instead of O(|V_Q|);
//! * [`refine_candidates`] — one work-item per data node; query nodes are
//!   grouped into signature-equivalence classes ([`SignatureClasses`],
//!   one per radius) and one domination test is run per class
//!   with at least one surviving bit, its verdict applied to every member
//!   row. Refinement at iteration `i` only consults candidates surviving
//!   iteration `i−1`, so the candidate sets shrink monotonically.
//!
//! Both kernels charge their modeled work to the device counters at word
//! granularity: every distinct bitmap word actually loaded goes through
//! `add_word_reads` (at the configured [`crate::WordWidth`]), one
//! signature load per domination test, and a handful of modeled
//! instructions per comparison — the accounting behind Figures 8 and 9.
//!
//! The pre-optimization per-bit forms live in [`crate::naive`]; the
//! differential test `word_parallel_differential` pins both kernels to
//! produce bit-identical bitmaps.

use crate::candidates::CandidateBitmap;
use crate::governor::Governor;
use crate::schema::LabelSchema;
use crate::signature::{Signature, SignatureSet};
use sigmo_device::Queue;
use sigmo_graph::{
    CsrGo, EdgeLabel, Label, NodeAttrs, NodeId, NodePredicate, WILDCARD_EDGE, WILDCARD_LABEL,
};

/// Modeled instruction cost of one label comparison in the init kernel.
const INIT_INSTR_PER_QNODE: u64 = 4;
/// Modeled instruction cost of one domination test (|L| group compares).
const REFINE_INSTR_PER_TEST: u64 = 24;

/// Per-label query-row lists, built once per batch (or once per *plan* —
/// [`crate::plan::QueryPlan`] caches them across stream chunks).
/// `rows_for(dl)` yields exactly the rows whose candidate bit the init
/// kernel must set for a data node labeled `dl`: the concrete bucket for
/// `dl` chained with the wildcard rows. Wildcard query rows live only in
/// the wildcard list, so every row is yielded at most once for any data
/// label (including the degenerate case of a wildcard-labeled data node).
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

    fn bucket(&self, label: Label) -> &[u32] {
        self.by_label
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, rows)| rows.as_slice())
            .unwrap_or(&[])
    }

    /// The query rows matching data label `label`, ascending within each
    /// of the two segments (concrete bucket, then wildcards).
    pub fn rows_for(&self, label: Label) -> impl Iterator<Item = u32> + '_ {
        self.bucket(label)
            .iter()
            .chain(self.wildcard.iter())
            .copied()
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
    initialize_candidates_governed(
        queue,
        queries,
        data,
        bitmap,
        work_group_size,
        &Governor::unlimited(),
    )
}

/// [`initialize_candidates`] under a [`Governor`]: a stopped governor
/// skips not-yet-started work-groups at dispatch and unprocessed data
/// nodes inside running groups. A truncated init leaves some candidate
/// bits unset — strictly fewer candidates, so downstream results remain
/// sound (every reported embedding is real) but incomplete.
pub fn initialize_candidates_governed(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    work_group_size: usize,
    governor: &Governor,
) {
    let buckets = LabelBuckets::build(queries);
    initialize_candidates_bucketed(queue, &buckets, data, bitmap, work_group_size, governor)
}

/// [`initialize_candidates_governed`] with caller-provided
/// [`LabelBuckets`] — the form [`crate::plan::QueryPlan`] uses so the
/// buckets are built once per plan instead of once per chunk.
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
            let mut visit = |d: usize| {
                let dl = data.label(d as NodeId);
                labels += 1;
                for q in buckets.rows_for(dl) {
                    bitmap.set(q as usize, d);
                    sets += 1;
                }
            };
            for d in items {
                if governor.stopped() {
                    break; // one relaxed load per data node, word-granular
                }
                visit(d);
            }
            // One bucket lookup plus one set per matching row; the dense
            // per-row label compare of the naive kernel is gone.
            counters.add_instructions(INIT_INSTR_PER_QNODE * sets + 2 * labels);
            counters.add_bytes_read(labels); // the data nodes' labels
            counters.add_atomics(sets);
            counters.add_bytes_written(sets * word_bytes);
        },
    );
}

/// Query nodes grouped by identical signature. The domination verdict for
/// a (query row, data node) pair depends only on the two signatures, so
/// rows sharing a signature share their verdict against every data node:
/// the refine kernel runs one test per *class* instead of one per row.
/// Plans build one set per radius (signatures advance between radii) in
/// one O(|V_Q|) pass, ordered by smallest member row so the grouping is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureClasses {
    classes: Vec<(Signature, Vec<u32>)>,
}

impl SignatureClasses {
    /// Groups all query rows by their signature (`query_sigs[q]` is row
    /// `q`'s signature at one radius).
    pub fn build(query_sigs: &[Signature]) -> Self {
        let mut index: std::collections::HashMap<Signature, usize> =
            std::collections::HashMap::new();
        let mut classes: Vec<(Signature, Vec<u32>)> = Vec::new();
        for (q, &sig) in query_sigs.iter().enumerate() {
            match index.entry(sig) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    classes[*e.get()].1.push(q as u32);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(classes.len());
                    classes.push((sig, vec![q as u32]));
                }
            }
        }
        // First-seen order == ascending smallest member, since rows are
        // visited in ascending order.
        SignatureClasses { classes }
    }

    /// The classes as `(signature, ascending member rows)`.
    pub fn classes(&self) -> &[(Signature, Vec<u32>)] {
        &self.classes
    }

    /// Number of distinct signatures.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when there are no query rows at all.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// The RefineCandidates kernel: clears candidate bits whose data signature
/// no longer dominates the query signature.
///
/// Per data node the kernel walks signature classes, probing member rows'
/// bits until the first survivor; classes with no surviving bit are
/// skipped without a test. A dominating verdict keeps every member bit
/// (nothing to do — the remaining members are not even probed); a failing
/// verdict clears every surviving member bit. Identical bits to the
/// per-row form, at one domination test per live class.
///
/// Wildcard query nodes skip the domination test — their signature may
/// demand labels the data node legitimately lacks only when the wildcard's
/// neighbors are themselves concrete, which the test covers; the wildcard
/// node's own label contributes nothing (see `SignatureSet`).
///
/// Returns the number of bits cleared this iteration.
pub fn refine_candidates(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    query_sigs: &SignatureSet,
    data_sigs: &SignatureSet,
    bitmap: &CandidateBitmap,
    work_group_size: usize,
) -> u64 {
    refine_candidates_governed(
        queue,
        queries,
        data,
        query_sigs,
        data_sigs,
        bitmap,
        work_group_size,
        &Governor::unlimited(),
    )
}

/// [`refine_candidates`] under a [`Governor`]. Refinement only *clears*
/// bits, so stopping it early leaves a superset of the fully refined
/// candidates — the join stays correct, just less pruned.
#[allow(clippy::too_many_arguments)]
pub fn refine_candidates_governed(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    query_sigs: &SignatureSet,
    data_sigs: &SignatureSet,
    bitmap: &CandidateBitmap,
    work_group_size: usize,
    governor: &Governor,
) -> u64 {
    assert_eq!(queries.num_nodes(), query_sigs.signatures().len());
    let classes = SignatureClasses::build(query_sigs.signatures());
    refine_candidates_classes(
        queue,
        data,
        query_sigs.schema(),
        &classes,
        data_sigs.signatures(),
        bitmap,
        work_group_size,
        governor,
    )
}

/// [`refine_candidates_governed`] with caller-provided
/// [`SignatureClasses`] and data signatures (`data_sigs[d]` is node `d`'s
/// signature at this radius, from [`crate::BatchFacts`]): the form the
/// engine uses, so the classes are built (and memoized across converged
/// radii) once per plan instead of once per kernel launch.
#[allow(clippy::too_many_arguments)]
pub fn refine_candidates_classes(
    queue: &Queue,
    data: &CsrGo,
    schema: &LabelSchema,
    classes: &SignatureClasses,
    data_sigs: &[Signature],
    bitmap: &CandidateBitmap,
    work_group_size: usize,
    governor: &Governor,
) -> u64 {
    let word_bytes = bitmap.word_width().bytes();
    let snap = queue.parallel_for_chunks_until(
        "refine_candidates",
        "filter",
        data.num_nodes(),
        work_group_size,
        || governor.stopped(),
        |items, counters| {
            // Modeled charges accumulate in group-locals and flush once per
            // work-group: the shared counter atomics cost a handful of RMWs
            // per group, not several per data node.
            let mut cleared = 0u64;
            let mut tests = 0u64;
            let mut probes = 0u64;
            let mut trip_sq = 0u64;
            let mut items_run = 0u64;
            let mut visit = |d: usize| {
                let dsig = data_sigs[d];
                let mut node_tests = 0u64;
                // The paper prefetches the relevant bitmap words into local
                // memory per work-group; on the host executor the row words
                // are already cache-resident, so we charge the modeled
                // traffic and read the shared bitmap directly.
                for (qsig, members) in classes.classes() {
                    // Probe members until the first surviving bit decides
                    // whether this class needs a test at all.
                    let mut first_live = None;
                    for (i, &q) in members.iter().enumerate() {
                        probes += 1;
                        if bitmap.get(q as usize, d) {
                            first_live = Some(i);
                            break;
                        }
                    }
                    let Some(first_live) = first_live else {
                        continue;
                    };
                    node_tests += 1;
                    if dsig.dominates(schema, qsig) {
                        // Every member bit survives; the rest need no probe.
                        continue;
                    }
                    bitmap.clear(members[first_live] as usize, d);
                    cleared += 1;
                    for &q in &members[first_live + 1..] {
                        probes += 1;
                        if bitmap.get(q as usize, d) {
                            bitmap.clear(q as usize, d);
                            cleared += 1;
                        }
                    }
                }
                tests += node_tests;
                trip_sq += node_tests * node_tests;
                items_run += 1;
            };
            for d in items {
                if governor.stopped() {
                    break; // consult once per data node, never per bit
                }
                visit(d);
            }
            counters.add_instructions(REFINE_INSTR_PER_TEST * tests + probes);
            // Each probed row costs exactly one bitmap word (the word of
            // this data node's column in that row): charge the words
            // actually touched, word-granular. Signature pairs are
            // per-test.
            counters.add_word_reads(probes, word_bytes);
            counters.add_bytes_read(tests * 16);
            counters.add_atomics(cleared);
            counters.add_bytes_written(cleared * word_bytes);
            counters.record_trip_moments(tests, trip_sq, items_run);
        },
    );
    snap.atomic_ops
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
    /// The dirty query row index.
    pub row: u32,
}

impl DeltaClasses {
    /// Collects the rows with `prev[q] != cur[q]` in one O(|V_Q|) pass,
    /// recording per signature class which schema fields moved (the union
    /// over class members — exact for every member, since a skipped field
    /// is unmoved for *all* of them). Deterministic: rows stay in
    /// ascending order.
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
        let rows = dirty
            .into_iter()
            .map(|(row, class)| DeltaRow {
                sig: cur[row as usize],
                changed: classes[class as usize],
                row,
            })
            .collect();
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

    /// The dirty rows, ascending — the delta kernel's work-items.
    pub fn rows(&self) -> &[DeltaRow] {
        &self.rows
    }
}

/// Dirty rows dispatched per work-group of the transposed delta kernel.
/// A row work-item scans its whole candidate row — three orders of
/// magnitude heavier than the node work-items of the full kernel — so the
/// groups stay small to keep every core busy even at a few hundred dirty
/// rows.
const DELTA_ROWS_PER_GROUP: usize = 4;

/// The RefineCandidates kernel restricted to one radius' dirty work,
/// *transposed*: one work-item per dirty query row (not per data node),
/// which enumerates its own live candidate bits word-parallel
/// ([`CandidateBitmap::iter_set_in_range`]) and applies the
/// field-restricted domination verdict at each live bit. Work is
/// O(bitmap words + live bits) in the dirty rows — columns whose bits are
/// long gone cost 1/64th of a word load, and data graphs with no live bit
/// anywhere (the per-graph deadness the convergence machinery tracks) are
/// skipped wholesale for free, because their columns are all-zero words.
/// Skipped work is never charged or ticked, so the word-read accounting in
/// `KernelSummary` reflects the real savings.
///
/// Bit-identical to running the full class set through
/// [`refine_candidates_classes`] at the same radius: the verdict for a
/// live bit `(q, d)` depends only on the two signatures, and the
/// field-restricted test is exact per live bit (see [`DeltaRow`]; the
/// differential and property tests pin it). Rows are disjoint across
/// work-items, so clears never race.
///
/// Returns the number of bits cleared.
pub fn refine_candidates_delta(
    queue: &Queue,
    data: &CsrGo,
    schema: &LabelSchema,
    delta: &DeltaClasses,
    data_sigs: &[Signature],
    bitmap: &CandidateBitmap,
    governor: &Governor,
) -> u64 {
    let word_bytes = bitmap.word_width().bytes();
    let n = data.num_nodes();
    let row_words = n.div_ceil(64) as u64;
    let rows = delta.rows();
    let snap = queue.parallel_for_chunks_until(
        "refine_candidates",
        "filter",
        rows.len(),
        DELTA_ROWS_PER_GROUP,
        || governor.stopped(),
        |items, counters| {
            // Group-local charge accumulation, flushed once per work-group
            // (same convention as `refine_candidates_classes`).
            let mut cleared = 0u64;
            let mut tests = 0u64;
            let mut test_instr = 0u64;
            let mut words = 0u64;
            let mut trip_sq = 0u64;
            let mut rows_run = 0u64;
            let mut visit = |r: usize| {
                let dirty = &rows[r];
                let q = dirty.row as usize;
                // Field-restricted test: ~2 instructions per moved field
                // instead of one compare per schema group (see
                // [`DeltaRow::changed`]).
                let mask_cost = 2 * u64::from(dirty.changed.count_ones()) + 2;
                let mut row_tests = 0u64;
                for d in bitmap.iter_set_in_range(q, 0, n) {
                    row_tests += 1;
                    if !data_sigs[d].dominates_groups(schema, &dirty.sig, dirty.changed) {
                        bitmap.clear(q, d);
                        cleared += 1;
                    }
                }
                words += row_words;
                tests += row_tests;
                test_instr += mask_cost * row_tests;
                trip_sq += row_tests * row_tests;
                rows_run += 1;
            };
            for r in items {
                if governor.stopped() {
                    break; // consult once per row, never per bit
                }
                visit(r);
            }
            // Cost model of the transposed kernel: every bitmap word of a
            // scanned row is loaded exactly once (word-granular traffic);
            // each live bit costs one data-signature load (8 bytes) and a
            // masked domination test; each scanned row loads its own
            // signature + mask once (16 bytes).
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
/// whose pair signature is non-empty), enumerating its live bits
/// word-parallel and testing bucket domination at each. The test compares
/// only the row's live buckets ([`PairRow::live`]). The data nodes' pair
/// signatures (`data_pairs[d]`) come precomputed from
/// [`crate::BatchFacts`].
///
/// Returns the number of bits cleared.
pub fn label_pair_filter(
    queue: &Queue,
    data_pairs: &[Signature],
    schema: &LabelSchema,
    pair_rows: &[PairRow],
    bitmap: &CandidateBitmap,
    governor: &Governor,
) -> u64 {
    if pair_rows.is_empty() {
        return 0;
    }
    let word_bytes = bitmap.word_width().bytes();
    let n = data_pairs.len();
    let row_words = n.div_ceil(64) as u64;
    let snap = queue.parallel_for_chunks_until(
        "label_pair_filter",
        "filter",
        pair_rows.len(),
        DELTA_ROWS_PER_GROUP,
        || governor.stopped(),
        |items, counters| {
            // Group-local charge accumulation, flushed once per work-group
            // (same convention as the refine kernels).
            let mut cleared = 0u64;
            let mut tests = 0u64;
            let mut words = 0u64;
            let mut trip_sq = 0u64;
            let mut rows_run = 0u64;
            let mut visit = |r: usize| {
                let PairRow { row: q, sig, live } = pair_rows[r];
                let mut row_tests = 0u64;
                for d in bitmap.iter_set_in_range(q as usize, 0, n) {
                    row_tests += 1;
                    if !data_pairs[d].dominates_groups(schema, &sig, live) {
                        bitmap.clear(q as usize, d);
                        cleared += 1;
                    }
                }
                words += row_words;
                tests += row_tests;
                trip_sq += row_tests * row_tests;
                rows_run += 1;
            };
            for r in items {
                if governor.stopped() {
                    break; // consult once per row, never per bit
                }
                visit(r);
            }
            // Same cost shape as the transposed delta kernel: each scanned
            // row loads its bitmap words once, each live bit one data pair
            // signature (8 bytes) + one domination test, each row its own
            // signature pair (16 bytes).
            counters.add_instructions(REFINE_INSTR_PER_TEST * tests + words);
            counters.add_word_reads(words, word_bytes);
            counters.add_bytes_read(tests * 8 + rows_run * 16);
            counters.add_atomics(cleared);
            counters.add_bytes_written(cleared * word_bytes);
            counters.record_trip_moments(tests, trip_sq, rows_run);
        },
    );
    snap.atomic_ops
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
}

/// The constrained-row list [`label_pair_filter`] consumes: every query
/// row with a non-empty pair signature (`query_pairs[q]` is row `q`'s),
/// ascending. Plans build this once per batch.
pub fn pair_rows(query_pairs: &[Signature], schema: &LabelSchema) -> Vec<PairRow> {
    query_pairs
        .iter()
        .enumerate()
        .filter(|&(_, &sig)| sig != Signature::EMPTY)
        .map(|(row, &sig)| PairRow {
            row: row as u32,
            sig,
            live: sig.diff_groups(schema, &Signature::EMPTY),
        })
        .collect()
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
/// query row, enumerating its live bits word-parallel and evaluating the
/// predicate against the data nodes' precomputed attributes
/// ([`NodeAttrs`]: degree, H-neighbor count, charge, smallest-ring size —
/// from [`crate::BatchFacts`]).
///
/// Returns the number of bits cleared.
pub fn node_predicate_filter(
    queue: &Queue,
    attrs: &NodeAttrs,
    pred_rows: &[(u32, NodePredicate)],
    bitmap: &CandidateBitmap,
    governor: &Governor,
) -> u64 {
    if pred_rows.is_empty() {
        return 0;
    }
    let word_bytes = bitmap.word_width().bytes();
    let n = attrs.labels.len();
    let row_words = n.div_ceil(64) as u64;
    let snap = queue.parallel_for_chunks_until(
        "node_predicate_filter",
        "filter",
        pred_rows.len(),
        DELTA_ROWS_PER_GROUP,
        || governor.stopped(),
        |items, counters| {
            let mut cleared = 0u64;
            let mut tests = 0u64;
            let mut words = 0u64;
            let mut trip_sq = 0u64;
            let mut rows_run = 0u64;
            let mut visit = |r: usize| {
                let (q, ref pred) = pred_rows[r];
                let mut row_tests = 0u64;
                for d in bitmap.iter_set_in_range(q as usize, 0, n) {
                    row_tests += 1;
                    if !pred.matches(attrs, d as NodeId) {
                        bitmap.clear(q as usize, d);
                        cleared += 1;
                    }
                }
                words += row_words;
                tests += row_tests;
                trip_sq += row_tests * row_tests;
                rows_run += 1;
            };
            for r in items {
                if governor.stopped() {
                    break; // consult once per row, never per bit
                }
                visit(r);
            }
            // Cost shape mirrors the label-pair kernel: each scanned row
            // loads its bitmap words once; each live bit loads the data
            // node's packed attributes (8 bytes: degree, h-count, charge,
            // min-ring) and runs one predicate evaluation; each row its
            // own predicate record (16 bytes).
            counters.add_instructions(REFINE_INSTR_PER_TEST * tests + words);
            counters.add_word_reads(words, word_bytes);
            counters.add_bytes_read(tests * 8 + rows_run * 16);
            counters.add_atomics(cleared);
            counters.add_bytes_written(cleared * word_bytes);
            counters.record_trip_moments(tests, trip_sq, rows_run);
        },
    );
    snap.atomic_ops
}

/// Reference sequential filter for correctness tests: computes, per query
/// node, the exact candidate set after `iterations` refinement iterations
/// (iteration 1 = label match plus node predicates) without any of the
/// batched machinery.
pub fn reference_filter(
    queries: &CsrGo,
    data: &CsrGo,
    schema: &crate::LabelSchema,
    iterations: usize,
) -> Vec<Vec<NodeId>> {
    use crate::signature::SignatureSet;
    assert!(iterations >= 1);
    let nq = queries.num_nodes();
    let nd = data.num_nodes();
    let attrs = data.node_attrs();
    let mut cands: Vec<Vec<NodeId>> = (0..nq)
        .map(|q| {
            let ql = queries.label(q as NodeId);
            let pred = queries.predicate(q as NodeId);
            (0..nd as NodeId)
                .filter(|&d| {
                    (ql == WILDCARD_LABEL || data.label(d) == ql)
                        && pred.is_none_or(|p| p.matches(&attrs, d))
                })
                .collect()
        })
        .collect();
    let mut qs = SignatureSet::new(queries, schema.clone());
    let mut ds = SignatureSet::new(data, schema.clone());
    for _ in 1..iterations {
        qs.advance(queries);
        ds.advance(data);
        for (q, set) in cands.iter_mut().enumerate() {
            let qsig = qs.signature(q as NodeId);
            set.retain(|&d| ds.signature(d).dominates(schema, &qsig));
        }
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::WordWidth;
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

    #[test]
    fn refine_prunes_carbon_without_oxygen_neighbor() {
        let (queries, data) = tiny();
        let q = queue();
        let schema = LabelSchema::organic();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &bm, 64);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        qs.advance(&queries);
        ds.advance(&data);
        let cleared = refine_candidates(&q, &queries, &data, &qs, &ds, &bm, 64);
        // Data node 3 (the C of C-H) has no O neighbor: pruned.
        assert!(bm.get(0, 0));
        assert!(!bm.get(0, 3));
        assert_eq!(cleared, 1);
    }

    #[test]
    fn refinement_is_monotone() {
        let (queries, data) = tiny();
        let q = queue();
        let schema = LabelSchema::organic();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &bm, 64);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        let mut prev = bm.total_count();
        for _ in 0..4 {
            qs.advance(&queries);
            ds.advance(&data);
            refine_candidates(&q, &queries, &data, &qs, &ds, &bm, 64);
            let cur = bm.total_count();
            assert!(cur <= prev, "candidates grew: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn kernel_filter_agrees_with_reference() {
        let (queries, data) = tiny();
        let schema = LabelSchema::organic();
        for iters in 1..=3usize {
            let q = queue();
            let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            initialize_candidates(&q, &queries, &data, &bm, 64);
            let mut qs = SignatureSet::new(&queries, schema.clone());
            let mut ds = SignatureSet::new(&data, schema.clone());
            for _ in 1..iters {
                qs.advance(&queries);
                ds.advance(&data);
                refine_candidates(&q, &queries, &data, &qs, &ds, &bm, 64);
            }
            let reference = reference_filter(&queries, &data, &schema, iters);
            for (qn, expected) in reference.iter().enumerate() {
                let got: Vec<NodeId> = bm
                    .iter_set_in_range(qn, 0, data.num_nodes())
                    .map(|c| c as NodeId)
                    .collect();
                assert_eq!(&got, expected, "query node {qn} at {iters} iterations");
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
        let schema = LabelSchema::organic();
        let qq = queue();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&qq, &queries, &data, &bm, 64);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        for _ in 0..5 {
            qs.advance(&queries);
            ds.advance(&data);
            refine_candidates(&qq, &queries, &data, &qs, &ds, &bm, 64);
        }
        // The true embedding maps q0 -> d0, q1 -> d1; both bits must survive.
        assert!(bm.get(0, 0), "true candidate for C pruned");
        assert!(bm.get(1, 1), "true candidate for O pruned");
    }

    #[test]
    fn label_buckets_partition_query_rows() {
        let q = LabeledGraph::from_edges(&[1, 3, 1, WILDCARD_LABEL], &[(0, 1), (2, 3)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let buckets = LabelBuckets::build(&queries);
        // Label 1 rows plus the wildcard row, ascending per segment.
        assert_eq!(buckets.rows_for(1).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(buckets.rows_for(3).collect::<Vec<_>>(), vec![1, 3]);
        // Unmatched label still yields the wildcard row.
        assert_eq!(buckets.rows_for(7).collect::<Vec<_>>(), vec![3]);
        // A wildcard data label matches only wildcard rows, once.
        assert_eq!(
            buckets.rows_for(WILDCARD_LABEL).collect::<Vec<_>>(),
            vec![3]
        );
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
    fn signature_classes_group_identical_signatures() {
        // Two disconnected C-O pairs: rows 0/2 and 1/3 are signature-equal
        // once signatures have advanced.
        let q = LabeledGraph::from_edges(&[1, 3, 1, 3], &[(0, 1), (2, 3)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let schema = LabelSchema::organic();
        let mut qs = SignatureSet::new(&queries, schema);
        qs.advance(&queries);
        let classes = SignatureClasses::build(qs.signatures());
        assert_eq!(classes.len(), 2);
        assert!(!classes.is_empty());
        let members: Vec<&Vec<u32>> = classes.classes().iter().map(|(_, m)| m).collect();
        assert_eq!(members, vec![&vec![0, 2], &vec![1, 3]]);
    }

    #[test]
    fn class_refine_matches_naive() {
        let (queries, data) = tiny();
        let q = queue();
        let schema = LabelSchema::organic();
        let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &fast, 64);
        crate::naive::initialize_candidates(&queries, &data, &slow);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema);
        for _ in 0..3 {
            qs.advance(&queries);
            ds.advance(&data);
            let fast_cleared = refine_candidates(&q, &queries, &data, &qs, &ds, &fast, 64);
            let slow_cleared =
                crate::naive::refine_candidates(&queries, &qs, &ds, &slow, data.num_nodes());
            assert_eq!(fast_cleared, slow_cleared);
            for qn in 0..queries.num_nodes() {
                for d in 0..data.num_nodes() {
                    assert_eq!(fast.get(qn, d), slow.get(qn, d), "bit ({qn}, {d})");
                }
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
