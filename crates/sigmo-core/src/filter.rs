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
//! * [`filter_pass`] — the label-pair pre-check, the node-predicate
//!   filter and refinement at each radius where some query signature
//!   moved ([`DeltaClasses`]; DESIGN.md §4b), in one launch per chunk.
//!
//! The clearing stages are row-transposed and class-major (DESIGN.md §19,
//! §23). A row's verdict at a data node depends only on the node and the
//! row's class — its signature, or its compiled predicate — so the plan
//! lists each stage's rows class by class, each class is judged once per
//! word over the union of its rows' live bits ([`Signature::dominates_tops`]
//! or [`PackedPredicate`]), and each row takes one load and one store per
//! word. Kernels charge the modeled work of a device kernel — word reads at
//! the configured [`crate::WordWidth`], one set, test or clear per
//! candidate bit — behind Figures 8 and 9. The per-bit forms live in
//! [`crate::naive`]; [`reference_filter`](crate::naive::reference_filter)
//! is the oracle of the whole filter phase.

use crate::candidates::{with_popcnt, CandidateBitmap, CountsBits};
use crate::governor::Governor;
use crate::schema::LabelSchema;
use crate::signature::Signature;
use sigmo_device::{KernelCounters, Queue, StageClock};
use sigmo_graph::{
    CsrGo, EdgeLabel, Label, NodeId, NodePredicate, PackedPredicate, WILDCARD_EDGE, WILDCARD_LABEL,
};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Modeled instruction cost of one label comparison in the init kernel.
const INIT_INSTR_PER_QNODE: u64 = 4;
/// Modeled instruction cost of one domination test (|L| group compares).
const REFINE_INSTR_PER_TEST: u64 = 24;

/// Plan-time verdict classes of a row list, given each row's verdict key
/// (what its per-bit verdict reads besides the data node): dense ids in
/// first-seen order. The stage builders sort their rows by class id
/// (stably): the class-major order [`filter_pass`] walks.
fn class_ids<K: std::hash::Hash + Eq>(keys: impl Iterator<Item = K>) -> Vec<u32> {
    let mut ids: std::collections::HashMap<K, u32> = std::collections::HashMap::new();
    keys.map(|k| {
        let next = ids.len() as u32;
        *ids.entry(k).or_insert(next)
    })
    .collect()
}

/// A row of a class-major filter stage: its query row and verdict class,
/// and the modeled instructions of one test.
trait ClassRow: Sync {
    fn row_class(&self) -> (usize, u32);
    fn instr_per_test(&self) -> u64 {
        REFINE_INSTR_PER_TEST
    }
}

/// One stage of [`filter_pass`]: class-major rows and the data facts its
/// verdict reads — pair signatures and [`pair_schema`]'s `all_tops`,
/// [`sigmo_graph::NodeAttrs::packed`] words, or one radius' signatures and
/// the schema's `all_tops`. A stage with no rows records no kernel.
#[allow(missing_docs)]
pub enum Stage<'a> {
    Pairs {
        rows: &'a [PairRow],
        data: &'a [Signature],
        all_tops: u64,
    },
    Preds {
        rows: &'a [PredRow],
        packed: &'a [u64],
    },
    Refine {
        delta: &'a DeltaClasses,
        data: &'a [Signature],
        all_tops: u64,
    },
}

impl Stage<'_> {
    /// The kernel the stage is charged under, and its rows.
    fn rows(&self) -> (&'static str, Vec<&dyn ClassRow>) {
        fn dyn_rows<R: ClassRow>(rows: &[R]) -> Vec<&dyn ClassRow> {
            rows.iter().map(|r| r as &dyn ClassRow).collect()
        }
        match self {
            Stage::Pairs { rows, .. } => ("label_pair_filter", dyn_rows(rows)),
            Stage::Preds { rows, .. } => ("node_predicate_filter", dyn_rows(rows)),
            Stage::Refine { delta, .. } => ("refine_candidates", dyn_rows(delta.rows())),
        }
    }
}

/// Bitmap words a fused-pass work-group owns of every row (one `u64` each).
const WORDS_PER_GROUP: usize = 64;
/// Rows per work-group of each stage's modeled kernel.
const ROWS_PER_GROUP: usize = 4;

/// What the fused pass leaves besides the bitmap.
pub struct Pass {
    /// Candidates per row before the first stage.
    pub initial: Vec<u64>,
    /// Per stage, each row's query row and bits cleared.
    pub cleared: Vec<Vec<(usize, u64)>>,
    /// Stages every work-group completed (fewer than all when the
    /// governor stopped the pass).
    pub completed: usize,
}

impl Pass {
    /// Bits cleared by stage `s`.
    pub fn cleared(&self, s: usize) -> u64 {
        self.cleared[s].iter().map(|&(_, c)| c).sum()
    }
}

/// The fused filter pass (DESIGN.md §23): one launch applies `stages` in
/// order, block-major. A work-group owns 64 words of every row; per stage
/// it ORs each class's rows, judges every bit of the union once, and each
/// live row (per-row live-word summary) clears its failing bits with one
/// load and one store per word. Exact: a verdict depends only on the
/// class key and the column, and no two groups touch one word. Each stage
/// is charged under its kernel name with the per-bit walk's charges
/// summed over groups, and its measured share of the launch's wall.
pub fn filter_pass(
    queue: &Queue,
    stages: &[Stage],
    bitmap: &CandidateBitmap,
    governor: &Governor,
) -> Pass {
    let (rows, words) = (bitmap.rows(), bitmap.words_per_row());
    let groups = words.div_ceil(WORDS_PER_GROUP);
    let stage_rows: Vec<_> = stages.iter().map(Stage::rows).collect();
    let mut starts = vec![0usize];
    for (_, r) in &stage_rows {
        starts.push(starts[starts.len() - 1] + r.len());
    }
    let slots = starts[stages.len()];
    // Scratch each work-group writes only its own entries of (plain
    // relaxed stores), allocated before the launch.
    let zeroed = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let scratch = PassScratch {
        stages,
        bitmap,
        governor,
        starts: &starts,
        live: zeroed(groups * rows),
        initial: zeroed(groups * rows),
        tested: zeroed(groups * slots),
        cleared: zeroed(groups * slots),
        done: zeroed(groups),
    };
    let launch = queue.parallel_for_fused(
        "filter",
        stages.len() + 1,
        words,
        WORDS_PER_GROUP,
        || governor.stopped(),
        |items, clock| with_popcnt(GroupRun(&scratch, items, clock)),
    );
    // sigmo-lint: allow(relaxed-read-in-report) — read after the launch joined.
    let load = |v: &[AtomicU64], at: usize| v[at].load(Ordering::Relaxed);
    let sum = |v: &[AtomicU64], stride, i| (0..groups).map(|g| load(v, g * stride + i)).sum();
    let done: Vec<u64> = (0..groups).map(|g| load(&scratch.done, g)).collect();
    let word_bytes = bitmap.word_width().bytes();
    let mut cleared = Vec::with_capacity(stages.len());
    for (s, (name, stage)) in stage_rows.iter().enumerate() {
        let (mut tests, mut trip_sq, mut test_instr, mut gone) = (0u64, 0u64, 0u64, 0u64);
        let mut per_row = Vec::with_capacity(stage.len());
        for (i, row) in stage.iter().enumerate() {
            let row_tests = sum(&scratch.tested, slots, starts[s] + i);
            let row_gone = sum(&scratch.cleared, slots, starts[s] + i);
            tests += row_tests;
            trip_sq += row_tests * row_tests;
            gone += row_gone;
            test_instr += row.instr_per_test() * row_tests;
            per_row.push((row.row_class().0, row_gone));
        }
        cleared.push(per_row);
        if stage.is_empty() || (groups > 0 && done.iter().all(|&d| d as usize <= s)) {
            continue; // never ran: no kernel
        }
        let (counters, row_words) = (KernelCounters::new(), (stage.len() * words) as u64);
        counters.add_instructions(test_instr + row_words);
        counters.add_word_reads(row_words, word_bytes);
        counters.add_bytes_read(tests * 8 + stage.len() as u64 * 16);
        counters.add_atomics(gone);
        counters.add_bytes_written(gone * word_bytes);
        counters.record_trip_moments(tests, trip_sq, stage.len() as u64);
        queue.record_stage(&launch, s, name, stage.len(), ROWS_PER_GROUP, &counters);
    }
    Pass {
        initial: (0..rows).map(|r| sum(&scratch.initial, rows, r)).collect(),
        cleared,
        completed: done.iter().min().map_or(stages.len(), |&d| d as usize),
    }
}

/// The pass's inputs and per-group scratch: live-word summaries and
/// initial counts per row, tallies per stage row, stages completed.
struct PassScratch<'a> {
    stages: &'a [Stage<'a>],
    bitmap: &'a CandidateBitmap,
    governor: &'a Governor,
    starts: &'a [usize],
    live: Vec<AtomicU64>,
    initial: Vec<AtomicU64>,
    tested: Vec<AtomicU64>,
    cleared: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
}

/// One work-group of the fused pass: its words of every row, every stage.
struct GroupRun<'a, 'b>(&'b PassScratch<'a>, Range<usize>, &'b StageClock<'b>);

impl CountsBits for GroupRun<'_, '_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let GroupRun(sc, words, clock) = self;
        let rows = sc.bitmap.rows();
        let g = words.start / WORDS_PER_GROUP;
        clock.enter(sc.stages.len()); // the summary scan, charged to no stage
        for r in 0..rows {
            let (mask, count) = sc.bitmap.live_words(r, words.start, words.len());
            sc.live[g * rows + r].store(mask, Ordering::Relaxed);
            sc.initial[g * rows + r].store(count, Ordering::Relaxed);
        }
        let mut scratch = [0u64; 2 * WORDS_PER_GROUP];
        for (s, stage) in sc.stages.iter().enumerate() {
            if sc.governor.heartbeat() {
                break; // stopping between stages keeps a sound superset
            }
            clock.enter(s);
            let at = (g, words.clone(), s, &mut scratch);
            match stage {
                Stage::Pairs {
                    rows,
                    data,
                    all_tops,
                } => sc.walk(at, rows, |r, d| {
                    data[d].dominates_tops(&r.sig, *all_tops, r.tops)
                }),
                Stage::Preds { rows, packed } => {
                    sc.walk(at, rows, |r, d| r.packed.matches(packed[d]))
                }
                Stage::Refine {
                    delta,
                    data,
                    all_tops,
                } => sc.walk(at, delta.rows(), |r, d| {
                    data[d].dominates_tops(&r.sig, *all_tops, r.tops)
                }),
            }
            sc.done[g].store(s as u64 + 1, Ordering::Relaxed);
        }
    }
}

impl PassScratch<'_> {
    /// Runs stage `s`'s `rows` (class-major) over group `g`'s `words`:
    /// each class is judged once per word by `keep` over the union of its
    /// rows' bits, then each of its live rows clears. `scratch` holds the
    /// union, then the failing bits, and each row's verdicts.
    #[inline(always)]
    fn walk<R: ClassRow>(
        &self,
        (g, words, s, scratch): (usize, Range<usize>, usize, &mut [u64; 2 * WORDS_PER_GROUP]),
        rows: &[R],
        keep: impl Fn(&R, usize) -> bool,
    ) {
        let (n, w0) = (words.len(), words.start);
        let (union, fail) = scratch.split_at_mut(WORDS_PER_GROUP);
        let (union, fail) = (&mut union[..n], &mut fail[..n]);
        let live = &self.live[g * self.bitmap.rows()..][..self.bitmap.rows()];
        let slots = g * self.starts[self.stages.len()] + self.starts[s];
        let mut i = 0;
        while i < rows.len() {
            let class = rows[i].row_class().1;
            let len = rows[i..]
                .iter()
                .take_while(|m| m.row_class().1 == class)
                .count();
            let members = &rows[i..i + len];
            union.fill(0);
            let mut any = 0u64;
            for m in members {
                let row_live = live[m.row_class().0].load(Ordering::Relaxed);
                if row_live != 0 {
                    any |= row_live;
                    self.bitmap.or_words_into(m.row_class().0, w0, union);
                }
            }
            if any != 0 {
                for (k, (fail, &union)) in fail.iter_mut().zip(union.iter()).enumerate() {
                    *fail = CandidateBitmap::fail_bits(union, w0 + k, |d| keep(&members[0], d));
                }
                for (j, m) in members.iter().enumerate() {
                    let row = m.row_class().0;
                    if live[row].load(Ordering::Relaxed) != 0 {
                        let (t, c, after) = self.bitmap.clear_words_failing(row, w0, fail);
                        live[row].store(after, Ordering::Relaxed);
                        self.tested[slots + i + j].store(t, Ordering::Relaxed);
                        self.cleared[slots + i + j].store(c, Ordering::Relaxed);
                    }
                }
            }
            i += len;
        }
    }
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

/// The dirty query rows of one refinement radius, for the fused pass's
/// refine stage: rows whose signature *changed*
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

    /// The dirty rows, class-major.
    pub fn rows(&self) -> &[DeltaRow] {
        &self.rows
    }
}

impl ClassRow for DeltaRow {
    fn row_class(&self) -> (usize, u32) {
        (self.row as usize, self.class)
    }

    /// ~2 instructions per moved field ([`DeltaRow::changed`]).
    fn instr_per_test(&self) -> u64 {
        2 * u64::from(self.changed.count_ones()) + 2
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

/// The constrained-row list of [`Stage::Pairs`]: every query
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
    /// Its non-trivial predicate.
    pub pred: NodePredicate,
    /// The predicate compiled against [`sigmo_graph::NodeAttrs::packed`].
    pub packed: PackedPredicate,
    /// The row's verdict class: the predicated rows with an equal
    /// predicate, a singleton when only this row holds it.
    pub class: u32,
}

impl ClassRow for PredRow {
    fn row_class(&self) -> (usize, u32) {
        (self.row as usize, self.class)
    }
}

/// The predicated-row list of [`Stage::Preds`]: every
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
            packed: PackedPredicate::compile(pred),
            class,
        })
        .collect();
    rows.sort_by_key(|r| r.class);
    rows
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

    /// Refines `bm` at radii `1..=radii` in one pass, as the engine does
    /// after init (without the label-pair and predicate stages); returns
    /// the bits cleared at each radius.
    fn refine_radii(queries: &CsrGo, data: &CsrGo, bm: &CandidateBitmap, radii: usize) -> Vec<u64> {
        let cfg = EngineConfig::with_iterations(radii + 1);
        let plan = QueryPlan::from_batch(queries.clone(), &cfg);
        let facts = BatchFacts::compute(data, &cfg.schema, radii, false);
        let stages: Vec<Stage> = (1..=radii)
            .map(|r| Stage::Refine {
                delta: plan.delta_at(r),
                data: facts.signatures_at(r),
                all_tops: cfg.schema.top_bits(u64::MAX),
            })
            .collect();
        let pass = filter_pass(&queue(), &stages, bm, &Governor::unlimited());
        (0..radii).map(|s| pass.cleared(s)).collect()
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
            let data_pairs = pairs_of(&data);
            let stage = Stage::Pairs {
                rows: &rows,
                data: &data_pairs,
                all_tops: schema.top_bits(u64::MAX),
            };
            let cleared = filter_pass(&queue(), &[stage], &fast, &Governor::unlimited()).cleared(0);
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
