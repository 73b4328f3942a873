//! `serve-cold` and `serve-hot`: a closed loop of clients against one
//! `Server`. Each step, `OUTSTANDING` requests are submitted and one
//! `step` answers all of them (`OUTSTANDING` is below the server's
//! micro-batch window, so nothing waits a second step).

use crate::inputs::{self, Query};
use crate::ledger::{self, EngineLedger};
use crate::util::{cpu_ticks, median, ratio, status_kb, Metric, Rng};
use crate::{Outcome, Sizes, Tracer};
use sigmo_core::{EngineConfig, MatchMode, QueryPlan};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::LabeledGraph;
use sigmo_index::{IndexConfig, MoleculeIndex, ScreenQuery};
use sigmo_mol::canonical_code;
use sigmo_serve::{
    oracle_replay, FrozenIndex, MatchRequest, MolStore, ServeConfig, ServeStats, Server,
    WorkloadConfig,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Instant;

/// Requests kept outstanding by the closed loop: half the server's
/// micro-batch window (`ServeConfig::max_batch_requests`, 16), so one
/// `step` drains every outstanding request and a request's latency is one
/// step.
const OUTSTANDING: usize = 8;
/// serve-cold: never-seen molecules added to each step's requests, about
/// 1 in 25 request molecules. Admission then canonicalizes and digests new
/// molecules on every step, and the molecule store grows at a fixed rate
/// (README, fact 3), while the other 24 in 25 are interned corpus
/// molecules, as for a server with a standing corpus.
const NEVER_SEEN_PER_STEP: usize = 2;
/// serve-cold: one `remove_molecule` in every block of this many steps
/// (3% of operations), at a seeded step of the block. A removal bumps the
/// epoch and so empties the result cache. Between two removals about 200
/// molecule lookups meet 5,760 (class, set, mode) keys, so only about 2%
/// of them can hit: the workload stays cold for the whole run instead of
/// warming up as it goes.
const REMOVE_EVERY_STEPS: usize = 4;
/// serve-hot: distinct requests the stream cycles through (20 per pool
/// set). They are built once before timing, so the harness allocates
/// nothing between steps.
const HOT_CATALOG: usize = 240;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Hot,
}

#[derive(Clone)]
struct Req {
    set: usize,
    mode: MatchMode,
    mols: Vec<usize>,
    /// serve-hot: the request's index in the prebuilt catalog.
    catalog: Option<usize>,
}

#[derive(Clone, Default)]
struct Step {
    removes: Vec<usize>,
    requests: Vec<Req>,
}

/// The (query set, mode) of requests in one balanced pass: every set
/// equally often, and in each set the share of Find First requests of the
/// server's own simulator workload (`sim::WorkloadConfig`, 25%).
fn balanced_kinds(sets: usize) -> Vec<(usize, MatchMode)> {
    let per_set = (100 / WorkloadConfig::default().find_first_pct) as usize;
    (0..per_set)
        .flat_map(|k| {
            let mode = if k == 0 {
                MatchMode::FindFirst
            } else {
                MatchMode::FindAll
            };
            (0..sets).map(move |set| (set, mode))
        })
        .collect()
}

/// A request of `kind` with 1 to `sim::WorkloadConfig`'s
/// `max_request_molecules` (12) molecules from `molecule`.
fn request(
    rng: &mut Rng,
    kind: (usize, MatchMode),
    mut molecule: impl FnMut(&mut Rng) -> usize,
) -> Req {
    let n = 1 + rng.below(WorkloadConfig::default().max_request_molecules);
    Req {
        set: kind.0,
        mode: kind.1,
        mols: (0..n).map(|_| molecule(rng)).collect(),
        catalog: None,
    }
}

/// Draws from `0..n` in shuffled passes: every value once per pass, so
/// the mix of draws over whole passes does not vary with the seed.
#[derive(Default)]
struct Deck(Vec<usize>);

impl Deck {
    fn draw(&mut self, rng: &mut Rng, n: usize) -> usize {
        if self.0.is_empty() {
            self.0 = rng.permutation(n);
        }
        self.0.pop().expect("refilled above")
    }
}

/// Everything one serve workload needs, generated before timing. The
/// measured steps are regenerated from the seed when iterated, so the
/// harness holds no per-request state through a run.
struct Inputs {
    kind: Kind,
    seed: u64,
    steps: usize,
    /// serve-cold: one balanced pass of request kinds.
    kinds: Vec<(usize, MatchMode)>,
    /// serve-hot: the requests the stream cycles through, all on a seeded
    /// working set of corpus molecules.
    catalog: Vec<Req>,
    /// serve-cold: the order in which the never-seen molecules appear.
    never_seen_order: Vec<usize>,
    pool: Vec<Vec<LabeledGraph>>,
    pool_names: Vec<String>,
    groups: Vec<Vec<usize>>,
    /// Corpus molecules first, never-seen molecules after them.
    mols: Vec<LabeledGraph>,
    corpus: inputs::Corpus,
    warmup: Vec<Step>,
}

impl Inputs {
    fn request(&self, r: &Req) -> MatchRequest {
        MatchRequest {
            queries: self.pool[r.set].clone(),
            molecules: r.mols.iter().map(|&m| self.mols[m].clone()).collect(),
            mode: r.mode,
        }
    }

    /// The measured closed-loop steps, in order. serve-cold removes
    /// exactly `steps / REMOVE_EVERY_STEPS` molecules.
    fn steps(&self) -> impl Iterator<Item = Step> + '_ {
        let n_corpus = self.corpus.graphs.len();
        let mut rng = Rng::new(self.seed, 0x10ad);
        let mut deck = Deck::default();
        let mut remove_at = 0;
        let mut fresh = 0usize;
        (0..self.steps).map(move |s| {
            let mut step = Step::default();
            if self.kind == Kind::Hot {
                for _ in 0..OUTSTANDING {
                    let i = deck.draw(&mut rng, self.catalog.len());
                    step.requests.push(self.catalog[i].clone());
                }
                return step;
            }
            if s % REMOVE_EVERY_STEPS == 0 {
                remove_at = s + rng.below(REMOVE_EVERY_STEPS);
            }
            let whole_block = s / REMOVE_EVERY_STEPS < self.steps / REMOVE_EVERY_STEPS;
            if s == remove_at && whole_block {
                step.removes.push(rng.below(n_corpus));
            }
            for _ in 0..OUTSTANDING {
                let kind = self.kinds[deck.draw(&mut rng, self.kinds.len())];
                step.requests
                    .push(request(&mut rng, kind, |rng| rng.below(n_corpus)));
            }
            for _ in 0..NEVER_SEEN_PER_STEP {
                let r = rng.below(OUTSTANDING);
                step.requests[r]
                    .mols
                    .push(n_corpus + self.never_seen_order[fresh]);
                fresh += 1;
            }
            step
        })
    }
}

fn make_inputs(kind: Kind, seed: u64, sizes: &Sizes) -> Inputs {
    // `--seed` draws every request, the hot working set and the order in
    // which never-seen molecules arrive; the molecules and query sets are
    // fixed (see the `inputs` module).
    let corpus = inputs::corpus(inputs::FIXED_SEED, 0x5e, sizes.corpus);
    let pool_sets: Vec<Vec<Query>> = inputs::query_pool(&inputs::query_library());
    let pool_names = pool_sets
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let names: Vec<&str> = s.iter().map(|q| q.name.as_str()).collect();
            format!("set{i}[{}]", names.join(" "))
        })
        .collect();
    let kinds = balanced_kinds(pool_sets.len());
    let mut rng = Rng::new(seed, 0x3075);
    let mut working = rng.permutation(corpus.graphs.len());
    working.truncate(sizes.working_set);
    let steps = sizes.rounds * sizes.steps_per_round;
    let never_seen = match kind {
        Kind::Cold => steps * NEVER_SEEN_PER_STEP,
        Kind::Hot => 0,
    };
    let mut warmup = Vec::new();
    let mut catalog = Vec::new();
    if kind == Kind::Hot {
        for set in 0..pool_sets.len() {
            for mode in [MatchMode::FindAll, MatchMode::FindFirst] {
                warmup.push(Step {
                    removes: Vec::new(),
                    requests: vec![Req {
                        set,
                        mode,
                        mols: working.clone(),
                        catalog: None,
                    }],
                });
            }
        }
        catalog = (0..HOT_CATALOG)
            .map(|i| Req {
                catalog: Some(i),
                ..request(&mut rng, kinds[i % kinds.len()], |rng| {
                    working[rng.below(working.len())]
                })
            })
            .collect();
    }
    let mut mols = corpus.graphs.clone();
    mols.extend(inputs::never_seen(
        inputs::FIXED_SEED,
        never_seen,
        &corpus.graphs,
    ));
    Inputs {
        kind,
        seed,
        steps,
        kinds,
        catalog,
        never_seen_order: rng.permutation(never_seen),
        groups: inputs::key_groups(&pool_sets),
        pool: pool_sets.iter().map(|s| inputs::graphs(s)).collect(),
        pool_names,
        mols,
        corpus,
        warmup,
    }
}

type Answer = Vec<(usize, u64)>;

/// The reference: every needed (set, mode, molecule) answer from
/// `sim::oracle_replay`, which runs the engine without the server's
/// molecule, plan or result caches. Sets sharing a plan-cache key are
/// answered for each other's molecules too, so a request served with a
/// colliding plan can be diagnosed.
fn reference(inp: &Inputs) -> HashMap<(usize, MatchMode, usize), Answer> {
    let mut need: BTreeMap<(usize, bool), BTreeSet<usize>> = BTreeMap::new();
    let mut add = |req: &Req| {
        for &set in &inp.groups[req.set] {
            let key = (set, req.mode == MatchMode::FindFirst);
            need.entry(key).or_default().extend(&req.mols);
        }
    };
    inp.warmup
        .iter()
        .flat_map(|s| &s.requests)
        .for_each(&mut add);
    inp.steps().flat_map(|s| s.requests).for_each(|r| add(&r));
    let config = ServeConfig::default();
    let queue = Queue::new(DeviceProfile::host());
    let mut out = HashMap::new();
    for ((set, first), mols) in need {
        let mode = if first {
            MatchMode::FindFirst
        } else {
            MatchMode::FindAll
        };
        let mols: Vec<usize> = mols.into_iter().collect();
        for chunk in mols.chunks(64) {
            let request = MatchRequest {
                queries: inp.pool[set].clone(),
                molecules: chunk.iter().map(|&m| inp.mols[m].clone()).collect(),
                mode,
            };
            let oracle = oracle_replay(&config, &request, &queue);
            assert!(
                oracle.truncated_molecules.is_empty(),
                "no budget is set, so the oracle never truncates"
            );
            for &m in chunk {
                out.insert((set, mode, m), Vec::new());
            }
            for &(d, q, n) in &oracle.pair_counts {
                out.get_mut(&(set, mode, chunk[d]))
                    .expect("inserted above")
                    .push((q, n));
            }
            queue.clear_records();
        }
    }
    out
}

/// The expected report of a request answered with `set`'s queries.
fn expected(
    answers: &HashMap<(usize, MatchMode, usize), Answer>,
    set: usize,
    req: &Req,
) -> (u64, Vec<(usize, usize, u64)>) {
    let mut pairs = Vec::new();
    for (local, &m) in req.mols.iter().enumerate() {
        for &(q, n) in &answers[&(set, req.mode, m)] {
            pairs.push((local, q, n));
        }
    }
    (pairs.iter().map(|p| p.2).sum(), pairs)
}

/// Per-call timers of the traced rounds.
struct CallTimes {
    submit_s: Vec<f64>,
    step_s: Vec<f64>,
    wait_s: Vec<f64>,
    remove_s: Vec<f64>,
}

impl CallTimes {
    fn for_steps(steps: usize) -> Self {
        CallTimes {
            submit_s: committed(steps * OUTSTANDING),
            step_s: committed(steps),
            wait_s: committed(steps * OUTSTANDING),
            remove_s: committed(steps),
        }
    }
}

/// An empty vector whose capacity for `n` values is already resident, so
/// the harness's own samples do not show as server RSS growth.
fn committed(n: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, 1.0);
    v.clear();
    v
}

/// One `(plan, mode)` group of a step and the molecules the server runs
/// for it: each class once, unless its result is cached at the current
/// epoch.
struct Group {
    set: usize,
    mode: MatchMode,
    exec: Vec<usize>,
}

/// The closed-loop client of the server under test, with the harness's
/// model of what the server holds: which pool set owns each plan-cache
/// key (the first admitted), which classes are interned, and which
/// results are cached.
struct Client<'a> {
    inp: &'a Inputs,
    prebuilt: Vec<MatchRequest>,
    answers: HashMap<(usize, MatchMode, usize), Answer>,
    owner: Vec<Option<usize>>,
    class_of: Vec<usize>,
    known: Vec<bool>,
    /// (plan owner set, class, mode) results cached at the current epoch.
    cached: HashSet<(usize, usize, MatchMode)>,
    /// Every group the server ran, in order.
    groups: Vec<Group>,
}

impl Client<'_> {
    /// Runs `steps` and checks every answer. With `calls`, the odd
    /// rounds time each call into the server; the even rounds run
    /// untraced, for the tracing overhead.
    fn run_steps(
        &mut self,
        server: &mut Server,
        steps: impl IntoIterator<Item = Step>,
        steps_per_round: usize,
        out: &mut Outcome,
        mut calls: Option<&mut CallTimes>,
    ) {
        let inp = self.inp;
        let mut busy = 0.0;
        let mut round_mols = 0usize;
        for (i, step) in steps.into_iter().enumerate() {
            let mut calls = calls
                .as_deref_mut()
                .filter(|_| (i / steps_per_round) % 2 == 1);
            for &id in &step.removes {
                let t = Instant::now();
                let got = server.remove_molecule(&inp.mols[id]);
                let dt = t.elapsed().as_secs_f64();
                busy += dt;
                if let Some(c) = calls.as_deref_mut() {
                    c.remove_s.push(dt);
                }
                let class = self.class_of[id];
                out.attempted += 1;
                if got != self.known[class] {
                    out.fail(
                        &format!("remove of corpus molecule {id}"),
                        format!("returned {got}, expected {}", self.known[class]),
                        true,
                    );
                }
                if got {
                    // The epoch moved on: no cached result is reachable.
                    self.cached.clear();
                }
                self.known[class] = false;
            }
            let requests: Vec<Cow<MatchRequest>> = step
                .requests
                .iter()
                .map(|r| match r.catalog {
                    Some(i) => Cow::Borrowed(&self.prebuilt[i]),
                    None => Cow::Owned(inp.request(r)),
                })
                .collect();
            let mut admitted: Vec<(u64, usize, Instant)> = Vec::new();
            let first = Instant::now();
            for (k, request) in requests.iter().enumerate() {
                let t = Instant::now();
                let id = server.submit(request.as_ref());
                if let Some(c) = calls.as_deref_mut() {
                    c.submit_s.push(t.elapsed().as_secs_f64());
                }
                out.attempted += 1;
                match id {
                    Ok(id) => admitted.push((id, k, t)),
                    Err(reason) => out.fail("submit", format!("rejected: {reason:?}"), false),
                }
            }
            let t_step = Instant::now();
            let outcome = server.step();
            let end = Instant::now();
            busy += (end - first).as_secs_f64();
            if let Some(c) = calls {
                c.step_s.push((end - t_step).as_secs_f64());
                for &(_, _, t) in &admitted {
                    c.wait_s.push((t_step - t).as_secs_f64());
                }
            }
            self.model_step(&step, &admitted);
            for report in &outcome.reports {
                let &(_, k, t) = admitted
                    .iter()
                    .find(|a| a.0 == report.request_id)
                    .expect("the server answers only admitted requests");
                out.latencies_ms.push((end - t).as_secs_f64() * 1e3);
                let req = &step.requests[k];
                round_mols += req.mols.len();
                out.molecules += req.mols.len();
                out.matches += report.total_matches;
                let served = (report.total_matches, report.pair_counts.clone());
                let complete = report.truncated_molecules.is_empty();
                let owner = self.owner_of(req.set);
                if complete && served == expected(&self.answers, req.set, req) {
                    continue;
                }
                if complete && owner != req.set && served == expected(&self.answers, owner, req) {
                    out.fail(
                        &format!("request on {}", inp.pool_names[req.set]),
                        format!(
                            "plan-key collision: answered with the plan of {}",
                            inp.pool_names[owner]
                        ),
                        false,
                    );
                } else {
                    out.fail(
                        &format!("request on {}", inp.pool_names[req.set]),
                        "answer differs from the oracle".into(),
                        true,
                    );
                }
            }
            if outcome.reports.len() != admitted.len() {
                out.broken("a step did not answer every outstanding request".into());
            }
            if (i + 1) % steps_per_round == 0 {
                out.round_rates.push(round_mols as f64 / busy);
                busy = 0.0;
                round_mols = 0;
            }
        }
    }

    /// Updates the model with a step's admitted requests, in admission
    /// order: the plan-key owners, the interned classes, and the groups
    /// the server runs, as `Server::step` forms them.
    fn model_step(&mut self, step: &Step, admitted: &[(u64, usize, Instant)]) {
        for &(_, k, _) in admitted {
            let req = &step.requests[k];
            let group = self.inp.groups[req.set][0];
            self.owner[group].get_or_insert(req.set);
            for &m in &req.mols {
                self.known[self.class_of[m]] = true;
            }
        }
        let first = self.groups.len();
        for &(_, k, _) in admitted {
            let req = &step.requests[k];
            let set = self.owner_of(req.set);
            let g = match self.groups[first..]
                .iter()
                .position(|g| g.set == set && g.mode == req.mode)
            {
                Some(p) => first + p,
                None => {
                    self.groups.push(Group {
                        set,
                        mode: req.mode,
                        exec: Vec::new(),
                    });
                    self.groups.len() - 1
                }
            };
            for &m in &req.mols {
                if self.cached.insert((set, self.class_of[m], req.mode)) {
                    self.groups[g].exec.push(m);
                }
            }
        }
    }

    /// The pool set whose plan answers requests on `set`.
    fn owner_of(&self, set: usize) -> usize {
        self.owner[self.inp.groups[set][0]].expect("owner set on admission")
    }
}

fn stats_delta(a: ServeStats, b: ServeStats) -> ServeStats {
    ServeStats {
        mol_hits: b.mol_hits - a.mol_hits,
        mol_misses: b.mol_misses - a.mol_misses,
        plan_hits: b.plan_hits - a.plan_hits,
        plan_misses: b.plan_misses - a.plan_misses,
        result_hits: b.result_hits - a.result_hits,
        result_misses: b.result_misses - a.result_misses,
        admitted: b.admitted - a.admitted,
        rejected: b.rejected - a.rejected,
        executed_molecules: b.executed_molecules - a.executed_molecules,
        batches: b.batches - a.batches,
        index_screened: b.index_screened - a.index_screened,
        index_pruned: b.index_pruned - a.index_pruned,
    }
}

/// The molecules of `groups` that survive index screening, as the server
/// screens them: the same digests and `ScreenQuery` of each group's plan.
fn screened(index: &MoleculeIndex, screens: &[ScreenQuery], groups: &[Group]) -> Vec<Group> {
    groups
        .iter()
        .map(|g| Group {
            set: g.set,
            mode: g.mode,
            exec: g
                .exec
                .iter()
                .copied()
                .filter(|&m| index.screen(&screens[g.set], m as u32))
                .collect(),
        })
        .collect()
}

/// The engine work of `groups`, replayed through `Engine::run_planned`.
fn replay(inp: &Inputs, plans: &[QueryPlan], groups: &[Group]) -> EngineLedger {
    ledger::engine_ledger(groups.iter().filter(|g| !g.exec.is_empty()).map(|g| {
        let graphs = g.exec.iter().map(|&m| inp.mols[m].clone()).collect();
        (&plans[g.set], g.mode, graphs)
    }))
}

/// The serve corpus's screen index, frozen to the bytes `FrozenIndex::open`
/// reads.
fn frozen_corpus(inp: &Inputs) -> Vec<u8> {
    let schema = EngineConfig::default().schema;
    let mut store = MolStore::with_screen_index(IndexConfig::default(), &schema);
    for g in &inp.corpus.graphs {
        store.intern(g);
    }
    store
        .freeze_index()
        .expect("the store keeps a screen index")
}

pub fn run(kind: Kind, seed: u64, sizes: &Sizes, tracer: &mut Option<Tracer>) -> Outcome {
    let inp = make_inputs(kind, seed, sizes);
    crate::util::log("inputs generated");
    let answers = reference(&inp);
    crate::util::log("reference computed");
    let schema = EngineConfig::default().schema;
    // Canonical classes of every molecule, for the harness's model of the
    // molecule store and the result cache.
    let mut class_ids: HashMap<Vec<u8>, usize> = HashMap::new();
    let class_of: Vec<usize> = inp
        .mols
        .iter()
        .map(|g| {
            let n = class_ids.len();
            *class_ids.entry(canonical_code(g)).or_insert(n)
        })
        .collect();
    let mut known = vec![false; class_ids.len()];
    for &c in &class_of[..inp.corpus.graphs.len()] {
        known[c] = true;
    }
    let classes = known.iter().filter(|&&k| k).count();
    let frozen = (kind == Kind::Hot).then(|| frozen_corpus(&inp));

    let mut out = Outcome::default();
    let mut server = None;
    let mut open_s = Vec::new();
    for _ in 0..sizes.setups {
        let bytes = frozen.clone();
        drop(server.take());
        let t = Instant::now();
        let mut s = Server::new(ServeConfig::default(), Queue::new(DeviceProfile::host()));
        match bytes {
            None => {
                let load = s.preload_corpus(&inp.corpus.smi);
                out.setup_s.push(t.elapsed().as_secs_f64());
                if load.loaded != inp.corpus.graphs.len()
                    || load.classes != classes
                    || load.quarantined.len() != inp.corpus.quarantined
                {
                    out.broken(format!(
                        "preload loaded {} / {} classes / {} quarantined, expected {} / {} / {}",
                        load.loaded,
                        load.classes,
                        load.quarantined.len(),
                        inp.corpus.graphs.len(),
                        classes,
                        inp.corpus.quarantined
                    ));
                }
            }
            Some(bytes) => {
                let opened = FrozenIndex::open(bytes);
                let t_open = t.elapsed().as_secs_f64();
                let live = opened
                    .map_err(|e| e.to_string())
                    .and_then(|f| s.preload_index(&f));
                out.setup_s.push(t.elapsed().as_secs_f64());
                open_s.push(t_open);
                if live != Ok(classes) {
                    out.broken(format!(
                        "index preload gave {live:?}, expected Ok({classes})"
                    ));
                }
            }
        }
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");
    crate::util::log("set-ups done");

    let mut client = Client {
        inp: &inp,
        prebuilt: inp.catalog.iter().map(|r| inp.request(r)).collect(),
        answers,
        owner: vec![None; inp.pool.len()],
        class_of,
        known,
        cached: HashSet::new(),
        groups: Vec::new(),
    };
    let mut warm = Outcome::default();
    client.run_steps(&mut server, inp.warmup.clone(), 1, &mut warm, None);
    out.absorb_failures(warm);
    let warm_groups = std::mem::take(&mut client.groups);

    let mut calls = tracer.is_some().then(|| CallTimes::for_steps(inp.steps));
    out.latencies_ms = committed(inp.steps * OUTSTANDING);
    let stats0 = server.stats();
    let rss0 = status_kb("VmRSS");
    let cpu0 = cpu_ticks();
    client.run_steps(
        &mut server,
        inp.steps(),
        sizes.steps_per_round,
        &mut out,
        calls.as_mut(),
    );
    out.cpu = (cpu0, cpu_ticks());
    crate::util::log("timed loop done");
    let rss1 = status_kb("VmRSS");
    let stats = stats_delta(stats0, server.stats());
    let executed: usize = client.groups.iter().map(|g| g.exec.len()).sum();
    if executed as u64 != stats.executed_molecules || client.groups.len() as u64 != stats.batches {
        out.broken(format!(
            "the harness's cache model predicts {executed} executed molecules in {} groups; \
             the server executed {} in {}",
            client.groups.len(),
            stats.executed_molecules,
            stats.batches
        ));
    }
    out.fingerprint.push_str(&format!(
        "ops={} failed={} molecules={} matches={} stats={:?};",
        out.attempted,
        out.failed,
        out.molecules,
        out.matches,
        server.stats()
    ));

    if let (Some(tr), Some(calls)) = (tracer.as_mut(), calls) {
        let plans: Vec<QueryPlan> = inp
            .pool
            .iter()
            .map(|s| QueryPlan::build(s, &EngineConfig::default()))
            .collect();
        let mut index = MoleculeIndex::new(IndexConfig::default(), &schema);
        let t = Instant::now();
        for (id, g) in inp.mols.iter().enumerate() {
            index.add(id as u32, g);
        }
        let digest_us = t.elapsed().as_secs_f64() * 1e6 / inp.mols.len() as f64;
        let radius = index.config().radius;
        let screens: Vec<ScreenQuery> = plans
            .iter()
            .map(|p| ScreenQuery::from_plan(p, radius))
            .collect();
        let t = Instant::now();
        let survivors = screened(&index, &screens, &client.groups);
        let screen_us = ratio(t.elapsed().as_secs_f64() * 1e6, executed as f64);
        let pruned = executed - survivors.iter().map(|g| g.exec.len()).sum::<usize>();
        if pruned as u64 != stats.index_pruned || executed as u64 != stats.index_screened {
            out.broken(format!(
                "the harness screened {executed} molecules and pruned {pruned}; \
                 the server screened {} and pruned {}",
                stats.index_screened, stats.index_pruned
            ));
        }
        let engine = replay(&inp, &plans, &survivors);
        // serve-hot executes only during warm-up, so the warm-up's engine
        // work is part of the determinism fingerprint too.
        let warm_engine = replay(&inp, &plans, &screened(&index, &screens, &warm_groups));
        out.fingerprint.push_str(&format!(
            "engine={};warm-up engine={};",
            engine.instruction_fingerprint(),
            warm_engine.instruction_fingerprint()
        ));
        tr.table = engine.reconciliation_table();
        let steps = inp.steps as f64;
        tr.metrics.extend(engine.metrics(
            ledger::plan_build_ms(&inp.pool),
            ratio(engine.runs as f64, steps),
            steps,
        ));
        tr.metrics.extend(ledger::device_metrics(
            &out,
            ratio(engine.launches as f64, out.molecules as f64),
            sizes.workers,
        ));
        mol_metrics(tr, kind, &inp);
        let cold = kind == Kind::Cold;
        let if_cold = |v: f64| if cold { v } else { 0.0 };
        if cold {
            // serve-cold sets up from `.smi` text, so the disk path is
            // timed here, on the same corpus frozen after the run.
            let bytes = frozen_corpus(&inp);
            open_s = (0..5)
                .map(|_| {
                    let b = bytes.clone();
                    let t = Instant::now();
                    let opened = FrozenIndex::open(b);
                    let dt = t.elapsed().as_secs_f64();
                    if opened.is_err() {
                        out.broken("the frozen serve corpus does not open".into());
                    }
                    dt
                })
                .collect();
        }
        // Each pair of rounds is one untraced and one traced round.
        let overhead: Vec<f64> = out
            .round_rates
            .chunks_exact(2)
            .map(|r| 1.0 - r[1] / r[0])
            .collect();
        let mean_ms = |v: &[f64]| crate::util::mean(v) * 1e3;
        let lookups = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
        tr.metrics.extend([
            Metric::new("index.digest_us", if_cold(digest_us), "us"),
            Metric::new("index.screen_us", screen_us, "us"),
            Metric::new(
                "index.prune_frac",
                ratio(stats.index_pruned as f64, stats.index_screened as f64),
                "frac",
            ),
            Metric::new("index.open_ms", median(&open_s) * 1e3, "ms"),
            Metric::new("serve.submit_us", mean_ms(&calls.submit_s) * 1e3, "us"),
            Metric::new("serve.step_ms", mean_ms(&calls.step_s), "ms"),
            Metric::new("serve.queue_wait_ms", mean_ms(&calls.wait_s), "ms"),
            Metric::new(
                "serve.executed_per_step",
                stats.executed_molecules as f64 / steps,
                "count",
            ),
            Metric::new(
                "serve.batches_per_step",
                stats.batches as f64 / steps,
                "count",
            ),
            Metric::new(
                "serve.plan_hit_frac",
                lookups(stats.plan_hits, stats.plan_misses),
                "frac",
            ),
            Metric::new(
                "serve.mol_hit_frac",
                lookups(stats.mol_hits, stats.mol_misses),
                "frac",
            ),
            Metric::new(
                "serve.result_hit_frac",
                lookups(stats.result_hits, stats.result_misses),
                "frac",
            ),
            Metric::new("serve.remove_us", mean_ms(&calls.remove_s) * 1e3, "us"),
            Metric::new("serve.rejected", stats.rejected as f64, "count"),
            Metric::new(
                "serve.rss_growth_kb_per_kstep",
                (rss1 - rss0) * 1e3 / steps,
                "KB",
            ),
            Metric::new("harness.trace_overhead_frac", median(&overhead), "frac"),
        ]);
    }
    out
}

/// The `sigmo-mol` ledger on the workload's inputs: `.smi` ingest of the
/// corpus (serve-cold's set-up), and the admission canonicalization of
/// each measured request (its query set's plan key, plus the never-seen
/// molecules on serve-cold).
fn mol_metrics(tr: &mut Tracer, kind: Kind, inp: &Inputs) {
    let n_corpus = inp.corpus.graphs.len();
    let mut requests = 0usize;
    let mut canon_s = 0.0;
    for step in inp.steps() {
        let t = Instant::now();
        for req in &step.requests {
            for q in &inp.pool[req.set] {
                std::hint::black_box(canonical_code(q));
            }
            for &m in req.mols.iter().filter(|&&m| m >= n_corpus) {
                std::hint::black_box(canonical_code(&inp.mols[m]));
            }
        }
        canon_s += t.elapsed().as_secs_f64();
        requests += step.requests.len();
    }
    let (mut parse_us, mut quarantined) = (0.0, 0.0);
    if kind == Kind::Cold {
        let t = Instant::now();
        let ingest = sigmo_mol::ingest_smi(&inp.corpus.smi, false);
        parse_us = t.elapsed().as_secs_f64() * 1e6 / inp.corpus.lines as f64;
        quarantined = ingest.quarantined.len() as f64;
    }
    tr.metrics.extend([
        Metric::new("mol.smiles_parse_us", parse_us, "us"),
        Metric::new("mol.quarantined", quarantined, "count"),
        Metric::new(
            "mol.canonical_code_us",
            ratio(canon_s * 1e6, requests as f64),
            "us",
        ),
    ]);
}
