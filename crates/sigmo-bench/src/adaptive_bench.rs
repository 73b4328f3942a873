//! The adaptive-join ablation behind `BENCH_adaptive.json`: one
//! [`gate`](crate::gate) table entry, recorded by `ext_adaptive` and
//! gated by `bench_diff`.
//!
//! Three scenarios, each constructed so a *different* fixed
//! (variant, order) combination wins — no fixed strategy is best
//! everywhere — and the cost-model adaptive engine must land within a few
//! percent of the per-scenario oracle (the best fixed combination chosen
//! with hindsight):
//!
//! * `needle` — a query whose one globally-rare branch (an N bonded to an
//!   S) sits two hops from the max-degree root. Max-degree ordering
//!   wastes a hydrogen-permutation subtree per carbon before the rare row
//!   rejects it; min-candidates ordering starts at the rare row and only
//!   ever explores the matching branch.
//! * `bushy` — a hydrogen-star query over wider hydrogen stars. Orders
//!   coincide (the carbon root is both max-degree and min-candidates),
//!   but the frontier-materializing BFS amortizes candidate probing per
//!   level where the DFS re-ticks per placement attempt.
//! * `probe` — Find First over dense uniform graphs. DFS stops at the
//!   first embedding in a handful of steps; BFS must materialize whole
//!   levels below it first.
//!
//! Join cost is measured two ways. The asserts use the deterministic
//! simulated device seconds (`sim_s`: the analytical device model over
//! the join kernels' charged traffic — this repo's substrate for all
//! paper-shape claims, noise-free by construction), and the gate holds
//! them exact. The real host wall is recorded alongside as best-of-[`REPS`]
//! and gated as a wall: one run takes well under a millisecond, so each
//! wall times [`Scenario::wall_runs`] back-to-back runs, enough for at
//! least 50 ms on the recording host. Match totals and per-pair
//! attributions must be bit-identical across all five configurations and
//! across every run; the bench asserts both.

use crate::gate::Field;
use crate::BenchScale;
use sigmo_core::{Engine, EngineConfig, JoinOrder, JoinStrategy, MatchMode, StrategyCounts};
use sigmo_device::{summarize, CostModel, DeviceProfile, Queue};
use sigmo_graph::LabeledGraph;
use std::time::Instant;

/// Fresh runs per configuration; real walls take the minimum, modeled
/// walls and results must agree exactly across reps.
pub const REPS: usize = 5;

/// Required whole-workload win over the worst fixed combination.
pub const MIN_SPEEDUP_VS_WORST: f64 = 1.3;
/// Allowed slowdown vs the per-scenario hindsight oracle.
pub const MAX_ORACLE_OVERHEAD: f64 = 1.05;
/// Every fixed combination must lose by this factor somewhere.
pub const MIN_PER_COMBO_LOSS: f64 = 1.3;

/// The four fixed (variant, order) combinations, in decision-code order.
pub const COMBOS: [(&str, JoinStrategy, JoinOrder); 4] = [
    ("dfs_maxdeg", JoinStrategy::Dfs, JoinOrder::MaxDegree),
    ("dfs_mincand", JoinStrategy::Dfs, JoinOrder::MinCandidates),
    ("bfs_maxdeg", JoinStrategy::Bfs, JoinOrder::MaxDegree),
    ("bfs_mincand", JoinStrategy::Bfs, JoinOrder::MinCandidates),
];

/// One ablation workload: a query set, a data set, and a match mode.
pub struct Scenario {
    /// Key used in the JSON ("needle" | "bushy" | "probe").
    pub name: &'static str,
    /// Query graphs.
    pub queries: Vec<LabeledGraph>,
    /// Data graphs.
    pub data: Vec<LabeledGraph>,
    /// Find All or Find First.
    pub mode: MatchMode,
    /// Back-to-back runs one wall measurement times.
    pub wall_runs: usize,
}

/// One scenario's measurements across the five configurations.
pub struct ScenarioResult {
    /// Scenario key.
    pub name: &'static str,
    /// Total matches — identical across all five configurations.
    pub total_matches: u64,
    /// Modeled join-kernel wall per fixed combo, [`COMBOS`] order.
    pub fixed_model_s: [f64; 4],
    /// Modeled join-kernel wall of the adaptive run.
    pub adaptive_model_s: f64,
    /// Best-of-[`REPS`] real wall of [`Scenario::wall_runs`] whole runs
    /// per fixed combo.
    pub fixed_wall_s: [f64; 4],
    /// Best-of-[`REPS`] real wall of [`Scenario::wall_runs`] whole
    /// adaptive runs.
    pub adaptive_wall_s: f64,
    /// The adaptive run's per-pair decision tallies.
    pub decisions: StrategyCounts,
}

impl ScenarioResult {
    /// Modeled wall of the best fixed combo (the hindsight oracle).
    pub fn oracle_model_s(&self) -> f64 {
        self.fixed_model_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Aggregate ablation result.
pub struct AdaptiveBenchResult {
    /// Per-scenario measurements.
    pub scenarios: Vec<ScenarioResult>,
}

impl AdaptiveBenchResult {
    /// Σ over scenarios of the adaptive modeled wall.
    pub fn adaptive_total_s(&self) -> f64 {
        self.scenarios.iter().map(|s| s.adaptive_model_s).sum()
    }

    /// Σ over scenarios of the best fixed combo *per scenario*.
    pub fn oracle_total_s(&self) -> f64 {
        self.scenarios.iter().map(|s| s.oracle_model_s()).sum()
    }

    /// Whole-workload modeled wall of fixed combo `i` ([`COMBOS`] order).
    pub fn fixed_total_s(&self, i: usize) -> f64 {
        self.scenarios.iter().map(|s| s.fixed_model_s[i]).sum()
    }

    /// The worst fixed combo's whole-workload modeled wall.
    pub fn worst_fixed_total_s(&self) -> f64 {
        (0..COMBOS.len())
            .map(|i| self.fixed_total_s(i))
            .fold(0.0, f64::max)
    }

    /// The best fixed combo's whole-workload modeled wall.
    pub fn best_fixed_total_s(&self) -> f64 {
        (0..COMBOS.len())
            .map(|i| self.fixed_total_s(i))
            .fold(f64::INFINITY, f64::min)
    }
}

/// How many copies of each scenario's data-graph template to generate.
fn graphs_at(scale: BenchScale, quick: usize) -> usize {
    match scale {
        BenchScale::Quick => quick,
        BenchScale::Paper => quick * 4,
    }
}

// Atom labels, following the organic-schema convention used across the
// repo's examples (H is the frequent label, the rest are heavy atoms).
const H: u8 = 0;
const C: u8 = 1;
const N: u8 = 3;
const S: u8 = 5;

fn graph(labels: &[u8], edges: &[(u32, u32)]) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    for &l in labels {
        g.add_node(l);
    }
    for &(a, b) in edges {
        g.add_edge(a, b, 1).unwrap();
    }
    g
}

/// `needle`: C(3×H)(N–S) query over graphs of carbons that all carry the
/// hydrogens and the amine — but only one amine carries the sulfur.
fn needle(scale: BenchScale) -> Scenario {
    // Query: 0=C, 1..=3=H, 4=N, 5=S. Hydrogens come first in the root's
    // adjacency, so max-degree ordering pays their permutations before
    // the N row can reject a wrong carbon.
    let query = graph(
        &[C, H, H, H, N, S],
        &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)],
    );
    // Data template: 10 carbons, each with 4 H and an N; one S on the
    // last N only. Every carbon survives the label-pair pre-check (all
    // have H and N pairs); only one N row candidate survives (N–S pair).
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    for c in 0..10u32 {
        let base = labels.len() as u32;
        labels.push(C);
        for h in 0..4u32 {
            labels.push(H);
            edges.push((base, base + 1 + h));
        }
        labels.push(N);
        edges.push((base, base + 5));
        if c == 9 {
            labels.push(S);
            edges.push((base + 5, base + 6));
        }
    }
    let template = graph(&labels, &edges);
    Scenario {
        name: "needle",
        queries: vec![query],
        data: vec![template; graphs_at(scale, 30)],
        mode: MatchMode::FindAll,
        wall_runs: 160,
    }
}

/// `bushy`: a 4-hydrogen star over 12-hydrogen stars — wide symmetric
/// fanout where the BFS level memo pays and order is irrelevant.
fn bushy(scale: BenchScale) -> Scenario {
    let query = graph(&[C, H, H, H, H], &[(0, 1), (0, 2), (0, 3), (0, 4)]);
    let mut labels = vec![C];
    let mut edges = Vec::new();
    for h in 0..12u32 {
        labels.push(H);
        edges.push((0, 1 + h));
    }
    let template = graph(&labels, &edges);
    Scenario {
        name: "bushy",
        queries: vec![query],
        data: vec![template; graphs_at(scale, 6)],
        mode: MatchMode::FindAll,
        wall_runs: 192,
    }
}

/// `probe`: Find First of a short uniform path in dense uniform graphs —
/// DFS stops almost immediately, BFS materializes whole levels first.
fn probe(scale: BenchScale) -> Scenario {
    let query = graph(&[C, C, C, C], &[(0, 1), (1, 2), (2, 3)]);
    let n = 30u32;
    let labels = vec![C; n as usize];
    let mut edges = Vec::new();
    for v in 0..n {
        // Ring plus two deterministic chords: degree ~6 everywhere.
        edges.push((v, (v + 1) % n));
        edges.push((v, (v + 7) % n));
        edges.push((v, (v + 13) % n));
    }
    let template = graph(&labels, &edges);
    Scenario {
        name: "probe",
        queries: vec![query],
        data: vec![template; graphs_at(scale, 20)],
        mode: MatchMode::FindFirst,
        wall_runs: 256,
    }
}

/// The three scenarios at a scale.
pub fn scenarios(scale: BenchScale) -> Vec<Scenario> {
    vec![needle(scale), bushy(scale), probe(scale)]
}

fn config(s: &Scenario, strategy: JoinStrategy, order: JoinOrder) -> EngineConfig {
    EngineConfig {
        // One iteration keeps candidate rows wide (label init + the
        // label-pair pre-check only) so the join phase dominates and the
        // ordering asymmetry survives filtering.
        refinement_iterations: 1,
        mode: s.mode,
        join_order: order,
        join_strategy: strategy,
        ..Default::default()
    }
}

struct ConfigRun {
    total_matches: u64,
    pair_counts: Vec<(usize, usize, u64)>,
    model_s: f64,
    wall_s: f64,
    decisions: StrategyCounts,
}

/// Runs one configuration [`REPS`] times: asserts results and modeled
/// wall are identical across reps, keeps the minimum real wall. Each
/// rep's wall times [`Scenario::wall_runs`] runs; the first run's queue
/// supplies the modeled wall, the others run on a queue cleared after
/// each run and must report the same total.
fn run_config(s: &Scenario, strategy: JoinStrategy, order: JoinOrder) -> ConfigRun {
    let model = CostModel::new(DeviceProfile::nvidia_v100s());
    let mut best: Option<ConfigRun> = None;
    for _ in 0..REPS {
        let queue = Queue::new(DeviceProfile::nvidia_v100s());
        let spare = Queue::new(DeviceProfile::nvidia_v100s());
        let engine = Engine::new(config(s, strategy, order));
        let start = Instant::now();
        let report = engine.run(&s.queries, &s.data, &queue);
        for _ in 1..s.wall_runs {
            let again = engine.run(&s.queries, &s.data, &spare);
            spare.clear_records();
            assert_eq!(
                again.total_matches, report.total_matches,
                "{}/{strategy:?}/{order:?}: nondeterministic totals",
                s.name
            );
        }
        let wall_s = start.elapsed().as_secs_f64();
        let model_s = summarize(&queue.records(), &model)
            .iter()
            .filter(|k| matches!(k.name.as_str(), "join" | "join_bfs" | "join_adaptive"))
            .map(|k| k.sim_s)
            .sum();
        assert!(
            report.completion.is_complete(),
            "{}/{strategy:?}/{order:?}: ablation runs are unbudgeted",
            s.name
        );
        match &mut best {
            None => {
                best = Some(ConfigRun {
                    total_matches: report.total_matches,
                    pair_counts: report.pair_counts,
                    model_s,
                    wall_s,
                    decisions: report.strategy,
                })
            }
            Some(prev) => {
                assert_eq!(
                    prev.total_matches, report.total_matches,
                    "{}/{strategy:?}/{order:?}: nondeterministic totals",
                    s.name
                );
                assert_eq!(
                    prev.pair_counts, report.pair_counts,
                    "{}/{strategy:?}/{order:?}: nondeterministic attribution",
                    s.name
                );
                assert_eq!(
                    prev.decisions, report.strategy,
                    "{}/{strategy:?}/{order:?}: nondeterministic decisions",
                    s.name
                );
                assert!(
                    (prev.model_s - model_s).abs() < 1e-12,
                    "{}/{strategy:?}/{order:?}: modeled wall drifted across reps",
                    s.name
                );
                prev.wall_s = prev.wall_s.min(wall_s);
            }
        }
    }
    best.expect("REPS >= 1")
}

/// Runs one scenario through the four fixed combos and the adaptive
/// engine; asserts all five agree bit for bit on results.
pub fn run_scenario(s: &Scenario) -> ScenarioResult {
    let mut fixed_model_s = [0.0; 4];
    let mut fixed_wall_s = [0.0; 4];
    let mut reference: Option<ConfigRun> = None;
    for (i, &(name, strategy, order)) in COMBOS.iter().enumerate() {
        let run = run_config(s, strategy, order);
        fixed_model_s[i] = run.model_s;
        fixed_wall_s[i] = run.wall_s;
        match &reference {
            None => reference = Some(run),
            Some(base) => {
                assert_eq!(
                    base.total_matches, run.total_matches,
                    "{}: {name} diverged from {}",
                    s.name, COMBOS[0].0
                );
                assert_eq!(
                    base.pair_counts, run.pair_counts,
                    "{}: {name} attribution diverged",
                    s.name
                );
            }
        }
    }
    let base = reference.expect("four combos ran");
    let adaptive = run_config(s, JoinStrategy::Adaptive, JoinOrder::MaxDegree);
    assert_eq!(
        base.total_matches, adaptive.total_matches,
        "{}: adaptive totals diverged",
        s.name
    );
    assert_eq!(
        base.pair_counts, adaptive.pair_counts,
        "{}: adaptive attribution diverged",
        s.name
    );
    ScenarioResult {
        name: s.name,
        total_matches: adaptive.total_matches,
        fixed_model_s,
        adaptive_model_s: adaptive.model_s,
        fixed_wall_s,
        adaptive_wall_s: adaptive.wall_s,
        decisions: adaptive.decisions,
    }
}

/// Runs the full ablation (the table's runner) and asserts its premise
/// and its payoff on the modeled walls:
///
/// * every scenario matches something;
/// * every fixed combination loses at least [`MIN_PER_COMBO_LOSS`]× to
///   the per-scenario oracle somewhere — no fixed strategy wins
///   everywhere on this workload;
/// * the adaptive engine beats the worst fixed combination by at least
///   [`MIN_SPEEDUP_VS_WORST`]× on the whole workload, and
/// * lands within [`MAX_ORACLE_OVERHEAD`] of the oracle.
pub fn run(scale: BenchScale) -> Vec<Field> {
    let r = AdaptiveBenchResult {
        scenarios: scenarios(scale).iter().map(run_scenario).collect(),
    };
    for s in &r.scenarios {
        assert!(
            s.total_matches > 0,
            "{}: a degenerate zero-match scenario proves nothing",
            s.name
        );
    }
    for (i, &(combo, _, _)) in COMBOS.iter().enumerate() {
        let worst_loss = r
            .scenarios
            .iter()
            .map(|s| s.fixed_model_s[i] / s.oracle_model_s().max(1e-12))
            .fold(0.0, f64::max);
        assert!(
            worst_loss >= MIN_PER_COMBO_LOSS,
            "{combo} never loses ≥{MIN_PER_COMBO_LOSS}x — the workload no longer \
             discriminates and the ablation is vacuous (got {worst_loss:.2}x)"
        );
    }
    let speedup = r.worst_fixed_total_s() / r.adaptive_total_s().max(1e-12);
    let overhead = r.adaptive_total_s() / r.oracle_total_s().max(1e-12);
    assert!(
        speedup >= MIN_SPEEDUP_VS_WORST,
        "adaptive must be ≥{MIN_SPEEDUP_VS_WORST}x the worst fixed strategy, got {speedup:.2}x"
    );
    assert!(
        overhead <= MAX_ORACLE_OVERHEAD,
        "adaptive must be ≤{MAX_ORACLE_OVERHEAD}x the per-scenario oracle, got {overhead:.3}x"
    );

    let mut f = vec![Field::scale(scale)];
    for s in &r.scenarios {
        let key = |field: &str| format!("{}_{field}", s.name);
        f.push(Field::count(key("total_matches"), s.total_matches));
        for (i, &(combo, _, _)) in COMBOS.iter().enumerate() {
            f.push(Field::exact(
                key(&format!("model_{combo}_s")),
                s.fixed_model_s[i],
                9,
            ));
        }
        f.push(Field::exact(key("model_adaptive_s"), s.adaptive_model_s, 9));
        for (i, &(combo, _, _)) in COMBOS.iter().enumerate() {
            f.push(Field::wall(
                key(&format!("wall_{combo}_s")),
                s.fixed_wall_s[i],
            ));
        }
        let d = &s.decisions;
        f.extend([
            Field::wall(key("wall_adaptive_s"), s.adaptive_wall_s),
            Field::count(key("adaptive_dfs_pairs"), d.dfs_pairs),
            Field::count(key("adaptive_bfs_pairs"), d.bfs_pairs),
            Field::count(key("adaptive_max_degree_pairs"), d.max_degree_pairs),
            Field::count(key("adaptive_min_candidates_pairs"), d.min_candidates_pairs),
        ]);
    }
    f.extend([
        Field::exact("adaptive_total_s", r.adaptive_total_s(), 9),
        Field::exact("oracle_total_s", r.oracle_total_s(), 9),
        Field::exact("worst_fixed_total_s", r.worst_fixed_total_s(), 9),
        Field::exact("best_fixed_total_s", r.best_fixed_total_s(), 9),
        Field::exact("speedup_vs_worst_fixed", speedup, 3),
        Field::exact(
            "speedup_vs_best_fixed",
            r.best_fixed_total_s() / r.adaptive_total_s().max(1e-12),
            3,
        ),
        Field::exact("oracle_overhead", overhead, 4),
    ]);
    f
}
