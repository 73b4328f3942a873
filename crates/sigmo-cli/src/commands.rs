//! Subcommand implementations. Each returns a [`CommandOutput`] so the
//! logic is unit-testable without spawning processes.

use crate::args::{ArgError, Command, ParsedArgs};
use crate::io::{load_molecules, load_query_graphs, serialize_molecules, IoError, NamedMolecule};
use sigmo_cluster::FaultPlan;
use sigmo_core::{Engine, EngineConfig, Governor, JoinStrategy, MatchMode, RunBudget};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::LabeledGraph;
use sigmo_mol::{descriptors, GeneratorConfig, MoleculeGenerator};
use sigmo_serve::{
    generate_workload, oracle_replay, run_soak, served_outcome, FrozenIndex, IndexConfig, MolStore,
    ServeConfig, Server, ShardConfig, WorkloadConfig,
};
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// Result of a command: text for stdout plus optional file payloads.
#[derive(Debug, Default)]
pub struct CommandOutput {
    /// Text printed to stdout.
    pub stdout: String,
    /// Files to write: `(path, contents)` — bytes, so binary index files
    /// and text formats share one channel.
    pub files: Vec<(String, Vec<u8>)>,
}

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// File problems.
    Io(IoError),
    /// Signature-index problems (bad file, schema mismatch, preload into
    /// a non-empty server).
    Index(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Index(e) => write!(f, "index: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<IoError> for CliError {
    fn from(e: IoError) -> Self {
        CliError::Io(e)
    }
}

fn join_strategy(args: &ParsedArgs) -> Result<JoinStrategy, ArgError> {
    match args.get("join-strategy") {
        None => Ok(JoinStrategy::default()),
        Some("dfs") => Ok(JoinStrategy::Dfs),
        Some("bfs") => Ok(JoinStrategy::Bfs),
        Some("adaptive") => Ok(JoinStrategy::Adaptive),
        Some(v) => Err(ArgError::BadValue {
            flag: "join-strategy".to_string(),
            value: v.to_string(),
            expected: "dfs, bfs, or adaptive",
        }),
    }
}

fn engine_config(args: &ParsedArgs, mode: MatchMode) -> Result<EngineConfig, ArgError> {
    Ok(EngineConfig {
        refinement_iterations: args.get_parsed("iterations", 6usize, "an integer ≥ 1")?,
        mode,
        induced: args.get_parsed("induced", false, "true or false")?,
        collect_limit: match args.get("show") {
            Some(_) => Some(args.get_parsed("show", 10usize, "an integer")?),
            None => None,
        },
        join_strategy: join_strategy(args)?,
        ..Default::default()
    })
}

fn to_graphs(mols: &[NamedMolecule]) -> Vec<LabeledGraph> {
    mols.iter().map(|m| m.molecule.to_labeled_graph()).collect()
}

/// Builds the run budget from `--deadline-ms`, `--step-budget` and
/// `--max-embeddings`. All three are optional; absent flags leave that
/// axis unlimited, and a fully absent budget runs bit-identically to an
/// unbudgeted engine.
fn run_budget(args: &ParsedArgs) -> Result<RunBudget, ArgError> {
    let mut budget = RunBudget::none();
    if args.get("deadline-ms").is_some() {
        let ms = args.get_parsed("deadline-ms", 0u64, "milliseconds (an integer)")?;
        budget.deadline = Some(Duration::from_millis(ms));
    }
    if args.get("step-budget").is_some() {
        budget.max_join_steps = Some(args.get_parsed("step-budget", 0u64, "an integer")?);
    }
    if args.get("max-embeddings").is_some() {
        budget.max_embeddings = Some(args.get_parsed("max-embeddings", 0u64, "an integer")?);
    }
    Ok(budget)
}

/// One status line for a (possibly truncated) report: `status: complete`
/// or `status: truncated (reason)` with the partial-result caveat.
fn status_line(out: &mut String, completion: &sigmo_core::Completion) {
    if completion.is_complete() {
        writeln!(out, "status: complete").unwrap();
    } else {
        writeln!(
            out,
            "status: {completion} — counts below are a sound partial result \
             (every reported match is real; the run stopped early)"
        )
        .unwrap();
    }
}

/// Dispatches a parsed command line.
pub fn run_command(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    match args.command {
        Command::Match => cmd_match(args),
        Command::Screen => cmd_screen(args),
        Command::Generate => cmd_generate(args),
        Command::Info => cmd_info(args),
        Command::Serve => cmd_serve(args),
        Command::Replay => cmd_replay(args),
        Command::IndexBuild => cmd_index_build(args),
        Command::IndexStat => cmd_index_stat(args),
    }
}

/// Builds the serving and workload configurations shared by `serve` and
/// `replay` from the common flag set.
fn serve_setup(args: &ParsedArgs) -> Result<(ServeConfig, WorkloadConfig), ArgError> {
    let defaults = WorkloadConfig::default();
    let workload = WorkloadConfig {
        requests: args.get_parsed("requests", defaults.requests, "an integer ≥ 1")?,
        seed: args.get_parsed("seed", defaults.seed, "an integer")?,
        mol_pool: args.get_parsed("mol-pool", defaults.mol_pool, "an integer ≥ 1")?,
        query_sets: args.get_parsed("query-sets", defaults.query_sets, "an integer ≥ 1")?,
        queries_per_set: args.get_parsed(
            "queries-per-set",
            defaults.queries_per_set,
            "an integer ≥ 1",
        )?,
        max_request_molecules: args.get_parsed(
            "request-mols",
            defaults.max_request_molecules,
            "an integer ≥ 1",
        )?,
        mean_interarrival: args.get_parsed(
            "interarrival",
            defaults.mean_interarrival,
            "ticks (an integer)",
        )?,
        find_first_pct: args.get_parsed(
            "find-first-pct",
            defaults.find_first_pct,
            "a percentage 0..=100",
        )?,
        pool_skew: args.get_parsed("pool-skew", defaults.pool_skew, "an integer ≥ 0")?,
    };
    let serve_defaults = ServeConfig::default();
    let config = ServeConfig {
        budget: run_budget(args)?,
        queue_capacity: args.get_parsed(
            "queue-capacity",
            serve_defaults.queue_capacity,
            "an integer ≥ 1",
        )?,
        max_batch_requests: args.get_parsed(
            "batch-requests",
            serve_defaults.max_batch_requests,
            "an integer ≥ 1",
        )?,
        caching: args.get_parsed("cache", true, "true or false")?,
        sharding: shard_setup(args)?,
        index: if args.get_parsed("no-index", false, "true or false")? {
            None
        } else {
            Some(IndexConfig {
                radius: args.get_parsed(
                    "index-radius",
                    IndexConfig::default().radius,
                    "an integer ≥ 0",
                )?,
            })
        },
        ..serve_defaults
    };
    Ok((config, workload))
}

/// Bulk-loads a `--corpus <file.smi>` into the server's standing corpus
/// when the flag is given, appending the load summary (and the
/// deterministic quarantine report) to `out`.
fn preload_corpus(
    args: &ParsedArgs,
    server: &mut Server,
    out: &mut String,
) -> Result<(), CliError> {
    let Some(path) = args.get("corpus") else {
        return Ok(());
    };
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(IoError::Fs(e)))?;
    let load = server.preload_corpus(&text);
    quarantine_report(out, &load.quarantined);
    writeln!(
        out,
        "corpus: {} molecules ({} classes) from {path}",
        load.loaded, load.classes
    )
    .unwrap();
    Ok(())
}

/// Loads a persisted `--index` file when the flag is given.
fn load_frozen(args: &ParsedArgs) -> Result<Option<FrozenIndex>, CliError> {
    match args.get("index") {
        None => Ok(None),
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| CliError::Io(IoError::Fs(e)))?;
            let frozen =
                FrozenIndex::open(bytes).map_err(|e| CliError::Index(format!("{path}: {e}")))?;
            Ok(Some(frozen))
        }
    }
}

/// Builds the sharded-tier configuration from `--shards` and friends.
/// `--shards 0` (the default) keeps the single-node serving path.
fn shard_setup(args: &ParsedArgs) -> Result<Option<ShardConfig>, ArgError> {
    let shards = args.get_parsed("shards", 0usize, "an integer ≥ 0")?;
    if shards == 0 {
        return Ok(None);
    }
    let replicas = args.get_parsed("replicas", 2usize.min(shards), "an integer ≥ 1")?;
    if !(1..=shards).contains(&replicas) {
        return Err(ArgError::BadValue {
            flag: "replicas".to_string(),
            value: replicas.to_string(),
            expected: "1..=shards replicas",
        });
    }
    let crashes = args.get_parsed("crashes", 0usize, "an integer")?;
    let stragglers = args.get_parsed("stragglers", 0usize, "an integer")?;
    let slowdown = args.get_parsed("slowdown", 4.0f64, "a factor ≥ 1.0")?;
    // Crashes claim the low ranks (clamped so one rank stays healthy);
    // stragglers claim the high ranks, skipping corpses. Deterministic by
    // construction — the seed only drives ownership and transient blips.
    let mut fault = FaultPlan::none(shards).with_transient_pct(args.get_parsed(
        "transient-pct",
        0u64,
        "a percentage 0..=100",
    )?);
    for r in 0..crashes.min(shards.saturating_sub(1)) {
        fault.crashed.insert(r);
    }
    for k in 0..stragglers.min(shards) {
        let r = shards - 1 - k;
        if !fault.crashed.contains(&r) {
            fault.stragglers.insert(r, slowdown.max(1.0));
        }
    }
    let mut config = ShardConfig::new(shards, replicas).with_fault(fault);
    config.fault_seed = args.get_parsed("fault-seed", config.fault_seed, "an integer")?;
    config.work_stealing = args.get_parsed("steal", true, "true or false")?;
    Ok(Some(config))
}

/// Renders the sharded tier's dispatch/retry/steal summary, including the
/// hottest shard's deepest primary backlog — the work-stealing signal.
fn shard_summary(out: &mut String, stats: &[sigmo_serve::ShardStats]) {
    let retries: u64 = stats.iter().map(|s| s.retries).sum();
    let steals: u64 = stats.iter().map(|s| s.steals).sum();
    let degraded: u64 = stats.iter().map(|s| s.degraded_slices).sum();
    let dispatches: u64 = stats.iter().map(|s| s.dispatches).sum();
    writeln!(
        out,
        "shards: {} — {} dispatches, {} retries, {} steals, {} degraded slices",
        stats.len(),
        dispatches,
        retries,
        steals,
        degraded
    )
    .unwrap();
    if let Some((hot, s)) = stats
        .iter()
        .enumerate()
        .max_by_key(|(i, s)| (s.max_queue_depth, std::cmp::Reverse(*i)))
    {
        writeln!(
            out,
            "hot shard {}: max queue depth {} ticks, {} molecules executed",
            hot, s.max_queue_depth, s.executed_cost
        )
        .unwrap();
    }
}

/// Renders latency/cache/throughput summary lines shared by `serve` and
/// `replay`.
fn serve_summary(
    out: &mut String,
    soak: &sigmo_serve::SoakReport,
    stats: &sigmo_serve::ServeStats,
) {
    let total_matches: u64 = soak.entries.iter().map(|e| e.report.total_matches).sum();
    let unavailable = soak
        .entries
        .iter()
        .filter(|e| {
            e.report.completion
                == sigmo_core::Completion::Truncated(sigmo_core::TruncationReason::ShardUnavailable)
        })
        .count();
    let truncated = soak
        .entries
        .iter()
        .filter(|e| !e.report.completion.is_complete())
        .count()
        - unavailable;
    writeln!(
        out,
        "served {} requests ({} rejected) in {} ticks over {} steps",
        soak.entries.len(),
        soak.rejected.len(),
        soak.final_tick,
        soak.steps
    )
    .unwrap();
    writeln!(out, "total matches: {total_matches}").unwrap();
    if truncated > 0 {
        writeln!(
            out,
            "truncated requests: {truncated} (step-budget partials; sound lower bounds)"
        )
        .unwrap();
    }
    if unavailable > 0 {
        writeln!(
            out,
            "degraded requests: {unavailable} (shard unavailable; zero-count lower bounds)"
        )
        .unwrap();
    }
    let mut lat = soak.latencies();
    lat.sort_unstable();
    if !lat.is_empty() {
        let p95 = lat[((lat.len() * 95) / 100).min(lat.len() - 1)];
        writeln!(
            out,
            "latency ticks: p50 {} p95 {} max {}",
            lat[lat.len() / 2],
            p95,
            lat[lat.len() - 1]
        )
        .unwrap();
    }
    writeln!(
        out,
        "cache hits/misses: plan {}/{} molecule {}/{} result {}/{}",
        stats.plan_hits,
        stats.plan_misses,
        stats.mol_hits,
        stats.mol_misses,
        stats.result_hits,
        stats.result_misses
    )
    .unwrap();
    writeln!(
        out,
        "executed molecules: {} across {} micro-batches",
        stats.executed_molecules, stats.batches
    )
    .unwrap();
    if stats.index_screened > 0 {
        writeln!(
            out,
            "index screening: {} screened, {} pruned ({:.1}%)",
            stats.index_screened,
            stats.index_pruned,
            100.0 * stats.index_pruned as f64 / stats.index_screened as f64
        )
        .unwrap();
    }
}

fn cmd_serve(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    let (config, workload) = serve_setup(args)?;
    let trace = generate_workload(&workload);
    let mut server = Server::new(config, Queue::new(DeviceProfile::host()));
    if let Some(frozen) = load_frozen(args)? {
        server.preload_index(&frozen).map_err(CliError::Index)?;
    }
    let mut out = String::new();
    preload_corpus(args, &mut server, &mut out)?;
    let soak = run_soak(&mut server, &trace);
    serve_summary(&mut out, &soak, &server.stats());
    if let Some(stats) = server.shard_stats() {
        shard_summary(&mut out, stats);
    }
    Ok(CommandOutput {
        stdout: out,
        files: Vec::new(),
    })
}

fn cmd_replay(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    let (config, workload) = serve_setup(args)?;
    let trace = generate_workload(&workload);
    let mut server = Server::new(config.clone(), Queue::new(DeviceProfile::host()));
    if let Some(frozen) = load_frozen(args)? {
        server.preload_index(&frozen).map_err(CliError::Index)?;
    }
    let mut out = String::new();
    preload_corpus(args, &mut server, &mut out)?;
    let soak = run_soak(&mut server, &trace);
    let queue = Queue::new(DeviceProfile::host());
    let mut mismatches = 0usize;
    let mut degraded = 0usize;
    for entry in &soak.entries {
        if entry.report.completion
            == sigmo_core::Completion::Truncated(sigmo_core::TruncationReason::ShardUnavailable)
        {
            // Every replica of some shard was exhausted: the served zero
            // counts are a declared lower bound, not an oracle match.
            degraded += 1;
            continue;
        }
        let oracle = oracle_replay(&config, &trace[entry.trace_index].request, &queue);
        if served_outcome(&entry.report) != oracle {
            mismatches += 1;
            writeln!(
                out,
                "MISMATCH request {}: served {} matches, oracle {}",
                entry.trace_index, entry.report.total_matches, oracle.total_matches
            )
            .unwrap();
        }
    }
    if degraded > 0 {
        writeln!(
            out,
            "degraded requests: {degraded} (shard unavailable; zero-count lower bounds, \
             excluded from oracle comparison)"
        )
        .unwrap();
    }
    writeln!(
        out,
        "replay: {}/{} requests bit-identical to the unbatched oracle",
        soak.entries.len() - mismatches - degraded,
        soak.entries.len()
    )
    .unwrap();
    serve_summary(&mut out, &soak, &server.stats());
    if let Some(stats) = server.shard_stats() {
        shard_summary(&mut out, stats);
    }
    Ok(CommandOutput {
        stdout: out,
        files: Vec::new(),
    })
}

/// Renders the per-iteration filter trace (`--profile true`): with
/// convergence-driven filtering the number of rows is the number of
/// iterations actually run, and `cleared`/`dirty` show how much work each
/// refine launch really did.
fn profile_table(out: &mut String, iterations: &[sigmo_core::IterationStats]) {
    writeln!(out, "filter profile ({} iterations run):", iterations.len()).unwrap();
    writeln!(
        out,
        "{:>4}\t{:>10}\t{:>10}\t{:>10}",
        "iter", "candidates", "cleared", "dirty"
    )
    .unwrap();
    for it in iterations {
        writeln!(
            out,
            "{:>4}\t{:>10}\t{:>10}\t{:>10}",
            it.iteration, it.candidates.total, it.cleared_bits, it.dirty_nodes
        )
        .unwrap();
    }
}

/// One line of per-pair join decision tallies (`--profile true`): which
/// variant and matching order the engine ran each surviving pair with.
/// Fixed strategies show all pairs in one bucket per axis; adaptive runs
/// show the cost model's split.
fn strategy_line(out: &mut String, s: &sigmo_core::StrategyCounts) {
    writeln!(
        out,
        "join decisions: {} pairs — variant dfs {} / bfs {}, \
         order max-degree {} / min-candidates {}",
        s.total_pairs(),
        s.dfs_pairs,
        s.bfs_pairs,
        s.max_degree_pairs,
        s.min_candidates_pairs
    )
    .unwrap();
}

fn cmd_match(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    let queries = load_query_graphs(args.require("queries")?)?;
    let query_graphs: Vec<LabeledGraph> = queries.iter().map(|q| q.graph.clone()).collect();
    let data = load_molecules(args.require("data")?, false)?;
    let config = engine_config(args, MatchMode::FindAll)?;
    let budget = run_budget(args)?;
    let profile = args.get_parsed("profile", false, "true or false")?;
    let queue = Queue::new(DeviceProfile::host());
    let report = Engine::new(config).run_with_governor(
        &query_graphs,
        &to_graphs(&data),
        &queue,
        &Governor::new(&budget),
    );

    let mut out = String::new();
    writeln!(
        out,
        "{} embeddings across {} queries x {} molecules ({:.3}s)",
        report.total_matches,
        queries.len(),
        data.len(),
        report.timings.total().as_secs_f64()
    )
    .unwrap();
    status_line(&mut out, &report.completion);
    if profile {
        profile_table(&mut out, &report.iterations);
        strategy_line(&mut out, &report.strategy);
    }
    for &(dg, qg) in &report.matched_pair_list {
        writeln!(out, "match\t{}\t{}", queries[qg].name, data[dg].name).unwrap();
    }
    if !report.records.is_empty() {
        writeln!(out, "first {} embeddings:", report.records.len()).unwrap();
        for r in &report.records {
            writeln!(
                out,
                "embedding\t{}\t{}\t{:?}",
                queries[r.query_graph].name, data[r.data_graph].name, r.mapping
            )
            .unwrap();
        }
    }
    Ok(CommandOutput {
        stdout: out,
        files: Vec::new(),
    })
}

fn cmd_screen(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    let queries = load_query_graphs(args.require("queries")?)?;
    let query_graphs: Vec<LabeledGraph> = queries.iter().map(|q| q.graph.clone()).collect();
    let data = load_molecules(args.require("data")?, false)?;
    let config = engine_config(args, MatchMode::FindFirst)?;
    let budget = run_budget(args)?;
    let queue = Queue::new(DeviceProfile::host());
    let report = Engine::new(config).run_with_governor(
        &query_graphs,
        &to_graphs(&data),
        &queue,
        &Governor::new(&budget),
    );

    let mut hits = vec![0usize; queries.len()];
    for &(_, qg) in &report.matched_pair_list {
        hits[qg] += 1;
    }
    let mut out = String::new();
    writeln!(
        out,
        "screened {} molecules against {} patterns ({:.3}s)",
        data.len(),
        queries.len(),
        report.timings.total().as_secs_f64()
    )
    .unwrap();
    status_line(&mut out, &report.completion);
    writeln!(out, "{:<24}\thits\trate%", "pattern").unwrap();
    for (q, &h) in queries.iter().zip(&hits) {
        writeln!(
            out,
            "{:<24}\t{}\t{:.1}",
            q.name,
            h,
            100.0 * h as f64 / data.len() as f64
        )
        .unwrap();
    }
    Ok(CommandOutput {
        stdout: out,
        files: Vec::new(),
    })
}

fn cmd_generate(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    let count = args.get_parsed("count", 100usize, "an integer")?;
    let seed = args.get_parsed("seed", 0u64, "an integer")?;
    let min_heavy = args.get_parsed("min-heavy", 8usize, "an integer")?;
    let max_heavy = args.get_parsed("max-heavy", 48usize, "an integer")?;
    let output = args.require("output")?.to_string();
    let mut gen = MoleculeGenerator::new(
        GeneratorConfig {
            min_heavy_atoms: min_heavy,
            max_heavy_atoms: max_heavy.max(min_heavy),
            ..Default::default()
        },
        seed,
    );
    let mols: Vec<NamedMolecule> = gen
        .generate_batch(count)
        .into_iter()
        .enumerate()
        .map(|(i, molecule)| NamedMolecule {
            name: format!("gen-{seed}-{i}"),
            molecule,
        })
        .collect();
    let contents = serialize_molecules(&output, &mols)?;
    Ok(CommandOutput {
        stdout: format!("wrote {count} molecules to {output}\n"),
        files: vec![(output, contents.into_bytes())],
    })
}

/// Renders a quarantine report: one deterministic line per rejected
/// input line, in file order.
fn quarantine_report(out: &mut String, quarantined: &[sigmo_mol::QuarantinedLine]) {
    if quarantined.is_empty() {
        return;
    }
    writeln!(out, "quarantined {} lines:", quarantined.len()).unwrap();
    for q in quarantined {
        writeln!(out, "  line {}: {} ({})", q.line, q.text, q.error).unwrap();
    }
}

/// `index build`: digests every molecule in `--data` once (under the
/// default engine schema, canonical-deduplicated exactly as the server
/// interns them) and persists the screening index to `--output`.
///
/// `--smi <file>` is the bulk-ingest alternative to `--data`: lines parse
/// in parallel and malformed records are quarantined (reported, never
/// fatal) instead of aborting the whole build.
fn cmd_index_build(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    let output = args.require("output")?.to_string();
    let radius = args.get_parsed("radius", IndexConfig::default().radius, "an integer ≥ 0")?;
    let schema = EngineConfig::default().schema;
    let mut store = MolStore::with_screen_index(IndexConfig { radius }, &schema);
    let mut out = String::new();
    let total = match args.get("smi") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(IoError::Fs(e)))?;
            let ingest = sigmo_mol::ingest_smi(&text, false);
            for (_, mol) in &ingest.molecules {
                store.intern(&mol.to_labeled_graph());
            }
            quarantine_report(&mut out, &ingest.quarantined);
            ingest.molecules.len()
        }
        None => {
            let data = load_molecules(args.require("data")?, false)?;
            for m in &data {
                store.intern(&m.molecule.to_labeled_graph());
            }
            data.len()
        }
    };
    let bytes = store.freeze_index().map_err(CliError::Index)?;
    let stats = store.screen_index().expect("index maintained").stats();
    writeln!(
        out,
        "indexed {total} molecules ({} classes) at radius {radius}: {output} ({} bytes)",
        stats.live,
        bytes.len()
    )
    .unwrap();
    Ok(CommandOutput {
        stdout: out,
        files: vec![(output, bytes)],
    })
}

/// `index stat`: validates a persisted index (magic, version, checksums)
/// and prints its header and section statistics.
fn cmd_index_stat(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    let path = args.require("index")?;
    let bytes = std::fs::read(path).map_err(IoError::Fs)?;
    let file_err = |e: sigmo_serve::IndexFileError| CliError::Index(format!("{path}: {e}"));
    let frozen = FrozenIndex::open(bytes).map_err(file_err)?;
    let stat = frozen.stat().map_err(file_err)?;
    let mut out = String::new();
    writeln!(out, "index: {path}").unwrap();
    writeln!(out, "format version: {}", stat.version).unwrap();
    writeln!(out, "digest radius: {}", stat.radius).unwrap();
    writeln!(
        out,
        "molecules: {} live / {} slots",
        stat.live, stat.molecules
    )
    .unwrap();
    writeln!(out, "digest entries: {}", stat.digest_entries).unwrap();
    writeln!(
        out,
        "postings: {} ids across {} non-empty label lists",
        stat.posting_entries, stat.label_postings
    )
    .unwrap();
    writeln!(
        out,
        "bytes: {} total ({} stored graphs)",
        stat.file_bytes, stat.graph_bytes
    )
    .unwrap();
    Ok(CommandOutput {
        stdout: out,
        files: Vec::new(),
    })
}

fn cmd_info(args: &ParsedArgs) -> Result<CommandOutput, CliError> {
    let data = load_molecules(args.require("data")?, false)?;
    let graphs = to_graphs(&data);
    let atoms: usize = graphs.iter().map(|g| g.num_nodes()).sum();
    let bonds: usize = graphs.iter().map(|g| g.num_edges()).sum();
    let max_atoms = graphs.iter().map(|g| g.num_nodes()).max().unwrap_or(0);
    let rings: usize = data
        .iter()
        .map(|m| descriptors(&m.molecule).ring_count)
        .sum();
    let lipinski = data
        .iter()
        .filter(|m| descriptors(&m.molecule).lipinski_ok())
        .count();
    let mut out = String::new();
    writeln!(out, "molecules: {}", data.len()).unwrap();
    writeln!(out, "atoms: {atoms} (largest molecule: {max_atoms})").unwrap();
    writeln!(out, "bonds: {bonds}").unwrap();
    writeln!(
        out,
        "avg degree: {:.2}",
        2.0 * bonds as f64 / atoms.max(1) as f64
    )
    .unwrap();
    writeln!(out, "rings: {rings}").unwrap();
    writeln!(
        out,
        "lipinski-compliant: {lipinski} ({:.1}%)",
        100.0 * lipinski as f64 / data.len() as f64
    )
    .unwrap();
    Ok(CommandOutput {
        stdout: out,
        files: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn write_temp(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("sigmo-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn match_command_end_to_end() {
        let q = write_temp("q1.smi", "C=O carbonyl\n");
        let d = write_temp("d1.smi", "CC(=O)O acid\nCCO ethanol\n");
        let args = parse_args(&strs(&["match", "--queries", &q, "--data", &d])).unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("1 embeddings"), "{}", out.stdout);
        assert!(out.stdout.contains("match\tcarbonyl\tacid"));
        assert!(!out.stdout.contains("ethanol"));
    }

    #[test]
    fn match_command_with_show_collects_embeddings() {
        let q = write_temp("q2.smi", "C=O carbonyl\n");
        let d = write_temp("d2.smi", "CC(=O)C acetone\n");
        let args = parse_args(&strs(&[
            "match",
            "--queries",
            &q,
            "--data",
            &d,
            "--show",
            "5",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("embedding\tcarbonyl\tacetone"));
    }

    #[test]
    fn screen_command_reports_rates() {
        let q = write_temp("q3.smi", "CO hydroxyl\nC#N nitrile\n");
        let d = write_temp("d3.smi", "CCO a\nCCCO b\nCC c\n");
        let args = parse_args(&strs(&["screen", "--queries", &q, "--data", &d])).unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("hydroxyl"), "{}", out.stdout);
        assert!(out.stdout.contains("66.7"), "{}", out.stdout);
        assert!(out.stdout.contains("nitrile"));
    }

    #[test]
    fn generate_command_produces_parseable_output() {
        let args = parse_args(&strs(&[
            "generate", "--count", "5", "--seed", "9", "--output", "lib.smi",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert_eq!(out.files.len(), 1);
        let (_, contents) = &out.files[0];
        let text = std::str::from_utf8(contents).unwrap();
        let back = crate::io::parse_molecules("lib.smi", text, false).unwrap();
        assert_eq!(back.len(), 5);
    }

    #[test]
    fn info_command_statistics() {
        let d = write_temp("d4.smi", "c1ccccc1 benzene\nCCO ethanol\n");
        let args = parse_args(&strs(&["info", "--data", &d])).unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("molecules: 2"));
        assert!(out.stdout.contains("rings: 1"));
        assert!(out.stdout.contains("lipinski-compliant: 2"));
    }

    #[test]
    fn induced_flag_flows_through() {
        // Path query in benzene ring: monomorphism matches, induced-only
        // matching differs for triangle cases; here just assert the flag
        // parses and the command runs.
        let q = write_temp("q5.smi", "CCC propyl\n");
        let d = write_temp("d5.smi", "CCCC butane\n");
        let args = parse_args(&strs(&[
            "match",
            "--queries",
            &q,
            "--data",
            &d,
            "--induced",
            "true",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("embeddings"));
    }

    #[test]
    fn profile_flag_renders_iteration_table() {
        let q = write_temp("qp.smi", "C=O carbonyl\n");
        let d = write_temp("dp.smi", "CC(=O)O acid\nCCO ethanol\n");
        let args = parse_args(&strs(&[
            "match",
            "--queries",
            &q,
            "--data",
            &d,
            "--profile",
            "true",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("filter profile"), "{}", out.stdout);
        assert!(out.stdout.contains("candidates"), "{}", out.stdout);
        assert!(out.stdout.contains("cleared"), "{}", out.stdout);
        assert!(out.stdout.contains("dirty"), "{}", out.stdout);
        // The default incremental engine converges fast on tiny queries:
        // the table rows are the iterations actually run, not the
        // configured six.
        let rows = out
            .stdout
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric) && l.contains('\t'))
            .count();
        assert!(rows >= 2, "{}", out.stdout);
        // Without the flag, no table.
        let plain = parse_args(&strs(&["match", "--queries", &q, "--data", &d])).unwrap();
        let out2 = run_command(&plain).unwrap();
        assert!(!out2.stdout.contains("filter profile"));
    }

    #[test]
    fn join_strategy_flag_selects_and_profiles_decisions() {
        let q = write_temp("qs.smi", "C=O carbonyl\n");
        let d = write_temp("ds.smi", "CC(=O)O acid\nCC(=O)C acetone\n");
        let run = |strategy: &str| {
            let args = parse_args(&strs(&[
                "match",
                "--queries",
                &q,
                "--data",
                &d,
                "--join-strategy",
                strategy,
                "--profile",
                "true",
            ]))
            .unwrap();
            run_command(&args).unwrap().stdout
        };
        let dfs = run("dfs");
        let bfs = run("bfs");
        let adaptive = run("adaptive");
        for out in [&dfs, &bfs, &adaptive] {
            assert!(out.contains("2 embeddings"), "{out}");
            assert!(out.contains("join decisions:"), "{out}");
        }
        assert!(dfs.contains("bfs 0"), "{dfs}");
        assert!(bfs.contains("dfs 0"), "{bfs}");

        let bad = parse_args(&strs(&[
            "match",
            "--queries",
            &q,
            "--data",
            &d,
            "--join-strategy",
            "quantum",
        ]))
        .unwrap();
        assert!(matches!(run_command(&bad), Err(CliError::Args(_))));
    }

    #[test]
    fn unbudgeted_match_reports_complete_status() {
        let q = write_temp("q6.smi", "C=O carbonyl\n");
        let d = write_temp("d6.smi", "CC(=O)O acid\n");
        let args = parse_args(&strs(&["match", "--queries", &q, "--data", &d])).unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("status: complete"), "{}", out.stdout);
        assert!(!out.stdout.contains("truncated"));
    }

    #[test]
    fn step_budget_truncates_with_status_line() {
        // A 1-step join budget cannot finish any real workload; the
        // command must still succeed and label the partial result. Step
        // budgets (not deadlines) keep this test timing-independent.
        let q = write_temp("q7.smi", "CCO ethanolish\n");
        let d = write_temp("d7.smi", "CCCO a\nCCCCO b\nCCO c\n");
        let args = parse_args(&strs(&[
            "match",
            "--queries",
            &q,
            "--data",
            &d,
            "--step-budget",
            "1",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(
            out.stdout.contains("status: truncated (step-budget)"),
            "{}",
            out.stdout
        );
        assert!(out.stdout.contains("sound partial result"));
    }

    #[test]
    fn screen_accepts_budget_flags() {
        let q = write_temp("q8.smi", "CO hydroxyl\n");
        let d = write_temp("d8.smi", "CCO a\nCC b\n");
        let args = parse_args(&strs(&[
            "screen",
            "--queries",
            &q,
            "--data",
            &d,
            "--max-embeddings",
            "1000000",
            "--deadline-ms",
            "60000",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        // Generous budgets must not change a small run's outcome.
        assert!(out.stdout.contains("status: complete"), "{}", out.stdout);
        assert!(out.stdout.contains("hydroxyl"));
    }

    #[test]
    fn bad_budget_values_are_arg_errors() {
        let q = write_temp("q9.smi", "CO hydroxyl\n");
        let d = write_temp("d9.smi", "CCO a\n");
        let args = parse_args(&strs(&[
            "match",
            "--queries",
            &q,
            "--data",
            &d,
            "--deadline-ms",
            "soon",
        ]))
        .unwrap();
        assert!(matches!(run_command(&args), Err(CliError::Args(_))));
    }

    #[test]
    fn serve_command_runs_a_deterministic_soak() {
        let args = parse_args(&strs(&["serve", "--requests", "12", "--seed", "5"])).unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("served 12 requests"), "{}", out.stdout);
        assert!(out.stdout.contains("cache hits/misses"), "{}", out.stdout);
        // Same seed, same transcript.
        let out2 = run_command(&args).unwrap();
        assert_eq!(out.stdout, out2.stdout);
        // Different seed, different workload (ticks or matches move).
        let other = parse_args(&strs(&["serve", "--requests", "12", "--seed", "6"])).unwrap();
        let out3 = run_command(&other).unwrap();
        assert_ne!(out.stdout, out3.stdout);
    }

    #[test]
    fn replay_command_verifies_against_the_oracle() {
        let args = parse_args(&strs(&[
            "replay",
            "--requests",
            "8",
            "--seed",
            "11",
            "--step-budget",
            "200",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(
            out.stdout
                .contains("replay: 8/8 requests bit-identical to the unbatched oracle"),
            "{}",
            out.stdout
        );
        assert!(!out.stdout.contains("MISMATCH"), "{}", out.stdout);
    }

    #[test]
    fn serve_no_cache_flag_disables_result_reuse() {
        let args = parse_args(&strs(&[
            "serve",
            "--requests",
            "10",
            "--seed",
            "3",
            "--cache",
            "false",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("result 0/0"), "{}", out.stdout);
    }

    #[test]
    fn serve_sharded_soak_is_deterministic_and_summarized() {
        let args = parse_args(&strs(&[
            "serve",
            "--requests",
            "16",
            "--seed",
            "5",
            "--shards",
            "4",
            "--replicas",
            "2",
            "--pool-skew",
            "3",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("served 16 requests"), "{}", out.stdout);
        assert!(
            out.stdout.contains("shards: 4 —"),
            "shard summary missing: {}",
            out.stdout
        );
        assert!(out.stdout.contains("hot shard"), "{}", out.stdout);
        let out2 = run_command(&args).unwrap();
        assert_eq!(out.stdout, out2.stdout, "sharded soak must be seeded");
    }

    #[test]
    fn replay_sharded_under_faults_matches_the_oracle() {
        // One crashed rank, one straggler, transient blips: replicas must
        // absorb every fault, leaving all requests bit-identical to the
        // unsharded fault-free oracle — and some dispatch must retry.
        let args = parse_args(&strs(&[
            "replay",
            "--requests",
            "10",
            "--seed",
            "11",
            "--shards",
            "4",
            "--replicas",
            "2",
            "--crashes",
            "1",
            "--stragglers",
            "1",
            "--transient-pct",
            "15",
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(
            out.stdout
                .contains("replay: 10/10 requests bit-identical to the unbatched oracle"),
            "{}",
            out.stdout
        );
        assert!(!out.stdout.contains("MISMATCH"), "{}", out.stdout);
        assert!(!out.stdout.contains("degraded requests:"), "{}", out.stdout);
        assert!(out.stdout.contains("0 degraded slices"), "{}", out.stdout);
    }

    #[test]
    fn shard_flag_validation() {
        // replicas must fit in 1..=shards.
        let bad = parse_args(&strs(&[
            "serve",
            "--requests",
            "4",
            "--shards",
            "2",
            "--replicas",
            "3",
        ]))
        .unwrap();
        assert!(matches!(run_command(&bad), Err(CliError::Args(_))));
        // --shards 0 is the unsharded path: no shard summary.
        let off = parse_args(&strs(&["serve", "--requests", "4", "--shards", "0"])).unwrap();
        let out = run_command(&off).unwrap();
        assert!(!out.stdout.contains("shards:"), "{}", out.stdout);
    }

    #[test]
    fn missing_file_is_reported() {
        let args = parse_args(&strs(&["info", "--data", "/nonexistent/path/x.smi"])).unwrap();
        assert!(matches!(run_command(&args), Err(CliError::Io(_))));
    }

    #[test]
    fn index_build_and_stat_round_trip() {
        let d = write_temp("ib.smi", "CCO ethanol\nCC(=O)O acid\nc1ccccc1 benzene\n");
        let out_path = std::env::temp_dir()
            .join("sigmo-cli-tests")
            .join("ib.sigmoidx")
            .to_string_lossy()
            .into_owned();
        let args = parse_args(&strs(&[
            "index", "build", "--data", &d, "--output", &out_path,
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("indexed 3 molecules"), "{}", out.stdout);
        assert_eq!(out.files.len(), 1);
        std::fs::write(&out.files[0].0, &out.files[0].1).unwrap();
        let args = parse_args(&strs(&["index", "stat", "--index", &out_path])).unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("format version: 2"), "{}", out.stdout);
        assert!(
            out.stdout.contains("molecules: 3 live / 3 slots"),
            "{}",
            out.stdout
        );
    }

    #[test]
    fn index_build_smi_quarantines_bad_lines() {
        let d = write_temp(
            "ibq.smi",
            "CCO ethanol\nnot(a(molecule garbage\nCC(=O)O acid\nXx bogus\nc1ccccc1 benzene\n",
        );
        let out_path = std::env::temp_dir()
            .join("sigmo-cli-tests")
            .join("ibq.sigmoidx")
            .to_string_lossy()
            .into_owned();
        let args = parse_args(&strs(&[
            "index", "build", "--smi", &d, "--output", &out_path,
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(out.stdout.contains("quarantined 2 lines"), "{}", out.stdout);
        assert!(out.stdout.contains("line 2:"), "{}", out.stdout);
        assert!(out.stdout.contains("line 4:"), "{}", out.stdout);
        assert!(out.stdout.contains("indexed 3 molecules"), "{}", out.stdout);
        // Quarantine never aborts: the index is still produced.
        assert_eq!(out.files.len(), 1);
    }

    #[test]
    fn serve_corpus_flag_preloads_and_reports() {
        let d = write_temp("corpus.smi", "CCO a\nbroken[ b\nCC(=O)O c\nCCO dup\n");
        let args = parse_args(&strs(&[
            "serve",
            "--requests",
            "5",
            "--seed",
            "3",
            "--corpus",
            &d,
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        // 3 valid lines, one a duplicate class of another.
        assert!(
            out.stdout.contains("corpus: 3 molecules (2 classes)"),
            "{}",
            out.stdout
        );
        assert!(out.stdout.contains("quarantined 1 lines"), "{}", out.stdout);
        assert!(out.stdout.contains("line 2:"), "{}", out.stdout);
    }

    #[test]
    fn index_stat_rejects_corrupt_files() {
        let path = write_temp("bad.sigmoidx", "not an index file at all");
        let args = parse_args(&strs(&["index", "stat", "--index", &path])).unwrap();
        assert!(matches!(run_command(&args), Err(CliError::Index(_))));
    }

    #[test]
    fn serve_index_flags_toggle_screening_without_changing_results() {
        let on = parse_args(&strs(&["serve", "--requests", "10", "--seed", "5"])).unwrap();
        let out_on = run_command(&on).unwrap();
        assert!(
            out_on.stdout.contains("index screening:"),
            "{}",
            out_on.stdout
        );
        let off = parse_args(&strs(&[
            "serve",
            "--requests",
            "10",
            "--seed",
            "5",
            "--no-index",
            "true",
        ]))
        .unwrap();
        let out_off = run_command(&off).unwrap();
        assert!(
            !out_off.stdout.contains("index screening:"),
            "{}",
            out_off.stdout
        );
        // Screening is invisible to results: apart from its own summary
        // line, the transcripts are bit-identical.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("index screening:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&out_on.stdout), strip(&out_off.stdout));
    }

    #[test]
    fn replay_with_preloaded_index_matches_the_oracle() {
        let d = write_temp("pre.smi", "CCO a\nCCN b\nCC(=O)O c\n");
        let idx_path = std::env::temp_dir()
            .join("sigmo-cli-tests")
            .join("pre.sigmoidx")
            .to_string_lossy()
            .into_owned();
        let build = parse_args(&strs(&[
            "index", "build", "--data", &d, "--output", &idx_path,
        ]))
        .unwrap();
        let out = run_command(&build).unwrap();
        std::fs::write(&out.files[0].0, &out.files[0].1).unwrap();
        let args = parse_args(&strs(&[
            "replay",
            "--requests",
            "6",
            "--seed",
            "3",
            "--index",
            &idx_path,
        ]))
        .unwrap();
        let out = run_command(&args).unwrap();
        assert!(
            out.stdout
                .contains("replay: 6/6 requests bit-identical to the unbatched oracle"),
            "{}",
            out.stdout
        );
    }
}
