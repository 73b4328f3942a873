//! Deterministic load simulation: a seeded workload generator, a virtual
//! clock, and an unbatched oracle.
//!
//! There is no async runtime here on purpose. Wall-clock scheduling would
//! make soak runs unreproducible; instead the simulator drives the
//! [`Server`] with a sequential event loop over integer ticks. Arrivals
//! are drawn from a seeded splitmix64 stream, each [`Server::step`] costs
//! a deterministic number of service ticks (a constant dispatch overhead
//! plus one tick per executed molecule), and requests arriving while the
//! queue is full are rejected — the backpressure path. Same seed, same
//! trace, same per-request reports, at any `RAYON_NUM_THREADS`.
//!
//! The oracle replays a single request unbatched and uncached through a
//! fresh [`StreamRunner`] (which bottoms out in `Engine::run_planned`)
//! under the same governor budget. The soak tests assert the served
//! reports are bit-identical to the oracle's — batching and caching must
//! be invisible to results.

use crate::server::{MatchRequest, RejectReason, RequestReport, ServeConfig, Server};
use sigmo_cluster::splitmix64;
use sigmo_core::{MatchMode, StreamRunner};
use sigmo_device::Queue;
use sigmo_graph::LabeledGraph;
use sigmo_mol::{functional_groups, MoleculeGenerator};

/// Workload shape for [`generate_workload`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of requests in the trace.
    pub requests: usize,
    /// Seed for arrivals, sampling, and mode choice.
    pub seed: u64,
    /// Size of the shared molecule pool requests sample from (re-use
    /// across requests is what the molecule/result caches exploit).
    pub mol_pool: usize,
    /// Number of distinct query sets (plan-cache working set).
    pub query_sets: usize,
    /// Queries per set, drawn from the functional-group library.
    pub queries_per_set: usize,
    /// Molecules per request are uniform in `1..=max_request_molecules`.
    pub max_request_molecules: usize,
    /// Mean inter-arrival gap in ticks (uniform in `0..2*mean`).
    pub mean_interarrival: u64,
    /// Percentage of requests issued in Find First mode.
    pub find_first_pct: u64,
    /// Popularity skew: each molecule pick is the *min* of `1 + skew`
    /// uniform draws, biasing traffic toward low pool indices (and so
    /// toward a few hot shards). `0` is the uniform trace — exactly one
    /// draw per molecule, byte-identical to traces generated before this
    /// knob existed.
    pub pool_skew: u32,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            requests: 200,
            seed: 0xc0ffee,
            mol_pool: 64,
            query_sets: 4,
            queries_per_set: 6,
            max_request_molecules: 12,
            mean_interarrival: 4,
            find_first_pct: 25,
            pool_skew: 0,
        }
    }
}

/// One trace entry: an arrival tick and the request to submit.
#[derive(Debug, Clone)]
pub struct TimedRequest {
    /// Virtual-clock tick at which the request arrives.
    pub arrival: u64,
    /// The request itself.
    pub request: MatchRequest,
}

/// Generates a seeded request trace. Molecules are exact clones from a
/// shared pool — so the canonical store dedups them — and query sets are
/// rotating windows over the functional-group library, so a handful of
/// plans serve the whole trace.
pub fn generate_workload(cfg: &WorkloadConfig) -> Vec<TimedRequest> {
    assert!(cfg.requests > 0 && cfg.mol_pool > 0 && cfg.query_sets > 0);
    assert!(cfg.queries_per_set > 0 && cfg.max_request_molecules > 0);
    let pool: Vec<LabeledGraph> = MoleculeGenerator::with_seed(cfg.seed)
        .generate_batch(cfg.mol_pool)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let library: Vec<LabeledGraph> = functional_groups().into_iter().map(|q| q.graph).collect();
    let sets: Vec<Vec<LabeledGraph>> = (0..cfg.query_sets)
        .map(|s| {
            (0..cfg.queries_per_set)
                .map(|k| library[(s * 3 + k) % library.len()].clone())
                .collect()
        })
        .collect();
    let mut state = cfg.seed ^ 0x5157_4d0a_d5f0_11ed;
    let mut clock = 0u64;
    let mut trace = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        clock += splitmix64(&mut state) % (2 * cfg.mean_interarrival.max(1));
        let set = (splitmix64(&mut state) as usize) % sets.len();
        let n_mols = 1 + (splitmix64(&mut state) as usize) % cfg.max_request_molecules;
        let molecules = (0..n_mols)
            .map(|_| {
                let mut idx = (splitmix64(&mut state) as usize) % pool.len();
                for _ in 0..cfg.pool_skew {
                    idx = idx.min((splitmix64(&mut state) as usize) % pool.len());
                }
                pool[idx].clone()
            })
            .collect();
        let mode = if splitmix64(&mut state) % 100 < cfg.find_first_pct {
            MatchMode::FindFirst
        } else {
            MatchMode::FindAll
        };
        trace.push(TimedRequest {
            arrival: clock,
            request: MatchRequest {
                queries: sets[set].clone(),
                molecules,
                mode,
            },
        });
    }
    trace
}

/// One admitted request's fate in a soak run.
#[derive(Debug, Clone)]
pub struct SoakEntry {
    /// Index into the input trace.
    pub trace_index: usize,
    /// The request id the server assigned.
    pub request_id: u64,
    /// Arrival tick (from the trace).
    pub arrival: u64,
    /// Tick at which the request completed: the end of its step
    /// (unsharded), or its last shard-slice's finish tick (sharded).
    pub completed: u64,
    /// The served report.
    pub report: RequestReport,
}

/// Aggregate result of a soak run.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Completed requests, in trace order.
    pub entries: Vec<SoakEntry>,
    /// Trace indices rejected at admission, with the reason.
    pub rejected: Vec<(usize, RejectReason)>,
    /// Tick at which the last step finished.
    pub final_tick: u64,
    /// Total server steps taken.
    pub steps: u64,
}

impl SoakReport {
    /// Completion latencies in ticks, in trace order.
    pub fn latencies(&self) -> Vec<u64> {
        self.entries
            .iter()
            .map(|e| e.completed - e.arrival)
            .collect()
    }
}

/// Drives a trace through the server on the virtual clock.
///
/// The loop is sequential: submit every arrival due at the current tick,
/// take one step (whose deterministic cost advances the clock), repeat.
/// When the server is idle the clock jumps to the next arrival. Arrivals
/// that land while the queue is full are rejected, not deferred — that is
/// the admission-control contract under sustained overload.
pub fn run_soak(server: &mut Server, trace: &[TimedRequest]) -> SoakReport {
    let mut report = SoakReport::default();
    let mut clock = 0u64;
    let mut next = 0usize; // next trace entry to submit
    let mut inflight: Vec<(usize, u64, u64)> = Vec::new(); // (trace idx, id, arrival)
    while next < trace.len() || server.pending_len() > 0 {
        if server.pending_len() == 0 && next < trace.len() {
            clock = clock.max(trace[next].arrival);
        }
        while next < trace.len() && trace[next].arrival <= clock {
            match server.submit(&trace[next].request) {
                Ok(id) => inflight.push((next, id, trace[next].arrival)),
                Err(reason) => report.rejected.push((next, reason)),
            }
            next += 1;
        }
        if server.pending_len() == 0 {
            continue;
        }
        let outcome = server.step();
        report.steps += 1;
        // Deterministic service cost, from the step itself: unsharded,
        // one dispatch tick per micro-batch group plus one tick per
        // executed molecule (every request completes at the step's end);
        // sharded, the step's makespan across rank clocks, with each
        // request completing at its own slice-finish offset.
        let step_start = clock;
        clock += outcome.service_ticks;
        for (served, offset) in outcome.reports.into_iter().zip(outcome.offsets) {
            let pos = inflight
                .iter()
                .position(|&(_, id, _)| id == served.request_id)
                .expect("served an unknown request id");
            let (trace_index, request_id, arrival) = inflight.remove(pos);
            report.entries.push(SoakEntry {
                trace_index,
                request_id,
                arrival,
                completed: step_start + offset,
                report: served,
            });
        }
    }
    assert!(inflight.is_empty(), "admitted requests must all complete");
    report.entries.sort_by_key(|e| e.trace_index);
    report.final_tick = clock;
    report
}

/// What the oracle asserts per request: totals, per-pair attribution, and
/// the truncated set, all with request-local molecule indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Total embeddings / matched pairs.
    pub total_matches: u64,
    /// `(request-local molecule index, query index, matches)`.
    pub pair_counts: Vec<(usize, usize, u64)>,
    /// Request-local indices of truncated molecules.
    pub truncated_molecules: Vec<usize>,
}

/// Replays one request unbatched and uncached: a fresh [`StreamRunner`]
/// (fresh plan, no sharing with any other request) under the same memory
/// and governor budgets the server uses.
pub fn oracle_replay(config: &ServeConfig, request: &MatchRequest, queue: &Queue) -> OracleOutcome {
    let mut cfg = config.engine.clone();
    cfg.mode = request.mode;
    let runner = StreamRunner::new(cfg, config.memory_budget).with_budget(config.budget.clone());
    let streamed = runner.run(&request.queries, request.molecules.iter().cloned(), queue);
    let mut truncated: Vec<usize> = streamed.truncated_graphs.clone();
    for q in &streamed.quarantined {
        truncated.push(q.index);
    }
    truncated.sort_unstable();
    truncated.dedup();
    OracleOutcome {
        total_matches: streamed.total_matches,
        pair_counts: streamed.pair_counts.clone(),
        truncated_molecules: truncated,
    }
}

/// The served report, projected onto the oracle's comparison shape.
pub fn served_outcome(report: &RequestReport) -> OracleOutcome {
    OracleOutcome {
        total_matches: report.total_matches,
        pair_counts: report.pair_counts.clone(),
        truncated_molecules: report.truncated_molecules.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_device::DeviceProfile;

    fn small_workload() -> Vec<TimedRequest> {
        generate_workload(&WorkloadConfig {
            requests: 40,
            mol_pool: 16,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn soak_matches_unbatched_oracle() {
        let trace = small_workload();
        let config = ServeConfig::default();
        let mut server = Server::new(config.clone(), Queue::new(DeviceProfile::host()));
        let soak = run_soak(&mut server, &trace);
        assert!(soak.rejected.is_empty(), "default queue must admit all");
        assert_eq!(soak.entries.len(), trace.len());
        let queue = Queue::new(DeviceProfile::host());
        for entry in &soak.entries {
            let oracle = oracle_replay(&config, &trace[entry.trace_index].request, &queue);
            assert_eq!(
                served_outcome(&entry.report),
                oracle,
                "request {} diverged from the oracle",
                entry.trace_index
            );
        }
        let stats = server.stats();
        assert!(stats.mol_hits > 0, "pool reuse must hit the mol store");
        assert!(
            stats.plan_hits > 0,
            "query-set reuse must hit the plan cache"
        );
        assert!(
            stats.result_hits > 0,
            "repeat molecules must hit the result cache"
        );
    }

    #[test]
    fn predicated_twin_query_sets_each_match_the_oracle() {
        // `[C;R]N` and `[C;R0]N` share a canonical code; served through
        // one plan, the second set would get the first set's answers.
        use sigmo_mol::{parse_smarts, parse_smiles};
        let molecules: Vec<LabeledGraph> = ["C1CCNCC1", "CCN", "CCNC1CCCCC1"]
            .iter()
            .map(|s| parse_smiles(s).unwrap().to_labeled_graph())
            .collect();
        let request = |smarts: &str| MatchRequest {
            queries: vec![parse_smarts(smarts).unwrap()],
            molecules: molecules.clone(),
            mode: MatchMode::FindAll,
        };
        let twins = [request("[C;R]N"), request("[C;R0]N")];
        let config = ServeConfig::default();
        let queue = Queue::new(DeviceProfile::host());
        let oracles: Vec<OracleOutcome> = twins
            .iter()
            .map(|r| oracle_replay(&config, r, &queue))
            .collect();
        assert_ne!(oracles[0], oracles[1], "the twins must differ");
        let mut server = Server::new(config, Queue::new(DeviceProfile::host()));
        // One step per request, then both in one step.
        let mut served = Vec::new();
        for r in &twins {
            server.submit(r).unwrap();
            served.extend(server.step().reports);
        }
        for r in &twins {
            server.submit(r).unwrap();
        }
        served.extend(server.step().reports);
        for (i, report) in served.iter().enumerate() {
            assert_eq!(served_outcome(report), oracles[i % 2], "report {i}");
        }
        assert_eq!(server.stats().plan_hits, 2);
    }

    #[test]
    fn soak_is_reproducible_and_rejects_under_overload() {
        let trace = generate_workload(&WorkloadConfig {
            requests: 80,
            mean_interarrival: 0, // everything arrives at once
            ..WorkloadConfig::default()
        });
        let config = ServeConfig {
            queue_capacity: 8,
            max_batch_requests: 4,
            ..ServeConfig::default()
        };
        let run = |cfg: &ServeConfig| {
            let mut server = Server::new(cfg.clone(), Queue::new(DeviceProfile::host()));
            run_soak(&mut server, &trace)
        };
        let a = run(&config);
        let b = run(&config);
        assert!(!a.rejected.is_empty(), "burst must overflow the queue");
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.final_tick, b.final_tick);
        assert_eq!(a.entries.len(), b.entries.len());
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.completed, eb.completed);
            assert_eq!(ea.report, eb.report);
        }
    }

    #[test]
    fn no_cache_ablation_matches_cached_results() {
        let trace = small_workload();
        let cached_cfg = ServeConfig::default();
        let ablated_cfg = ServeConfig {
            caching: false,
            ..ServeConfig::default()
        };
        let mut cached = Server::new(cached_cfg, Queue::new(DeviceProfile::host()));
        let mut ablated = Server::new(ablated_cfg, Queue::new(DeviceProfile::host()));
        let a = run_soak(&mut cached, &trace);
        let b = run_soak(&mut ablated, &trace);
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(served_outcome(&ea.report), served_outcome(&eb.report));
        }
        let (sa, sb) = (cached.stats(), ablated.stats());
        assert_eq!(sb.result_hits, 0, "ablation must not consult the cache");
        assert!(
            sa.executed_molecules < sb.executed_molecules,
            "caching must shrink the executed set ({} vs {})",
            sa.executed_molecules,
            sb.executed_molecules
        );
    }

    #[test]
    fn admission_rejects_malformed_and_oversized() {
        let mut server = Server::new(
            ServeConfig {
                max_request_molecules: 2,
                ..ServeConfig::default()
            },
            Queue::new(DeviceProfile::host()),
        );
        let mol = MoleculeGenerator::with_seed(1)
            .generate()
            .to_labeled_graph();
        let query = functional_groups()[0].graph.clone();
        let empty = MatchRequest {
            queries: vec![],
            molecules: vec![mol.clone()],
            mode: MatchMode::FindAll,
        };
        assert_eq!(server.submit(&empty), Err(RejectReason::Malformed));
        let oversized = MatchRequest {
            queries: vec![query.clone()],
            molecules: vec![mol.clone(), mol.clone(), mol.clone()],
            mode: MatchMode::FindAll,
        };
        assert_eq!(server.submit(&oversized), Err(RejectReason::Oversized));
        let ok = MatchRequest {
            queries: vec![query],
            molecules: vec![mol],
            mode: MatchMode::FindAll,
        };
        assert!(server.submit(&ok).is_ok());
        assert_eq!(server.stats().rejected, 2);
    }
}
