//! Kept per-molecule facts in the serving layer (DESIGN.md §16): a
//! molecule's facts are built at most three times however often it runs
//! (the intern digest, its first execution, and the build the store keeps
//! from its second execution on), and serving on kept facts stays
//! bit-identical to the unbatched oracle — sharded or not, index on or
//! off, at one and two threads.
//!
//! Kept alone in this file: it mutates `RAYON_NUM_THREADS`, and each
//! integration-test file runs as its own process, so the env var cannot
//! race another test. The tests share [`ENV_LOCK`] because the default
//! harness runs them on separate threads.

use std::sync::Mutex;

use sigmo::core::MatchMode;
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::LabeledGraph;
use sigmo::mol::MoleculeGenerator;
use sigmo::serve::{
    generate_workload, oracle_replay, served_outcome, IndexConfig, MatchRequest, ServeConfig,
    Server, ShardConfig, WorkloadConfig,
};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn queue() -> Queue {
    Queue::new(DeviceProfile::host())
}

/// A corpus molecule executed 60 times — each step bumps the epoch, so
/// the result cache never answers it — builds its facts at most 3 times.
#[test]
fn a_hot_molecule_builds_its_facts_at_most_three_times() {
    let _guard = ENV_LOCK.lock().unwrap();
    let hot: LabeledGraph =
        MoleculeGenerator::with_seed(41).generate_batch(1)[0].to_labeled_graph();
    for (index, expected) in [(Some(IndexConfig::default()), 3), (None, 2)] {
        let mut server = Server::new(
            ServeConfig {
                index,
                ..ServeConfig::default()
            },
            queue(),
        );
        let request = MatchRequest {
            queries: vec![hot.clone()],
            molecules: vec![hot.clone()],
            mode: MatchMode::FindFirst,
        };
        for step in 0..60 {
            server.submit(&request).unwrap();
            let out = server.step();
            assert_eq!(out.reports[0].total_matches, 1, "step {step}");
            assert_eq!(out.executed_molecules, 1, "step {step}");
            server.repartition();
        }
        assert_eq!(server.stats().result_hits, 0);
        assert_eq!(server.facts_builds(), expected, "index {index:?}");
    }
}

/// Drives `trace` in windows of 4 requests, bumping the epoch every other
/// step so repeat molecules re-execute on their kept facts, and checks
/// every report against the unbatched oracle.
fn serve_against_oracle(config: &ServeConfig, label: &str) {
    let trace = generate_workload(&WorkloadConfig {
        requests: 64,
        seed: 0xfac7,
        mol_pool: 20,
        query_sets: 3,
        max_request_molecules: 5,
        ..WorkloadConfig::default()
    });
    let mut server = Server::new(config.clone(), queue());
    let oracle_queue = queue();
    let mut executed = 0u64;
    for (w, window) in trace.chunks(4).enumerate() {
        for t in window {
            server.submit(&t.request).unwrap();
        }
        let out = server.step();
        executed += out.executed_molecules as u64;
        for (t, report) in window.iter().zip(&out.reports) {
            assert_eq!(
                served_outcome(report),
                oracle_replay(config, &t.request, &oracle_queue),
                "{label}: window {w} diverged from the oracle"
            );
        }
        if w % 2 == 1 {
            server.repartition();
        }
    }
    // Kept facts carried load: executions outnumber builds.
    assert!(
        server.facts_builds() < executed,
        "{label}: {} builds for {executed} executions",
        server.facts_builds()
    );
}

#[test]
fn kept_facts_serve_bit_identically_to_the_oracle() {
    let _guard = ENV_LOCK.lock().unwrap();
    for threads in ["1", "2"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for sharding in [None, Some(ShardConfig::new(3, 2))] {
            for index in [Some(IndexConfig::default()), None] {
                let config = ServeConfig {
                    sharding: sharding.clone(),
                    index,
                    ..ServeConfig::default()
                };
                let label = format!(
                    "threads {threads}, sharded {}, index {}",
                    sharding.is_some(),
                    index.is_some()
                );
                serve_against_oracle(&config, &label);
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
