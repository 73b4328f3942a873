//! Property-based tests over randomly generated molecular workloads.

use proptest::prelude::*;
use sigmo::baselines::Matcher;
use sigmo::baselines::{brute_force_count, UllmannMatcher, Vf3Matcher};
use sigmo::core::schema::BitGroup;
use sigmo::core::{
    filter, naive, BatchFacts, CandidateBitmap, CandidateStats, Engine, EngineConfig, Governor,
    JoinStrategy, LabelSchema, MatchMode, QueryPlan, RunBudget, Signature, WordWidth,
};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::{reference_min_ring_sizes, CsrGo, GraphError, LabeledGraph, WILDCARD_LABEL};
use sigmo::mol::{parse_smiles, write_smiles, MoleculeGenerator, QueryExtractor};

fn queue() -> Queue {
    Queue::new(DeviceProfile::host())
}

/// A small random labeled graph strategy: up to `n` nodes, random edges,
/// labels from the organic set.
fn arb_graph(max_nodes: usize) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_nodes, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node(rng.gen_range(0..6u8));
        }
        // Random spanning tree keeps it connected, then extra edges.
        for v in 1..n as u32 {
            let u = rng.gen_range(0..v);
            let _ = g.add_edge(u, v, rng.gen_range(1..=3u8));
        }
        for _ in 0..n / 2 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a != b {
                let _ = g.add_edge(a, b, rng.gen_range(1..=3u8));
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's match count equals brute force on arbitrary small
    /// labeled graphs (not just molecule-shaped ones).
    #[test]
    fn engine_count_equals_brute_force(q in arb_graph(5), d in arb_graph(9)) {
        let expected = brute_force_count(&q, &d);
        let got = Engine::new(EngineConfig::with_iterations(3))
            .run(&[q], &[d], &queue())
            .total_matches;
        prop_assert_eq!(got, expected);
    }

    /// VF3-style and Ullmann agree with brute force on arbitrary graphs.
    #[test]
    fn baselines_agree_with_brute_force(q in arb_graph(4), d in arb_graph(8)) {
        let expected = brute_force_count(&q, &d);
        prop_assert_eq!(Vf3Matcher.count_embeddings(&q, &d), expected);
        prop_assert_eq!(UllmannMatcher.count_embeddings(&q, &d), expected);
    }

    /// Filter soundness: every data node participating in a true embedding
    /// survives any number of refinement iterations.
    #[test]
    fn filter_never_prunes_true_candidates(q in arb_graph(4), d in arb_graph(8), iters in 1usize..5) {
        let embeddings = UllmannMatcher.enumerate(&q, &d, usize::MAX);
        let queries = CsrGo::from_graphs(std::slice::from_ref(&q));
        let data = CsrGo::from_graphs(std::slice::from_ref(&d));
        let schema = LabelSchema::organic();
        let cands = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        naive::reference_filter(&queries, &data, &schema, iters, &cands);
        for emb in &embeddings {
            for (qn, &dn) in emb.iter().enumerate() {
                prop_assert!(
                    cands.get(qn, dn as usize),
                    "iteration {} pruned true candidate q{} -> d{}", iters, qn, dn
                );
            }
        }
    }

    /// The word-parallel bitmap scans agree bit-for-bit with the per-bit
    /// oracle in `naive.rs`, for arbitrary bit patterns and sub-ranges —
    /// including empty rows and ranges that start/end exactly on 32/64-bit
    /// word boundaries (the carry/mask edge cases of the word scan).
    #[test]
    fn bitmap_scans_match_per_bit_oracle(
        cols in 1usize..200,
        bits in prop::collection::vec(any::<u16>(), 0..64),
        ranges in prop::collection::vec((any::<u16>(), any::<u16>()), 1..8),
        wide in any::<bool>(),
    ) {
        let width = if wide { WordWidth::U64 } else { WordWidth::U32 };
        let bitmap = CandidateBitmap::new(2, cols, width);
        for b in &bits {
            bitmap.set(0, *b as usize % cols);
        }
        // Row 1 stays empty: scans over it must find nothing.
        let word = width.bytes() as usize * 8;
        for (a, b) in &ranges {
            let (mut lo, mut hi) = (*a as usize % (cols + 1), *b as usize % (cols + 1));
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            // Snap some ranges onto word boundaries to force the edge
            // cases (a range ending exactly at a word seam, a range
            // covering exactly one word).
            let lo_snap = (lo / word) * word;
            let hi_snap = ((hi / word) * word).max(lo_snap);
            for (l, h) in [(lo, hi), (lo_snap, hi), (lo, hi_snap), (lo_snap, hi_snap)] {
                let l = l.min(h); // snapping hi down can undercut lo
                for row in 0..2 {
                    let got: Vec<usize> = bitmap.iter_set_in_range(row, l, h).collect();
                    let want = naive::enumerate_row(&bitmap, row, l, h);
                    prop_assert_eq!(&got, &want, "iter_set row {} range {}..{}", row, l, h);
                    prop_assert_eq!(
                        bitmap.next_set_in_range(row, l, h),
                        naive::next_set_in_range(&bitmap, row, l, h),
                        "next_set row {} range {}..{}", row, l, h
                    );
                }
            }
        }
    }

    /// Refinement depth never changes results: for every iteration count
    /// 1..=8 the engine reports the 1-iteration run's totals and matched
    /// pairs, and runs at most the configured iterations.
    #[test]
    fn refinement_depth_never_changes_results(q in arb_graph(4), d in arb_graph(8)) {
        let run = |iters: usize| {
            Engine::new(EngineConfig::with_iterations(iters))
                .run(std::slice::from_ref(&q), std::slice::from_ref(&d), &queue())
        };
        let base = run(1);
        for iters in 2..=8 {
            let r = run(iters);
            prop_assert_eq!(r.total_matches, base.total_matches, "{} iterations", iters);
            prop_assert_eq!(&r.matched_pair_list, &base.matched_pair_list, "{} iterations", iters);
            prop_assert!(r.iterations.len() <= iters, "{} iterations", iters);
        }
    }

    /// CSR-GO graph_of agrees with a linear scan for arbitrary batches.
    #[test]
    fn csrgo_graph_of_correct(sizes in prop::collection::vec(1usize..20, 1..8)) {
        let graphs: Vec<LabeledGraph> = sizes
            .iter()
            .map(|&n| LabeledGraph::with_uniform_labels(n, 1))
            .collect();
        let b = CsrGo::from_graphs(&graphs);
        for v in 0..b.num_nodes() as u32 {
            let expected = (0..b.num_graphs())
                .find(|&g| b.node_range(g).contains(&v))
                .unwrap();
            prop_assert_eq!(b.graph_of(v), expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Canonical codes are invariant under node permutation, and engines
    /// report the same match totals on permuted inputs.
    #[test]
    fn canonical_code_is_permutation_invariant(g in arb_graph(8), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        // Build the permuted copy.
        let mut inv = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        let mut h = LabeledGraph::new();
        for &old in &inv {
            h.add_node(g.label(old));
        }
        for (a, b, l) in g.edges() {
            h.add_edge(perm[a as usize], perm[b as usize], l).unwrap();
        }
        prop_assert_eq!(
            sigmo::mol::canonical_code(&g),
            sigmo::mol::canonical_code(&h)
        );
        prop_assert!(sigmo::mol::are_isomorphic(&g, &h));
    }


    /// Generated molecules round-trip through the SMILES writer/parser
    /// with formula and bond counts preserved.
    #[test]
    fn smiles_round_trip_on_generated_molecules(seed in any::<u64>()) {
        let mut gen = MoleculeGenerator::new(
            sigmo::mol::GeneratorConfig {
                min_heavy_atoms: 3,
                max_heavy_atoms: 16,
                ..Default::default()
            },
            seed,
        );
        let m = gen.generate();
        let smiles = write_smiles(&m);
        let back = parse_smiles(&smiles).map_err(|e| {
            TestCaseError::fail(format!("re-parse of {smiles:?} failed: {e}"))
        })?;
        prop_assert_eq!(back.formula(), m.formula(), "via {}", smiles);
        prop_assert_eq!(back.num_atoms(), m.num_atoms(), "via {}", smiles);
        prop_assert_eq!(back.num_bonds(), m.num_bonds(), "via {}", smiles);
    }

    /// Canonical codes are a sound cache key in the collision direction:
    /// two graphs with equal codes must be genuinely isomorphic, checked
    /// by an independent VF3-style matcher (an injective label- and
    /// edge-preserving map between equal-size, equal-edge-count graphs is
    /// an isomorphism). `are_isomorphic` itself is code-based, so it
    /// cannot serve as the referee here.
    #[test]
    fn canonical_code_has_no_false_collisions(g in arb_graph(7), h in arb_graph(7)) {
        let same_code = sigmo::mol::canonical_code(&g) == sigmo::mol::canonical_code(&h);
        let iso = g.num_nodes() == h.num_nodes()
            && g.num_edges() == h.num_edges()
            && Vf3Matcher.count_embeddings(&g, &h) > 0;
        prop_assert_eq!(
            same_code, iso,
            "canonical_code and the VF3 referee disagree on isomorphism"
        );
    }

    /// The serving layer's molecule store keys on canonical codes: a
    /// relabeled (permuted) copy must intern onto the same id, and a copy
    /// with one node label changed — a different label multiset, hence a
    /// different isomorphism class — must get a fresh id.
    #[test]
    fn mol_store_interns_by_isomorphism_class(g in arb_graph(8), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        let mut inv = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        let mut h = LabeledGraph::new();
        for &old in &inv {
            h.add_node(g.label(old));
        }
        for (a, b, l) in g.edges() {
            h.add_edge(perm[a as usize], perm[b as usize], l).unwrap();
        }
        // One label bumped: the label multiset (and so the class) changes.
        let bump = (seed as usize) % n;
        let mut k = LabeledGraph::new();
        for v in 0..n as u32 {
            let label = g.label(v);
            k.add_node(if v as usize == bump { (label + 1) % 6 } else { label });
        }
        for (a, b, l) in g.edges() {
            k.add_edge(a, b, l).unwrap();
        }
        let mut store = sigmo::serve::MolStore::new();
        let ia = store.intern(&g);
        let ib = store.intern(&h);
        let ic = store.intern(&k);
        prop_assert_eq!(ia, ib, "a permuted copy must share the interned id");
        prop_assert!(ia != ic, "a different label multiset must not collide");
        prop_assert_eq!(store.len(), 2);
        prop_assert_eq!(store.counters(), (1, 2));
    }

    /// A molecule and its SMILES round trip canonicalize identically —
    /// the property that lets the serve layer dedup a molecule no matter
    /// which client serialization it arrived in.
    #[test]
    fn smiles_round_trip_preserves_canonical_code(seed in any::<u64>()) {
        let mut gen = MoleculeGenerator::new(
            sigmo::mol::GeneratorConfig {
                min_heavy_atoms: 3,
                max_heavy_atoms: 16,
                ..Default::default()
            },
            seed,
        );
        let m = gen.generate();
        let smiles = write_smiles(&m);
        let back = parse_smiles(&smiles).map_err(|e| {
            TestCaseError::fail(format!("re-parse of {smiles:?} failed: {e}"))
        })?;
        prop_assert_eq!(
            sigmo::mol::canonical_code(&m.to_labeled_graph()),
            sigmo::mol::canonical_code(&back.to_labeled_graph()),
            "round trip via {} changed the canonical code", smiles
        );
    }

    /// All four join strategies — fixed DFS, fixed BFS, the adaptive
    /// cost-model engine, and its inverted anti-model — agree with brute
    /// force on totals and bit-for-bit on the matched-pair attribution,
    /// in Find All mode. The adaptive engine may only ever change *how*
    /// pairs are explored, never *what* is found.
    #[test]
    fn join_strategies_agree_on_find_all(q in arb_graph(4), d in arb_graph(8)) {
        let expected = brute_force_count(&q, &d);
        let queue = queue();
        let run = |strategy: JoinStrategy| {
            Engine::new(EngineConfig {
                refinement_iterations: 3,
                join_strategy: strategy,
                ..Default::default()
            })
            .run(std::slice::from_ref(&q), std::slice::from_ref(&d), &queue)
        };
        let base = run(JoinStrategy::Dfs);
        prop_assert_eq!(base.total_matches, expected);
        for strategy in [
            JoinStrategy::Bfs,
            JoinStrategy::Adaptive,
            JoinStrategy::AdaptiveInverted,
        ] {
            let r = run(strategy);
            prop_assert_eq!(r.total_matches, expected, "totals diverged under {:?}", strategy);
            prop_assert_eq!(
                &r.matched_pair_list, &base.matched_pair_list,
                "matched pairs diverged under {:?}", strategy
            );
            prop_assert_eq!(
                &r.pair_counts, &base.pair_counts,
                "per-pair counts diverged under {:?}", strategy
            );
        }
    }

    /// Find First: every strategy reports exactly one match per matchable
    /// pair and agrees with brute force on *which* pairs match — even
    /// though the cost model routes Find First differently (it never
    /// picks BFS there) and the inverted control forces the opposite.
    #[test]
    fn join_strategies_agree_on_find_first(q in arb_graph(4), d in arb_graph(8)) {
        let expected = u64::from(brute_force_count(&q, &d) > 0);
        let queue = queue();
        let run = |strategy: JoinStrategy| {
            Engine::new(EngineConfig {
                refinement_iterations: 3,
                mode: MatchMode::FindFirst,
                join_strategy: strategy,
                ..Default::default()
            })
            .run(std::slice::from_ref(&q), std::slice::from_ref(&d), &queue)
        };
        let base = run(JoinStrategy::Dfs);
        prop_assert_eq!(base.total_matches, expected);
        for strategy in [
            JoinStrategy::Bfs,
            JoinStrategy::Adaptive,
            JoinStrategy::AdaptiveInverted,
        ] {
            let r = run(strategy);
            prop_assert_eq!(r.total_matches, expected, "totals diverged under {:?}", strategy);
            prop_assert_eq!(
                &r.matched_pair_list, &base.matched_pair_list,
                "matched pairs diverged under {:?}", strategy
            );
        }
    }

    /// Step-budget-truncated runs stay sound under every join strategy:
    /// a truncated run of the same strategy is bit-identical when
    /// repeated, reports only true matches (per-pair counts never exceed
    /// the complete run's), and a run that claims `Complete` matches the
    /// unbudgeted totals exactly. Different strategies explore different
    /// frontiers, so *cross*-strategy truncated totals may legitimately
    /// differ — soundness, not equality, is the cross-strategy contract.
    #[test]
    fn truncated_runs_are_sound_and_repeatable(
        q in arb_graph(4),
        d in arb_graph(9),
        steps in 1u64..60,
    ) {
        let queue = queue();
        let run = |strategy: JoinStrategy, budget: &RunBudget| {
            let gov = Governor::new(budget);
            Engine::new(EngineConfig {
                refinement_iterations: 3,
                join_strategy: strategy,
                ..Default::default()
            })
            .run_with_governor(
                std::slice::from_ref(&q), std::slice::from_ref(&d), &queue, &gov,
            )
        };
        for strategy in [
            JoinStrategy::Dfs,
            JoinStrategy::Bfs,
            JoinStrategy::Adaptive,
            JoinStrategy::AdaptiveInverted,
        ] {
            let full = run(strategy, &RunBudget::none());
            let budget = RunBudget::none().with_step_budget(steps);
            let t1 = run(strategy, &budget);
            let t2 = run(strategy, &budget);
            prop_assert_eq!(
                t1.total_matches, t2.total_matches,
                "truncated rerun diverged under {:?}", strategy
            );
            prop_assert_eq!(&t1.pair_counts, &t2.pair_counts, "{:?}", strategy);
            prop_assert_eq!(&t1.truncated_graphs, &t2.truncated_graphs, "{:?}", strategy);
            prop_assert_eq!(
                t1.completion.is_complete(), t2.completion.is_complete(),
                "completion flag diverged under {:?}", strategy
            );
            prop_assert!(
                t1.total_matches <= full.total_matches,
                "truncated total overshot the complete run under {:?}", strategy
            );
            for &(dg, qg, count) in &t1.pair_counts {
                let full_count = full
                    .pair_counts
                    .iter()
                    .find(|&&(fd, fq, _)| fd == dg && fq == qg)
                    .map_or(0, |&(_, _, c)| c);
                prop_assert!(
                    count <= full_count,
                    "pair (d{}, q{}) overcounted under {:?}: {} > {}",
                    dg, qg, strategy, count, full_count
                );
            }
            if t1.completion.is_complete() {
                prop_assert_eq!(
                    t1.total_matches, full.total_matches,
                    "a Complete budgeted run must equal the unbudgeted totals ({:?})",
                    strategy
                );
            }
        }
    }

    /// Shard-partial [`sigmo::core::StreamReport`]s with disjoint index
    /// maps merge order-invariantly: absorbing them in any order and
    /// normalizing yields identical totals, pair lists, truncated sets,
    /// quarantine records, and completion — the invariant the sharded
    /// serving tier's scatter/gather rests on.
    #[test]
    fn shard_partial_reports_merge_order_invariantly(
        shards in 1usize..5,
        n in 1usize..30,
        seed in any::<u64>(),
    ) {
        use sigmo::core::{Completion, Quarantined, StreamReport, TruncationReason};
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Disjoint index maps: each global molecule index lands in
        // exactly one shard's slice, in ascending order per slice.
        let mut maps: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for global in 0..n {
            maps[rng.gen_range(0..shards)].push(global);
        }
        let mut partials: Vec<(StreamReport, Vec<usize>)> = Vec::new();
        for map in maps.into_iter().filter(|m| !m.is_empty()) {
            let mut part = StreamReport {
                chunks: rng.gen_range(1..4usize),
                molecules: map.len(),
                peak_chunk_bytes: rng.gen_range(0..1000u64),
                retried_chunks: rng.gen_range(0..3usize),
                strategy_retries: rng.gen_range(0..3usize),
                ..StreamReport::default()
            };
            for local in 0..map.len() {
                for q in 0..rng.gen_range(0..3usize) {
                    let count = rng.gen_range(1..10u64);
                    part.pair_counts.push((local, q, count));
                    part.matched_pair_list.push((local, q));
                    part.total_matches += count;
                }
                if rng.gen_range(0..10u32) < 3 {
                    part.truncated_graphs.push(local);
                    part.completion = Completion::Truncated(TruncationReason::StepBudget);
                }
                if rng.gen_range(0..20u32) < 3 {
                    part.quarantined.push(Quarantined {
                        index: local,
                        reason: TruncationReason::StepBudget,
                        partial_matches: rng.gen_range(0..5u64),
                    });
                }
            }
            partials.push((part, map));
        }
        let merge = |order: &[usize]| {
            let mut merged = StreamReport::default();
            for &i in order {
                let (part, map) = &partials[i];
                merged.absorb_partial(part, map);
            }
            merged.normalize();
            merged
        };
        let forward: Vec<usize> = (0..partials.len()).collect();
        let mut shuffled = forward.clone();
        shuffled.shuffle(&mut rng);
        let a = merge(&forward);
        let b = merge(&shuffled);
        prop_assert_eq!(a.total_matches, b.total_matches);
        prop_assert_eq!(a.matched_pair_list, b.matched_pair_list);
        prop_assert_eq!(a.pair_counts, b.pair_counts);
        prop_assert_eq!(a.truncated_graphs, b.truncated_graphs);
        prop_assert_eq!(a.quarantined, b.quarantined);
        prop_assert_eq!(a.completion, b.completion);
        prop_assert_eq!(a.chunks, b.chunks);
        prop_assert_eq!(a.molecules, b.molecules);
        prop_assert_eq!(a.peak_chunk_bytes, b.peak_chunk_bytes);
        prop_assert_eq!(a.retried_chunks, b.retried_chunks);
        prop_assert_eq!(a.strategy_retries, b.strategy_retries);
        prop_assert_eq!(a.molecules, n, "every molecule lands in one slice");
    }

    /// Extracted queries always match their source molecule (the engine
    /// must find at least one embedding).
    #[test]
    fn extracted_query_matches_source(seed in any::<u64>(), size in 2usize..8) {
        let mut gen = MoleculeGenerator::with_seed(seed);
        let m = gen.generate();
        let mut ex = QueryExtractor::new(seed ^ 0xabcd);
        if let Some(q) = ex.extract(&m, size) {
            let report = Engine::new(EngineConfig::with_iterations(4))
                .run(&[q], &[m.to_labeled_graph()], &queue());
            prop_assert!(report.total_matches > 0, "extracted query lost its source");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The label-pair pre-check's live-bucket test equals the full
    /// `Signature::dominates` on random pair signatures: sparse query
    /// signatures (masked buckets are zero), counts past the 4-bit
    /// saturation point on both sides, and data counts within a few of
    /// the query's so both verdicts occur.
    #[test]
    fn live_bucket_domination_equals_full_test(
        q in prop::collection::vec(0u64..20, 16..17),
        delta in prop::collection::vec(0u64..8, 16..17),
        zero in any::<u16>(),
    ) {
        let schema = filter::pair_schema();
        let (mut qsig, mut dsig) = (Signature::EMPTY, Signature::EMPTY);
        for b in 0..filter::PAIR_BUCKETS {
            let qc = if zero & (1 << b) != 0 { 0 } else { q[b] };
            qsig.add(&schema, b as u8, qc);
            dsig.add(&schema, b as u8, (qc + delta[b]).saturating_sub(1));
        }
        let live = qsig.diff_groups(&schema, &Signature::EMPTY);
        prop_assert_eq!(
            dsig.dominates_groups(&schema, &qsig, live),
            dsig.dominates(&schema, &qsig)
        );
    }
}

/// Case count of the deep-sweep properties: `SIGMO_FUZZ_CASES` when set
/// (`scripts/check.sh` runs thousands in release), else the tier-1-fast
/// `default`.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("SIGMO_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(48)))]

    /// The engine's filter (reusable plan + query-convergence early exit +
    /// delta-driven refine with per-graph dead skipping), run through
    /// `Engine::filter_with_facts`, is *bit-identical* to the per-bit
    /// oracle `naive::reference_filter`, for random graphs, random
    /// schemas, wildcard mixes, and every iteration count 1..=8. This is
    /// the monotonicity argument made executable: skipping clean rows,
    /// converged radii, and dead graphs must never change a bit.
    #[test]
    fn incremental_filter_is_bit_identical_to_reference(
        q in arb_graph(5),
        d1 in arb_graph(8),
        d2 in arb_graph(8),
        iters in 1usize..=8,
        wild in any::<u8>(),
        schema_pick in 0u8..3,
    ) {
        // Sprinkle wildcards onto some query nodes (bit i of `wild` decides
        // node i), rebuilding the graph since labels are fixed at add time.
        let mut qw = LabeledGraph::new();
        for v in 0..q.num_nodes() as u32 {
            let label = if wild >> (v % 8) & 1 == 1 {
                WILDCARD_LABEL
            } else {
                q.label(v)
            };
            qw.add_node(label);
        }
        for (a, b, l) in q.edges() {
            qw.add_edge(a, b, l).unwrap();
        }
        let schema = match schema_pick {
            0 => LabelSchema::organic(),
            1 => LabelSchema::uniform(6),
            _ => LabelSchema::uniform(12),
        };
        let queries = CsrGo::from_graphs(std::slice::from_ref(&qw));
        let data = CsrGo::from_graphs(&[d1, d2]);
        let (nq, nd) = (queries.num_nodes(), data.num_nodes());

        // Oracle: per-bit init, pair and predicate checks, then exhaustive
        // refinement, no skipping.
        let reference = CandidateBitmap::new(nq, nd, WordWidth::U64);
        naive::reference_filter(&queries, &data, &schema, iters, &reference);

        // The engine's filter phase, as every run executes it.
        let cfg = EngineConfig {
            refinement_iterations: iters,
            schema: schema.clone(),
            ..Default::default()
        };
        let plan = QueryPlan::from_batch(queries, &cfg);
        let facts = BatchFacts::for_run(&cfg, &plan, &data, &[]);
        let bitmap = CandidateBitmap::new(nq, nd, cfg.bitmap_word);
        let trace = Engine::new(cfg).filter_with_facts(
            &plan,
            &data,
            &facts,
            &bitmap,
            &queue(),
            &Governor::unlimited(),
        );
        prop_assert!(trace.len() <= iters);
        for row in 0..nq {
            for col in 0..nd {
                prop_assert_eq!(
                    bitmap.get(row, col),
                    reference.get(row, col),
                    "bit (q{}, d{}) diverged at {} iterations", row, col, iters
                );
            }
        }
    }
}

/// A random non-overlapping layout: `from_weights` at a random minimum
/// width, or explicit groups of 1–16 bits with random gaps that need not
/// fill the 64 bits.
fn random_layout(rng: &mut rand::rngs::StdRng) -> LabelSchema {
    use rand::Rng;
    if rng.gen::<bool>() {
        let min_bits = rng.gen_range(1..=4u8);
        let n = rng.gen_range(1..=64 / min_bits as usize);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 1e-3).collect();
        return LabelSchema::from_weights(&weights, min_bits);
    }
    let mut groups = Vec::new();
    let mut shift = rng.gen_range(0..4u32);
    while shift < 64 {
        let bits = match rng.gen_range(0..4u32) {
            0 => 1,
            1 => 16,
            _ => rng.gen_range(1..=16u32),
        };
        if shift + bits > 64 {
            break;
        }
        groups.push(BitGroup {
            shift: shift as u8,
            bits: bits as u8,
        });
        shift += bits + rng.gen_range(0..3u32);
    }
    if groups.is_empty() {
        groups.push(BitGroup { shift: 0, bits: 1 });
    }
    LabelSchema::from_groups(groups).expect("non-overlapping layout")
}

/// A signature whose group counts are drawn to hit zero, saturation
/// (including counts past it) and random values, plus the other side's
/// count ±1 when `near` is given, so both verdicts occur on every group.
fn random_signature(
    rng: &mut rand::rngs::StdRng,
    schema: &LabelSchema,
    near: Option<&Signature>,
) -> Signature {
    use rand::Rng;
    let mut sig = Signature::EMPTY;
    for (i, g) in schema.groups().iter().enumerate() {
        let max = g.max_count();
        let count = match (rng.gen_range(0..5u32), near) {
            (0, _) => 0,
            (1, _) => max + rng.gen_range(0..3u64),
            (2, Some(other)) => {
                let c = other.count(schema, i as u8);
                if rng.gen::<bool>() {
                    c + 1
                } else {
                    c.saturating_sub(1)
                }
            }
            (3, Some(other)) => other.count(schema, i as u8),
            _ => rng.gen_range(0..=max),
        };
        sig.add(schema, i as u8, count);
    }
    sig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(256)))]

    /// The filter kernels' branch-free SWAR domination test equals the
    /// per-group reference `dominates_groups` on the organic, label-pair
    /// and uniform schemas and on a random layout, for random signatures
    /// and random group masks (empty, full and partial).
    #[test]
    fn swar_domination_equals_dominates_groups(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut layouts = vec![
            LabelSchema::organic(),
            filter::pair_schema(),
            random_layout(&mut rng),
        ];
        for k in [1usize, 3, 4, 5, 7, 12, 16, 21, 32, 64] {
            layouts.push(LabelSchema::uniform(k));
        }
        let mut verdicts = [false; 2];
        for schema in &layouts {
            let n = schema.num_labels();
            let all = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let all_tops = schema.top_bits(u64::MAX);
            for _ in 0..8 {
                let q = random_signature(&mut rng, schema, None);
                let d = random_signature(&mut rng, schema, Some(&q));
                let mask = match rng.gen_range(0..4u32) {
                    0 => all,
                    1 => 0,
                    _ => rng.gen::<u64>() & all,
                };
                let expected = d.dominates_groups(schema, &q, mask);
                prop_assert_eq!(
                    d.dominates_tops(&q, all_tops, schema.top_bits(mask)),
                    expected,
                    "schema {:?}, d {:#x}, q {:#x}, mask {:#x}",
                    schema.groups(), d.0, q.0, mask
                );
                verdicts[usize::from(expected)] = true;
            }
        }
        prop_assert!(verdicts == [true, true], "only one verdict occurred");
    }
}

/// A random pair signature with one to three live buckets of count 1–2,
/// or (for a data column) counts 0–3 in every bucket: a data column
/// dominates a row's key about half the time.
fn random_pair_sig(rng: &mut rand::rngs::StdRng, data: bool) -> Signature {
    use rand::Rng;
    let schema = filter::pair_schema();
    let mut sig = Signature::EMPTY;
    if data {
        for b in 0..filter::PAIR_BUCKETS as u8 {
            sig.add(&schema, b, rng.gen_range(0..4u64));
        }
    } else {
        for _ in 0..rng.gen_range(1..=3usize) {
            sig.add(&schema, rng.gen_range(0..4u8), rng.gen_range(1..=2u64));
        }
    }
    sig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(256)))]

    /// The fused pass's class-major walk (here its label-pair stage)
    /// equals the per-bit `retain_row`, row by row: the same surviving bits, hence
    /// the same `(tested, cleared)` per row, and the launch's charges are
    /// the per-bit walk's sums. Rows share classes with overlapping but
    /// different live sets (a class's base set, perturbed per row), some
    /// keys occur once (singleton classes), some rows hold no key and
    /// must stay untouched, whole words are dead in every row, and column
    /// counts straddle word seams and are rarely multiples of 64.
    #[test]
    fn class_walk_equals_per_bit_retain_row(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let schema = filter::pair_schema();
        let cols = rng.gen_range(1..=300usize);
        let rows = rng.gen_range(1..=12usize);
        let pool: Vec<Signature> = (0..5).map(|_| random_pair_sig(&mut rng, false)).collect();
        // Key 5 is the empty signature: a row the stage does not list.
        let keys: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..6usize)).collect();
        let query_pairs: Vec<Signature> = keys
            .iter()
            .map(|&k| pool.get(k).copied().unwrap_or(Signature::EMPTY))
            .collect();
        let data_pairs: Vec<Signature> = (0..cols).map(|_| random_pair_sig(&mut rng, true)).collect();
        let density = rng.gen_range(1..=8u32);
        let base: Vec<Vec<bool>> = (0..6)
            .map(|_| (0..cols).map(|_| rng.gen_range(0..8u32) < density).collect())
            .collect();
        let dead_word = (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..cols.div_ceil(64)));
        let fast = CandidateBitmap::new(rows, cols, WordWidth::U64);
        let slow = CandidateBitmap::new(rows, cols, WordWidth::U64);
        for (r, &k) in keys.iter().enumerate() {
            for (c, &on) in base[k].iter().enumerate() {
                if on != (rng.gen_range(0..5u32) == 0) && dead_word != Some(c / 64) {
                    fast.set(r, c);
                    slow.set(r, c);
                }
            }
        }
        let stage = filter::pair_rows(&query_pairs, &schema);
        let queue = queue();
        let all_tops = schema.top_bits(u64::MAX);
        let stages = [filter::Stage::Pairs { rows: &stage, data: &data_pairs, all_tops }];
        let pass = filter::filter_pass(&queue, &stages, &fast, &Governor::unlimited());
        let cleared = pass.cleared(0);
        let (mut tested, mut want_cleared) = (0u64, 0u64);
        for r in &stage {
            let keep = |c: usize| data_pairs[c].dominates_tops(&r.sig, all_tops, r.tops);
            let (t, c) = slow.retain_row(r.row as usize, keep);
            tested += t;
            want_cleared += c;
        }
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(fast.get(r, c), slow.get(r, c), "bit ({}, {}) of {} cols", r, c, cols);
            }
        }
        prop_assert_eq!(cleared, want_cleared);
        // The pass's per-row counts: before the stage, less its clears.
        let mut counts: Vec<usize> = pass.initial.iter().map(|&c| c as usize).collect();
        for &(row, gone) in &pass.cleared[0] {
            counts[row] -= gone as usize;
        }
        prop_assert_eq!(
            format!("{:?}", CandidateStats::from_counts(&counts)),
            format!("{:?}", CandidateStats::from_bitmap(&fast))
        );
        let records = queue.records();
        if stage.is_empty() {
            prop_assert!(records.is_empty());
        } else {
            let words = (stage.len() * cols.div_ceil(64)) as u64;
            prop_assert_eq!(records.len(), 1);
            prop_assert_eq!(records[0].global_size, stage.len());
            prop_assert_eq!(records[0].counters.instructions, 24 * tested + words);
            prop_assert_eq!(records[0].counters.word_reads, words);
            prop_assert_eq!(records[0].counters.atomic_ops, want_cleared);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Smallest-ring sizes of generated molecules batched through CSR-GO
    /// equal the literal per-edge-BFS reference.
    #[test]
    fn molecule_ring_sizes_match_per_edge_bfs_reference(seed in any::<u64>(), count in 1usize..12) {
        let graphs: Vec<LabeledGraph> = MoleculeGenerator::with_seed(seed)
            .generate_batch(count)
            .iter()
            .map(|m| m.to_labeled_graph())
            .collect();
        let batch = CsrGo::from_graphs(&graphs);
        let csr = batch.csr();
        prop_assert_eq!(
            batch.node_attrs().min_ring,
            reference_min_ring_sizes(csr.row_offsets(), csr.column_indices())
        );
    }
}

/// Smallest-ring sizes on real-grammar ring systems — fused, bridged,
/// spiro, cage and macrocycle — batched together, equal the literal
/// per-edge-BFS reference.
#[test]
fn ring_system_smiles_ring_sizes_match_per_edge_bfs_reference() {
    let smiles = [
        "c1ccc2ccccc2c1",                    // naphthalene (fused 6+6)
        "C1CC2CCC1C2",                       // norbornane (bridged)
        "C1CCC2(CC1)CCCC2",                  // spiro[4.5]decane
        "C12C3C4C1C5C2C3C45",                // cubane (cage)
        "C1CC2CC3CC1CC(C2)C3",               // adamantane
        "C1CCCCCCCCCCC1",                    // 12-membered macrocycle
        "CC(C)c1ccc(cc1)C1CCC(CC1)c1ccncc1", // rings joined by bridges
        "C1CCC2C(C1)CCC1C2CCC2CCCC12",       // steroid-like tetracycle
    ];
    let graphs: Vec<LabeledGraph> = smiles
        .iter()
        .map(|s| parse_smiles(s).unwrap().to_labeled_graph())
        .collect();
    let batch = CsrGo::from_graphs(&graphs);
    let csr = batch.csr();
    let got = batch.node_attrs().min_ring;
    assert_eq!(
        got,
        reference_min_ring_sizes(csr.row_offsets(), csr.column_indices())
    );
    assert!(got.contains(&12) && got.contains(&4) && got.contains(&0));
}

/// The plain `Vec<Vec<_>>` adjacency model of a [`LabeledGraph`]: labels,
/// neighbour lists in insertion order, and dense charges.
#[derive(Clone, Default)]
struct AdjModel {
    labels: Vec<u8>,
    adj: Vec<Vec<(u32, u8)>>,
    charges: Vec<i8>,
}

impl AdjModel {
    fn add_node(&mut self, label: u8) -> u32 {
        self.labels.push(label);
        self.adj.push(Vec::new());
        self.charges.push(0);
        self.labels.len() as u32 - 1
    }

    /// The graph's error order: `a` out of range, `b` out of range,
    /// self-loop, duplicate.
    fn add_edge(&mut self, a: u32, b: u32, l: u8) -> Result<(), GraphError> {
        let len = self.labels.len();
        for node in [a, b] {
            if node as usize >= len {
                return Err(GraphError::NodeOutOfRange { node, len });
            }
        }
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        if self.adj[a as usize].iter().any(|&(v, _)| v == b) {
            return Err(GraphError::DuplicateEdge { a, b });
        }
        self.adj[a as usize].push((b, l));
        self.adj[b as usize].push((a, l));
        Ok(())
    }

    fn add_leaf(&mut self, parent: u32, label: u8, l: u8) -> Result<u32, GraphError> {
        let len = self.labels.len();
        if parent as usize >= len {
            return Err(GraphError::NodeOutOfRange { node: parent, len });
        }
        let v = self.add_node(label);
        self.add_edge(parent, v, l).map(|()| v)
    }

    fn edges(&self) -> Vec<(u32, u32, u8)> {
        let mut out = Vec::new();
        for (a, nbrs) in self.adj.iter().enumerate() {
            for &(b, l) in nbrs {
                if (a as u32) < b {
                    out.push((a as u32, b, l));
                }
            }
        }
        out
    }

    /// `LabeledGraph::induced_subgraph`'s construction, on the model.
    fn induced(&self, nodes: &[u32]) -> AdjModel {
        let mut map = vec![u32::MAX; self.labels.len()];
        let mut sub = AdjModel::default();
        for (i, &v) in nodes.iter().enumerate() {
            map[v as usize] = i as u32;
            sub.add_node(self.labels[v as usize]);
            sub.charges[i] = self.charges[v as usize];
        }
        for &v in nodes {
            let nv = map[v as usize];
            for &(u, l) in &self.adj[v as usize] {
                let nu = map[u as usize];
                if nu != u32::MAX && nv < nu {
                    sub.add_edge(nv, nu, l).unwrap();
                }
            }
        }
        sub
    }
}

/// Checks every read of `g` against the model.
fn assert_graph_equals_model(g: &LabeledGraph, m: &AdjModel) -> Result<(), TestCaseError> {
    let n = m.labels.len();
    prop_assert_eq!(g.num_nodes(), n);
    prop_assert_eq!(g.labels(), &m.labels[..]);
    prop_assert_eq!(g.num_edges(), m.edges().len());
    prop_assert_eq!(g.edges().collect::<Vec<_>>(), m.edges());
    prop_assert_eq!(
        g.max_degree(),
        m.adj.iter().map(Vec::len).max().unwrap_or(0)
    );
    for v in 0..n as u32 {
        prop_assert_eq!(g.neighbors(v), &m.adj[v as usize][..]);
        prop_assert_eq!(g.degree(v), m.adj[v as usize].len());
        prop_assert_eq!(g.charge(v), m.charges[v as usize]);
        for u in 0..n as u32 {
            let want = m.adj[v as usize]
                .iter()
                .find(|&&(w, _)| w == u)
                .map(|&(_, l)| l);
            prop_assert_eq!(g.edge_label(v, u), want);
            prop_assert_eq!(g.has_edge(v, u), want.is_some());
        }
    }
    Ok(())
}

/// Replays a random `add_node` / `add_edge` / `add_leaf` / `set_charge`
/// sequence on a graph and on the model, checking each call's result
/// against the model's. A hub-biased endpoint choice drives degrees up to
/// 12 so lists spill, and duplicate, self-loop and out-of-range edges come
/// up often.
fn random_graph_and_model(
    rng: &mut rand::rngs::StdRng,
) -> Result<(LabeledGraph, AdjModel), TestCaseError> {
    use rand::Rng;
    let mut g = LabeledGraph::new();
    let mut m = AdjModel::default();
    for _ in 0..rng.gen_range(0..120usize) {
        let n = m.labels.len() as u32;
        // Endpoints: a hub among the first three nodes half the time, and
        // now and then one past the end.
        let pick = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..10u32) {
            0 => n + rng.gen_range(0..3u32),
            1..=5 => rng.gen_range(0..n.clamp(1, 3)),
            _ => rng.gen_range(0..n.max(1)),
        };
        let full = |m: &AdjModel, v: u32| m.adj.get(v as usize).is_some_and(|l| l.len() >= 12);
        match rng.gen_range(0..10u32) {
            0 | 1 => {
                let label = rng.gen_range(0..6u8);
                prop_assert_eq!(g.add_node(label), m.add_node(label));
            }
            2 if n > 0 => {
                let v = rng.gen_range(0..n);
                let c = rng.gen_range(0..5u8) as i8 - 2;
                g.set_charge(v, c);
                m.charges[v as usize] = c;
            }
            3 => {
                let parent = pick(rng);
                if !full(&m, parent) {
                    let (label, l) = (rng.gen_range(0..6u8), rng.gen_range(0..4u8));
                    prop_assert_eq!(g.add_leaf(parent, label, l), m.add_leaf(parent, label, l));
                }
            }
            _ => {
                let a = pick(rng);
                // A self-loop or a repeat of an existing edge now and then.
                let b = match rng.gen_range(0..8u32) {
                    0 => a,
                    1 => m
                        .adj
                        .get(a as usize)
                        .and_then(|l| l.first())
                        .map_or(a, |&(u, _)| u),
                    _ => pick(rng),
                };
                if !full(&m, a) && !full(&m, b) {
                    let l = rng.gen_range(0..4u8);
                    prop_assert_eq!(g.add_edge(a, b, l), m.add_edge(a, b, l));
                }
            }
        }
    }
    Ok((g, m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(256)))]

    /// `LabeledGraph`'s neighbour lists (inline up to four entries, spilled
    /// to the heap above) behave exactly like a plain `Vec<Vec<_>>`
    /// adjacency: after a random build (each call's result, errors
    /// included, equal to the model's), every read (neighbour order,
    /// degree, max degree, edge labels, the edge iterator), induced
    /// subgraphs, clones and `==` agree with the model. A graph rebuilt
    /// from the edge list equals the original exactly when its neighbour
    /// orders come out the same, and one extra leaf or charge makes a
    /// clone differ.
    #[test]
    fn neighbor_lists_match_the_vec_model(seed in any::<u64>()) {
        use rand::{seq::SliceRandom, Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (g, m) = random_graph_and_model(&mut rng)?;
        assert_graph_equals_model(&g, &m)?;

        let copy = g.clone();
        prop_assert!(copy == g);
        assert_graph_equals_model(&copy, &m)?;

        let mut rebuilt = LabeledGraph::new();
        for &label in &m.labels {
            rebuilt.add_node(label);
        }
        for (v, &c) in m.charges.iter().enumerate() {
            rebuilt.set_charge(v as u32, c);
        }
        for (a, b, l) in g.edges() {
            rebuilt.add_edge(a, b, l).unwrap();
        }
        let same_order = (0..m.labels.len()).all(|v| rebuilt.neighbors(v as u32) == &m.adj[v][..]);
        prop_assert_eq!(rebuilt == g, same_order);

        if !m.labels.is_empty() {
            let mut nodes: Vec<u32> = (0..m.labels.len() as u32).collect();
            nodes.shuffle(&mut rng);
            nodes.truncate(rng.gen_range(1..=nodes.len()));
            assert_graph_equals_model(&g.induced_subgraph(&nodes), &m.induced(&nodes))?;

            let v = nodes[0];
            let mut charged = g.clone();
            charged.set_charge(v, g.charge(v).wrapping_add(1));
            prop_assert!(charged != g);
            let mut grown = g.clone();
            grown.add_leaf(v, 0, 1).unwrap();
            prop_assert!(grown != g);
        }
    }
}

/// The model property's builds reach spilled lists: over 256 seeds some
/// graph has a node above the four inline entries, and some node reaches
/// degree 12.
#[test]
fn neighbor_list_model_reaches_spilled_degrees() {
    use rand::SeedableRng;
    let degrees: Vec<usize> = (0..256u64)
        .map(|seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            random_graph_and_model(&mut rng).unwrap().0.max_degree()
        })
        .collect();
    assert!(
        degrees.iter().filter(|&&d| d > 4).count() >= 64,
        "{degrees:?}"
    );
    assert!(degrees.contains(&12), "{degrees:?}");
}

/// A random predicate over the fields `NodeAttrs::packed` holds: atom
/// lists (labels past 63 included, which no mask admits), or no list,
/// charges of both signs, ring membership either way, ring size 0, and
/// degree and H-count bounds.
fn random_predicate(rng: &mut rand::rngs::StdRng) -> sigmo::graph::NodePredicate {
    use rand::Rng;
    let mut field = |odds: u32| rng.gen_range(0..odds) == 0;
    let (list, degree, h, charge, ring, size) =
        (field(2), field(2), field(3), field(3), field(3), field(3));
    sigmo::graph::NodePredicate {
        label_any: list.then(|| rng.gen::<u64>() & rng.gen::<u64>()),
        degree: degree.then(|| rng.gen_range(0..6u8)),
        h_count: h.then(|| rng.gen_range(0..4u8)),
        charge: charge.then(|| rng.gen_range(0..5u8) as i8 - 2),
        ring: ring.then(|| rng.gen::<bool>()),
        ring_size: size.then(|| rng.gen_range(0..8u8)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(256)))]

    /// A predicate compiled against the packed attribute word
    /// (`PackedPredicate`) decides every node exactly as
    /// `NodePredicate::matches` does on the attribute table: random
    /// graphs with rings, hydrogens, charges and labels up to 70.
    #[test]
    fn packed_predicates_equal_matches(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=24usize);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            let label = if rng.gen_range(0..4u32) == 0 { 0 } else { rng.gen_range(0..71u8) };
            g.add_node(label);
        }
        for v in 1..n as u32 {
            let _ = g.add_edge(rng.gen_range(0..v), v, 1);
        }
        for _ in 0..rng.gen_range(0..=n) {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            let _ = g.add_edge(a, b, 1);
        }
        for v in 0..n as u32 {
            if rng.gen_range(0..4u32) == 0 {
                g.set_charge(v, rng.gen_range(0..5u8) as i8 - 2);
            }
        }
        let attrs = g.node_attrs();
        for _ in 0..16 {
            let pred = random_predicate(&mut rng);
            let packed = sigmo::graph::PackedPredicate::compile(&pred);
            for v in 0..n {
                prop_assert_eq!(
                    packed.matches(attrs.packed[v]),
                    pred.matches(&attrs, v as u32),
                    "node {} of {:?} under {:?}", v, attrs, pred
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(48)))]

    /// The fused pass's per-iteration trace, radius by radius: after each
    /// iteration `i` the engine reports exactly the candidate summary the
    /// per-bit `naive::reference_filter` leaves at `i` iterations, and the
    /// bits it cleared there; past the fixpoint the reference moves no
    /// further.
    #[test]
    fn iteration_stats_equal_the_reference_radius_by_radius(
        q in arb_graph(6),
        d1 in arb_graph(9),
        d2 in arb_graph(9),
        schema_pick in 0u8..2,
    ) {
        let schema = if schema_pick == 0 { LabelSchema::organic() } else { LabelSchema::uniform(6) };
        let cfg = EngineConfig { schema: schema.clone(), ..EngineConfig::with_iterations(7) };
        let plan = QueryPlan::build(std::slice::from_ref(&q), &cfg);
        let data = CsrGo::from_graphs(&[d1, d2]);
        let facts = BatchFacts::for_run(&cfg, &plan, &data, &[]);
        let bitmap = CandidateBitmap::new(plan.batch().num_nodes(), data.num_nodes(), cfg.bitmap_word);
        let trace = Engine::new(cfg.clone())
            .filter_with_facts(&plan, &data, &facts, &bitmap, &queue(), &Governor::unlimited());
        let reference = |iters: usize| {
            let bm = CandidateBitmap::new(bitmap.rows(), bitmap.cols(), cfg.bitmap_word);
            naive::reference_filter(plan.batch(), &data, &schema, iters, &bm);
            bm
        };
        let init = CandidateBitmap::new(bitmap.rows(), bitmap.cols(), cfg.bitmap_word);
        naive::initialize_candidates(plan.batch(), &data, &init);
        let mut before = init.total_count() as u64;
        for it in &trace {
            let want = reference(it.iteration);
            prop_assert_eq!(&it.candidates, &CandidateStats::from_bitmap(&want), "iteration {}", it.iteration);
            prop_assert_eq!(it.cleared_bits, before - want.total_count() as u64, "iteration {}", it.iteration);
            before = want.total_count() as u64;
        }
        let last = trace.last().expect("iteration 1 always runs");
        prop_assert_eq!(&last.candidates, &CandidateStats::from_bitmap(&reference(7)));
    }
}
