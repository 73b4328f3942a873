//! Property-based tests over randomly generated molecular workloads.

use proptest::prelude::*;
use sigmo::baselines::Matcher;
use sigmo::baselines::{brute_force_count, UllmannMatcher, Vf3Matcher};
use sigmo::core::schema::BitGroup;
use sigmo::core::{
    filter, naive, CandidateBitmap, ClassVerdicts, Engine, EngineConfig, FilterMode, Governor,
    JoinStrategy, LabelSchema, MatchMode, QueryPlan, RowCounts, RunBudget, Signature, SignatureSet,
    WordWidth,
};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::{reference_min_ring_sizes, CsrGo, LabeledGraph, WILDCARD_LABEL};
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
        let cands = filter::reference_filter(&queries, &data, &schema, iters);
        for emb in &embeddings {
            for (qn, &dn) in emb.iter().enumerate() {
                prop_assert!(
                    cands[qn].contains(&dn),
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

    /// The convergence-driven filter (reusable plan + query-convergence
    /// early exit + delta-driven refine with per-graph dead skipping) is
    /// *bit-identical* to the exhaustive per-bit oracle, for random graphs,
    /// random schemas, wildcard mixes, and every iteration count 1..=8.
    /// This is the monotonicity argument made executable: skipping clean
    /// rows, converged radii, and dead graphs must never change a bit.
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

        // Oracle: per-bit init + exhaustive refinement, no skipping.
        let reference = CandidateBitmap::new(nq, nd, WordWidth::U64);
        naive::reference_filter(&queries, &data, &schema, iters, &reference);

        // Convergence-driven path, exactly as the incremental engine runs
        // it: bucketed init, stop past the last dirty radius, delta kernel
        // over dirty rows only, graph-alive snapshot refreshed between
        // launches.
        let cfg = EngineConfig {
            refinement_iterations: iters,
            schema: schema.clone(),
            filter_mode: FilterMode::Incremental,
            ..Default::default()
        };
        let plan = QueryPlan::from_batch(queries.clone(), &cfg);
        let bitmap = CandidateBitmap::new(nq, nd, WordWidth::U64);
        let queue = queue();
        let gov = Governor::unlimited();
        filter::initialize_candidates_bucketed(&queue, plan.buckets(), &data, &bitmap, 256, &gov);
        let counts = RowCounts::of(&bitmap);
        let mut data_sigs = SignatureSet::new(&data, schema.clone());
        for it in 2..=iters {
            let radius = it - 1;
            if radius > plan.last_dirty_radius() {
                break;
            }
            data_sigs.advance(&data);
            let delta = plan.delta_at(radius);
            if delta.is_empty() {
                continue;
            }
            filter::refine_candidates_delta(
                &queue,
                &data,
                &schema,
                delta,
                data_sigs.signatures(),
                &bitmap,
                &counts,
                &gov,
            );
        }
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

    /// Both engine filter modes agree on totals and matched pairs for
    /// random workloads — the engine-level face of the bit-identity above.
    #[test]
    fn filter_modes_agree_on_random_workloads(
        q in arb_graph(4),
        d in arb_graph(8),
        iters in 1usize..=8,
    ) {
        let run = |mode: FilterMode| {
            Engine::new(EngineConfig {
                refinement_iterations: iters,
                filter_mode: mode,
                ..Default::default()
            })
            .run(std::slice::from_ref(&q), std::slice::from_ref(&d), &queue())
        };
        let ex = run(FilterMode::Exhaustive);
        let inc = run(FilterMode::Incremental);
        prop_assert_eq!(ex.total_matches, inc.total_matches);
        prop_assert_eq!(&ex.matched_pair_list, &inc.matched_pair_list);
        prop_assert!(inc.iterations.len() <= ex.iterations.len());
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

/// Case count of the SWAR domination property: `SIGMO_FUZZ_CASES` when
/// set (`scripts/check.sh` runs 10 000 in release), else a tier-1-fast
/// default.
fn swar_cases() -> u32 {
    std::env::var("SIGMO_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
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
    #![proptest_config(ProptestConfig::with_cases(swar_cases()))]

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

/// A pure per-(class key, column) verdict for the class-walk property:
/// a splitmix-style hash, failing about a third of the bits.
fn class_verdict(seed: u64, key: u32, col: usize) -> bool {
    let mut x = seed ^ (u64::from(key) << 32) ^ col as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    !(x ^ (x >> 31)).is_multiple_of(3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(swar_cases()))]

    /// The class-aware row walk equals the per-bit `retain_row`, row by
    /// row: the same surviving bits and the same `(tested, cleared)`.
    /// Rows share classes with overlapping but different live sets (a
    /// class's base set, perturbed per row), some keys occur once
    /// (singleton classes, no tables), some rows of a shared key walk
    /// without tables, column counts straddle word seams and are rarely
    /// multiples of 64, and rows are walked in random order.
    #[test]
    fn class_walk_equals_per_bit_retain_row(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cols = rng.gen_range(1..=300usize);
        let rows = rng.gen_range(1..=12usize);
        let keys: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..5u32)).collect();
        // Dense ids for keys held by at least two rows; a few of those
        // rows still walk without tables.
        let mut ids: Vec<Option<u32>> = vec![None; 5];
        let mut shared = 0u32;
        for k in 0..5u32 {
            if keys.iter().filter(|&&x| x == k).count() >= 2 {
                ids[k as usize] = Some(shared);
                shared += 1;
            }
        }
        let class: Vec<Option<u32>> = keys
            .iter()
            .map(|&k| ids[k as usize].filter(|_| rng.gen_range(0..8u32) != 0))
            .collect();
        let density = rng.gen_range(1..=8u32);
        let base: Vec<Vec<bool>> = (0..5)
            .map(|_| (0..cols).map(|_| rng.gen_range(0..8u32) < density).collect())
            .collect();
        let fast = CandidateBitmap::new(rows, cols, WordWidth::U64);
        let slow = CandidateBitmap::new(rows, cols, WordWidth::U64);
        for (r, &k) in keys.iter().enumerate() {
            for (c, &on) in base[k as usize].iter().enumerate() {
                if on != (rng.gen_range(0..5u32) == 0) {
                    fast.set(r, c);
                    slow.set(r, c);
                }
            }
        }
        let verdicts = ClassVerdicts::new(shared as usize, &fast);
        let mut order: Vec<usize> = (0..rows).collect();
        for i in (1..rows).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &r in &order {
            let keep = |c: usize| class_verdict(seed, keys[r], c);
            let table = class[r].map(|c| verdicts.class(c));
            let got = fast.retain_row_classed(r, table, keep);
            let want = slow.retain_row(r, keep);
            prop_assert_eq!(got, want, "row {} of {} ({} cols)", r, rows, cols);
            for c in 0..cols {
                prop_assert_eq!(fast.get(r, c), slow.get(r, c), "bit ({}, {})", r, c);
            }
        }
        prop_assert!(verdicts.memory_bytes() <= fast.padded_memory_bytes());
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
