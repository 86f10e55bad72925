//! Correctness of the parallel kernels under **real** thread pools of 1, 2
//! and 4 workers — the contracts the paper actually promises:
//!
//! - `KarpSipserMT` (Algorithm 4): at any thread count the result is a
//!   *valid, maximal* matching of the sampled subgraph whose cardinality
//!   equals the sequential exact reference (Karp–Sipser is exact on the
//!   union of two functional graphs, Lemma 1) — the concrete mate arrays
//!   may differ between schedules;
//! - scaling (`sinkhorn_knopp_into`, `ruiz_into`): **byte-identical**
//!   factors, error and history for every pool size, with the reused
//!   output buffers staying pointer-stable;
//! - the parallel exact finishers (`hk-par`, `pf-par`, and the
//!   incremental-forest `pf-graft`): valid matchings whose cardinality
//!   equals the sequential finishers' (maximum is maximum) and whose mate
//!   arrays are **byte-identical** across pool sizes (deterministic
//!   chunk-order merges) — `hk-par` additionally reproduces sequential
//!   `hk` byte-for-byte.

use dsmatch::heur::{choice_subgraph, karp_sipser_mt, karp_sipser_mt_seq};
use dsmatch::prelude::*;
use proptest::prelude::*;

fn pool(t: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap()
}

/// No edge of the sampled subgraph may have both endpoints free — the
/// maximality half of "Karp–Sipser is exact on this graph class".
fn assert_maximal(m: &Matching, rchoice: &[u32], cchoice: &[u32], context: &str) {
    for (i, &j) in rchoice.iter().enumerate() {
        if j != NIL {
            assert!(
                m.is_row_matched(i) || m.is_col_matched(j as usize),
                "{context}: edge r{i}→c{j} has both endpoints free"
            );
        }
    }
    for (j, &i) in cchoice.iter().enumerate() {
        if i != NIL {
            assert!(
                m.is_row_matched(i as usize) || m.is_col_matched(j),
                "{context}: edge c{j}→r{i} has both endpoints free"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Property (a) of the parallel-correctness satellite: under pools of
    /// 1, 2 and 4 threads, `ks_mt` yields a valid **maximal** matching of
    /// the sampled subgraph with the exact sequential cardinality.
    #[test]
    fn ks_mt_valid_maximal_exact_across_pools(
        nr in 1usize..40,
        nc in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let rchoice: Vec<u32> = (0..nr)
            .map(|_| {
                let v = rng.next_below(8 * nc as u64);
                if v < nc as u64 { NIL } else { (v % nc as u64) as u32 }
            })
            .collect();
        let cchoice: Vec<u32> = (0..nc)
            .map(|_| {
                let v = rng.next_below(8 * nr as u64);
                if v < nr as u64 { NIL } else { (v % nr as u64) as u32 }
            })
            .collect();
        let g = choice_subgraph(&rchoice, &cchoice);
        let expected = karp_sipser_mt_seq(&rchoice, &cchoice).cardinality();
        for t in [1usize, 2, 4] {
            let m = pool(t).install(|| karp_sipser_mt(&rchoice, &cchoice));
            m.verify(&g).unwrap();
            assert_maximal(&m, &rchoice, &cchoice, &format!("threads={t} seed={seed}"));
            prop_assert_eq!(
                m.cardinality(),
                expected,
                "ks_mt not exact at {} threads (seed {})",
                t,
                seed
            );
        }
    }
}

/// The same Algorithm 4 contract on instance-scale inputs, where chunked
/// dispatch genuinely interleaves: choices sampled from a scaled
/// Erdős–Rényi graph, pools of 1, 2 and 4, repeated runs per pool.
#[test]
fn ks_mt_large_instance_exact_across_pools() {
    use dsmatch::heur::two_sided_choices;
    let g = dsmatch::gen::erdos_renyi_square(30_000, 5.0, 13);
    let s = sinkhorn_knopp(&g, &ScalingConfig::iterations(5));
    let (rc, cc) = two_sided_choices(&g, &s, 7);
    let sub = choice_subgraph(&rc, &cc);
    let expected = karp_sipser_mt_seq(&rc, &cc).cardinality();
    for t in [1usize, 2, 4] {
        let p = pool(t);
        for rep in 0..3 {
            let m = p.install(|| karp_sipser_mt(&rc, &cc));
            m.verify(&sub).unwrap();
            assert_maximal(&m, &rc, &cc, &format!("threads={t} rep={rep}"));
            assert_eq!(m.cardinality(), expected, "threads={t} rep={rep}");
        }
    }
}

/// Property (b): the `_into` scaling kernels are byte-identical across
/// pool sizes {1, 2, 4} — factors, error, and convergence history — and
/// the reused output buffers never reallocate.
#[test]
fn scaling_into_byte_identical_across_pools() {
    use dsmatch::scale::{ruiz_into, sinkhorn_knopp_into};
    let g = dsmatch::gen::erdos_renyi_square(8_000, 6.0, 3);
    let cfg = ScalingConfig::iterations(6);

    type ScaleInto = fn(&BipartiteGraph, &ScalingConfig, &mut ScalingResult);
    let kernels: [(&str, ScaleInto); 2] =
        [("sinkhorn_knopp_into", sinkhorn_knopp_into), ("ruiz_into", ruiz_into)];
    for (name, kernel) in kernels {
        let mut reference = ScalingResult::empty();
        pool(1).install(|| kernel(&g, &cfg, &mut reference));
        let mut out = ScalingResult::empty();
        // Warm the reused buffers once, then record their footprint.
        pool(1).install(|| kernel(&g, &cfg, &mut out));
        let footprint = (out.dr.as_ptr() as usize, out.dr.capacity(), out.dc.as_ptr() as usize);
        for t in [1usize, 2, 4] {
            pool(t).install(|| kernel(&g, &cfg, &mut out));
            assert_eq!(out.dr, reference.dr, "{name}: dr differs at {t} threads");
            assert_eq!(out.dc, reference.dc, "{name}: dc differs at {t} threads");
            assert_eq!(out.error, reference.error, "{name}: error differs at {t} threads");
            assert_eq!(out.history, reference.history, "{name}: history differs at {t} threads");
            assert_eq!(
                footprint,
                (out.dr.as_ptr() as usize, out.dr.capacity(), out.dc.as_ptr() as usize),
                "{name}: scaling buffers reallocated at {t} threads"
            );
        }
    }
}

/// Panic propagation under the work-stealing scheduler: a panic in a
/// *nested* spawn — pushed to its worker's own deque, hence eligible for
/// stealing — must surface at the scoping thread at pools 2, 4 and 8, and
/// the pool must stay usable afterwards.
#[test]
fn panic_in_stolen_nested_task_propagates_across_pools() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    for t in [2usize, 4, 8] {
        let p = pool(t);
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.scope(|s| {
                for k in 0..2 * t {
                    s.spawn(move |s| {
                        s.spawn(move |_| {
                            if k == 1 {
                                panic!("nested boom");
                            }
                        });
                    });
                }
            });
        }));
        assert!(result.is_err(), "nested panic lost at {t} threads");
        // The pool survives: a follow-up scope completes all its work.
        let ok = AtomicUsize::new(0);
        p.scope(|s| {
            for _ in 0..4 * t {
                s.spawn(|_| {
                    ok.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4 * t, "pool unusable after panic at {t} threads");
    }
}

/// Nested scopes under stealing: every level of a three-deep spawn tree
/// completes, with results visible to the scoping thread, at pools 2/4/8.
/// (Nested spawns land on their worker's own deque; idle workers steal
/// them — the skewed-chain-walk shape the scheduler exists for.)
#[test]
fn nested_scopes_complete_under_stealing() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    for t in [2usize, 4, 8] {
        let p = pool(t);
        let hits = AtomicUsize::new(0);
        p.scope(|s| {
            for _ in 0..t {
                s.spawn(|s| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..3 {
                        s.spawn(|s| {
                            hits.fetch_add(1, Ordering::Relaxed);
                            s.spawn(|_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), t * 7, "threads = {t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Parallel-finisher property at pools 1/2/4: `pf-par`/`hk-par` are
    /// valid, match sequential `pf`/`hk` cardinality exactly (all four are
    /// maximum-cardinality solvers), and return byte-identical mate
    /// arrays at every pool size. `hk-par` is further byte-identical to
    /// sequential `hk` (its level-synchronized BFS assigns the same
    /// distance labels, and the blocking DFS is shared code).
    #[test]
    fn parallel_finishers_exact_and_deterministic_across_pools(
        nr in 1usize..50,
        nc in 1usize..50,
        seed in 0u64..500,
    ) {
        use dsmatch::exact::{hopcroft_karp_par, pothen_fan, pothen_fan_par};
        let mut rng = SplitMix64::new(seed);
        let mut t = TripletMatrix::new(nr, nc);
        for i in 0..nr {
            for j in 0..nc {
                if rng.next_below(4) == 0 {
                    t.push(i, j);
                }
            }
        }
        let g = BipartiteGraph::from_csr(t.into_csr());
        let opt = pothen_fan(&g).cardinality();
        let hk_seq = hopcroft_karp(&g);
        let hk_ref = pool(1).install(|| hopcroft_karp_par(&g));
        let pf_ref = pool(1).install(|| pothen_fan_par(&g));
        prop_assert_eq!(hk_ref.rmates(), hk_seq.rmates(), "hk-par must reproduce hk");
        for t in [1usize, 2, 4] {
            let hk_par = pool(t).install(|| hopcroft_karp_par(&g));
            hk_par.verify(&g).unwrap();
            prop_assert_eq!(hk_par.cardinality(), opt, "hk-par at {} threads", t);
            prop_assert_eq!(hk_par.rmates(), hk_ref.rmates(), "hk-par differs at {} threads", t);
            let pf_par = pool(t).install(|| pothen_fan_par(&g));
            pf_par.verify(&g).unwrap();
            prop_assert_eq!(pf_par.cardinality(), opt, "pf-par at {} threads", t);
            prop_assert_eq!(pf_par.rmates(), pf_ref.rmates(), "pf-par differs at {} threads", t);
        }
    }

    /// The incremental tree-grafting finisher at pools 1/2/4: exact, and
    /// byte-identical mate arrays at every pool size — grafting keeps the
    /// forest across harvests, but the chunk-merge order it harvests in
    /// depends only on frontier content, never the schedule.
    #[test]
    fn pf_graft_exact_and_deterministic_across_pools(
        nr in 1usize..50,
        nc in 1usize..50,
        seed in 0u64..500,
    ) {
        use dsmatch::exact::{pothen_fan, pothen_fan_graft};
        let mut rng = SplitMix64::new(seed);
        let mut t = TripletMatrix::new(nr, nc);
        for i in 0..nr {
            for j in 0..nc {
                if rng.next_below(4) == 0 {
                    t.push(i, j);
                }
            }
        }
        let g = BipartiteGraph::from_csr(t.into_csr());
        let opt = pothen_fan(&g).cardinality();
        let reference = pool(1).install(|| pothen_fan_graft(&g));
        for t in [1usize, 2, 4] {
            let m = pool(t).install(|| pothen_fan_graft(&g));
            m.verify(&g).unwrap();
            prop_assert_eq!(m.cardinality(), opt, "pf-graft at {} threads", t);
            prop_assert_eq!(m.rmates(), reference.rmates(), "pf-graft differs at {} threads", t);
            prop_assert_eq!(m.cmates(), reference.cmates(), "pf-graft differs at {} threads", t);
        }
    }
}

/// The finishers as *pipeline stages*: heuristic warm starts through the
/// engine at pools 1/2/4 — the exact composition the CLI exposes as
/// `scale:sk:5,two,pf-par` — must reach the optimum (cardinality equal to
/// the sequential finisher pipelines) on an instance large enough that
/// level scans genuinely fan out.
#[test]
fn finisher_pipelines_reach_the_optimum_across_pools() {
    use dsmatch::engine::{Pipeline, Solver, Workspace};
    let g = dsmatch::gen::erdos_renyi_square(20_000, 4.0, 17);
    let opt = sprank(&g);
    for spec in [
        "scale:sk:5,two,pf-par",
        "scale:sk:5,two,hk-par",
        "scale:sk:5,two,pf-graft",
        "scale:sk:5,two,auto",
        "scale:sk:0,one,pf-par",
        "cheap,hk-par",
        "cheap,pf-graft",
    ] {
        let pipeline: Pipeline = spec.parse().unwrap();
        for t in [1usize, 2, 4] {
            let mut ws = Workspace::with_threads(t);
            let report = pipeline.clone().with_seed(9).solve(&g, &mut ws);
            report.matching.verify(&g).unwrap();
            assert_eq!(report.cardinality(), opt, "{spec} at {t} threads");
        }
    }
}

/// FNV-1a over the little-endian bytes of `mates`: a stable fingerprint of
/// a whole mate array.
fn fnv1a(mates: &[u32]) -> u64 {
    mates
        .iter()
        .flat_map(|m| m.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Golden outputs of the four level-synchronized finishers: the exact row
/// mates (as an FNV-1a checksum) and work counters, solved cold and
/// warm-started from a fixed `cheap` matching, on a uniform ER instance and
/// an average-degree-2 one where `pf-par` needs many phases. Every other
/// finisher test accepts any maximum, pool-invariant answer; this one also
/// fails when a refactor moves a single mate or counter.
#[test]
fn finisher_mates_and_stats_are_pinned() {
    use dsmatch::exact::{
        hopcroft_karp_par_ws, hopcroft_karp_ws, pothen_fan_graft_ws, pothen_fan_par_ws,
        AugmentWorkspace,
    };
    use dsmatch::heur::cheap_random_edge;

    /// A finisher with its stats flattened to `[phases, visits, augmentations]`.
    type Finish =
        fn(&BipartiteGraph, Option<&Matching>, &mut AugmentWorkspace) -> (Matching, [usize; 3]);
    let finishers: [(&str, Finish); 4] = [
        ("hk", |g, init, ws| {
            let (m, s) = hopcroft_karp_ws(g, init, ws);
            (m, [s.phases, s.bfs_visits, s.augmentations])
        }),
        ("hk-par", |g, init, ws| {
            let (m, s) = hopcroft_karp_par_ws(g, init, ws);
            (m, [s.phases, s.bfs_visits, s.augmentations])
        }),
        ("pf-par", |g, init, ws| {
            let (m, s) = pothen_fan_par_ws(g, init, ws);
            (m, [s.phases, s.rows_visited, s.augmentations])
        }),
        ("pf-graft", |g, init, ws| {
            let (m, s) = pothen_fan_graft_ws(g, init, ws);
            (m, [s.phases, s.rows_visited, s.augmentations])
        }),
    ];
    // (instance, finisher, warm, rmates checksum, [phases, visits, augmentations])
    let expected: &[(&str, &str, bool, u64, [usize; 3])] = &[
        ("er", "hk", false, 4903392283756655605, [10, 36390, 4885]),
        ("er", "hk", true, 6796597585879255814, [9, 29908, 876]),
        ("er", "hk-par", false, 4903392283756655605, [10, 36390, 4885]),
        ("er", "hk-par", true, 6796597585879255814, [9, 29908, 876]),
        ("er", "pf-par", false, 8980673614843797559, [21, 68971, 4885]),
        ("er", "pf-par", true, 3226381634285603525, [20, 62666, 876]),
        ("er", "pf-graft", false, 17709543671415737263, [6, 25494, 4885]),
        ("er", "pf-graft", true, 6190890512746087477, [5, 20605, 876]),
        ("deg2", "hk", false, 5023001426207653553, [9, 22774, 3891]),
        ("deg2", "hk", true, 5306912702034575318, [8, 17923, 553]),
        ("deg2", "hk-par", false, 5023001426207653553, [9, 22774, 3891]),
        ("deg2", "hk-par", true, 5306912702034575318, [8, 17923, 553]),
        ("deg2", "pf-par", false, 4766500676326913794, [14, 23991, 3891]),
        ("deg2", "pf-par", true, 6869510917381508500, [14, 21113, 553]),
        ("deg2", "pf-graft", false, 4422689055908093522, [5, 11361, 3891]),
        ("deg2", "pf-graft", true, 11343028832631042846, [4, 7216, 553]),
    ];

    let instances = [
        ("er", dsmatch::gen::erdos_renyi_square(5_000, 4.0, 41)),
        ("deg2", dsmatch::gen::erdos_renyi_square(5_000, 2.0, 42)),
    ];
    let mut got = Vec::new();
    for (name, g) in &instances {
        let warm = cheap_random_edge(g, 7);
        for (finisher, finish) in finishers {
            for init in [None, Some(&warm)] {
                let (m, stats) = pool(1).install(|| finish(g, init, &mut AugmentWorkspace::new()));
                m.verify(g).unwrap();
                let (m4, stats4) =
                    pool(4).install(|| finish(g, init, &mut AugmentWorkspace::new()));
                assert_eq!(m4.rmates(), m.rmates(), "{name}/{finisher} differs at 4 threads");
                assert_eq!(stats4, stats, "{name}/{finisher} stats differ at 4 threads");
                got.push((*name, finisher, init.is_some(), fnv1a(m.rmates()), stats));
            }
        }
    }
    if got != expected {
        let table: String = got.iter().map(|row| format!("        {row:?},\n")).collect();
        panic!("finisher outputs moved; observed:\n{table}");
    }
}

/// FNV-1a over the bits of a scaling result and the two choice arrays
/// sampled from it: `dr`, `dc`, `history`, `error`, `rchoice`, `cchoice`.
fn scaling_fingerprint(s: &ScalingResult, rchoice: &[u32], cchoice: &[u32]) -> u64 {
    let floats = s.dr.iter().chain(&s.dc).chain(&s.history).chain([&s.error]);
    floats
        .flat_map(|x| x.to_bits().to_le_bytes())
        .chain(rchoice.iter().chain(cchoice).flat_map(|m| m.to_le_bytes()))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Golden outputs of the scaling kernels and of the two-sided sampler fed
/// by them, at pools 1, 2 and 4: every factor, error and history bit and
/// both choice arrays, for Sinkhorn–Knopp and Ruiz at 0, 1 and 5
/// iterations and at a tolerance stop, on a uniform ER instance, a sparse
/// one with empty rows and columns (both run the tolerance case to its
/// cap) and a mesh with total support (where the tolerance stops the
/// iteration early). The heuristic-stage cardinalities of four sampling
/// pipelines and the weight bits of a scaled `suitor` solve are pinned
/// alongside. A kernel rewrite that moves a single bit fails here.
#[test]
fn scaling_and_choices_are_pinned() {
    use dsmatch::engine::{Pipeline, Solver, Workspace};
    use dsmatch::heur::two_sided_choices_into;
    use dsmatch::scale::{ruiz_into, sinkhorn_knopp_into};

    type ScaleInto = fn(&BipartiteGraph, &ScalingConfig, &mut ScalingResult);
    let kernels: [(&str, ScaleInto); 2] = [("sk", sinkhorn_knopp_into), ("ruiz", ruiz_into)];
    let configs = [
        ("0", ScalingConfig::iterations(0)),
        ("1", ScalingConfig::iterations(1)),
        ("5", ScalingConfig::iterations(5)),
        ("tol", ScalingConfig::until(1e-3, 50)),
    ];
    let instances = [
        ("er8", dsmatch::gen::erdos_renyi_square(20_000, 8.0, 1)),
        ("er1.5", dsmatch::gen::erdos_renyi_square(30_000, 1.5, 3)),
        ("mesh", dsmatch::gen::grid_mesh(120, 150)),
    ];
    // (instance, kernel, config, iterations, fingerprint)
    let expected: &[(&str, &str, &str, usize, u64)] = &[
        ("er8", "sk", "0", 0, 9216069782835618564),
        ("er8", "sk", "1", 1, 4276356660137018053),
        ("er8", "sk", "5", 5, 13859308851010430433),
        ("er8", "sk", "tol", 50, 16365482715577510851),
        ("er8", "ruiz", "0", 0, 9216069782835618564),
        ("er8", "ruiz", "1", 1, 5889786392489085532),
        ("er8", "ruiz", "5", 5, 5250968450019945130),
        ("er8", "ruiz", "tol", 50, 13495076233114453993),
        ("er1.5", "sk", "0", 0, 16104737173612108283),
        ("er1.5", "sk", "1", 1, 3915920392326386827),
        ("er1.5", "sk", "5", 5, 16931787695764305061),
        ("er1.5", "sk", "tol", 50, 5413751019131397195),
        ("er1.5", "ruiz", "0", 0, 16104737173612108283),
        ("er1.5", "ruiz", "1", 1, 16882233817026701061),
        ("er1.5", "ruiz", "5", 5, 15865727848721480182),
        ("er1.5", "ruiz", "tol", 50, 3430219213710972600),
        ("mesh", "sk", "0", 0, 4993165837965287423),
        ("mesh", "sk", "1", 1, 7320785868361131043),
        ("mesh", "sk", "5", 5, 18128879194327232015),
        ("mesh", "sk", "tol", 21, 18291420616558742826),
        ("mesh", "ruiz", "0", 0, 4993165837965287423),
        ("mesh", "ruiz", "1", 1, 16687425128730619494),
        ("mesh", "ruiz", "5", 5, 7744506004827458642),
        ("mesh", "ruiz", "tol", 10, 4703608594845344000),
    ];
    let mut got = Vec::new();
    for (name, g) in &instances {
        for (kernel_name, kernel) in kernels {
            for (cfg_name, cfg) in &configs {
                let mut reference = None;
                for t in [1usize, 2, 4] {
                    let (mut s, mut rc, mut cc) = (ScalingResult::empty(), Vec::new(), Vec::new());
                    pool(t).install(|| {
                        kernel(g, cfg, &mut s);
                        two_sided_choices_into(g, &s, 11, &mut rc, &mut cc);
                    });
                    let fingerprint = scaling_fingerprint(&s, &rc, &cc);
                    let row = (*name, kernel_name, *cfg_name, s.iterations, fingerprint);
                    match reference {
                        None => reference = Some(row),
                        Some(r) => assert_eq!(row, r, "differs at {t} threads"),
                    }
                }
                got.extend(reference);
            }
        }
    }
    if got != expected {
        let table: String = got.iter().map(|row| format!("        {row:?},\n")).collect();
        panic!("scaling or choice outputs moved; observed:\n{table}");
    }

    // (instance, spec, heuristic-stage cardinality, weight bits)
    let expected: &[(&str, &str, usize, Option<u64>)] = &[
        ("er8", "scale:sk:5,two", 17423, None),
        ("er8", "scale:sk:5,one", 13329, None),
        ("er8", "two", 17065, None),
        ("er8", "scale:ruiz:3,two", 17364, None),
        ("er8", "scale:sk:5,suitor", 18923, Some(4660890648188726190)),
        ("er1.5", "scale:sk:5,two", 20115, None),
        ("er1.5", "scale:sk:5,one", 18910, None),
        ("er1.5", "two", 19369, None),
        ("er1.5", "scale:ruiz:3,two", 19598, None),
        ("er1.5", "scale:sk:5,suitor", 20337, Some(4670390824571444112)),
        ("mesh", "scale:sk:5,two", 15862, None),
        ("mesh", "scale:sk:5,one", 12115, None),
        ("mesh", "two", 15863, None),
        ("mesh", "scale:ruiz:3,two", 15864, None),
        ("mesh", "scale:sk:5,suitor", 17492, Some(4659985966776114884)),
    ];
    let mut got = Vec::new();
    for (name, g) in &instances {
        for spec in
            ["scale:sk:5,two", "scale:sk:5,one", "two", "scale:ruiz:3,two", "scale:sk:5,suitor"]
        {
            let pipeline: Pipeline = spec.parse().unwrap();
            let mut reference = None;
            for t in [1usize, 2, 4] {
                let report =
                    pipeline.clone().with_seed(5).solve(g, &mut Workspace::with_threads(t));
                report.matching.verify(g).unwrap();
                let heuristic = report.stages.last().and_then(|s| s.cardinality);
                let row = (*name, spec, heuristic.unwrap(), report.weight.map(f64::to_bits));
                match reference {
                    None => reference = Some(row),
                    Some(r) => assert_eq!(row, r, "{spec} differs at {t} threads"),
                }
            }
            got.extend(reference);
        }
    }
    if got != expected {
        let table: String = got.iter().map(|row| format!("        {row:?},\n")).collect();
        panic!("pipeline outputs moved; observed:\n{table}");
    }
}

/// Golden outputs of the weighted workloads at pools 1, 2 and 4: the row
/// mates (as an FNV-1a checksum) and the total weight bits of every
/// weighted heuristic fed by `sk:5` scaling, on the three instances of
/// [`scaling_and_choices_are_pinned`] plus a rectangular one. `suitor`,
/// `suitor-par` and `greedy-w` reach one fixed point under the total edge
/// order, so their rows agree. The `dm,` workload reports no weight; only
/// its mates are pinned. A rewrite of the weighted view or of a weighted
/// kernel that moves a single mate or weight bit fails here.
#[test]
fn weighted_workloads_are_pinned() {
    use dsmatch::engine::{Pipeline, Solver, Workspace};

    let instances = [
        ("er8", dsmatch::gen::erdos_renyi_square(20_000, 8.0, 1)),
        ("er1.5", dsmatch::gen::erdos_renyi_square(30_000, 1.5, 3)),
        ("mesh", dsmatch::gen::grid_mesh(120, 150)),
        ("rect", dsmatch::gen::erdos_renyi_rect(9_000, 12_000, 3.0, 7)),
    ];
    let specs = [
        "scale:sk:5,suitor",
        "scale:sk:5,suitor-par",
        "scale:sk:5,greedy-w",
        "scale:sk:5,path-grow",
        "dm,scale:sk:5,suitor",
    ];
    // (instance, spec, row-mates checksum, weight bits)
    let expected: &[(&str, &str, u64, Option<u64>)] = &[
        ("er8", "scale:sk:5,suitor", 2538034233584095647, Some(4660890648188726190)),
        ("er8", "scale:sk:5,suitor-par", 2538034233584095647, Some(4660890648188726190)),
        ("er8", "scale:sk:5,greedy-w", 2538034233584095647, Some(4660890648188726190)),
        ("er8", "scale:sk:5,path-grow", 8919563510138657703, Some(4660501008855556798)),
        ("er8", "dm,scale:sk:5,suitor", 16520146703969796870, None),
        ("er1.5", "scale:sk:5,suitor", 4421959915225934579, Some(4670390824571444112)),
        ("er1.5", "scale:sk:5,suitor-par", 4421959915225934579, Some(4670390824571444112)),
        ("er1.5", "scale:sk:5,greedy-w", 4421959915225934579, Some(4670390824571444112)),
        ("er1.5", "scale:sk:5,path-grow", 3952486211417964190, Some(4670291879032221577)),
        ("er1.5", "dm,scale:sk:5,suitor", 11734142070004088596, None),
        ("mesh", "scale:sk:5,suitor", 16672846182190508877, Some(4659985966776114884)),
        ("mesh", "scale:sk:5,suitor-par", 16672846182190508877, Some(4659985966776114884)),
        ("mesh", "scale:sk:5,greedy-w", 16672846182190508877, Some(4659985966776114884)),
        ("mesh", "scale:sk:5,path-grow", 18263025303478071148, Some(4660059322325611426)),
        ("mesh", "dm,scale:sk:5,suitor", 16672846182190508877, None),
        ("rect", "scale:sk:5,suitor", 9989061463115151422, Some(4661862243420774549)),
        ("rect", "scale:sk:5,suitor-par", 9989061463115151422, Some(4661862243420774549)),
        ("rect", "scale:sk:5,greedy-w", 9989061463115151422, Some(4661862243420774549)),
        ("rect", "scale:sk:5,path-grow", 15580876568073401459, Some(4661812469126503093)),
        ("rect", "dm,scale:sk:5,suitor", 9036088220523962321, None),
    ];
    let mut got = Vec::new();
    for (name, g) in &instances {
        for spec in specs {
            let pipeline: Pipeline = spec.parse().unwrap();
            let mut reference = None;
            for t in [1usize, 2, 4] {
                let report = pipeline.solve(g, &mut Workspace::with_threads(t));
                report.matching.verify(g).unwrap();
                let row =
                    (*name, spec, fnv1a(report.matching.rmates()), report.weight.map(f64::to_bits));
                match reference {
                    None => reference = Some(row),
                    Some(r) => assert_eq!(row, r, "{spec} differs at {t} threads"),
                }
            }
            got.extend(reference);
        }
    }
    if got != expected {
        let table: String = got.iter().map(|row| format!("        {row:?},\n")).collect();
        panic!("weighted outputs moved; observed:\n{table}");
    }
}

/// `one_sided_match` under real pools: the matched-column set and the
/// cardinality are a pure function of the seed; every schedule's matching
/// is valid. (The winning row per column is a benign race by design.)
#[test]
fn one_sided_column_set_invariant_across_pools() {
    use dsmatch::heur::{one_sided_match, OneSidedConfig};
    let g = dsmatch::gen::erdos_renyi_square(15_000, 4.0, 21);
    let cfg = OneSidedConfig { scaling: ScalingConfig::iterations(4), seed: 77 };
    let reference = pool(1).install(|| one_sided_match(&g, &cfg));
    for t in [2usize, 4] {
        let m = pool(t).install(|| one_sided_match(&g, &cfg));
        m.verify(&g).unwrap();
        assert_eq!(m.cardinality(), reference.cardinality(), "threads={t}");
        for j in 0..g.ncols() {
            assert_eq!(m.is_col_matched(j), reference.is_col_matched(j), "col {j}, threads={t}");
        }
    }
}
