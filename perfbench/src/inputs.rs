//! Deterministic inputs: every instance, warm start, delta script and job
//! order is a pure function of the workload seed, built inside a pinned
//! 1-thread pool so neither the ambient pool nor `RAYON_NUM_THREADS` can
//! change it, and summarised by a fingerprint that must repeat exactly.

use dsmatch::engine::{Pipeline, Solver, Workspace};
use dsmatch_graph::{BipartiteGraph, Matching, NIL};
use dsmatch_json::Json;

/// Average degree of every generated instance.
pub const DEGREE: f64 = 8.0;

/// 64-bit FNV-1a: a stable hash for fingerprints (independent of the
/// standard library's hasher, whose output may change between releases).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn u32s(&mut self, xs: &[u32]) {
        for &x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The benchmark's own SplitMix64 stream, kept separate from the
/// library's generator so the job scripts do not move when the library's
/// PRNG does.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Run `op` inside a freshly built pool of exactly one worker.
pub fn pinned<R: Send>(op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a 1-thread pool can always be built")
        .install(op)
}

/// Seed of the `k`-th derived input of a workload seed (instances,
/// handles and scripts each take their own `k`).
pub fn derive(seed: u64, k: u64) -> u64 {
    Rng::new(seed, k).next_u64() >> 1
}

/// The `er` instance with `n` rows, built in a pinned 1-thread pool.
pub fn er(n: usize, seed: u64) -> BipartiteGraph {
    pinned(|| dsmatch_gen::erdos_renyi_square(n, DEGREE, seed))
}

/// The heuristic warm start every finisher measurement starts from:
/// `scale:sk:5,two` at `seed`, solved in a pinned 1-thread pool.
pub fn warm_start(g: &BipartiteGraph, seed: u64) -> Matching {
    let two: Pipeline = "scale:sk:5,two".parse().expect("valid spec");
    pinned(|| two.with_seed(seed).solve(g, &mut Workspace::new()).matching)
}

/// Structural rank, computed in a pinned pool (reference work: never
/// inside a timed section).
pub fn sprank(g: &BipartiteGraph) -> usize {
    pinned(|| dsmatch_exact::sprank(g))
}

pub fn hash_graph(h: &mut Fnv, g: &BipartiteGraph) {
    h.u64(g.nrows() as u64);
    h.u64(g.ncols() as u64);
    for &p in g.csr().row_ptr() {
        h.u64(p as u64);
    }
    h.u32s(g.csr().col_idx());
}

pub fn hash_mates(h: &mut Fnv, m: &Matching) {
    h.u32s(m.rmates());
}

pub fn hex(x: u64) -> Json {
    Json::from(format!("{x:016x}"))
}

/// Edge list of a delta step, as `(row, col)` pairs.
pub type Edges = Vec<(usize, usize)>;

/// One delta step: `k` random additions and `k` removals of currently
/// matched edges, chosen from `mates` with `rng`.
pub fn delta_step(g: &BipartiteGraph, mates: &Matching, k: usize, rng: &mut Rng) -> (Edges, Edges) {
    let (nr, nc) = (g.nrows(), g.ncols());
    let add = (0..k).map(|_| (rng.below(nr), rng.below(nc))).collect();
    let mut remove = Vec::with_capacity(k);
    for _ in 0..8 * k {
        if remove.len() == k {
            break;
        }
        let i = rng.below(nr);
        let j = mates.rmate(i);
        if j != NIL && !remove.contains(&(i, j as usize)) {
            remove.push((i, j as usize));
        }
    }
    (add, remove)
}

/// Apply a delta the way the daemon does: patch the CSR, then keep the
/// mates whose edge survived.
pub fn apply_delta(
    g: &BipartiteGraph,
    mates: &Matching,
    add: &[(usize, usize)],
    remove: &[(usize, usize)],
) -> (BipartiteGraph, Matching) {
    let mutated = BipartiteGraph::from_csr(g.csr().patched(add, remove));
    let mut rmate = mates.rmates().to_vec();
    let mut cmate = mates.cmates().to_vec();
    for (i, slot) in rmate.iter_mut().enumerate() {
        let j = *slot;
        if j != NIL && !mutated.csr().contains(i, j as usize) {
            cmate[j as usize] = NIL;
            *slot = NIL;
        }
    }
    (mutated, Matching::from_mates(rmate, cmate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(derive(1, 0), derive(2, 0));
    }

    #[test]
    fn fnv_known_value() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn inputs_do_not_depend_on_the_ambient_pool() {
        let fingerprint = || {
            let g = er(2_000, 11);
            let m = warm_start(&g, 3);
            let mut h = Fnv::new();
            hash_graph(&mut h, &g);
            hash_mates(&mut h, &m);
            h.finish()
        };
        let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let four = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(one.install(fingerprint), four.install(fingerprint));
    }

    #[test]
    fn delta_removes_only_matched_edges_and_prunes_their_mates() {
        let g = er(1_000, 5);
        let m = warm_start(&g, 1);
        let (add, remove) = delta_step(&g, &m, 8, &mut Rng::new(9, 0));
        assert_eq!(add.len(), 8);
        assert_eq!(remove.len(), 8);
        assert!(remove.iter().all(|&(i, j)| m.rmate(i) as usize == j));
        let (g2, pruned) = apply_delta(&g, &m, &add, &remove);
        pruned.verify(&g2).unwrap();
        assert_eq!(pruned.cardinality(), m.cardinality() - 8);
    }
}
