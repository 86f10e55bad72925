//! # dsmatch-core — the paper's matching heuristics
//!
//! Implements the two heuristics of Dufossé, Kaya & Uçar (RR-8386 / IPPS
//! 2014) plus the baselines they are evaluated against:
//!
//! | Paper name | Here | Guarantee |
//! |---|---|---|
//! | `OneSidedMatch` (Alg. 2) | [`one_sided_match`] | ≥ (1 − 1/e) ≈ 0.632 (Theorem 1) |
//! | `TwoSidedMatch` (Alg. 3) | [`two_sided_match`] | ≈ 0.866 (Conjecture 1) |
//! | `KarpSipserMT` (Alg. 4)  | [`karp_sipser_mt`] | exact on 1-out ∪ 1-in subgraphs |
//! | Karp–Sipser (§2.1)       | [`karp_sipser`] | exact on very sparse random graphs |
//! | cheap matching, edge variant (§2.1) | [`cheap_random_edge`] | 1/2 |
//! | cheap matching, vertex variant (§2.1) | [`cheap_random_vertex`] | 1/2 + ε |
//!
//! Every randomized entry point takes a 64-bit seed and derives per-vertex
//! PRNG streams, so the sampled subgraph — and with it the cardinality and
//! every quality guarantee — is **identical for every thread count**, the
//! property that lets the paper claim the guarantees do not deteriorate
//! with parallelism. Under a genuinely parallel pool the concrete mate
//! arrays of the racy kernels (`one_sided_match`'s last-writer-wins slots,
//! `karp_sipser_mt`'s CAS claims) remain schedule-dependent by design;
//! only validity, maximality and cardinality are invariant.
//!
//! Parallel functions run in the ambient Rayon pool. To pin a thread count
//! (as the paper's 1/2/4/8/16-thread experiments do), install them inside
//! `rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap().install(…)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain_stats;
mod cheap;
mod karp_sipser;
mod ks_mt;
mod one_out_undirected;
mod one_sided;
mod sample;
mod two_sided;
mod workspace;

pub use chain_stats::{ks_mt_chain_stats, ChainStats};
pub use cheap::{cheap_random_edge, cheap_random_vertex};
pub use karp_sipser::{
    karp_sipser, karp_sipser_cancel_ws, karp_sipser_matching, karp_sipser_ws, KarpSipserConfig,
    KarpSipserScratch, KarpSipserStats,
};
pub use ks_mt::{
    choice_subgraph, karp_sipser_mt, karp_sipser_mt_cancel_ws, karp_sipser_mt_seq,
    karp_sipser_mt_ws, KsMtScratch,
};
pub use one_out_undirected::{one_out_choices, one_out_matching, one_out_undirected, OneOutConfig};
pub use one_sided::{
    one_sided_match, one_sided_match_seq, one_sided_match_with_scaling, one_sided_match_ws,
    OneSidedConfig,
};
pub use sample::sample_neighbor;
pub use two_sided::{
    two_sided_choices, two_sided_choices_into, two_sided_match, two_sided_match_cancel_ws,
    two_sided_match_seq, two_sided_match_with_scaling, two_sided_match_ws, TwoSidedConfig,
};
pub use workspace::HeurWorkspace;

/// Theorem 1's approximation guarantee: `1 − 1/e`.
pub const ONE_SIDED_GUARANTEE: f64 = 1.0 - std::f64::consts::E.recip();

/// Conjecture 1's ratio `2(1 − ρ)` where `ρ·e^ρ = 1` (ρ ≈ 0.5671432904…,
/// the Omega constant), giving ≈ 0.8657.
pub const TWO_SIDED_CONJECTURE: f64 = 2.0 * (1.0 - 0.567_143_290_409_783_8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_constants() {
        assert!((ONE_SIDED_GUARANTEE - 0.632).abs() < 1e-3);
        assert!((TWO_SIDED_CONJECTURE - 0.866).abs() < 1e-3);
        // ρ·e^ρ = 1 for ρ = 1 − TWO_SIDED_CONJECTURE / 2.
        let rho = 1.0 - TWO_SIDED_CONJECTURE / 2.0;
        assert!((rho * rho.exp() - 1.0).abs() < 1e-12);
    }
}
