//! # dsmatch-gen — instance generators
//!
//! Synthetic instances substituting for the paper's workloads (the UFL
//! matrices are not available offline; [`suite`] says what each surrogate
//! matches):
//!
//! - [`erdos_renyi_square`] / [`erdos_renyi_rect`] — MATLAB `sprand`
//!   equivalents (Erdős–Rényi random patterns) used by the paper's Table 2
//!   sprank-deficiency study;
//! - [`adversarial_ks`] — the Figure-2 family engineered to defeat the
//!   classic Karp–Sipser heuristic (Table 1);
//! - [`dense_ones`] — the all-ones matrix of the Conjecture-1 discussion
//!   (its scaled sampling is the random 1-out model);
//! - [`chung_lu`] — skewed (power-law-ish) degree sequences reproducing the
//!   high row-variance matrices (`torso1`, `audikw_1`) that drive the
//!   paper's load-imbalance observations;
//! - [`grid_mesh`] — 5-point-stencil meshes standing in for the PDE
//!   matrices (`atmosmodl`, `venturiLevel3`, …);
//! - [`random_regular`] — near-`d`-regular patterns (road-network-like,
//!   `europe_osm` / `road_usa` have avg degree ≈ 2);
//! - [`rmat`] — Graph500-style recursive-matrix patterns with
//!   hierarchical skew;
//! - [`ring`] / [`path_graph`] / [`permutation`] — structured instances for
//!   tests and examples;
//! - [`suite`] — named surrogate configurations for the 12 UFL matrices of
//!   the paper's Table 3 / Figures 3–5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod random;
mod rmat;
mod structured;
pub mod suite;

pub use adversarial::adversarial_ks;
pub use random::{chung_lu, erdos_renyi_rect, erdos_renyi_square, random_regular};
pub use rmat::{rmat, RmatParams};
pub use structured::{dense_ones, grid_mesh, path_graph, permutation, ring};
