//! Random neighbour sampling from scaled entries.
//!
//! Algorithm 2, line 5 of the paper: row `i` picks column `j ∈ A_i*` with
//! probability `p_i(k) = s_ik / Σ_ℓ s_iℓ` where `s_ik = dr[i]·dc[k]`.
//! Because the matrix is a (0,1) pattern, the factor `dr[i]` is constant
//! within the row and **cancels**: the weight of neighbour `k` is simply
//! `dc[k]`. The same holds column-side with `dr`.
//!
//! The paper's implementation — "choose a random number r from a uniform
//! distribution with range `(0, Σ_k s_ik]`, then find the smallest column
//! index j for which the prefix sum reaches r" — is an `O(deg)` linear scan,
//! which we reproduce in [`sample_neighbor`]. The totals `Σ_k dc[k]` (and
//! `Σ_k dr[k]` column-side) need no pass of their own: scaling already
//! formed them, and [`ScalingResult`](dsmatch_scale::ScalingResult)'s
//! `row_sums`/`col_sums` keep them, bit-equal to a fresh sum. The samplers
//! read them from there and, in debug builds only, check them against a
//! fresh sum (`debug_assert_total`).

use dsmatch_graph::{SplitMix64, VertexId, NIL};

/// Sample one neighbour from `adj` with weights `weights[adj[k]]`.
///
/// `total` must equal `Σ_k weights[adj[k]]` (up to round-off). Returns
/// [`NIL`] when `adj` is empty or the total weight is not positive.
///
/// The scan is robust to floating-point round-off: if accumulated error
/// makes the scan run past the end, the last neighbour is returned.
#[inline]
pub fn sample_neighbor(
    adj: &[VertexId],
    weights: &[f64],
    total: f64,
    rng: &mut SplitMix64,
) -> VertexId {
    if adj.is_empty() || total <= 0.0 || total.is_nan() {
        return NIL;
    }
    let r = rng.next_f64_open_closed(total);
    let mut acc = 0.0f64;
    for &k in adj {
        acc += weights[k as usize];
        if acc >= r {
            return k;
        }
    }
    *adj.last().unwrap()
}

/// Debug-build guard on a sampling total taken from a `ScalingResult`:
/// it must be bit-equal to a fresh `Σ_k weights[adj[k]]`. Editing `dr` or
/// `dc` after scaling trips this instead of sampling with stale totals.
#[inline]
pub(crate) fn debug_assert_total(adj: &[VertexId], weights: &[f64], total: f64) {
    debug_assert_eq!(
        total.to_bits(),
        adj.iter().map(|&k| weights[k as usize]).sum::<f64>().to_bits(),
        "stale sampling total: the scaling's sums no longer match its factors"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_adjacency_gives_nil() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(sample_neighbor(&[], &[], 0.0, &mut rng), NIL);
    }

    #[test]
    fn single_neighbor_always_chosen() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..32 {
            assert_eq!(sample_neighbor(&[5], &[0.0; 6], 0.0, &mut rng), NIL); // zero total
        }
        let w = [0.0, 0.0, 0.0, 0.25];
        for _ in 0..32 {
            assert_eq!(sample_neighbor(&[3], &w, 0.25, &mut rng), 3);
        }
    }

    #[test]
    fn zero_weight_neighbors_never_chosen() {
        // Weight pattern [0, 1, 0]: only the middle neighbour can win.
        let w = [0.0, 1.0, 0.0];
        let adj = [0u32, 1, 2];
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            assert_eq!(sample_neighbor(&adj, &w, 1.0, &mut rng), 1);
        }
    }

    #[test]
    fn empirical_distribution_tracks_weights() {
        // Weights 1:2:5 → frequencies ~ 12.5% : 25% : 62.5%.
        let w = [1.0, 2.0, 5.0];
        let adj = [0u32, 1, 2];
        let total = 8.0;
        let mut rng = SplitMix64::new(4);
        let mut counts = [0usize; 3];
        let trials = 80_000;
        for _ in 0..trials {
            counts[sample_neighbor(&adj, &w, total, &mut rng) as usize] += 1;
        }
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / trials as f64).collect();
        assert!((freq[0] - 0.125).abs() < 0.01, "{freq:?}");
        assert!((freq[1] - 0.250).abs() < 0.01, "{freq:?}");
        assert!((freq[2] - 0.625).abs() < 0.01, "{freq:?}");
    }

    #[test]
    fn roundoff_falls_back_to_last() {
        // total passed slightly larger than the true sum: scan may pass the
        // end; last neighbour must be returned, never NIL / panic.
        let w = [1e-30, 1e-30];
        let adj = [0u32, 1];
        let mut rng = SplitMix64::new(9);
        for _ in 0..100 {
            let j = sample_neighbor(&adj, &w, 1.0, &mut rng);
            assert!(j == 0 || j == 1);
        }
    }
}
