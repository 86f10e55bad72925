//! Coarse Dulmage–Mendelsohn decomposition.
//!
//! Given a maximum matching `M`:
//!
//! - the **horizontal** part `H` is everything reachable from unmatched
//!   *columns* by alternating paths (column → row through any edge,
//!   row → column through its matching edge);
//! - the **vertical** part `V` is everything reachable from unmatched
//!   *rows* by alternating paths (row → column through any edge,
//!   column → row through its matching edge);
//! - the **square** part `S` is the remainder, which `M` matches perfectly.
//!
//! `H` and `V` are disjoint (an intersection would expose an augmenting
//! path, contradicting maximality), every row of `H` and every column of
//! `V` is matched, and the partition is independent of which maximum
//! matching is used — all properties checked by the tests below.

use dsmatch_exact::push_relabel;
use dsmatch_graph::{BipartiteGraph, Matching, NIL};

/// Which coarse block a vertex belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoarsePart {
    /// Underdetermined part (more columns than rows).
    Horizontal,
    /// Perfectly matched square part.
    Square,
    /// Overdetermined part (more rows than columns).
    Vertical,
}

/// The coarse decomposition.
#[derive(Clone, Debug)]
pub struct DmDecomposition {
    /// Block of each row vertex.
    pub row_part: Vec<CoarsePart>,
    /// Block of each column vertex.
    pub col_part: Vec<CoarsePart>,
    /// The maximum matching the decomposition was derived from.
    pub matching: Matching,
    /// Rows in `H` (all matched).
    pub h_rows: usize,
    /// Columns in `H` (includes every unmatched column).
    pub h_cols: usize,
    /// Rows in `S`.
    pub s_rows: usize,
    /// Columns in `S` (equals `s_rows`).
    pub s_cols: usize,
    /// Rows in `V` (includes every unmatched row).
    pub v_rows: usize,
    /// Columns in `V` (all matched).
    pub v_cols: usize,
}

/// Compute the coarse DM decomposition, finding a maximum matching with
/// push-relabel first (any maximum matching gives the same partition).
///
/// ```
/// use dsmatch_dm::dulmage_mendelsohn;
/// use dsmatch_graph::{BipartiteGraph, Csr};
///
/// // Two rows competing for one column: a vertical (overdetermined) part.
/// let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1], &[1]]));
/// let dm = dulmage_mendelsohn(&g);
/// assert_eq!(dm.v_rows, 2);
/// assert_eq!(dm.v_cols, 1);
/// assert_eq!(dm.sprank(), 1);
/// ```
pub fn dulmage_mendelsohn(g: &BipartiteGraph) -> DmDecomposition {
    dulmage_mendelsohn_with(g, push_relabel(g))
}

/// Compute the coarse DM decomposition from a **maximum** matching.
///
/// # Panics
/// If `matching` is invalid for `g`. (If it is valid but not maximum the
/// partition produced is meaningless; debug builds detect the telltale
/// H ∩ V overlap and panic.)
pub fn dulmage_mendelsohn_with(g: &BipartiteGraph, matching: Matching) -> DmDecomposition {
    matching.verify(g).expect("DM requires a valid matching");
    let n_r = g.nrows();
    let n_c = g.ncols();

    let mut row_h = vec![false; n_r];
    let mut col_h = vec![false; n_c];
    // BFS from unmatched columns: col --any edge--> row --matching--> col.
    let mut queue: Vec<u32> =
        (0..n_c as u32).filter(|&j| matching.cmate(j as usize) == NIL).collect();
    for &j in &queue {
        col_h[j as usize] = true;
    }
    let mut head = 0;
    while head < queue.len() {
        let j = queue[head] as usize;
        head += 1;
        for &i in g.col_adj(j) {
            let i = i as usize;
            if row_h[i] {
                continue;
            }
            row_h[i] = true;
            let jm = matching.rmate(i);
            debug_assert_ne!(jm, NIL, "H-row must be matched if the matching is maximum");
            if jm != NIL && !col_h[jm as usize] {
                col_h[jm as usize] = true;
                queue.push(jm);
            }
        }
    }

    let mut row_v = vec![false; n_r];
    let mut col_v = vec![false; n_c];
    // BFS from unmatched rows: row --any edge--> col --matching--> row.
    let mut queue: Vec<u32> =
        (0..n_r as u32).filter(|&i| matching.rmate(i as usize) == NIL).collect();
    for &i in &queue {
        row_v[i as usize] = true;
    }
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head] as usize;
        head += 1;
        for &j in g.row_adj(i) {
            let j = j as usize;
            if col_v[j] {
                continue;
            }
            col_v[j] = true;
            let im = matching.cmate(j);
            debug_assert_ne!(im, NIL, "V-column must be matched if the matching is maximum");
            if im != NIL && !row_v[im as usize] {
                row_v[im as usize] = true;
                queue.push(im);
            }
        }
    }

    let mut row_part = Vec::with_capacity(n_r);
    for i in 0..n_r {
        debug_assert!(!(row_h[i] && row_v[i]), "H ∩ V non-empty: matching was not maximum");
        row_part.push(if row_h[i] {
            CoarsePart::Horizontal
        } else if row_v[i] {
            CoarsePart::Vertical
        } else {
            CoarsePart::Square
        });
    }
    let mut col_part = Vec::with_capacity(n_c);
    for j in 0..n_c {
        debug_assert!(!(col_h[j] && col_v[j]), "H ∩ V non-empty on columns");
        col_part.push(if col_h[j] {
            CoarsePart::Horizontal
        } else if col_v[j] {
            CoarsePart::Vertical
        } else {
            CoarsePart::Square
        });
    }

    let count = |parts: &[CoarsePart], p: CoarsePart| parts.iter().filter(|&&x| x == p).count();
    DmDecomposition {
        h_rows: count(&row_part, CoarsePart::Horizontal),
        h_cols: count(&col_part, CoarsePart::Horizontal),
        s_rows: count(&row_part, CoarsePart::Square),
        s_cols: count(&col_part, CoarsePart::Square),
        v_rows: count(&row_part, CoarsePart::Vertical),
        v_cols: count(&col_part, CoarsePart::Vertical),
        row_part,
        col_part,
        matching,
    }
}

impl DmDecomposition {
    /// Maximum matching cardinality implied by the partition:
    /// `h_rows + s_rows + v_cols` (König-style count).
    pub fn sprank(&self) -> usize {
        self.h_rows + self.s_rows + self.v_cols
    }

    /// Check the zero-block structure: no edge may run from an `S` or `V`
    /// row to an `H` column, nor from a `V` row to an `S` column.
    pub fn verify_zero_blocks(&self, g: &BipartiteGraph) -> bool {
        g.csr().iter_entries().all(|(i, j)| {
            !matches!(
                (self.row_part[i], self.col_part[j]),
                (CoarsePart::Square, CoarsePart::Horizontal)
                    | (CoarsePart::Vertical, CoarsePart::Horizontal)
                    | (CoarsePart::Vertical, CoarsePart::Square)
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    #[test]
    fn perfect_matching_is_all_square() {
        let g = dsmatch_gen::ring(10);
        let dm = dulmage_mendelsohn(&g);
        assert_eq!(dm.s_rows, 10);
        assert_eq!(dm.s_cols, 10);
        assert_eq!(dm.h_rows + dm.h_cols + dm.v_rows + dm.v_cols, 0);
        assert_eq!(dm.sprank(), 10);
        assert!(dm.verify_zero_blocks(&g));
    }

    #[test]
    fn wide_matrix_is_horizontal() {
        let g = graph(&[&[1, 1, 1]]);
        let dm = dulmage_mendelsohn(&g);
        assert_eq!(dm.h_rows, 1);
        assert_eq!(dm.h_cols, 3);
        assert_eq!(dm.s_rows, 0);
        assert_eq!(dm.sprank(), 1);
    }

    #[test]
    fn tall_matrix_is_vertical() {
        let g = graph(&[&[1], &[1], &[1]]);
        let dm = dulmage_mendelsohn(&g);
        assert_eq!(dm.v_rows, 3);
        assert_eq!(dm.v_cols, 1);
        assert_eq!(dm.sprank(), 1);
    }

    #[test]
    fn mixed_structure() {
        // Rows 0–1 compete for column 0 (vertical part); column 1 and 2
        // hang off row 2 (horizontal part).
        let g = graph(&[&[1, 0, 0], &[1, 0, 0], &[0, 1, 1]]);
        let dm = dulmage_mendelsohn(&g);
        assert_eq!(dm.v_rows, 2, "{dm:?}");
        assert_eq!(dm.v_cols, 1);
        assert_eq!(dm.h_rows, 1);
        assert_eq!(dm.h_cols, 2);
        assert_eq!(dm.s_rows, 0);
        assert_eq!(dm.sprank(), 2);
        assert!(dm.verify_zero_blocks(&g));
    }

    #[test]
    fn unmatched_vertices_land_in_their_parts() {
        let g = graph(&[&[1, 1, 0], &[1, 1, 0], &[1, 1, 0], &[0, 0, 1]]);
        let dm = dulmage_mendelsohn(&g);
        // Three rows over two columns + isolated-ish square pair.
        assert_eq!(dm.v_rows, 3);
        assert_eq!(dm.v_cols, 2);
        assert_eq!(dm.s_rows, 1);
        assert_eq!(dm.sprank(), 3);
    }

    #[test]
    fn partition_independent_of_matching() {
        // Two different maximum matchings must give the same partition.
        let g = graph(&[&[1, 1, 0], &[1, 1, 0], &[0, 1, 1]]);
        let a = dulmage_mendelsohn(&g);
        // Build an alternative maximum matching by hand.
        let mut m = Matching::new(3, 3);
        m.set(0, 1);
        m.set(1, 0);
        m.set(2, 2);
        let b = dulmage_mendelsohn_with(&g, m);
        assert_eq!(a.row_part, b.row_part);
        assert_eq!(a.col_part, b.col_part);
    }

    /// `dulmage_mendelsohn` (push-relabel) against the Hopcroft–Karp
    /// reference: the same coarse partition and counts, and fine
    /// decompositions with the same number and sizes of blocks.
    fn assert_engine_independent(g: &BipartiteGraph, label: &str) {
        let dm = dulmage_mendelsohn(g);
        let reference = dulmage_mendelsohn_with(g, dsmatch_exact::hopcroft_karp(g));
        assert_eq!(dm.row_part, reference.row_part, "{label}: row parts");
        assert_eq!(dm.col_part, reference.col_part, "{label}: column parts");
        let counts =
            |d: &DmDecomposition| [d.h_rows, d.h_cols, d.s_rows, d.s_cols, d.v_rows, d.v_cols];
        assert_eq!(counts(&dm), counts(&reference), "{label}: counts");
        let blocks = |d: &DmDecomposition| {
            let fine = crate::fine_decomposition(g, d);
            let mut sizes = fine.block_sizes;
            sizes.sort_unstable();
            (fine.block_count, sizes)
        };
        assert_eq!(blocks(&dm), blocks(&reference), "{label}: fine blocks");
    }

    #[test]
    fn partition_does_not_depend_on_the_matching_engine() {
        for (label, g) in [
            ("er d = 1.5", dsmatch_gen::erdos_renyi_square(3000, 1.5, 1)),
            ("er d = 2", dsmatch_gen::erdos_renyi_square(3000, 2.0, 2)),
            ("rect", dsmatch_gen::erdos_renyi_rect(2000, 3000, 3.0, 3)),
            ("mesh", dsmatch_gen::grid_mesh(40, 50)),
        ] {
            assert_engine_independent(&g, label);
        }
    }

    #[test]
    fn sprank_matches_hopcroft_karp_on_random() {
        use dsmatch_graph::SplitMix64;
        let mut rng = SplitMix64::new(5);
        for _ in 0..50 {
            let n = 12;
            let mut t = dsmatch_graph::TripletMatrix::new(n, n);
            for i in 0..n {
                for j in 0..n {
                    if rng.next_below(4) == 0 {
                        t.push(i, j);
                    }
                }
            }
            let g = BipartiteGraph::from_csr(t.into_csr());
            let dm = dulmage_mendelsohn(&g);
            assert_eq!(dm.sprank(), dsmatch_exact::sprank(&g));
            assert!(dm.verify_zero_blocks(&g));
            assert_eq!(dm.s_rows, dm.s_cols);
            assert_engine_independent(&g, "random 12 × 12");
        }
    }
}
