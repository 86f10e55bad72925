//! Degree statistics for experiment reporting.
//!
//! §4.2 of the paper explains the scalability outliers (`torso1`,
//! `audikw_1`) by the **variance of the number of nonzeros per row**: high
//! variance ⇒ load imbalance under static chunking. The harness therefore
//! reports the same statistics for every instance it runs, and the surrogate
//! suite (in `dsmatch-gen`) is calibrated against them.

use crate::csr::Csr;

/// Summary statistics of a degree sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance (the quantity quoted in the paper: 176056 for
    /// `torso1`, 1802 for `audikw_1`, 42 for `kkt_power`).
    pub variance: f64,
}

impl DegreeStats {
    /// Compute from a degree sequence.
    pub fn from_degrees<I: IntoIterator<Item = usize>>(degrees: I) -> Self {
        let mut n = 0usize;
        let mut sum = 0f64;
        let mut sumsq = 0f64;
        let mut min = usize::MAX;
        let mut max = 0usize;
        for d in degrees {
            n += 1;
            sum += d as f64;
            sumsq += (d * d) as f64;
            min = min.min(d);
            max = max.max(d);
        }
        if n == 0 {
            return Self { min: 0, max: 0, mean: 0.0, variance: 0.0 };
        }
        let mean = sum / n as f64;
        let variance = (sumsq / n as f64 - mean * mean).max(0.0);
        Self { min, max, mean, variance }
    }

    /// Row-degree statistics of a matrix.
    pub fn rows_of(a: &Csr) -> Self {
        Self::from_degrees((0..a.nrows()).map(|i| a.row_degree(i)))
    }

    /// Column-degree statistics of a matrix.
    pub fn cols_of(a: &Csr) -> Self {
        Self::from_degrees(a.col_degrees().into_iter().map(|d| d as usize))
    }

    /// Coefficient of variation `σ / mean` — a scale-free skew measure
    /// (`0` for regular degree sequences, `> 1` for heavy-tailed ones such
    /// as RMAT/power-law families). `0` when the mean is zero.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.variance.sqrt() / self.mean
        }
    }
}

impl std::fmt::Display for DegreeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {} / max {} / mean {:.2} / var {:.1}",
            self.min, self.max, self.mean, self.variance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_degrees_have_zero_variance() {
        let s = DegreeStats::from_degrees([3usize, 3, 3, 3]);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 3);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn variance_of_known_sequence() {
        // degrees 1, 3: mean 2, variance 1.
        let s = DegreeStats::from_degrees([1usize, 3]);
        assert_eq!(s.mean, 2.0);
        assert!((s.variance - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 3);
    }

    #[test]
    fn empty_sequence() {
        let s = DegreeStats::from_degrees(std::iter::empty());
        assert_eq!(s, DegreeStats { min: 0, max: 0, mean: 0.0, variance: 0.0 });
    }

    #[test]
    fn matrix_row_and_col_stats() {
        let a = Csr::from_dense(&[&[1, 1, 1], &[1, 0, 0], &[0, 0, 0]]);
        let r = DegreeStats::rows_of(&a);
        assert_eq!(r.min, 0);
        assert_eq!(r.max, 3);
        assert!((r.mean - 4.0 / 3.0).abs() < 1e-12);
        let c = DegreeStats::cols_of(&a);
        assert_eq!(c.max, 2);
        assert_eq!(c.min, 1);
    }

    #[test]
    fn cv_is_scale_free() {
        assert_eq!(DegreeStats::from_degrees([4usize, 4, 4]).cv(), 0.0);
        assert_eq!(DegreeStats::from_degrees(std::iter::empty()).cv(), 0.0);
        // degrees 1, 3: mean 2, σ 1 ⇒ cv 0.5; scaling by 10 keeps cv.
        assert!((DegreeStats::from_degrees([1usize, 3]).cv() - 0.5).abs() < 1e-12);
        assert!((DegreeStats::from_degrees([10usize, 30]).cv() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_humane() {
        let s = DegreeStats::from_degrees([2usize, 4]);
        let text = s.to_string();
        assert!(text.contains("min 2"));
        assert!(text.contains("max 4"));
    }
}
