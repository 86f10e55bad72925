//! Order statistics used by every metric the benchmark prints.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Percentile `p` in `[0, 1]` with linear interpolation between closest
/// ranks (rank `p · (n − 1)`), the convention of numpy's default. `NaN`
/// for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// `"exclusive"` method). `None` below two samples, where Python raises.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a metric's bound is checked against.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let q = quartiles(xs)?;
    let mid = median(xs);
    (mid != 0.0).then(|| (q[2] - q[0]) / mid.abs())
}

/// How many samples lie strictly above percentile `p`: a tail percentile
/// is only reported as meaningful with at least ten samples beyond it.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    let cut = percentile(xs, p);
    xs.iter().filter(|&&x| x > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 11.0);
        assert_eq!(percentile(&xs, 0.95), 10.5);
        assert_eq!(percentile(&[2.0], 0.95), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values printed by Python 3.11's
        // `statistics.quantiles(data, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [2.75, 5.5, 8.25]),
            (&[3.0, 1.0], [0.5, 2.0, 3.5]),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
            (&[0.5, 0.25, 0.75, 1.0, 2.0, 0.1, 0.3], [0.25, 0.5, 1.0]),
        ];
        for (data, want) in cases {
            let got = quartiles(data).unwrap();
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{data:?}: got {got:?}, want {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_sample_count() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(beyond(&xs, 0.95), 10);
        assert_eq!(beyond(&xs[..100], 0.95), 5);
    }
}
