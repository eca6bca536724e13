//! Statistical utilities: normal CDF, Zipf sampling, empirical quantiles.

use rand::rngs::StdRng;
use rand::Rng;

/// Standard normal CDF Φ(x), via Abramowitz–Stegun 7.1.26 on erf.
///
/// Absolute error < 1.5e-7 — ample for copula uniformization.
pub fn normal_cdf(x: f64) -> f64 {
    // erf via A&S 7.1.26.
    let z = x / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * z.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-z * z).exp();
    let signed = if z < 0.0 { -erf } else { erf };
    0.5 * (1.0 + signed)
}

/// Standard normal quantile Φ⁻¹(p). Re-exported from the benchmark core so
/// the whole workspace shares one implementation.
pub use idebench_core::metrics::normal_quantile;

/// One standard-normal draw (Box–Muller, using two uniforms).
pub(crate) fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Cumulative weights for a Zipf(s) distribution over `n` ranks.
///
/// Returns a vector `c` with `c[n-1] == 1.0`; sample by binary-searching a
/// uniform draw. Used for skewed airport/carrier popularity.
pub fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "zipf needs at least one rank");
    let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cum = 0.0;
    for w in &mut weights {
        cum += *w / total;
        *w = cum;
    }
    // Guard against floating-point shortfall at the end.
    if let Some(last) = weights.last_mut() {
        *last = 1.0;
    }
    weights
}

/// Samples a rank from cumulative weights with a uniform draw in [0,1).
pub fn sample_cumulative(cum: &[f64], u: f64) -> usize {
    match cum.binary_search_by(|c| c.partial_cmp(&u).expect("weights are not NaN")) {
        Ok(i) => (i + 1).min(cum.len() - 1),
        Err(i) => i.min(cum.len() - 1),
    }
}

/// An empirical distribution supporting quantile (inverse-CDF) lookups.
///
/// Built from a sample; `quantile(u)` returns the value at rank `u·(n-1)`
/// with linear interpolation, so generated data interpolates between
/// observed sample values (the paper's "use the CDF from our sample to
/// transform the uniform variables").
#[derive(Debug, Clone)]
pub struct EmpiricalDist {
    sorted: Vec<f64>,
}

impl EmpiricalDist {
    /// Builds the distribution from (unsorted) sample values.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empirical distribution needs data");
        values.sort_by(|a, b| a.partial_cmp(b).expect("sample values are not NaN"));
        EmpiricalDist { sorted: values }
    }

    /// The u-quantile, u ∈ [0, 1], with linear interpolation.
    pub fn quantile(&self, u: f64) -> f64 {
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = u.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Empirical CDF of a value (fraction of sample ≤ v).
    pub fn cdf(&self, v: f64) -> f64 {
        let n = self.sorted.len();
        let idx = self.sorted.partition_point(|&x| x <= v);
        idx as f64 / n as f64
    }

    /// Smallest and largest observed value.
    pub fn range(&self) -> (f64, f64) {
        (self.sorted[0], self.sorted[self.sorted.len() - 1])
    }
}

/// Normal scores of a data vector: rank-transform to uniforms then Φ⁻¹.
///
/// Ties get their index order (stable); this is the standard Gaussian-copula
/// fitting transform.
pub fn normal_scores(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaNs"));
    let mut scores = vec![0.0; n];
    for (rank, &i) in idx.iter().enumerate() {
        let u = (rank as f64 + 0.5) / n as f64;
        scores[i] = normal_quantile(u);
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-1.959964) - 0.025).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999999);
    }

    #[test]
    fn cdf_and_quantile_are_inverse() {
        for p in [0.1, 0.25, 0.5, 0.9, 0.99] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn zipf_is_decreasing_and_normalized() {
        let cum = zipf_cumulative(10, 1.1);
        assert_eq!(cum.len(), 10);
        assert_eq!(*cum.last().unwrap(), 1.0);
        // First rank carries the largest probability mass.
        let p0 = cum[0];
        let p1 = cum[1] - cum[0];
        assert!(p0 > p1);
        assert!(p0 > 0.2);
    }

    #[test]
    fn sample_cumulative_hits_all_ranks() {
        let cum = zipf_cumulative(3, 1.0);
        assert_eq!(sample_cumulative(&cum, 0.0), 0);
        assert_eq!(sample_cumulative(&cum, 0.999999), 2);
        // Monotone in u.
        let mut last = 0;
        for i in 0..100 {
            let r = sample_cumulative(&cum, i as f64 / 100.0);
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    fn empirical_quantile_interpolates() {
        let d = EmpiricalDist::new(vec![10.0, 0.0, 20.0]);
        assert_eq!(d.quantile(0.0), 0.0);
        assert_eq!(d.quantile(1.0), 20.0);
        assert_eq!(d.quantile(0.5), 10.0);
        assert_eq!(d.quantile(0.25), 5.0);
        assert_eq!(d.range(), (0.0, 20.0));
    }

    #[test]
    fn empirical_cdf_counts_fraction() {
        let d = EmpiricalDist::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(2.0), 0.5);
        assert_eq!(d.cdf(9.0), 1.0);
    }

    #[test]
    fn normal_scores_are_rank_monotone() {
        let v = vec![5.0, -1.0, 3.0];
        let s = normal_scores(&v);
        assert!(s[1] < s[2] && s[2] < s[0]);
        // Median rank is near zero.
        assert!(s[2].abs() < 0.5);
    }
}
