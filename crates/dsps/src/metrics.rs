//! Measurement utilities: empirical CDFs (used to reproduce the
//! distribution plots of the paper's Figures 7(b) and 7(c)), Jain's
//! fairness index, and the bounded per-stream [`RateSketch`] that feeds observed rates
//! back into adaptive re-planning (paper §IV-B).

/// An empirical cumulative distribution over a finite sample.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted: samples }
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `P[X <= x]`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), by nearest-rank.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile in [0,1]");
        assert!(!self.sorted.is_empty(), "empty CDF has no quantiles");
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Step points `(value, cumulative fraction)` suitable for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }
}

/// A bounded sliding-window sketch of one stream's observed rate.
///
/// The metrics layer samples rates continuously; the planner only wants a
/// robust point estimate per adaptation round. The sketch keeps the last
/// `window` valid samples (NaN and non-positive readings are dropped at
/// ingest — a dead probe must not poison the estimate) and reports the
/// window *median*, which ignores isolated outliers that would make a mean
/// trigger spurious re-planning.
#[derive(Debug, Clone)]
pub struct RateSketch {
    window: usize,
    /// Ring buffer of the last `window` samples, in arrival order.
    samples: Vec<f64>,
    /// Next write position once the ring is full.
    head: usize,
    /// Total valid samples ever observed (can exceed `window`).
    observed: usize,
}

impl RateSketch {
    /// A sketch retaining the last `window` samples (`window >= 1`).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "a sketch needs a positive window");
        RateSketch {
            window,
            samples: Vec::new(),
            head: 0,
            observed: 0,
        }
    }

    /// Ingests one rate sample. NaN, infinite and non-positive readings are
    /// dropped: rates are finite and strictly positive by definition, and a
    /// failed probe reports junk, not zero or unbounded traffic.
    pub fn observe(&mut self, rate: f64) {
        if !(rate.is_finite() && rate > 0.0) {
            return;
        }
        if self.samples.len() < self.window {
            self.samples.push(rate);
        } else {
            self.samples[self.head] = rate;
            self.head = (self.head + 1) % self.window;
        }
        self.observed += 1;
    }

    /// Valid samples currently retained (at most the window size).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total valid samples ever ingested.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// The window median, or `None` before the first valid sample.
    pub fn estimate(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(Cdf::from_samples(self.samples.clone()).quantile(0.5))
        }
    }
}

/// Jain's fairness index: 1 means perfectly balanced load, `1/n` means one
/// host carries everything. Used to quantify load-balance objectives (O4).
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        return 1.0;
    }
    s * s / (xs.len() as f64 * s2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fractions_and_quantiles() {
        let c = Cdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.fraction_at(0.5), 0.0);
        assert_eq!(c.fraction_at(2.0), 0.5);
        assert_eq!(c.fraction_at(10.0), 1.0);
        assert_eq!(c.quantile(0.5), 2.0);
        assert_eq!(c.quantile(1.0), 4.0);
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(4.0));
        assert_eq!(c.mean(), Some(2.5));
    }

    #[test]
    fn cdf_points_monotone() {
        let c = Cdf::from_samples(vec![5.0, 1.0, 9.0]);
        let pts = c.points();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn fairness_index_bounds() {
        assert_eq!(jain_fairness(&[1.0, 1.0, 1.0]), 1.0);
        let skew = jain_fairness(&[1.0, 0.0, 0.0]);
        assert!((skew - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn cdf_drops_nans() {
        let c = Cdf::from_samples(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sketch_reports_window_median() {
        let mut s = RateSketch::new(8);
        assert_eq!(s.estimate(), None);
        for v in [10.0, 12.0, 11.0] {
            s.observe(v);
        }
        assert_eq!(s.estimate(), Some(11.0));
        assert_eq!(s.len(), 3);
        assert_eq!(s.observed(), 3);
    }

    #[test]
    fn sketch_window_slides() {
        let mut s = RateSketch::new(3);
        for v in [1.0, 2.0, 3.0, 100.0, 100.0] {
            s.observe(v);
        }
        // Window holds {3, 100, 100}; the old low samples fell out.
        assert_eq!(s.len(), 3);
        assert_eq!(s.estimate(), Some(100.0));
        assert_eq!(s.observed(), 5);
    }

    #[test]
    fn sketch_rejects_invalid_samples() {
        let mut s = RateSketch::new(4);
        s.observe(f64::NAN);
        s.observe(0.0);
        s.observe(-5.0);
        s.observe(f64::INFINITY);
        assert!(s.is_empty());
        assert_eq!(s.observed(), 0);
        s.observe(7.0);
        assert_eq!(s.estimate(), Some(7.0));
    }

    #[test]
    fn sketch_median_is_outlier_robust() {
        let mut s = RateSketch::new(5);
        for v in [10.0, 10.5, 9.5, 10.2, 1000.0] {
            s.observe(v);
        }
        assert_eq!(s.estimate(), Some(10.2), "one outlier must not swing it");
    }
}
