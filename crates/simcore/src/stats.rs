//! Statistics accumulators.
//!
//! The experiments report means, variances and rates measured *after a
//! warm-up period*; [`Counter::mark`] and [`Welford::reset`] discard
//! warm-up transients in place.

/// Streaming mean/variance via Welford's algorithm.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Discard all observations.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Monotone event counter that supports a warm-up snapshot: `since_mark()`
/// reports events after the most recent `mark()`.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    total: u64,
    mark: u64,
}

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.total += 1;
    }

    /// Increment by `k`.
    #[inline]
    pub fn add(&mut self, k: u64) {
        self.total += k;
    }

    /// Lifetime total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Snapshot the current total as the new baseline.
    pub fn mark(&mut self) {
        self.mark = self.total;
    }

    /// Events counted since the last `mark()` (or since creation).
    pub fn since_mark(&self) -> u64 {
        self.total - self.mark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 5);
        w.reset();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn counter_marking() {
        let mut c = Counter::new();
        c.add(10);
        c.mark();
        c.inc();
        c.inc();
        assert_eq!(c.total(), 12);
        assert_eq!(c.since_mark(), 2);
    }
}
