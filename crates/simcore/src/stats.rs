//! Statistics accumulators.
//!
//! The experiments report rates measured *after a warm-up period*;
//! [`Counter::mark`] discards warm-up transients in place.

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
