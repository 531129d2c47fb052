//! Sample summaries: nearest-rank percentiles over recorded latencies.

use std::time::Duration;

/// A growing list of latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn sum_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    pub fn mean_ms(&self) -> f64 {
        if self.ms.is_empty() {
            0.0
        } else {
            self.sum_ms() / self.ms.len() as f64
        }
    }

    pub fn max_ms(&self) -> f64 {
        self.ms.iter().copied().fold(0.0, f64::max)
    }

    /// Nearest-rank `p`-quantile (`p` in `[0, 1]`); 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        quantile(&self.ms, p)
    }

    /// How many samples lie strictly beyond the nearest-rank `p`-quantile
    /// position — a percentile is only reported as trustworthy with at
    /// least ten.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.ms.len();
        n - rank(n, p).min(n)
    }
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of unsorted values; 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(Duration::from_millis(i));
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(Samples::default().quantile(0.5), 0.0);
    }
}
