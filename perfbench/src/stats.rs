//! Latency samples and the order statistics the report quotes.

use std::time::{Duration, Instant};

/// Durations of one kind of operation, in nanoseconds, each with the
/// instant it ended.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    nanos: Vec<u64>,
    ends: Vec<Instant>,
}

impl Samples {
    /// Records one duration, ending now.
    pub fn push(&mut self, d: Duration) {
        self.nanos.push(d.as_nanos() as u64);
        self.ends.push(Instant::now());
    }

    /// Records the time elapsed since `start`.
    pub fn since(&mut self, start: Instant) {
        self.push(start.elapsed());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.nanos.is_empty()
    }

    /// The samples that ended in `[from, to)`.
    pub fn ended_in(&self, from: Instant, to: Instant) -> Samples {
        let mut out = Samples::default();
        for (&n, &e) in self.nanos.iter().zip(&self.ends) {
            if e >= from && e < to {
                out.nanos.push(n);
                out.ends.push(e);
            }
        }
        out
    }

    /// The `q`-quantile in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.nanos, q) / 1e3
    }

    /// Sum of all samples in microseconds.
    pub fn sum_us(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e3
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    /// 90th percentile in microseconds.
    pub fn p90_us(&self) -> f64 {
        self.quantile_us(0.9)
    }
}

/// Linear-interpolated quantile of unsorted values (0 when empty).
pub fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac
}

/// Median of floating-point values (0 when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[5], 0.9), 5.0);
        assert_eq!(quantile(&[4, 1, 3, 2], 0.5), 2.5);
        assert_eq!(quantile(&[10, 20, 30, 40, 50], 0.9), 46.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
