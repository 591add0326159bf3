//! Log2-bucketed latency histogram.
//!
//! A fixed-size, allocation-free histogram for nanosecond durations (or any
//! `u64` magnitude): value `v` lands in bucket `bit_length(v)`, so bucket
//! `i > 0` covers `[2^(i-1), 2^i)` and bucket 0 holds exact zeros. 64 buckets
//! cover the whole `u64` range, recording is a handful of integer ops, and
//! merging two histograms is 64 adds — cheap enough for the daemon to fold
//! every drained trace into long-lived per-phase aggregates.
//!
//! Quantiles are estimated by walking the cumulative bucket counts and
//! linearly interpolating inside the target bucket; the true maximum and sum
//! are tracked exactly, so `quantile(1.0)` returns the exact max and the
//! relative error of interior quantiles is bounded by the bucket width
//! (< 2x, typically far less after interpolation). Exact p50s remain
//! available from sorted samples where the caller retains them
//! ([`crate::PhaseStat`] does); the histogram supplies p90/p99 and the
//! Prometheus export.

/// Number of log2 buckets (covers the full `u64` range).
pub const BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

/// Bucket index for a sample: its bit length, clamped to the last bucket.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i`.
#[inline]
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
#[inline]
fn bucket_hi(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by cumulative bucket walk
    /// with linear interpolation inside the target bucket. Returns 0 for an
    /// empty histogram; `q >= 1.0` returns the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let q = q.max(0.0);
        // 1-based rank of the target sample.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = bucket_lo(i);
                // The bucket holding the true max is capped at it: samples
                // can't exceed the observed maximum.
                let hi = bucket_hi(i).min(self.max).max(lo);
                let pos = rank - seen; // 1..=c within this bucket
                let frac = pos as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen += c;
        }
        self.max
    }

    /// Cumulative bucket counts as `(inclusive_upper_bound, cumulative)`
    /// pairs, covering buckets from the first non-empty through the bucket
    /// of the maximum. Empty histogram yields an empty vec. Used by the
    /// Prometheus exposition (`le` boundaries; the caller appends `+Inf`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let first = self
            .buckets
            .iter()
            .position(|&c| c > 0)
            .expect("count > 0 implies a non-empty bucket");
        let last = bucket_of(self.max);
        let mut out = Vec::with_capacity(last - first + 1);
        let mut cum = 0u64;
        for i in first..=last {
            cum += self.buckets[i];
            out.push((bucket_hi(i), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 1..BUCKETS {
            assert_eq!(bucket_of(bucket_lo(i)), i, "lo of bucket {i}");
            assert_eq!(bucket_of(bucket_hi(i)), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn exact_max_and_monotone_quantiles() {
        let mut h = Histogram::new();
        for v in [3u64, 9, 17, 1000, 65_536, 70_000, 70_001] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 70_001);
        assert_eq!(h.quantile(1.0), 70_001);
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn quantile_error_bounded_by_bucket_width() {
        // Uniform samples: every estimated quantile must fall within the
        // log2 bucket of the true quantile (< 2x relative error).
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=10_000u64).collect();
        for &v in &samples {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let truth = samples[((q * samples.len() as f64).ceil() as usize - 1).min(9999)];
            let est = h.quantile(q);
            assert!(
                est <= truth.saturating_mul(2) && est * 2 >= truth,
                "q={q}: est {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 2, 3, 100, 5000] {
            a.record(v);
            all.record(v);
        }
        for v in [7u64, 0, 999_999] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn cumulative_buckets_end_at_count() {
        let mut h = Histogram::new();
        for v in [5u64, 6, 7, 300, 300, 90_000] {
            h.record(v);
        }
        let cb = h.cumulative_buckets();
        assert!(!cb.is_empty());
        assert_eq!(cb.last().expect("non-empty").1, h.count());
        // Cumulative counts never decrease; bounds strictly increase.
        for w in cb.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }
}
