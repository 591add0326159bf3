//! Sample statistics and open-loop pacing.
//!
//! Every timing metric is a median or a tail percentile over a run, never a
//! minimum or a single sample: the host's speed drifts on the scale of
//! seconds, so one sample says little.

use std::time::{Duration, Instant};

/// Candidate tail percentiles, lowest first. A run reports the highest one
/// that still has at least [`MIN_BEYOND`] samples above it.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples (the
/// epsilon keeps `99.9 / 100 · 10 000` from rounding up past 9990).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    v[rank(v.len(), p)]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the run.
    pub n: usize,
    /// Samples beyond the percentile.
    pub beyond: usize,
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`] samples
/// beyond it. With fewer than `2 × MIN_BEYOND` samples no rung qualifies and
/// the median stands in (its `beyond` then shows the shortfall).
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let pct = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(LADDER[0]);
    Tail {
        pct,
        value: percentile(samples, pct),
        n,
        beyond: if n == 0 { 0 } else { beyond(n, pct) },
    }
}

/// One open-loop request: when it was due, when it went out, and when its
/// answer arrived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    /// Latency counted from the due time, so a stall also charges the
    /// requests queued behind it.
    pub latency: Duration,
    /// How late the generator sent it.
    pub late: Duration,
}

/// A fixed-rate schedule: request `k` is due at `start + k · period`. The
/// generator never skips a slot; when it falls behind it sends at once and
/// the lateness is recorded.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    start: Instant,
    period: Duration,
}

impl Pacer {
    /// A schedule starting at `start`.
    pub fn new(start: Instant, period: Duration) -> Self {
        Pacer { start, period }
    }

    /// Due time of request `k`.
    pub fn due(&self, k: u32) -> Instant {
        self.start + self.period * k
    }

    /// How long to wait at `now` before sending request `k` (zero when
    /// late).
    pub fn wait(&self, k: u32, now: Instant) -> Duration {
        self.due(k).saturating_duration_since(now)
    }

    /// Account for request `k` sent at `sent` and answered at `done`.
    pub fn sample(&self, k: u32, sent: Instant, done: Instant) -> OpenSample {
        let due = self.due(k);
        OpenSample {
            latency: done.saturating_duration_since(due),
            late: sent.saturating_duration_since(due),
        }
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 20 samples: only the median has ten above it.
        let t = tail(&ramp(20));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        // 39 samples: p75 would leave 9 above, so the median stands.
        assert_eq!(tail(&ramp(39)).pct, 50.0);
        // 40 samples: p75 leaves exactly 10.
        let t = tail(&ramp(40));
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        assert_eq!(tail(&ramp(100)).pct, 90.0);
        assert_eq!(tail(&ramp(199)).pct, 90.0);
        assert_eq!(tail(&ramp(200)).pct, 95.0);
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        assert_eq!(tail(&ramp(10_000)).pct, 99.9);
    }

    #[test]
    fn tail_with_too_few_samples_falls_back_to_the_median() {
        let t = tail(&ramp(11));
        assert_eq!((t.pct, t.value), (50.0, 6.0));
        assert!(t.beyond < MIN_BEYOND);
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(tail(&v).value, 30.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(10), 90.0), 9.0);
        assert_eq!(percentile(&ramp(10), 100.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn late_generator_charges_latency_from_the_due_time() {
        let t0 = Instant::now();
        let p = Pacer::new(t0, Duration::from_millis(100));
        let ms = Duration::from_millis;
        // On time: wait until due, latency is the service time.
        assert_eq!(p.wait(1, t0), ms(100));
        let s = p.sample(1, t0 + ms(100), t0 + ms(130));
        assert_eq!((s.latency, s.late), (ms(30), ms(0)));
        // Request 2 is due at 200 ms, but request 1 stalled until 350 ms:
        // no wait, it goes out 150 ms late and its latency includes that.
        assert_eq!(p.wait(2, t0 + ms(350)), ms(0));
        let s = p.sample(2, t0 + ms(350), t0 + ms(360));
        assert_eq!((s.latency, s.late), (ms(160), ms(150)));
        // The schedule does not slip: request 3 is still due at 300 ms.
        assert_eq!(p.due(3), t0 + ms(300));
    }
}
