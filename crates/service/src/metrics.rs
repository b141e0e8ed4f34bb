//! Service-side measurement: a mergeable log-linear latency histogram
//! (HDR-style: power-of-two segments, linear sub-buckets) and its percentile
//! snapshot.

use std::time::Duration;

/// Linear sub-buckets per power-of-two segment. 32 gives ~3% relative
/// precision, plenty for p50/p99/p999 reporting.
const SUB_BUCKETS: usize = 32;
/// Power-of-two segments: covers up to 2^40 ns ≈ 18 minutes per sample.
const SEGMENTS: usize = 41;

/// A fixed-size log-linear histogram of nanosecond latencies. Recording is
/// O(1), merging is element-wise, percentiles walk the cumulative counts.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; SEGMENTS * SUB_BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let seg = 63 - ns.leading_zeros() as usize; // floor(log2), >= 5 here
        let seg = seg.min(SEGMENTS - 1);
        // Position of the top SUB_BUCKETS-worth of bits below the leading one.
        let shift = seg.saturating_sub(SUB_BUCKETS.trailing_zeros() as usize);
        let sub = ((ns >> shift) as usize) & (SUB_BUCKETS - 1);
        seg * SUB_BUCKETS + sub
    }

    /// Value representative of a bucket (its upper edge, so percentiles are
    /// conservative).
    fn bucket_value(idx: usize) -> u64 {
        let seg = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if seg == 0 {
            // Segment 0 holds the exact values below SUB_BUCKETS.
            return sub;
        }
        let shift = seg.saturating_sub(SUB_BUCKETS.trailing_zeros() as usize);
        ((1u64 << seg) | (sub << shift)) + (1u64 << shift) - 1
    }

    /// Record one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The latency at quantile `q` in `[0, 1]` (0 if the histogram is empty).
    /// Reported from bucket upper edges except for the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// The standard report triple (p50, p99, p999) in nanoseconds.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50_ns: self.quantile(0.50),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            max_ns: self.max_ns,
            count: self.total,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

/// Snapshot of a histogram's headline percentiles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile latency in nanoseconds.
    pub p999_ns: u64,
    /// Maximum recorded latency in nanoseconds.
    pub max_ns: u64,
    /// Number of samples behind the percentiles.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_orders_quantiles_and_tracks_max() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 400, 500, 10_000, 1_000_000] {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 7);
        let p = h.percentiles();
        assert!(p.p50_ns >= 300 && p.p50_ns <= 450, "p50 {}", p.p50_ns);
        assert!(p.p99_ns >= p.p50_ns);
        assert!(p.p999_ns >= p.p99_ns);
        assert_eq!(p.max_ns, 1_000_000);
        assert!(p.p999_ns <= p.max_ns);
    }

    #[test]
    fn histogram_bucket_error_is_bounded() {
        // The representative value of any sample's bucket must be within ~2x
        // below and within one sub-bucket width above the sample.
        let mut probe = 1u64;
        while probe < 1 << 39 {
            let idx = LatencyHistogram::bucket(probe);
            let rep = LatencyHistogram::bucket_value(idx);
            assert!(rep >= probe, "rep {rep} < sample {probe}");
            assert!(rep <= probe.saturating_mul(2).max(SUB_BUCKETS as u64), "rep {rep} for {probe}");
            probe = probe * 3 + 1;
        }
    }

    #[test]
    fn merge_is_count_additive() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 1..=100u64 {
            a.record(Duration::from_nanos(i * 10));
            b.record(Duration::from_nanos(i * 1000));
        }
        let pre_a = a.quantile(0.5);
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert!(a.quantile(0.5) >= pre_a);
        assert_eq!(a.percentiles().max_ns, 100_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.percentiles(), Percentiles::default());
    }
}
