//! Log-linear latency histograms and the slice-median summary.
//!
//! A [`Hist`] keeps 128 sub-buckets per power of two (about 0.8%
//! resolution) in a fixed array, so recording a sample is an index
//! computation and an increment, and memory does not grow with run
//! length. Percentiles interpolate inside the bucket that holds the
//! rank, so two runs with different counts do not read the same value.

/// Significant bits kept per sample (128 sub-buckets per octave).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for any `u64` sample.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A fixed-size histogram of nanosecond (or tick) samples.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: vec![0; BUCKETS].into_boxed_slice(), total: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    // Keep the top SUB_BITS + 1 bits: `v >> shift` lies in SUB..2*SUB.
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (u64::from(shift) * SUB + (v >> shift)) as usize
}

/// Lower bound and width of bucket `i`.
fn bucket(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let m = i - shift * SUB;
    ((m << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q < 1`), interpolated inside its bucket;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + u64::from(c)) as f64 >= target {
                let (lo, width) = bucket(i);
                let frac = ((target - seen as f64) / f64::from(c)).clamp(0.0, 1.0);
                return Some(lo + width * frac);
            }
            seen += u64::from(c);
        }
        let (lo, width) = bucket(self.counts.iter().rposition(|&c| c > 0).unwrap_or(0));
        Some(lo + width)
    }

    /// Mean of the bucket midpoints (for costs where the mean, not a
    /// percentile, is the figure of interest).
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, width) = bucket(i);
                (lo + width / 2.0) * f64::from(c)
            })
            .sum();
        Some(sum / self.total as f64)
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// A closed-loop measurement cut into equal time slices: per-slice op
/// counts and latency histograms. Reporting the median slice keeps one
/// stalled slice (a neighbour stealing the cpu) from moving the figure.
pub struct Sliced {
    pub slice_ns: u64,
    pub ops: Vec<u64>,
    pub hists: Vec<Hist>,
}

impl Sliced {
    pub fn new(slices: usize, slice_ns: u64) -> Self {
        Self { slice_ns, ops: vec![0; slices], hists: vec![Hist::default(); slices] }
    }

    /// Records one operation that ended `at_ns` after the window opened
    /// and took `latency_ns`. Operations past the last slice are dropped.
    pub fn record(&mut self, at_ns: u64, latency_ns: u64) {
        let slice = (at_ns / self.slice_ns) as usize;
        if let Some(ops) = self.ops.get_mut(slice) {
            *ops += 1;
            self.hists[slice].record(latency_ns);
        }
    }

    pub fn merge(&mut self, other: &Sliced) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    pub fn samples(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Median over slices of the per-slice rate, in ops per second.
    pub fn median_rate(&self) -> f64 {
        let rates: Vec<f64> =
            self.ops.iter().map(|&n| n as f64 * 1e9 / self.slice_ns as f64).collect();
        median(&rates).unwrap_or(0.0)
    }

    /// Median over slices of the per-slice `q`-quantile.
    pub fn median_quantile(&self, q: f64) -> f64 {
        let per: Vec<f64> = self.hists.iter().filter_map(|h| h.quantile(q)).collect();
        median(&per).unwrap_or(0.0)
    }

    /// All slices pooled into one histogram.
    pub fn pooled(&self) -> Hist {
        let mut all = Hist::default();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut last = 0;
        for v in (0..100_000u64).chain([1 << 40, u64::MAX]) {
            let i = index(v);
            assert!(i >= last, "index must not decrease at {v}");
            let (lo, width) = bucket(i);
            assert!(lo <= v as f64 && v as f64 <= lo + width, "{v} outside bucket {i}");
            last = i;
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_are_close_to_exact() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.01, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.01, "p99 {p99}");
    }
}
