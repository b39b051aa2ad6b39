//! The correctness gate: does a tenant's hand-out tile `0..watermark`?
//!
//! Storing every value a run hands out would make the generator's
//! memory grow with throughput and swamp `peak_rss_mb`. A [`Tiling`]
//! instead keeps the count and the first three power sums of the values
//! seen, each block added in closed form. A multiset of `W` values
//! whose count and power sums equal those of `0..W` differs from
//! `0..W` in at least four duplicate/missing pairs (Newton's identities
//! fix a multiset of up to three values from three power sums), so any
//! one to three duplicated values, gaps or overlaps fail exactly.

/// `sum_{x < n} x^p` for p = 1, 2, 3.
fn prefix_sums(n: u128) -> [u128; 3] {
    if n == 0 {
        return [0; 3];
    }
    let s1 = n * (n - 1) / 2;
    let s2 = (n - 1) * n * (2 * n - 1) / 6;
    [s1, s2, s1 * s1]
}

/// Count and power sums of the values one stream handed out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tiling {
    count: u128,
    sums: [u128; 3],
    end: u64,
}

/// Values beyond this would overflow the cubic sum.
const MAX_WATERMARK: u64 = 1 << 32;

impl Tiling {
    /// Adds the block `base..base + len`.
    pub fn add_block(&mut self, base: u64, len: u64) {
        let end = base.saturating_add(len).min(MAX_WATERMARK);
        let [a, b] = [prefix_sums(u128::from(base.min(end))), prefix_sums(u128::from(end))];
        for (s, (hi, lo)) in self.sums.iter_mut().zip(b.iter().zip(a.iter())) {
            *s = s.wrapping_add(hi - lo);
        }
        self.count += u128::from(len);
        self.end = self.end.max(base.saturating_add(len));
    }

    /// Adds one value.
    pub fn add(&mut self, value: u64) {
        self.add_block(value, 1);
    }

    /// Folds another stream's values into this one.
    pub fn merge(&mut self, other: &Tiling) {
        self.count += other.count;
        for (s, o) in self.sums.iter_mut().zip(other.sums) {
            *s = s.wrapping_add(o);
        }
        self.end = self.end.max(other.end);
    }

    /// Values recorded.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count as u64
    }

    /// Checks that the recorded values are exactly `0..watermark`.
    pub fn verify(&self, watermark: u64) -> Result<(), String> {
        if watermark >= MAX_WATERMARK || self.end >= MAX_WATERMARK {
            return Err(format!("watermark {watermark} is beyond the checker's range"));
        }
        if self.count != u128::from(watermark) {
            return Err(format!("{} values handed against watermark {watermark}", self.count));
        }
        if self.end > watermark {
            return Err(format!("value {} at or past watermark {watermark}", self.end - 1));
        }
        if self.sums != prefix_sums(u128::from(watermark)) {
            return Err(format!(
                "{watermark} values handed but they do not tile 0..{watermark} \
                 (a value is duplicated and another missing)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_blocks_that_tile_pass() {
        let mut t = Tiling::default();
        for (base, len) in [(5, 3), (0, 2), (8, 1), (2, 3), (9, 7)] {
            t.add_block(base, len);
        }
        assert_eq!(t.verify(16), Ok(()));
    }

    #[test]
    fn merged_streams_tile() {
        let (mut a, mut b) = (Tiling::default(), Tiling::default());
        a.add_block(0, 4);
        b.add_block(4, 4);
        a.merge(&b);
        assert_eq!(a.verify(8), Ok(()));
    }

    #[test]
    fn a_duplicated_value_and_a_gap_fail() {
        // 0..10 with 7 missing and 3 handed twice: count is right.
        let mut t = Tiling::default();
        for v in (0..10).filter(|&v| v != 7).chain([3]) {
            t.add(v);
        }
        assert_eq!(t.count(), 10);
        assert!(t.verify(10).is_err());
    }

    #[test]
    fn three_duplicates_with_three_gaps_fail() {
        // Chosen so count and the plain sum both match: 1+5+6 == 2+3+7.
        let mut t = Tiling::default();
        for v in (0..10).filter(|v| ![2, 3, 7].contains(v)).chain([1, 5, 6]) {
            t.add(v);
        }
        assert!(t.verify(10).is_err());
    }

    #[test]
    fn overlapping_blocks_fail() {
        let mut t = Tiling::default();
        t.add_block(0, 4);
        t.add_block(3, 4);
        assert!(t.verify(8).is_err(), "8 values but 3 twice and 7 missing");
        assert!(t.verify(7).is_err(), "count mismatch");
    }

    #[test]
    fn a_gap_alone_fails() {
        let mut t = Tiling::default();
        t.add_block(0, 4);
        t.add_block(5, 4);
        assert!(t.verify(9).is_err());
        assert!(t.verify(8).is_err());
    }
}
