//! Latency histograms fine enough to read quantiles between buckets.
//!
//! Log-linear buckets: values below 128 ns get one bucket per ns; above
//! that, each power-of-two range is split into 128 linear sub-buckets
//! (under 0.8% wide). A quantile is interpolated linearly inside its
//! bucket, so a value read off the histogram is not pinned to a bucket
//! boundary and repeated runs do not read back the same number by
//! construction.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// Counts of nanosecond latencies.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let group = (exp - SUB_BITS + 1) as usize;
        let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        group * SUB + sub
    }
}

/// The first value of bucket `idx`, and its width.
fn bucket(idx: usize) -> (f64, f64) {
    let (group, sub) = (idx / SUB, (idx % SUB) as u64);
    if group == 0 {
        (sub as f64, 1.0)
    } else {
        (
            ((SUB as u64 + sub) << (group - 1)) as f64,
            (1u64 << (group - 1)) as f64,
        )
    }
}

impl Hist {
    /// Count one latency.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.total += 1;
    }

    /// Latencies counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Add `other`'s counts to these.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile, interpolated inside its bucket; `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0.0;
        let mut last = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if seen + c >= rank {
                let (lo, width) = bucket(idx);
                return Some(lo + width * ((rank - seen) / c).clamp(0.0, 1.0));
            }
            seen += c;
            last = idx;
        }
        let (lo, width) = bucket(last);
        Some(lo + width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            u64::MAX / 3,
        ] {
            let (lo, width) = bucket(index_of(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: [{lo}, {lo}+{width})"
            );
        }
    }

    #[test]
    fn quantiles_interpolate_inside_a_bucket() {
        let mut h = Hist::default();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        let mut one = Hist::default();
        one.record(1000);
        let p50 = one.quantile(0.5).unwrap();
        assert!((1000.0..1008.0).contains(&p50), "{p50}");
        assert_eq!(Hist::default().quantile(0.5), None);
    }
}
