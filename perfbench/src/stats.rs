//! Robust summaries and the timing helpers the layers share.

use std::hint::black_box;
use std::time::Instant;

/// The median of `xs` (the mean of the two middle values for an even
/// count). `xs` must not be empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of the middle half of `xs` (lowest and highest quarter
/// dropped). As robust to a few disturbed windows as the median, but
/// not stuck on one histogram bucket boundary. `xs` must not be empty.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "interquartile mean of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Wall time of one call of `f`, in seconds.
pub fn timed_secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The cost of one `Instant::now()` pair, in ns: the floor every
/// per-call timing carries, subtracted from sampled layer times.
pub fn timer_overhead_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        let a = Instant::now();
        black_box(a.elapsed());
    }
    t0.elapsed().as_nanos() as f64 / PAIRS as f64
}

/// Per-call cost of `op` in ns: the median over `batches` batches of
/// `calls` back-to-back calls, each batch timed by one `Instant` pair.
pub fn ns_per_call(batches: usize, calls: usize, mut op: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                op();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        let xs = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&xs), 3.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }
}
