//! Order statistics for latency samples and per-round figures.

/// The `q`-quantile (0 < q ≤ 1) of `samples` by nearest rank: the
/// smallest sample with at least a share `q` of all samples at or below
/// it. Reorders `samples` in place (linear-time selection, no full sort).
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// Median of a non-empty list (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_sort(samples: &[u32], q: f64) -> u32 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let rank = (q * s.len() as f64).ceil() as usize;
        s[rank.max(1) - 1]
    }

    #[test]
    fn percentile_matches_a_full_sort() {
        // A deterministic pseudo-random stream with many ties.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let samples: Vec<u32> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 500) as u32
                })
                .collect();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let mut s = samples.clone();
                assert_eq!(percentile(&mut s, q), by_sort(&samples, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
