//! Order statistics over host timings.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`), reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it, so a tail figure never rests on
/// a handful of cells.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let s = sorted(samples);
    let rank = (q * s.len() as f64).ceil() as usize;
    if rank == 0 || s.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// The smallest sample count for which [`percentile`] at `q` is defined.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = (q * n as f64).ceil() as usize;
            rank >= 1 && n - rank >= MIN_BEYOND
        })
        .expect("some sample count leaves MIN_BEYOND samples beyond q < 1")
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: rank ceil(89.1) = 90 leaves only 9 beyond.
        let s99: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s99, 0.9), None);
        // 100 samples: rank 90 leaves exactly 10 beyond.
        let s100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s100, 0.9), Some(90.0));
        assert_eq!(samples_needed(0.9), 100);
        // The median of a small pool is fine: plenty lie beyond it.
        let s21: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&s21, 0.5), Some(11.0));
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&s, 0.9), Some(180.0));
        assert_eq!(percentile(&s, 0.5), Some(100.0));
    }
}
