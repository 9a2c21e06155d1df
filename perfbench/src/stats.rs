//! Percentiles and generator-lag checks.

/// The `q`-quantile (0..=1) of `values` by nearest rank. `values` need
/// not be sorted. `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether a sample of `n` has at least ten values beyond its
/// `q`-quantile, the least a tail percentile needs to mean anything.
pub fn tail_is_supported(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Splits `samples` (in send order) into `windows` consecutive parts and
/// takes the `q`-quantile of each, to show whether a tail comes from one
/// stall or from the whole run. Empty when a window would be too small
/// to support `q`.
pub fn window_quantiles(samples: &[f64], q: f64, windows: usize) -> Vec<f64> {
    let per = samples.len() / windows.max(1);
    if !tail_is_supported(per, q) {
        return Vec::new();
    }
    (0..windows)
        .filter_map(|w| quantile(&samples[w * per..(w + 1) * per], q))
        .collect()
}

/// Largest acceptable rise of the median send lag from the first to the
/// last quarter of a phase, microseconds. A generator that keeps up
/// stays within it; a backlog that builds passes it within a second.
pub const LAG_GROWTH_LIMIT_US: f64 = 2_000.0;

/// Whether generator lag grew over a phase: the median lag of its last
/// quarter exceeds that of its first quarter by more than
/// [`LAG_GROWTH_LIMIT_US`]. `lags_us` is in schedule order.
pub fn lag_grows(lags_us: &[f64]) -> bool {
    let quarter = lags_us.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&lags_us[..quarter]).unwrap_or(0.0);
    let last = median(&lags_us[lags_us.len() - quarter..]).unwrap_or(0.0);
    last - first > LAG_GROWTH_LIMIT_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_quantiles_show_where_a_tail_comes_from() {
        let mut v = vec![1.0; 20_000];
        for x in &mut v[..1_000] {
            *x = 50.0;
        }
        let parts = window_quantiles(&v, 0.99, 8);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts[0], 50.0);
        assert!(parts[1..].iter().all(|&p| p == 1.0));
        assert!(window_quantiles(&v[..500], 0.99, 8).is_empty());
    }

    #[test]
    fn quantiles_and_lag_growth() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
        assert!(tail_is_supported(1000, 0.99));
        assert!(!tail_is_supported(999, 0.99));
        let flat = vec![100.0; 400];
        assert!(!lag_grows(&flat));
        let growing: Vec<f64> = (0..400).map(|i| f64::from(i) * 50.0).collect();
        assert!(lag_grows(&growing));
    }
}
