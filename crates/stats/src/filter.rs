//! Lanczos low-pass filtering — the "60 month low-pass" of Figure 4.

/// Lanczos low-pass weights: cutoff `fc` in cycles per sample, `n_half`
/// weights each side (total `2 n_half + 1`), normalized to unit sum.
pub fn lanczos_weights(fc: f64, n_half: usize) -> Vec<f64> {
    let m = n_half as f64;
    let mut w: Vec<f64> = (-(n_half as isize)..=n_half as isize)
        .map(|k| {
            if k == 0 {
                2.0 * fc
            } else {
                let kf = k as f64;
                let sinc =
                    (2.0 * std::f64::consts::PI * fc * kf).sin() / (std::f64::consts::PI * kf);
                let sigma = (std::f64::consts::PI * kf / m).sin() / (std::f64::consts::PI * kf / m);
                sinc * sigma
            }
        })
        .collect();
    let s: f64 = w.iter().sum();
    for v in w.iter_mut() {
        *v /= s;
    }
    w
}

/// Apply a low-pass Lanczos filter with cutoff period `period` (in
/// samples; 60 for the paper's 60-month filter). Returns a series of the
/// same length; the `n_half` samples at each edge are computed with a
/// renormalized truncated kernel (no data invented).
pub fn lanczos_lowpass(x: &[f64], period: f64) -> Vec<f64> {
    let fc = 1.0 / period;
    // Standard choice: ~1.3 periods of weights each side.
    let n_half = (1.3 * period).ceil() as usize;
    let w = lanczos_weights(fc, n_half);
    let n = x.len();
    let mut out = vec![0.0; n];
    for t in 0..n {
        let mut acc = 0.0;
        let mut wsum = 0.0;
        for (kidx, &wk) in w.iter().enumerate() {
            let k = kidx as isize - n_half as isize;
            let tt = t as isize + k;
            if tt >= 0 && (tt as usize) < n {
                acc += wk * x[tt as usize];
                wsum += wk;
            }
        }
        out[t] = if wsum.abs() > 1e-12 { acc / wsum } else { 0.0 };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::correlation;

    #[test]
    fn weights_sum_to_one_and_are_symmetric() {
        let w = lanczos_weights(1.0 / 60.0, 78);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let n = w.len();
        for k in 0..n / 2 {
            assert!((w[k] - w[n - 1 - k]).abs() < 1e-14);
        }
    }

    #[test]
    fn constant_passes_unchanged() {
        let x = vec![4.2; 400];
        let y = lanczos_lowpass(&x, 60.0);
        for v in y {
            assert!((v - 4.2).abs() < 1e-10);
        }
    }

    #[test]
    fn fast_oscillation_is_removed_slow_retained() {
        let n = 600;
        let slow: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 200.0).sin())
            .collect();
        let x: Vec<f64> = (0..n)
            .map(|t| slow[t] + 0.8 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin())
            .collect();
        let y = lanczos_lowpass(&x, 60.0);
        // Interior comparison (edges use truncated kernels).
        let a = 100;
        let b = n - 100;
        let r = correlation(&y[a..b], &slow[a..b]);
        assert!(r > 0.99, "slow signal corrupted: r = {r}");
        // Residual fast variance strongly suppressed.
        let fast_res: f64 = (a..b)
            .map(|t| (y[t] - slow[t]) * (y[t] - slow[t]))
            .sum::<f64>()
            / (b - a) as f64;
        assert!(fast_res < 0.01, "fast variance remains: {fast_res}");
    }

    #[test]
    fn output_length_matches_input() {
        let x: Vec<f64> = (0..250).map(|t| (t as f64).cos()).collect();
        assert_eq!(lanczos_lowpass(&x, 60.0).len(), 250);
    }
}
