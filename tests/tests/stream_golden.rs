//! Golden regression of the Figure-3/4 diagnostics on the streaming
//! path: the F3 climatology of a short deterministic coupled run, and
//! the F4 decomposition of a synthetic record, which must render
//! byte-identical text from the batch per-point pipeline and the
//! stream — and that text must match the committed golden file, so a
//! silent change to either estimator shows up as a diff.
//!
//! Regenerate the golden after an *intentional* change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p foam-tests --test stream_golden
//! ```
//!
//! Layout: the F3 block (mean-SST series tail, time-mean field moments)
//! is printed at full round-trip precision. The F4 block
//! (EOF/VARIMAX spectra on a deterministic synthetic record) is printed
//! at 6 significant digits, inside the 1e-10 agreement the subspace
//! sketch guarantees.

use std::fmt::Write as _;
use std::path::PathBuf;

use foam::{run_coupled, FoamConfig};
use foam_stats::{anomalies_monthly, correlation, detrend, eof_analysis, lanczos_lowpass, varimax};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/stream_f3_f4.txt")
}

/// The deterministic synthetic monthly record the F4 block analyzes:
/// annual cycle + trend + two slow patterns + xorshift noise.
fn synth_months(n_t: usize, n_s: usize) -> Vec<Vec<f64>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n_t)
        .map(|t| {
            let annual = (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin();
            let slow = (t as f64 * 0.07).sin();
            let slow2 = (t as f64 * 0.13).cos();
            (0..n_s)
                .map(|s| {
                    let p1 = (s as f64 * 0.8).sin();
                    let p2 = (s as f64 * 1.7).cos();
                    15.0 + 0.002 * t as f64 + annual + slow * p1 + slow2 * p2 + 0.01 * rng()
                })
                .collect()
        })
        .collect()
}

#[test]
fn streaming_f3_f4_text_matches_batch_and_golden() {
    let mut text = String::new();

    // ---- F3 block: a 3-month coupled run. ---------------------------
    let out = run_coupled(&FoamConfig::century(1914), 90.0);
    let ds = out.stream.as_ref().expect("century config streams");
    assert_eq!(ds.months(), 3);

    writeln!(text, "# F3: streaming vs batch monthly climatology").unwrap();
    writeln!(text, "months = {}", ds.months()).unwrap();
    for (t, v) in out.mean_sst_series.iter().rev().take(4).enumerate() {
        writeln!(text, "series[-{}] = {v:.17e}", t + 1).unwrap();
    }
    let max_mean = ds
        .mean_field()
        .expect("three months streamed")
        .into_iter()
        .fold(f64::MIN, f64::max);
    writeln!(text, "mean_field_max = {max_mean:.17e}").unwrap();
    let var = ds.variance_field().unwrap();
    let total_var: f64 = var.iter().sum();
    writeln!(text, "variance_field_sum = {total_var:.12e}").unwrap();

    // ---- F4 block: EOF/VARIMAX on the synthetic record, both paths. --
    let (n_t, n_s) = (48, 20);
    let months = synth_months(n_t, n_s);
    let weights: Vec<f64> = (0..n_s)
        .map(|s| {
            if s % 6 == 5 {
                0.0
            } else {
                1.0 + 0.02 * s as f64
            }
        })
        .collect();

    let render_f4 = |varfrac: &[f64], rot_varfrac: &[f64], corr: f64| -> String {
        let mut b = String::new();
        writeln!(b, "# F4: low-passed EOF/VARIMAX decomposition").unwrap();
        for (k, v) in varfrac.iter().take(3).enumerate() {
            writeln!(b, "eof_varfrac[{k}] = {v:.6e}").unwrap();
        }
        for (k, v) in rot_varfrac.iter().take(2).enumerate() {
            writeln!(b, "varimax_varfrac[{k}] = {v:.6e}").unwrap();
        }
        writeln!(b, "box_correlation = {corr:.6}").unwrap();
        b
    };
    let box_a: Vec<f64> = (0..n_s)
        .map(|s| if s < n_s / 2 { weights[s] } else { 0.0 })
        .collect();
    let box_b: Vec<f64> = (0..n_s)
        .map(|s| if s >= n_s / 2 { weights[s] } else { 0.0 })
        .collect();

    // Batch pipeline, per grid point.
    let lp = foam::stream::lowpass_period(n_t);
    let mut data = vec![vec![0.0; n_s]; n_t];
    for s in 0..n_s {
        if weights[s] == 0.0 {
            continue;
        }
        let col: Vec<f64> = months.iter().map(|m| m[s]).collect();
        let mut a = anomalies_monthly(&col);
        detrend(&mut a);
        for (t, v) in lanczos_lowpass(&a, lp).into_iter().enumerate() {
            data[t][s] = v;
        }
    }
    let batch_eof = eof_analysis(&data, &weights, 5);
    let batch_rot = varimax(&data, &weights, &batch_eof, 2);
    let series_of = |profile: &[f64]| -> Vec<f64> {
        (0..n_t)
            .map(|t| (0..n_s).map(|s| profile[s] * data[t][s]).sum())
            .collect()
    };
    let batch_corr = correlation(&series_of(&box_a), &series_of(&box_b));
    let batch_f4 = render_f4(
        &batch_eof.variance_fraction,
        &batch_rot.variance_fraction,
        batch_corr,
    );

    // Streaming pipeline through DriverStream. The record is full rank
    // (per-point noise), so grant the sketch a full-rank budget — at
    // r_max = n_s the subspace sketch is exact for *any* data and the
    // batch agreement is 1e-10, not merely low-rank-conditional.
    let mut ds = foam::DriverStream::new(weights.clone(), n_s);
    for m in &months {
        ds.push_month(m).unwrap();
    }
    let analysis = ds.analyze_variability(5).expect("48 months streamed");
    let rot = analysis.varimax(2);
    let stream_corr = correlation(&analysis.series(&box_a), &analysis.series(&box_b));
    let stream_f4 = render_f4(
        &analysis.eof.variance_fraction,
        &rot.variance_fraction,
        stream_corr,
    );

    assert_eq!(
        batch_f4, stream_f4,
        "batch and streaming F4 text must be byte-identical at 6 digits"
    );
    text.push_str(&stream_f4);

    // ---- Golden comparison. ------------------------------------------
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        text, golden,
        "streaming F3/F4 analysis text drifted from the committed golden"
    );
}
