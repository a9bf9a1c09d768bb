//! The streaming↔batch equivalence layer: property tests proving that
//! every streaming estimator in `foam-stats` reproduces its batch
//! counterpart across arbitrary record lengths, values, and chunkings —
//! and that checkpointing a stream at *any* point (encode → decode →
//! continue) is invisible, bit for bit.
//!
//! Equivalence tiers, matching what the algebra guarantees:
//! * **bit-identical** — streaming mean (same accumulation order as the
//!   batch sum) and every checkpoint/resume split;
//! * **1e-10 relative** — Welford variance vs the two-pass batch
//!   variance, merged (chunked) moments, and streaming-EOF spectra on
//!   data within the sketch's rank budget (different but equivalent
//!   accumulation orders).

use foam::DriverStream;
use foam_ckpt::{ByteReader, Codec};
use foam_stats::{
    anomalies_monthly, detrend, eof_analysis, lanczos_lowpass, FieldMoments, StreamingEof,
};
use proptest::prelude::*;

/// Finite, well-scaled sample values (equivalence is a statement about
/// arithmetic order, not about NaN propagation).
fn series(len: impl Into<prop::collection::SizeRange>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, len)
}

fn roundtrip<T: Codec>(v: &T) -> T {
    T::decode(&mut ByteReader::new(&v.to_bytes())).expect("codec roundtrip")
}

/// Relative-scale closeness for quantities accumulated in different
/// (but mathematically equal) orders.
fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-10 * scale.max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streaming mean is bit-identical to the batch `sum/n`; streaming
    /// variance matches the two-pass batch variance to 1e-10 relative —
    /// per column, for any field width.
    #[test]
    fn online_moments_match_batch(xs in series(6..200), width in 1usize..6) {
        let rows: Vec<&[f64]> = xs.chunks_exact(width).collect();
        let mut m = FieldMoments::new(width);
        for row in &rows {
            m.push(row).unwrap();
        }
        let n = rows.len() as f64;
        let (mean, var) = (m.mean_field(), m.variance_field());
        for c in 0..width {
            let col = || rows.iter().map(|r| r[c]);
            let batch_mean = col().sum::<f64>() / n;
            prop_assert_eq!(mean[c].to_bits(), batch_mean.to_bits());
            if rows.len() >= 2 {
                let batch_var = col().map(|x| (x - batch_mean).powi(2)).sum::<f64>() / n;
                let scale = col().map(|x| x * x).sum::<f64>() / n;
                prop_assert!(close(var[c], batch_var, scale));
            }
        }
    }

    /// Splitting the stream into two chunks and merging (Chan's update)
    /// agrees with the unsplit stream to 1e-10 relative.
    #[test]
    fn chunked_merge_matches_single_stream(
        xs in series(6..200),
        width in 1usize..6,
        cut_frac in 0.0..1.0f64,
    ) {
        let rows: Vec<&[f64]> = xs.chunks_exact(width).collect();
        let cut = ((rows.len() as f64 * cut_frac) as usize).min(rows.len());
        let mut whole = FieldMoments::new(width);
        let (mut a, mut b) = (FieldMoments::new(width), FieldMoments::new(width));
        for (i, row) in rows.iter().enumerate() {
            whole.push(row).unwrap();
            if i < cut { a.push(row).unwrap() } else { b.push(row).unwrap() }
        }
        a.merge(&b).unwrap();
        prop_assert_eq!(a.count(), whole.count());
        let scale = xs.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
        let (mean, var) = (a.mean_field(), a.variance_field());
        for c in 0..width {
            prop_assert!(close(mean[c], whole.mean_field()[c], scale));
            prop_assert!(close(var[c], whole.variance_field()[c], scale * scale));
        }
    }

    /// Checkpointing field moments at any point — encode, decode,
    /// continue — leaves the final state bit-identical (PartialEq on
    /// these types compares raw f64 values).
    #[test]
    fn field_moments_split_anywhere_resume(
        xs in series(6..120),
        width in 1usize..6,
        cut_frac in 0.0..1.0f64,
    ) {
        // width < 6 and len ≥ 6 guarantee at least one full row.
        let n_t = xs.len() / width;
        let cut = (n_t as f64 * cut_frac) as usize;
        let mut whole = FieldMoments::new(width);
        let mut split = FieldMoments::new(width);
        for t in 0..n_t {
            let row = &xs[t * width..(t + 1) * width];
            whole.push(row).unwrap();
            split.push(row).unwrap();
            if t == cut {
                split = roundtrip(&split);
            }
        }
        prop_assert_eq!(whole, split);
    }

    /// On data within the sketch's rank budget the streaming EOF
    /// reproduces the batch snapshot-method spectrum to 1e-10 relative,
    /// and a mid-stream checkpoint/resume is invisible.
    #[test]
    fn streaming_eof_matches_batch_on_low_rank_data(
        coef in prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 8..60),
        seed in 0u32..1000,
        cut_frac in 0.0..1.0f64,
    ) {
        let n_s = 15;
        // Two fixed, independent spatial patterns → data of rank ≤ 2.
        let p1: Vec<f64> = (0..n_s).map(|s| ((s as f64 + seed as f64) * 0.7).sin()).collect();
        let p2: Vec<f64> = (0..n_s).map(|s| ((s as f64) * 1.9 + seed as f64).cos()).collect();
        let weights: Vec<f64> = (0..n_s)
            .map(|s| if s == 3 { 0.0 } else { 1.0 + 0.05 * s as f64 })
            .collect();
        let data: Vec<Vec<f64>> = coef
            .iter()
            .map(|(a, b)| (0..n_s).map(|s| a * p1[s] + b * p2[s]).collect())
            .collect();
        let cut = (data.len() as f64 * cut_frac) as usize;
        let mut se = StreamingEof::new(&weights, 4);
        let mut uninterrupted = StreamingEof::new(&weights, 4);
        for (t, row) in data.iter().enumerate() {
            if t == cut {
                se = roundtrip(&se);
            }
            se.push(row).unwrap();
            uninterrupted.push(row).unwrap();
        }
        prop_assert_eq!(&se, &uninterrupted);
        prop_assert!(se.discarded_fraction() < 1e-12);
        let stream = se.analyze(2, |series| series).eof;
        let batch = eof_analysis(&data, &weights, 2);
        prop_assert!(close(stream.total_variance, batch.total_variance, batch.total_variance));
        for k in 0..stream.variance_fraction.len().min(batch.variance_fraction.len()) {
            prop_assert!(close(stream.variance_fraction[k], batch.variance_fraction[k], 1.0));
        }
    }

    /// The driver-level stream (moments + EOF + the Figure-4 transform
    /// pipeline) survives "split anywhere, resume, continue" with a
    /// state bit-identical to the uninterrupted stream, discards nothing,
    /// and its analysis equals the batch per-point pipeline — on low-rank
    /// data inside a rank-6 budget, and on full-rank noisy months over
    /// more grid points than months with one direction per month (the
    /// budget `figure4_variability` runs with).
    #[test]
    fn driver_stream_split_anywhere_analysis_matches_batch(
        coef in prop::collection::vec(-5.0..5.0f64, 26..80),
        cut_frac in 0.0..1.0f64,
        seed in 1u32..1000,
    ) {
        let n_t = coef.len();
        let cut = (n_t as f64 * cut_frac) as usize;
        let mut state = u64::from(seed);
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let pat: Vec<f64> = (0..10).map(|s| (s as f64 * 0.9).sin() + 1.5).collect();
        let noisy: Vec<Vec<f64>> = (0..n_t).map(|_| (0..n_t + 5).map(|_| noise()).collect()).collect();
        for (n_s, rank, full_rank) in [(10, 6, false), (n_t + 5, n_t, true)] {
            let weights: Vec<f64> = (0..n_s).map(|s| 1.0 + 0.05 * s as f64).collect();
            let months: Vec<Vec<f64>> = coef
                .iter()
                .enumerate()
                .map(|(t, a)| {
                    let annual = (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin();
                    let p = if full_rank { &noisy[t] } else { &pat };
                    p.iter().map(|p| 10.0 + annual + a * p).collect()
                })
                .collect();
            let mut ds = DriverStream::new(weights.clone(), rank);
            let mut uninterrupted = DriverStream::new(weights.clone(), rank);
            for (t, m) in months.iter().enumerate() {
                if t == cut {
                    ds = roundtrip(&ds);
                }
                ds.push_month(m).unwrap();
                uninterrupted.push_month(m).unwrap();
            }
            prop_assert_eq!(&ds, &uninterrupted);
            prop_assert_eq!(ds.discarded_fraction(), 0.0);

            // Batch Figure-4 pipeline, per grid point.
            let lp = foam::stream::lowpass_period(n_t);
            let mut data = vec![vec![0.0; n_s]; n_t];
            for s in 0..n_s {
                let col: Vec<f64> = months.iter().map(|m| m[s]).collect();
                let mut a = anomalies_monthly(&col);
                detrend(&mut a);
                for (t, v) in lanczos_lowpass(&a, lp).into_iter().enumerate() {
                    data[t][s] = v;
                }
            }
            let batch = eof_analysis(&data, &weights, 2);
            let analysis = ds.analyze_variability(2).expect("≥ 24 months streamed");
            prop_assert!(close(
                analysis.eof.total_variance,
                batch.total_variance,
                batch.total_variance
            ));
            for k in 0..analysis.eof.variance_fraction.len().min(batch.variance_fraction.len()) {
                prop_assert!(close(
                    analysis.eof.variance_fraction[k],
                    batch.variance_fraction[k],
                    1.0
                ));
            }
        }
    }
}
