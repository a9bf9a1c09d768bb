//! In-run streaming Figure-3/4 statistics.
//!
//! With [`crate::FoamConfig::stream`] set, the driver's root rank folds
//! every completed monthly-mean SST field into a [`DriverStream`] as the
//! run integrates. The stream holds per-point Welford moments (the
//! Figure-3 mean/variance climatology) and a rank-limited streaming EOF
//! sketch (the Figure-4 variability decomposition) — together `O(grid)`
//! state no matter how many centuries stream through, where a retained
//! monthly history would grow `O(grid × months)`.
//!
//! The whole struct implements [`foam_ckpt::Codec`], rides in the root
//! checkpoint shard (section `driver/stream`), and resumes
//! bit-identically; snapshots from before this section existed restart
//! the stream from the resume point.
//!
//! The analysis replays the batch per-point pipeline exactly — monthly
//! anomalies → detrend → Lanczos low-pass → EOF → VARIMAX — but applies
//! the (linear) time-axis transforms to the sketch's `eof_rank`
//! coefficient columns instead of every grid point,
//! which by linearity yields the same decomposition on data of rank
//! ≤ `eof_rank` (property-tested in `tests/stream_stats_props.rs`).

use foam_ckpt::{ByteReader, CkptError, Codec};
use foam_grid::OceanGrid;
use foam_stats::{
    anomalies_monthly, detrend, lanczos_lowpass, FieldMoments, StatsError, StreamedAnalysis,
    StreamingEof,
};

/// The one sea-area weighting: cell area (in 10⁶ km²) on sea points,
/// zero on land. The stream, the figure programs and the ensemble
/// report all weight by it.
///
/// ```
/// use foam::{sea_area_weights, FoamConfig, OceanModel, World};
///
/// let cfg = FoamConfig::century(1);
/// let grid = foam_grid::OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg);
/// let mask = OceanModel::effective_sea_mask(&cfg.ocean, &World::earthlike());
/// let w = sea_area_weights(&grid, &mask);
/// assert_eq!(w.len(), grid.len());
/// assert!(w.iter().all(|&v| v >= 0.0));
/// ```
pub fn sea_area_weights(grid: &OceanGrid, mask: &[bool]) -> Vec<f64> {
    (0..grid.len())
        .map(|k| {
            if mask[k] {
                grid.cell_area(k % grid.nx, k / grid.nx) / 1.0e12
            } else {
                0.0
            }
        })
        .collect()
}

/// The low-pass cutoff the variability analysis uses for an
/// `n_months`-long stream: a quarter of the record, clamped to the
/// paper's 60 months (and to 6 for very short demo runs).
///
/// ```
/// assert_eq!(foam::stream::lowpass_period(1200), 60.0);
/// assert_eq!(foam::stream::lowpass_period(24), 6.0);
/// ```
pub fn lowpass_period(n_months: usize) -> f64 {
    (n_months as f64 / 4.0).clamp(6.0, 60.0)
}

/// Streaming per-month SST statistics accumulated inside the coupled
/// run: Welford moments per grid point plus a streaming EOF sketch,
/// consuming one monthly-mean field at a time.
///
/// ```
/// use foam::DriverStream;
///
/// let weights = vec![1.0, 1.0, 0.0, 1.0];
/// let mut ds = DriverStream::new(weights, 4);
/// ds.push_month(&[10.0, 11.0, 0.0, 9.0]).unwrap();
/// ds.push_month(&[12.0, 11.0, 0.0, 7.0]).unwrap();
/// assert_eq!(ds.months(), 2);
/// assert_eq!(ds.mean_field().unwrap()[0], 11.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DriverStream {
    /// Per-point monthly mean/variance (the Figure-3 climatology).
    moments: FieldMoments,
    /// Rank-limited subspace sketch of the monthly fields (Figure 4).
    eof: StreamingEof,
}

impl DriverStream {
    /// A stream over `weights.len()` grid points keeping at most
    /// `eof_rank` spatial directions of variability.
    pub fn new(weights: Vec<f64>, eof_rank: usize) -> Self {
        DriverStream {
            moments: FieldMoments::new(weights.len()),
            eof: StreamingEof::new(&weights, eof_rank),
        }
    }

    /// Monthly fields consumed so far.
    pub fn months(&self) -> usize {
        self.eof.samples()
    }

    /// Fold one monthly-mean field in; rejects a grid-size mismatch.
    pub fn push_month(&mut self, field: &[f64]) -> Result<(), StatsError> {
        self.moments.push(field)?;
        self.eof.push(field)
    }

    /// Per-point time-mean SST over every month streamed —
    /// bit-identical to averaging those monthly fields in order. `None`
    /// before the first month completes.
    pub fn mean_field(&self) -> Option<Vec<f64>> {
        (!self.moments.is_empty()).then(|| self.moments.mean_field())
    }

    /// Per-point population variance of monthly SST.
    pub fn variance_field(&self) -> Option<Vec<f64>> {
        (!self.moments.is_empty()).then(|| self.moments.variance_field())
    }

    /// Fraction of the (weighted) monthly variability the EOF sketch
    /// could not represent within its rank budget — `0.0` means the
    /// Figure-4 analysis below is exact.
    pub fn discarded_fraction(&self) -> f64 {
        self.eof.discarded_fraction()
    }

    /// The Figure-4 variability analysis of everything streamed so far:
    /// monthly anomalies, detrended, Lanczos low-passed at
    /// [`lowpass_period`], decomposed into `k_keep` EOF modes. Rotate
    /// the result with [`StreamedAnalysis::varimax`] and project basin
    /// boxes with [`StreamedAnalysis::series`]. `None` until two years
    /// of months have streamed (a shorter record has no annual cycle to
    /// remove).
    pub fn analyze_variability(&self, k_keep: usize) -> Option<StreamedAnalysis> {
        let n = self.months();
        if n < 24 {
            return None;
        }
        let lp = lowpass_period(n);
        Some(self.eof.analyze(k_keep, |col| {
            let mut a = anomalies_monthly(&col);
            detrend(&mut a);
            lanczos_lowpass(&a, lp)
        }))
    }
}

impl Codec for DriverStream {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.moments.encode(buf);
        self.eof.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let moments = FieldMoments::decode(r)?;
        let eof = StreamingEof::decode(r)?;
        if moments.len() != eof.weights().len() || moments.count() != eof.samples() as u64 {
            return Err(CkptError::Corrupt(
                "driver stream moments and EOF sketch disagree".into(),
            ));
        }
        Ok(DriverStream { moments, eof })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foam_ckpt::Codec;
    use foam_stats::{correlation, eof_analysis, varimax};

    /// A deterministic synthetic "monthly SST" field: annual cycle +
    /// trend + two low-rank variability patterns.
    fn synth_month(t: usize, n_s: usize) -> Vec<f64> {
        (0..n_s)
            .map(|s| {
                let annual = (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin();
                let p1 = (s as f64 * 0.7).sin();
                let p2 = (s as f64 * 1.3).cos();
                let slow = (t as f64 * 0.05).sin();
                let slow2 = (t as f64 * 0.11).cos();
                15.0 + 0.001 * t as f64 + annual * (1.0 + 0.1 * p1) + slow * p1 + slow2 * p2
            })
            .collect()
    }

    #[test]
    fn stream_matches_batch_pipeline_on_synthetic_months() {
        let n_s = 30;
        let n_t = 96;
        let weights: Vec<f64> = (0..n_s)
            .map(|s| {
                if s % 7 == 0 {
                    0.0
                } else {
                    1.0 + s as f64 * 0.01
                }
            })
            .collect();
        let months: Vec<Vec<f64>> = (0..n_t).map(|t| synth_month(t, n_s)).collect();

        let mut ds = DriverStream::new(weights.clone(), 8);
        for m in &months {
            ds.push_month(m).unwrap();
        }
        assert_eq!(ds.months(), n_t);

        // Mean field bit-identical to the batch average.
        let mean = ds.mean_field().unwrap();
        for s in 0..n_s {
            let batch: f64 = months.iter().map(|m| m[s]).sum::<f64>() / n_t as f64;
            assert_eq!(mean[s].to_bits(), batch.to_bits(), "s={s}");
        }

        // Variability analysis matches the batch per-point pipeline.
        let lp = lowpass_period(n_t);
        let mut data = vec![vec![0.0; n_s]; n_t];
        for s in 0..n_s {
            if weights[s] == 0.0 {
                continue;
            }
            let series: Vec<f64> = months.iter().map(|m| m[s]).collect();
            let mut anom = anomalies_monthly(&series);
            detrend(&mut anom);
            for (t, v) in lanczos_lowpass(&anom, lp).into_iter().enumerate() {
                data[t][s] = v;
            }
        }
        let batch_eof = eof_analysis(&data, &weights, 4);
        let analysis = ds.analyze_variability(4).unwrap();
        assert!(
            ds.discarded_fraction() < 1e-9,
            "rank-8 sketch must be exact"
        );
        for k in 0..2 {
            assert!(
                (analysis.eof.variance_fraction[k] - batch_eof.variance_fraction[k]).abs() < 1e-8,
                "mode {k}"
            );
        }
        // VARIMAX rotation and box-mean projection agree too.
        let batch_rot = varimax(&data, &weights, &batch_eof, 2);
        let rot = analysis.varimax(2);
        assert!((rot.variance_fraction[0] - batch_rot.variance_fraction[0]).abs() < 1e-8);
        let profile: Vec<f64> = (0..n_s)
            .map(|s| if s < n_s / 2 { weights[s] } else { 0.0 })
            .collect();
        let stream_series = analysis.series(&profile);
        let batch_series: Vec<f64> = (0..n_t)
            .map(|t| (0..n_s).map(|s| profile[s] * data[t][s]).sum())
            .collect();
        assert!(correlation(&stream_series, &batch_series) > 1.0 - 1e-9);
    }

    #[test]
    fn too_short_records_refuse_analysis() {
        let mut ds = DriverStream::new(vec![1.0; 5], 3);
        for t in 0..23 {
            ds.push_month(&synth_month(t, 5)).unwrap();
        }
        assert!(ds.analyze_variability(2).is_none());
        ds.push_month(&synth_month(23, 5)).unwrap();
        assert!(ds.analyze_variability(2).is_some());
    }

    #[test]
    fn codec_roundtrip_and_split_resume_are_identical() {
        let n_s = 12;
        let mut full = DriverStream::new(vec![1.0; n_s], 4);
        let mut split = DriverStream::new(vec![1.0; n_s], 4);
        for t in 0..50 {
            full.push_month(&synth_month(t, n_s)).unwrap();
            split.push_month(&synth_month(t, n_s)).unwrap();
            if t == 20 {
                // Checkpoint and resume mid-stream.
                split = DriverStream::decode(&mut ByteReader::new(&split.to_bytes())).unwrap();
            }
        }
        assert_eq!(full, split);
    }

    #[test]
    fn mismatched_grid_is_a_typed_error() {
        let mut ds = DriverStream::new(vec![1.0; 4], 2);
        assert!(ds.push_month(&[1.0, 2.0]).is_err());
        assert_eq!(ds.months(), 0, "a rejected sample must not half-apply");
    }
}
