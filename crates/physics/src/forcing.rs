//! Time-varying radiative forcings: piecewise-linear series in simulated
//! days, threaded into the column physics once per simulated day.
//!
//! Scenario experiments (CO₂ ramps, volcanic aerosol pulses, solar
//! sweeps) perturb what today are compile-time-ish constants in
//! [`RadParams`](crate::radiation::RadParams). A [`Forcings`] bundle
//! carries one [`ForcingSeries`] per channel; the atmosphere evaluates it
//! at `floor(sim_t / SECONDS_PER_DAY)` — i.e. the forcing is *constant
//! within each simulated day* — and folds it into an effective
//! [`crate::PhysicsConfig`] by value. Because the
//! evaluation is a pure function of the integer simulated day and the
//! static series, checkpoint/resume reproduces the forced run
//! bit-identically without any extra evolving state (the twice-daily
//! [`RadCache`](crate::RadCache) that holds the forcing's radiative
//! effect is already checkpointed).
//!
//! Channel semantics:
//!
//! * `co2` — **multiplier** on `RadParams::co2_factor` (1 = unforced);
//! * `solar` — **multiplier** on `RadParams::solar_scale` (1 = unforced);
//! * `aerosol` — **additive** gray stratospheric optical depth on
//!   `RadParams::aerosol_od` (0 = unforced).
//!
//! An empty series leaves its channel untouched, so
//! `Forcings::default()` is the identity and legacy configurations are
//! unaffected bit-for-bit.

use foam_ckpt::{ByteReader, CkptError, Codec};
use foam_grid::constants::SECONDS_PER_DAY;

use crate::driver::PhysicsConfig;

/// A piecewise-linear time series over simulated days.
///
/// Breakpoints are `(day, value)` pairs sorted by strictly increasing
/// day; between breakpoints the value is linearly interpolated, beyond
/// either end it is held constant (so a ramp that ends stays at its
/// final level). An empty series has no opinion — [`ForcingSeries::value_at`]
/// returns `None` and the channel's identity applies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForcingSeries {
    points: Vec<(f64, f64)>,
}

impl ForcingSeries {
    /// A series pinned at one value for all time.
    pub fn constant(value: f64) -> Self {
        ForcingSeries {
            points: vec![(0.0, value)],
        }
    }

    /// Build from `(day, value)` breakpoints. Returns `None` unless all
    /// entries are finite and days strictly increase.
    pub fn from_points(points: Vec<(f64, f64)>) -> Option<Self> {
        if points.iter().any(|(d, v)| !d.is_finite() || !v.is_finite()) {
            return None;
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return None;
            }
        }
        Some(ForcingSeries { points })
    }

    /// The breakpoints, sorted by day.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Piecewise-linear value at `day`; `None` when the series is empty.
    pub fn value_at(&self, day: f64) -> Option<f64> {
        let pts = &self.points;
        let (first, last) = (*pts.first()?, *pts.last()?);
        if day <= first.0 {
            return Some(first.1);
        }
        if day >= last.0 {
            return Some(last.1);
        }
        // `partition_point` finds the first breakpoint past `day`; the
        // guards above ensure 1 <= i < len.
        let i = pts.partition_point(|p| p.0 <= day);
        let (d0, v0) = pts[i - 1];
        let (d1, v1) = pts[i];
        Some(v0 + (v1 - v0) * ((day - d0) / (d1 - d0)))
    }
}

impl Codec for ForcingSeries {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.points.len().encode(buf);
        for (d, v) in &self.points {
            d.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let n = usize::decode(r)?;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            let d = f64::decode(r)?;
            let v = f64::decode(r)?;
            points.push((d, v));
        }
        Ok(ForcingSeries { points })
    }
}

/// The per-channel forcing values in effect on one simulated day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyForcing {
    /// Multiplier on `RadParams::co2_factor`.
    pub co2_mult: f64,
    /// Multiplier on `RadParams::solar_scale`.
    pub solar_mult: f64,
    /// Additive gray aerosol optical depth.
    pub aerosol_od: f64,
}

impl Default for DailyForcing {
    fn default() -> Self {
        DailyForcing {
            co2_mult: 1.0,
            solar_mult: 1.0,
            aerosol_od: 0.0,
        }
    }
}

/// The scenario forcing bundle carried by a run configuration.
///
/// `Forcings::default()` (all channels empty) is the identity: the
/// atmosphere skips the per-day application entirely, so unforced runs
/// stay bit-identical to builds that predate this type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Forcings {
    /// Multiplier series on CO₂ (`co2_factor`).
    pub co2: ForcingSeries,
    /// Multiplier series on the solar constant (`solar_scale`).
    pub solar: ForcingSeries,
    /// Additive gray stratospheric aerosol optical depth.
    pub aerosol: ForcingSeries,
}

impl Forcings {
    /// True when every channel is empty (identity forcing).
    pub fn is_empty(&self) -> bool {
        self.co2.is_empty() && self.solar.is_empty() && self.aerosol.is_empty()
    }

    /// The integer simulated day a given simulated time falls in —
    /// the forcing evaluation point (constant within each day, so the
    /// effective physics is a pure function of static config + day and
    /// resume is bit-identical for free).
    pub fn day_of(sim_seconds: f64) -> f64 {
        (sim_seconds / SECONDS_PER_DAY).floor()
    }

    /// Channel values in effect on `day`.
    pub(crate) fn at_day(&self, day: f64) -> DailyForcing {
        DailyForcing {
            co2_mult: self.co2.value_at(day).unwrap_or(1.0),
            solar_mult: self.solar.value_at(day).unwrap_or(1.0),
            aerosol_od: self.aerosol.value_at(day).unwrap_or(0.0),
        }
    }

    /// Fold the forcing for `day` into an effective physics
    /// configuration. `PhysicsConfig` is `Copy`, so this is
    /// allocation-free and safe to do per step in the hot loop.
    pub fn apply(&self, base: PhysicsConfig, day: f64) -> PhysicsConfig {
        let f = self.at_day(day);
        let mut cfg = base;
        cfg.rad.co2_factor *= f.co2_mult;
        cfg.rad.solar_scale *= f.solar_mult;
        cfg.rad.aerosol_od += f.aerosol_od;
        cfg
    }
}

impl Codec for Forcings {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.co2.encode(buf);
        self.solar.encode(buf);
        self.aerosol.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(Forcings {
            co2: ForcingSeries::decode(r)?,
            solar: ForcingSeries::decode(r)?,
            aerosol: ForcingSeries::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_is_identity() {
        let f = Forcings::default();
        assert!(f.is_empty());
        let d = f.at_day(100.0);
        assert_eq!(d, DailyForcing::default());
        let base = PhysicsConfig::default();
        let forced = f.apply(base, 100.0);
        // Identity application must preserve exact bits.
        assert_eq!(
            forced.rad.co2_factor.to_bits(),
            base.rad.co2_factor.to_bits()
        );
        assert_eq!(
            forced.rad.solar_scale.to_bits(),
            base.rad.solar_scale.to_bits()
        );
        assert_eq!(
            forced.rad.aerosol_od.to_bits(),
            base.rad.aerosol_od.to_bits()
        );
    }

    #[test]
    fn interpolation_and_extrapolation() {
        let s = ForcingSeries::from_points(vec![(0.0, 1.0), (100.0, 2.0)]).unwrap();
        assert_eq!(s.value_at(-5.0), Some(1.0));
        assert_eq!(s.value_at(0.0), Some(1.0));
        assert_eq!(s.value_at(50.0), Some(1.5));
        assert_eq!(s.value_at(100.0), Some(2.0));
        assert_eq!(s.value_at(250.0), Some(2.0));
    }

    #[test]
    fn from_points_rejects_unsorted_and_nonfinite() {
        assert!(ForcingSeries::from_points(vec![(1.0, 0.5), (1.0, 0.6)]).is_none());
        assert!(ForcingSeries::from_points(vec![(2.0, 0.5), (1.0, 0.6)]).is_none());
        assert!(ForcingSeries::from_points(vec![(0.0, f64::NAN)]).is_none());
        assert!(ForcingSeries::from_points(vec![(f64::INFINITY, 1.0)]).is_none());
        assert!(ForcingSeries::from_points(vec![]).is_some());
    }

    #[test]
    fn day_of_floors_to_simulated_day() {
        assert_eq!(Forcings::day_of(0.0), 0.0);
        assert_eq!(Forcings::day_of(86_399.0), 0.0);
        assert_eq!(Forcings::day_of(86_400.0), 1.0);
        assert_eq!(Forcings::day_of(2.5 * 86_400.0), 2.0);
    }

    #[test]
    fn apply_folds_all_three_channels() {
        let f = Forcings {
            co2: ForcingSeries::constant(2.0),
            solar: ForcingSeries::constant(1.01),
            aerosol: ForcingSeries::from_points(vec![(0.0, 0.0), (10.0, 0.2)]).unwrap(),
        };
        let base = PhysicsConfig::default();
        let eff = f.apply(base, 5.0);
        assert_eq!(eff.rad.co2_factor, base.rad.co2_factor * 2.0);
        assert_eq!(eff.rad.solar_scale, base.rad.solar_scale * 1.01);
        assert!((eff.rad.aerosol_od - 0.1).abs() < 1e-12);
    }

    #[test]
    fn codec_round_trips() {
        let f = Forcings {
            co2: ForcingSeries::from_points(vec![(0.0, 1.0), (70.0 * 360.0, 2.0)]).unwrap(),
            solar: ForcingSeries::default(),
            aerosol: ForcingSeries::constant(0.15),
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let back = Forcings::decode(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(back, f);
    }
}
