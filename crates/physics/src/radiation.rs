//! Gray two-stream radiation with a solar cycle.
//!
//! CCM's δ-Eddington shortwave and band-model longwave are replaced by a
//! gray (spectrally integrated) treatment that preserves what FOAM needs:
//! a realistic net surface energy balance driving the ocean, water-vapour
//! and cloud dependence, and — computationally — an *expensive full
//! calculation refreshed only twice per simulated day* with a cheap
//! per-step solar-geometry update in between (the long "radiation steps"
//! of the paper's Figure 2 come from exactly this cadence).

use foam_ckpt::{ByteReader, CkptError, Codec};
use foam_grid::constants::{CP_DRY, SECONDS_PER_DAY, SOLAR_CONSTANT, STEFAN_BOLTZMANN};

use crate::column::AtmColumn;
use crate::workspace::{fit, PhysicsWorkspace};

/// Present-day axial tilt \[deg\] — the default obliquity; paleo
/// scenarios override it (Earth's tilt wanders 22.1°–24.5° over the
/// ~41 kyr Milankovitch cycle).
pub const OBLIQUITY_PRESENT_DEG: f64 = 23.45;

/// Orbital / solar geometry at a simulated instant.
#[derive(Debug, Clone, Copy)]
pub struct OrbitalState {
    /// Day of the (360-day) model year, fractional.
    pub day_of_year: f64,
    /// Seconds since local midnight at longitude 0.
    pub seconds_utc: f64,
    /// Axial tilt \[deg\] (declination amplitude).
    pub obliquity_deg: f64,
}

impl OrbitalState {
    /// Construct from absolute simulated seconds with the present-day
    /// obliquity.
    pub fn at(sim_seconds: f64) -> Self {
        Self::at_with(sim_seconds, OBLIQUITY_PRESENT_DEG)
    }

    /// Construct from absolute simulated seconds with an explicit
    /// obliquity \[deg\] (paleo configurations).
    pub fn at_with(sim_seconds: f64, obliquity_deg: f64) -> Self {
        let day = sim_seconds / SECONDS_PER_DAY;
        OrbitalState {
            day_of_year: day % foam_grid::constants::DAYS_PER_YEAR,
            seconds_utc: sim_seconds % SECONDS_PER_DAY,
            obliquity_deg,
        }
    }

    /// Solar declination \[rad\] (±obliquity sinusoid).
    pub(crate) fn declination(&self) -> f64 {
        let obliquity = self.obliquity_deg.to_radians();
        obliquity
            * (2.0 * std::f64::consts::PI * (self.day_of_year - 81.0)
                / foam_grid::constants::DAYS_PER_YEAR)
                .sin()
    }

    /// Cosine of the solar zenith angle at (lon, lat) \[rad\], clipped at 0.
    pub(crate) fn cos_zenith(&self, lon: f64, lat: f64) -> f64 {
        let delta = self.declination();
        let hour_angle = 2.0 * std::f64::consts::PI * self.seconds_utc / SECONDS_PER_DAY + lon
            - std::f64::consts::PI;
        (lat.sin() * delta.sin() + lat.cos() * delta.cos() * hour_angle.cos()).max(0.0)
    }
}

/// Output of the expensive full radiation computation, valid until the
/// next refresh. Shortwave entries are stored per unit cos-zenith so the
/// cheap step can rescale them with current solar geometry.
#[derive(Debug, Clone)]
pub struct RadCache {
    /// Longwave heating rate per layer \[K/s\].
    pub lw_heating: Vec<f64>,
    /// Shortwave heating per layer per unit cosz \[K/s\].
    pub sw_heating_unit: Vec<f64>,
    /// Net shortwave absorbed at the surface per unit cosz \[W/m²\].
    pub sw_sfc_unit: f64,
    /// Downwelling longwave at the surface \[W/m²\].
    pub lw_down_sfc: f64,
    /// Outgoing longwave at the top \[W/m²\].
    pub olr: f64,
    /// Diagnosed column cloud fraction \[0, 1\].
    pub cloud: f64,
}

impl RadCache {
    /// A zero cache (used before the first full computation).
    pub fn empty(nlev: usize) -> Self {
        RadCache {
            lw_heating: vec![0.0; nlev],
            sw_heating_unit: vec![0.0; nlev],
            sw_sfc_unit: 0.0,
            lw_down_sfc: 0.0,
            olr: 0.0,
            cloud: 0.0,
        }
    }

    /// Current heating rate of layer `k` given cos-zenith `cosz`.
    #[inline]
    pub fn heating(&self, k: usize, cosz: f64) -> f64 {
        self.lw_heating[k] + cosz * self.sw_heating_unit[k]
    }

    /// Current shortwave absorbed by the surface \[W/m²\].
    #[inline]
    pub fn sw_sfc(&self, cosz: f64) -> f64 {
        cosz * self.sw_sfc_unit
    }
}

impl Codec for RadCache {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.lw_heating.encode(buf);
        self.sw_heating_unit.encode(buf);
        self.sw_sfc_unit.encode(buf);
        self.lw_down_sfc.encode(buf);
        self.olr.encode(buf);
        self.cloud.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(RadCache {
            lw_heating: Vec::<f64>::decode(r)?,
            sw_heating_unit: Vec::<f64>::decode(r)?,
            sw_sfc_unit: f64::decode(r)?,
            lw_down_sfc: f64::decode(r)?,
            olr: f64::decode(r)?,
            cloud: f64::decode(r)?,
        })
    }
}

/// Gray-gas optical parameters (tuned to give Earth-like budgets).
#[derive(Debug, Clone, Copy)]
pub struct RadParams {
    /// Longwave mass absorption coefficient for water vapour \[m²/kg\].
    pub k_h2o: f64,
    /// Gray CO₂-equivalent optical depth per layer mass \[m²/kg\],
    /// multiplied by `co2_factor` (doubling experiments scale this).
    pub k_co2: f64,
    /// CO₂ scaling (1 = present-day equivalent).
    pub co2_factor: f64,
    /// Shortwave atmospheric absorption fraction per unit column water.
    pub sw_abs_per_pw: f64,
    /// Cloud shortwave albedo at full cover.
    pub cloud_albedo: f64,
    /// Cloud longwave emissivity boost at full cover.
    pub cloud_lw: f64,
    /// Multiplier on the solar constant (1 = nominal 1367 W/m²; solar
    /// sweep scenarios scale this).
    pub solar_scale: f64,
    /// Gray stratospheric aerosol optical depth attenuating the solar
    /// beam (0 = clean; volcanic pulse scenarios raise it).
    pub aerosol_od: f64,
}

impl Default for RadParams {
    fn default() -> Self {
        RadParams {
            k_h2o: 0.10,
            k_co2: 1.0e-4,
            co2_factor: 1.0,
            sw_abs_per_pw: 0.0035,
            cloud_albedo: 0.45,
            cloud_lw: 0.35,
            solar_scale: 1.0,
            aerosol_od: 0.0,
        }
    }
}

/// Diagnose a column cloud fraction from relative humidity (CCM-like RH
/// threshold closure).
pub(crate) fn diagnose_cloud(col: &AtmColumn) -> f64 {
    let mut c: f64 = 0.0;
    for k in 0..col.nlev() {
        let rh = col.rel_humidity(k);
        let ck = ((rh - 0.70) / 0.30).clamp(0.0, 1.0);
        c = c.max(ck * ck);
    }
    c
}

/// The expensive full radiation computation for one column.
///
/// `albedo_sfc` is the surface shortwave albedo; `t_sfc` the surface
/// temperature \[K\]. Overwrites `cache` in place, to be reused
/// (rescaled by solar geometry) until the next refresh; the sweep
/// buffers (emissivity, Planck source, interface fluxes) are borrowed
/// from `ws`, so the twice-daily refresh does not churn the heap.
///
/// ```
/// use foam_physics::radiation::{full_radiation_into, RadParams};
/// use foam_physics::{AtmColumn, PhysicsWorkspace, RadCache};
///
/// let col = AtmColumn::standard(18, 288.0);
/// let mut cache = RadCache::empty(18);
/// let ws = &mut PhysicsWorkspace::new();
/// full_radiation_into(&col, 288.0, 0.1, &RadParams::default(), ws, &mut cache);
/// assert!(cache.olr > 150.0 && cache.olr < 320.0);
/// assert!(cache.sw_sfc(0.5) > 0.0);
/// ```
pub fn full_radiation_into(
    col: &AtmColumn,
    t_sfc: f64,
    albedo_sfc: f64,
    p: &RadParams,
    ws: &mut PhysicsWorkspace,
    cache: &mut RadCache,
) {
    let n = col.nlev();
    let cloud = diagnose_cloud(col);
    let PhysicsWorkspace {
        eps,
        planck,
        down,
        up,
        ..
    } = ws;

    // --- Longwave: gray two-stream sweeps. --------------------------
    // Layer emissivity from water vapour + CO₂ (+ cloud boost).
    fit(eps, n);
    fit(planck, n);
    for k in 0..n {
        let mass = col.layer_mass(k);
        let tau = p.k_h2o * col.q[k] * mass + p.k_co2 * p.co2_factor * mass;
        let e = 1.0 - (-tau).exp();
        eps[k] = (e + p.cloud_lw * cloud * (1.0 - e)).min(1.0);
        planck[k] = STEFAN_BOLTZMANN * col.t[k].powi(4);
    }

    // Downward sweep: D_0 = 0 at TOA.
    fit(down, n + 1);
    for k in 0..n {
        down[k + 1] = down[k] * (1.0 - eps[k]) + eps[k] * planck[k];
    }
    // Upward sweep: U at the surface is σT_s⁴ (unit emissivity surface).
    fit(up, n + 1);
    up[n] = STEFAN_BOLTZMANN * t_sfc.powi(4);
    for k in (0..n).rev() {
        up[k] = up[k + 1] * (1.0 - eps[k]) + eps[k] * planck[k];
    }
    // Net upward flux at each interface; heating = -dF/dm / cp.
    let lw_heating = &mut cache.lw_heating;
    fit(lw_heating, n);
    for k in 0..n {
        let f_top = up[k] - down[k];
        let f_bot = up[k + 1] - down[k + 1];
        lw_heating[k] = (f_bot - f_top) / (CP_DRY * col.layer_mass(k));
    }

    // --- Shortwave (per unit cosz). ----------------------------------
    let pw = col.precipitable_water();
    let a_atm = (p.sw_abs_per_pw * pw + 0.05).min(0.35);
    let a_cloud = p.cloud_albedo * cloud;
    // Effective TOA beam: scaled solar constant through the gray
    // stratospheric aerosol layer (Beer–Lambert). At the defaults
    // (scale 1, depth 0) both factors are exactly 1.0, so unforced runs
    // keep their historical bit patterns.
    let toa = SOLAR_CONSTANT * p.solar_scale * (-p.aerosol_od).exp(); // per unit cosz
    let reaching_sfc = toa * (1.0 - a_cloud) * (1.0 - a_atm);
    let sw_sfc_unit = reaching_sfc * (1.0 - albedo_sfc);
    // Atmospheric absorption distributed ∝ layer water content.
    let absorbed = toa * (1.0 - a_cloud) * a_atm;
    let wsum: f64 = (0..n)
        .map(|k| col.q[k] * col.layer_mass(k))
        .sum::<f64>()
        .max(1e-9);
    let sw_heating_unit = &mut cache.sw_heating_unit;
    fit(sw_heating_unit, n);
    for k in 0..n {
        let frac = col.q[k] * col.layer_mass(k) / wsum;
        sw_heating_unit[k] = absorbed * frac / (CP_DRY * col.layer_mass(k));
    }

    cache.sw_sfc_unit = sw_sfc_unit;
    cache.lw_down_sfc = down[n];
    cache.olr = up[0];
    cache.cloud = cloud;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_radiation(col: &AtmColumn, t_sfc: f64, albedo_sfc: f64, p: &RadParams) -> RadCache {
        let mut cache = RadCache::empty(col.nlev());
        let ws = &mut PhysicsWorkspace::new();
        full_radiation_into(col, t_sfc, albedo_sfc, p, ws, &mut cache);
        cache
    }

    fn col() -> AtmColumn {
        AtmColumn::standard(18, 288.0)
    }

    #[test]
    fn zenith_geometry() {
        // Equinox-ish day, local noon at lon 180°: sun overhead at equator.
        let o = OrbitalState {
            day_of_year: 81.0,
            seconds_utc: 0.0,
            obliquity_deg: OBLIQUITY_PRESENT_DEG,
        };
        let cz = o.cos_zenith(std::f64::consts::PI, 0.0);
        assert!(cz > 0.99, "noon equator equinox cosz = {cz}");
        // Midnight at lon 0 → dark.
        assert_eq!(o.cos_zenith(0.0, 0.0), 0.0);
        // Poles near equinox get grazing light.
        assert!(o.cos_zenith(std::f64::consts::PI, 1.5) < 0.15);
    }

    #[test]
    fn declination_cycles_with_season() {
        let solstice_n = OrbitalState {
            day_of_year: 171.0,
            seconds_utc: 0.0,
            obliquity_deg: OBLIQUITY_PRESENT_DEG,
        };
        assert!(solstice_n.declination() > 23.0f64.to_radians());
        let solstice_s = OrbitalState {
            day_of_year: 351.0,
            seconds_utc: 0.0,
            obliquity_deg: OBLIQUITY_PRESENT_DEG,
        };
        assert!(solstice_s.declination() < -23.0f64.to_radians());
    }

    #[test]
    fn olr_is_earthlike_and_less_than_surface_emission() {
        let c = col();
        let r = full_radiation(&c, 288.0, 0.1, &RadParams::default());
        let sfc = STEFAN_BOLTZMANN * 288.0f64.powi(4); // ≈ 390 W/m²
        assert!(r.olr < sfc, "greenhouse trapping absent");
        assert!(
            (150.0..320.0).contains(&r.olr),
            "OLR {} not Earth-like",
            r.olr
        );
        // Downwelling LW at surface is a large fraction of σT⁴.
        assert!(r.lw_down_sfc > 0.5 * sfc && r.lw_down_sfc < sfc);
    }

    #[test]
    fn lw_cools_troposphere() {
        let c = col();
        let r = full_radiation(&c, 288.0, 0.1, &RadParams::default());
        // Net longwave column effect is cooling, a few K/day total.
        let mean: f64 = r.lw_heating.iter().sum::<f64>() / 18.0;
        let per_day = mean * SECONDS_PER_DAY;
        assert!(per_day < 0.0, "LW should cool on average: {per_day} K/day");
        assert!(per_day > -6.0, "LW cooling too strong: {per_day} K/day");
    }

    #[test]
    fn co2_increase_warms_surface_forcing() {
        let c = col();
        let base = full_radiation(&c, 288.0, 0.1, &RadParams::default());
        let doubled = full_radiation(
            &c,
            288.0,
            0.1,
            &RadParams {
                co2_factor: 4.0,
                ..Default::default()
            },
        );
        assert!(
            doubled.olr < base.olr,
            "more CO₂ must reduce OLR at fixed T"
        );
        assert!(doubled.lw_down_sfc > base.lw_down_sfc);
    }

    #[test]
    fn sw_budget_closes() {
        let c = col();
        let p = RadParams::default();
        let r = full_radiation(&c, 288.0, 0.2, &p);
        let cosz = 0.8;
        let toa_in = SOLAR_CONSTANT * cosz;
        let sfc = r.sw_sfc(cosz);
        let atm_abs: f64 = (0..18)
            .map(|k| cosz * r.sw_heating_unit[k] * CP_DRY * c.layer_mass(k))
            .sum();
        // Absorbed (sfc + atm) ≤ incoming, and reflected = rest.
        let absorbed = sfc + atm_abs;
        assert!(absorbed < toa_in);
        let albedo = 1.0 - absorbed / toa_in;
        assert!(
            (0.1..0.6).contains(&albedo),
            "planetary albedo {albedo} implausible"
        );
    }

    #[test]
    fn moist_column_is_cloudier() {
        let dry = col();
        let mut wet = col();
        for k in 10..18 {
            wet.q[k] = crate::column::saturation_humidity(wet.t[k], wet.p[k]) * 0.97;
        }
        assert!(diagnose_cloud(&wet) > diagnose_cloud(&dry));
        assert!(diagnose_cloud(&wet) <= 1.0);
    }

    #[test]
    fn solar_scale_and_aerosol_modulate_the_beam() {
        let c = col();
        let base = full_radiation(&c, 288.0, 0.1, &RadParams::default());
        let bright = full_radiation(
            &c,
            288.0,
            0.1,
            &RadParams {
                solar_scale: 1.02,
                ..Default::default()
            },
        );
        // A 2 % brighter sun delivers exactly 2 % more surface SW.
        assert!((bright.sw_sfc_unit / base.sw_sfc_unit - 1.02).abs() < 1e-12);
        let hazy = full_radiation(
            &c,
            288.0,
            0.1,
            &RadParams {
                aerosol_od: 0.15,
                ..Default::default()
            },
        );
        // Beer–Lambert: OD 0.15 attenuates the beam by e^-0.15.
        assert!((hazy.sw_sfc_unit / base.sw_sfc_unit - (-0.15f64).exp()).abs() < 1e-12);
        // Longwave is untouched by either solar knob.
        assert_eq!(hazy.olr.to_bits(), base.olr.to_bits());
        assert_eq!(bright.lw_down_sfc.to_bits(), base.lw_down_sfc.to_bits());
    }

    #[test]
    fn defaults_preserve_unforced_bit_patterns() {
        let c = col();
        let p = RadParams::default();
        assert_eq!(p.solar_scale, 1.0);
        assert_eq!(p.aerosol_od, 0.0);
        let r = full_radiation(&c, 288.0, 0.1, &p);
        // ×1.0 and ×exp(-0.0)=×1.0 must be bit-exact no-ops.
        let toa = SOLAR_CONSTANT * p.solar_scale * (-p.aerosol_od).exp();
        assert_eq!(toa.to_bits(), SOLAR_CONSTANT.to_bits());
        assert!(r.sw_sfc_unit > 0.0);
    }

    #[test]
    fn lower_obliquity_flattens_the_seasonal_cycle() {
        let present = OrbitalState {
            day_of_year: 171.0,
            seconds_utc: 0.0,
            obliquity_deg: OBLIQUITY_PRESENT_DEG,
        };
        let paleo = OrbitalState {
            obliquity_deg: 22.1,
            ..present
        };
        assert!(paleo.declination() < present.declination());
        // Polar summer insolation drops with obliquity (local noon at
        // longitude π: `seconds_utc` is 0).
        let noon = std::f64::consts::PI;
        assert!(paleo.cos_zenith(noon, 1.4) < present.cos_zenith(noon, 1.4));
        // `at` uses the present-day tilt.
        assert_eq!(OrbitalState::at(0.0).obliquity_deg, OBLIQUITY_PRESENT_DEG);
        assert_eq!(OrbitalState::at_with(0.0, 24.5).obliquity_deg, 24.5);
    }

    #[test]
    fn cache_scales_with_zenith() {
        let c = col();
        let r = full_radiation(&c, 288.0, 0.1, &RadParams::default());
        assert_eq!(r.sw_sfc(0.0), 0.0);
        let h_night = r.heating(17, 0.0);
        let h_day = r.heating(17, 1.0);
        assert!(h_day > h_night);
    }
}
