//! The per-column physics driver: the sequence CCM runs in every grid
//! column every time step, with the radiation cache refreshed twice per
//! simulated day.

#[cfg(test)]
use foam_grid::constants::L_VAP;
use foam_grid::constants::STEFAN_BOLTZMANN;

use crate::column::{saturation_humidity, AtmColumn};
use crate::convection::{convect_ws, ConvectionParams};
use crate::pbl::vertical_diffusion_ws;
use crate::radiation::{full_radiation_into, OrbitalState, RadCache, RadParams};
use crate::surface::{bulk_fluxes_fixed_z0, bulk_fluxes_ocean, roughness, BulkFluxes, BulkInput};
use crate::workspace::PhysicsWorkspace;

/// What kind of surface underlies a column (sets roughness and the flux
/// formula family; the coupler blends land/sea within a cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SurfaceKind {
    /// Open ocean: CCM3 wind-dependent roughness.
    Ocean,
    /// Sea ice: fixed small roughness, wetness 1.
    SeaIce,
    /// Land with a given roughness length \[m\].
    Land { z0: f64 },
    /// Snow-covered land.
    Snow,
}

/// The surface as the atmosphere sees it for one column and step.
#[derive(Debug, Clone, Copy)]
pub struct SurfaceState {
    pub kind: SurfaceKind,
    /// Surface (skin/SST) temperature \[K\].
    pub t_sfc: f64,
    /// Shortwave albedo.
    pub albedo: f64,
    /// Wetness factor D_w ∈ \[0, 1\].
    pub wetness: f64,
}

impl SurfaceState {
    pub fn open_ocean(sst_k: f64) -> Self {
        SurfaceState {
            kind: SurfaceKind::Ocean,
            t_sfc: sst_k,
            albedo: 0.07,
            wetness: 1.0,
        }
    }
}

/// Which generation of CCM moist physics to emulate. The paper's §6:
/// initial FOAM runs with CCM2 physics represented the tropical Pacific
/// poorly; adopting the CCM3 moist physics (deep convection,
/// re-evaporating stratiform rain, wind-dependent ocean roughness)
/// "vastly improved" it. `Ccm3` is the production setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhysicsVintage {
    /// Hack-only convection, no precip evaporation, fixed ocean
    /// roughness.
    Ccm2,
    /// The upgraded moist physics FOAM adopted.
    #[default]
    Ccm3,
}

/// Physics configuration.
#[derive(Debug, Clone, Copy)]
pub struct PhysicsConfig {
    pub rad: RadParams,
    pub conv: ConvectionParams,
    /// Seconds between full radiation recomputations (paper: twice per
    /// simulated day → 43 200 s).
    pub rad_refresh: f64,
    /// Near-surface PBL diffusivity for unstable conditions \[m²/s\].
    pub k_pbl_unstable: f64,
    /// ... and for stable conditions.
    pub k_pbl_stable: f64,
    /// PBL depth scale \[m\].
    pub pbl_depth: f64,
    /// Reference height of the lowest model level \[m\].
    pub z_ref: f64,
    /// CCM2 or CCM3 moist physics (paper §6): the one switch, from which
    /// convection derives its own ([`ConvectionParams::switches`]).
    pub vintage: PhysicsVintage,
    /// Axial tilt \[deg\] driving the seasonal cycle (23.45 = present
    /// day; paleo scenarios set Milankovitch values).
    pub obliquity_deg: f64,
}

impl PhysicsConfig {
    /// The CCM2-era configuration the paper started from.
    pub fn ccm2() -> Self {
        PhysicsConfig {
            vintage: PhysicsVintage::Ccm2,
            ..Default::default()
        }
    }
}

impl Default for PhysicsConfig {
    fn default() -> Self {
        PhysicsConfig {
            rad: RadParams::default(),
            conv: ConvectionParams::default(),
            rad_refresh: 43_200.0,
            k_pbl_unstable: 60.0,
            k_pbl_stable: 5.0,
            pbl_depth: 1200.0,
            z_ref: 70.0,
            vintage: PhysicsVintage::Ccm3,
            obliquity_deg: crate::radiation::OBLIQUITY_PRESENT_DEG,
        }
    }
}

/// Everything one physics step hands back to the dynamics/coupler.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhysicsTendencies {
    /// Turbulent fluxes at the surface (positive upward).
    pub fluxes: BulkFluxes,
    /// Precipitation reaching the surface over the step \[kg/m²\].
    pub precip: f64,
    /// Shortwave absorbed by the surface \[W/m²\].
    pub sw_sfc: f64,
    /// Downwelling longwave at the surface \[W/m²\].
    pub lw_down_sfc: f64,
    /// Net heat *into* the surface \[W/m²\]:
    /// SW + LW↓ − σT_s⁴ − SH − LH.
    pub net_sfc_heat: f64,
    /// Column cloud fraction (from the radiation cache).
    pub cloud: f64,
    /// Convective work units this step (load-imbalance driver).
    pub iterations: usize,
}

/// The stateless column-physics engine.
#[derive(Debug, Clone, Default)]
pub struct ColumnPhysics {
    pub cfg: PhysicsConfig,
}

impl ColumnPhysics {
    pub fn new(cfg: PhysicsConfig) -> Self {
        ColumnPhysics { cfg }
    }

    /// Whether a full radiation refresh is due at simulated time `t`
    /// given step `dt` (fires when a refresh boundary is crossed).
    /// (Callers must also refresh once before the first step; the
    /// schedule only reports boundary crossings.)
    pub fn radiation_due(&self, sim_t: f64, dt: f64) -> bool {
        let r = self.cfg.rad_refresh;
        (sim_t / r).floor() != ((sim_t + dt) / r).floor()
    }

    /// Compute the turbulent surface fluxes for a column over a given
    /// surface, without modifying the column (the bulk formulas read
    /// only its lowest level).
    pub fn surface_fluxes(
        &self,
        col: &AtmColumn,
        sfc: &SurfaceState,
        wind: (f64, f64),
    ) -> BulkFluxes {
        let n = col.nlev();
        self.bulk_fluxes(
            &self.bulk_input(col.t[n - 1], col.q[n - 1], sfc, wind),
            sfc.kind,
        )
    }

    /// The bulk-formula input for `sfc` under lowest-level air at
    /// temperature `t_air` \[K\] and humidity `q_air`, with `wind` — what
    /// the coupler evaluates on each overlap cell with that side's own
    /// surface state (paper Fig. 1b).
    pub fn bulk_input(
        &self,
        t_air: f64,
        q_air: f64,
        sfc: &SurfaceState,
        wind: (f64, f64),
    ) -> BulkInput {
        BulkInput {
            u: wind.0,
            v: wind.1,
            t_air,
            q_air,
            t_sfc: sfc.t_sfc,
            q_sfc_sat: saturation_humidity(sfc.t_sfc, 1.0e5),
            wetness: sfc.wetness,
            z_ref: self.cfg.z_ref,
        }
    }

    /// The roughness length \[m\] that `kind` holds fixed, or `None` for
    /// the CCM3 open ocean, whose roughness the Charnock iteration
    /// diagnoses ([`crate::surface::bulk_fluxes_ocean_lanes`]).
    pub fn fixed_roughness(&self, kind: SurfaceKind) -> Option<f64> {
        match kind {
            SurfaceKind::Ocean => match self.cfg.vintage {
                PhysicsVintage::Ccm3 => None,
                // CCM2: constant ocean roughness length instead of the
                // wind/stability-diagnosed one.
                PhysicsVintage::Ccm2 => Some(1.0e-4),
            },
            SurfaceKind::SeaIce => Some(roughness::ICE),
            SurfaceKind::Snow => Some(roughness::SNOW),
            SurfaceKind::Land { z0 } => Some(z0),
        }
    }

    /// The fluxes for `inp` over a surface of `kind`: fixed roughness
    /// where [`ColumnPhysics::fixed_roughness`] gives one, else the
    /// diagnosed ocean roughness.
    pub fn bulk_fluxes(&self, inp: &BulkInput, kind: SurfaceKind) -> BulkFluxes {
        match self.fixed_roughness(kind) {
            Some(z0) => bulk_fluxes_fixed_z0(inp, z0),
            None => bulk_fluxes_ocean(inp),
        }
    }

    /// Advance one column by `dt` seconds with surface fluxes supplied
    /// externally (computed by the coupler on the overlap grid). Every
    /// stage (radiation refresh, PBL diffusion, convection) borrows its
    /// scratch from `ws`.
    ///
    /// * `lon`, `lat` — column position \[rad\],
    /// * `cache` — radiation cache, refreshed when `refresh` is true.
    ///
    /// ```
    /// use foam_physics::{
    ///     AtmColumn, ColumnPhysics, OrbitalState, PhysicsWorkspace, RadCache, SurfaceState,
    /// };
    ///
    /// let e = ColumnPhysics::default();
    /// let sfc = SurfaceState::open_ocean(300.0);
    /// let orb = OrbitalState::at(81.0 * 86_400.0);
    /// let mut ws = PhysicsWorkspace::with_levels(18);
    /// let mut col = AtmColumn::standard(18, 299.0);
    /// let mut cache = RadCache::empty(18);
    /// let f = e.surface_fluxes(&col, &sfc, (5.0, 0.0));
    /// let out = e.step_with_fluxes_ws(&mut col, &sfc, f, orb, 3.1, 0.1, &mut cache, true, 1800.0, &mut ws);
    /// assert!(col.t.iter().all(|t| t.is_finite()));
    /// assert!(out.precip >= 0.0 && out.lw_down_sfc > 0.0);
    /// ```
    #[allow(clippy::too_many_arguments)]
    pub fn step_with_fluxes_ws(
        &self,
        col: &mut AtmColumn,
        sfc: &SurfaceState,
        fluxes: BulkFluxes,
        orb: OrbitalState,
        lon: f64,
        lat: f64,
        cache: &mut RadCache,
        refresh: bool,
        dt: f64,
        ws: &mut PhysicsWorkspace,
    ) -> PhysicsTendencies {
        let n = col.nlev();

        // 1. Radiation: expensive refresh on schedule, cheap rescale to
        //    the diurnal cycle's current solar geometry otherwise.
        if refresh {
            full_radiation_into(col, sfc.t_sfc, sfc.albedo, &self.cfg.rad, ws, cache);
        }
        let cosz = orb.cos_zenith(lon, lat);
        for k in 0..n {
            col.t[k] += cache.heating(k, cosz) * dt;
        }

        // 2. Deposit the surface fluxes into the lowest layer.
        let m_low = col.layer_mass(n - 1);
        col.t[n - 1] += fluxes.sensible * dt / (foam_grid::constants::CP_DRY * m_low);
        col.q[n - 1] = (col.q[n - 1] + fluxes.evaporation * dt / m_low).max(0.0);

        // 3. Boundary-layer mixing, stronger when the surface heats the
        //    air from below.
        let k_pbl = if sfc.t_sfc > col.t[n - 1] {
            self.cfg.k_pbl_unstable
        } else {
            self.cfg.k_pbl_stable
        };
        vertical_diffusion_ws(col, dt, k_pbl, self.cfg.pbl_depth, ws);

        // 4. Convection + stratiform condensation.
        let conv = convect_ws(col, dt, &self.cfg.conv, self.cfg.vintage, ws);

        let net_sfc_heat = cache.sw_sfc(cosz) + cache.lw_down_sfc
            - STEFAN_BOLTZMANN * sfc.t_sfc.powi(4)
            - fluxes.sensible
            - fluxes.latent;

        PhysicsTendencies {
            fluxes,
            precip: conv.total_precip(),
            sw_sfc: cache.sw_sfc(cosz),
            lw_down_sfc: cache.lw_down_sfc,
            net_sfc_heat,
            cloud: cache.cloud,
            iterations: conv.iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ColumnPhysics {
        ColumnPhysics::default()
    }

    /// One column step with the surface fluxes computed here from
    /// `wind`, the lowest-model-level wind \[m/s\].
    #[allow(clippy::too_many_arguments)]
    fn step_column(
        e: &ColumnPhysics,
        col: &mut AtmColumn,
        sfc: &SurfaceState,
        wind: (f64, f64),
        orb: OrbitalState,
        lon: f64,
        lat: f64,
        cache: &mut RadCache,
        refresh: bool,
        dt: f64,
    ) -> PhysicsTendencies {
        let fluxes = e.surface_fluxes(col, sfc, wind);
        let ws = &mut PhysicsWorkspace::new();
        e.step_with_fluxes_ws(col, sfc, fluxes, orb, lon, lat, cache, refresh, dt, ws)
    }

    fn noon_tropics() -> (OrbitalState, f64, f64) {
        (
            OrbitalState {
                day_of_year: 81.0,
                seconds_utc: 0.0,
                obliquity_deg: crate::radiation::OBLIQUITY_PRESENT_DEG,
            },
            std::f64::consts::PI, // lon at local noon
            0.1,                  // ~6°N
        )
    }

    #[test]
    fn radiation_refresh_schedule_fires_twice_daily() {
        let e = engine();
        let dt = 1800.0;
        let mut count = 0;
        let steps_per_day = 48;
        for s in 0..steps_per_day {
            if e.radiation_due(s as f64 * dt, dt) {
                count += 1;
            }
        }
        // Boundary crossings at 12 h and 24 h.
        assert_eq!(count, 2, "expected 2 refreshes/day, got {count}");
        assert!(!e.radiation_due(1800.0, 1800.0));
    }

    #[test]
    fn tropical_ocean_column_rains_and_stays_finite() {
        let e = engine();
        let mut col = AtmColumn::standard(18, 300.0);
        let sfc = SurfaceState::open_ocean(302.0);
        let (orb, lon, lat) = noon_tropics();
        let mut cache = RadCache::empty(18);
        let mut total_precip = 0.0;
        for step in 0..48 {
            let t = step as f64 * 1800.0;
            let refresh = e.radiation_due(t, 1800.0);
            let orb_t = OrbitalState {
                seconds_utc: t % 86_400.0,
                ..orb
            };
            let out = step_column(
                &e,
                &mut col,
                &sfc,
                (6.0, 1.0),
                orb_t,
                lon,
                lat,
                &mut cache,
                refresh,
                1800.0,
            );
            total_precip += out.precip;
            assert!(col
                .t
                .iter()
                .all(|t| t.is_finite() && (150.0..360.0).contains(t)));
            assert!(col.q.iter().all(|q| (0.0..0.1).contains(q)));
        }
        // A warm pool column must rain over a day (mm/day scale).
        assert!(
            total_precip > 0.5,
            "tropical precip over one day = {total_precip} kg/m²"
        );
    }

    #[test]
    fn net_surface_heat_has_sane_magnitude_over_ocean() {
        let e = engine();
        let mut col = AtmColumn::standard(18, 295.0);
        let sfc = SurfaceState::open_ocean(295.0);
        let (orb, lon, lat) = noon_tropics();
        let mut cache = RadCache::empty(18);
        let out = step_column(
            &e,
            &mut col,
            &sfc,
            (7.0, 0.0),
            orb,
            lon,
            lat,
            &mut cache,
            true,
            1800.0,
        );
        // At local noon the ocean gains heat; magnitude below solar const.
        assert!(out.net_sfc_heat > 0.0, "noon net heat {}", out.net_sfc_heat);
        assert!(out.net_sfc_heat < 1200.0);
        // At midnight (no SW) it loses heat.
        let midnight = OrbitalState {
            day_of_year: 81.0,
            seconds_utc: 43_200.0,
            obliquity_deg: crate::radiation::OBLIQUITY_PRESENT_DEG,
        };
        let out2 = step_column(
            &e,
            &mut col,
            &sfc,
            (7.0, 0.0),
            midnight,
            lon,
            lat,
            &mut cache,
            false,
            1800.0,
        );
        assert!(
            out2.net_sfc_heat < 0.0,
            "night net heat {}",
            out2.net_sfc_heat
        );
    }

    #[test]
    fn work_counter_reflects_cloudy_vs_clear_imbalance() {
        let e = engine();
        let (orb, lon, _) = noon_tropics();
        let mut cache1 = RadCache::empty(18);
        let mut cache2 = RadCache::empty(18);
        // Warm, moist, unstable tropics vs cold stable high latitude.
        let mut tropics = AtmColumn::standard(18, 303.0);
        tropics.t[17] += 4.0;
        tropics.q[17] = saturation_humidity(tropics.t[17], 1.0e5) * 0.95;
        let mut polar = AtmColumn::standard(18, 260.0);
        let out_t = step_column(
            &e,
            &mut tropics,
            &SurfaceState::open_ocean(305.0),
            (5.0, 0.0),
            orb,
            lon,
            0.05,
            &mut cache1,
            true,
            1800.0,
        );
        let out_p = step_column(
            &e,
            &mut polar,
            &SurfaceState {
                kind: SurfaceKind::SeaIce,
                t_sfc: 255.0,
                albedo: 0.6,
                wetness: 1.0,
            },
            (5.0, 0.0),
            orb,
            lon,
            1.2,
            &mut cache2,
            true,
            1800.0,
        );
        assert!(
            out_t.iterations > out_p.iterations,
            "tropics {} vs polar {}",
            out_t.iterations,
            out_p.iterations
        );
    }

    #[test]
    fn evaporation_feeds_column_water_budget() {
        let e = engine();
        let mut col = AtmColumn::standard(18, 295.0);
        // Dry the column so nothing precipitates this step.
        for q in col.q.iter_mut() {
            *q *= 0.3;
        }
        let w0 = col.precipitable_water();
        let sfc = SurfaceState::open_ocean(299.0);
        let (orb, lon, lat) = noon_tropics();
        let mut cache = RadCache::empty(18);
        let out = step_column(
            &e,
            &mut col,
            &sfc,
            (10.0, 0.0),
            orb,
            lon,
            lat,
            &mut cache,
            true,
            1800.0,
        );
        let w1 = col.precipitable_water();
        let gained = w1 - w0 + out.precip;
        let expected = out.fluxes.evaporation * 1800.0;
        assert!(
            (gained - expected).abs() < 0.05 * expected.abs().max(1e-6),
            "water budget: gained {gained} vs evap input {expected}"
        );
    }

    #[test]
    fn latent_flux_consistent_with_evaporation() {
        let f = BulkFluxes {
            evaporation: 3.0e-5,
            latent: 3.0e-5 * L_VAP,
            ..Default::default()
        };
        assert!((f.latent / f.evaporation - L_VAP).abs() < 1e-9);
    }
}

#[cfg(test)]
mod vintage_driver_tests {
    use super::*;

    #[test]
    fn ccm2_ocean_drag_ignores_wind_speed() {
        let phys2 = ColumnPhysics::new(PhysicsConfig::ccm2());
        let phys3 = ColumnPhysics::new(PhysicsConfig::default());
        let col = AtmColumn::standard(18, 295.0);
        let sfc = SurfaceState::open_ocean(296.0);
        let d2_lo = phys2.surface_fluxes(&col, &sfc, (3.0, 0.0)).c_exchange;
        let d2_hi = phys2.surface_fluxes(&col, &sfc, (20.0, 0.0)).c_exchange;
        let d3_lo = phys3.surface_fluxes(&col, &sfc, (3.0, 0.0)).c_exchange;
        let d3_hi = phys3.surface_fluxes(&col, &sfc, (20.0, 0.0)).c_exchange;
        // CCM3's Charnock roughness grows with wind much more than the
        // CCM2 constant-roughness stability effect alone.
        assert!(
            (d3_hi / d3_lo) > 1.15 * (d2_hi / d2_lo),
            "CCM3 ratio {} vs CCM2 ratio {}",
            d3_hi / d3_lo,
            d2_hi / d2_lo
        );
    }

    #[test]
    fn vintage_defaults_to_ccm3() {
        assert_eq!(PhysicsConfig::default().vintage, PhysicsVintage::Ccm3);
        assert_eq!(PhysicsConfig::ccm2().vintage, PhysicsVintage::Ccm2);
    }
}
