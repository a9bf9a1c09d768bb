//! Moist convection and stratiform condensation.
//!
//! FOAM started from CCM2's Hack mass-flux scheme and gained CCM3's
//! Zhang–McFarlane deep convection plus evaporation of stratiform
//! precipitation — the paper singles out this upgrade as what "vastly
//! improved its representation of the tropical Pacific". The schemes
//! here keep that division of labour:
//!
//! * a *dry/shallow adjustment* pass (Hack-like: local instability removed
//!   by mixing adjacent layers, iterated to convergence — iteration count
//!   varies with cloudiness and is the model's load-imbalance source),
//! * *deep convection* closed on CAPE (Zhang–McFarlane-like: relax the
//!   profile toward a moist adiabat over a fixed timescale, precipitating
//!   the implied moisture),
//! * *stratiform condensation* removing supersaturation, with
//!   re-evaporation of falling precipitation in dry layers below (the
//!   CCM3 addition).
//!
//! All tendencies conserve column moist enthalpy (c_p T + L q) and water
//! to rounding; tests enforce both.

use foam_grid::constants::{CP_DRY, L_VAP, R_DRY};

use crate::column::{moist_adiabat_lanes, saturation_humidity, AtmColumn};
use crate::driver::PhysicsVintage;
use crate::workspace::{fit, PhysicsWorkspace};

/// Tunable parameters.
#[derive(Debug, Clone, Copy)]
pub struct ConvectionParams {
    /// CAPE needed to trigger deep convection \[J/kg\].
    pub cape_threshold: f64,
    /// Deep-convective adjustment timescale \[s\].
    pub tau_deep: f64,
    /// Maximum dry/shallow adjustment sweeps.
    pub max_iters: usize,
    /// Fraction of falling stratiform precip that may re-evaporate per
    /// subsaturated layer (CCM3).
    pub evap_eff: f64,
}

impl ConvectionParams {
    /// What `vintage` runs: whether the Zhang–McFarlane-style deep
    /// convection is on, and the re-evaporation efficiency of falling
    /// precipitation. CCM3 has both; CCM2 relied on the Hack scheme
    /// alone and let all rain reach the ground — the paper's §6 traces
    /// its early tropical-Pacific problems to exactly this.
    pub fn switches(&self, vintage: PhysicsVintage) -> (bool, f64) {
        match vintage {
            PhysicsVintage::Ccm3 => (true, self.evap_eff),
            PhysicsVintage::Ccm2 => (false, 0.0),
        }
    }
}

impl Default for ConvectionParams {
    fn default() -> Self {
        ConvectionParams {
            cape_threshold: 70.0,
            tau_deep: 7200.0,
            max_iters: 20,
            evap_eff: 0.25,
        }
    }
}

/// What one convection call did to the column.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvectionResult {
    /// Deep convective precipitation \[kg/m²\] over the step.
    pub precip_deep: f64,
    /// Stratiform precipitation reaching the surface \[kg/m²\].
    pub precip_stratiform: f64,
    /// Total adjustment sweeps performed — the "work units" whose
    /// horizontal variation produces the load imbalance of Figure 2.
    pub iterations: usize,
}

impl ConvectionResult {
    pub fn total_precip(&self) -> f64 {
        self.precip_deep + self.precip_stratiform
    }
}

/// Remove dry static instability by mixing adjacent layers (conserving
/// c_p T mass-weighted enthalpy and water), sweeping until the column is
/// stable or `max_iters` is reached. Returns the number of sweeps. The
/// Exner factors of the pressure grid are read from `ws` (computed once
/// per grid) instead of calling `powf` four times per layer pair per
/// sweep.
pub(crate) fn dry_adjustment_ws(
    col: &mut AtmColumn,
    max_iters: usize,
    ws: &mut PhysicsWorkspace,
) -> usize {
    let n = col.nlev();
    let pf = ws.pressure.of(&col.p);
    for it in 0..max_iters {
        let mut changed = false;
        for k in 0..n - 1 {
            // k is above k+1. Instability: θ increases downward.
            let th_up = col.t[k] * pf.inv_exner[k];
            let th_dn = col.t[k + 1] * pf.inv_exner[k + 1];
            if th_dn > th_up + 1e-6 {
                let m1 = col.layer_mass(k);
                let m2 = col.layer_mass(k + 1);
                // Mix to a common potential temperature, preserving
                // mass-weighted enthalpy via the Exner weights.
                let ex1 = pf.exner[k];
                let ex2 = pf.exner[k + 1];
                let th_mix = (m1 * ex1 * th_up + m2 * ex2 * th_dn) / (m1 * ex1 + m2 * ex2);
                col.t[k] = th_mix * ex1;
                col.t[k + 1] = th_mix * ex2;
                let q_mix = (m1 * col.q[k] + m2 * col.q[k + 1]) / (m1 + m2);
                col.q[k] = q_mix;
                col.q[k + 1] = q_mix;
                changed = true;
            }
        }
        if !changed {
            return it + 1;
        }
    }
    max_iters
}

/// Levels of the parcel ascent solved together by
/// [`moist_adiabat_lanes`]. The levels left over once a column is cut
/// into groups of this width run as one more group at their exact
/// width (1 to 7), so no lane ever computes a level the column does
/// not have, and a short column (3 levels in the century preset) is
/// one group of its own depth rather than a level at a time.
const PARCEL_LANES: usize = 8;

/// The parcel temperature at the `W` levels from `k0`, as lanes of one
/// moist-adiabat solve.
fn ascend<const W: usize>(
    parcel: &mut [f64],
    k0: usize,
    t0: f64,
    q0: f64,
    lift: &[f64],
    p: &[f64],
) {
    let t_dry: [f64; W] = std::array::from_fn(|l| t0 * lift[k0 + l]);
    let p = std::array::from_fn(|l| p[k0 + l]);
    parcel[k0..k0 + W].copy_from_slice(&moist_adiabat_lanes(t_dry, q0, p));
}

/// Convective available potential energy of a parcel lifted
/// pseudo-adiabatically from the lowest layer \[J/kg\]. The
/// pressure-grid factors are read from `ws`, and the parcel's
/// temperature at every level above the lowest is left in `ws.parcel`
/// for `deep_convection_ws`.
pub fn compute_cape_ws(col: &AtmColumn, ws: &mut PhysicsWorkspace) -> f64 {
    let n = col.nlev();
    let pf = ws.pressure.of(&col.p);
    let t0 = col.t[n - 1];
    let q0 = col.q[n - 1];
    let parcel = &mut ws.parcel;
    fit(parcel, n - 1);
    // The ascent, PARCEL_LANES levels at a time, then the rest as one
    // group at its own width.
    let grouped = (n - 1) / PARCEL_LANES * PARCEL_LANES;
    for k0 in (0..grouped).step_by(PARCEL_LANES) {
        ascend::<PARCEL_LANES>(parcel, k0, t0, q0, &pf.lift, &col.p);
    }
    let (k0, lift, p) = (grouped, &pf.lift, &col.p);
    match n - 1 - grouped {
        0 => {}
        1 => ascend::<1>(parcel, k0, t0, q0, lift, p),
        2 => ascend::<2>(parcel, k0, t0, q0, lift, p),
        3 => ascend::<3>(parcel, k0, t0, q0, lift, p),
        4 => ascend::<4>(parcel, k0, t0, q0, lift, p),
        5 => ascend::<5>(parcel, k0, t0, q0, lift, p),
        6 => ascend::<6>(parcel, k0, t0, q0, lift, p),
        7 => ascend::<7>(parcel, k0, t0, q0, lift, p),
        _ => unreachable!("fewer than PARCEL_LANES levels are left"),
    }
    // The integral, upward from the lowest level: its summation order
    // is part of the pinned bits.
    let mut cape = 0.0;
    for k in (0..n - 1).rev() {
        let buoy = R_DRY * (parcel[k] - col.t[k]);
        if buoy > 0.0 {
            cape += buoy * pf.dlnp[k];
        }
    }
    cape
}

/// Zhang–McFarlane-style deep convection: when CAPE exceeds the
/// threshold, relax the temperature profile toward the parcel moist
/// adiabat with timescale `tau_deep`, paying for the heating with column
/// moisture (the precipitated water). Conserves moist enthalpy exactly.
/// Returns (precip \[kg/m²\], sweeps used). Scratch is borrowed from
/// `ws`, and the moist adiabat it relaxes toward is the profile the CAPE
/// integral has just computed (the column has not changed in between).
pub(crate) fn deep_convection_ws(
    col: &mut AtmColumn,
    dt: f64,
    p: &ConvectionParams,
    ws: &mut PhysicsWorkspace,
) -> (f64, usize) {
    let cape = compute_cape_ws(col, ws);
    if cape < p.cape_threshold {
        return (0.0, 1);
    }
    let PhysicsWorkspace { parcel, dts, .. } = ws;
    let n = col.nlev();
    // Heating demanded by relaxation toward the moist adiabat.
    let mut heat = 0.0; // J/m²
    fit(dts, n);
    for k in 0..n - 1 {
        let t_ref = parcel[k];
        if t_ref > col.t[k] {
            let d = (t_ref - col.t[k]) * dt / p.tau_deep;
            dts[k] = d;
            heat += CP_DRY * d * col.layer_mass(k);
        }
    }
    // The latent supply: water available in the lower half of the column.
    let mut avail = 0.0;
    for k in n / 2..n {
        avail += 0.5 * col.q[k] * col.layer_mass(k);
    }
    let precip_needed = heat / L_VAP;
    let precip = precip_needed.min(avail);
    if precip <= 0.0 {
        return (0.0, 1);
    }
    let scale = precip / precip_needed;
    for k in 0..n - 1 {
        col.t[k] += dts[k] * scale;
    }
    // Remove the precipitated water from the lower half, ∝ q·m.
    let mut wsum = 0.0;
    for k in n / 2..n {
        wsum += col.q[k] * col.layer_mass(k);
    }
    for k in n / 2..n {
        let frac = col.q[k] * col.layer_mass(k) / wsum;
        col.q[k] -= precip * frac / col.layer_mass(k);
    }
    // Sweeps scale with how active the event was (mimics iterative mass
    // flux closure cost).
    let sweeps = 2 + (cape / p.cape_threshold).min(8.0) as usize;
    (precip, sweeps)
}

/// Hack-style shallow moistening: mix humidity upward through the lowest
/// three layers when the surface layer is nearly saturated.
pub(crate) fn shallow_convection(col: &mut AtmColumn) -> usize {
    let n = col.nlev();
    if n < 3 {
        return 0;
    }
    if col.rel_humidity(n - 1) < 0.85 {
        return 0;
    }
    let ks = [n - 3, n - 2, n - 1];
    let mtot: f64 = ks.iter().map(|&k| col.layer_mass(k)).sum();
    let qbar: f64 = ks
        .iter()
        .map(|&k| col.q[k] * col.layer_mass(k))
        .sum::<f64>()
        / mtot;
    for &k in &ks {
        // Partial mixing toward the triplet mean.
        col.q[k] += 0.5 * (qbar - col.q[k]);
    }
    1
}

/// Stratiform condensation with evaporation of a fraction `evap_eff` of
/// the falling precipitation into each subsaturated layer below. Returns
/// the precipitation reaching the surface \[kg/m²\].
pub fn stratiform(col: &mut AtmColumn, evap_eff: f64) -> f64 {
    let n = col.nlev();
    let mut falling = 0.0; // kg/m² of liquid falling into the layer below
    for k in 0..n {
        let qs = saturation_humidity(col.t[k], col.p[k]);
        if col.q[k] > qs {
            // Condense the excess, with the latent-heat feedback factor
            // (condensation warms, raising q_sat).
            let tc = col.t[k] - 273.15;
            let dqs_dt = qs * 17.27 * 237.3 / ((tc + 237.3) * (tc + 237.3));
            let gamma = 1.0 + L_VAP / CP_DRY * dqs_dt;
            let dq = (col.q[k] - qs) / gamma;
            col.q[k] -= dq;
            col.t[k] += L_VAP / CP_DRY * dq;
            falling += dq * col.layer_mass(k);
        } else if falling > 0.0 {
            // Evaporate some of the falling precip into subsaturated air.
            let deficit = (qs - col.q[k]) * col.layer_mass(k);
            let evap = (evap_eff * falling).min(deficit).max(0.0);
            col.q[k] += evap / col.layer_mass(k);
            col.t[k] -= L_VAP / CP_DRY * evap / col.layer_mass(k);
            falling -= evap;
        }
    }
    falling
}

/// The full convection sequence of `vintage` for one step;
/// deep-convection scratch and the pressure-grid factors are borrowed
/// from `ws`.
///
/// ```
/// use foam_physics::convection::{convect_ws, ConvectionParams};
/// use foam_physics::{AtmColumn, PhysicsVintage, PhysicsWorkspace};
///
/// let mut ws = PhysicsWorkspace::new();
/// let mut col = AtmColumn::standard(18, 302.0);
/// col.t[17] += 3.0; // make it convect
/// let p = ConvectionParams::default();
/// let r = convect_ws(&mut col, 1800.0, &p, PhysicsVintage::Ccm3, &mut ws);
/// assert!(r.total_precip() > 0.0 && r.iterations > 1);
/// ```
pub fn convect_ws(
    col: &mut AtmColumn,
    dt: f64,
    p: &ConvectionParams,
    vintage: PhysicsVintage,
    ws: &mut PhysicsWorkspace,
) -> ConvectionResult {
    let (deep, evap_eff) = p.switches(vintage);
    let it_dry = dry_adjustment_ws(col, p.max_iters, ws);
    let it_shallow = shallow_convection(col);
    let (precip_deep, it_deep) = if deep {
        deep_convection_ws(col, dt, p, ws)
    } else {
        (0.0, 0)
    };
    let precip_stratiform = stratiform(col, evap_eff);
    ConvectionResult {
        precip_deep,
        precip_stratiform,
        iterations: it_dry + it_shallow + it_deep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws() -> PhysicsWorkspace {
        PhysicsWorkspace::new()
    }

    fn stable_col() -> AtmColumn {
        AtmColumn::standard(18, 288.0)
    }

    /// A column with essentially no CAPE: cold surface, dry boundary
    /// layer (a 6.5 K/km column with a moist warm boundary layer is
    /// genuinely conditionally unstable, so `stable_col` is not
    /// CAPE-free).
    fn cape_free_col() -> AtmColumn {
        let mut c = AtmColumn::standard(18, 265.0);
        for q in c.q.iter_mut() {
            *q *= 0.25;
        }
        c
    }

    fn unstable_col() -> AtmColumn {
        let mut c = AtmColumn::standard(18, 302.0);
        // Hot, very moist boundary layer under a cooler column.
        let n = c.nlev();
        c.t[n - 1] += 6.0;
        c.q[n - 1] = 0.9 * saturation_humidity(c.t[n - 1], c.p[n - 1]);
        c.q[n - 2] = 0.9 * saturation_humidity(c.t[n - 2], c.p[n - 2]);
        c
    }

    /// `dry_adjustment` as written before the pressure factors were
    /// cached: every θ and Exner weight from its own `powf`.
    fn dry_adjustment_uncached(col: &mut AtmColumn, max_iters: usize) -> usize {
        let n = col.nlev();
        for it in 0..max_iters {
            let mut changed = false;
            for k in 0..n - 1 {
                let th_up = col.theta(k);
                let th_dn = col.theta(k + 1);
                if th_dn > th_up + 1e-6 {
                    let m1 = col.layer_mass(k);
                    let m2 = col.layer_mass(k + 1);
                    let ex1 = (col.p[k] / 1.0e5f64).powf(R_DRY / CP_DRY);
                    let ex2 = (col.p[k + 1] / 1.0e5f64).powf(R_DRY / CP_DRY);
                    let th_mix = (m1 * ex1 * th_up + m2 * ex2 * th_dn) / (m1 * ex1 + m2 * ex2);
                    col.t[k] = th_mix * ex1;
                    col.t[k + 1] = th_mix * ex2;
                    let q_mix = (m1 * col.q[k] + m2 * col.q[k + 1]) / (m1 + m2);
                    col.q[k] = q_mix;
                    col.q[k + 1] = q_mix;
                    changed = true;
                }
            }
            if !changed {
                return it + 1;
            }
        }
        max_iters
    }

    /// The parcel profile and CAPE from `moist_adiabat` (its own `powf`,
    /// one level at a time) and a fresh `ln` per layer, as
    /// `compute_cape` was written.
    fn cape_uncached(col: &AtmColumn) -> (Vec<f64>, f64) {
        let n = col.nlev();
        let (t0, q0, p0) = (col.t[n - 1], col.q[n - 1], col.p[n - 1]);
        let mut parcel = vec![0.0; n - 1];
        let mut cape = 0.0;
        for k in (0..n - 1).rev() {
            parcel[k] = crate::column::moist_adiabat(t0, q0, p0, col.p[k]);
            let buoy = R_DRY * (parcel[k] - col.t[k]);
            if buoy > 0.0 {
                cape += buoy * (col.p[k + 1] / col.p[k]).ln();
            }
        }
        (parcel, cape)
    }

    #[test]
    fn cached_pressure_factors_change_no_bits() {
        // One workspace across columns and depths, as the model uses it.
        let mut ws = PhysicsWorkspace::new();
        let mut cols = vec![stable_col(), cape_free_col(), unstable_col()];
        cols.push(AtmColumn::standard(8, 295.0));
        let mut inverted = stable_col();
        inverted.t[9] += 25.0; // needs several adjustment sweeps
        cols.push(inverted);
        for col in cols {
            let (mut a, mut b) = (col.clone(), col.clone());
            assert_eq!(
                dry_adjustment_uncached(&mut a, 20),
                dry_adjustment_ws(&mut b, 20, &mut ws)
            );
            assert_eq!(a.t, b.t);
            assert_eq!(a.q, b.q);
            let (parcel, cape) = cape_uncached(&col);
            assert_eq!(cape.to_bits(), compute_cape_ws(&col, &mut ws).to_bits());
            assert_eq!(parcel, ws.parcel);
        }
    }

    #[test]
    fn dry_adjustment_stabilizes_and_conserves() {
        let mut c = stable_col();
        let n = c.nlev();
        c.t[n - 1] += 10.0; // superadiabatic kick
        let h0 = c.moist_enthalpy();
        let w0 = c.precipitable_water();
        let iters = dry_adjustment_ws(&mut c, 50, &mut ws());
        assert!(iters >= 2, "unstable column should need work");
        for k in 1..n {
            assert!(c.theta(k - 1) >= c.theta(k) - 1e-5, "still unstable at {k}");
        }
        assert!((c.moist_enthalpy() - h0).abs() < 1e-6 * h0);
        assert!((c.precipitable_water() - w0).abs() < 1e-12 * w0.max(1.0));
    }

    #[test]
    fn stable_column_needs_one_sweep() {
        let mut c = stable_col();
        assert_eq!(dry_adjustment_ws(&mut c, 50, &mut ws()), 1);
    }

    #[test]
    fn cape_discriminates_stability() {
        let quiet = compute_cape_ws(&cape_free_col(), &mut ws());
        assert!(quiet < 70.0, "cold dry column CAPE = {quiet}");
        let u = compute_cape_ws(&unstable_col(), &mut ws());
        assert!(u > 500.0, "tropical sounding CAPE = {u}");
        assert!(u > 10.0 * quiet.max(1.0));
    }

    #[test]
    fn deep_convection_rains_and_conserves_enthalpy() {
        let mut c = unstable_col();
        let h0 = c.moist_enthalpy();
        let w0 = c.precipitable_water();
        let (precip, sweeps) =
            deep_convection_ws(&mut c, 1800.0, &ConvectionParams::default(), &mut ws());
        assert!(precip > 0.0, "deep convection should precipitate");
        assert!(sweeps > 1);
        // Moist enthalpy conserved: heating paid by latent release.
        assert!(
            (c.moist_enthalpy() - h0).abs() < 1e-7 * h0,
            "enthalpy drift {}",
            (c.moist_enthalpy() - h0) / h0
        );
        // Water budget: column lost exactly the precip.
        assert!((w0 - c.precipitable_water() - precip).abs() < 1e-9 * w0);
        // CAPE reduced.
        assert!(compute_cape_ws(&c, &mut ws()) < compute_cape_ws(&unstable_col(), &mut ws()));
    }

    #[test]
    fn deep_convection_skips_stable_columns() {
        let mut c = cape_free_col();
        let before = c.clone();
        let (precip, _) =
            deep_convection_ws(&mut c, 1800.0, &ConvectionParams::default(), &mut ws());
        assert_eq!(precip, 0.0);
        assert_eq!(c.t, before.t);
    }

    #[test]
    fn stratiform_removes_supersaturation_and_closes_water() {
        let mut c = stable_col();
        // Supersaturate a mid-level layer.
        c.q[8] = 1.3 * saturation_humidity(c.t[8], c.p[8]);
        let w0 = c.precipitable_water();
        let h0 = c.moist_enthalpy();
        let precip = stratiform(&mut c, ConvectionParams::default().evap_eff);
        assert!(precip > 0.0);
        assert!(c.rel_humidity(8) <= 1.01);
        assert!((w0 - c.precipitable_water() - precip).abs() < 1e-9 * w0);
        assert!((c.moist_enthalpy() - h0).abs() < 1e-7 * h0);
    }

    #[test]
    fn precip_evaporation_moistens_dry_layers_below() {
        let mut c = stable_col();
        c.q[5] = 1.5 * saturation_humidity(c.t[5], c.p[5]);
        // Make the layer below very dry.
        c.q[6] *= 0.1;
        let q6_before = c.q[6];
        let _ = stratiform(&mut c, ConvectionParams::default().evap_eff);
        assert!(c.q[6] > q6_before, "falling rain should re-evaporate");
    }

    #[test]
    fn convect_work_varies_with_instability() {
        let mut stable = stable_col();
        let mut unstable = unstable_col();
        let p = ConvectionParams::default();
        let r_stable = convect_ws(&mut stable, 1800.0, &p, PhysicsVintage::Ccm3, &mut ws());
        let r_unstable = convect_ws(&mut unstable, 1800.0, &p, PhysicsVintage::Ccm3, &mut ws());
        assert!(
            r_unstable.iterations > r_stable.iterations,
            "load imbalance source: {} vs {}",
            r_unstable.iterations,
            r_stable.iterations
        );
        assert!(r_unstable.total_precip() > 0.0);
    }
}

#[cfg(test)]
mod vintage_tests {
    use super::*;
    use crate::column::saturation_humidity;

    fn ws() -> PhysicsWorkspace {
        PhysicsWorkspace::new()
    }

    fn tropical_col() -> AtmColumn {
        let mut c = AtmColumn::standard(18, 302.0);
        let n = c.nlev();
        c.t[n - 1] += 6.0;
        c.q[n - 1] = 0.9 * saturation_humidity(c.t[n - 1], c.p[n - 1]);
        c.q[n - 2] = 0.9 * saturation_humidity(c.t[n - 2], c.p[n - 2]);
        c
    }

    fn convect(c: &mut AtmColumn, vintage: PhysicsVintage) -> ConvectionResult {
        convect_ws(c, 1800.0, &ConvectionParams::default(), vintage, &mut ws())
    }

    #[test]
    fn ccm2_configuration_disables_deep_convection() {
        // Same column, same parameters: only the vintage differs, and
        // only CCM3 spends the deep-convective sweeps.
        let p = ConvectionParams::default();
        assert_eq!(p.switches(PhysicsVintage::Ccm2), (false, 0.0));
        let r2 = convect(&mut tropical_col(), PhysicsVintage::Ccm2);
        let r3 = convect(&mut tropical_col(), PhysicsVintage::Ccm3);
        assert_eq!(r2.precip_deep, 0.0);
        assert!(r3.precip_deep > 0.0, "CCM3 config must convect deeply");
    }

    #[test]
    fn ccm2_configuration_disables_precip_evaporation() {
        // Supersaturated layer above a dry one: with CCM2 all the
        // condensate reaches the surface.
        let make = || {
            let mut c = AtmColumn::standard(18, 290.0);
            c.q[5] = 1.5 * saturation_humidity(c.t[5], c.p[5]);
            c.q[6] *= 0.1;
            c
        };
        let p = ConvectionParams::default();
        let (_, evap2) = p.switches(PhysicsVintage::Ccm2);
        let (_, evap3) = p.switches(PhysicsVintage::Ccm3);
        let rain2 = stratiform(&mut make(), evap2);
        let rain3 = stratiform(&mut make(), evap3);
        assert!(rain2 > rain3, "CCM2 {rain2} should out-rain CCM3 {rain3}");
    }

    #[test]
    fn ccm2_and_ccm3_agree_when_stable_and_dry() {
        let make = || {
            let mut c = AtmColumn::standard(18, 265.0);
            for q in c.q.iter_mut() {
                *q *= 0.25;
            }
            c
        };
        let mut a = make();
        let ra = convect(&mut a, PhysicsVintage::Ccm2);
        let mut b = make();
        let rb = convect(&mut b, PhysicsVintage::Ccm3);
        assert_eq!(ra.total_precip(), rb.total_precip());
        assert_eq!(a.t, b.t);
    }
}
