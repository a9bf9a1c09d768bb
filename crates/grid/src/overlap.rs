//! The overlap grid (paper Figure 1): the intersection of the atmosphere
//! and ocean grids, on which air–sea exchanges are computed and then
//! area-averaged back to each parent grid.
//!
//! Both grids are latitude–longitude products, so the intersection
//! factorizes into 1-D longitude overlaps (periodic) × 1-D latitude
//! overlaps (in μ = sin φ, where Gaussian-weight cell edges make areas
//! exact). The resulting scheme conserves any flux integral to rounding:
//! ∑ A_k F_k is by construction identical whether accumulated to the
//! atmosphere cells or to the ocean cells.

use crate::field::Field2;
use crate::grids::{AtmGrid, OceanGrid};

/// Conservative overlap decomposition between an [`AtmGrid`] and the sea
/// cells of an [`OceanGrid`].
#[derive(Debug, Clone)]
pub struct OverlapGrid {
    atm_nx: usize,
    atm_ny: usize,
    ocn_nx: usize,
    ocn_ny: usize,
    /// Every overlap cell as (ocean flat index, overlap area m²), in
    /// atmosphere-cell order: cell `ka`'s are
    /// `atm_pairs[atm_offsets[ka]..atm_offsets[ka + 1]]`.
    atm_pairs: Vec<(u32, f64)>,
    atm_offsets: Vec<usize>,
    /// Per ocean cell: list of (atm flat index, overlap area m²).
    ocn_entries: Vec<Vec<(u32, f64)>>,
    /// Sea overlap area of each atmosphere cell divided by its full area.
    sea_frac_atm: Vec<f64>,
    /// Full area of each atmosphere cell.
    atm_area: Vec<f64>,
}

impl OverlapGrid {
    /// Build the decomposition. `sea_mask` is the ocean-grid mask
    /// (`true` = sea); land ocean cells generate no overlap entries.
    pub fn build(atm: &AtmGrid, ocn: &OceanGrid, sea_mask: &[bool]) -> Self {
        assert_eq!(sea_mask.len(), ocn.len());
        let two_pi = 2.0 * std::f64::consts::PI;
        let r2 = crate::constants::EARTH_RADIUS * crate::constants::EARTH_RADIUS;

        // 1-D longitude overlaps on the circle: lon_ov[ia] = [(io, dλ)].
        let mut lon_ov: Vec<Vec<(usize, f64)>> = vec![Vec::new(); atm.nlon];
        for ia in 0..atm.nlon {
            let (aw, ae) = atm.lon_bounds(ia);
            for io in 0..ocn.nx {
                let (ow, oe) = ocn.lon_bounds(io);
                let mut d = 0.0;
                for shift in [-two_pi, 0.0, two_pi] {
                    let lo = (aw).max(ow + shift);
                    let hi = (ae).min(oe + shift);
                    if hi > lo {
                        d += hi - lo;
                    }
                }
                if d > 1e-12 {
                    lon_ov[ia].push((io, d));
                }
            }
        }

        // 1-D latitude overlaps in μ: lat_ov[ja] = [(jo, dμ)].
        let mut lat_ov: Vec<Vec<(usize, f64)>> = vec![Vec::new(); atm.nlat];
        for ja in 0..atm.nlat {
            let (as_, an) = atm.mu_bounds(ja);
            for jo in 0..ocn.ny {
                let (os, on) = ocn.mu_bounds(jo);
                let lo = as_.max(os);
                let hi = an.min(on);
                if hi > lo + 1e-14 {
                    lat_ov[ja].push((jo, hi - lo));
                }
            }
        }

        // Cells are visited in flat order, so each one's pairs extend
        // the flat list.
        let mut atm_pairs = Vec::new();
        let mut atm_offsets = vec![0];
        let mut ocn_entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); ocn.len()];
        for ja in 0..atm.nlat {
            for ia in 0..atm.nlon {
                let ka = atm.idx(ia, ja);
                debug_assert_eq!(ka + 1, atm_offsets.len());
                for &(jo, dmu) in &lat_ov[ja] {
                    for &(io, dlam) in &lon_ov[ia] {
                        let ko = ocn.idx(io, jo);
                        if !sea_mask[ko] {
                            continue;
                        }
                        let area = r2 * dlam * dmu;
                        atm_pairs.push((ko as u32, area));
                        ocn_entries[ko].push((ka as u32, area));
                    }
                }
                atm_offsets.push(atm_pairs.len());
            }
        }

        let atm_area: Vec<f64> = (0..atm.len())
            .map(|k| atm.cell_area(k % atm.nlon, k / atm.nlon))
            .collect();
        let sea_frac_atm: Vec<f64> = (0..atm.len())
            .map(|k| {
                let s: f64 = atm_pairs[atm_offsets[k]..atm_offsets[k + 1]]
                    .iter()
                    .map(|&(_, a)| a)
                    .sum();
                (s / atm_area[k]).min(1.0)
            })
            .collect();

        OverlapGrid {
            atm_nx: atm.nlon,
            atm_ny: atm.nlat,
            ocn_nx: ocn.nx,
            ocn_ny: ocn.ny,
            atm_pairs,
            atm_offsets,
            ocn_entries,
            sea_frac_atm,
            atm_area,
        }
    }

    /// Sea fraction of each atmosphere cell, as a field.
    pub fn sea_fraction_atm(&self) -> Field2 {
        Field2::from_vec(self.atm_nx, self.atm_ny, self.sea_frac_atm.clone())
    }

    /// Area-average an ocean field onto the atmosphere grid (sea part
    /// only). Cells with no sea overlap get 0; use
    /// [`OverlapGrid::sea_fraction_atm`] to blend with land values.
    pub fn ocean_to_atm(&self, f: &Field2) -> Field2 {
        assert_eq!((f.nx(), f.ny()), (self.ocn_nx, self.ocn_ny));
        let fo = f.as_slice();
        let mut out = Field2::zeros(self.atm_nx, self.atm_ny);
        let o = out.as_mut_slice();
        for (ka, entries) in self.atm_cells().enumerate() {
            let mut num = 0.0;
            let mut den = 0.0;
            for &(ko, a) in entries {
                num += a * fo[ko as usize];
                den += a;
            }
            if den > 0.0 {
                o[ka] = num / den;
            }
        }
        out
    }

    /// Area-average an atmosphere field onto the ocean grid (sea cells;
    /// land ocean cells get 0). `out` (ocean shape) is fully overwritten,
    /// zeros included, so stale contents never leak through.
    ///
    /// ```
    /// use foam_grid::{AtmGrid, Field2, OceanGrid, OverlapGrid};
    ///
    /// let atm = AtmGrid::new(8, 6);
    /// let ocn = OceanGrid::mercator(8, 6, 60.0);
    /// let sea = vec![true; ocn.len()];
    /// let ov = OverlapGrid::build(&atm, &ocn, &sea);
    /// let f = Field2::filled(8, 6, 2.5);
    ///
    /// let mut out = Field2::filled(8, 6, -1.0); // stale contents
    /// ov.atm_to_ocean_into(&f, &mut out);
    /// assert!(out.as_slice().iter().all(|&v| (v - 2.5).abs() < 1e-12));
    /// ```
    pub fn atm_to_ocean_into(&self, f: &Field2, out: &mut Field2) {
        assert_eq!((f.nx(), f.ny()), (self.atm_nx, self.atm_ny));
        assert_eq!((out.nx(), out.ny()), (self.ocn_nx, self.ocn_ny));
        let fa = f.as_slice();
        let o = out.as_mut_slice();
        for (ko, entries) in self.ocn_entries.iter().enumerate() {
            let mut num = 0.0;
            let mut den = 0.0;
            for &(ka, a) in entries {
                num += a * fa[ka as usize];
                den += a;
            }
            o[ko] = if den > 0.0 { num / den } else { 0.0 };
        }
    }

    /// Global integral (flux × area) of an atmosphere-grid field over its
    /// sea overlap area \[unit·m²\].
    pub fn integral_atm_sea(&self, f: &Field2) -> f64 {
        let fa = f.as_slice();
        self.atm_cells()
            .enumerate()
            .map(|(ka, es)| fa[ka] * es.iter().map(|&(_, a)| a).sum::<f64>())
            .sum()
    }

    /// Global integral of an ocean-grid field over the sea overlap area.
    pub fn integral_ocean(&self, f: &Field2) -> f64 {
        let fo = f.as_slice();
        self.ocn_entries
            .iter()
            .enumerate()
            .map(|(ko, es)| fo[ko] * es.iter().map(|&(_, a)| a).sum::<f64>())
            .sum()
    }

    /// Full area of atmosphere cell `ka` \[m²\].
    pub fn atm_cell_area(&self, ka: usize) -> f64 {
        self.atm_area[ka]
    }

    /// Visit every overlap cell as `(atm_flat, ocean_flat, area_m2)` —
    /// the coupler's main loop for evaluating fluxes on the overlap grid.
    pub fn for_each_pair(&self, mut f: impl FnMut(usize, usize, f64)) {
        for (ko, entries) in self.ocn_entries.iter().enumerate() {
            for &(ka, a) in entries {
                f(ka as usize, ko, a);
            }
        }
    }

    /// Every overlap cell as `(ocean_flat, area_m2)` in atmosphere-cell
    /// order, with the `n_atm + 1` offsets that split them by cell: cell
    /// `ka`'s are `pairs[offsets[ka]..offsets[ka + 1]]`, so the cells of
    /// a row range are one contiguous slice.
    pub fn pairs_by_atm(&self) -> (&[usize], &[(u32, f64)]) {
        (&self.atm_offsets, &self.atm_pairs)
    }

    /// The overlap cells of each atmosphere cell, in flat order.
    fn atm_cells(&self) -> impl Iterator<Item = &[(u32, f64)]> {
        self.atm_offsets
            .windows(2)
            .map(|w| &self.atm_pairs[w[0]..w[1]])
    }
}

/// Naive nearest-neighbour regridding — the non-conservative strawman
/// used by ablation A2 to quantify what the overlap grid buys.
#[derive(Debug, Clone)]
pub struct NearestNeighbour {
    /// For each atm cell: nearest sea ocean cell, if any.
    atm_to_ocn: Vec<Option<u32>>,
    atm_nx: usize,
    atm_ny: usize,
    ocn_nx: usize,
    ocn_ny: usize,
}

impl NearestNeighbour {
    pub fn build(atm: &AtmGrid, ocn: &OceanGrid, sea_mask: &[bool]) -> Self {
        let sea_pts: Vec<(usize, f64, f64)> = (0..ocn.len())
            .filter(|&k| sea_mask[k])
            .map(|k| (k, ocn.lons[k % ocn.nx], ocn.lats[k / ocn.nx]))
            .collect();
        let mut atm_to_ocn = vec![None; atm.len()];
        for ja in 0..atm.nlat {
            for ia in 0..atm.nlon {
                let (lo, la) = (atm.lons[ia], atm.lats[ja]);
                let best = sea_pts
                    .iter()
                    .map(|&(k, olo, ola)| (k, sphere_dist2(lo, la, olo, ola)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                atm_to_ocn[atm.idx(ia, ja)] = best.map(|(k, _)| k as u32);
            }
        }
        NearestNeighbour {
            atm_to_ocn,
            atm_nx: atm.nlon,
            atm_ny: atm.nlat,
            ocn_nx: ocn.nx,
            ocn_ny: ocn.ny,
        }
    }

    /// Sample an ocean field at each atm cell's nearest sea point.
    pub fn ocean_to_atm(&self, f: &Field2) -> Field2 {
        assert_eq!((f.nx(), f.ny()), (self.ocn_nx, self.ocn_ny));
        let fo = f.as_slice();
        Field2::from_vec(
            self.atm_nx,
            self.atm_ny,
            self.atm_to_ocn
                .iter()
                .map(|o| o.map_or(0.0, |k| fo[k as usize]))
                .collect(),
        )
    }
}

/// Squared chord distance between two points on the unit sphere.
#[inline]
fn sphere_dist2(lon1: f64, lat1: f64, lon2: f64, lat2: f64) -> f64 {
    let (x1, y1, z1) = (lat1.cos() * lon1.cos(), lat1.cos() * lon1.sin(), lat1.sin());
    let (x2, y2, z2) = (lat2.cos() * lon2.cos(), lat2.cos() * lon2.sin(), lat2.sin());
    (x1 - x2).powi(2) + (y1 - y2).powi(2) + (z1 - z2).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn small_setup() -> (AtmGrid, OceanGrid, Vec<bool>) {
        let atm = AtmGrid::new(16, 12);
        let ocn = OceanGrid::mercator(32, 24, 70.0);
        let mask = World::earthlike().ocean_sea_mask(&ocn);
        (atm, ocn, mask)
    }

    #[test]
    fn all_sea_overlap_covers_ocean_band() {
        let atm = AtmGrid::new(16, 12);
        let ocn = OceanGrid::mercator(32, 24, 70.0);
        let mask = vec![true; ocn.len()];
        let ov = OverlapGrid::build(&atm, &ocn, &mask);
        // Total overlap area equals the ocean band area.
        let ones = Field2::filled(ocn.nx, ocn.ny, 1.0);
        let band: f64 = (0..ocn.ny)
            .map(|j| ocn.cell_area(0, j) * ocn.nx as f64)
            .sum();
        assert!((ov.integral_ocean(&ones) / band - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_field_maps_to_constant() {
        let (atm, ocn, mask) = small_setup();
        let ov = OverlapGrid::build(&atm, &ocn, &mask);
        let f = Field2::filled(ocn.nx, ocn.ny, 7.5);
        let on_atm = ov.ocean_to_atm(&f);
        for ka in 0..atm.len() {
            let v = on_atm.as_slice()[ka];
            let frac = ov.sea_fraction_atm().as_slice()[ka];
            if frac > 0.0 {
                assert!((v - 7.5).abs() < 1e-9, "cell {ka}: {v}");
            } else {
                assert_eq!(v, 0.0);
            }
        }
        let g = Field2::filled(atm.nlon, atm.nlat, -3.0);
        let mut on_ocn = Field2::zeros(ocn.nx, ocn.ny);
        ov.atm_to_ocean_into(&g, &mut on_ocn);
        for (k, &sea) in mask.iter().enumerate() {
            if sea {
                assert!((on_ocn.as_slice()[k] + 3.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn overlap_flux_is_conservative_both_ways() {
        let (atm, ocn, mask) = small_setup();
        let ov = OverlapGrid::build(&atm, &ocn, &mask);
        // Arbitrary smooth fluxes, one per grid, each sent across.
        let fa = Field2::from_fn(atm.nlon, atm.nlat, |i, j| {
            (atm.idx(i, j) as f64 * 0.01).sin()
        });
        let fo = Field2::from_fn(ocn.nx, ocn.ny, |i, j| (ocn.idx(i, j) as f64 * 0.003).cos());
        let mut on_ocn = Field2::zeros(ocn.nx, ocn.ny);
        ov.atm_to_ocean_into(&fa, &mut on_ocn);
        for (sent, got) in [
            (ov.integral_atm_sea(&fa), ov.integral_ocean(&on_ocn)),
            (
                ov.integral_ocean(&fo),
                ov.integral_atm_sea(&ov.ocean_to_atm(&fo)),
            ),
        ] {
            assert!(
                (sent - got).abs() <= 1e-9 * sent.abs().max(got.abs()).max(1.0),
                "integral sent {sent} vs received {got}"
            );
        }
    }

    #[test]
    fn nearest_neighbour_is_not_conservative() {
        let (atm, ocn, mask) = small_setup();
        let ov = OverlapGrid::build(&atm, &ocn, &mask);
        let nn = NearestNeighbour::build(&atm, &ocn, &mask);
        // A sharply varying ocean field.
        let f = Field2::from_fn(ocn.nx, ocn.ny, |i, j| {
            ((i as f64) * 0.9).sin() * ((j as f64) * 0.7).cos()
        });
        let cons = ov.ocean_to_atm(&f);
        let naive = nn.ocean_to_atm(&f);
        let i_cons = ov.integral_atm_sea(&cons);
        let i_true = ov.integral_ocean(&f);
        let i_naive = ov.integral_atm_sea(&naive);
        // Conservative path preserves the integral; sampling does not.
        assert!((i_cons - i_true).abs() < 1e-6 * i_true.abs().max(1.0));
        assert!(
            (i_naive - i_true).abs() > 100.0 * (i_cons - i_true).abs(),
            "naive {i_naive} vs true {i_true} (cons err {})",
            (i_cons - i_true).abs()
        );
    }

    #[test]
    fn sea_fraction_in_range_and_sensible() {
        let (atm, ocn, mask) = small_setup();
        let ov = OverlapGrid::build(&atm, &ocn, &mask);
        let sf = ov.sea_fraction_atm();
        for &v in sf.as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
        // Polar caps (outside Mercator coverage) must have zero sea.
        assert_eq!(sf.get(0, 0), 0.0);
        assert_eq!(sf.get(0, atm.nlat - 1), 0.0);
        // Somewhere in the mid-Pacific the cell should be all sea.
        let max = sf.as_slice().iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.99, "max sea fraction {max}");
    }

    #[test]
    fn land_ocean_cells_receive_nothing() {
        let (atm, ocn, mask) = small_setup();
        let ov = OverlapGrid::build(&atm, &ocn, &mask);
        let g = Field2::filled(atm.nlon, atm.nlat, 9.0);
        let mut on_ocn = Field2::zeros(ocn.nx, ocn.ny);
        ov.atm_to_ocean_into(&g, &mut on_ocn);
        for (k, &sea) in mask.iter().enumerate() {
            if !sea {
                assert_eq!(on_ocn.as_slice()[k], 0.0);
            }
        }
    }
}
