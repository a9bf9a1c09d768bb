//! The two horizontal grids of FOAM (atmosphere Gaussian, ocean Mercator)
//! and the vertical coordinates of both components.

use crate::constants::{deg2rad, EARTH_RADIUS};
use crate::gauss::{gauss_legendre, GaussQuadrature};

/// The atmosphere's Gaussian transform grid. FOAM's default is the R15
/// grid: 48 longitudes × 40 Gaussian latitudes (≈ 7.5° × 4.5°).
#[derive(Debug, Clone)]
pub struct AtmGrid {
    pub nlon: usize,
    pub nlat: usize,
    /// Latitudes in radians, ascending (south → north): asin of the
    /// Gaussian nodes.
    pub lats: Vec<f64>,
    /// μ = sin(latitude) Gaussian nodes, ascending.
    pub mu: Vec<f64>,
    /// Gaussian quadrature weights (∑ = 2).
    pub weights: Vec<f64>,
    /// Cell edges in μ, length `nlat + 1`, from −1 to +1; edge widths are
    /// exactly the Gaussian weights, making cell areas quadrature-exact.
    pub mu_edges: Vec<f64>,
    /// Longitudes in radians: λ_i = 2πi / nlon (grid point at 0).
    pub lons: Vec<f64>,
}

impl AtmGrid {
    /// Build an `nlon × nlat` Gaussian grid.
    pub fn new(nlon: usize, nlat: usize) -> Self {
        let GaussQuadrature { nodes, weights } = gauss_legendre(nlat);
        let lats: Vec<f64> = nodes.iter().map(|&m| m.asin()).collect();
        let mut mu_edges = Vec::with_capacity(nlat + 1);
        mu_edges.push(-1.0);
        let mut acc = -1.0;
        for &w in &weights {
            acc += w;
            mu_edges.push(acc);
        }
        // Guard against rounding: the top edge is exactly +1.
        *mu_edges.last_mut().unwrap() = 1.0;
        let dlon = 2.0 * std::f64::consts::PI / nlon as f64;
        let lons = (0..nlon).map(|i| i as f64 * dlon).collect();
        AtmGrid {
            nlon,
            nlat,
            lats,
            mu: nodes,
            weights,
            mu_edges,
            lons,
        }
    }

    /// The paper's default resolution: the R15 grid, 48 × 40.
    pub fn r15() -> Self {
        Self::new(48, 40)
    }

    /// Longitude spacing \[rad\].
    #[inline]
    pub fn dlon(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.nlon as f64
    }

    /// Exact area of cell `(i, j)` \[m²\]: R² Δλ w_j.
    #[inline]
    pub fn cell_area(&self, _i: usize, j: usize) -> f64 {
        EARTH_RADIUS * EARTH_RADIUS * self.dlon() * self.weights[j]
    }

    /// Longitude extent of cell `i` as `(west, east)` \[rad\], centred on
    /// the grid point; `west` may be negative for `i = 0`.
    #[inline]
    pub fn lon_bounds(&self, i: usize) -> (f64, f64) {
        let d = self.dlon();
        (self.lons[i] - 0.5 * d, self.lons[i] + 0.5 * d)
    }

    /// μ extent of latitude row `j` as `(south, north)`.
    #[inline]
    pub fn mu_bounds(&self, j: usize) -> (f64, f64) {
        (self.mu_edges[j], self.mu_edges[j + 1])
    }

    /// Flattened index of cell `(i, j)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        j * self.nlon + i
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.nlon * self.nlat
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Area-weighted global mean of a flattened field.
    pub fn global_mean(&self, f: &[f64]) -> f64 {
        assert_eq!(f.len(), self.len());
        let mut num = 0.0;
        let mut den = 0.0;
        for j in 0..self.nlat {
            let a = self.cell_area(0, j);
            for i in 0..self.nlon {
                num += a * f[self.idx(i, j)];
                den += a;
            }
        }
        num / den
    }
}

/// The ocean's Mercator grid: `nx × ny` points, conformal (locally square
/// cells), covering latitudes up to ±`lat_max`. FOAM's default is
/// 128 × 128 (≈ 1.4° × 2.8° near the equator).
#[derive(Debug, Clone)]
pub struct OceanGrid {
    pub nx: usize,
    pub ny: usize,
    /// Row-centre latitudes \[rad\], ascending.
    pub lats: Vec<f64>,
    /// Row-edge latitudes \[rad\], length `ny + 1`.
    pub lat_edges: Vec<f64>,
    /// Longitude centres \[rad\]: (i + ½) Δλ — staggered half a cell from
    /// the atmosphere grid, as in the original model.
    pub lons: Vec<f64>,
    /// Grid spacing in x per row \[m\]: R Δλ cos φ_j.
    pub dx: Vec<f64>,
    /// Grid spacing in y per row \[m\] (edge-to-edge distance).
    pub dy: Vec<f64>,
}

impl OceanGrid {
    /// Build a Mercator grid reaching ±`lat_max_deg`.
    pub fn mercator(nx: usize, ny: usize, lat_max_deg: f64) -> Self {
        let lat_max = deg2rad(lat_max_deg);
        let y_max = mercator_y(lat_max);
        let dy_merc = 2.0 * y_max / ny as f64;
        let lat_edges: Vec<f64> = (0..=ny)
            .map(|j| inverse_mercator_y(-y_max + j as f64 * dy_merc))
            .collect();
        let lats: Vec<f64> = (0..ny)
            .map(|j| inverse_mercator_y(-y_max + (j as f64 + 0.5) * dy_merc))
            .collect();
        let dlon = 2.0 * std::f64::consts::PI / nx as f64;
        let lons: Vec<f64> = (0..nx).map(|i| (i as f64 + 0.5) * dlon).collect();
        let dx: Vec<f64> = lats
            .iter()
            .map(|&p| EARTH_RADIUS * dlon * p.cos())
            .collect();
        let dy: Vec<f64> = (0..ny)
            .map(|j| EARTH_RADIUS * (lat_edges[j + 1] - lat_edges[j]))
            .collect();
        OceanGrid {
            nx,
            ny,
            lats,
            lat_edges,
            lons,
            dx,
            dy,
        }
    }

    /// The paper's default: 128 × 128 to ±72°.
    pub fn foam_default() -> Self {
        Self::mercator(128, 128, 72.0)
    }

    #[inline]
    pub fn dlon(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.nx as f64
    }

    /// Exact spherical area of cell `(i, j)` \[m²\].
    #[inline]
    pub fn cell_area(&self, _i: usize, j: usize) -> f64 {
        EARTH_RADIUS
            * EARTH_RADIUS
            * self.dlon()
            * (self.lat_edges[j + 1].sin() - self.lat_edges[j].sin())
    }

    /// Longitude extent of column `i` as `(west, east)` \[rad\].
    #[inline]
    pub fn lon_bounds(&self, i: usize) -> (f64, f64) {
        let d = self.dlon();
        (i as f64 * d, (i as f64 + 1.0) * d)
    }

    /// μ extent of row `j` as `(south, north)`.
    #[inline]
    pub fn mu_bounds(&self, j: usize) -> (f64, f64) {
        (self.lat_edges[j].sin(), self.lat_edges[j + 1].sin())
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        j * self.nx + i
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Area-weighted mean of `f` over cells where `mask` is true.
    pub fn masked_mean(&self, f: &[f64], mask: &[bool]) -> f64 {
        assert_eq!(f.len(), self.len());
        assert_eq!(mask.len(), self.len());
        let mut num = 0.0;
        let mut den = 0.0;
        for j in 0..self.ny {
            let a = self.cell_area(0, j);
            for i in 0..self.nx {
                let k = self.idx(i, j);
                if mask[k] {
                    num += a * f[k];
                    den += a;
                }
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

/// Mercator northing y(φ) = ln tan(π/4 + φ/2).
#[inline]
pub fn mercator_y(lat: f64) -> f64 {
    (std::f64::consts::FRAC_PI_4 + 0.5 * lat).tan().ln()
}

/// Inverse Mercator: φ(y) = 2 atan(eʸ) − π/2.
#[inline]
pub fn inverse_mercator_y(y: f64) -> f64 {
    2.0 * y.exp().atan() - std::f64::consts::FRAC_PI_2
}

/// A vertical coordinate: interfaces, layer centres and thicknesses —
/// the ocean's 16 stretched z-levels (finest near the surface, where
/// coupling happens).
#[derive(Debug, Clone)]
pub struct VerticalGrid {
    /// Interface positions, length `n + 1`: depth \[m\], 0 at the
    /// surface, increasing downward.
    pub interfaces: Vec<f64>,
    /// Layer centres, length `n`.
    pub centers: Vec<f64>,
    /// Layer thicknesses, length `n`.
    pub thickness: Vec<f64>,
}

impl VerticalGrid {
    /// Stretched ocean levels: thickness grows geometrically by `ratio`
    /// per layer, scaled so the column depth is `depth`. The paper's run
    /// uses 16 layers with resolution maximized near the surface.
    pub fn ocean_stretched(nz: usize, depth: f64, ratio: f64) -> Self {
        assert!(nz >= 1 && depth > 0.0 && ratio >= 1.0);
        let raw: Vec<f64> = (0..nz).map(|k| ratio.powi(k as i32)).collect();
        let total: f64 = raw.iter().sum();
        let thickness: Vec<f64> = raw.iter().map(|r| r * depth / total).collect();
        Self::from_thickness(thickness)
    }

    /// Build from explicit thicknesses.
    fn from_thickness(thickness: Vec<f64>) -> Self {
        let n = thickness.len();
        let mut interfaces = Vec::with_capacity(n + 1);
        interfaces.push(0.0);
        let mut acc = 0.0;
        for &t in &thickness {
            acc += t;
            interfaces.push(acc);
        }
        let centers = (0..n)
            .map(|k| 0.5 * (interfaces[k] + interfaces[k + 1]))
            .collect();
        VerticalGrid {
            interfaces,
            centers,
            thickness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::rad2deg;

    #[test]
    fn atm_grid_total_area_is_sphere() {
        let g = AtmGrid::r15();
        let total: f64 = (0..g.nlat).map(|j| g.cell_area(0, j) * g.nlon as f64).sum();
        let sphere = 4.0 * std::f64::consts::PI * EARTH_RADIUS * EARTH_RADIUS;
        assert!((total / sphere - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r15_grid_matches_paper_spacing() {
        let g = AtmGrid::r15();
        assert_eq!(g.nlon, 48);
        assert_eq!(g.nlat, 40);
        // ~7.5 degrees of longitude
        assert!((rad2deg(g.dlon()) - 7.5).abs() < 1e-12);
        // ~4.5 degrees of latitude on average
        let dlat = rad2deg(g.lats[20] - g.lats[19]);
        assert!((dlat - 4.5).abs() < 0.5, "dlat = {dlat}");
    }

    #[test]
    fn atm_mu_edges_bracket_nodes() {
        let g = AtmGrid::new(16, 12);
        for j in 0..g.nlat {
            assert!(g.mu_edges[j] < g.mu[j] && g.mu[j] < g.mu_edges[j + 1]);
        }
        assert_eq!(g.mu_edges[0], -1.0);
        assert_eq!(*g.mu_edges.last().unwrap(), 1.0);
    }

    #[test]
    fn atm_global_mean_of_constant_is_constant() {
        let g = AtmGrid::new(8, 6);
        let f = vec![3.25; g.len()];
        assert!((g.global_mean(&f) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn mercator_roundtrip() {
        for d in [-70.0, -10.0, 0.0, 33.0, 71.9] {
            let lat = deg2rad(d);
            assert!((inverse_mercator_y(mercator_y(lat)) - lat).abs() < 1e-12);
        }
    }

    #[test]
    fn ocean_grid_shape_and_extent() {
        let g = OceanGrid::foam_default();
        assert_eq!(g.nx, 128);
        assert_eq!(g.ny, 128);
        assert!((rad2deg(g.lat_edges[0]) + 72.0).abs() < 1e-9);
        assert!((rad2deg(*g.lat_edges.last().unwrap()) - 72.0).abs() < 1e-9);
        // Mercator spacing: the dx/dy aspect ratio is the same on every
        // row (the paper's grid is ~1.4° lat × 2.8° lon, aspect ≈ 2).
        let aspect_eq = g.dx[g.ny / 2] / g.dy[g.ny / 2];
        assert!((1.4..2.2).contains(&aspect_eq), "aspect {aspect_eq}");
        for j in 1..g.ny - 1 {
            assert!(
                (g.dx[j] / g.dy[j] / aspect_eq - 1.0).abs() < 0.01,
                "row {j} breaks conformal aspect"
            );
        }
        // Near-equator latitude spacing ≈ 1.4–1.7°.
        let dlat_eq = rad2deg(g.lats[g.ny / 2] - g.lats[g.ny / 2 - 1]);
        assert!((1.3..1.8).contains(&dlat_eq), "dlat {dlat_eq}");
        // ~2.8 degrees of longitude
        assert!((rad2deg(g.dlon()) - 2.8125).abs() < 1e-9);
    }

    #[test]
    fn ocean_rows_ascend_and_areas_positive() {
        let g = OceanGrid::mercator(32, 24, 65.0);
        for w in g.lats.windows(2) {
            assert!(w[0] < w[1]);
        }
        for j in 0..g.ny {
            assert!(g.cell_area(0, j) > 0.0);
            assert!(g.lat_edges[j] < g.lats[j] && g.lats[j] < g.lat_edges[j + 1]);
        }
    }

    #[test]
    fn ocean_total_area_matches_band() {
        let g = OceanGrid::mercator(64, 48, 70.0);
        let total: f64 = (0..g.ny).map(|j| g.cell_area(0, j) * g.nx as f64).sum();
        let band = 4.0 * std::f64::consts::PI * EARTH_RADIUS * EARTH_RADIUS * deg2rad(70.0).sin();
        assert!((total / band - 1.0).abs() < 1e-10);
    }

    #[test]
    fn masked_mean_ignores_land() {
        let g = OceanGrid::mercator(4, 4, 60.0);
        let mut f = vec![5.0; g.len()];
        let mut mask = vec![true; g.len()];
        f[3] = 1000.0;
        mask[3] = false;
        assert!((g.masked_mean(&f, &mask) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stretched_ocean_levels() {
        // FOAM's default ocean column: 16 layers over 5000 m.
        let v = VerticalGrid::ocean_stretched(16, 5000.0, 1.29);
        assert_eq!(v.thickness.len(), 16);
        assert!((v.interfaces[16] - v.interfaces[0] - 5000.0).abs() < 1e-9);
        // Monotone increasing thickness with depth.
        for w in v.thickness.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Fine surface resolution (paper: resolution maximized near top).
        assert!(v.thickness[0] < 30.0, "top layer {} m", v.thickness[0]);
    }
}
