//! The synthetic planet.
//!
//! The original FOAM uses observed geography: ETOPO-style topography
//! (hand-tuned to preserve basin topology at 128 × 128), Matthews
//! vegetation, and the Shea–Trenberth–Reynolds SST climatology as the
//! observational reference of Figure 3. None of those datasets can ship
//! here, so this module provides a deterministic, analytic "Earth-like"
//! planet with the properties the experiments actually rely on:
//!
//! * a ~30 % land fraction with continents that separate two
//!   northern-hemisphere ocean basins (an "Atlantic" and a "Pacific" —
//!   required by the Figure 4 two-basin variability analysis),
//! * a circumpolar southern ocean and a polar southern continent,
//! * coherent coastlines so the river model has basins draining to
//!   well-defined mouths,
//! * five soil types varying with latitude/geography (standing in for the
//!   Matthews vegetation classes),
//! * an analytic annual-mean SST climatology with the observed gross
//!   structure (warm pool, equatorial cold tongue, western boundary
//!   currents) standing in for the Shea et al. field in Figure 3(b).

use crate::constants::{deg2rad, rad2deg};
use crate::grids::{AtmGrid, OceanGrid};

/// Ocean basin classification used by the Figure 4 analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basin {
    Atlantic,
    Pacific,
    Indian,
    Southern,
    Arctic,
    /// Not an ocean point.
    Land,
}

/// Soil types (stand-in for the 5 Matthews-derived classes of CCM2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoilType {
    Desert,
    Grassland,
    Forest,
    Tundra,
    LandIce,
}

/// The synthetic planet: pure functions of (longitude, latitude).
#[derive(Debug, Clone)]
pub struct World {
    /// Coastline wiggle amplitude in degrees (0 gives rectangular
    /// continents; the default adds mild irregularity).
    pub coast_wiggle_deg: f64,
}

impl Default for World {
    fn default() -> Self {
        World {
            coast_wiggle_deg: 2.5,
        }
    }
}

/// A latitude–longitude box with wiggled edges.
struct Box4 {
    w: f64,
    e: f64,
    s: f64,
    n: f64,
}

impl World {
    pub fn earthlike() -> Self {
        Self::default()
    }

    /// Is `(lon, lat)` (radians; lon in [0, 2π)) land?
    pub fn is_land(&self, lon: f64, lat: f64) -> bool {
        let lo = normalize_deg(rad2deg(lon));
        let la = rad2deg(lat);
        // Deterministic coastline irregularity.
        let w = self.coast_wiggle_deg;
        let dlat = w * ((3.0 * deg2rad(lo)).sin() + 0.6 * (7.0 * deg2rad(lo) + 1.3).sin());
        let dlon = w * ((2.0 * lat).sin() + 0.5 * (5.0 * lat + 0.7).cos());
        let lo_w = lo + dlon;
        let la_w = la + dlat;

        // Southern polar continent ("Antarctica"), leaving a circumpolar
        // channel open.
        if la < -67.0 + 0.5 * dlat {
            return true;
        }

        // Mediterranean-like notch carved out of the Eurafrican block.
        if in_box(
            &Box4 {
                w: 2.0,
                e: 38.0,
                s: 31.0,
                n: 38.0,
            },
            lo_w,
            la_w,
        ) {
            return false;
        }
        for b in continent_boxes() {
            if in_box(&b, lo_w, la_w) {
                return true;
            }
        }
        false
    }

    /// Rough analytic elevation \[m\] for land points (coast-distance
    /// scaling is done later by the river model; this provides interior
    /// ridges so basins are not flat).
    pub fn elevation(&self, lon: f64, lat: f64) -> f64 {
        if !self.is_land(lon, lat) {
            return 0.0;
        }
        let lo = rad2deg(lon);
        let la = rad2deg(lat);
        // A western-margin cordillera on the America-like continent and a
        // central Asian-like plateau.
        let cordillera = 2500.0 * gaussian(lo, 243.0, 8.0) * gaussian(la, 10.0, 45.0);
        let plateau = 3000.0 * gaussian(lo, 90.0, 18.0) * gaussian(la, 35.0, 10.0);
        let ice_dome = if la < -70.0 || (la > 62.0 && (300.0..340.0).contains(&lo)) {
            2000.0
        } else {
            0.0
        };
        300.0 + cordillera + plateau + ice_dome
    }

    /// Soil type classification for land points.
    pub fn soil_type(&self, lon: f64, lat: f64) -> SoilType {
        let la = rad2deg(lat);
        let lo = normalize_deg(rad2deg(lon));
        if la < -66.0 || (la > 60.0 && (300.0..340.0).contains(&lo)) {
            SoilType::LandIce
        } else if la.abs() > 58.0 {
            SoilType::Tundra
        } else if (15.0..35.0).contains(&la.abs()) && !(90.0..150.0).contains(&lo) {
            SoilType::Desert
        } else if la.abs() < 15.0 || (35.0..55.0).contains(&la.abs()) {
            SoilType::Forest
        } else {
            SoilType::Grassland
        }
    }

    /// Basin classification for ocean points (Figure 4 boxes).
    pub fn basin(&self, lon: f64, lat: f64) -> Basin {
        if self.is_land(lon, lat) {
            return Basin::Land;
        }
        let lo = normalize_deg(rad2deg(lon));
        let la = rad2deg(lat);
        if la < -35.0 {
            Basin::Southern
        } else if la > 66.0 {
            Basin::Arctic
        } else if (292.0..=352.0).contains(&lo) {
            Basin::Atlantic
        } else if (135.0..260.0).contains(&lo) {
            Basin::Pacific
        } else if (40.0..135.0).contains(&lo) && la < 28.0 {
            Basin::Indian
        } else if (260.0..292.0).contains(&lo) {
            // East Pacific strip between the date line block and America.
            Basin::Pacific
        } else {
            Basin::Atlantic
        }
    }

    /// Analytic annual-mean SST climatology \[°C\] — the "observations"
    /// of Figure 3(b). Gross structure: ~27.5 °C equatorial maximum
    /// decaying poleward as cos^2.5, a western-Pacific warm pool, an
    /// eastern-Pacific cold tongue, Gulf-Stream/Kuroshio warm tongues and
    /// a cold Southern Ocean.
    pub fn sst_climatology(&self, lon: f64, lat: f64) -> f64 {
        let lo = normalize_deg(rad2deg(lon));
        let la = rad2deg(lat);
        let base = -2.0 + 29.5 * lat.cos().abs().powf(2.5);
        let warm_pool = 2.0 * gaussian(lo, 140.0, 20.0) * gaussian(la, 5.0, 12.0);
        let cold_tongue = -3.0 * gaussian(lo, 255.0, 18.0) * gaussian(la, -2.0, 7.0);
        let gulf_stream = 3.0 * gaussian(lo, 300.0, 10.0) * gaussian(la, 40.0, 7.0);
        let kuroshio = 3.0 * gaussian(lo, 150.0, 10.0) * gaussian(la, 35.0, 7.0);
        let natl_drift = 2.0 * gaussian(lo, 340.0, 14.0) * gaussian(la, 55.0, 8.0);
        let southern = -1.5 * smoothstep((-40.0 - la) / 15.0);
        (base + warm_pool + cold_tongue + gulf_stream + kuroshio + natl_drift + southern)
            .max(crate::constants::SEAWATER_FREEZE_C)
    }

    /// Land mask on the ocean grid (`true` = sea).
    pub fn ocean_sea_mask(&self, g: &OceanGrid) -> Vec<bool> {
        let mut m = vec![false; g.len()];
        for j in 0..g.ny {
            for i in 0..g.nx {
                m[g.idx(i, j)] = !self.is_land(g.lons[i], g.lats[j]);
            }
        }
        m
    }

    /// Land mask on the atmosphere grid (`true` = land).
    pub fn atm_land_mask(&self, g: &AtmGrid) -> Vec<bool> {
        let mut m = vec![false; g.len()];
        for j in 0..g.nlat {
            for i in 0..g.nlon {
                m[g.idx(i, j)] = self.is_land(g.lons[i], g.lats[j]);
            }
        }
        m
    }
}

/// Continent inventory (degrees; boxes may wrap in longitude).
fn continent_boxes() -> Vec<Box4> {
    vec![
        // North-America-like
        Box4 {
            w: 235.0,
            e: 295.0,
            s: 15.0,
            n: 66.0,
        },
        // Central-America-like isthmus
        Box4 {
            w: 262.0,
            e: 285.0,
            s: 6.0,
            n: 18.0,
        },
        // South-America-like
        Box4 {
            w: 280.0,
            e: 325.0,
            s: -55.0,
            n: 10.0,
        },
        // Eurafrica-like (wraps through 0°)
        Box4 {
            w: 345.0,
            e: 410.0, // = 50°E
            s: -35.0,
            n: 62.0,
        },
        // Asia-like
        Box4 {
            w: 50.0,
            e: 135.0,
            s: 5.0,
            n: 66.0,
        },
        // Australia-like
        Box4 {
            w: 113.0,
            e: 154.0,
            s: -39.0,
            n: -11.0,
        },
        // Greenland-like
        Box4 {
            w: 300.0,
            e: 340.0,
            s: 62.0,
            n: 84.0,
        },
    ]
}

fn in_box(b: &Box4, lon: f64, lat: f64) -> bool {
    if lat < b.s || lat > b.n {
        return false;
    }
    let lo = normalize_deg(lon);
    // Handle boxes that wrap past 360°.
    if b.e > 360.0 {
        lo >= b.w || lo <= b.e - 360.0
    } else {
        lo >= b.w && lo <= b.e
    }
}

#[inline]
fn normalize_deg(mut d: f64) -> f64 {
    while d < 0.0 {
        d += 360.0;
    }
    while d >= 360.0 {
        d -= 360.0;
    }
    d
}

#[inline]
fn gaussian(x: f64, mu: f64, sigma: f64) -> f64 {
    // Periodic distance in longitude-like coordinates up to 360.
    let mut d = (x - mu).abs();
    if d > 180.0 {
        d = 360.0 - d;
    }
    (-0.5 * (d / sigma) * (d / sigma)).exp()
}

#[inline]
fn smoothstep(t: f64) -> f64 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> World {
        World::earthlike()
    }

    #[test]
    fn land_fraction_is_earthlike() {
        let g = AtmGrid::r15();
        let land: Vec<f64> = w()
            .atm_land_mask(&g)
            .iter()
            .map(|&l| f64::from(u8::from(l)))
            .collect();
        let f = g.global_mean(&land);
        assert!(
            (0.22..0.42).contains(&f),
            "land fraction {f} outside Earth-like band"
        );
    }

    #[test]
    fn two_separated_northern_basins_exist() {
        let world = w();
        // Mid-Atlantic and mid-Pacific at 40°N must be sea; the America-
        // like continent between them must be land.
        let lat = deg2rad(40.0);
        assert!(!world.is_land(deg2rad(320.0), lat), "Atlantic at 40N");
        assert!(!world.is_land(deg2rad(180.0), lat), "Pacific at 40N");
        assert!(world.is_land(deg2rad(265.0), lat), "America at 40N");
        assert_eq!(world.basin(deg2rad(320.0), lat), Basin::Atlantic);
        assert_eq!(world.basin(deg2rad(180.0), lat), Basin::Pacific);
    }

    #[test]
    fn circumpolar_channel_is_open() {
        let world = w();
        let lat = deg2rad(-60.0);
        let n_sea = (0..72)
            .filter(|k| !world.is_land(deg2rad(*k as f64 * 5.0), lat))
            .count();
        assert_eq!(n_sea, 72, "Drake-passage band must be fully open");
    }

    #[test]
    fn antarctica_is_land() {
        let world = w();
        for k in 0..12 {
            assert!(world.is_land(deg2rad(k as f64 * 30.0), deg2rad(-80.0)));
        }
    }

    #[test]
    fn sst_climatology_structure() {
        let world = w();
        let eq = world.sst_climatology(deg2rad(180.0), 0.0);
        let midlat = world.sst_climatology(deg2rad(180.0), deg2rad(45.0));
        let polar = world.sst_climatology(deg2rad(180.0), deg2rad(65.0));
        assert!(eq > 25.0 && eq < 31.0, "equatorial SST {eq}");
        assert!(midlat < eq && midlat > 5.0, "midlat SST {midlat}");
        assert!(polar < midlat, "polar SST {polar}");
        assert!(polar >= crate::constants::SEAWATER_FREEZE_C);
        // Warm pool warmer than cold tongue on the equator.
        let wp = world.sst_climatology(deg2rad(140.0), deg2rad(5.0));
        let ct = world.sst_climatology(deg2rad(255.0), deg2rad(-2.0));
        assert!(wp - ct > 2.0, "warm pool {wp} vs cold tongue {ct}");
    }

    #[test]
    fn soil_types_cover_all_classes() {
        let world = w();
        let g = AtmGrid::r15();
        let mut seen = [false; 5];
        for j in 0..g.nlat {
            for i in 0..g.nlon {
                if world.is_land(g.lons[i], g.lats[j]) {
                    let t = world.soil_type(g.lons[i], g.lats[j]);
                    seen[t as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "missing soil classes: {seen:?}");
    }

    #[test]
    fn elevation_positive_on_land_zero_on_sea() {
        let world = w();
        assert_eq!(world.elevation(deg2rad(180.0), 0.0), 0.0);
        assert!(world.elevation(deg2rad(90.0), deg2rad(35.0)) > 300.0);
    }

    #[test]
    fn masks_are_consistent_between_grids() {
        let world = w();
        let ag = AtmGrid::r15();
        let og = OceanGrid::foam_default();
        let am = world.atm_land_mask(&ag);
        let om = world.ocean_sea_mask(&og);
        // Compare land fraction measured on the two grids (within the
        // ocean grid's latitude band) — should broadly agree.
        let mut a_land = 0.0;
        let mut a_tot = 0.0;
        for j in 0..ag.nlat {
            if ag.lats[j].abs() < deg2rad(70.0) {
                for i in 0..ag.nlon {
                    a_tot += ag.cell_area(i, j);
                    if am[ag.idx(i, j)] {
                        a_land += ag.cell_area(i, j);
                    }
                }
            }
        }
        let mut o_land = 0.0;
        let mut o_tot = 0.0;
        for j in 0..og.ny {
            if og.lats[j].abs() < deg2rad(70.0) {
                for i in 0..og.nx {
                    o_tot += og.cell_area(i, j);
                    if !om[og.idx(i, j)] {
                        o_land += og.cell_area(i, j);
                    }
                }
            }
        }
        let fa = a_land / a_tot;
        let fo = o_land / o_tot;
        assert!(
            (fa - fo).abs() < 0.05,
            "atm land frac {fa} vs ocean land frac {fo}"
        );
    }
}

#[cfg(test)]
mod basin_tests {
    use super::*;
    use crate::constants::deg2rad;

    #[test]
    fn every_sea_point_gets_a_basin() {
        let world = World::earthlike();
        let g = crate::grids::OceanGrid::mercator(64, 48, 70.0);
        for j in 0..g.ny {
            for i in 0..g.nx {
                let b = world.basin(g.lons[i], g.lats[j]);
                if world.is_land(g.lons[i], g.lats[j]) {
                    assert_eq!(b, Basin::Land);
                } else {
                    assert_ne!(b, Basin::Land);
                }
            }
        }
    }

    #[test]
    fn indian_ocean_exists_and_sits_between_africa_and_australia() {
        let world = World::earthlike();
        let b = world.basin(deg2rad(75.0), deg2rad(-15.0));
        assert_eq!(b, Basin::Indian);
    }

    #[test]
    fn southern_ocean_ring() {
        let world = World::earthlike();
        for lon_deg in [0.0, 90.0, 180.0, 270.0] {
            assert_eq!(
                world.basin(deg2rad(lon_deg), deg2rad(-50.0)),
                Basin::Southern
            );
        }
    }

    #[test]
    fn northern_basins_have_comparable_sea_area() {
        // Figure 4's analysis boxes must both be well populated.
        let world = World::earthlike();
        let g = crate::grids::OceanGrid::mercator(128, 128, 72.0);
        let mut atl = 0.0;
        let mut pac = 0.0;
        for j in 0..g.ny {
            let latd = g.lats[j].to_degrees();
            if !(25.0..60.0).contains(&latd) {
                continue;
            }
            for i in 0..g.nx {
                match world.basin(g.lons[i], g.lats[j]) {
                    Basin::Atlantic => atl += g.cell_area(i, j),
                    Basin::Pacific => pac += g.cell_area(i, j),
                    _ => {}
                }
            }
        }
        assert!(atl > 0.0 && pac > 0.0);
        let ratio = pac / atl;
        assert!(
            (1.0..8.0).contains(&ratio),
            "Pacific/Atlantic box area ratio {ratio}"
        );
    }
}
