//! The coupler's surface pass, frozen as literals.
//!
//! `Coupler::step_rows_ws` evaluates the bulk fluxes on every
//! atmosphere × ocean overlap cell, accumulates them to both grids, and
//! steps the land, bucket and ice columns; `route_rivers_ws` then books
//! the river mouths. Each digest below is FNV-1a over `to_bits` of the
//! surface the atmosphere sees (`ws.out`: all seven `BulkFluxes` fields,
//! `t_sfc`, `albedo`), the local runoff, and the checkpoint encoding of
//! `CouplerState` (the ocean-forcing accumulators, soil, buckets, rivers,
//! ice flags and ice columns), taken after each of four steps.
//!
//! The cases cover the R15 paper grids and the century grids, both
//! physics vintages, and the row range whole or split as two and three
//! ranks split it (each "rank" holding only its rows, as the stepper
//! hands them over). One southern band of the ocean sits at the freezing
//! clamp, so ice forms there and some atmosphere cells hold icy and open
//! overlap cells side by side. Any change that moves one of these has
//! moved the model's answers (see ROADMAP's re-pin gate before editing a
//! constant here).

use foam_ckpt::Codec;
use foam_coupler::{AtmSurfaceView, Coupler, CouplerState, CouplerWorkspace};
use foam_grid::constants::SEAWATER_FREEZE_C;
use foam_grid::{AtmGrid, Field2, OceanGrid, World};
use foam_physics::{PhysicsConfig, PhysicsVintage};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv(h: u64, x: f64) -> u64 {
    fnv_bytes(h, &x.to_bits().to_le_bytes())
}

/// Southern edge of the frozen band \[deg\]: ocean rows whose centre lies
/// south of it sit at the clamp.
const ICE_EDGE_DEG: f64 = -58.0;

struct Case {
    coupler: Coupler,
    sst_open: Field2,
    sst: Field2,
}

fn case(atm: (usize, usize), ocn: (usize, usize, f64), vintage: PhysicsVintage) -> Case {
    let world = World::earthlike();
    let atm_grid = AtmGrid::new(atm.0, atm.1);
    let ocn_grid = OceanGrid::mercator(ocn.0, ocn.1, ocn.2);
    let mask = world.ocean_sea_mask(&ocn_grid);
    // The climatology, kept off the clamp, and the same with the band
    // frozen.
    let sst_open = Field2::from_fn(ocn_grid.nx, ocn_grid.ny, |i, j| {
        if mask[ocn_grid.idx(i, j)] {
            world
                .sst_climatology(ocn_grid.lons[i], ocn_grid.lats[j])
                .max(-1.0)
        } else {
            0.0
        }
    });
    let mut sst = sst_open.clone();
    for j in 0..ocn_grid.ny {
        if ocn_grid.lats[j].to_degrees() < ICE_EDGE_DEG {
            for i in 0..ocn_grid.nx {
                if mask[ocn_grid.idx(i, j)] {
                    sst.as_mut_slice()[ocn_grid.idx(i, j)] = SEAWATER_FREEZE_C;
                }
            }
        }
    }
    let phys = PhysicsConfig {
        vintage,
        ..PhysicsConfig::default()
    };
    let coupler = Coupler::new(atm_grid, ocn_grid, mask, &world, phys);
    Case {
        coupler,
        sst_open,
        sst,
    }
}

/// Lowest-level atmosphere fields for step `s`: air colder and warmer
/// than the sea, winds from calm to gale, a cold, snowy south.
fn atm_fields(g: &AtmGrid, s: usize) -> [Field2; 7] {
    let ph = 0.7 * s as f64;
    let f = |v: &dyn Fn(f64, f64) -> f64| {
        Field2::from_fn(g.nlon, g.nlat, |i, j| v(g.lons[i], g.lats[j]))
    };
    [
        f(&|lo, la| 248.0 + 50.0 * la.cos() + 4.0 * (3.0 * lo + ph).sin()),
        f(&|lo, la| 0.002 + 0.014 * la.cos().powi(3) * (0.8 + 0.2 * (2.0 * lo).cos())),
        f(&|lo, la| 12.0 * (2.0 * la).sin() * (lo + ph).cos() + 2.0 * la.cos()),
        f(&|lo, la| 9.0 * (lo * 2.0 - ph).sin() * la.cos().powi(2)),
        f(&|lo, la| 2.0e-5 * (1.0 + (5.0 * la + lo).sin()).max(0.0)),
        f(&|_lo, la| 40.0 + 220.0 * la.cos().powi(2)),
        f(&|lo, la| 250.0 + 90.0 * la.cos() + 5.0 * (lo + ph).cos()),
    ]
}

/// The rows `[j0, j1)` of a full field, as a field of those rows only.
fn rows_of(f: &Field2, j0: usize, j1: usize) -> Field2 {
    let nx = f.nx();
    Field2::from_vec(nx, j1 - j0, f.as_slice()[j0 * nx..j1 * nx].to_vec())
}

/// Four coupler steps with the rows split as `parts` ranks split them;
/// returns the digest after each step.
fn run(c: &Case, parts: usize) -> [u64; 4] {
    let co = &c.coupler;
    let (nlon, nlat) = (co.atm_grid.nlon, co.atm_grid.nlat);
    let n = co.atm_grid.len();
    let ranges: Vec<(usize, usize)> = (0..parts)
        .map(|r| (nlat * r / parts, nlat * (r + 1) / parts))
        .collect();
    let mut ranks: Vec<(CouplerState, CouplerWorkspace)> = ranges
        .iter()
        .map(|_| {
            let mut st = co.init_state(&c.sst_open, |lat| 250.0 + 45.0 * lat.cos());
            co.update_ice(&mut st, &c.sst);
            (st, co.workspace())
        })
        .collect();
    let dt = 1800.0;
    let mut out = [0; 4];
    for (s, slot) in out.iter_mut().enumerate() {
        let full = atm_fields(&co.atm_grid, s);
        let mut runoff = vec![0.0; n];
        for (&(j0, j1), (st, ws)) in ranges.iter().zip(&mut ranks) {
            let local: Vec<Field2> = full.iter().map(|f| rows_of(f, j0, j1)).collect();
            let view = AtmSurfaceView {
                t_low: &local[0],
                q_low: &local[1],
                u_low: &local[2],
                v_low: &local[3],
                precip: &local[4],
                sw_sfc: &local[5],
                lw_down: &local[6],
            };
            let (ka0, ka1) = (j0 * nlon, j1 * nlon);
            co.step_rows_ws(st, view, &c.sst, dt, ka0, ka1, ka0, ws);
            runoff[ka0..ka1].copy_from_slice(&ws.runoff[ka0..ka1]);
        }
        let mut h = FNV_OFFSET;
        for (st, ws) in &mut ranks {
            co.route_rivers_ws(st, &runoff, dt, ws);
            for f in &ws.out.fluxes {
                for x in [
                    f.sensible,
                    f.latent,
                    f.evaporation,
                    f.stress,
                    f.tau_x,
                    f.tau_y,
                    f.c_exchange,
                ] {
                    h = fnv(h, x);
                }
            }
            for &x in ws.out.t_sfc.iter().chain(&ws.out.albedo).chain(&ws.runoff) {
                h = fnv(h, x);
            }
            let mut bytes = Vec::new();
            st.encode(&mut bytes);
            h = fnv_bytes(h, &bytes);
        }
        *slot = h;
    }
    out
}

/// Some atmosphere cell must hold icy and open overlap cells together,
/// or the case does not test what it claims to.
fn assert_mixed_cells(c: &Case) {
    let co = &c.coupler;
    let mut st = co.init_state(&c.sst_open, |_| 280.0);
    co.update_ice(&mut st, &c.sst);
    let mut seen = vec![(false, false); co.atm_grid.len()];
    co.overlap.for_each_pair(|ka, ko, _a| {
        if st.ice[ko] {
            seen[ka].0 = true;
        } else {
            seen[ka].1 = true;
        }
    });
    assert!(seen.iter().any(|&(icy, open)| icy && open), "no mixed cell");
}

/// `(grid, vintage, parts) → digests after steps 1..=4`.
#[rustfmt::skip]
const PINNED: [(&str, PhysicsVintage, usize, [u64; 4]); 12] = [
    ("r15", PhysicsVintage::Ccm3, 1, [15200630017194856747, 65909815409332759, 6661579208735029208, 16427095152290661197]),
    ("r15", PhysicsVintage::Ccm3, 2, [1200995333174722211, 3925720554873484363, 17954355564138685369, 18138409935339435929]),
    ("r15", PhysicsVintage::Ccm3, 3, [10436614947968629340, 5344752248511763060, 3688942334081876264, 928916159473678758]),
    ("r15", PhysicsVintage::Ccm2, 1, [10495248601451023585, 13108440271200593426, 4446174701484556396, 1456084978411560352]),
    ("r15", PhysicsVintage::Ccm2, 2, [11681626897988643309, 9753772289910618642, 820664895516845709, 13849720182952228728]),
    ("r15", PhysicsVintage::Ccm2, 3, [213164741631787395, 16732813338847437137, 14930659745029012713, 15673251698456130369]),
    ("century", PhysicsVintage::Ccm3, 1, [4152613138291248923, 13047953657980464283, 5288857528543247971, 10246663181895979286]),
    ("century", PhysicsVintage::Ccm3, 2, [14142488157767372569, 14493274909284584589, 4071154111915583128, 9685225597886350884]),
    ("century", PhysicsVintage::Ccm3, 3, [11688748023254569579, 14080080750660317178, 17552309885297002008, 16850392377487052969]),
    ("century", PhysicsVintage::Ccm2, 1, [3746293791643546771, 9738270126600655652, 5346527078862865795, 2509721752314572866]),
    ("century", PhysicsVintage::Ccm2, 2, [395817318420134225, 1459645399450950278, 12597542367460451964, 5767288870003025084]),
    ("century", PhysicsVintage::Ccm2, 3, [6699920828855182262, 6060924248660876392, 16835739258379284089, 10660380526617568924]),
];

fn check(grid: &str, atm: (usize, usize), ocn: (usize, usize, f64)) {
    let mut got = Vec::new();
    let mut bad = false;
    for vintage in [PhysicsVintage::Ccm3, PhysicsVintage::Ccm2] {
        let c = case(atm, ocn, vintage);
        assert_mixed_cells(&c);
        for parts in 1..=3 {
            let d = run(&c, parts);
            let want = PINNED
                .iter()
                .find(|p| p.0 == grid && p.1 == vintage && p.2 == parts)
                .expect("a pinned case")
                .3;
            bad |= d != want;
            got.push(format!(
                "    (\"{grid}\", PhysicsVintage::{vintage:?}, {parts}, {d:?}),"
            ));
        }
    }
    assert!(!bad, "coupler digests moved; now:\n{}", got.join("\n"));
}

#[test]
fn paper_grids_both_vintages_whole_and_split() {
    check("r15", (48, 40), (128, 128, 72.0));
}

#[test]
fn century_grids_both_vintages_whole_and_split() {
    check("century", (16, 12), (24, 16, 70.0));
}

/// The split runs must also agree with the whole-range run where the
/// arithmetic does not depend on the split: the surface each row sees.
#[test]
fn split_rows_see_the_same_surface_as_the_whole_range() {
    let c = case((16, 12), (24, 16, 70.0), PhysicsVintage::Ccm3);
    let co = &c.coupler;
    let n = co.atm_grid.len();
    let nlon = co.atm_grid.nlon;
    let surface = |parts: usize| {
        let nlat = co.atm_grid.nlat;
        let full = atm_fields(&co.atm_grid, 0);
        let mut fluxes = vec![0.0; n];
        for r in 0..parts {
            let (j0, j1) = (nlat * r / parts, nlat * (r + 1) / parts);
            let local: Vec<Field2> = full.iter().map(|f| rows_of(f, j0, j1)).collect();
            let view = AtmSurfaceView {
                t_low: &local[0],
                q_low: &local[1],
                u_low: &local[2],
                v_low: &local[3],
                precip: &local[4],
                sw_sfc: &local[5],
                lw_down: &local[6],
            };
            let mut st = co.init_state(&c.sst_open, |_| 280.0);
            co.update_ice(&mut st, &c.sst);
            let mut ws = co.workspace();
            let (ka0, ka1) = (j0 * nlon, j1 * nlon);
            co.step_rows_ws(&mut st, view, &c.sst, 1800.0, ka0, ka1, ka0, &mut ws);
            for ka in ka0..ka1 {
                fluxes[ka] = ws.out.fluxes[ka].sensible + ws.out.t_sfc[ka];
            }
        }
        fluxes
    };
    let whole = surface(1);
    for parts in [2, 3] {
        assert!(
            surface(parts)
                .iter()
                .zip(&whole)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{parts} parts"
        );
    }
}
