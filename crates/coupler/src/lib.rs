//! `foam-coupler` — the FOAM coupler.
//!
//! "The separately developed atmosphere and ocean models are integrated
//! into a functioning whole by a set of routines called the coupler. The
//! coupler is essentially a model of the land surface and
//! atmosphere-ocean interface." (paper §"The FOAM Coupler")
//!
//! Responsibilities implemented here, all on full grids (the SPMD
//! choreography — which ranks run this, co-located with the atmosphere —
//! lives in the `foam` crate):
//!
//! * **overlap-grid fluxes** (paper Fig. 1): latent/sensible heat and
//!   momentum are evaluated on each atmosphere×ocean intersection cell
//!   with the atmosphere side's low-level state and the ocean side's SST
//!   (CCM3 stability-dependent bulk formulas with diagnosed ocean
//!   roughness), then area-averaged back to both grids — conserving the
//!   exchange without interpolating state to a common grid;
//! * **land surface**: 4-layer soil diffusion per land cell (5 soil
//!   types), CCM2 bulk fluxes over land, snow albedo modification;
//! * **hydrology**: the 15-cm bucket, snowfall criterion (ground and
//!   lowest atmosphere below freezing), runoff to the **river model**,
//!   river mouths as freshwater point sources for the ocean — the closed
//!   hydrological cycle that prevents long-term ocean salinity drift;
//! * **sea ice**: treated as another soil type; SST clamped at −1.92 °C
//!   by the ocean, ice–atmosphere stress divided by 15 before reaching
//!   the ocean, formation booked as a 2-m freshwater withdrawal;
//! * **forcing accumulation**: the atmosphere runs on a 30-minute step
//!   and the ocean is called four times per day (6-h coupling), so
//!   fluxes are accumulated between ocean calls.

use foam_ckpt::{ByteReader, CkptError, Codec};
use foam_grid::constants::{SEAWATER_FREEZE_C, STEFAN_BOLTZMANN};
use foam_grid::{AtmGrid, Field2, OceanGrid, OverlapGrid, World};
use foam_land::hydrology::Bucket;
use foam_land::river::{RiverModel, RiverState};
use foam_land::soil::{ice_column, SoilColumn, SOIL_CLASSES};
use foam_land::{ICE_FORMATION_WATER, ICE_STRESS_FACTOR};
use foam_ocean::OceanForcing;
use foam_physics::surface::{bulk_fluxes_fixed_z0, bulk_fluxes_ocean_lanes, BulkFluxes, BulkInput};
use foam_physics::{ColumnPhysics, PhysicsConfig, SurfaceKind, SurfaceState};

pub mod tags;

/// Fields the atmosphere exposes to the coupler each step (full grid).
#[derive(Debug, Clone)]
pub struct AtmSurfaceFields {
    /// Lowest-level air temperature \[K\], humidity, winds \[m/s\].
    pub t_low: Field2,
    pub q_low: Field2,
    pub u_low: Field2,
    pub v_low: Field2,
    /// Precipitation rate \[kg m⁻² s⁻¹\].
    pub precip: Field2,
    /// Shortwave absorbed at the surface and downwelling longwave \[W/m²\].
    pub sw_sfc: Field2,
    pub lw_down: Field2,
}

/// Borrowed view of the atmosphere surface fields — what the coupler
/// actually reads. Lets callers hand the coupler their own buffers
/// (e.g. the atmosphere's reusable export) without cloning seven
/// fields per step (the zero-churn rule; see PERFORMANCE.md).
#[derive(Debug, Clone, Copy)]
pub struct AtmSurfaceView<'a> {
    /// Lowest-level air temperature \[K\], humidity, winds \[m/s\].
    pub t_low: &'a Field2,
    pub q_low: &'a Field2,
    pub u_low: &'a Field2,
    pub v_low: &'a Field2,
    /// Precipitation rate \[kg m⁻² s⁻¹\].
    pub precip: &'a Field2,
    /// Shortwave absorbed at the surface and downwelling longwave \[W/m²\].
    pub sw_sfc: &'a Field2,
    pub lw_down: &'a Field2,
}

impl AtmSurfaceFields {
    /// Borrow these fields as an [`AtmSurfaceView`].
    ///
    /// ```
    /// use foam_coupler::AtmSurfaceFields;
    /// use foam_grid::Field2;
    ///
    /// let f = Field2::filled(4, 3, 1.0);
    /// let atm = AtmSurfaceFields {
    ///     t_low: f.clone(), q_low: f.clone(), u_low: f.clone(), v_low: f.clone(),
    ///     precip: f.clone(), sw_sfc: f.clone(), lw_down: f,
    /// };
    /// let view = atm.view();
    /// assert_eq!(view.t_low.as_slice(), atm.t_low.as_slice());
    /// ```
    pub fn view(&self) -> AtmSurfaceView<'_> {
        AtmSurfaceView {
            t_low: &self.t_low,
            q_low: &self.q_low,
            u_low: &self.u_low,
            v_low: &self.v_low,
            precip: &self.precip,
            sw_sfc: &self.sw_sfc,
            lw_down: &self.lw_down,
        }
    }
}

/// What the coupler returns to the atmosphere (full grid, flattened).
#[derive(Debug, Clone)]
pub struct SurfaceForAtm {
    pub fluxes: Vec<BulkFluxes>,
    /// Effective radiating surface temperature \[K\].
    pub t_sfc: Vec<f64>,
    pub albedo: Vec<f64>,
}

/// Pre-allocated result buffers for [`Coupler::step_rows_ws`] and
/// scratch for [`Coupler::route_rivers_ws`], created once per run with
/// [`Coupler::workspace`] and reused every step. Every buffer is reset
/// or overwritten by the call that uses it, so a reused workspace is
/// bit-identical to fresh allocation.
#[derive(Debug, Clone)]
pub struct CouplerWorkspace {
    /// Surface seen by the atmosphere, written by the last
    /// [`Coupler::step_rows_ws`] call (entries in its cell range).
    pub out: SurfaceForAtm,
    /// Local runoff \[m over the step\], full-length, entries filled in
    /// the last call's cell range.
    pub runoff: Vec<f64>,
    /// River-routing scratch ([`Coupler::route_rivers_ws`]): per-cell
    /// outflow, atmosphere-grid mouths, their ocean-grid regridding.
    river_outflow: Vec<f64>,
    mouths_atm: Field2,
    mouths_ocn: Field2,
}

/// Mutable coupler state.
#[derive(Debug, Clone)]
pub struct CouplerState {
    /// Soil column per atmosphere cell (meaningful on land cells).
    pub soil: Vec<SoilColumn>,
    /// Water bucket per atmosphere cell (land).
    pub bucket: Vec<Bucket>,
    pub river: RiverState,
    /// Sea-ice presence per *ocean* cell.
    pub ice: Vec<bool>,
    /// Ice thermodynamic column per atmosphere cell (used where its sea
    /// overlap is icy).
    pub ice_col: Vec<SoilColumn>,
    /// Ocean forcing accumulated since the last ocean call — the
    /// *row-local* part (overlap fluxes of this rank's atmosphere rows;
    /// summed across ranks at exchange time when distributed).
    pub acc: OceanForcing,
    /// The *replicated* part (river mouths, ice formation water) — added
    /// once, identically, on every rank.
    pub acc_shared: OceanForcing,
    pub acc_seconds: f64,
    /// One-shot freshwater adjustments (ice formation/melt), ocean grid
    /// \[kg/m²\] to be applied at the next ocean call.
    pub fw_oneshot: Field2,
}

impl Codec for CouplerState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.soil.encode(buf);
        self.bucket.encode(buf);
        self.river.encode(buf);
        self.ice.encode(buf);
        self.ice_col.encode(buf);
        self.acc.encode(buf);
        self.acc_shared.encode(buf);
        self.acc_seconds.encode(buf);
        self.fw_oneshot.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(CouplerState {
            soil: Vec::<SoilColumn>::decode(r)?,
            bucket: Vec::<Bucket>::decode(r)?,
            river: RiverState::decode(r)?,
            ice: Vec::<bool>::decode(r)?,
            ice_col: Vec::<SoilColumn>::decode(r)?,
            acc: OceanForcing::decode(r)?,
            acc_shared: OceanForcing::decode(r)?,
            acc_seconds: f64::decode(r)?,
            fw_oneshot: Field2::decode(r)?,
        })
    }
}

/// The sequence-numbered state of the atmosphere↔ocean exchange on the
/// root rank: the last accepted SST with its sequence number.
/// Checkpointed so a restarted run knows which SST it holds and which
/// one it waits for next.
#[derive(Debug, Clone)]
pub struct ExchangeBuffers {
    /// Sequence number of `sst` (completed ocean integrations).
    pub sst_seq: usize,
    /// Last accepted sea-surface temperature.
    pub sst: Field2,
}

impl Codec for ExchangeBuffers {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.sst_seq.encode(buf);
        self.sst.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(ExchangeBuffers {
            sst_seq: usize::decode(r)?,
            sst: Field2::decode(r)?,
        })
    }
}

/// The coupler: static geometry + component models.
pub struct Coupler {
    pub atm_grid: AtmGrid,
    pub ocn_grid: OceanGrid,
    pub overlap: OverlapGrid,
    pub river: RiverModel,
    pub phys: ColumnPhysics,
    /// Land mask on the atmosphere grid.
    pub land: Vec<bool>,
    /// Soil class index per atmosphere cell.
    pub soil_type: Vec<usize>,
    /// Sea fraction per atmosphere cell.
    pub sea_frac: Vec<f64>,
    /// Ocean-grid sea mask.
    pub sea_mask: Vec<bool>,
    /// Total overlap area of each ocean cell \[m²\] (for normalizing
    /// partial flux sums when the coupler is distributed by rows).
    ocn_overlap_area: Vec<f64>,
}

/// Overlap cells per block of the sea pass. A block's surfaces, queued
/// inputs and fluxes live on the stack, so the pass allocates nothing.
const BLOCK: usize = 32;

/// Overlap cells run side by side through the Charnock iteration
/// ([`bulk_fluxes_ocean_lanes`]); chosen by timing the coupler step at
/// R15 and R3.
const LANES: usize = 4;

/// The atmosphere's lowest level and surface forcing over one cell.
#[derive(Debug, Clone, Copy)]
struct CellAir {
    t: f64,
    q: f64,
    wind: (f64, f64),
    precip: f64,
    sw: f64,
    lw: f64,
}

impl CellAir {
    /// Entry `k` of `atm` (an index into the view, not the full grid).
    fn of(atm: &AtmSurfaceView<'_>, k: usize) -> Self {
        let at = |f: &Field2| f.as_slice()[k];
        CellAir {
            t: at(atm.t_low),
            q: at(atm.q_low),
            wind: (at(atm.u_low), at(atm.v_low)),
            precip: at(atm.precip),
            sw: at(atm.sw_sfc),
            lw: at(atm.lw_down),
        }
    }
}

/// One atmosphere cell's area-weighted sums over its sea overlap cells.
#[derive(Debug, Clone, Copy, Default)]
struct SeaSums {
    flux: BulkFluxes,
    area: f64,
    t_sfc: f64,
    albedo: f64,
    /// Whether any of the overlap cells is icy.
    icy: bool,
}

/// The Charnock fluxes of `inp` (exactly `W` queued overlap cells),
/// written to their block slots `slots`.
fn charnock_into<const W: usize>(inp: &[BulkInput], slots: &[usize], flux: &mut [BulkFluxes]) {
    let inp: &[BulkInput; W] = inp.try_into().expect("W queued cells");
    for (f, &i) in bulk_fluxes_ocean_lanes(inp).into_iter().zip(slots) {
        flux[i] = f;
    }
}

impl Coupler {
    pub fn new(
        atm_grid: AtmGrid,
        ocn_grid: OceanGrid,
        sea_mask: Vec<bool>,
        world: &World,
        phys_cfg: PhysicsConfig,
    ) -> Self {
        let overlap = OverlapGrid::build(&atm_grid, &ocn_grid, &sea_mask);
        let land = world.atm_land_mask(&atm_grid);
        let river = RiverModel::build(&atm_grid, &land);
        let soil_type: Vec<usize> = (0..atm_grid.len())
            .map(|k| {
                let (i, j) = (k % atm_grid.nlon, k / atm_grid.nlon);
                world.soil_type(atm_grid.lons[i], atm_grid.lats[j]) as usize
            })
            .collect();
        let sea_frac = overlap.sea_fraction_atm().into_vec();
        let mut ocn_overlap_area = vec![0.0; ocn_grid.len()];
        overlap.for_each_pair(|_ka, ko, a| ocn_overlap_area[ko] += a);
        Coupler {
            atm_grid,
            ocn_grid,
            overlap,
            river,
            phys: ColumnPhysics::new(phys_cfg),
            land,
            soil_type,
            sea_frac,
            sea_mask,
            ocn_overlap_area,
        }
    }

    /// Initial coupler state, with soil temperatures set from the
    /// latitude profile and ice where the initial SST sits at the clamp.
    pub fn init_state(&self, sst: &Field2, t_init: impl Fn(f64) -> f64) -> CouplerState {
        let n = self.atm_grid.len();
        let soil = (0..n)
            .map(|k| {
                let j = k / self.atm_grid.nlon;
                SoilColumn::new(
                    SOIL_CLASSES[self.soil_type[k]],
                    t_init(self.atm_grid.lats[j]),
                )
            })
            .collect();
        let bucket = vec![
            Bucket {
                soil_water: 0.10,
                snow: 0.0,
            };
            n
        ];
        let ice = (0..self.ocn_grid.len())
            .map(|ko| self.sea_mask[ko] && sst.as_slice()[ko] <= SEAWATER_FREEZE_C + 0.01)
            .collect();
        let ice_col = (0..n).map(|_| ice_column(265.0)).collect();
        CouplerState {
            soil,
            bucket,
            river: self.river.init_state(),
            ice,
            ice_col,
            acc: OceanForcing::zeros(&self.ocn_grid),
            acc_shared: OceanForcing::zeros(&self.ocn_grid),
            acc_seconds: 0.0,
            fw_oneshot: Field2::zeros(self.ocn_grid.nx, self.ocn_grid.ny),
        }
    }

    /// A fresh scratch/result buffer set for [`Coupler::step_rows_ws`],
    /// sized for this coupler's grids.
    pub fn workspace(&self) -> CouplerWorkspace {
        let n = self.atm_grid.len();
        CouplerWorkspace {
            out: SurfaceForAtm {
                fluxes: vec![BulkFluxes::default(); n],
                t_sfc: vec![288.0; n],
                albedo: vec![0.07; n],
            },
            runoff: vec![0.0; n],
            river_outflow: Vec::new(),
            mouths_atm: Field2::zeros(self.atm_grid.nlon, self.atm_grid.nlat),
            mouths_ocn: Field2::zeros(self.ocn_grid.nx, self.ocn_grid.ny),
        }
    }

    /// One coupler pass for one atmosphere step of length `dt` \[s\]:
    /// compute all surface exchanges, advance the land/ice state, and
    /// accumulate the ocean forcing. Returns the surface the atmosphere
    /// sees. (Serial convenience over [`Coupler::step_rows_ws`] +
    /// [`Coupler::route_rivers_ws`] covering the whole grid, with a
    /// throw-away workspace.)
    pub fn step(
        &self,
        st: &mut CouplerState,
        atm: &AtmSurfaceFields,
        sst: &Field2,
        dt: f64,
    ) -> SurfaceForAtm {
        let n = self.atm_grid.len();
        let mut ws = self.workspace();
        self.step_rows_ws(st, atm.view(), sst, dt, 0, n, 0, &mut ws);
        let runoff = std::mem::take(&mut ws.runoff);
        self.route_rivers_ws(st, &runoff, dt, &mut ws);
        ws.out
    }

    /// The distributed coupler pass: process only atmosphere cells
    /// `ka0..ka1` (this rank's latitude rows, co-located with its
    /// atmosphere decomposition, as in the paper). `atm` is a borrowed
    /// [`AtmSurfaceView`] that may hold just the local rows, with
    /// `ka_offset` the flat index of its first entry. Leaves the surface
    /// in `ws.out` (full-length vectors, entries filled in the range)
    /// and the local runoff \[m over the step\] in `ws.runoff`
    /// (full-length; gather every rank's rows and call
    /// [`Coupler::route_rivers_ws`]).
    ///
    /// ```
    /// use foam_coupler::{AtmSurfaceFields, Coupler};
    /// use foam_grid::{AtmGrid, Field2, OceanGrid, World};
    /// use foam_physics::PhysicsConfig;
    ///
    /// let atm_grid = AtmGrid::new(8, 6);
    /// let ocn_grid = OceanGrid::mercator(8, 6, 60.0);
    /// let coupler = Coupler::new(
    ///     atm_grid.clone(),
    ///     ocn_grid.clone(),
    ///     vec![true; ocn_grid.len()],
    ///     &World::earthlike(),
    ///     PhysicsConfig::default(),
    /// );
    /// let sst = Field2::filled(8, 6, 15.0);
    /// let g = |v| Field2::filled(8, 6, v);
    /// let atm = AtmSurfaceFields {
    ///     t_low: g(285.0), q_low: g(0.008), u_low: g(5.0), v_low: g(0.0),
    ///     precip: g(1.0e-5), sw_sfc: g(200.0), lw_down: g(350.0),
    /// };
    /// let mut st = coupler.init_state(&sst, |_| 280.0);
    /// let n = atm_grid.len();
    /// let mut ws = coupler.workspace();
    /// coupler.step_rows_ws(&mut st, atm.view(), &sst, 1800.0, 0, n, 0, &mut ws);
    /// assert!(ws.out.t_sfc.iter().all(|&t| (200.0..330.0).contains(&t)));
    /// assert!(ws.out.albedo.iter().all(|&a| (0.0..=1.0).contains(&a)));
    /// assert_eq!(ws.runoff.len(), n);
    /// ```
    #[allow(clippy::too_many_arguments)]
    pub fn step_rows_ws(
        &self,
        st: &mut CouplerState,
        atm: AtmSurfaceView<'_>,
        sst: &Field2,
        dt: f64,
        ka0: usize,
        ka1: usize,
        ka_offset: usize,
        ws: &mut CouplerWorkspace,
    ) {
        let _t = foam_telemetry::scope("fluxes");
        ws.out.fluxes.fill(BulkFluxes::default());
        ws.out.t_sfc.fill(288.0);
        ws.out.albedo.fill(0.07);
        ws.runoff.fill(0.0);

        // ---------------- Overlap-grid air–sea fluxes. -----------------
        // The row range's overlap cells are one slice, taken in blocks.
        // Pass 1 evaluates a block's fluxes, the diagnosed-roughness ones
        // as lanes; pass 2 accumulates them in the slice's order, so no
        // sum is reordered. A cell is finished (land, ice, blend) once
        // its last overlap cell is accumulated, before any later pair's
        // pass 1 could read it.
        let (offsets, pairs) = self.overlap.pairs_by_atm();
        let p0 = offsets[ka0];
        let mut ka = ka0; // pass 1's cell
        let mut air = None;
        let mut open = ka0; // pass 2's cell, whose sums are open
        let mut sums = SeaSums::default();
        let mut sfc = [SurfaceState::open_ocean(0.0); BLOCK];
        let mut cell = [0; BLOCK];
        let mut flux = [BulkFluxes::default(); BLOCK];
        let mut queued = [BulkInput::default(); BLOCK];
        let mut slot = [0; BLOCK];
        for (b, block) in pairs[p0..offsets[ka1]].chunks(BLOCK).enumerate() {
            let mut n_q = 0;
            for (i, &(ko, _)) in block.iter().enumerate() {
                while offsets[ka + 1] <= p0 + b * BLOCK + i {
                    ka += 1;
                    air = None;
                }
                let a = *air.get_or_insert_with(|| CellAir::of(&atm, ka - ka_offset));
                cell[i] = ka;
                sfc[i] = if st.ice[ko as usize] {
                    SurfaceState {
                        kind: SurfaceKind::SeaIce,
                        t_sfc: st.ice_col[ka].skin(),
                        albedo: st.ice_col[ka].props.albedo,
                        wetness: 1.0,
                    }
                } else {
                    SurfaceState::open_ocean(sst.as_slice()[ko as usize] + 273.15)
                };
                let inp = self.phys.bulk_input(a.t, a.q, &sfc[i], a.wind);
                match self.phys.fixed_roughness(sfc[i].kind) {
                    Some(z0) => flux[i] = bulk_fluxes_fixed_z0(&inp, z0),
                    None => {
                        (queued[n_q], slot[n_q]) = (inp, i);
                        n_q += 1;
                    }
                }
            }
            let (inp, to) = (&queued[..n_q], &slot[..n_q]);
            let whole = n_q - n_q % LANES;
            for (c, s) in inp[..whole].chunks(LANES).zip(to.chunks(LANES)) {
                charnock_into::<LANES>(c, s, &mut flux);
            }
            let (inp, to) = (&inp[whole..], &to[whole..]);
            match inp.len() {
                1 => charnock_into::<1>(inp, to, &mut flux),
                2 => charnock_into::<2>(inp, to, &mut flux),
                3 => charnock_into::<3>(inp, to, &mut flux),
                _ => {}
            }

            for (i, &(ko, w)) in block.iter().enumerate() {
                while open < cell[i] {
                    let a = CellAir::of(&atm, open - ka_offset);
                    self.finish_cell(st, ws, open, &a, &std::mem::take(&mut sums), dt);
                    open += 1;
                }
                let (ka, ko, f) = (open, ko as usize, &flux[i]);
                let icy = sfc[i].kind == SurfaceKind::SeaIce;
                // Atmosphere side: area-weighted sea-average flux.
                sums.flux = sums.flux.zip_with(f, |s, x| s + w * x);
                sums.area += w;
                sums.t_sfc += w * sfc[i].t_sfc;
                sums.albedo += w * sfc[i].albedo;
                sums.icy |= icy;

                // Ocean side: net heat and momentum into the water.
                let t_water_k = sst.as_slice()[ko] + 273.15;
                let (heat, taux, tauy, evap) = if icy {
                    // Conduction with the lowest ice layer; stress divided by
                    // 15 (paper, verbatim); no direct evaporation from water.
                    let g_ice = st.ice_col[ka].props.conductivity / foam_land::soil::SOIL_DZ[3];
                    let q_cond = g_ice * (st.ice_col[ka].t[3] - t_water_k);
                    (
                        q_cond,
                        f.tau_x * ICE_STRESS_FACTOR,
                        f.tau_y * ICE_STRESS_FACTOR,
                        0.0,
                    )
                } else {
                    let k = ka - ka_offset;
                    let q = atm.sw_sfc.as_slice()[k] + atm.lw_down.as_slice()[k]
                        - STEFAN_BOLTZMANN * t_water_k.powi(4)
                        - f.sensible
                        - f.latent;
                    (q, f.tau_x, f.tau_y, f.evaporation)
                };
                // Accumulate directly into the local forcing, normalized by
                // the ocean cell's *total* overlap area so that partial sums
                // from different ranks add up to the correct average.
                let wn = dt * w / self.ocn_overlap_area[ko].max(1e-9);
                st.acc.tau_x.as_mut_slice()[ko] += wn * taux;
                st.acc.tau_y.as_mut_slice()[ko] += wn * tauy;
                st.acc.heat.as_mut_slice()[ko] += wn * heat;
                // P − E on the sea part; rivers are added by route_rivers.
                st.acc.freshwater.as_mut_slice()[ko] +=
                    wn * (atm.precip.as_slice()[ka - ka_offset] - evap);
            }
        }
        while open < ka1 {
            let a = CellAir::of(&atm, open - ka_offset);
            self.finish_cell(st, ws, open, &a, &std::mem::take(&mut sums), dt);
            open += 1;
        }

        st.acc_seconds += dt;
    }

    /// Finish atmosphere cell `ka` once its sea overlap cells are summed
    /// in `sea`: step its land surface and hydrology, its ice column if
    /// any overlap cell is icy, and blend land and sea into `ws.out`.
    fn finish_cell(
        &self,
        st: &mut CouplerState,
        ws: &mut CouplerWorkspace,
        ka: usize,
        air: &CellAir,
        sea: &SeaSums,
        dt: f64,
    ) {
        let sea_a = sea.area;
        let cell_a = self.overlap.atm_cell_area(ka);
        let land_frac = (1.0 - sea_a / cell_a).clamp(0.0, 1.0);

        // Land-side fluxes and updates (also covers polar caps with
        // no ocean coverage, treated as land/ice surface).
        let mut land_flux = BulkFluxes::default();
        let mut land_t = 0.0;
        let mut land_albedo = 0.0;
        if land_frac > 1.0e-6 {
            let props = SOIL_CLASSES[self.soil_type[ka]];
            let snow_covered = st.bucket[ka].snow > 1.0e-4;
            let albedo = if snow_covered { 0.65 } else { props.albedo };
            let sfc = SurfaceState {
                kind: if snow_covered {
                    SurfaceKind::Snow
                } else {
                    SurfaceKind::Land {
                        z0: props.roughness,
                    }
                },
                t_sfc: st.soil[ka].skin(),
                albedo,
                wetness: st.bucket[ka].wetness(),
            };
            let inp = self.phys.bulk_input(air.t, air.q, &sfc, air.wind);
            land_flux = self.phys.bulk_fluxes(&inp, sfc.kind);
            // Soil energy budget.
            let skin = st.soil[ka].skin();
            let net = air.sw + air.lw
                - STEFAN_BOLTZMANN * skin.powi(4)
                - land_flux.sensible
                - land_flux.latent;
            // Hydrology first (melt energy cools the soil).
            let snowing = air.t < 273.15 && skin < 273.15;
            let h = st.bucket[ka].step(air.precip, land_flux.evaporation, snowing, skin, dt);
            st.soil[ka].step(net - h.melt_energy / dt, dt);
            ws.runoff[ka] = h.runoff;
            land_t = st.soil[ka].skin();
            land_albedo = albedo;
        }

        // Ice-column thermodynamics: advance the ice column with the
        // cell's net surface energy when any of its overlap is icy.
        if sea_a > 0.0 && sea.icy {
            let skin = st.ice_col[ka].skin();
            let f = &sea.flux;
            let net = air.sw + air.lw
                - STEFAN_BOLTZMANN * skin.powi(4)
                - f.sensible / sea_a.max(1.0)
                - f.latent / sea_a.max(1.0);
            st.ice_col[ka].step(net, dt);
            // The base stays pinned near freezing by the ocean.
            st.ice_col[ka].t[3] =
                st.ice_col[ka].t[3].clamp(SEAWATER_FREEZE_C + 273.15 - 2.0, 273.15);
        }

        // Blend land and sea for the atmosphere (with no sea, every sea
        // sum is 0 and scales to 0).
        let inv = if sea_a > 0.0 { 1.0 / sea_a } else { 0.0 };
        let (sea_t, sea_alb) = (sea.t_sfc * inv, sea.albedo * inv);
        let lf = land_frac;
        let sf = 1.0 - lf;
        let blend = |a: f64, b: f64| lf * a + sf * b;
        let out = &mut ws.out;
        out.fluxes[ka] = land_flux.zip_with(&sea.flux, |l, s| blend(l, s * inv));
        // Where there is no land, fall back to sea values and vice
        // versa.
        let pick = |l: f64, s: f64| {
            if lf >= 1.0 - 1e-9 {
                l
            } else if lf <= 1e-9 {
                s
            } else {
                blend(l, s)
            }
        };
        out.t_sfc[ka] = pick(land_t, sea_t);
        out.albedo[ka] = pick(land_albedo, sea_alb);
    }

    /// Route runoff through the river network and book the mouth inflow
    /// into the *shared* ocean-forcing accumulator. `runoff` must be the
    /// full-grid field (gather the per-rank pieces first when
    /// distributed); every rank calls this with identical inputs so the
    /// replicated river state stays in lockstep. The routing scratch
    /// comes from `ws`.
    ///
    /// ```
    /// use foam_coupler::Coupler;
    /// use foam_grid::{AtmGrid, Field2, OceanGrid, World};
    /// use foam_physics::PhysicsConfig;
    ///
    /// let atm_grid = AtmGrid::new(8, 6);
    /// let ocn_grid = OceanGrid::mercator(8, 6, 60.0);
    /// let coupler = Coupler::new(
    ///     atm_grid.clone(),
    ///     ocn_grid.clone(),
    ///     vec![true; ocn_grid.len()],
    ///     &World::earthlike(),
    ///     PhysicsConfig::default(),
    /// );
    /// let sst = Field2::filled(8, 6, 15.0);
    /// let mut st = coupler.init_state(&sst, |_| 280.0);
    /// let runoff = vec![1.0e-4; atm_grid.len()];
    /// let mut ws = coupler.workspace();
    /// coupler.route_rivers_ws(&mut st, &runoff, 1800.0, &mut ws);
    /// // The runoff is now river water, on its way to the shared
    /// // freshwater accumulator.
    /// assert!(st.river.volume.iter().any(|&v| v > 0.0));
    /// assert!(st.acc_shared.freshwater.all_finite());
    /// ```
    pub fn route_rivers_ws(
        &self,
        st: &mut CouplerState,
        runoff: &[f64],
        dt: f64,
        ws: &mut CouplerWorkspace,
    ) {
        self.river.step_into(
            &mut st.river,
            runoff,
            dt,
            &mut ws.river_outflow,
            &mut ws.mouths_atm,
        );
        self.overlap
            .atm_to_ocean_into(&ws.mouths_atm, &mut ws.mouths_ocn);
        for ko in 0..self.ocn_grid.len() {
            if self.sea_mask[ko] {
                st.acc_shared.freshwater.as_mut_slice()[ko] += dt * ws.mouths_ocn.as_slice()[ko];
            }
        }
    }

    /// Hand the accumulated (time-averaged) forcing to the ocean and
    /// reset the accumulators — serial form (local + shared combined).
    pub fn take_ocean_forcing(&self, st: &mut CouplerState) -> OceanForcing {
        let (mut local, shared) = self.take_ocean_forcing_parts(st);
        local.tau_x.axpy(1.0, &shared.tau_x);
        local.tau_y.axpy(1.0, &shared.tau_y);
        local.heat.axpy(1.0, &shared.heat);
        local.freshwater.axpy(1.0, &shared.freshwater);
        local
    }

    /// Distributed form: returns `(local, shared)`, both time-averaged
    /// over the coupling interval and reset. Sum `local` across the
    /// atmosphere ranks (it holds only this rank's rows' contributions)
    /// and add `shared` (identical on every rank) once.
    pub fn take_ocean_forcing_parts(&self, st: &mut CouplerState) -> (OceanForcing, OceanForcing) {
        let secs = st.acc_seconds.max(1.0);
        st.acc_seconds = 0.0;
        let inv = 1.0 / secs;
        let mut local = std::mem::replace(&mut st.acc, OceanForcing::zeros(&self.ocn_grid));
        local.tau_x.scale(inv);
        local.tau_y.scale(inv);
        local.heat.scale(inv);
        local.freshwater.scale(inv);
        let mut shared = std::mem::replace(&mut st.acc_shared, OceanForcing::zeros(&self.ocn_grid));
        shared.tau_x.scale(inv);
        shared.tau_y.scale(inv);
        shared.heat.scale(inv);
        shared.freshwater.scale(inv);
        // One-shot ice formation/melt freshwater adjustments, spread over
        // the coupling interval (replicated → shared).
        for ko in 0..self.ocn_grid.len() {
            shared.freshwater.as_mut_slice()[ko] += st.fw_oneshot.as_slice()[ko] / secs;
            st.fw_oneshot.as_mut_slice()[ko] = 0.0;
        }
        (local, shared)
    }

    /// Refresh the ice distribution after an ocean call: ice forms where
    /// the SST sits at the clamp, melts where the water has warmed. Books
    /// the paper's 2-m freshwater exchange for formation/melt.
    pub fn update_ice(&self, st: &mut CouplerState, sst: &Field2) {
        for ko in 0..self.ocn_grid.len() {
            if !self.sea_mask[ko] {
                continue;
            }
            let frozen = sst.as_slice()[ko] <= SEAWATER_FREEZE_C + 1.0e-6;
            if frozen && !st.ice[ko] {
                st.ice[ko] = true;
                // Formation: 2 m of water leaves the ocean.
                st.fw_oneshot.as_mut_slice()[ko] -= ICE_FORMATION_WATER * 1000.0;
            } else if !frozen && st.ice[ko] && sst.as_slice()[ko] > SEAWATER_FREEZE_C + 0.5 {
                st.ice[ko] = false;
                // Melt: the water comes back.
                st.fw_oneshot.as_mut_slice()[ko] += ICE_FORMATION_WATER * 1000.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Coupler, Field2) {
        let world = World::earthlike();
        let atm_grid = AtmGrid::new(24, 16);
        let ocn_grid = OceanGrid::mercator(32, 24, 70.0);
        let sea_mask = world.ocean_sea_mask(&ocn_grid);
        // Initial SST from the climatology.
        let sst = Field2::from_fn(32, 24, |i, j| {
            if sea_mask[ocn_grid.idx(i, j)] {
                world.sst_climatology(ocn_grid.lons[i], ocn_grid.lats[j])
            } else {
                0.0
            }
        });
        let coupler = Coupler::new(
            atm_grid,
            ocn_grid,
            sea_mask,
            &world,
            PhysicsConfig::default(),
        );
        (coupler, sst)
    }

    fn atm_fields(g: &AtmGrid) -> AtmSurfaceFields {
        AtmSurfaceFields {
            t_low: Field2::from_fn(g.nlon, g.nlat, |_i, j| 250.0 + 45.0 * g.lats[j].cos()),
            q_low: Field2::filled(g.nlon, g.nlat, 0.008),
            u_low: Field2::filled(g.nlon, g.nlat, 5.0),
            v_low: Field2::filled(g.nlon, g.nlat, 1.0),
            precip: Field2::filled(g.nlon, g.nlat, 3.0e-5),
            sw_sfc: Field2::filled(g.nlon, g.nlat, 180.0),
            lw_down: Field2::filled(g.nlon, g.nlat, 330.0),
        }
    }

    #[test]
    fn step_produces_finite_surface_everywhere() {
        let (c, sst) = setup();
        let mut st = c.init_state(&sst, |lat| 250.0 + 45.0 * lat.cos());
        let atm = atm_fields(&c.atm_grid);
        let out = c.step(&mut st, &atm, &sst, 1800.0);
        for ka in 0..c.atm_grid.len() {
            assert!(
                out.t_sfc[ka].is_finite() && out.t_sfc[ka] > 150.0,
                "t_sfc[{ka}] = {}",
                out.t_sfc[ka]
            );
            assert!((0.0..=1.0).contains(&out.albedo[ka]));
            assert!(out.fluxes[ka].sensible.is_finite());
        }
    }

    #[test]
    fn ocean_forcing_accumulates_and_averages() {
        let (c, sst) = setup();
        let mut st = c.init_state(&sst, |lat| 250.0 + 45.0 * lat.cos());
        let atm = atm_fields(&c.atm_grid);
        for _ in 0..12 {
            c.step(&mut st, &atm, &sst, 1800.0);
        }
        assert!((st.acc_seconds - 21_600.0).abs() < 1e-9);
        let f = c.take_ocean_forcing(&mut st);
        assert_eq!(st.acc_seconds, 0.0);
        // Wind stress points with the wind over open water.
        let mut saw_sea = false;
        for ko in 0..c.ocn_grid.len() {
            if c.sea_mask[ko] && !st.ice[ko] && f.tau_x.as_slice()[ko] != 0.0 {
                assert!(f.tau_x.as_slice()[ko] > 0.0, "tau_x against the wind");
                saw_sea = true;
            }
        }
        assert!(saw_sea);
        // Taking again yields zeros.
        let f2 = c.take_ocean_forcing(&mut st);
        assert!(f2.heat.max_abs() == 0.0);
    }

    #[test]
    fn freshwater_into_ocean_is_positive_with_rain_and_rivers() {
        let (c, sst) = setup();
        let mut st = c.init_state(&sst, |lat| 250.0 + 45.0 * lat.cos());
        // Saturate the buckets so rain becomes runoff feeding rivers.
        for b in st.bucket.iter_mut() {
            b.soil_water = foam_land::hydrology::BUCKET_CAPACITY;
        }
        let mut atm = atm_fields(&c.atm_grid);
        atm.precip.fill(3.0e-4); // heavy rain, little evap
        atm.q_low.fill(0.012);
        // Spin a few days so rivers start delivering.
        let mut f = OceanForcing::zeros(&c.ocn_grid);
        for _d in 0..6 {
            for _ in 0..12 {
                c.step(&mut st, &atm, &sst, 1800.0);
            }
            f = c.take_ocean_forcing(&mut st);
        }
        let mut total_fw = 0.0;
        for ko in 0..c.ocn_grid.len() {
            if c.sea_mask[ko] {
                total_fw += f.freshwater.as_slice()[ko]
                    * c.ocn_grid.cell_area(ko % c.ocn_grid.nx, ko / c.ocn_grid.nx);
            }
        }
        assert!(total_fw > 0.0, "net freshwater {total_fw} kg/s");
        // Rivers are flowing.
        assert!(c.river.total_storage(&st.river) > 0.0);
    }

    #[test]
    fn warm_sea_cools_heats_atmosphere_consistently() {
        let (c, sst) = setup();
        let mut st = c.init_state(&sst, |lat| 250.0 + 45.0 * lat.cos());
        let mut atm = atm_fields(&c.atm_grid);
        // Make air much colder than the tropical sea.
        atm.t_low.fill(280.0);
        let out = c.step(&mut st, &atm, &sst, 1800.0);
        // Find a fully-sea tropical cell: upward sensible heat.
        let g = &c.atm_grid;
        let mut checked = false;
        for j in 0..g.nlat {
            if g.lats[j].to_degrees().abs() < 15.0 {
                for i in 0..g.nlon {
                    let ka = g.idx(i, j);
                    if c.sea_frac[ka] > 0.999 {
                        assert!(out.fluxes[ka].sensible > 0.0);
                        assert!(out.fluxes[ka].latent > 0.0);
                        checked = true;
                    }
                }
            }
        }
        assert!(checked, "no all-sea tropical cell found");
    }

    #[test]
    fn ice_forms_at_clamp_and_books_freshwater() {
        let (c, mut sst) = setup();
        let mut st = c.init_state(&sst, |lat| 250.0 + 45.0 * lat.cos());
        // Freeze a patch of open water.
        let mut target = None;
        for ko in 0..c.ocn_grid.len() {
            if c.sea_mask[ko] && !st.ice[ko] {
                target = Some(ko);
                break;
            }
        }
        let ko = target.expect("some open water");
        sst.as_mut_slice()[ko] = SEAWATER_FREEZE_C;
        c.update_ice(&mut st, &sst);
        assert!(st.ice[ko]);
        assert!(
            st.fw_oneshot.as_slice()[ko] < 0.0,
            "formation must remove water"
        );
        // Melt it again.
        sst.as_mut_slice()[ko] = 2.0;
        c.update_ice(&mut st, &sst);
        assert!(!st.ice[ko]);
        assert!(
            st.fw_oneshot.as_slice()[ko].abs() < 1e-9,
            "melt must return the water"
        );
    }

    #[test]
    fn ice_reduces_stress_reaching_ocean() {
        let (c, mut sst) = setup();
        let mut st = c.init_state(&sst, |lat| 250.0 + 45.0 * lat.cos());
        let atm = atm_fields(&c.atm_grid);
        // Pick an open-water cell; record stress, then freeze it.
        c.step(&mut st, &atm, &sst, 1800.0);
        let f_open = c.take_ocean_forcing(&mut st);
        // Freeze everything.
        for ko in 0..c.ocn_grid.len() {
            if c.sea_mask[ko] {
                sst.as_mut_slice()[ko] = SEAWATER_FREEZE_C;
            }
        }
        c.update_ice(&mut st, &sst);
        c.step(&mut st, &atm, &sst, 1800.0);
        let f_ice = c.take_ocean_forcing(&mut st);
        let mut checked = 0;
        for ko in 0..c.ocn_grid.len() {
            if c.sea_mask[ko] && f_open.tau_x.as_slice()[ko] > 1e-6 {
                let ratio = f_ice.tau_x.as_slice()[ko] / f_open.tau_x.as_slice()[ko];
                assert!(ratio < 0.2, "ice stress ratio {ratio} at {ko}");
                checked += 1;
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn snow_raises_albedo() {
        let (c, sst) = setup();
        let mut st = c.init_state(&sst, |lat| 250.0 + 45.0 * lat.cos());
        let atm = atm_fields(&c.atm_grid);
        // Find a land cell and give it snow.
        // A non-ice land cell (ice is already brighter than snow).
        let ka = (0..c.atm_grid.len())
            .find(|&k| c.land[k] && c.sea_frac[k] < 1e-6 && c.soil_type[k] != 4)
            .expect("an all-land, non-ice cell");
        let before = c.step(&mut st, &atm, &sst, 1800.0).albedo[ka];
        st.bucket[ka].snow = 0.2;
        let after = c.step(&mut st, &atm, &sst, 1800.0).albedo[ka];
        assert!(after > before + 0.2, "snow albedo: {before} -> {after}");
    }

    #[test]
    fn evaporation_and_latent_flux_consistent_in_blend() {
        let (c, sst) = setup();
        let mut st = c.init_state(&sst, |lat| 250.0 + 45.0 * lat.cos());
        let atm = atm_fields(&c.atm_grid);
        let out = c.step(&mut st, &atm, &sst, 1800.0);
        for ka in 0..c.atm_grid.len() {
            let f = &out.fluxes[ka];
            if f.evaporation.abs() > 1e-12 {
                let l = f.latent / f.evaporation;
                assert!((l / foam_grid::constants::L_VAP - 1.0).abs() < 1e-9);
            }
        }
    }
}
