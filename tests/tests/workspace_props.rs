//! Bit-identity of the zero-churn workspace hot loop (PERFORMANCE.md,
//! DESIGN.md §14): driving the atmosphere + coupler through the
//! pre-allocated workspaces (`step_ws` / `step_rows_ws`, what the
//! coupled driver runs) must produce exactly the bits pinned below —
//! recorded from the allocate-per-step reference path this one
//! replaced — for every checkpoint/resume split, where the resumed leg
//! starts from freshly constructed workspaces mid-trajectory: exactly
//! what a driver restart does.

use foam::{FoamConfig, World};
use foam_atm::{AtmExport, AtmForcing, AtmModel, AtmState, AtmWorkspace};
use foam_ckpt::Codec;
use foam_coupler::{AtmSurfaceView, Coupler, CouplerState};
use foam_grid::Field2;
use foam_mpi::{Comm, Universe};
use foam_ocean::OceanModel;

/// One-rank harness holding everything the driver's inner loop touches.
struct Harness {
    model: AtmModel,
    coupler: Coupler,
    sst: Field2,
    dt: f64,
}

impl Harness {
    fn new(cfg: &FoamConfig, comm: &Comm) -> Self {
        let planet = World::earthlike();
        let model = AtmModel::new(cfg.atm.clone(), comm);
        let sea_mask = OceanModel::effective_sea_mask(&cfg.ocean, &planet);
        let ocn_grid =
            foam_grid::OceanGrid::mercator(cfg.ocean.nx, cfg.ocean.ny, cfg.ocean.lat_max_deg);
        let coupler = Coupler::new(
            model.grid().clone(),
            ocn_grid,
            sea_mask,
            &planet,
            cfg.atm.physics,
        );
        let ocean = OceanModel::new(cfg.ocean.clone(), &planet);
        let sst = ocean.sst(&ocean.init_state(&planet));
        Harness {
            model,
            coupler,
            sst,
            dt: cfg.atm.dt,
        }
    }

    fn init(&self) -> (AtmState, CouplerState, AtmExport) {
        let state = self.model.init_state();
        let cstate = self.coupler.init_state(&self.sst, AtmModel::t_init);
        let export = self.model.initial_export(&state);
        (state, cstate, export)
    }

    /// The workspace step the coupled driver runs (`StepWorkspace`).
    #[allow(clippy::too_many_arguments)]
    fn step_ws(
        &self,
        comm: &Comm,
        state: &mut AtmState,
        cstate: &mut CouplerState,
        export: &mut AtmExport,
        aws: &mut AtmWorkspace,
        cws: &mut foam_coupler::CouplerWorkspace,
        forcing: &mut AtmForcing,
        full_runoff: &mut Vec<f64>,
    ) {
        let (j0, j1) = self.model.rows();
        let nlon = self.model.grid().nlon;
        let (ka0, ka1) = (j0 * nlon, j1 * nlon);
        let view = AtmSurfaceView {
            t_low: &export.t_low,
            q_low: &export.q_low,
            u_low: &export.u_low,
            v_low: &export.v_low,
            precip: &export.precip,
            sw_sfc: &export.sw_sfc,
            lw_down: &export.lw_down,
        };
        self.coupler
            .step_rows_ws(cstate, view, &self.sst, self.dt, ka0, ka1, ka0, cws);
        // Mirrors the driver: the (allgathered) global runoff lives in
        // its own reused buffer, separate from the coupler workspace.
        full_runoff.clear();
        full_runoff.extend_from_slice(&cws.runoff[ka0..ka1]);
        self.coupler
            .route_rivers_ws(cstate, full_runoff, self.dt, cws);
        forcing.fluxes.clear();
        forcing.fluxes.extend_from_slice(&cws.out.fluxes[ka0..ka1]);
        forcing.t_sfc.clear();
        forcing.t_sfc.extend_from_slice(&cws.out.t_sfc[ka0..ka1]);
        forcing.albedo.clear();
        forcing.albedo.extend_from_slice(&cws.out.albedo[ka0..ka1]);
        self.model.step_ws(state, comm, forcing, aws, export);
    }
}

fn encode_all(state: &AtmState, cstate: &CouplerState, export: &AtmExport) -> Vec<u8> {
    let mut buf = Vec::new();
    state.encode(&mut buf);
    cstate.encode(&mut buf);
    export.encode(&mut buf);
    buf
}

/// FNV-1a over [`encode_all`].
fn digest(state: &AtmState, cstate: &CouplerState, export: &AtmExport) -> u64 {
    encode_all(state, cstate, export)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Digests of the allocate-per-step reference trajectory
/// (`Coupler::step_rows` + `Coupler::route_rivers` + `AtmModel::step`)
/// after `N_STEPS` steps, per seed. Recorded from that path, which is
/// gone; see ROADMAP's re-pin gate before editing one.
const PINNED: [(u64, u64); 2] = [(3, 0xae75_6181_0b7d_b452), (17, 0x2744_b815_b2a0_9376)];

/// Property: for every (seed, resume split) pair, N workspace steps with
/// a checkpoint/resume at the split — resuming into *fresh* workspaces,
/// like a driver restart — reproduce the pinned digest of N reference
/// steps: the dynamical state, the tracer fields, the coupler state and
/// every export field, bit for bit.
#[test]
fn workspace_path_is_bit_identical_across_resume_splits() {
    const N_STEPS: usize = 6;
    for (seed, pinned) in PINNED {
        for split in [1usize, 3, 5] {
            let cfg = FoamConfig::tiny(seed);
            Universe::run(1, move |comm| {
                let h = Harness::new(&cfg, comm);

                // A mid-run serialize → deserialize → fresh-workspace
                // resume at `split`.
                let (mut state, mut cstate, mut export) = h.init();
                let mut aws = AtmWorkspace::new(&h.model);
                let mut cws = h.coupler.workspace();
                let mut forcing = AtmForcing {
                    fluxes: Vec::new(),
                    t_sfc: Vec::new(),
                    albedo: Vec::new(),
                };
                let mut full_runoff = Vec::new();
                for _ in 0..split {
                    h.step_ws(
                        comm,
                        &mut state,
                        &mut cstate,
                        &mut export,
                        &mut aws,
                        &mut cws,
                        &mut forcing,
                        &mut full_runoff,
                    );
                }
                let snapshot = encode_all(&state, &cstate, &export);
                let mut r = foam_ckpt::ByteReader::new(&snapshot);
                let mut state = AtmState::decode(&mut r).expect("atm state round-trips");
                let mut cstate = CouplerState::decode(&mut r).expect("coupler state round-trips");
                let mut export = AtmExport::decode(&mut r).expect("export round-trips");
                let mut aws = AtmWorkspace::new(&h.model);
                let mut cws = h.coupler.workspace();
                let mut forcing = AtmForcing {
                    fluxes: Vec::new(),
                    t_sfc: Vec::new(),
                    albedo: Vec::new(),
                };
                let mut full_runoff = Vec::new();
                for _ in split..N_STEPS {
                    h.step_ws(
                        comm,
                        &mut state,
                        &mut cstate,
                        &mut export,
                        &mut aws,
                        &mut cws,
                        &mut forcing,
                        &mut full_runoff,
                    );
                }

                let got = digest(&state, &cstate, &export);
                assert_eq!(
                    got, pinned,
                    "seed {seed}, split {split}: digest {got:#018x}, pinned {pinned:#018x}"
                );
            });
        }
    }
}
