//! Bit-identity of the zero-churn workspace hot loop (PERFORMANCE.md,
//! DESIGN.md §14): driving the atmosphere + coupler through
//! [`AtmStepper::step`] (the step the coupled driver itself runs, over
//! pre-allocated workspaces) must produce exactly the bits pinned below —
//! recorded from the allocate-per-step reference path this one
//! replaced — for every checkpoint/resume split, where the resumed leg
//! starts from freshly constructed workspaces mid-trajectory: exactly
//! what a driver restart does.

use foam::stepper::{AtmParts, AtmStepper, OceanStepper};
use foam::FoamConfig;
use foam_atm::{AtmExport, AtmState};
use foam_ckpt::Codec;
use foam_coupler::CouplerState;
use foam_mpi::{Comm, Universe};

/// A one-rank stepper at the initial condition — fresh workspaces over
/// the ocean's first SST, exactly what a driver (re)start builds.
fn stepper(cfg: &FoamConfig, comm: &Comm) -> AtmStepper {
    let sst = OceanStepper::new(cfg, None).sst();
    AtmStepper::fresh(AtmParts::new(cfg, comm), sst)
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
                // A mid-run serialize → deserialize → fresh-workspace
                // resume at `split`.
                let mut atm = stepper(&cfg, comm);
                for _ in 0..split {
                    atm.step(comm);
                }
                let snapshot = encode_all(&atm.state, &atm.coupler_state, &atm.export);
                let mut r = foam_ckpt::ByteReader::new(&snapshot);
                let mut atm = stepper(&cfg, comm);
                atm.state = AtmState::decode(&mut r).expect("atm state round-trips");
                atm.coupler_state =
                    CouplerState::decode(&mut r).expect("coupler state round-trips");
                atm.export = AtmExport::decode(&mut r).expect("export round-trips");
                for _ in split..N_STEPS {
                    atm.step(comm);
                }

                let got = digest(&atm.state, &atm.coupler_state, &atm.export);
                assert_eq!(
                    got, pinned,
                    "seed {seed}, split {split}: digest {got:#018x}, pinned {pinned:#018x}"
                );
            });
        }
    }
}
