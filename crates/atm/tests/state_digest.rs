//! The atmosphere's bits, frozen. Each case steps an [`AtmModel`] under
//! [`AtmModel::standalone_forcing`] and compares, on every rank, an
//! FNV-1a digest over the [`Codec`] bytes of its [`AtmState`] and
//! [`AtmExport`] with a value recorded from the allocate-per-step
//! reference `AtmModel::step` — a different, slower algorithm (one
//! transform and one global combine per field) that `step_ws` had to
//! reproduce bit for bit. That reference is gone; these digests are
//! what is left of it, and any change that moves one has moved the
//! model's answers (see ROADMAP's re-pin gate before editing a constant
//! here).

use foam_atm::{AtmConfig, AtmExport, AtmModel, AtmState, AtmWorkspace};
use foam_ckpt::Codec;
use foam_grid::World;
use foam_mpi::Universe;

fn digest(state: &AtmState, export: &AtmExport) -> u64 {
    let mut buf = Vec::new();
    state.encode(&mut buf);
    export.encode(&mut buf);
    buf.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Step `cfg` on `ranks` ranks; per rank, the digests after each step
/// count in `at` (ascending).
fn digests(cfg: &AtmConfig, ranks: usize, at: &[u64]) -> Vec<Vec<u64>> {
    let run = Universe::run(ranks, |comm| {
        let model = AtmModel::new(cfg.clone(), comm);
        let world = World::earthlike();
        let mut state = model.init_state();
        let mut ws = AtmWorkspace::new(&model);
        let mut export = model.empty_export();
        let mut out = Vec::with_capacity(at.len());
        for step in 1..=*at.last().expect("at least one step count") {
            let forcing = model.standalone_forcing(&state, &world);
            model.step_ws(&mut state, comm, &forcing, &mut ws, &mut export);
            if at.contains(&step) {
                out.push(digest(&state, &export));
            }
        }
        out
    });
    run.results
}

#[track_caller]
fn check(name: &str, got: Vec<Vec<u64>>, want: &[&[u64]]) {
    assert_eq!(
        got, want,
        "{name}: per-rank digests {got:#018x?}, pinned {want:#018x?}"
    );
}

/// The paper's 18 physics levels: every Jacobian, batch and cached
/// gradient in play. Steps 1 and 2 straddle the Euler → leapfrog
/// hand-over.
fn eighteen_levels() -> AtmConfig {
    AtmConfig {
        nlev_phys: 18,
        ..AtmConfig::tiny(13)
    }
}

#[test]
fn eighteen_levels_one_rank() {
    check(
        "18 levels, 1 rank, steps 1/2/6",
        digests(&eighteen_levels(), 1, &[1, 2, 6]),
        &[&[
            0x19e1_2e3f_dfb6_126c,
            0x1494_ff9e_4042_7d89,
            0x6703_dcfe_29d9_aaed,
        ]],
    );
}

#[test]
fn eighteen_levels_two_ranks() {
    check(
        "18 levels, 2 ranks, steps 1/2/6",
        digests(&eighteen_levels(), 2, &[1, 2, 6]),
        &[
            &[
                0xe7c1_c3ea_3f5c_be5b,
                0x7243_c612_1b3b_719e,
                0x5e88_1fdc_4334_9cd0,
            ],
            &[
                0xd274_e9fd_ff83_ec3c,
                0x3cb9_9b16_b1b7_81dc,
                0x161d_399b_bca9_78d6,
            ],
        ],
    );
}

#[test]
fn eighteen_levels_three_ranks() {
    check(
        "18 levels, 3 ranks, steps 1/2/6",
        digests(&eighteen_levels(), 3, &[1, 2, 6]),
        &[
            &[
                0x8da2_aabf_42f6_b346,
                0x2afd_f0d9_d33b_e9ec,
                0x1bb7_59b6_d811_f695,
            ],
            &[
                0x7b9b_a54f_9445_696c,
                0xc4bd_8349_73f2_7b26,
                0xa7ab_6088_f57e_b1bf,
            ],
            &[
                0xca7a_6904_4875_3c49,
                0x0952_d9b2_2eeb_8c02,
                0x06db_03bf_72b2_279e,
            ],
        ],
    );
}

/// One simulated day: crosses both twice-daily radiation refreshes.
#[test]
fn tiny_one_day_two_ranks() {
    check(
        "tiny(3), 2 ranks, step 48",
        digests(&AtmConfig::tiny(3), 2, &[48]),
        &[&[0xe66f_5b2c_6cea_b461], &[0xf76b_07ca_440e_3e4f]],
    );
}
