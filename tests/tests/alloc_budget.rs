//! The allocation budget of the hot loop, enforced (PERFORMANCE.md):
//! with [`CountingAlloc`] installed as this binary's global allocator,
//! a warmed-up [`AtmStepper::step`] — the atmosphere + coupler step the
//! coupled driver itself runs — must make **zero** heap allocations.
//! This is the unit-level teeth behind the CI century-smoke gate on
//! `alloc.steady_allocs_per_year` — if a change reintroduces per-step
//! churn anywhere under `step_ws` / `step_rows_ws` (spectral
//! transforms, physics columns, tracer advection, flux aggregation) or
//! in the step around them (the runoff hand-over, the forcing refill),
//! this test names it long before the bench notices.
//!
//! This file stays a single-test binary on purpose: the counters are
//! process-wide, so a sibling test allocating concurrently would make
//! the zero assertion racy.

use foam::stepper::{AtmParts, AtmStepper, OceanStepper};
use foam::FoamConfig;
use foam_mpi::Universe;
use foam_telemetry::alloc::{CountingAlloc, SteadyMeter};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warmed_up_workspace_step_allocates_nothing() {
    let cfg = FoamConfig::tiny(7);
    Universe::run(1, move |comm| {
        let sst = OceanStepper::new(&cfg, None).sst();
        let mut atm = AtmStepper::fresh(AtmParts::new(&cfg, comm), sst);

        // Warm up: first steps may still grow buffers to their final
        // capacity (e.g. the physics scratch).
        for _ in 0..3 {
            atm.step(comm);
        }

        // Steady state: the zero-churn rule, enforced literally.
        let meter = SteadyMeter::begin();
        for _ in 0..5 {
            atm.step(comm);
        }
        let d = meter.so_far();
        assert_eq!(
            d.allocations, 0,
            "steady-state workspace steps allocated {} times ({} bytes) — \
             the zero-churn rule regressed (see PERFORMANCE.md)",
            d.allocations, d.total_bytes
        );
    });
}
