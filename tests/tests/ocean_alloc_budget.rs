//! The zero-churn rule, extended to the ocean (PERFORMANCE.md): once
//! `OceanModel`'s workspace, the barotropic subsystem's η scratch and
//! the polar filter's FFT scratch have grown on the first calls, a
//! coupling interval — momentum forcings, internal step, barotropic
//! subcycle, tracer step, vertical mixing, polar filter — makes **zero**
//! heap allocations.
//!
//! A single-test binary with its own [`CountingAlloc`], like
//! `alloc_budget.rs` and for the same reason: the counters are
//! process-wide.

use foam_grid::World;
use foam_ocean::{OceanConfig, OceanForcing, OceanModel};
use foam_telemetry::alloc::{CountingAlloc, SteadyMeter};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warmed_up_ocean_interval_allocates_nothing() {
    let world = World::earthlike();
    let cfg = OceanConfig::tiny();
    assert!(cfg.n_trac <= 6, "every phase must run");
    let model = OceanModel::new(cfg, &world);
    let mut state = model.init_state(&world);
    let forcing = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
    for _ in 0..2 {
        model.step_coupled(&mut state, &forcing, 21_600.0);
    }

    let meter = SteadyMeter::begin();
    for _ in 0..3 {
        model.step_coupled(&mut state, &forcing, 21_600.0);
    }
    let d = meter.so_far();
    assert_eq!(
        d.allocations, 0,
        "steady-state ocean intervals allocated {} times ({} bytes) — \
         the zero-churn rule regressed (see PERFORMANCE.md)",
        d.allocations, d.total_bytes
    );
    assert!(model.is_finite(&state));
}
