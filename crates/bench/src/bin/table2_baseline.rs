//! Experiment T2 — the paper's comparison against contemporary coupled
//! models: "The performance of FOAM can be compared directly to the NCAR
//! CSM coupled model which accomplishes only a third of FOAM's maximum
//! throughput using 16 nodes of a Cray C90", with the ocean formulation
//! alone worth "roughly a tenfold increase in the amount of simulated
//! time represented per unit of computation".
//!
//! We isolate exactly the devices the paper credits by running the same
//! physics twice:
//! * **FOAM**: slowed + mode-split + subcycled ocean, lagged coupling;
//! * **baseline (CSM-like)**: unsplit ocean stepping at the full
//!   gravity-wave CFL, sequential (blocking) coupling.
//!
//! The ocean-alone block doubles as ablation A1: between the two it
//! switches the slowed surface and the tracer subcycle off one at a time.
//!
//! ```sh
//! cargo run --release -p foam-bench --bin table2_baseline [days] [n_atm_ranks]
//! ```

use foam::{baseline_config, run_coupled, FoamConfig};
use foam_bench::arg_or;
use foam_grid::World;
use foam_ocean::{OceanConfig, OceanForcing, OceanModel};
use std::time::Instant;

fn main() {
    let days: f64 = arg_or(1, 0.5);
    let n_atm: usize = arg_or(2, 4);

    println!("=== Table 2: FOAM vs CSM-like baseline ===\n");

    // ---- Ocean formulation in isolation (the 10× claim), and ablation
    // A1: the slowed surface and the tracer subcycle switched off one
    // at a time. ----------------------------------------------------------
    let world = World::earthlike();
    // One simulated day each way. Wall time is the best of three for the
    // sub-second split variants: a single 0.4 s sample on a shared host
    // is ±20 %.
    let sim = 86_400.0;
    let one_day = |cfg: OceanConfig, unsplit: bool| {
        let model = OceanModel::new(cfg, &world);
        let st0 = model.init_state(&world);
        let forcing = OceanForcing::climatological(&model.grid, &world, &model.sst(&st0));
        let reps = if unsplit { 1 } else { 3 };
        let (mut wall, mut work) = (f64::INFINITY, 0);
        for _ in 0..reps {
            let mut st = st0.clone();
            let t0 = Instant::now();
            work = if unsplit {
                model.step_unsplit(&mut st, &forcing, sim)
            } else {
                model.step_coupled(&mut st, &forcing, sim)
            };
            wall = wall.min(t0.elapsed().as_secs_f64());
        }
        (wall, work)
    };
    let base = OceanConfig::default();
    let (wall_split, work_split) = one_day(base.clone(), false);
    println!("ocean formulation alone (one simulated day, 128×128×16):");
    println!(
        "  FOAM split/slowed/subcycled : {wall_split:>8.2} s wall, {work_split:>8} work units"
    );
    let mut no_slow = base.clone();
    no_slow.slowdown = 1.0; // external waves at full √(gH)
    let mut no_sub = base.clone();
    no_sub.n_trac = 1; // tracers every internal step
    for (name, cfg) in [
        ("  no slowed surface (α = 1)", no_slow),
        ("  tracers every step", no_sub),
    ] {
        let (wall, work) = one_day(cfg, false);
        println!(
            "{name:<30}: {wall:>8.2} s wall, {work:>8} work units ({:+.0} % work, {:+.0} % wall)",
            100.0 * (work as f64 / work_split as f64 - 1.0),
            100.0 * (wall / wall_split.max(1e-9) - 1.0)
        );
    }
    let (wall_unsplit, work_unsplit) = one_day(base, true);
    println!(
        "  unsplit gravity-wave CFL    : {wall_unsplit:>8.2} s wall, {work_unsplit:>8} work units"
    );
    println!(
        "  → ocean cost ratio {:.1}× wall, {:.1}× work   [paper: ≈10× fewer FLOPs per simulated time]\n",
        wall_unsplit / wall_split.max(1e-9),
        work_unsplit as f64 / work_split.max(1) as f64
    );

    // ---- Full coupled comparison. --------------------------------------
    println!("full coupled model ({days} simulated days, {n_atm} atm ranks + 1 ocean):");
    let cfg = FoamConfig::paper(n_atm, 3);
    let foam_out = run_coupled(&cfg, days);
    let base_out = run_coupled(&baseline_config(&cfg), days);
    println!(
        "  FOAM    (lagged + split ocean)   : {:>8.2} s wall → {:>8.0}× real time",
        foam_out.wall_seconds, foam_out.model_speedup
    );
    println!(
        "  baseline (sequential + unsplit)  : {:>8.2} s wall → {:>8.0}× real time",
        base_out.wall_seconds, base_out.model_speedup
    );
    let ratio = foam_out.model_speedup / base_out.model_speedup.max(1e-9);
    println!(
        "  → FOAM throughput advantage {ratio:.1}×   [paper: ≥3× the NCAR CSM throughput, \
         ≥10× its cost-performance]"
    );
    // Sanity: both runs end in the same climate state ballpark.
    let a = foam_out.mean_sst_series.last().unwrap();
    let b = base_out.mean_sst_series.last().unwrap();
    println!(
        "  (fidelity check: final mean SST {a:.2} °C vs {b:.2} °C — same physics, \
         different numerics)"
    );
}
