//! Experiment C — the century-throughput bench behind CI's
//! `BENCH_century.json` artifact: 100 simulated years pushed through the
//! full coupled pipeline with **streaming** statistics, demonstrating
//! that the Figure-3/4 diagnostics come out of a run whose statistics
//! memory is `O(grid)` — independent of the number of simulated months.
//!
//! ```sh
//! cargo run --release -p foam-bench --bin century \
//!     [--years Y] [--seed S] [--out PATH]
//! ```
//!
//! The artifact records wall-clock, model speedup, the streamed month
//! count, the leading VARIMAX mode's variance share, the two-basin
//! correlation, and a peak-heap proxy from
//! [`foam_telemetry::alloc::CountingAlloc`] (installed as this binary's
//! global allocator) together with the encoded size of the stream state
//! itself — the number that must stay flat as `--years` grows. CI runs
//! the 2-year scaled-down variant (`century-smoke`), the shortest record
//! the Figure-4 analysis accepts, and gates on a throughput regression
//! against the committed 100-year artifact.

use std::sync::Mutex;

use foam::{
    try_run_coupled_observed, FoamConfig, ProgressEvent, RunObserver, TelemetryConfig, World,
};
use foam_bench::{flag_or, observed_sst, region_weights};
use foam_ckpt::Codec;
use foam_grid::Basin;
use foam_ocean::{OceanForcing, OceanModel};
use foam_telemetry::alloc::{CountingAlloc, SteadyMeter};
use foam_telemetry::json::Value;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Opens a [`SteadyMeter`] once the run passes its warm-up interval, so
/// the artifact can report *steady-state* allocations per simulated
/// year — excluding setup (workspace construction, spectral tables,
/// initial states), which is one-off and allowed to allocate freely.
struct SteadyWatch {
    /// First coupling interval considered steady (1-based).
    warmup: usize,
    /// The interval the meter actually opened at, and the meter.
    meter: Mutex<Option<(usize, SteadyMeter)>>,
}

impl RunObserver for SteadyWatch {
    fn on_interval(&self, ev: &ProgressEvent) {
        if ev.interval >= self.warmup {
            let mut g = self.meter.lock().expect("steady meter lock");
            if g.is_none() {
                *g = Some((ev.interval, SteadyMeter::begin()));
            }
        }
    }
}

/// Heap allocations of one warmed-up `OceanModel::step_coupled` on
/// `cfg`'s ocean: the ocean rank's share of the steady rate, counted
/// directly (the run's own counters are process-wide). Zero since the
/// ocean workspace.
fn ocean_interval_allocations(cfg: &FoamConfig) -> u64 {
    let world = World::earthlike();
    let model = OceanModel::new(cfg.ocean.clone(), &world);
    let mut state = model.init_state(&world);
    let forcing = OceanForcing::climatological(&model.grid, &world, &model.sst(&state));
    for _ in 0..2 {
        model.step_coupled(&mut state, &forcing, cfg.dt_couple);
    }
    let meter = SteadyMeter::begin();
    model.step_coupled(&mut state, &forcing, cfg.dt_couple);
    meter.so_far().allocations
}

fn main() {
    let years: f64 = flag_or("--years", 100.0);
    let seed: u64 = flag_or("--seed", 1914);
    let out_path: String = flag_or("--out", "BENCH_century.json".to_string());

    println!("=== century-throughput bench ({years} simulated years, streaming statistics) ===\n");
    let mut cfg = FoamConfig::century(seed);
    cfg.telemetry = TelemetryConfig {
        enabled: true,
        path: None,
    };

    // Steady-state window: everything after the first simulated year
    // (or the second half of a sub-year smoke run) counts; the warm-up
    // absorbs the one-off setup allocations.
    let n_intervals = ((years * 360.0 * 86_400.0) / cfg.dt_couple).round() as usize;
    let intervals_per_year = ((360.0 * 86_400.0) / cfg.dt_couple).round() as usize;
    let watch = SteadyWatch {
        warmup: intervals_per_year.min(n_intervals / 2).max(1),
        meter: Mutex::new(None),
    };

    CountingAlloc::reset_peak();
    let baseline = CountingAlloc::stats();
    let out = try_run_coupled_observed(&cfg, years * 360.0, &watch)
        .unwrap_or_else(|e| panic!("coupled run failed: {e}"));
    // Read the steady window before the analysis below churns the heap.
    let steady = watch
        .meter
        .lock()
        .expect("steady meter lock")
        .map(|(opened_at, meter)| {
            let intervals = n_intervals.saturating_sub(opened_at);
            let steady_years = intervals as f64 * cfg.dt_couple / (360.0 * 86_400.0);
            (steady_years, meter.so_far())
        });
    let alloc = CountingAlloc::stats();

    let stream = out.stream.as_ref().expect("century config streams");
    let months = stream.months();
    let world = World::earthlike();
    let (grid, mask, _) = observed_sst(&cfg.ocean, &world);
    let stream_bytes = stream.to_bytes().len();
    println!(
        "integrated {:.1} years at {:.0}× real time ({:.1} s wall)",
        out.sim_seconds / (360.0 * 86_400.0),
        out.model_speedup,
        out.wall_seconds
    );
    println!(
        "streamed {months} months into {stream_bytes} bytes of statistics state \
         ({} grid points; discarded variability fraction {:.2e})",
        grid.len(),
        stream.discarded_fraction()
    );
    println!(
        "peak heap {:.1} MiB (live at end {:.1} MiB, {} allocations)",
        (alloc.peak_bytes - baseline.live_bytes.min(alloc.peak_bytes)) as f64 / (1 << 20) as f64,
        alloc.live_bytes as f64 / (1 << 20) as f64,
        alloc.allocations - baseline.allocations,
    );
    if let Some((sy, d)) = steady {
        let rate = d.per(sy);
        println!(
            "steady state: {:.3e} allocations/yr ({:.1} MiB/yr) over the final {:.2} simulated years",
            rate.allocations,
            rate.total_bytes / (1 << 20) as f64,
            sy,
        );
    }
    let ocean_allocs = ocean_interval_allocations(&cfg);
    println!("ocean.step_coupled: {ocean_allocs} allocations per warmed-up coupling interval");

    // --- Figure-4 analysis straight off the stream. ---------------------
    let (mut leading_varfrac, mut basin_corr) = (Value::Null, Value::Null);
    if let Some(analysis) = stream.analyze_variability(6) {
        let rot = analysis.varimax(4.min(analysis.eof.patterns.len()));
        if !rot.variance_fraction.is_empty() {
            println!(
                "leading VARIMAX mode: {:.1} % of low-passed variance (paper: 15 %)",
                100.0 * rot.variance_fraction[0]
            );
            leading_varfrac = rot.variance_fraction[0].into();
        }
        // The two-basin diagnostic: area-mean series of one basin's
        // 25–60°N box, `None` when the box holds no sea.
        let box_mean = |basin| {
            let w = region_weights(&grid, &mask, &world, Some(basin), 25.0..60.0);
            let den: f64 = w.iter().sum();
            (den > 0.0).then(|| analysis.series(&w.iter().map(|v| v / den).collect::<Vec<_>>()))
        };
        if let (Some(na), Some(np)) = (box_mean(Basin::Atlantic), box_mean(Basin::Pacific)) {
            let r = foam_stats::correlation(&na, &np);
            println!("North Atlantic × North Pacific low-passed SST correlation: r = {r:.2}");
            basin_corr = r.into();
        }
    }

    let report = out.telemetry.as_ref().expect("telemetry was enabled");
    let doc = Value::object([
        ("schema".to_string(), "foam-bench/century/1".into()),
        ("years".to_string(), years.into()),
        ("seed".to_string(), seed.into()),
        ("sim_seconds".to_string(), out.sim_seconds.into()),
        ("wall_seconds".to_string(), out.wall_seconds.into()),
        ("model_speedup".to_string(), out.model_speedup.into()),
        ("months_streamed".to_string(), (months as u64).into()),
        ("grid_points".to_string(), (grid.len() as u64).into()),
        (
            "stream_state_bytes".to_string(),
            (stream_bytes as u64).into(),
        ),
        (
            "discarded_fraction".to_string(),
            stream.discarded_fraction().into(),
        ),
        (
            "final_mean_sst".to_string(),
            out.final_mean_sst()
                .map(Value::Number)
                .unwrap_or(Value::Null),
        ),
        ("leading_varimax_varfrac".to_string(), leading_varfrac),
        ("basin_correlation".to_string(), basin_corr),
        (
            "alloc".to_string(),
            Value::object([
                ("peak_bytes".to_string(), alloc.peak_bytes.into()),
                ("live_bytes_end".to_string(), alloc.live_bytes.into()),
                ("total_bytes".to_string(), alloc.total_bytes.into()),
                ("allocations".to_string(), alloc.allocations.into()),
                (
                    "steady_years".to_string(),
                    steady
                        .map(|(sy, _)| Value::Number(sy))
                        .unwrap_or(Value::Null),
                ),
                (
                    "steady_allocations".to_string(),
                    steady
                        .map(|(_, d)| Value::Number(d.allocations as f64))
                        .unwrap_or(Value::Null),
                ),
                (
                    "steady_allocs_per_year".to_string(),
                    steady
                        .map(|(sy, d)| Value::Number(d.per(sy).allocations))
                        .unwrap_or(Value::Null),
                ),
                (
                    "ocean_step_coupled_allocations".to_string(),
                    ocean_allocs.into(),
                ),
                (
                    "steady_bytes_per_year".to_string(),
                    steady
                        .map(|(sy, d)| Value::Number(d.per(sy).total_bytes))
                        .unwrap_or(Value::Null),
                ),
            ]),
        ),
        (
            "telemetry_model_speedup".to_string(),
            report.model_speedup.into(),
        ),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty()).expect("write the bench artifact");
    println!("\nwrote {out_path}");
}
