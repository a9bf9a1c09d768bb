//! The traced run: one untraced and one traced unit of the workload
//! asked for, whose returned outputs are read into the per-layer ledger,
//! then every probe and both component loops of `layers.rs`, and the
//! trace document written to `perf/out/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use foam::{FoamConfig, OceanConfig, TelemetryConfig};
use foam_mpi::{tag_label, RankTrace};
use foam_telemetry::json::Value;
use foam_telemetry::TelemetryReport;

use crate::layers::{self, LoopTimes};
use crate::metrics::{Ledger, Outcome, PER_LAYER};
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Trace};
use crate::workloads::{
    coupled_config, coupled_unit, ocean_calls_per_unit, unit_days, CoupledUnit, Measured, Opts,
    Reference, Sizes, SECONDS_PER_DAY,
};

/// What a traced run hands back besides its ledger.
pub struct Traced {
    pub outcome: Outcome,
    /// `(reference key, final mean SST)` of the unit, for model workloads.
    pub pin: Option<(String, f64)>,
    /// The trace document written to `perf/out/trace-<workload>.json`.
    pub document: Value,
}

fn phase_sum(report: &TelemetryReport, path: &str) -> f64 {
    report.phase(path).map_or(0.0, |p| p.sum)
}

fn phase_calls(report: &TelemetryReport, path: &str) -> f64 {
    report.phase(path).map_or(0.0, |p| p.calls as f64)
}

fn total_wait(trace: &RankTrace) -> f64 {
    trace.stats.by_tag.values().map(|t| t.wait_seconds).sum()
}

/// Ledger rows read from what a traced coupled unit returned.
fn read_coupled(ledger: &mut Ledger, cfg: &FoamConfig, unit: &CoupledUnit) {
    let out = &unit.out;
    let n_atm = cfg.n_atm_ranks;
    let sim_days = out.sim_seconds / SECONDS_PER_DAY;
    let steps = (out.mean_sst_series.len() * cfg.atm_steps_per_couple()) as f64;
    if let Some(report) = &out.telemetry {
        let atm = phase_sum(report, "atmosphere");
        let spectral = phase_sum(report, "atmosphere/dynamics/spectral");
        if atm > 0.0 {
            ledger.value("atm.spectral_share", spectral / atm);
            ledger.value(
                "atm.dynamics_share",
                (phase_sum(report, "atmosphere/dynamics") - spectral) / atm,
            );
            ledger.value(
                "atm.physics_share",
                phase_sum(report, "atmosphere/physics") / atm,
            );
        }
        // What the driver, the rivers and the exchange add on top of the
        // two per-step components, on the root rank, as a share of its
        // span — all from this one run. Waiting for the ocean's SST is
        // not in it: `mpi.wait_frac_atm` has that.
        if let Some(root) = report.ranks.first().filter(|r| r.wall_seconds > 0.0) {
            let seconds = |path: &str| root.phases.get(path).map_or(0.0, |p| p.seconds);
            let accounted =
                seconds("atmosphere") + seconds("coupler/fluxes") + root.leaf_seconds("sst_wait");
            ledger.value(
                "core.driver_overhead_frac",
                1.0 - accounted / root.wall_seconds,
            );
        }
        let atm_calls = phase_calls(report, "atmosphere");
        if atm_calls > 0.0 {
            ledger.value(
                "spectral.transforms_per_step",
                phase_calls(report, "atmosphere/dynamics/spectral") / atm_calls,
            );
        }
    }
    let work: Vec<f64> = out.work_per_rank.iter().map(|w| *w as f64).collect();
    if mean(&work) > 0.0 {
        ledger.value(
            "atm.work_imbalance",
            work.iter().cloned().fold(0.0, f64::max) / mean(&work),
        );
    }
    let (atm_ranks, ocean_ranks) = out.traces.split_at(n_atm.min(out.traces.len()));
    let wait_frac = |ranks: &[RankTrace]| {
        ranks.iter().map(total_wait).sum::<f64>() / (ranks.len().max(1) as f64 * out.wall_seconds)
    };
    ledger.value("mpi.wait_frac_atm", wait_frac(atm_ranks));
    ledger.value("mpi.wait_frac_ocean", wait_frac(ocean_ranks));
    ledger.value("ocean.busy_frac", 1.0 - wait_frac(ocean_ranks));
    let (mut msgs, mut bytes, mut reduces) = (0u64, 0u64, 0u64);
    for t in &out.traces {
        for (tag, s) in &t.stats.by_tag {
            msgs += s.msgs_sent;
            bytes += s.bytes_sent;
            if tag_label(*tag) == "internal:reduce" {
                reduces += s.msgs_sent;
            }
        }
    }
    ledger.value("mpi.msgs_per_sim_day", msgs as f64 / sim_days);
    ledger.value("mpi.bytes_per_sim_day", bytes as f64 / sim_days);
    // Every non-root rank sends one reduce message per allreduce; one
    // rank alone sends none.
    if n_atm > 1 && steps > 0.0 {
        ledger.value(
            "mpi.allreduce_per_step",
            reduces as f64 / (n_atm - 1) as f64 / steps,
        );
    }
    ledger.seconds("core.interval_p50_ms", &unit.interval_s);
    ledger.noted(
        "core.interval_p95_ms",
        percentile(&unit.interval_s, 95) * 1e3,
        unit.interval_s.len(),
        "nearest-rank p95 of this run's intervals",
    );
    ledger.value("core.drain_frac", unit.drain_s() / out.wall_seconds);
    if let Some((days, delta)) = &unit.steady {
        if *days > 0.0 {
            let rate = delta.per(*days);
            ledger.value("core.allocs_per_sim_day", rate.allocations);
            ledger.value("core.alloc_bytes_per_sim_day", rate.total_bytes);
        }
    }
}

/// Spans of one traced coupled unit: the call, its set-up, and one span
/// per coupling interval, each interval its own group.
fn span_coupled(trace: &Trace, name: &str, unit: &CoupledUnit, group: u64) {
    let end = unit.t0 + Duration::from_secs_f64(unit.call_s);
    let run = trace.record(name, None, group, unit.t0, end);
    let mut prev = unit.t0 + Duration::from_secs_f64(unit.setup_s());
    trace.record("core.setup", run, group, unit.t0, prev);
    for (k, e) in unit.interval_ends.iter().enumerate() {
        trace.record("core.interval", run, group + 1 + k as u64, prev, *e);
        prev = *e;
    }
    trace.record("core.drain", run, group, prev, end);
}

fn comm_json(traces: &[RankTrace]) -> Value {
    Value::Array(
        traces
            .iter()
            .map(|t| {
                Value::object([
                    ("rank".to_string(), Value::from(t.rank)),
                    (
                        "tags".to_string(),
                        Value::object(t.stats.by_tag.iter().map(|(tag, s)| {
                            (
                                tag_label(*tag),
                                Value::object([
                                    ("msgs_sent".to_string(), Value::from(s.msgs_sent)),
                                    ("msgs_recvd".to_string(), Value::from(s.msgs_recvd)),
                                    ("bytes_sent".to_string(), Value::from(s.bytes_sent)),
                                    ("wait_s".to_string(), Value::from(s.wait_seconds)),
                                ]),
                            )
                        })),
                    ),
                ])
            })
            .collect(),
    )
}

/// The workload-independent part of the per-layer ledger: every probe
/// and both component loops (paper grid, century grid), whose times are
/// returned. A probe that errors is a failed operation.
fn run_probes(
    ledger: &mut Ledger,
    trace: &Trace,
    opts: &Opts,
    sizes: &Sizes,
    outcome: &mut Outcome,
) -> [(&'static str, LoopTimes); 2] {
    outcome.attempted += 1;
    let effort = sizes.effort;
    let probes = trace.open("probes", None, 0);
    // Record one span per probe loop, named after its metric.
    macro_rules! probe {
        ($name:expr, $call:expr) => {{
            let t = Instant::now();
            let v = $call;
            trace.record($name, probes, 0, t, Instant::now());
            v
        }};
    }

    let (r15, r3) = (layers::transform_r15(), layers::transform_r3());
    let seed = opts.seed;
    type Probe<'a> = (&'static str, &'a dyn Fn() -> Vec<f64>);
    let timed: [Probe; 15] = [
        ("spectral.analysis_r15_us", &|| {
            layers::spectral_analysis(&r15, effort)
        }),
        ("spectral.synthesis_r15_us", &|| {
            layers::spectral_synthesis(&r15, effort)
        }),
        ("spectral.analysis_r3_us", &|| {
            layers::spectral_analysis(&r3, effort)
        }),
        ("spectral.fft48_ns", &|| layers::fft48(effort)),
        ("spectral.par_analysis_2rank_us", &|| {
            layers::par_analysis_2rank(effort)
        }),
        ("mpi.allreduce_2rank_us", &|| {
            layers::allreduce_2rank(effort)
        }),
        ("mpi.pingpong_us", &|| layers::pingpong(effort)),
        ("physics.column_step_us", &|| layers::column_step(effort)),
        ("physics.full_radiation_us", &|| {
            layers::full_radiation(effort)
        }),
        ("ocean.barotropic_sub_us", &|| {
            layers::barotropic_subcycle(effort)
        }),
        ("ocean.polar_apply_us", &|| layers::polar_apply(effort)),
        ("stats.push_month_us", &|| layers::push_month(seed, effort)),
        ("scenario.parse_lower_us", &|| {
            layers::scenario_parse_lower(effort)
        }),
        ("server.spec_parse_us", &|| layers::spec_parse(effort)),
        ("ensemble.queue_submit_pop_us", &|| {
            layers::queue_submit_pop(effort)
        }),
    ];
    for (name, call) in timed {
        ledger.seconds(name, &probe!(name, call()));
    }
    let cost = layers::analysis_cost(&r15);
    ledger.value("spectral.analysis_flops", cost.flops);
    ledger.value("spectral.analysis_bytes", cost.bytes);
    ledger.value("spectral.flops_per_byte", cost.flops / cost.bytes);
    let grid = probe!("grid.overlap", layers::overlap_grid(effort));
    ledger.seconds("grid.overlap_build_ms", &grid.build);
    ledger.seconds("grid.atm_to_ocean_us", &grid.atm_to_ocean);
    ledger.seconds("grid.ocean_to_atm_us", &grid.ocean_to_atm);
    match probe!(
        "server.cache",
        layers::result_cache(
            &opts.tmp.join("cache-probe"),
            crate::server_mix::CACHE_BUDGET_BYTES,
            crate::server_mix::REPORT_BYTES,
            effort,
        )
    ) {
        Ok(c) => {
            ledger.seconds("server.cache_get_us", &c.get);
            ledger.seconds("server.cache_put_us", &c.put);
            ledger.noted(
                "server.cache_evictions",
                c.evictions as f64,
                c.put.len(),
                "entries evicted while the put probe ran",
            );
        }
        Err(e) => outcome.fail(1, format!("cache probe: {e}")),
    }
    match probe!(
        "ensemble.member_s",
        layers::ensemble_members(opts.seed, sizes.ensemble_members, sizes.ensemble_days)
    ) {
        Ok(members) => ledger.seconds("ensemble.member_s", &members),
        Err(e) => outcome.fail(1, format!("ensemble probe: {e}")),
    }

    // Ocean calls with the ocean's own phase scopes harvested.
    let calls = probe!(
        "ocean.calls",
        layers::ocean_calls(
            &OceanConfig::default(),
            opts.seed,
            sizes.ocean_probe_calls,
            true,
            trace,
            probes,
            1,
        )
    );
    let n = calls.call_s.len();
    ledger.seconds("ocean.step_coupled_ms", &calls.call_s);
    ledger.value(
        "ocean.work_units_per_day",
        calls.work_units as f64 / n as f64 * 4.0,
    );
    if let Some(reg) = &calls.registry {
        let per_call = layers::phase_seconds_per(reg, n);
        for (phase, name) in [
            ("baroclinic", "ocean.baroclinic_ms"),
            ("barotropic", "ocean.barotropic_ms"),
            ("tracers", "ocean.tracers_ms"),
            ("polar_filter", "ocean.polar_filter_ms"),
        ] {
            ledger.seconds(name, &[per_call.get(phase).copied().unwrap_or(0.0)]);
        }
        let subcycles = reg.counters().get("ocean.barotropic_subcycles").copied();
        ledger.value(
            "ocean.subcycles_per_day",
            subcycles.unwrap_or(0) as f64 / n as f64 * 4.0,
        );
    }

    // One checkpoint of the paper configuration, written and read back.
    match probe!(
        "ckpt",
        layers::checkpoint(
            &FoamConfig::paper(1, opts.seed),
            &opts.tmp.join("ckpt-probe"),
            if opts.smoke { 1 } else { 3 },
        )
    ) {
        Ok(c) => {
            let mb = c.snapshot_bytes as f64 / 1.0e6;
            ledger.value("ckpt.snapshot_mb", mb);
            ledger.seconds("ckpt.write_ms", &[c.write_s]);
            ledger.seconds("ckpt.load_ms", &c.load_s);
            ledger.value("ckpt.write_mb_per_s", mb / c.write_s.max(1e-9));
            ledger.value("ckpt.read_mb_per_s", mb / median(&c.load_s).max(1e-9));
        }
        Err(e) => outcome.fail(1, format!("checkpoint probe: {e}")),
    }
    trace.close(probes);

    // The component loops, at the paper grid and at the century grid.
    let paper = layers::component_loop(
        &FoamConfig::paper(1, opts.seed),
        sizes.loop_intervals_r15,
        trace,
        1_000,
    );
    ledger.seconds("atm.step_r15_ms", &paper.atm_step);
    // Refresh steps are few and all alike: report their mean.
    ledger.noted(
        "atm.rad_step_r15_ms",
        mean(&paper.atm_rad_step) * 1e3,
        paper.atm_rad_step.len(),
        "mean of the radiation-refresh steps",
    );
    ledger.seconds("coupler.step_rows_r15_us", &paper.step_rows);
    ledger.seconds("coupler.route_rivers_r15_us", &paper.route_rivers);
    let century = layers::component_loop(
        &FoamConfig::century(layers::century_seed(opts.seed, 1)),
        sizes.loop_intervals_r3,
        trace,
        2_000,
    );
    ledger.seconds("atm.step_r3_us", &century.atm_step);
    ledger.seconds("coupler.step_rows_r3_us", &century.step_rows);
    [("paper", paper), ("century", century)]
}

/// Cost of looking: the median, over the parts of a unit, of the traced
/// part's time over the untraced part's, minus one. Part for part the
/// two units do the same work, so the ratio is of like with like.
fn paired_overhead(plain: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = plain
        .iter()
        .zip(traced)
        .filter(|(p, _)| **p > 0.0)
        .map(|(p, t)| t / p)
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    }
}

/// How much of a component loop's span its call spans cover.
fn loop_coverage(spans: &[trace::Span], root: usize) -> f64 {
    let selfs = trace::self_times(spans);
    let uncovered: f64 = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .filter(|(i, (s, _))| *i == root || (s.name == "interval" && s.parent == Some(root)))
        .map(|(_, (_, own))| own)
        .sum();
    1.0 - uncovered / spans[root].duration().max(1e-12)
}

/// What every traced run ends with: the probes and component loops, the
/// ledger filled out to every per-layer row, and the trace document —
/// `spans`, per component loop its wall time, self time per call name and
/// how much of it its call spans cover (under 95 % is a failure), the
/// program's own `telemetry` report and per-rank `comm` statistics.
pub fn finish(
    opts: &Opts,
    ledger: &mut Ledger,
    trace: &Trace,
    outcome: &mut Outcome,
    telemetry: Value,
    comm: Value,
) -> Value {
    let loops = run_probes(ledger, trace, opts, &Sizes::of(opts.smoke), outcome);
    ledger.fill_missing(&PER_LAYER);
    let spans = trace.spans();
    let mut loops_doc = BTreeMap::new();
    for (name, times) in &loops {
        let Some(root) = times.root else { continue };
        let coverage = loop_coverage(&spans, root);
        if coverage < 0.95 {
            outcome.fail(
                1,
                format!("{name} component loop: calls cover {coverage:.3} of its span"),
            );
        }
        loops_doc.insert(
            name.to_string(),
            Value::object([
                ("root_span".to_string(), Value::from(root)),
                ("wall_s".to_string(), Value::from(times.wall_s)),
                ("children_over_parent".to_string(), Value::from(coverage)),
                (
                    "self_s".to_string(),
                    Value::object(
                        trace::self_time_by_name(&spans, root)
                            .into_iter()
                            .map(|(n, s)| (n, Value::from(s))),
                    ),
                ),
            ]),
        );
    }
    Value::object([
        ("schema".to_string(), Value::from("foam-perf-trace/1")),
        ("workload".to_string(), Value::from(opts.workload.as_str())),
        ("seed".to_string(), Value::from(opts.seed)),
        ("component_loops".to_string(), Value::Object(loops_doc)),
        ("telemetry".to_string(), telemetry),
        ("comm".to_string(), comm),
        ("spans".to_string(), trace::to_json(&spans)),
    ])
}

/// The traced run of a model workload: one untraced unit (the base of
/// `core.trace_overhead_frac`), one traced unit whose outputs are read,
/// then every probe and both component loops.
pub fn run_traced(opts: &Opts, reference: &Reference, ledger: &mut Ledger) -> Traced {
    let sizes = Sizes::of(opts.smoke);
    let trace = Trace::new(true);
    let mut telemetry = Value::Null;
    let mut comm = Value::Null;
    let workload = opts.workload.as_str();
    let days = unit_days(workload, &sizes);
    let mut m = Measured::of_unit(Reference::key(workload, days));

    if workload == "ocean_r15" {
        let cfg = OceanConfig::default();
        let n_calls = ocean_calls_per_unit(days);
        let idle = Trace::new(false);
        let plain = layers::ocean_calls(&cfg, opts.seed, n_calls, false, &idle, None, 0);
        m.absorb_ocean(&plain, reference);
        let run = trace.open("ocean_r15", None, 100);
        let traced = layers::ocean_calls(&cfg, opts.seed, n_calls, true, &trace, run, 101);
        trace.close(run);
        let err = m.absorb_ocean(&traced, reference);
        ledger.value("core.sst_abs_err_c", err);
        ledger.value(
            "core.trace_overhead_frac",
            paired_overhead(&plain.call_s, &traced.call_s),
        );
        // The ocean is the only worker here: never waiting, no messages.
        ledger.value("ocean.busy_frac", 1.0);
        if let Some(reg) = &traced.registry {
            telemetry = Value::object(
                layers::phase_seconds_per(reg, 1)
                    .into_iter()
                    .map(|(path, seconds)| (path, Value::from(seconds))),
            );
        }
    } else {
        let cfg = coupled_config(workload, opts.seed, 2);
        let mut traced_cfg = cfg.clone();
        traced_cfg.telemetry = TelemetryConfig {
            enabled: true,
            path: None,
        };
        let one_rank = (workload == "r15_atm2")
            .then(|| coupled_unit(&coupled_config(workload, opts.seed, 1), days));
        let plain = coupled_unit(&cfg, days);
        let traced = coupled_unit(&traced_cfg, days);
        match (plain, traced) {
            (Ok(plain), Ok(traced)) => {
                m.absorb_coupled(&plain, reference);
                let err = m.absorb_coupled(&traced, reference);
                ledger.value("core.sst_abs_err_c", err);
                ledger.value(
                    "core.trace_overhead_frac",
                    paired_overhead(&plain.interval_s, &traced.interval_s),
                );
                read_coupled(ledger, &traced_cfg, &traced);
                span_coupled(&trace, workload, &traced, 100);
                if let Some(report) = &traced.out.telemetry {
                    telemetry = report.to_json();
                }
                comm = comm_json(&traced.out.traces);
                match one_rank {
                    Some(Ok(leg_a)) => {
                        // Same state on one rank and two up to the
                        // reassociated forcing sum: compare loosely.
                        let (a, b) = (
                            leg_a.out.final_mean_sst().unwrap_or(f64::NAN),
                            plain.out.final_mean_sst().unwrap_or(f64::NAN),
                        );
                        m.outcome.attempted += leg_a.out.mean_sst_series.len() as u64;
                        if (a - b).abs().partial_cmp(&1e-6) != Some(std::cmp::Ordering::Less) {
                            m.fail(1, format!("one rank ends at {a}, two at {b}"));
                        }
                        let speedup = |u: &CoupledUnit| u.out.sim_seconds / u.out.wall_seconds;
                        ledger.value(
                            "atm.rank_scaling_eff",
                            speedup(&plain) / (2.0 * speedup(&leg_a)),
                        );
                    }
                    Some(Err(e)) => m.fail(1, format!("one-rank leg: {e}")),
                    None => {}
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                m.outcome.attempted += 1;
                m.fail(1, e);
            }
        }
    }

    let document = finish(opts, ledger, &trace, &mut m.outcome, telemetry, comm);
    Traced {
        pin: m.pin(),
        outcome: m.outcome,
        document,
    }
}
