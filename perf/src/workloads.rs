//! The four model workloads, their output checks, and the traced run
//! that fills the per-layer ledger.
//!
//! A run repeats one fixed *unit* of work (a coupled integration of a
//! fixed simulated length) until `--seconds` is used up, and reports
//! medians over the units. Every unit starts from the same seeded
//! initial state, so every unit does the same work and must end on the
//! same bits.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use foam::{
    try_run_coupled_observed, CoupledOutput, FoamConfig, OceanConfig, ProgressEvent, RunObserver,
};
use foam_telemetry::alloc::{AllocDelta, CountingAlloc, SteadyMeter};
use foam_telemetry::json::Value;

use crate::layers::{self, Effort};
use crate::metrics::{Ledger, Outcome};
use crate::stats::composite_median;
use crate::trace::Trace;

pub const DEFAULT_SEED: u64 = 1914;
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub smoke: bool,
    /// Scratch directory of this process (checkpoints, server roots).
    pub tmp: PathBuf,
}

/// Simulated length of one unit per workload, and the sizes of the
/// traced run's extras. `smoke` is about a twentieth of `full`.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub r15_days: f64,
    pub atm2_days: f64,
    pub ocean_days: f64,
    pub century_days: f64,
    /// Extra set-up-only samples where set-up is cheap.
    pub setup_reps: usize,
    /// Coupling intervals of the paper-grid and century-grid component
    /// loops.
    pub loop_intervals_r15: usize,
    pub loop_intervals_r3: usize,
    pub ocean_probe_calls: usize,
    pub ensemble_members: usize,
    pub ensemble_days: f64,
    pub effort: Effort,
}

impl Sizes {
    pub fn of(smoke: bool) -> Self {
        if smoke {
            Sizes {
                r15_days: 0.25,
                atm2_days: 0.25,
                ocean_days: 0.25,
                century_days: 6.0,
                setup_reps: 1,
                loop_intervals_r15: 1,
                loop_intervals_r3: 1,
                ocean_probe_calls: 1,
                ensemble_members: 2,
                ensemble_days: 0.5,
                effort: Effort::smoke(),
            }
        } else {
            Sizes {
                r15_days: 1.0,
                atm2_days: 1.0,
                ocean_days: 3.0,
                century_days: 120.0,
                setup_reps: 40,
                loop_intervals_r15: 2,
                loop_intervals_r3: 8,
                ocean_probe_calls: 3,
                ensemble_members: 4,
                ensemble_days: 5.0,
                effort: Effort::full(),
            }
        }
    }
}

/// The pinned outputs: final mean SST per workload and unit length at
/// the default seed.
pub struct Reference {
    /// Whether this run's seed is the pinned one.
    applies: bool,
    tolerance_c: f64,
    final_mean_sst_c: BTreeMap<String, f64>,
}

impl Reference {
    pub fn load(path: Option<&Path>, seed: u64) -> Result<Reference, String> {
        let text = match path {
            Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
            None => include_str!("../reference.json").to_string(),
        };
        let v = foam_telemetry::json::parse(&text).map_err(|e| format!("reference: {e}"))?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("reference: no {k}"))
        };
        let pins = v
            .get("final_mean_sst_c")
            .and_then(Value::as_object)
            .ok_or("reference: no final_mean_sst_c")?;
        Ok(Reference {
            applies: num("seed")? as u64 == seed,
            tolerance_c: num("tolerance_c")?,
            final_mean_sst_c: pins
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        })
    }

    pub fn key(workload: &str, days: f64) -> String {
        format!("{workload}@{days}d")
    }

    /// `Some(|sst - pinned|)` at the pinned seed, `None` at any other.
    /// A pinned seed without a pin for this unit is a missed reference.
    fn abs_err(&self, key: &str, sst: f64) -> Option<f64> {
        self.applies.then(|| {
            self.final_mean_sst_c
                .get(key)
                .map_or(f64::INFINITY, |r| (sst - r).abs())
        })
    }
}

/// What the units of one run measured, before it becomes a ledger.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Per unit, the seconds of each of its parts in order: every
    /// coupling interval, then what the integration span has left after
    /// the last one. Part `k` is the same work in every unit.
    pub units: Vec<Vec<f64>>,
    /// Simulated seconds one unit integrates.
    pub unit_sim_seconds: f64,
    /// Durations of the workload's operations (coupling intervals).
    pub op_s: Vec<f64>,
    pub outcome: Outcome,
    /// Final mean SST of each unit: equal bits or the run fails.
    pub final_sst: Vec<f64>,
    /// Reference key of the unit this run repeats.
    pub key: String,
}

impl Measured {
    pub fn of_unit(key: String) -> Self {
        Measured {
            key,
            ..Measured::default()
        }
    }

    pub fn fail(&mut self, n: u64, why: String) {
        let why = format!("{}: {why}", self.key);
        self.outcome.fail(n, why);
    }

    /// Range, reference and repeatability checks on one unit's SST.
    fn check_sst(&mut self, reference: &Reference, series: &[f64]) -> f64 {
        let bad = series
            .iter()
            .filter(|s| !(s.is_finite() && **s > -2.0 && **s < 35.0))
            .count();
        if bad > 0 {
            self.fail(bad as u64, format!("{bad} mean SSTs outside (-2, 35) C"));
        }
        let last = series.last().copied().unwrap_or(f64::NAN);
        if let Some(first) = self.final_sst.first() {
            if first.to_bits() != last.to_bits() {
                self.fail(1, format!("repeats disagree, {first} vs {last}"));
            }
        }
        self.final_sst.push(last);
        let err = reference.abs_err(&self.key, last);
        if err.is_some_and(|e| e.is_nan() || e > reference.tolerance_c) {
            self.fail(1, format!("final mean SST {last} misses the reference"));
        }
        // A missing pin reads as an error no ocean could have.
        err.unwrap_or(0.0).min(999.0)
    }

    /// `(reference key, final mean SST)`: what `reference.json` pins.
    pub fn pin(&self) -> Option<(String, f64)> {
        self.final_sst.first().map(|sst| (self.key.clone(), *sst))
    }

    pub fn into_ledger(self, ledger: &mut Ledger) {
        ledger.seconds("setup_s", &self.setup_s);
        ledger.noted(
            "model_speedup",
            self.unit_sim_seconds / composite_median(&self.units).max(1e-12),
            self.units.len(),
            "simulated seconds of a unit over the position-wise median of its parts",
        );
        ledger.seconds("op_p50_ms", &self.op_s);
        ledger.value(
            "peak_heap_mb",
            CountingAlloc::stats().peak_bytes as f64 / 1.0e6,
        );
    }
}

/// Run `unit` until another one would overrun `budget` (at least once;
/// exactly once in `smoke`). `unit` returns false to stop early.
pub fn repeat(budget: Duration, smoke: bool, mut unit: impl FnMut() -> bool) {
    let t0 = Instant::now();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let go_on = unit();
        longest = longest.max(t.elapsed());
        if !go_on || smoke || t0.elapsed() + longest.mul_f64(1.1) > budget {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// coupled units
// ---------------------------------------------------------------------

/// Observer of one coupled unit: interval end times, and a steady-state
/// allocation meter opened halfway through.
struct Watch {
    t0: Instant,
    ends: Mutex<Vec<Instant>>,
    meter: Mutex<Option<(usize, SteadyMeter)>>,
}

impl RunObserver for Watch {
    fn on_interval(&self, ev: &ProgressEvent) {
        self.ends
            .lock()
            .expect("the root rank panicked")
            .push(Instant::now());
        if ev.interval >= (ev.n_intervals / 2).max(1) {
            let mut m = self.meter.lock().expect("the root rank panicked");
            if m.is_none() {
                *m = Some((ev.interval, SteadyMeter::begin()));
            }
        }
    }
}

pub struct CoupledUnit {
    pub t0: Instant,
    /// Wall seconds of the whole call.
    pub call_s: f64,
    pub out: CoupledOutput,
    pub interval_ends: Vec<Instant>,
    /// Seconds of each coupling interval, the first counted from the end
    /// of set-up.
    pub interval_s: Vec<f64>,
    /// Simulated days and allocations of the second half of the run.
    pub steady: Option<(f64, AllocDelta)>,
}

pub fn coupled_unit(cfg: &FoamConfig, days: f64) -> Result<CoupledUnit, String> {
    let watch = Watch {
        t0: Instant::now(),
        ends: Mutex::new(Vec::new()),
        meter: Mutex::new(None),
    };
    let out = try_run_coupled_observed(cfg, days, &watch).map_err(|e| e.to_string())?;
    let call_s = watch.t0.elapsed().as_secs_f64();
    let steady = watch
        .meter
        .lock()
        .expect("the root rank panicked")
        .map(|(opened_at, meter)| {
            let intervals = out.mean_sst_series.len().saturating_sub(opened_at);
            (
                intervals as f64 * cfg.dt_couple / SECONDS_PER_DAY,
                meter.so_far(),
            )
        });
    let interval_ends = watch.ends.into_inner().expect("the root rank panicked");
    let mut prev = (call_s - out.wall_seconds).max(0.0);
    let interval_s = interval_ends
        .iter()
        .map(|e| {
            let at = e.duration_since(watch.t0).as_secs_f64();
            let d = at - prev;
            prev = at;
            d
        })
        .collect();
    Ok(CoupledUnit {
        t0: watch.t0,
        call_s,
        out,
        interval_ends,
        interval_s,
        steady,
    })
}

impl CoupledUnit {
    pub fn setup_s(&self) -> f64 {
        (self.call_s - self.out.wall_seconds).max(0.0)
    }

    /// What the integration span has left after the last observed
    /// interval: the un-overlapped ocean tail and the shutdown handshake.
    pub fn drain_s(&self) -> f64 {
        (self.out.wall_seconds - self.interval_s.iter().sum::<f64>()).max(0.0)
    }
}

impl Measured {
    /// Fold one coupled unit in, checking its outputs. Returns the
    /// unit's reference error (0 away from the pinned seed).
    pub fn absorb_coupled(&mut self, unit: &CoupledUnit, reference: &Reference) -> f64 {
        let out = &unit.out;
        self.outcome.attempted += out.mean_sst_series.len() as u64;
        self.setup_s.push(unit.setup_s());
        let mut parts = unit.interval_s.clone();
        parts.push(unit.drain_s());
        self.units.push(parts);
        self.unit_sim_seconds = out.sim_seconds;
        self.op_s.extend_from_slice(&unit.interval_s);
        if !out.final_sst.all_finite() {
            self.fail(1, "non-finite final SST field".to_string());
        }
        if !out.comm_lint.is_clean() {
            self.fail(1, format!("comm lint: {}", out.comm_lint));
        }
        // The observed intervals must fit inside the integration span.
        let observed: f64 = unit.interval_s.iter().sum();
        if observed > out.wall_seconds * 1.02 {
            self.fail(
                1,
                format!(
                    "intervals sum to {observed:.4} s, over the {:.4} s span",
                    out.wall_seconds
                ),
            );
        }
        self.check_sst(reference, &out.mean_sst_series)
    }

    /// Fold one batch of ocean calls in, as [`Measured::absorb_coupled`].
    pub fn absorb_ocean(&mut self, calls: &layers::OceanCalls, reference: &Reference) -> f64 {
        self.outcome.attempted += calls.call_s.len() as u64;
        self.setup_s.push(calls.setup_s);
        self.units.push(calls.call_s.clone());
        self.unit_sim_seconds = calls.call_s.len() as f64 * 21_600.0;
        self.op_s.extend_from_slice(&calls.call_s);
        if !calls.finite {
            self.fail(1, "non-finite ocean state".to_string());
        }
        self.check_sst(reference, &[calls.final_mean_sst])
    }
}

pub fn coupled_config(workload: &str, seed: u64, n_atm: usize) -> FoamConfig {
    match workload {
        "r15_coupled" => FoamConfig::paper(1, seed),
        "r15_atm2" => {
            // Same atmosphere, ocean shrunk until its rank only waits.
            let mut cfg = FoamConfig::paper(n_atm, seed);
            cfg.ocean = OceanConfig::tiny();
            cfg
        }
        _ => FoamConfig::century(layers::century_seed(seed, 1)),
    }
}

pub fn unit_days(workload: &str, sizes: &Sizes) -> f64 {
    match workload {
        "r15_coupled" => sizes.r15_days,
        "r15_atm2" => sizes.atm2_days,
        "ocean_r15" => sizes.ocean_days,
        _ => sizes.century_days,
    }
}

/// Number of 6-hour `step_coupled` calls in an `ocean_r15` unit.
pub fn ocean_calls_per_unit(days: f64) -> usize {
    (days * 4.0).round().max(1.0) as usize
}

/// Untraced run of a model workload: units until the budget is spent.
/// `r15_atm2` runs its two-rank leg; the one-rank leg is only needed for
/// `atm.rank_scaling_eff`, which the traced run reports.
pub fn run_untraced(opts: &Opts, reference: &Reference) -> Measured {
    let sizes = Sizes::of(opts.smoke);
    let days = unit_days(&opts.workload, &sizes);
    let mut m = Measured::of_unit(Reference::key(&opts.workload, days));
    let t0 = Instant::now();
    if opts.workload == "ocean_r15" {
        let cfg = OceanConfig::default();
        let idle = Trace::new(false);
        for _ in 0..sizes.setup_reps {
            m.setup_s.push(layers::ocean_setup(&cfg, opts.seed));
        }
        let budget = opts.budget.saturating_sub(t0.elapsed());
        repeat(budget, opts.smoke, || {
            let n = ocean_calls_per_unit(days);
            let calls = layers::ocean_calls(&cfg, opts.seed, n, false, &idle, None, 0);
            m.absorb_ocean(&calls, reference);
            true
        });
        return m;
    }
    let cfg = coupled_config(&opts.workload, opts.seed, 2);
    // The century preset sets up in milliseconds: take more samples of
    // it than the few units give, each from a one-interval run.
    if opts.workload == "century_year" {
        for _ in 0..sizes.setup_reps {
            match coupled_unit(&cfg, cfg.dt_couple / SECONDS_PER_DAY) {
                Ok(u) => m.setup_s.push(u.setup_s()),
                Err(e) => m.fail(1, format!("set-up sample: {e}")),
            }
        }
    }
    let budget = opts.budget.saturating_sub(t0.elapsed());
    repeat(budget, opts.smoke, || match coupled_unit(&cfg, days) {
        Ok(unit) => {
            m.absorb_coupled(&unit, reference);
            true
        }
        Err(e) => {
            m.outcome.attempted += 1;
            m.fail(1, e);
            false
        }
    });
    m
}
