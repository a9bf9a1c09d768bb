//! Integration tests of the telemetry layer against the full coupled
//! model: the report's structure, its non-interference guarantee
//! (enabling telemetry changes no simulated field bit-for-bit), and the
//! configuration plumbing around it.

use std::path::PathBuf;

use foam::{
    run_coupled, try_run_coupled, CkptConfig, ConfigError, CoupledError, FoamConfig,
    TelemetryConfig,
};
use foam_mpi::tag_label;
use foam_telemetry::{json, SCHEMA};

/// A fresh scratch directory under the system temp dir (the build has
/// no `tempfile` crate); any debris from a previous run is removed.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foam-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn coupled_run_produces_a_structurally_sound_report() {
    let mut cfg = FoamConfig::tiny(11);
    cfg.telemetry.enabled = true;
    let out = run_coupled(&cfg, 0.5);
    let report = out.telemetry.expect("telemetry was enabled");

    assert!(report.model_speedup > 0.0);
    assert_eq!(report.ranks.len(), cfg.n_ranks());
    // Every instrumented subsystem shows up under its Figure-2 category.
    for phase in [
        "atmosphere",
        "atmosphere/dynamics",
        "atmosphere/dynamics/spectral",
        "atmosphere/physics",
        "coupler",
        "coupler/fluxes",
        "coupler/rivers",
        "ocean",
        "ocean/baroclinic",
        "ocean/barotropic",
        "ocean/polar_filter",
    ] {
        let agg = report
            .phase(phase)
            .unwrap_or_else(|| panic!("missing phase {phase}"));
        assert!(agg.seconds_sane(), "phase {phase} has insane timing");
        assert!(agg.calls > 0, "phase {phase} never called");
    }
    // Timers are inclusive, so children can never out-sum their parent.
    assert!(report.tree_consistent(1e-6));
    // The counters the instrumentation maintains alongside the timers.
    assert!(report.counters["ocean.barotropic_subcycles"] > 0);
    let hits = report
        .counters
        .get("atm.radiation.cache_hits")
        .copied()
        .unwrap_or(0);
    let misses = report.counters["atm.radiation.cache_misses"];
    assert!(misses > 0, "radiation must refresh at least once");
    assert!(hits > 0, "radiation cache never hit over half a day");
    // Comm statistics are folded in per protocol tag.
    assert!(report.counters["comm.forcing.msgs_sent"] > 0);
    assert!(report.counters["comm.sst.bytes_sent"] > 0);
    // The atmosphere ranks did atmosphere work, the ocean rank ocean work.
    for r in &report.ranks[..cfg.n_atm_ranks] {
        assert!(r.phases.contains_key("atmosphere"), "rank {}", r.rank);
        assert!(r.busy_seconds > 0.0);
        assert!(r.busy_seconds <= r.wall_seconds + 1e-6);
    }
    let ocean = &report.ranks[cfg.n_atm_ranks];
    assert!(ocean.phases.contains_key("ocean"));
    let imb = report.load_imbalance().expect("all ranks were busy");
    assert!(imb.min <= imb.mean && imb.mean <= imb.max);
    assert!(imb.ratio() >= 1.0);
}

/// `PhaseAgg` sanity used above: non-negative, finite, min ≤ mean ≤ max.
trait SecondsSane {
    fn seconds_sane(&self) -> bool;
}

impl SecondsSane for foam_telemetry::PhaseAgg {
    fn seconds_sane(&self) -> bool {
        self.sum.is_finite()
            && self.sum >= 0.0
            && self.min <= self.mean + 1e-12
            && self.mean <= self.max + 1e-12
    }
}

/// Field transforms (calls of the `spectral` phase) and global combines
/// per atmosphere step of a two-rank run with `nlev_phys` physics
/// levels.
fn spectral_work_per_step(nlev_phys: usize) -> (f64, f64) {
    let mut cfg = FoamConfig::tiny(17);
    cfg.atm.nlev_phys = nlev_phys;
    cfg.telemetry.enabled = true;
    assert_eq!(cfg.n_atm_ranks, 2);
    let out = run_coupled(&cfg, 0.5);
    let report = out.telemetry.expect("telemetry was enabled");
    let calls = |path: &str| report.phase(path).expect("phase recorded").calls as f64;
    let transforms = calls("atmosphere/dynamics/spectral") / calls("atmosphere");
    // The combine is compute + wait inside `spectral`, the wait alone
    // in its child.
    assert!(calls("atmosphere/dynamics/spectral/reduce") > 0.0);
    // Every non-root rank sends one reduce message per allreduce.
    let reduces: u64 = out
        .traces
        .iter()
        .flat_map(|t| &t.stats.by_tag)
        .filter(|(tag, _)| tag_label(**tag) == "internal:reduce")
        .map(|(_, s)| s.msgs_sent)
        .sum();
    let steps = out.mean_sst_series.len() * cfg.atm_steps_per_couple();
    (transforms, reduces as f64 / steps as f64)
}

#[test]
fn redundant_transforms_and_combines_do_not_creep_back() {
    // Per step: 6 ψ-gradient syntheses, 5 transforms per tracer slab
    // (analysis, two gradient syntheses, Jacobian analysis, synthesis),
    // 2 shear analyses, and per PV Jacobian two syntheses and one
    // analysis plus the orographic analysis — 18 + 10·levels. Four
    // batches, so four allreduces (plus the driver's per-interval ones).
    for (nlev_phys, budget) in [(18, 198.0), (4, 58.0)] {
        let (transforms, allreduces) = spectral_work_per_step(nlev_phys);
        assert!(
            transforms <= budget,
            "{transforms} field transforms per step at {nlev_phys} levels (budget {budget})"
        );
        assert!(
            allreduces <= 6.0,
            "{allreduces} allreduces per step at {nlev_phys} levels"
        );
    }
}

#[test]
fn telemetry_is_bit_for_bit_invisible_to_the_model() {
    let run = |telemetry: bool| {
        let mut cfg = FoamConfig::tiny(23);
        cfg.telemetry.enabled = telemetry;
        run_coupled(&cfg, 0.5)
    };
    let plain = run(false);
    let instrumented = run(true);
    assert!(plain.telemetry.is_none());
    assert!(instrumented.telemetry.is_some());
    // The simulated trajectory must be identical to the last bit.
    assert_eq!(
        plain.final_sst.as_slice(),
        instrumented.final_sst.as_slice(),
        "telemetry changed the simulated SST field"
    );
    assert_eq!(plain.mean_sst_series, instrumented.mean_sst_series);
}

#[test]
fn report_file_is_written_and_parses_against_the_schema() {
    let dir = scratch("report");
    let path = dir.join("telemetry.json");
    let mut cfg = FoamConfig::tiny(31);
    cfg.telemetry = TelemetryConfig::to_file(&path);
    // Checkpointing on, so the checkpoint phase is exercised too.
    cfg.ckpt = CkptConfig::every(dir.join("ckpt"), 1);
    let out = run_coupled(&cfg, 0.25);
    assert!(out.telemetry.is_some());

    let text = std::fs::read_to_string(&path).expect("report file must exist");
    let doc = json::parse(&text).expect("report must be valid JSON");
    assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
    let speedup = doc
        .get("model_speedup")
        .and_then(|v| v.as_f64())
        .expect("model_speedup present");
    assert!(speedup > 0.0);
    let phases = doc.get("phases").expect("phases present");
    assert!(phases.get("atmosphere").is_some());
    assert!(phases.get("checkpoint").is_some(), "checkpointing was on");
    assert!(doc
        .get("load_imbalance")
        .unwrap()
        .get("max_over_mean")
        .is_some());
    assert_eq!(
        doc.get("n_ranks").and_then(|v| v.as_f64()),
        Some(cfg.n_ranks() as f64)
    );
    // Checkpoint byte accounting rode along in the counters.
    let counters = doc.get("counters").unwrap();
    assert!(
        counters
            .get("ckpt.bytes_written")
            .and_then(|v| v.as_f64())
            .unwrap()
            > 0.0
    );
    assert!(
        counters
            .get("ckpt.shards_written")
            .and_then(|v| v.as_f64())
            .unwrap()
            > 0.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_report_path_is_a_typed_config_error() {
    let mut cfg = FoamConfig::tiny(41);
    cfg.telemetry = TelemetryConfig::to_file("/nonexistent-dir-foam-telemetry/report.json");
    let err = try_run_coupled(&cfg, 0.25).unwrap_err();
    assert!(
        matches!(
            err,
            CoupledError::Config(ConfigError::UnwritablePath {
                what: "telemetry.path",
                ..
            })
        ),
        "expected a typed unwritable-path error, got {err}"
    );
}

#[test]
fn disabled_telemetry_reports_nothing() {
    let cfg = FoamConfig::tiny(51);
    let out = run_coupled(&cfg, 0.25);
    assert!(out.telemetry.is_none());
}
