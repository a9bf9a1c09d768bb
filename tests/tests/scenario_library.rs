//! The bundled experiment library, end to end: every scenario file
//! under `scenarios/` must parse, validate, and lower; the CO₂ ramp
//! must measurably warm the final mean SST relative to the control;
//! the reports of two library scenarios are pinned by golden files;
//! and a forced run interrupted mid-ramp must resume bit-identically
//! (the forcing is part of the snapshot contract, so resuming under
//! *different* forcings is a typed refusal).
//!
//! Regenerate the goldens after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p foam-tests --test scenario_library
//! ```

use std::path::{Path, PathBuf};

use foam::{try_resume_coupled, try_run_coupled, CkptConfig, CkptError, CoupledError};
use foam_scenario::{report, Scenario};
use proptest::prelude::*;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}"))
}

fn load(name: &str) -> Scenario {
    let path = scenarios_dir().join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Scenario::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("foam-scenario-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn check_golden(name: &str, text: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with UPDATE_GOLDEN=1", name));
    assert_eq!(
        text, want,
        "report for {name} drifted from its golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn every_shipped_scenario_parses_validates_and_lowers() {
    let mut names = Vec::new();
    let mut digests = Vec::new();
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let sc = Scenario::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Lowering must produce a validated config, and a validated
        // ensemble when a sweep is declared.
        let cfg = sc
            .config()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if sc.sweep.is_some() {
            let spec = sc.ensemble().unwrap().expect("sweep lowers to an ensemble");
            assert!(!spec.members.is_empty());
        }
        digests.push(sc.content_digest().unwrap());
        // File stem and scenario name agree (the library is browsable).
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        assert_eq!(sc.name, stem, "{}", path.display());
        names.push(stem);
        drop(cfg);
    }
    assert!(
        names.len() >= 6,
        "the library ships at least six scenarios, found {names:?}"
    );
    // Every scenario is distinct content: all digests unique.
    let mut unique = digests.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), digests.len(), "duplicate content digests");
}

#[test]
fn co2_ramp_warms_final_sst_vs_control_and_reports_match_goldens() {
    // Same seed, same preset, same horizon: the only difference is the
    // scenario's forcing content.
    let mut control = load("control.toml");
    let mut ramp = load("co2-ramp-1pct.toml");
    control.days = 4.0;
    ramp.days = 4.0;
    let ctl_out = try_run_coupled(&control.config().unwrap(), control.days).unwrap();
    let ramp_out = try_run_coupled(&ramp.config().unwrap(), ramp.days).unwrap();
    let ctl = ctl_out.final_mean_sst().unwrap();
    let rmp = ramp_out.final_mean_sst().unwrap();
    assert!(
        rmp > ctl + 1e-5,
        "rising CO₂ must measurably warm the final mean SST \
         (ramp {rmp:.10} vs control {ctl:.10})"
    );
    check_golden(
        "scenario_control.txt",
        &report::run_report(&control, &ctl_out),
    );
    check_golden(
        "scenario_co2_ramp.txt",
        &report::run_report(&ramp, &ramp_out),
    );
}

/// Run `days` of the ramp scenario straight, and interrupted at a
/// mid-ramp snapshot, and demand bit-identical output.
fn assert_resume_bit_identical(sc: &Scenario, dir: &Path) {
    let mut cfg = sc.config().unwrap();
    let straight = try_run_coupled(&cfg, sc.days).unwrap();

    cfg.ckpt = CkptConfig {
        dir: Some(dir.to_path_buf()),
        interval: 2,
        keep: 3,
        fault_plan: None,
    };
    // First leg stops mid-ramp (half the horizon), on a snapshot.
    let _part = try_run_coupled(&cfg, sc.days / 2.0).unwrap();
    let resumed = try_resume_coupled(&cfg, sc.days).unwrap();

    assert_eq!(
        resumed.mean_sst_series.len(),
        straight.mean_sst_series.len()
    );
    for (k, (a, b)) in resumed
        .mean_sst_series
        .iter()
        .zip(&straight.mean_sst_series)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "interval {k}: {a} vs {b}");
    }
    for (k, (a, b)) in resumed
        .final_sst
        .as_slice()
        .iter()
        .zip(straight.final_sst.as_slice())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "final SST cell {k}");
    }
}

proptest! {
    // Each case runs the real coupled model three times (straight,
    // first leg, resumed leg), so the case count stays small — the
    // property still sweeps the lowering paths: random ramp target and
    // shape, random solar constant, random aerosol pulse.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A scenario run interrupted at a mid-ramp snapshot and resumed
    /// reproduces the uninterrupted run bit-for-bit: the interpolated
    /// forcing trajectory after resume is identical because the series
    /// is static config (checkpoint-guarded), evaluated per simulated
    /// day.
    #[test]
    fn mid_ramp_resume_is_bit_identical(
        seed in 0u32..1000,
        to in 1.1f64..4.0,
        exponential in 0u32..2,
        solar in 0.97f64..1.03,
        peak in 0.05f64..0.5,
    ) {
        let shape = if exponential == 1 { "shape = exponential\n" } else { "" };
        let src = format!(
            "[scenario]\nname = \"t\"\nseed = {seed}\ndays = 2\n\
             [forcing.co2]\nkind = ramp\nfrom = 1.0\nto = {to}\nstart_day = 0\nend_day = 2\n{shape}\
             [forcing.solar]\nkind = constant\nvalue = {solar}\n\
             [forcing.aerosol]\nkind = pulse\npeak = {peak}\nonset_day = 0\n\
             rise_days = 1\ndecay_days = 1\n"
        );
        let sc = Scenario::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let dir = scratch(&format!("prop-{seed}-{exponential}"));
        assert_resume_bit_identical(&sc, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resuming_under_different_forcings_is_a_typed_refusal() {
    let src = "[scenario]\nname = \"t\"\nseed = 9\ndays = 2\n\
               [forcing.co2]\nkind = ramp\nfrom = 1.0\nto = 1.5\nstart_day = 0\nend_day = 2\n";
    let sc = Scenario::parse(src).unwrap();
    let dir = scratch("mismatch");
    let mut cfg = sc.config().unwrap();
    cfg.ckpt = CkptConfig {
        dir: Some(dir.clone()),
        interval: 2,
        keep: 2,
        fault_plan: None,
    };
    let _ = try_run_coupled(&cfg, 1.0).unwrap();

    // Same geometry, different ramp: the snapshot must refuse.
    let other = Scenario::parse(&src.replace("to = 1.5", "to = 2.0")).unwrap();
    let mut cfg2 = other.config().unwrap();
    cfg2.ckpt = cfg.ckpt.clone();
    let err = try_resume_coupled(&cfg2, 2.0).unwrap_err();
    assert!(
        matches!(err, CoupledError::Ckpt(CkptError::ConfigMismatch(_))),
        "{err}"
    );

    // Different static solar scale: also refused.
    let mut cfg3 = cfg.clone();
    cfg3.atm.physics.rad.solar_scale = 1.05;
    let err = try_resume_coupled(&cfg3, 2.0).unwrap_err();
    assert!(
        matches!(err, CoupledError::Ckpt(CkptError::ConfigMismatch(_))),
        "{err}"
    );

    // The original configuration still resumes fine.
    assert!(try_resume_coupled(&cfg, 2.0).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
