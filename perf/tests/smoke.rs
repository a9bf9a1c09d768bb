//! Drives the built `foam-perf` binary end to end at the `--smoke` size
//! (about a twentieth of the full one): every workload untraced, one
//! traced, a result set through `suite` and `compare`, and a
//! deliberately wrong reference.

use std::process::{Command, Output};
use std::sync::Mutex;

use foam_telemetry::json::{parse, Value};

/// The runs share `perf/out/` and two cores: one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const WORKLOADS: [&str; 5] = [
    "r15_coupled",
    "r15_atm2",
    "ocean_r15",
    "century_year",
    "server_mix",
];

fn foam_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_foam-perf"))
        .args(args)
        .output()
        .expect("the binary was built")
}

/// The last line of standard output, as the driver reads it.
fn driver_line(out: &Output) -> Value {
    let text = String::from_utf8_lossy(&out.stdout);
    parse(text.lines().last().expect("a last line")).expect("the last line is JSON")
}

fn metric_names(line: &Value) -> Vec<String> {
    line.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .keys()
        .cloned()
        .collect()
}

fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let mut names: Vec<String> = doc
        .get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn every_workload_runs_checks_and_reports_every_end_to_end_metric() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let out = foam_perf(&["--workload", w, "--smoke", "--trace", "0", "--seed", "1914"]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = driver_line(&out);
        let keys: Vec<&str> = line
            .as_object()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{w}");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{w}");
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0), "{w}");
        assert!(
            line.get("attempted").and_then(Value::as_f64) >= Some(1.0),
            "{w}"
        );
        assert_eq!(metric_names(&line), listed("end_to_end"), "{w}");
        for (name, m) in line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics")
        {
            let v = m.get("value").and_then(Value::as_f64).expect("a value");
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn another_seed_passes_on_range_and_repeatability_alone() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = foam_perf(&["--workload", "century_year", "--smoke", "--seed", "7"]);
    assert!(out.status.success());
    assert_eq!(driver_line(&out).get("correct"), Some(&Value::Bool(true)));
}

#[test]
fn a_traced_run_reports_the_whole_ledger_and_writes_its_trace() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = foam_perf(&["--workload", "century_year", "--smoke", "--trace", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = driver_line(&out);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(metric_names(&line), listed("per_layer"));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-century_year.json");
    let trace = parse(&std::fs::read_to_string(path).expect("the trace file")).expect("JSON");
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans");
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Value::as_str) == Some("atm.step")));
    // In each component loop the calls account for the loop's span.
    let loops = trace
        .get("component_loops")
        .and_then(Value::as_object)
        .expect("component loops");
    assert_eq!(loops.len(), 2);
    for (name, l) in loops {
        let covered = l
            .get("children_over_parent")
            .and_then(Value::as_f64)
            .expect("coverage");
        assert!(covered > 0.95 && covered <= 1.0, "{name}: {covered}");
        let selfs: f64 = l
            .get("self_s")
            .and_then(Value::as_object)
            .expect("self times")
            .values()
            .filter_map(Value::as_f64)
            .sum();
        let wall = l.get("wall_s").and_then(Value::as_f64).expect("wall");
        assert!(
            (selfs - wall).abs() < 0.05 * wall,
            "{name}: {selfs} vs {wall}"
        );
    }
    assert!(trace
        .get("telemetry")
        .and_then(|t| t.get("phases"))
        .is_some());
}

#[test]
fn a_wrong_reference_is_a_failed_run() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("perf/out");
    let wrong = dir.join("wrong-reference.json");
    std::fs::write(
        &wrong,
        r#"{"seed": 1914, "tolerance_c": 1e-6, "final_mean_sst_c": {"ocean_r15@0.25d": 16.5}}"#,
    )
    .expect("write the wrong reference");
    let out = foam_perf(&[
        "--workload",
        "ocean_r15",
        "--smoke",
        "--reference",
        wrong.to_str().expect("a UTF-8 path"),
    ]);
    let line = driver_line(&out);
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    let failed = line.get("failed").and_then(Value::as_f64).expect("failed");
    let attempted = line
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    assert!(failed >= 1.0 && failed / attempted > 0.0);
    // The same file does not touch a run at another seed.
    let out = foam_perf(&[
        "--workload",
        "ocean_r15",
        "--smoke",
        "--seed",
        "3",
        "--reference",
        wrong.to_str().expect("a UTF-8 path"),
    ]);
    assert_eq!(driver_line(&out).get("correct"), Some(&Value::Bool(true)));
}

#[test]
fn two_result_sets_of_one_build_compare_without_a_worse() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("perf/out");
    let set = |name: &str| {
        let path = dir.join(name);
        let out = foam_perf(&[
            "suite",
            "--smoke",
            "--runs",
            "3",
            "--workload",
            "century_year",
            "--out",
            path.to_str().expect("a UTF-8 path"),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        path
    };
    let (a, b) = (set("smoke-set-a.json"), set("smoke-set-b.json"));
    // The peak heap of a single-threaded run repeats exactly: `same`.
    let out = foam_perf(&["compare", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(out.status.success());
    let table = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        table
            .lines()
            .any(|l| l.contains("peak_heap_mb") && l.ends_with("same")),
        "{table}"
    );
    let out = foam_perf(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(
        table.lines().filter(|l| l.contains("century_year")).count(),
        4,
        "{table}"
    );
}
