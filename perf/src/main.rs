//! `foam-perf` — the repository's one benchmark.
//!
//! ```text
//! foam-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--reference <file>]
//! foam-perf suite   --runs <n> --out <set.json> [--seconds <s>] [--seed <n>]
//!                   [--workload <name>] [--smoke]
//! foam-perf compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process, prints every metric
//! by name with unit and sample count, checks the outputs, writes the
//! result to `perf/out/`, and ends with the one-line JSON the driver
//! reads. `--trace 0` gives the end-to-end metrics, `--trace 1` the
//! per-layer ledger (and `perf/out/trace-<workload>.json`). `suite`
//! runs workloads repeatedly, each run its own process, into a result
//! set; `compare` judges one result set against another. README.md has
//! the metric definitions.

mod env;
mod layers;
mod metrics;
mod rng;
mod server_mix;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use foam_telemetry::alloc::CountingAlloc;
use foam_telemetry::json::{parse, Value};

use metrics::{Def, Ledger, Outcome, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use workloads::{Opts, Reference, DEFAULT_SEED};

/// Peak live heap is an end-to-end metric, so the counting allocator is
/// this binary's global allocator (as in the century bench).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `perf/out/`, wherever the crate was built.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args
        .value("--workload")
        .ok_or(format!("--workload is one of {WORKLOADS:?}"))?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("no workload {workload:?}; there are {WORKLOADS:?}"));
    }
    let seconds: f64 = args.parsed("--seconds", 20.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, not {other:?}")),
    };
    let out = out_dir();
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let opts = Opts {
        workload: workload.clone(),
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        budget: Duration::from_secs_f64(seconds),
        smoke: args.flag("--smoke"),
        tmp: tmp.clone(),
    };
    let reference = Reference::load(args.value("--reference").map(Path::new), opts.seed)?;

    let load = env::load_average();
    if let Some(l) = load.filter(|l| *l > 0.5) {
        eprintln!("warning: 1-minute load average is {l:.2}; timings will be noisy");
    }
    let environment = env::describe();

    CountingAlloc::reset_peak();
    let mut ledger = Ledger::default();
    let (defs, outcome, pin): (&[Def], Outcome, _) = if traced {
        let t = if workload == "server_mix" {
            server_mix::run_traced(&opts, &mut ledger)
        } else {
            traced::run_traced(&opts, &reference, &mut ledger)
        };
        let path = out.join(format!("trace-{workload}.json"));
        std::fs::write(&path, t.document.to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        (&PER_LAYER, t.outcome, t.pin)
    } else if workload == "server_mix" {
        (
            &END_TO_END,
            server_mix::run_untraced(&opts, &mut ledger),
            None,
        )
    } else {
        let m = workloads::run_untraced(&opts, &reference);
        let (outcome, pin) = (m.outcome.clone(), m.pin());
        m.into_ledger(&mut ledger);
        (&END_TO_END, outcome, pin)
    };
    let _ = std::fs::remove_dir_all(&tmp);

    // A metric that is missing or not a number cannot be reported.
    let unusable = ledger.unusable(defs);
    let result = RunResult {
        workload: workload.clone(),
        seed: opts.seed,
        seconds,
        traced,
        smoke: opts.smoke,
        correct: outcome.failed == 0 && unusable.is_empty(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        ledger,
        context: BTreeMap::from([
            ("env".to_string(), environment),
            (
                // What `reference.json` pins for this unit at seed 1914.
                "final_mean_sst_c".to_string(),
                Value::object(pin.map(|(key, sst)| (key, Value::from(sst)))),
            ),
            (
                "failures".to_string(),
                Value::Array(
                    outcome
                        .reasons
                        .iter()
                        .map(|r| Value::from(r.as_str()))
                        .collect(),
                ),
            ),
        ]),
    };
    result.print_table();
    for r in &outcome.reasons {
        eprintln!("failed: {r}");
    }
    let path = out.join(format!("result-{workload}-trace{}.json", traced as u8));
    std::fs::write(&path, result.to_json().to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if !unusable.is_empty() {
        return Err(format!("no usable value for {unusable:?}"));
    }
    println!("{}", result.driver_line(defs));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// result sets
// ---------------------------------------------------------------------

/// End-to-end values per workload and metric, one per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn set_to_json(set: &ResultSet, failed_runs: u64) -> Value {
    Value::object([
        ("schema".to_string(), Value::from("foam-perf-set/1")),
        ("env".to_string(), env::describe()),
        ("failed_runs".to_string(), Value::from(failed_runs)),
        (
            "workloads".to_string(),
            Value::object(set.iter().map(|(w, metrics)| {
                (
                    w.clone(),
                    Value::object(metrics.iter().map(|(m, values)| {
                        (
                            m.clone(),
                            Value::Array(values.iter().map(|v| Value::from(*v)).collect()),
                        )
                    })),
                )
            })),
        ),
    ])
}

fn set_from_json(v: &Value) -> Option<ResultSet> {
    let mut set = ResultSet::new();
    for (w, metrics) in v.get("workloads")?.as_object()? {
        let mut by_metric = BTreeMap::new();
        for (m, values) in metrics.as_object()? {
            let values: Option<Vec<f64>> = values.as_array()?.iter().map(Value::as_f64).collect();
            by_metric.insert(m.clone(), values?);
        }
        set.insert(w.clone(), by_metric);
    }
    Some(set)
}

/// Run each workload `--runs` times, every run its own process and its
/// own seed, and collect the end-to-end metrics into a result set.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let runs: usize = args.parsed("--runs", 5)?;
    let seconds: f64 = args.parsed("--seconds", 20.0)?;
    let seed0: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let out = PathBuf::from(args.value("--out").ok_or("suite: --out <set.json>")?);
    let only = args.value("--workload");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = ResultSet::new();
    let mut failed_runs = 0;
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        for k in 0..runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--trace", "0"])
                .args(["--seed", &(seed0 + k as u64).to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if args.flag("--smoke") {
                cmd.arg("--smoke");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            // The run wrote its full result next to the trace files.
            let path = out_dir().join(format!("result-{w}-trace0.json"));
            let result = std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| parse(&t).ok())
                .and_then(|v| RunResult::from_json(&v))
                .filter(|r| output.status.success() && r.correct);
            let Some(result) = result else {
                eprintln!(
                    "{w} run {k}: failed\n{}",
                    String::from_utf8_lossy(&output.stderr)
                );
                failed_runs += 1;
                continue;
            };
            let entry = set.entry(w.to_string()).or_default();
            let mut shown = Vec::new();
            for def in END_TO_END {
                if let Some(e) = result.ledger.entries.get(def.name) {
                    entry
                        .entry(def.name.to_string())
                        .or_default()
                        .push(e.summary.median);
                    shown.push(format!("{} {:.6}", def.name, e.summary.median));
                }
            }
            eprintln!("{w} run {k}: {}", shown.join("  "));
        }
    }
    std::fs::write(&out, set_to_json(&set, failed_runs).to_string_pretty())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    print_spreads(&set);
    Ok(if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Per workload and metric: median, quartiles and the inter-quartile
/// spread as a share of the median — the quantity the driver bounds.
fn print_spreads(set: &ResultSet) {
    println!(
        "{:<14} {:<16} {:>3} {:>16} {:>16} {:>16} {:>8}",
        "workload", "metric", "n", "q1", "median", "q3", "spread"
    );
    for (w, metrics) in set {
        for (m, values) in metrics {
            let s = Summary::of(values);
            println!(
                "{:<14} {:<16} {:>3} {:>16.6} {:>16.6} {:>16.6} {:>7.2}%",
                w,
                m,
                s.n,
                s.q1,
                s.median,
                s.q3,
                100.0 * s.rel_spread()
            );
        }
    }
}

/// How set B's median stands against set A's for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// The spread does not count for `setup_s`: it is milliseconds on most
/// workloads, its spread is wide, and the driver too judges it on the
/// medians alone.
fn judge(a: &Summary, b: &Summary, def: &Def, bound: f64) -> Verdict {
    // Positive = B is worse, as a share of A's median.
    let change = match def.better {
        "lower" => (b.median - a.median) / a.median.abs(),
        _ => (a.median - b.median) / a.median.abs(),
    };
    let spread = a.rel_spread().max(b.rel_spread());
    if spread > bound && def.name != "setup_s" {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if -change > spread && -change > 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse(&text)
            .ok()
            .and_then(|v| set_from_json(&v))
            .ok_or(format!("{p}: not a foam-perf result set"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds()?;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "A iqr", "B iqr", "bound"
    );
    let mut worse = 0;
    for (w, metrics) in &a {
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics.get(def.name),
                b.get(w).and_then(|m| m.get(def.name)),
            ) else {
                continue;
            };
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            let bound = bounds.get(def.name).copied().unwrap_or(0.05);
            let verdict = judge(&sa, &sb, &def, bound);
            worse += (verdict == Verdict::Worse) as u32;
            println!(
                "{:<14} {:<16} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>6.1}%  {}",
                w,
                def.name,
                sa.median,
                sb.median,
                100.0 * sa.rel_spread(),
                100.0 * sb.rel_spread(),
                100.0 * bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => compare(a, b),
            _ => Err("compare: two result sets".to_string()),
        },
        Some("suite") => suite(&args),
        _ => run(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("foam-perf: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, rel_iqr: f64) -> Summary {
        Summary {
            n: 10,
            q1: median * (1.0 - rel_iqr / 2.0),
            median,
            q3: median * (1.0 + rel_iqr / 2.0),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let find = |name| metrics::find(name).expect("a listed metric");
        let (lower, higher, setup) = (find("op_p50_ms"), find("model_speedup"), find("setup_s"));
        let a = summary(100.0, 0.01);
        // Lower is better: +3 % within a 5 % bound is the same, +8 % is worse.
        assert_eq!(judge(&a, &summary(103.0, 0.01), lower, 0.05), Verdict::Same);
        assert_eq!(
            judge(&a, &summary(108.0, 0.01), lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &summary(90.0, 0.01), lower, 0.05),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&a, &summary(108.0, 0.01), higher, 0.05),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &summary(92.0, 0.01), higher, 0.05),
            Verdict::Worse
        );
        // A spread wider than the bound resolves nothing, whatever the
        // medians — except for set-up time, judged on its medians alone.
        let wide = summary(120.0, 0.08);
        assert_eq!(judge(&a, &wide, lower, 0.05), Verdict::Unresolved);
        assert_eq!(judge(&a, &wide, setup, 0.05), Verdict::Worse);
        assert_eq!(judge(&a, &summary(101.0, 0.08), setup, 0.05), Verdict::Same);
        // An improvement inside the spread is not claimed.
        assert_eq!(judge(&a, &summary(99.5, 0.01), lower, 0.05), Verdict::Same);
    }

    #[test]
    fn result_sets_round_trip() {
        let mut set = ResultSet::new();
        set.entry("ocean_r15".to_string())
            .or_default()
            .insert("model_speedup".to_string(), vec![70_000.5, 71_000.25]);
        let back = set_from_json(&parse(&set_to_json(&set, 0).to_string_pretty()).unwrap());
        assert_eq!(back, Some(set));
    }
}
