//! Run a declarative scenario file end to end: parse → validate →
//! lower → integrate → report.
//!
//! ```sh
//! cargo run --release -p foam-examples --bin scenario -- scenarios/co2-ramp-1pct.toml
//! cargo run --release -p foam-examples --bin scenario -- scenarios/solar-sweep.toml
//! cargo run --release -p foam-examples --bin scenario -- scenarios/control.toml --days 10
//! cargo run --release -p foam-examples --bin scenario -- scenarios/pinatubo.toml --check
//! ```
//!
//! `--check` stops after parse → validate → lower: it proves the file
//! is a runnable experiment (config and ensemble both construct and
//! pass validation) and prints its content digest, without spending
//! any model time. CI's `scenario-smoke` job runs it over the whole
//! library.
//!
//! A scenario with a `[sweep]` section expands to an ensemble (one
//! member per swept value); anything else is a single forced run. The
//! printed report is deterministic — the same scenario file always
//! yields the same bytes above the timing line — which is exactly what
//! the golden-regression tests pin.

use foam::run_coupled;
use foam_scenario::{report, Scenario};
use foam_stats::ascii::sparkline;

mod cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut days_override = None;
    let mut check_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--days" => {
                days_override = args
                    .get(i + 1)
                    .map(|s| cli::parse_or("--days", Some(s), 0.0));
                i += 2;
            }
            "--check" => {
                check_only = true;
                i += 1;
            }
            other => {
                path = Some(other.to_string());
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: scenario <file.toml> [--days N] [--check]");
        std::process::exit(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    // Parse + validate. Scenario errors carry source spans; print them
    // the way a compiler would.
    let mut sc = match Scenario::parse(&src) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(days) = days_override {
        sc.days = days;
    }
    let digest = sc.content_digest().unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    println!("scenario {:?} — {}", sc.name, sc.description);
    println!("content digest: {digest}");

    if check_only {
        // Prove the whole lowering pipeline without model time: the
        // config must construct and validate, and so must the
        // ensemble when a sweep is declared.
        let cfg = sc.config().unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        });
        drop(cfg);
        match sc.ensemble() {
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
            Ok(Some(spec)) => println!(
                "ok: lowers to a {}-member ensemble over {} days",
                spec.members.len(),
                sc.days
            ),
            Ok(None) => println!("ok: lowers to a single forced run over {} days", sc.days),
        }
        return;
    }

    match sc.ensemble() {
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
        Ok(Some(spec)) => {
            let sweep = sc.sweep.as_ref().expect("ensemble implies sweep");
            println!(
                "sweep over {} — {} members × {} days, {} workers",
                sweep.axis,
                spec.members.len(),
                sc.days,
                spec.workers
            );
            let out = foam_ensemble::run_ensemble(&spec).unwrap_or_else(|e| {
                eprintln!("ensemble failed: {e}");
                std::process::exit(1);
            });
            print!("{}", report::sweep_report(&sc, &out));
            println!("wall: {:.1}s", out.wall_seconds);
        }
        Ok(None) => {
            let cfg = sc.config().unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            });
            println!("integrating {} simulated days…", sc.days);
            let out = run_coupled(&cfg, sc.days);
            print!("{}", report::run_report(&sc, &out));
            println!(
                "mean SST trace: {}",
                sparkline(&out.mean_sst_series, 72.min(out.mean_sst_series.len()))
            );
            println!(
                "wall: {:.1}s ({:.0}× real time)",
                out.wall_seconds, out.model_speedup
            );
        }
    }
}
