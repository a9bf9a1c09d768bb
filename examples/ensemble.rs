//! Run a small perturbed-initial-condition ensemble — optionally killing
//! one member's ocean rank mid-run, to watch the member recover from its
//! checkpoint.
//!
//! ```sh
//! cargo run --release -p foam-examples --bin ensemble -- \
//!     [--members N] [--workers W] [--days D] [--kill-member M]
//! ```
//!
//! The aggregate report is deterministic: rerun with any `--workers`
//! value and the printed JSON is byte-identical. A malformed value, a
//! `--kill-member` outside the ensemble, or a spec the ensemble refuses
//! (no members, no workers, no days) ends the program with status 2.

use foam::FoamConfig;
use foam_ensemble::{run_ensemble, EnsembleSpec, RankKill};

mod cli;

/// The value following `name` on the command line, if any.
fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    cli::parse_or(name, flag(name).as_ref(), default)
}

/// Print `error: {msg}` and exit with status 2.
fn refuse(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn main() {
    let members: usize = flag_or("--members", 4);
    let workers: usize = flag_or("--workers", 2);
    let days: f64 = flag_or("--days", 5.0);
    let kill_member: Option<usize> = flag("--kill-member")
        .as_ref()
        .map(|v| cli::parse_or("--kill-member", Some(v), 0));

    // Four seeds, one trajectory each; per-member checkpoints land
    // under the output directory so a killed member can resume.
    let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(42), days, members);
    spec.workers = workers;
    spec.output_dir =
        Some(std::env::temp_dir().join(format!("foam-example-ensemble-{}", std::process::id())));
    if let Some(m) = kill_member {
        if m >= members {
            refuse(format_args!(
                "--kill-member: member {m} is outside the {members}-member ensemble"
            ));
        }
        // The ocean rank dies halfway through the run.
        let n_couple = (days * 86_400.0 / spec.base.dt_couple).round() as usize;
        println!("injecting a fault: member {m}'s ocean will die mid-run\n");
        spec.members[m].kill_rank = Some(RankKill {
            rank: spec.base.n_atm_ranks,
            interval: n_couple / 2,
        });
    }

    println!("running {members} members on {workers} workers, {days} simulated days each...\n");
    let out = run_ensemble(&spec).unwrap_or_else(|e| refuse(e));

    for rec in &out.members {
        match rec.output() {
            Some(o) => println!(
                "member {:>2} (seed {:>3}): final mean SST {:7.3} °C, ice {:.1} %, retries {}",
                rec.spec.id,
                rec.spec.seed,
                o.mean_sst_series.last().copied().unwrap_or(f64::NAN),
                100.0 * o.ice_fraction,
                rec.retries
            ),
            None => println!(
                "member {:>2} (seed {:>3}): FAILED after {} retries",
                rec.spec.id, rec.spec.seed, rec.retries
            ),
        }
    }
    println!(
        "\n{} of {} members completed in {:.1} s wall-clock",
        out.report.n_ok, members, out.wall_seconds
    );

    println!("\n{} aggregate report:", foam_ensemble::SCHEMA);
    println!("{}", out.report.to_json().to_string_pretty());
}
