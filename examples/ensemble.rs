//! Run a small perturbed-initial-condition ensemble — with an optional
//! injected fault, to watch a member die mid-run and recover from its
//! checkpoint.
//!
//! ```sh
//! cargo run --release -p foam-examples --bin ensemble -- \
//!     [--members N] [--workers W] [--days D] [--fault-plan M]
//! ```
//!
//! The aggregate report is deterministic: rerun with any `--workers`
//! value and the printed JSON is byte-identical.

use foam::FoamConfig;
use foam_ensemble::{kill_sst_after, run_ensemble, EnsembleSpec};

mod cli;

fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    let value = args
        .iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1));
    cli::parse_or(name, value, default)
}

fn main() {
    let members: usize = flag_or("--members", 4);
    let workers: usize = flag_or("--workers", 2);
    let days: f64 = flag_or("--days", 5.0);
    let fault_member: i64 = flag_or("--fault-plan", -1);

    // Four seeds, one trajectory each; per-member checkpoints land
    // under the output directory so a killed member can resume.
    let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(42), days, members);
    spec.workers = workers;
    spec.output_dir =
        Some(std::env::temp_dir().join(format!("foam-example-ensemble-{}", std::process::id())));
    if fault_member >= 0 {
        let m = fault_member as usize;
        assert!(m < members, "--fault-plan member out of range");
        let hits = ((days * 4.0) as u64 / 2).max(1);
        println!("injecting a fault: member {m} will lose its SST exchange mid-run\n");
        spec.members[m].fault_plan = Some(kill_sst_after(42, hits));
    }

    println!("running {members} members on {workers} workers, {days} simulated days each...\n");
    let out = run_ensemble(&spec).expect("valid ensemble spec");

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
