//! FOAM as a service: boot the simulation server and leave it running.
//!
//! ```sh
//! cargo run --release -p foam-examples --bin serve -- \
//!     [--addr 127.0.0.1:7341] [--root DIR] [--workers N]
//! ```
//!
//! Then, from another terminal:
//!
//! ```sh
//! # submit a tiny 4-day run (the job id is the content digest)
//! curl -s -X POST localhost:7341/v1/jobs \
//!      -d '{"preset":"tiny","seed":42,"days":4}'
//!
//! # stream its progress, one JSON line per coupling interval
//! curl -sN localhost:7341/v1/jobs/<id>/progress
//!
//! # fetch the deterministic report (resubmitting the same spec is a
//! # cache hit: same bytes, no model run)
//! curl -s localhost:7341/v1/jobs/<id>/report
//! ```
//!
//! Kill the server mid-job and start it again on the same `--root`: it
//! rediscovers the job from its `spec.json`, resumes from the newest
//! checkpoint, and converges to the same report bits.

use foam_server::{Server, ServerConfig};

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
    let addr: String = flag_or("--addr", "127.0.0.1:7341".to_string());
    let root: String = flag_or(
        "--root",
        std::env::temp_dir()
            .join("foam-server")
            .to_string_lossy()
            .into_owned(),
    );
    let workers: usize = flag_or("--workers", 2);

    let mut cfg = ServerConfig::new(&root);
    cfg.workers = workers;
    let server = Server::start(cfg, &addr).expect("bind server address");
    println!("foam-server listening on http://{}", server.addr());
    println!("state root: {root}");
    println!(
        "try: curl -s -X POST {}/v1/jobs -d '{{\"preset\":\"tiny\",\"seed\":42,\"days\":4}}'",
        server.addr()
    );

    // Serve until the process is killed; jobs in flight at that moment
    // are resumed by the next start on the same root.
    loop {
        std::thread::park();
    }
}
