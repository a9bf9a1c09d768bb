//! The `server_mix` workload: an in-process `foam-server` on a loopback
//! port with one worker, driven closed-loop by two client threads.
//!
//! * Client A submits cold jobs with distinct seeds — three single runs,
//!   then an ensemble, repeating — and for each follows `/progress` to
//!   the `done` line and fetches the report.
//! * Client B, with a think time between operations, resubmits one of
//!   the four most recently completed specs and fetches its report,
//!   which must be the same bytes; every fiftieth operation it instead
//!   duplicates the spec A has in flight, which must join that
//!   execution.
//!
//! So the result cache takes puts beside gets, and the queue takes
//! executions beside hits, at the same time.
//!
//! The cache runs **without** a byte budget here. With one (22 kB, about
//! eight reports) three runs in ten lost a report client B was reading:
//! `ResultCache::touch` rewrites an entry's `.at` stamp in place, a
//! concurrent `evict_to_budget` reads the file empty, takes stamp 0 and
//! evicts the hottest entry. A workload must not fail for a reason the
//! change under test did not cause, and this change may not touch the
//! server; LRU eviction is priced by the `server.cache_put_us` probe
//! (sequential, so safe) until the stamp is written atomically.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use foam_server::client::{get, post, Response};
use foam_server::{Server, ServerConfig};
use foam_telemetry::alloc::CountingAlloc;
use foam_telemetry::json::{parse, Value};

use crate::layers::century_seed;
use crate::metrics::{Ledger, Outcome};
use crate::rng::Rng;
use crate::stats::{composite_median, tail};
use crate::trace::Trace;
use crate::traced::{finish, Traced};
use crate::workloads::{repeat, Opts};

/// Size of a single-run report at the full size (ten simulated days);
/// the cache probe stores bodies this long. A four-member ensemble
/// report is 6.6 kB.
pub const REPORT_BYTES: usize = 1_400;
/// The cache probe's budget: room for two groups of four (three run
/// reports and an ensemble report each), about eight reports.
pub const CACHE_BUDGET_BYTES: u64 = 22_000;

#[derive(Debug, Clone)]
pub struct MixSizes {
    pub run_days: f64,
    pub ensemble_members: usize,
    pub ensemble_days: f64,
    pub think: Duration,
    /// Every this-many-th hit operation duplicates A's in-flight spec.
    pub duplicate_every: usize,
    /// Fresh server starts timed for `setup_s`.
    pub setup_reps: usize,
}

impl MixSizes {
    pub fn of(smoke: bool) -> Self {
        if smoke {
            MixSizes {
                run_days: 1.0,
                ensemble_members: 2,
                ensemble_days: 0.5,
                think: Duration::from_millis(5),
                duplicate_every: 5,
                setup_reps: 1,
            }
        } else {
            MixSizes {
                run_days: 10.0,
                ensemble_members: 4,
                ensemble_days: 5.0,
                think: Duration::from_millis(5),
                duplicate_every: 50,
                setup_reps: 60,
            }
        }
    }
}

/// One cold operation of client A.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdOp {
    pub ensemble: bool,
    pub body: String,
    /// Simulated seconds the job integrates (all members).
    pub sim_seconds: f64,
}

/// The `index`-th cold operation for `seed`: every fourth an ensemble,
/// every job seed distinct (an ensemble's members take `job_seed`,
/// `job_seed + 1`, …). The job seed is the first, from
/// `seed·1000 + 8·index` on, at which the century preset holds for all
/// the job's members — see `layers::century_seed`.
pub fn cold_op(seed: u64, index: usize, sizes: &MixSizes) -> ColdOp {
    let ensemble = index % 4 == 3;
    let members = if ensemble { sizes.ensemble_members } else { 1 };
    let job_seed = century_seed((seed % 1_000_000) * 1_000 + 8 * index as u64, members);
    if ensemble {
        ColdOp {
            ensemble: true,
            body: format!(
                r#"{{"kind":"ensemble","preset":"century","seed":{job_seed},"members":{},"workers":2,"days":{}}}"#,
                sizes.ensemble_members, sizes.ensemble_days
            ),
            sim_seconds: sizes.ensemble_members as f64 * sizes.ensemble_days * 86_400.0,
        }
    } else {
        ColdOp {
            ensemble: false,
            body: format!(
                r#"{{"preset":"century","seed":{job_seed},"days":{},"ckpt_interval":8}}"#,
                sizes.run_days
            ),
            sim_seconds: sizes.run_days * 86_400.0,
        }
    }
}

/// What client B does on its `k`-th operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitChoice {
    /// Resubmit the `i`-th most recently completed spec (0 = newest).
    Recent(usize),
    /// Duplicate the spec client A has in flight.
    Duplicate,
}

/// Client B's choices: a pure function of the seed.
pub struct HitPlan {
    rng: Rng,
    k: usize,
    duplicate_every: usize,
}

impl HitPlan {
    pub fn new(seed: u64, duplicate_every: usize) -> Self {
        HitPlan {
            rng: Rng::new(seed ^ 0xB0B),
            k: 0,
            duplicate_every: duplicate_every.max(1),
        }
    }
}

impl Iterator for HitPlan {
    type Item = HitChoice;

    fn next(&mut self) -> Option<HitChoice> {
        self.k += 1;
        let pick = self.rng.below(4);
        Some(if self.k.is_multiple_of(self.duplicate_every) {
            HitChoice::Duplicate
        } else {
            HitChoice::Recent(pick)
        })
    }
}

// ---------------------------------------------------------------------
// HTTP helpers
// ---------------------------------------------------------------------

fn json_of(resp: &Response) -> Option<Value> {
    parse(&resp.text()).ok()
}

fn field_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// When the lines of a `/progress` stream arrived.
struct Followed {
    /// Arrival of the first per-interval line (none for an ensemble,
    /// which streams only its `done` line).
    first_line: Option<Instant>,
    done_at: Instant,
    /// The final line reported `"state": "done"`.
    done: bool,
}

/// `GET /v1/jobs/<id>/progress`, reading the chunked NDJSON stream as it
/// arrives (the crate's client only returns once the stream has ended).
fn follow_progress(addr: &str, id: &str) -> io::Result<Followed> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET /v1/jobs/{id}/progress HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(io::Error::other(format!("progress: {}", line.trim())));
    }
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut first_line = None;
    let mut last = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| io::Error::other("progress: malformed chunk size"))?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk)?;
        let now = Instant::now();
        last = String::from_utf8_lossy(&chunk[..size]).into_owned();
        if !last.contains("\"event\"") {
            first_line.get_or_insert(now);
        }
    }
    let state = parse(last.trim()).ok().and_then(|v| field_str(&v, "state"));
    Ok(Followed {
        first_line,
        done_at: Instant::now(),
        done: state.as_deref() == Some("done"),
    })
}

// ---------------------------------------------------------------------
// one serving phase
// ---------------------------------------------------------------------

/// A completed cold job, as client B sees it.
struct Completed {
    body: String,
    id: String,
    report: Vec<u8>,
}

#[derive(Default)]
struct Shared {
    /// The four most recently completed jobs, newest first.
    recent: Mutex<VecDeque<Completed>>,
    /// Spec and id of the job A is waiting on.
    in_flight: Mutex<Option<(String, String)>>,
    a_done: AtomicBool,
}

#[derive(Default)]
struct ColdSamples {
    submit_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    run_s: Vec<f64>,
    fetch_s: Vec<f64>,
    /// Submit to report in hand, single runs only.
    run_total_s: Vec<f64>,
    /// Per completed group of four, each operation's seconds in order.
    groups: Vec<Vec<f64>>,
    /// Simulated seconds one group integrates.
    group_sim_seconds: f64,
    span_s: f64,
    outcome: Outcome,
}

#[derive(Default)]
struct HitSamples {
    /// Seconds of each hit served with identical bytes.
    hit_s: Vec<f64>,
    /// Hit operations attempted.
    hits: u64,
    /// Ids of the in-flight jobs whose spec was duplicated.
    duplicates: Vec<String>,
    outcome: Outcome,
}

/// Everything one serving phase measured.
#[derive(Default)]
struct Phase {
    /// `Server::start` to the first answered request.
    setup_s: Option<f64>,
    cold: ColdSamples,
    hits: HitSamples,
    joined_duplicates: u64,
    /// Both clients' operations, and the server's start.
    outcome: Outcome,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a client thread panicked")
}

/// One cold operation: submit, follow progress to `done`, fetch.
fn cold_operation(
    addr: &str,
    op: &ColdOp,
    shared: &Shared,
    out: &mut ColdSamples,
    trace: &Trace,
    group: u64,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let sub = post(addr, "/v1/jobs", &op.body).map_err(|e| format!("submit: {e}"))?;
    let t1 = Instant::now();
    if sub.status != 202 {
        return Err(format!("submit: status {}", sub.status));
    }
    let id = json_of(&sub)
        .and_then(|v| field_str(&v, "id"))
        .ok_or("submit: no job id")?;
    *lock(&shared.in_flight) = Some((op.body.clone(), id.clone()));
    let followed = follow_progress(addr, &id);
    *lock(&shared.in_flight) = None;
    let followed = followed.map_err(|e| e.to_string())?;
    if !followed.done {
        let detail = get(addr, &format!("/v1/jobs/{id}"))
            .ok()
            .and_then(|r| json_of(&r))
            .and_then(|v| field_str(&v, "detail"))
            .unwrap_or_default();
        return Err(format!("job {id} did not end in state done: {detail}"));
    }
    let t2 = followed.done_at;
    let report = get(addr, &format!("/v1/jobs/{id}/report")).map_err(|e| format!("fetch: {e}"))?;
    let t3 = Instant::now();
    if report.status != 200 {
        return Err(format!("fetch: status {}", report.status));
    }
    out.submit_s.push((t1 - t0).as_secs_f64());
    out.fetch_s.push((t3 - t2).as_secs_f64());
    if let Some(first) = followed.first_line {
        out.queue_wait_s.push((first - t1).as_secs_f64());
        out.run_s.push((t2 - first).as_secs_f64());
    }
    if !op.ensemble {
        out.run_total_s.push((t3 - t0).as_secs_f64());
    }
    let name = if op.ensemble {
        "server.cold_ensemble"
    } else {
        "server.cold_run"
    };
    let parent = trace.record(name, None, group, t0, t3);
    trace.record("server.submit", parent, group, t0, t1);
    if let Some(first) = followed.first_line {
        trace.record("server.queue_wait", parent, group, t1, first);
        trace.record("server.run", parent, group, first, t2);
    } else {
        trace.record("server.queue_and_run", parent, group, t1, t2);
    }
    trace.record("server.fetch", parent, group, t2, t3);
    let mut recent = lock(&shared.recent);
    recent.push_front(Completed {
        body: op.body.clone(),
        id,
        report: report.body,
    });
    recent.truncate(4);
    Ok((t3 - t0).as_secs_f64())
}

fn client_a(
    addr: &str,
    seed: u64,
    sizes: &MixSizes,
    budget: Duration,
    smoke: bool,
    shared: &Shared,
    trace: &Trace,
) -> ColdSamples {
    let mut out = ColdSamples::default();
    let mut index = 0;
    let t0 = Instant::now();
    // Stop only after a whole group of four, so every run has the same
    // share of ensembles.
    repeat(budget, smoke, || {
        let mut group = Vec::new();
        let mut sim_seconds = 0.0;
        for _ in 0..4 {
            let op = cold_op(seed, index, sizes);
            out.outcome.attempted += 1;
            sim_seconds += op.sim_seconds;
            match cold_operation(addr, &op, shared, &mut out, trace, 10_000 + index as u64) {
                Ok(seconds) => group.push(seconds),
                Err(why) => out.outcome.fail(1, format!("cold op {index}: {why}")),
            }
            index += 1;
        }
        out.groups.push(group);
        out.group_sim_seconds = sim_seconds;
        out.outcome.failed == 0
    });
    out.span_s = t0.elapsed().as_secs_f64();
    shared.a_done.store(true, Ordering::Release);
    out
}

/// One hit operation: resubmit `body`, then fetch and compare.
fn hit_operation(addr: &str, body: &str, id: &str, expect: &[u8]) -> Result<(), String> {
    let sub = post(addr, "/v1/jobs", body).map_err(|e| format!("resubmit: {e}"))?;
    if sub.status != 202 {
        return Err(format!("resubmit: status {}", sub.status));
    }
    let v = json_of(&sub).ok_or("resubmit: not JSON")?;
    if v.get("cached") != Some(&Value::Bool(true)) {
        return Err(format!("resubmit of {id} was not a cache hit"));
    }
    let report = get(addr, &format!("/v1/jobs/{id}/report")).map_err(|e| format!("hit: {e}"))?;
    if report.status != 200 {
        return Err(format!("hit: status {}", report.status));
    }
    if report.body != expect {
        return Err(format!("hit on {id}: report bytes differ"));
    }
    Ok(())
}

/// One duplicate operation: submit the spec of a job in flight.
fn duplicate_operation(addr: &str, body: &str) -> Result<(), String> {
    match post(addr, "/v1/jobs", body) {
        Ok(r) if r.status == 202 => Ok(()),
        Ok(r) => Err(format!("duplicate: status {}", r.status)),
        Err(e) => Err(format!("duplicate: {e}")),
    }
}

fn client_b(addr: &str, seed: u64, sizes: &MixSizes, shared: &Shared, trace: &Trace) -> HitSamples {
    let mut out = HitSamples::default();
    let plan = HitPlan::new(seed, sizes.duplicate_every);
    for (k, choice) in plan.enumerate() {
        if shared.a_done.load(Ordering::Acquire) {
            break;
        }
        std::thread::sleep(sizes.think);
        let group = 20_000 + k as u64;
        let in_flight = match choice {
            HitChoice::Duplicate => lock(&shared.in_flight).clone(),
            HitChoice::Recent(_) => None,
        };
        if let Some((body, id)) = in_flight {
            out.outcome.attempted += 1;
            let t0 = Instant::now();
            match duplicate_operation(addr, &body) {
                Ok(()) => out.duplicates.push(id),
                Err(why) => out.outcome.fail(1, why),
            }
            trace.record("server.duplicate", None, group, t0, Instant::now());
            continue;
        }
        // Nothing in flight to duplicate: hit the newest instead.
        let pick = match choice {
            HitChoice::Recent(i) => i,
            HitChoice::Duplicate => 0,
        };
        let target = {
            let recent = lock(&shared.recent);
            (!recent.is_empty()).then(|| {
                let c = &recent[pick % recent.len()];
                (c.body.clone(), c.id.clone(), c.report.clone())
            })
        };
        // Nothing has completed yet: nothing to hit.
        let Some((body, id, expect)) = target else {
            continue;
        };
        out.outcome.attempted += 1;
        out.hits += 1;
        let t0 = Instant::now();
        match hit_operation(addr, &body, &id, &expect) {
            Ok(()) => {
                let t1 = Instant::now();
                out.hit_s.push((t1 - t0).as_secs_f64());
                trace.record("server.hit", None, group, t0, t1);
            }
            Err(why) => out.outcome.fail(1, why),
        }
    }
    out
}

/// Start a server on a fresh root and time how long until it has
/// answered its first request.
fn start_server(root: &Path) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let mut cfg = ServerConfig::new(root);
    cfg.workers = 1;
    let server = Server::start(cfg, "127.0.0.1:0").map_err(|e| format!("server start: {e}"))?;
    let health = get(&server.addr().to_string(), "/v1/healthz");
    let setup = t0.elapsed().as_secs_f64();
    match health {
        Ok(r) if r.status == 200 => Ok((server, setup)),
        Ok(r) => {
            server.shutdown();
            Err(format!("healthz: status {}", r.status))
        }
        Err(e) => {
            server.shutdown();
            Err(format!("healthz: {e}"))
        }
    }
}

/// Serve one mix for `budget` on a fresh root.
fn serve(opts: &Opts, sizes: &MixSizes, budget: Duration, root: &Path, trace: &Trace) -> Phase {
    let mut phase = Phase::default();
    let server = match start_server(root) {
        Ok((server, setup_s)) => {
            phase.setup_s = Some(setup_s);
            server
        }
        Err(why) => {
            phase.outcome.attempted += 1;
            phase.outcome.fail(1, why);
            return phase;
        }
    };
    let addr = server.addr().to_string();
    let shared = Shared::default();
    (phase.cold, phase.hits) = std::thread::scope(|s| {
        let a = s.spawn(|| client_a(&addr, opts.seed, sizes, budget, opts.smoke, &shared, trace));
        let b = s.spawn(|| client_b(&addr, opts.seed, sizes, &shared, trace));
        (
            a.join().expect("client A panicked"),
            b.join().expect("client B panicked"),
        )
    });
    phase
        .outcome
        .absorb(std::mem::take(&mut phase.cold.outcome));
    phase
        .outcome
        .absorb(std::mem::take(&mut phase.hits.outcome));
    // A duplicate joined if its job still ran exactly once.
    for id in &phase.hits.duplicates {
        let executions = get(&addr, &format!("/v1/jobs/{id}"))
            .ok()
            .and_then(|r| json_of(&r))
            .and_then(|v| v.get("executions").and_then(Value::as_f64));
        if executions == Some(1.0) {
            phase.joined_duplicates += 1;
        } else {
            phase
                .outcome
                .fail(1, format!("duplicate of {id}: executions {executions:?}"));
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
    phase
}

/// Simulated seconds the cold jobs of a group deliver per wall second,
/// the group taken position-wise as the median over the groups served
/// (operation `k` of every group is the same kind of job).
fn speedup(p: &Phase) -> f64 {
    p.cold.group_sim_seconds / composite_median(&p.cold.groups).max(1e-9)
}

/// Untraced run: set-up samples (start, first request, shutdown), then
/// one serving phase over the rest of the budget.
pub fn run_untraced(opts: &Opts, ledger: &mut Ledger) -> Outcome {
    let sizes = MixSizes::of(opts.smoke);
    let mut outcome = Outcome::default();
    let mut setup = Vec::new();
    let t0 = Instant::now();
    for k in 0..sizes.setup_reps {
        let root = opts.tmp.join(format!("server-setup-{k}"));
        match start_server(&root) {
            Ok((server, setup_s)) => {
                server.shutdown();
                setup.push(setup_s);
            }
            Err(why) => outcome.fail(1, why),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    let budget = opts.budget.saturating_sub(t0.elapsed());
    let root = opts.tmp.join("server");
    let mut phase = serve(opts, &sizes, budget, &root, &Trace::new(false));
    setup.extend(phase.setup_s);
    ledger.seconds("setup_s", &setup);
    ledger.noted(
        "model_speedup",
        speedup(&phase),
        phase.cold.groups.len(),
        "simulated seconds of a group of four cold jobs over the position-wise median group",
    );
    ledger.seconds("op_p50_ms", &phase.hits.hit_s);
    ledger.value(
        "peak_heap_mb",
        CountingAlloc::stats().peak_bytes as f64 / 1.0e6,
    );
    outcome.absorb(std::mem::take(&mut phase.outcome));
    outcome
}

/// Traced run: a short untraced phase (the base of
/// `core.trace_overhead_frac`), a traced phase whose client-side spans
/// are read, then what every traced run ends with.
pub fn run_traced(opts: &Opts, ledger: &mut Ledger) -> Traced {
    let sizes = MixSizes::of(opts.smoke);
    let trace = Trace::new(true);
    let share = opts.budget.mul_f64(0.3);
    let idle = Trace::new(false);
    let plain = serve(opts, &sizes, share, &opts.tmp.join("server-plain"), &idle);
    let traced = serve(opts, &sizes, share, &opts.tmp.join("server-traced"), &trace);

    let c = &traced.cold;
    if !c.submit_s.is_empty() {
        ledger.seconds("server.submit_ms", &c.submit_s);
        ledger.seconds("server.fetch_ms", &c.fetch_s);
        ledger.seconds("server.queue_wait_p50_ms", &c.queue_wait_s);
        ledger.seconds("server.run_p50_ms", &c.run_s);
        ledger.seconds("server.cold_job_p50_ms", &c.run_total_s);
        ledger.value(
            "server.jobs_per_s",
            c.submit_s.len() as f64 / c.span_s.max(1e-9),
        );
    }
    let hits = &traced.hits;
    if let Some((which, v)) = tail(&hits.hit_s) {
        ledger.noted("server.hit_tail_ms", v * 1e3, hits.hit_s.len(), which);
    }
    ledger.value("server.hit_count", hits.hits as f64);
    ledger.value("server.hit_bytes_identical", hits.hit_s.len() as f64);
    ledger.value("server.joined_duplicates", traced.joined_duplicates as f64);
    if speedup(&plain) > 0.0 && speedup(&traced) > 0.0 {
        ledger.value(
            "core.trace_overhead_frac",
            speedup(&plain) / speedup(&traced) - 1.0,
        );
    }

    let mut outcome = plain.outcome;
    outcome.absorb(traced.outcome);
    let document = finish(opts, ledger, &trace, &mut outcome, Value::Null, Value::Null);
    Traced {
        outcome,
        pin: None,
        document,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_operation_sequence_is_a_function_of_the_seed() {
        let sizes = MixSizes::of(false);
        let cold = |seed| -> Vec<ColdOp> { (0..16).map(|i| cold_op(seed, i, &sizes)).collect() };
        assert_eq!(cold(1914), cold(1914));
        assert_ne!(cold(1914), cold(1915));
        let ops = cold(1914);
        // Every fourth is an ensemble, and no two bodies are alike.
        assert!(ops
            .iter()
            .enumerate()
            .all(|(i, op)| op.ensemble == (i % 4 == 3)));
        let mut bodies: Vec<&str> = ops.iter().map(|o| o.body.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), ops.len());
        for op in &ops {
            foam_server::JobSpec::parse(&op.body).expect("a valid job spec");
        }

        let hits = |seed| -> Vec<HitChoice> { HitPlan::new(seed, 50).take(200).collect() };
        assert_eq!(hits(7), hits(7));
        assert_ne!(hits(7), hits(8));
        let plan = hits(7);
        assert_eq!(
            plan.iter().filter(|c| **c == HitChoice::Duplicate).count(),
            4
        );
        assert_eq!(plan[49], HitChoice::Duplicate);
        assert!(plan
            .iter()
            .all(|c| matches!(c, HitChoice::Duplicate | HitChoice::Recent(0..=3))));
    }
}
