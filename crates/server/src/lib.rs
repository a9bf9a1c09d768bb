//! `foam-server` — FOAM as a service.
//!
//! A long-lived simulation server over the stack the previous layers
//! built: jobs run under [`foam::supervisor`] (so rank death and
//! checkpoint corruption self-heal mid-job), dispatch goes through a
//! multi-tenant [`FairShareQueue`], results are **content-addressed**
//! by [`JobSpec::digest`] and served byte-identically from an on-disk
//! [`ResultCache`], and the `foam-ckpt` [`CheckpointStore`] doubles as
//! the resumable-job backing store: a server that dies mid-job picks
//! the job back up from its newest snapshot on the next start and
//! converges to the *same report bits* an uninterrupted run produces.
//!
//! The transport is hand-rolled HTTP/1.1 over `TcpListener` + OS
//! threads (no async runtime — see [`http`]):
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | Submit a [`JobSpec`]; returns the job (id = digest). Duplicate content single-flights. |
//! | `GET /v1/jobs` | List known jobs. |
//! | `GET /v1/jobs/<id>` | One job's state machine view. |
//! | `GET /v1/jobs/<id>/progress` | NDJSON stream: one line per coupling interval, then a final `event: done` line. |
//! | `GET /v1/jobs/<id>/report` | The deterministic report, verbatim cache bytes. |
//! | `POST /v1/jobs/<id>/cancel` | Cooperative cancel at the next interval boundary. |
//! | `GET /v1/healthz` | Liveness. |
//!
//! ```no_run
//! use foam_server::{Server, ServerConfig};
//!
//! let server = Server::start(
//!     ServerConfig::new("/var/lib/foam-server"),
//!     "127.0.0.1:0",
//! ).unwrap();
//! println!("serving on http://{}", server.addr());
//! # server.shutdown();
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use foam::{
    supervise_run_resumable, CheckpointStore, CkptConfig, SupervisedOutput, SupervisorConfig,
};
use foam_ensemble::FairShareQueue;
use foam_telemetry::json::Value;

/// Connections handled at once. One more is answered 503 and closed,
/// so idle or trickling clients cannot hold an unbounded number of
/// threads.
pub const MAX_CONNECTIONS: usize = 32;

/// A live connection handler's place under [`MAX_CONNECTIONS`], given
/// back when the handler ends, however it ends.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod spec;

pub use cache::ResultCache;
pub use job::{Job, JobState};
pub use spec::{JobKind, JobSpec, ScenarioJob, SpecError};

use http::{respond_bytes, respond_error, respond_json, NdjsonStream, Request};
use job::JobObserver;

/// Serving knobs. Everything a deployment tunes lives here; everything
/// a *job* means lives in [`JobSpec`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// State directory: `<root>/cache/` for completed reports,
    /// `<root>/jobs/job-<digest>/` for in-flight checkpoint stores.
    pub root: PathBuf,
    /// Concurrent job executors (each job itself runs an SPMD pool of
    /// rank threads, so keep this modest).
    pub workers: usize,
    /// LRU byte budget for the result cache (`None` = unbounded).
    /// Recency is persisted on disk, so the budget is enforced across
    /// server restarts, not just within one incarnation.
    pub cache_budget_bytes: Option<u64>,
}

impl ServerConfig {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            root: root.into(),
            workers: 2,
            cache_budget_bytes: None,
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    jobs_dir: PathBuf,
    cache: ResultCache,
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    queue: FairShareQueue<String>,
}

/// A running server: accept loop plus executor pool, all OS threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boot: open the state directory, **resume any job a previous
    /// incarnation left unfinished** (a `job-*` root with a `spec.json`
    /// but no cache entry), garbage-collect roots whose results are
    /// already cached, bind `addr`, and start serving.
    pub fn start(cfg: ServerConfig, addr: &str) -> io::Result<Server> {
        let jobs_dir = cfg.root.join("jobs");
        fs::create_dir_all(&jobs_dir)?;
        let cache = ResultCache::open_with_budget(&cfg.root, cfg.cache_budget_bytes)?;
        let shared = Arc::new(Shared {
            jobs: Mutex::new(BTreeMap::new()),
            queue: FairShareQueue::new(),
            jobs_dir,
            cache,
            cfg,
        });
        recover_jobs(&shared)?;

        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some((tenant, digest)) = shared.queue.pop() {
                        execute_job(&shared, &digest);
                        shared.queue.complete(&tenant);
                    }
                })
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let live = Arc::new(AtomicUsize::new(0));
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    if live.fetch_add(1, Ordering::AcqRel) >= MAX_CONNECTIONS {
                        live.fetch_sub(1, Ordering::AcqRel);
                        let _ = respond_error(&mut stream, 503, "too many connections");
                        continue;
                    }
                    let slot = ConnectionSlot(Arc::clone(&live));
                    let shared = Arc::clone(&shared);
                    // One thread per connection; each closes after one
                    // response, so these are short-lived (except
                    // progress streams, which end with their job).
                    std::thread::spawn(move || {
                        let _slot = slot;
                        let _ = handle_connection(&shared, stream);
                    });
                }
            })
        };

        Ok(Server {
            addr,
            shared,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving: close the queue, cooperatively cancel running
    /// jobs (they abort at the next interval boundary, leaving their
    /// checkpoints on disk), and join every thread. In-flight jobs are
    /// *not* lost — the next [`Server::start`] on the same root
    /// resumes them from their newest snapshot.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        self.shared.queue.close();
        {
            let jobs = self.shared.jobs.lock().expect("jobs lock poisoned");
            for job in jobs.values() {
                job.cancel();
            }
        }
        // Wake the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Release anyone still streaming a job that never got to run.
        let jobs = self.shared.jobs.lock().expect("jobs lock poisoned");
        for job in jobs.values() {
            if !job.state().is_terminal() {
                job.set_state(JobState::Failed("server shutdown".to_string()));
            }
        }
    }
}

/// Scan the jobs directory for roots a previous server left behind:
/// finished ones (already cached) are garbage-collected, unfinished
/// ones are re-queued so they resume from their newest snapshot.
fn recover_jobs(shared: &Shared) -> io::Result<()> {
    let roots = CheckpointStore::roots(&shared.jobs_dir)
        .map_err(|e| io::Error::other(format!("scanning job roots: {e}")))?;
    let mut finished: Vec<String> = Vec::new();
    for (name, path) in roots {
        if !name.starts_with("job-") {
            continue; // a member root of some ensemble job: owned by its job
        }
        let Ok(body) = fs::read_to_string(path.join("spec.json")) else {
            // No spec — nothing to resume from this root; treat as
            // finished debris.
            finished.push(name);
            continue;
        };
        let Ok(spec) = JobSpec::parse(&body) else {
            finished.push(name);
            continue;
        };
        let digest = spec.digest();
        if shared.cache.contains(&digest) {
            finished.push(name);
            continue;
        }
        // A crate-version change moves the digest; keep the checkpoint
        // store reachable under the new id.
        let expected = CheckpointStore::job_root(&shared.jobs_dir, &digest);
        if expected != path {
            let _ = fs::rename(&path, &expected);
        }
        let tenant = spec.tenant.clone();
        let priority = spec.priority;
        let job = Arc::new(Job::new(digest.clone(), spec, JobState::Queued));
        shared
            .jobs
            .lock()
            .expect("jobs lock poisoned")
            .insert(digest.clone(), Arc::clone(&job));
        shared.queue.submit(&tenant, priority, digest);
    }
    // Retention-driven GC: completed jobs' checkpoint roots are dead
    // weight (their content lives in the cache now).
    let _ =
        CheckpointStore::sweep_roots(&shared.jobs_dir, |name| !finished.iter().any(|f| f == name));
    Ok(())
}

/// Submit (or join, or serve from cache) one parsed spec. Returns the
/// job plus whether the caller got a cache hit.
fn submit(shared: &Shared, spec: JobSpec) -> (Arc<Job>, bool) {
    let digest = spec.digest();
    let mut jobs = shared.jobs.lock().expect("jobs lock poisoned");
    // Single-flight: the map is the synchronization point. Everyone
    // submitting this digest — before, during, or after execution —
    // lands on the same `Job`.
    if let Some(job) = jobs.get(&digest) {
        return (Arc::clone(job), job.state() == JobState::Done);
    }
    if shared.cache.contains(&digest) {
        // Cold hit: a previous incarnation computed this. Materialize a
        // done job so listings and progress behave uniformly.
        let job = Arc::new(Job::new(digest.clone(), spec, JobState::Done));
        jobs.insert(digest, Arc::clone(&job));
        return (job, true);
    }
    let job = Arc::new(Job::new(digest.clone(), spec, JobState::Queued));
    jobs.insert(digest.clone(), Arc::clone(&job));
    drop(jobs);
    // Persist the spec *before* queueing: from here on, a crashed
    // server rediscovers and resumes this job on restart.
    let root = CheckpointStore::job_root(&shared.jobs_dir, &digest);
    let _ = fs::create_dir_all(&root);
    let mut body = job.spec.to_value().to_string_pretty();
    body.push('\n');
    let tmp = root.join("spec.json.tmp");
    if fs::write(&tmp, &body).is_ok() {
        let _ = fs::rename(&tmp, root.join("spec.json"));
    }
    shared
        .queue
        .submit(&job.spec.tenant, job.spec.priority, digest);
    (job, false)
}

/// Run one job to completion (or failure) on the calling worker thread.
fn execute_job(shared: &Shared, digest: &str) {
    let job = {
        let jobs = shared.jobs.lock().expect("jobs lock poisoned");
        match jobs.get(digest) {
            Some(job) => Arc::clone(job),
            None => return,
        }
    };
    if job.cancelled() {
        job.set_state(JobState::Failed("cancelled".to_string()));
        return;
    }
    job.executions.fetch_add(1, Ordering::AcqRel);
    job.set_state(JobState::Running);
    let root = CheckpointStore::job_root(&shared.jobs_dir, digest);
    let _ = fs::create_dir_all(&root);

    let report = match job.spec.kind {
        JobKind::Run => run_job(&job, &root),
        JobKind::Ensemble => ensemble_job(&job, &root),
    };
    match report {
        Ok(report) => {
            let mut bytes = report.to_string_pretty().into_bytes();
            bytes.push(b'\n');
            if let Err(e) = shared.cache.put(digest, &bytes) {
                job.set_state(JobState::Failed(format!("storing report: {e}")));
                return;
            }
            // This job's checkpoints are now redundant with the cache.
            // Collect them before announcing `done`, so a client that
            // sees `done` never finds the root still there.
            let gone = root.file_name().and_then(|n| n.to_str()).map(String::from);
            if let Some(gone) = gone {
                let _ = CheckpointStore::sweep_roots(&shared.jobs_dir, |name| name != gone);
            }
            job.set_state(JobState::Done);
        }
        Err(why) => {
            let why = if job.cancelled() {
                "cancelled".to_string()
            } else {
                why
            };
            job.set_state(JobState::Failed(why));
        }
    }
}

/// Execute a `kind: run` job under the supervisor, resuming from any
/// snapshot a previous attempt (or previous server) committed.
fn run_job(job: &Job, root: &std::path::Path) -> Result<Value, String> {
    let mut cfg = job.spec.config();
    cfg.ckpt = CkptConfig::every(root, job.spec.ckpt_interval);
    cfg.telemetry.enabled = true;
    cfg.telemetry.path = Some(root.join("telemetry.json"));
    let obs = JobObserver { job };
    let sup = SupervisorConfig::default();
    let out = supervise_run_resumable(&cfg, job.spec.days, &sup, Some(&obs))
        .map_err(|e| e.to_string())?;
    if let Some(from) = out.resumed_from {
        job.set_resumed_from(from);
    }
    Ok(run_report(&job.spec, &job.digest, &out))
}

/// Execute a `kind: ensemble` job. The ensemble runner owns its own
/// scheduling, retries, and member checkpoint stores (under this job's
/// root). Each member clears its store before it runs, so a restarted
/// server reruns every member from its initial condition; the report
/// bits are the same either way.
fn ensemble_job(job: &Job, root: &std::path::Path) -> Result<Value, String> {
    let mut spec = job.spec.ensemble();
    spec.output_dir = Some(root.to_path_buf());
    let out = foam_ensemble::run_ensemble(&spec).map_err(|e| e.to_string())?;
    Ok(Value::object([
        ("schema".to_string(), Value::from("foam-server/1")),
        ("id".to_string(), Value::from(job.digest.as_str())),
        ("kind".to_string(), Value::from("ensemble")),
        ("content".to_string(), content_value(&job.spec)),
        ("ensemble".to_string(), out.report.to_json()),
    ]))
}

/// The content half of a spec — the fields that feed the digest.
/// Reports embed *this*, never the full spec: a report must be
/// byte-identical no matter which tenant at which priority asked.
fn content_value(spec: &JobSpec) -> Value {
    Value::object([
        ("kind".to_string(), Value::from(spec.kind.as_str())),
        ("preset".to_string(), Value::from(spec.preset.as_str())),
        ("seed".to_string(), Value::from(spec.seed)),
        ("days".to_string(), Value::from(spec.days)),
        ("ranks".to_string(), Value::from(spec.ranks)),
        (
            "members".to_string(),
            Value::from(if spec.kind == JobKind::Ensemble {
                spec.members
            } else {
                0
            }),
        ),
    ])
}

/// The deterministic `foam-server/1` run report. Wall-clock numbers
/// (speedup, elapsed) are deliberately absent — every field is a pure
/// function of the content digest, which is what lets the cache serve
/// these bytes forever.
fn run_report(spec: &JobSpec, digest: &str, out: &SupervisedOutput) -> Value {
    let series = Value::Array(
        out.output
            .mean_sst_series
            .iter()
            .map(|v| Value::from(*v))
            .collect(),
    );
    Value::object([
        ("schema".to_string(), Value::from("foam-server/1")),
        ("id".to_string(), Value::from(digest)),
        ("kind".to_string(), Value::from("run")),
        ("content".to_string(), content_value(spec)),
        (
            "n_intervals".to_string(),
            Value::from(out.output.mean_sst_series.len()),
        ),
        ("mean_sst_series".to_string(), series),
        (
            "final_mean_sst".to_string(),
            Value::from(out.output.final_mean_sst().unwrap_or(f64::NAN)),
        ),
        (
            "ice_fraction".to_string(),
            Value::from(out.output.ice_fraction),
        ),
        ("recovery".to_string(), out.recovery.to_json()),
    ])
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(http::READ_TIMEOUT))?;
    let req = match http::read_request(&mut stream) {
        Ok(req) => req,
        Err(e) => return respond_error(&mut stream, 400, &e.to_string()),
    };
    route(shared, &mut stream, &req)
}

fn route(shared: &Shared, stream: &mut TcpStream, req: &Request) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => respond_json(
            stream,
            200,
            &Value::object([("ok".to_string(), Value::Bool(true))]),
        ),
        ("POST", ["v1", "jobs"]) => {
            let body = String::from_utf8_lossy(&req.body);
            match JobSpec::parse(&body) {
                Ok(spec) => {
                    let (job, cached) = submit(shared, spec);
                    let mut v = match job.to_value() {
                        Value::Object(map) => map,
                        _ => unreachable!("job JSON is an object"),
                    };
                    v.insert("cached".to_string(), Value::Bool(cached));
                    respond_json(stream, 202, &Value::Object(v))
                }
                Err(e) => respond_error(stream, 400, &e.to_string()),
            }
        }
        ("GET", ["v1", "jobs"]) => {
            let jobs = shared.jobs.lock().expect("jobs lock poisoned");
            let list = Value::Array(jobs.values().map(|j| j.to_value()).collect());
            respond_json(stream, 200, &Value::object([("jobs".to_string(), list)]))
        }
        ("GET", ["v1", "jobs", id]) => match lookup(shared, id) {
            Some(job) => respond_json(stream, 200, &job.to_value()),
            None => respond_error(stream, 404, "no such job"),
        },
        ("POST", ["v1", "jobs", id, "cancel"]) => match lookup(shared, id) {
            Some(job) => {
                job.cancel();
                respond_json(
                    stream,
                    200,
                    &Value::object([
                        ("id".to_string(), Value::from(*id)),
                        ("cancelling".to_string(), Value::Bool(true)),
                    ]),
                )
            }
            None => respond_error(stream, 404, "no such job"),
        },
        ("GET", ["v1", "jobs", id, "report"]) => match shared.cache.get(id) {
            // Verbatim cache bytes: the byte-identity contract.
            Some(bytes) => respond_bytes(stream, 200, &bytes),
            None => match lookup(shared, id) {
                Some(job) => match job.state() {
                    JobState::Failed(why) => {
                        respond_error(stream, 409, &format!("job failed: {why}"))
                    }
                    _ => respond_error(stream, 404, "job not finished"),
                },
                None => respond_error(stream, 404, "no such job"),
            },
        },
        ("GET", ["v1", "jobs", id, "progress"]) => match lookup(shared, id) {
            Some(job) => stream_progress(stream, &job),
            None => respond_error(stream, 404, "no such job"),
        },
        _ => respond_error(stream, 404, "no such endpoint"),
    }
}

fn lookup(shared: &Shared, id: &str) -> Option<Arc<Job>> {
    shared
        .jobs
        .lock()
        .expect("jobs lock poisoned")
        .get(id)
        .cloned()
}

/// Stream a job's progress as NDJSON until it reaches a terminal
/// state, then a final `{"event": "done", ...}` line.
fn stream_progress(stream: &mut TcpStream, job: &Job) -> io::Result<()> {
    let mut out = NdjsonStream::begin(stream)?;
    let mut from = 0usize;
    loop {
        let (lines, state) = job.wait_progress(from);
        from += lines.len();
        for line in &lines {
            out.line(line)?;
        }
        if state.is_terminal() {
            let fin = Value::object([
                ("event".to_string(), Value::from("done")),
                ("state".to_string(), Value::from(state.as_str())),
                ("lines".to_string(), Value::from(from)),
            ]);
            out.line(&fin.to_string())?;
            return out.finish();
        }
    }
}
