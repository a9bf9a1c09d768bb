//! In-memory job state: the queued→running→recovering→done/failed
//! machine, live progress fan-out, and the observer that
//! bridges a running simulation to its watchers.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use foam::{ProgressEvent, RecoveryEvent, RunObserver};
use foam_telemetry::json::Value;

use crate::spec::JobSpec;

/// Where a job is in its lifecycle. Linear except for the
/// running⇄recovering oscillation (each supervisor rollback enters
/// `Recovering`; the next completed interval returns to `Running`).
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// In the fair-share queue, waiting for a worker. (Jobs served
    /// straight from cache start as `Done`.)
    Queued,
    /// A worker is integrating it.
    Running,
    /// The supervisor is rolling back to a snapshot after a fault.
    Recovering,
    /// Finished; the report is in the cache.
    Done,
    /// Gave up (unrecoverable fault, exhausted recovery budget, or
    /// cancellation). The detail string says why; checkpoints stay on
    /// disk, so a server restart retries the job from its newest
    /// snapshot.
    Failed(String),
}

impl JobState {
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Recovering => "recovering",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }

    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed(_))
    }
}

struct Progress {
    state: JobState,
    /// NDJSON lines already emitted (each a serialized JSON object,
    /// no trailing newline). Streams replay these, then follow.
    lines: Vec<String>,
    /// Set when the first (possibly only) execution attempt resumed
    /// from a pre-existing snapshot — i.e. this server continued a job
    /// a previous incarnation left behind.
    resumed_from: Option<usize>,
}

/// One job the server knows about, shared between the HTTP threads,
/// the queue, and the executing worker.
pub struct Job {
    /// Content digest: job id and cache key.
    pub digest: String,
    pub spec: JobSpec,
    /// Times a worker actually integrated this job (0 when served
    /// entirely from cache; 1 under single-flight no matter how many
    /// clients submitted it).
    pub executions: AtomicUsize,
    /// Cooperative cancellation flag, polled once per coupling interval.
    cancel: AtomicBool,
    progress: Mutex<Progress>,
    changed: Condvar,
}

impl Job {
    pub fn new(digest: String, spec: JobSpec, state: JobState) -> Self {
        Job {
            digest,
            spec,
            executions: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            progress: Mutex::new(Progress {
                state,
                lines: Vec::new(),
                resumed_from: None,
            }),
            changed: Condvar::new(),
        }
    }

    pub fn state(&self) -> JobState {
        self.progress
            .lock()
            .expect("job lock poisoned")
            .state
            .clone()
    }

    pub fn set_state(&self, state: JobState) {
        let mut p = self.progress.lock().expect("job lock poisoned");
        // Terminal states are final: a late observer callback must not
        // resurrect a job already marked done or failed.
        if p.state.is_terminal() {
            return;
        }
        p.state = state;
        drop(p);
        self.changed.notify_all();
    }

    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    pub fn set_resumed_from(&self, interval: usize) {
        let mut p = self.progress.lock().expect("job lock poisoned");
        p.resumed_from = Some(interval);
    }

    /// Append one NDJSON progress line and wake streamers.
    pub fn push_line(&self, line: String) {
        let mut p = self.progress.lock().expect("job lock poisoned");
        p.lines.push(line);
        drop(p);
        self.changed.notify_all();
    }

    /// Progress lines from index `from` on, plus the current state.
    /// Blocks until there is something newer than `from` or the job is
    /// terminal — the long-poll a streaming response is built from.
    pub fn wait_progress(&self, from: usize) -> (Vec<String>, JobState) {
        let mut p = self.progress.lock().expect("job lock poisoned");
        loop {
            if p.lines.len() > from || p.state.is_terminal() {
                return (p.lines[from.min(p.lines.len())..].to_vec(), p.state.clone());
            }
            p = self.changed.wait(p).expect("job lock poisoned");
        }
    }

    /// The job's public JSON shape (the `GET /v1/jobs/<id>` body).
    pub fn to_value(&self) -> Value {
        let p = self.progress.lock().expect("job lock poisoned");
        let mut fields = vec![
            ("id".to_string(), Value::from(self.digest.as_str())),
            ("kind".to_string(), Value::from(self.spec.kind.as_str())),
            ("tenant".to_string(), Value::from(self.spec.tenant.as_str())),
            ("state".to_string(), Value::from(p.state.as_str())),
            (
                "executions".to_string(),
                Value::from(self.executions.load(Ordering::Acquire)),
            ),
            ("progress_lines".to_string(), Value::from(p.lines.len())),
            ("spec".to_string(), self.spec.to_value()),
        ];
        if let JobState::Failed(why) = &p.state {
            fields.push(("detail".to_string(), Value::from(why.as_str())));
        }
        if let Some(from) = p.resumed_from {
            fields.push(("resumed_from_interval".to_string(), Value::from(from)));
        }
        Value::object(fields)
    }
}

/// The bridge from a running simulation (root rank callbacks) to the
/// job's watchers: progress lines, state flips, cancellation.
pub struct JobObserver<'a> {
    pub job: &'a Job,
}

impl RunObserver for JobObserver<'_> {
    fn on_interval(&self, ev: &ProgressEvent) {
        // A completed interval means any rollback has been replayed.
        self.job.set_state(JobState::Running);
        let line = Value::object([
            ("day".to_string(), Value::from(ev.day)),
            ("interval".to_string(), Value::from(ev.interval)),
            ("mean_sst".to_string(), Value::from(ev.mean_sst)),
            ("n_intervals".to_string(), Value::from(ev.n_intervals)),
        ]);
        self.job.push_line(line.to_string());
    }

    fn should_stop(&self) -> bool {
        self.job.cancelled()
    }

    fn on_recovery(&self, ev: &RecoveryEvent) {
        self.job.set_state(JobState::Recovering);
        let line = Value::object([
            ("event".to_string(), Value::from("recovery")),
            ("fault".to_string(), Value::from(ev.fault.to_string())),
            (
                "replayed_intervals".to_string(),
                Value::from(ev.replayed_intervals),
            ),
        ]);
        self.job.push_line(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    fn job() -> Job {
        let spec = JobSpec::parse(r#"{"seed":1,"days":1}"#).unwrap();
        Job::new(spec.digest(), spec, JobState::Queued)
    }

    #[test]
    fn terminal_states_are_sticky() {
        let j = job();
        j.set_state(JobState::Running);
        assert_eq!(j.state(), JobState::Running);
        j.set_state(JobState::Failed("boom".to_string()));
        j.set_state(JobState::Running); // late callback: ignored
        assert_eq!(j.state(), JobState::Failed("boom".to_string()));
    }

    #[test]
    fn wait_progress_returns_new_lines_and_unblocks_on_terminal() {
        let j = std::sync::Arc::new(job());
        j.push_line("{\"day\": 0.25}".to_string());
        let (lines, _) = j.wait_progress(0);
        assert_eq!(lines, vec!["{\"day\": 0.25}".to_string()]);
        // A waiter past the end unblocks when the job finishes.
        let waiter = {
            let j = std::sync::Arc::clone(&j);
            std::thread::spawn(move || j.wait_progress(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        j.set_state(JobState::Done);
        let (lines, state) = waiter.join().unwrap();
        assert!(lines.is_empty());
        assert_eq!(state, JobState::Done);
    }

    #[test]
    fn oneline_json_is_single_line_and_parses_back() {
        // Progress lines are the compact `Display` form of a `Value`;
        // NDJSON needs each to stay on one line.
        let v = Value::object([
            ("day".to_string(), Value::from(0.25)),
            ("note".to_string(), Value::from("two\nlines")),
        ]);
        let line = v.to_string();
        assert!(!line.contains('\n'));
        assert_eq!(foam_telemetry::json::parse(&line).unwrap(), v);
    }
}
