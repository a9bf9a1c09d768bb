//! End-to-end tests of `foam-server`: the full submit → stream →
//! report lifecycle over real loopback HTTP, the single-flight and
//! content-cache contracts, and the crash-restart-resume guarantee
//! (kill the server mid-job, start a new one on the same root, get the
//! same report bits an uninterrupted run produces).

use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use foam_server::client::{get, post};
use foam_server::http::READ_TIMEOUT;
use foam_server::{Server, ServerConfig, MAX_CONNECTIONS};
use foam_telemetry::json::{parse, Value};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "foam-server-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(root: &PathBuf) -> Server {
    let mut cfg = ServerConfig::new(root);
    cfg.workers = 2;
    Server::start(cfg, "127.0.0.1:0").expect("bind loopback")
}

fn json(body: &str) -> Value {
    parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {v:?}"))
}

/// Poll a job until it reaches `done` (panicking on `failed`).
fn wait_done(addr: &str, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let state = json(&get(addr, &format!("/v1/jobs/{id}")).expect("poll").text());
        match field(&state, "state").as_str() {
            Some("done") => return state,
            Some("failed") => panic!("job {id} failed: {state:?}"),
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

#[test]
fn submit_stream_report_end_to_end() {
    let root = scratch("e2e");
    let server = boot(&root);
    let addr = server.addr().to_string();

    assert_eq!(get(&addr, "/v1/healthz").unwrap().status, 200);

    // Submit a 1-day tiny run: 4 coupling intervals at 6 hours.
    let sub = post(
        &addr,
        "/v1/jobs",
        r#"{"preset":"tiny","seed":901,"days":1,"tenant":"ada"}"#,
    )
    .unwrap();
    assert_eq!(sub.status, 202, "{}", sub.text());
    let sv = json(&sub.text());
    let id = field(&sv, "id").as_str().expect("id").to_string();
    assert_eq!(id.len(), 16, "job id is the 16-hex content digest");
    assert_eq!(field(&sv, "cached"), &Value::Bool(false));

    // The progress stream: one NDJSON object per interval, strictly
    // increasing simulated days, then the final done event.
    let lines = get(&addr, &format!("/v1/jobs/{id}/progress"))
        .unwrap()
        .lines();
    assert_eq!(lines.len(), 5, "4 intervals + done event: {lines:?}");
    let mut last_day = 0.0;
    for line in &lines[..4] {
        let ev = json(line);
        let day = field(&ev, "day").as_f64().expect("day");
        assert!(day > last_day, "days must increase: {lines:?}");
        last_day = day;
        assert!(field(&ev, "mean_sst").as_f64().expect("sst").is_finite());
        assert_eq!(field(&ev, "n_intervals").as_f64(), Some(4.0));
    }
    let done = json(&lines[4]);
    assert_eq!(field(&done, "event").as_str(), Some("done"));
    assert_eq!(field(&done, "state").as_str(), Some("done"));

    // The report: deterministic schema, series matching the stream.
    let state = wait_done(&addr, &id);
    assert_eq!(field(&state, "executions").as_f64(), Some(1.0));
    let report = get(&addr, &format!("/v1/jobs/{id}/report")).unwrap();
    assert_eq!(report.status, 200);
    let rv = json(&report.text());
    assert_eq!(field(&rv, "schema").as_str(), Some("foam-server/1"));
    assert_eq!(field(&rv, "id").as_str(), Some(id.as_str()));
    let series = field(&rv, "mean_sst_series").as_array().expect("series");
    assert_eq!(series.len(), 4);
    assert_eq!(
        series[3].as_f64(),
        json(&lines[3]).get("mean_sst").and_then(Value::as_f64)
    );

    // Unknown endpoints and jobs answer typed errors, not hangs.
    assert_eq!(get(&addr, "/v1/jobs/ffffffffffffffff").unwrap().status, 404);
    assert_eq!(get(&addr, "/v1/nope").unwrap().status, 404);
    assert_eq!(
        post(&addr, "/v1/jobs", "{\"dayz\": 1}").unwrap().status,
        400
    );
    // A wrong-typed value is refused by name, not run as the default.
    let typed = post(&addr, "/v1/jobs", "{\"days\": \"30\"}").unwrap();
    assert_eq!(typed.status, 400);
    assert!(
        typed.text().contains("days must be a number"),
        "{}",
        typed.text()
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicate_submissions_single_flight_and_cache_across_restart() {
    let root = scratch("dup");
    let server = boot(&root);
    let addr = server.addr().to_string();
    let spec = r#"{"preset":"tiny","seed":902,"days":1}"#;

    // N clients race the same content; everyone must land on one job.
    let ids: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let sub = post(&addr, "/v1/jobs", spec).expect("submit");
                    assert_eq!(sub.status, 202);
                    field(&json(&sub.text()), "id")
                        .as_str()
                        .expect("id")
                        .to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let id = ids[0].clone();
    assert!(ids.iter().all(|i| *i == id), "all submitters share one job");

    // Exactly one execution, every caller the same bytes.
    let state = wait_done(&addr, &id);
    assert_eq!(
        field(&state, "executions").as_f64(),
        Some(1.0),
        "single-flight must execute once: {state:?}"
    );
    let report = get(&addr, &format!("/v1/jobs/{id}/report")).unwrap().body;
    for _ in 0..3 {
        assert_eq!(
            get(&addr, &format!("/v1/jobs/{id}/report")).unwrap().body,
            report
        );
    }
    // A warm resubmission is a declared cache hit.
    let re = json(&post(&addr, "/v1/jobs", spec).unwrap().text());
    assert_eq!(field(&re, "cached"), &Value::Bool(true));
    server.shutdown();

    // Cold resubmit after restart: served from the on-disk cache with
    // zero executions — the model never runs again.
    let server = boot(&root);
    let addr = server.addr().to_string();
    let re = json(&post(&addr, "/v1/jobs", spec).unwrap().text());
    assert_eq!(field(&re, "cached"), &Value::Bool(true));
    assert_eq!(field(&re, "state").as_str(), Some("done"));
    assert_eq!(field(&re, "executions").as_f64(), Some(0.0));
    assert_eq!(
        get(&addr, &format!("/v1/jobs/{id}/report")).unwrap().body,
        report,
        "cached report must be byte-identical across restarts"
    );
    // A cached job's progress stream is just the done event.
    let lines = get(&addr, &format!("/v1/jobs/{id}/progress"))
        .unwrap()
        .lines();
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains("\"event\": \"done\""));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killed_server_resumes_job_from_checkpoint_with_identical_report_bits() {
    let spec = r#"{"preset":"tiny","seed":903,"days":4,"ckpt_interval":2}"#;

    // Reference: the same content on an undisturbed server.
    let clean_root = scratch("resume-clean");
    let server = boot(&clean_root);
    let addr = server.addr().to_string();
    let sub = json(&post(&addr, "/v1/jobs", spec).unwrap().text());
    let id = field(&sub, "id").as_str().expect("id").to_string();
    wait_done(&addr, &id);
    let reference = get(&addr, &format!("/v1/jobs/{id}/report")).unwrap().body;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&clean_root);

    // Victim: same content, but the server "dies" mid-job — after at
    // least one committed checkpoint (interval 2 of 16), before the end.
    let root = scratch("resume");
    let server = boot(&root);
    let addr = server.addr().to_string();
    let sub = json(&post(&addr, "/v1/jobs", spec).unwrap().text());
    assert_eq!(
        field(&sub, "id").as_str(),
        Some(id.as_str()),
        "same content, same id"
    );
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let state = json(&get(&addr, &format!("/v1/jobs/{id}")).unwrap().text());
        let lines = field(&state, "progress_lines").as_f64().unwrap_or(0.0);
        if lines >= 3.0 {
            break; // the interval-2 snapshot is committed by now
        }
        assert!(
            field(&state, "state").as_str() != Some("done") && Instant::now() < deadline,
            "job finished before we could kill the server: {state:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown(); // cancels the running job; checkpoints stay on disk
    assert!(
        !root.join("cache").join(format!("{id}.json")).exists(),
        "the interrupted job must not have produced a report"
    );

    // Restart on the same root: the job is rediscovered from its
    // spec.json, resumed from its newest snapshot (not from scratch),
    // and converges to exactly the reference bits.
    let server = boot(&root);
    let addr = server.addr().to_string();
    let state = wait_done(&addr, &id);
    let resumed = field(&state, "resumed_from_interval")
        .as_f64()
        .expect("resumed job");
    assert!(
        resumed >= 2.0,
        "resume must start from a committed snapshot, got {resumed}"
    );
    assert_eq!(
        get(&addr, &format!("/v1/jobs/{id}/report")).unwrap().body,
        reference,
        "a resumed job must converge to the same report bits"
    );
    // The completed job's checkpoint root is garbage-collected; the
    // cache entry replaces it.
    assert!(!root.join("jobs").join(format!("job-{id}")).exists());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancel_stops_a_running_job_and_keeps_it_resumable() {
    let root = scratch("cancel");
    let server = boot(&root);
    let addr = server.addr().to_string();
    // A long job we will never let finish.
    let sub = json(
        &post(
            &addr,
            "/v1/jobs",
            r#"{"preset":"tiny","seed":904,"days":30,"ckpt_interval":2}"#,
        )
        .unwrap()
        .text(),
    );
    let id = field(&sub, "id").as_str().expect("id").to_string();
    // Wait for it to actually run, then cancel.
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let state = json(&get(&addr, &format!("/v1/jobs/{id}")).unwrap().text());
        if field(&state, "progress_lines").as_f64().unwrap_or(0.0) >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let cancel = post(&addr, &format!("/v1/jobs/{id}/cancel"), "").unwrap();
    assert_eq!(cancel.status, 200);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = json(&get(&addr, &format!("/v1/jobs/{id}")).unwrap().text());
        if field(&state, "state").as_str() == Some("failed") {
            assert_eq!(field(&state, "detail").as_str(), Some("cancelled"));
            break;
        }
        assert!(Instant::now() < deadline, "cancel never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // No report, but the checkpoints survive for a later resume.
    assert_eq!(
        get(&addr, &format!("/v1/jobs/{id}/report")).unwrap().status,
        409
    );
    assert!(root.join("jobs").join(format!("job-{id}")).is_dir());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn ensemble_jobs_serve_the_deterministic_ensemble_report() {
    let root = scratch("ens");
    let server = boot(&root);
    let addr = server.addr().to_string();
    let spec = r#"{"kind":"ensemble","preset":"tiny","seed":905,"days":1,"members":2,"workers":2}"#;
    let sub = json(&post(&addr, "/v1/jobs", spec).unwrap().text());
    let id = field(&sub, "id").as_str().expect("id").to_string();
    wait_done(&addr, &id);
    let report = json(&get(&addr, &format!("/v1/jobs/{id}/report")).unwrap().text());
    assert_eq!(field(&report, "kind").as_str(), Some("ensemble"));
    let ens = field(&report, "ensemble");
    assert_eq!(field(ens, "schema").as_str(), Some(foam_ensemble::SCHEMA));
    assert_eq!(field(ens, "members").as_array().map(|m| m.len()), Some(2));
    // Same content resubmitted: cache hit, identical bytes.
    let re = json(&post(&addr, "/v1/jobs", spec).unwrap().text());
    assert_eq!(field(&re, "cached"), &Value::Bool(true));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn idle_connection_is_answered_400_and_closed() {
    let root = scratch("idle");
    let server = boot(&root);
    let margin = Duration::from_secs(5);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(READ_TIMEOUT + margin))
        .unwrap();
    let t0 = Instant::now();
    // Send nothing: the server must give up on the head and close.
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("server closed the idle connection");
    assert!(t0.elapsed() < READ_TIMEOUT + margin);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn connections_beyond_the_cap_are_answered_503() {
    let root = scratch("cap");
    let server = boot(&root);
    let read_reply = |stream: &mut TcpStream| {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    };
    // Hold every handler with an idle connection (each waits up to
    // READ_TIMEOUT for a request head), then one more is refused.
    let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    let mut extra = TcpStream::connect(server.addr()).unwrap();
    let reply = read_reply(&mut extra);
    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
    // Once one idle connection is answered and closed, a new one is
    // served.
    let mut first = idle.remove(0);
    assert!(read_reply(&mut first).starts_with("HTTP/1.1 400"));
    let addr = server.addr().to_string();
    let t0 = Instant::now();
    loop {
        let status = get(&addr, "/v1/healthz").map(|r| r.status);
        if status.as_ref().is_ok_and(|&code| code == 200) {
            break;
        }
        assert!(t0.elapsed() < READ_TIMEOUT * 2, "not served: {status:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(idle);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
