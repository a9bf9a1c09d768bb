//! Job specifications: what a client submits, and how it becomes both
//! a [`FoamConfig`] and a content-address.
//!
//! A spec deliberately exposes *presets + knobs* rather than the full
//! configuration surface: the service vocabulary is "a `tiny` run,
//! seed 42, 4 simulated days", which keeps the digest space clean and
//! the HTTP API stable. Two axes are kept strictly apart:
//!
//! * **Content** — preset, seed, days, rank/member counts: everything
//!   that determines the simulated bits. These feed the canonical
//!   digest (via [`FoamConfig::canonical_digest`], which also folds in
//!   the crate version), which is the job id *and* the cache key.
//! * **Placement** — tenant, priority, checkpoint cadence: who is
//!   asking and how the service schedules and protects the work. These
//!   never touch the digest, so the same run submitted by two tenants
//!   at different priorities is recognized as the same content and
//!   computed once.

use foam::{CanonicalHasher, FoamConfig};
use foam_ensemble::EnsembleSpec;
use foam_scenario::Scenario;
use foam_telemetry::json::{parse, Value};

/// What kind of computation a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One supervised coupled run.
    Run,
    /// A perturbed-initial-condition seed sweep, aggregated into the
    /// deterministic `foam-ensemble/1` report.
    Ensemble,
}

impl JobKind {
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Run => "run",
            JobKind::Ensemble => "ensemble",
        }
    }
}

/// A parsed, validated job submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub kind: JobKind,
    /// Configuration preset: `tiny`, `century`, or `paper`.
    pub preset: String,
    pub seed: u64,
    pub days: f64,
    /// Atmosphere ranks for the `paper` preset (ignored otherwise —
    /// `tiny`/`century` fix their own decomposition).
    pub ranks: usize,
    /// Ensemble members (`kind == Ensemble` only).
    pub members: usize,
    /// Ensemble worker threads (placement, not content).
    pub workers: usize,
    /// Who submitted (fair-share bucket). Defaults to `"anonymous"`.
    pub tenant: String,
    /// Dispatch priority within the tenant (higher first).
    pub priority: i32,
    /// Checkpoint cadence in coupling intervals.
    pub ckpt_interval: usize,
    /// The scenario this job was submitted as, if any. When present,
    /// `kind`, `preset`, `seed`, `days`, and `members` are *derived*
    /// from the scenario (a sweep becomes an ensemble) and may not be
    /// given alongside it.
    pub scenario: Option<ScenarioJob>,
}

/// A scenario-file submission: the raw source (persisted in
/// `spec.json` so restart recovery can re-derive everything) plus its
/// parsed, validated form.
#[derive(Debug, Clone)]
pub struct ScenarioJob {
    pub src: String,
    pub scenario: Scenario,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid job spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// `key` as a number, `default` when absent. A present value of another
/// JSON type is an error naming the key, never the default in disguise.
fn get_f64(obj: &Value, key: &str, default: f64) -> Result<f64, SpecError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| SpecError(format!("{key} must be a number"))),
    }
}

fn get_u64(obj: &Value, key: &str, default: u64) -> Result<u64, SpecError> {
    let n = get_f64(obj, key, default as f64)?;
    if n.fract() == 0.0 && n >= 0.0 {
        Ok(n as u64)
    } else {
        Err(SpecError(format!("{key} must be a non-negative integer")))
    }
}

fn get_str<'a>(obj: &'a Value, key: &str, default: &'a str) -> Result<&'a str, SpecError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| SpecError(format!("{key} must be a string"))),
    }
}

/// The placement half of a submission — who is asking and how the
/// service schedules and protects the work — read the same way whether
/// the content half is spelled out or comes from a scenario.
struct Placement {
    tenant: String,
    priority: i32,
    workers: usize,
    ckpt_interval: usize,
}

impl Placement {
    fn parse(v: &Value, default_workers: u64) -> Result<Placement, SpecError> {
        let tenant = get_str(v, "tenant", "anonymous")?;
        if tenant.is_empty() || tenant.len() > 64 {
            return Err(SpecError("tenant must be 1..=64 characters".to_string()));
        }
        Ok(Placement {
            tenant: tenant.to_string(),
            priority: get_f64(v, "priority", 0.0)?.clamp(-1_000.0, 1_000.0) as i32,
            workers: get_u64(v, "workers", default_workers)?.clamp(1, 64) as usize,
            ckpt_interval: get_u64(v, "ckpt_interval", 4)?.max(1) as usize,
        })
    }
}

impl JobSpec {
    /// Parse a submission body. Unknown keys are rejected so typos
    /// (`"dayz": 30`) fail loudly instead of running the default.
    pub fn parse(body: &str) -> Result<JobSpec, SpecError> {
        let v = parse(body).map_err(|e| SpecError(format!("bad JSON: {e}")))?;
        let obj = v
            .as_object()
            .ok_or_else(|| SpecError("body must be a JSON object".to_string()))?;
        const KNOWN: [&str; 11] = [
            "kind",
            "preset",
            "seed",
            "days",
            "ranks",
            "members",
            "workers",
            "tenant",
            "priority",
            "ckpt_interval",
            "scenario",
        ];
        for key in obj.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(SpecError(format!("unknown key {key:?}")));
            }
        }
        if let Some(sv) = v.get("scenario") {
            let src = sv
                .as_str()
                .ok_or_else(|| SpecError("scenario must be a string".to_string()))?;
            // Everything content-shaped is the scenario's to decide.
            for key in ["kind", "preset", "seed", "days", "ranks", "members"] {
                if obj.contains_key(key) {
                    return Err(SpecError(format!(
                        "{key:?} cannot be given alongside \"scenario\" (the scenario defines it)"
                    )));
                }
            }
            return Self::parse_scenario_job(src, &v);
        }
        let kind = match get_str(&v, "kind", "run")? {
            "run" => JobKind::Run,
            "ensemble" => JobKind::Ensemble,
            other => return Err(SpecError(format!("unknown kind {other:?}"))),
        };
        let preset = get_str(&v, "preset", "tiny")?;
        if !matches!(preset, "tiny" | "century" | "paper") {
            return Err(SpecError(format!("unknown preset {preset:?}")));
        }
        let days = get_f64(&v, "days", 1.0)?;
        if !(days > 0.0 && days.is_finite()) {
            return Err(SpecError("days must be positive and finite".to_string()));
        }
        let placement = Placement::parse(&v, 2)?;
        Ok(JobSpec {
            kind,
            preset: preset.to_string(),
            seed: get_u64(&v, "seed", 42)?,
            days,
            ranks: get_u64(&v, "ranks", 4)?.clamp(1, 64) as usize,
            members: get_u64(&v, "members", 2)?.clamp(1, 256) as usize,
            workers: placement.workers,
            tenant: placement.tenant,
            priority: placement.priority,
            ckpt_interval: placement.ckpt_interval,
            scenario: None,
        })
    }

    /// Build a spec from a scenario-file submission: parse + validate
    /// the scenario (spans and all — the diagnostic text goes straight
    /// back to the client), then derive the content fields from it.
    /// Placement fields still come from the surrounding JSON.
    fn parse_scenario_job(src: &str, v: &Value) -> Result<JobSpec, SpecError> {
        let scenario = Scenario::parse(src).map_err(|e| SpecError(format!("scenario: {e}")))?;
        // Validate the lowering now so config()/ensemble() cannot fail
        // later on the executor thread.
        scenario
            .config()
            .map_err(|e| SpecError(format!("scenario: {e}")))?;
        let lowered = scenario
            .ensemble()
            .map_err(|e| SpecError(format!("scenario: {e}")))?;
        let (kind, members, default_workers) = match (&scenario.sweep, lowered) {
            (Some(sweep), Some(spec)) => {
                (JobKind::Ensemble, spec.members.len(), sweep.workers as u64)
            }
            _ => (JobKind::Run, 1, 2),
        };
        let placement = Placement::parse(v, default_workers)?;
        Ok(JobSpec {
            kind,
            preset: scenario.preset.clone(),
            seed: scenario.seed,
            days: scenario.days,
            ranks: 4,
            members,
            workers: placement.workers,
            tenant: placement.tenant,
            priority: placement.priority,
            ckpt_interval: placement.ckpt_interval,
            scenario: Some(ScenarioJob {
                src: src.to_string(),
                scenario,
            }),
        })
    }

    /// The base model configuration this spec names (checkpoint and
    /// telemetry routing are the executor's business, not the spec's).
    pub fn config(&self) -> FoamConfig {
        if let Some(sj) = &self.scenario {
            return sj
                .scenario
                .config()
                .expect("scenario lowering validated at parse");
        }
        match self.preset.as_str() {
            "century" => FoamConfig::century(self.seed),
            "paper" => FoamConfig::paper(self.ranks, self.seed),
            _ => FoamConfig::tiny(self.seed),
        }
    }

    /// The content-address: job id and cache key in one. Folds the
    /// model config's canonical digest (which includes seed and crate
    /// version) with the job-shape fields; placement fields (tenant,
    /// priority, workers, checkpoint cadence) are deliberately
    /// excluded — they cannot change a simulated bit.
    pub fn digest(&self) -> String {
        let mut h = CanonicalHasher::new();
        h.field_str("kind", self.kind.as_str())
            .field_digest("config", &self.config().canonical_digest())
            .field_f64("days", self.days)
            .field_u64(
                "members",
                if self.kind == JobKind::Ensemble {
                    self.members as u64
                } else {
                    0
                },
            );
        if let Some(sj) = &self.scenario {
            // The config digest already folds the scenario's forcings
            // and statics; the scenario content digest adds what lives
            // outside the config — the sweep axis and values.
            h.field_digest(
                "scenario",
                &sj.scenario
                    .content_digest()
                    .expect("scenario lowering validated at parse"),
            );
        }
        h.finish()
    }

    /// The ensemble expansion of this spec (`kind == Ensemble`): the
    /// scenario's sweep when this is a scenario job, a seed sweep
    /// otherwise.
    pub fn ensemble(&self) -> EnsembleSpec {
        let mut spec = match &self.scenario {
            Some(sj) => sj
                .scenario
                .ensemble()
                .expect("scenario lowering validated at parse")
                .expect("kind Ensemble implies a sweep"),
            None => EnsembleSpec::seed_sweep(self.config(), self.days, self.members),
        };
        spec.workers = self.workers;
        spec.ckpt_interval = self.ckpt_interval;
        spec
    }

    /// Canonical JSON form — what `spec.json` stores for restart
    /// recovery and what job listings embed. A scenario job stores the
    /// scenario source plus placement only: the content fields are
    /// derived, and re-deriving on re-parse keeps one source of truth.
    pub fn to_value(&self) -> Value {
        if let Some(sj) = &self.scenario {
            return Value::object([
                ("scenario".to_string(), Value::from(sj.src.as_str())),
                ("workers".to_string(), Value::from(self.workers)),
                ("tenant".to_string(), Value::from(self.tenant.as_str())),
                (
                    "priority".to_string(),
                    Value::from(f64::from(self.priority)),
                ),
                ("ckpt_interval".to_string(), Value::from(self.ckpt_interval)),
            ]);
        }
        Value::object([
            ("kind".to_string(), Value::from(self.kind.as_str())),
            ("preset".to_string(), Value::from(self.preset.as_str())),
            ("seed".to_string(), Value::from(self.seed)),
            ("days".to_string(), Value::from(self.days)),
            ("ranks".to_string(), Value::from(self.ranks)),
            ("members".to_string(), Value::from(self.members)),
            ("workers".to_string(), Value::from(self.workers)),
            ("tenant".to_string(), Value::from(self.tenant.as_str())),
            (
                "priority".to_string(),
                Value::from(f64::from(self.priority)),
            ),
            ("ckpt_interval".to_string(), Value::from(self.ckpt_interval)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_round_trip() {
        let spec = JobSpec::parse(r#"{"preset":"tiny","seed":7,"days":2}"#).unwrap();
        assert_eq!(spec.kind, JobKind::Run);
        assert_eq!(spec.tenant, "anonymous");
        let rt = JobSpec::parse(&spec.to_value().to_string_pretty()).unwrap();
        assert_eq!(rt.digest(), spec.digest());
        assert_eq!(rt.tenant, spec.tenant);
    }

    #[test]
    fn placement_fields_do_not_move_the_digest() {
        let a = JobSpec::parse(r#"{"seed":7,"days":2}"#).unwrap();
        let b = JobSpec::parse(
            r#"{"seed":7,"days":2,"tenant":"alice","priority":9,"workers":8,"ckpt_interval":2}"#,
        )
        .unwrap();
        assert_eq!(a.digest(), b.digest());
        // Content fields do.
        let c = JobSpec::parse(r#"{"seed":8,"days":2}"#).unwrap();
        let d = JobSpec::parse(r#"{"seed":7,"days":3}"#).unwrap();
        let e = JobSpec::parse(r#"{"seed":7,"days":2,"kind":"ensemble"}"#).unwrap();
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
        assert_ne!(a.digest(), e.digest());
    }

    #[test]
    fn scenario_jobs_derive_content_and_get_distinct_digests() {
        let ramp = "[scenario]\nname = \"ramp\"\npreset = tiny\nseed = 7\ndays = 4\n\
                    [forcing.co2]\nkind = ramp\nfrom = 1.0\nto = 2.0\nstart_day = 0\nend_day = 4\n";
        let pulse = "[scenario]\nname = \"pulse\"\npreset = tiny\nseed = 7\ndays = 4\n\
                     [forcing.aerosol]\nkind = pulse\npeak = 0.1\nonset_day = 0\n\
                     rise_days = 1\ndecay_days = 2\n";
        let control = "[scenario]\nname = \"control\"\npreset = tiny\nseed = 7\ndays = 4\n";
        let body = |src: &str| {
            Value::object([("scenario".to_string(), Value::from(src))]).to_string_pretty()
        };
        let a = JobSpec::parse(&body(ramp)).unwrap();
        let b = JobSpec::parse(&body(pulse)).unwrap();
        let c = JobSpec::parse(&body(control)).unwrap();
        assert_eq!(a.kind, JobKind::Run);
        assert_eq!(a.preset, "tiny");
        assert_eq!(a.seed, 7);
        assert_eq!(a.days, 4.0);
        // The satellite regression: same base preset/seed/days, but the
        // scenarios' forcing content keeps every digest distinct.
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(b.digest(), c.digest());
        // spec.json round-trip re-derives identical content.
        let rt = JobSpec::parse(&a.to_value().to_string_pretty()).unwrap();
        assert_eq!(rt.digest(), a.digest());
        assert_eq!(
            rt.config().canonical_digest(),
            a.config().canonical_digest()
        );
    }

    #[test]
    fn sweep_scenarios_become_ensemble_jobs() {
        let sweep = "[scenario]\nname = \"sweep\"\ndays = 2\n\
                     [sweep]\naxis = solar_scale\nvalues = [0.99, 1.0, 1.01]\nworkers = 3\n";
        let body = Value::object([("scenario".to_string(), Value::from(sweep))]);
        let spec = JobSpec::parse(&body.to_string_pretty()).unwrap();
        assert_eq!(spec.kind, JobKind::Ensemble);
        assert_eq!(spec.members, 3);
        assert_eq!(spec.workers, 3);
        let es = spec.ensemble();
        assert_eq!(es.members.len(), 3);
        assert_eq!(
            es.member_config(&es.members[0]).atm.physics.rad.solar_scale,
            0.99
        );
    }

    #[test]
    fn scenario_jobs_reject_conflicts_and_bad_sources() {
        let body = Value::object([
            (
                "scenario".to_string(),
                Value::from("[scenario]\nname = \"x\"\n"),
            ),
            ("seed".to_string(), Value::from(9u64)),
        ]);
        let err = JobSpec::parse(&body.to_string_pretty()).unwrap_err();
        assert!(err.0.contains("seed"), "{err}");
        // Scenario diagnostics (with spans) surface through SpecError.
        let bad = Value::object([(
            "scenario".to_string(),
            Value::from("[scenario]\nname = \"x\"\ndayz = 1\n"),
        )]);
        let err = JobSpec::parse(&bad.to_string_pretty()).unwrap_err();
        assert!(err.0.contains("line 3"), "{err}");
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(JobSpec::parse(r#"{"dayz":30}"#).is_err());
        assert!(JobSpec::parse(r#"{"days":0}"#).is_err());
        assert!(JobSpec::parse(r#"{"days":-1}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"sorcery"}"#).is_err());
        assert!(JobSpec::parse(r#"{"preset":"huge"}"#).is_err());
        assert!(JobSpec::parse(r#"{"seed":1.5}"#).is_err());
        assert!(JobSpec::parse("[]").is_err());
        assert!(JobSpec::parse("not json").is_err());
        // A present key of the wrong JSON type names itself instead of
        // silently running the default.
        for (body, key) in [
            (r#"{"days":"30"}"#, "days"),
            (r#"{"preset":7}"#, "preset"),
            (r#"{"tenant":5}"#, "tenant"),
            (r#"{"priority":"high"}"#, "priority"),
            (r#"{"kind":3}"#, "kind"),
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert!(err.0.starts_with(key), "{body}: {err}");
        }
    }

    #[test]
    fn placement_is_checked_the_same_with_and_without_a_scenario() {
        let long = "t".repeat(65);
        let plain = Value::object([("tenant".to_string(), Value::from(long.as_str()))]);
        let with_scenario = Value::object([
            ("tenant".to_string(), Value::from(long.as_str())),
            (
                "scenario".to_string(),
                Value::from("[scenario]\nname = \"x\"\n"),
            ),
        ]);
        let a = JobSpec::parse(&plain.to_string_pretty()).unwrap_err();
        let b = JobSpec::parse(&with_scenario.to_string_pretty()).unwrap_err();
        assert_eq!(a, b);
        assert!(a.0.contains("tenant"), "{a}");
    }
}
