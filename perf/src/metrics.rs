//! The metric tables (the same names `BENCHMARK.json` lists), the
//! ledger one run fills, and the result JSON it is written as.

use std::collections::BTreeMap;

use foam_telemetry::json::Value;

use crate::stats::Summary;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// End to end: what a user of the system sees, untraced runs only.
    E,
    /// Probe: a benchmark-owned timed loop around a public call.
    P,
    /// Read from what the traced run returned.
    R,
    /// Computed from sizes, not measured.
    C,
}

impl Source {
    pub fn as_str(self) -> &'static str {
        match self {
            Source::E => "E",
            Source::P => "P",
            Source::R => "R",
            Source::C => "C",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub source: Source,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str, source: Source) -> Def {
    Def {
        name,
        unit,
        better,
        source,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "r15_coupled",
    "r15_atm2",
    "ocean_r15",
    "century_year",
    "server_mix",
];

/// Every workload reports every one of these (README.md says what each
/// means per workload).
pub const END_TO_END: [Def; 4] = [
    def("setup_s", "s", "lower", Source::E),
    def("model_speedup", "sim_s/s", "higher", Source::E),
    def("op_p50_ms", "ms", "lower", Source::E),
    def("peak_heap_mb", "MB", "lower", Source::E),
];

use Source::{C, P, R};

/// The per-layer ledger. A metric whose layer does no work in the
/// workload asked for is reported as 0 with `n = 0`.
pub const PER_LAYER: [Def; 73] = [
    def("spectral.analysis_r15_us", "us", "lower", P),
    def("spectral.synthesis_r15_us", "us", "lower", P),
    def("spectral.analysis_r3_us", "us", "lower", P),
    def("spectral.fft48_ns", "ns", "lower", P),
    def("spectral.analysis_flops", "count", "lower", C),
    def("spectral.analysis_bytes", "bytes", "lower", C),
    def("spectral.flops_per_byte", "ratio", "higher", C),
    def("spectral.par_analysis_2rank_us", "us", "lower", P),
    def("spectral.transforms_per_step", "count", "lower", R),
    def("atm.step_r15_ms", "ms", "lower", P),
    def("atm.rad_step_r15_ms", "ms", "lower", P),
    def("atm.step_r3_us", "us", "lower", P),
    def("atm.spectral_share", "ratio", "lower", R),
    def("atm.dynamics_share", "ratio", "lower", R),
    def("atm.physics_share", "ratio", "lower", R),
    def("atm.work_imbalance", "ratio", "lower", R),
    def("atm.rank_scaling_eff", "ratio", "higher", R),
    def("physics.column_step_us", "us", "lower", P),
    def("physics.full_radiation_us", "us", "lower", P),
    def("coupler.step_rows_r15_us", "us", "lower", P),
    def("coupler.route_rivers_r15_us", "us", "lower", P),
    def("coupler.step_rows_r3_us", "us", "lower", P),
    def("grid.atm_to_ocean_us", "us", "lower", P),
    def("grid.ocean_to_atm_us", "us", "lower", P),
    def("grid.overlap_build_ms", "ms", "lower", P),
    def("ocean.step_coupled_ms", "ms", "lower", P),
    def("ocean.baroclinic_ms", "ms", "lower", R),
    def("ocean.barotropic_ms", "ms", "lower", R),
    def("ocean.tracers_ms", "ms", "lower", R),
    def("ocean.polar_filter_ms", "ms", "lower", R),
    def("ocean.barotropic_sub_us", "us", "lower", P),
    def("ocean.polar_apply_us", "us", "lower", P),
    def("ocean.subcycles_per_day", "count", "lower", R),
    def("ocean.work_units_per_day", "count", "lower", R),
    def("ocean.busy_frac", "ratio", "higher", R),
    def("mpi.allreduce_2rank_us", "us", "lower", P),
    def("mpi.pingpong_us", "us", "lower", P),
    def("mpi.msgs_per_sim_day", "count", "lower", R),
    def("mpi.bytes_per_sim_day", "bytes", "lower", R),
    def("mpi.allreduce_per_step", "count", "lower", R),
    def("mpi.wait_frac_atm", "ratio", "lower", R),
    def("mpi.wait_frac_ocean", "ratio", "lower", R),
    def("core.interval_p50_ms", "ms", "lower", R),
    def("core.interval_p95_ms", "ms", "lower", R),
    def("core.driver_overhead_frac", "ratio", "lower", R),
    def("core.drain_frac", "ratio", "lower", R),
    def("core.allocs_per_sim_day", "count", "lower", R),
    def("core.alloc_bytes_per_sim_day", "bytes", "lower", R),
    def("core.sst_abs_err_c", "C", "lower", R),
    def("core.trace_overhead_frac", "ratio", "lower", R),
    def("ckpt.snapshot_mb", "MB", "lower", P),
    def("ckpt.write_ms", "ms", "lower", P),
    def("ckpt.load_ms", "ms", "lower", P),
    def("ckpt.write_mb_per_s", "MB/s", "higher", P),
    def("ckpt.read_mb_per_s", "MB/s", "higher", P),
    def("stats.push_month_us", "us", "lower", P),
    def("scenario.parse_lower_us", "us", "lower", P),
    def("server.spec_parse_us", "us", "lower", P),
    def("server.cache_get_us", "us", "lower", P),
    def("server.cache_put_us", "us", "lower", P),
    def("server.cache_evictions", "count", "lower", P),
    def("server.submit_ms", "ms", "lower", R),
    def("server.queue_wait_p50_ms", "ms", "lower", R),
    def("server.run_p50_ms", "ms", "lower", R),
    def("server.fetch_ms", "ms", "lower", R),
    def("server.jobs_per_s", "1/s", "higher", R),
    def("server.cold_job_p50_ms", "ms", "lower", R),
    def("server.hit_tail_ms", "ms", "lower", R),
    def("server.joined_duplicates", "count", "higher", R),
    def("server.hit_count", "count", "higher", R),
    def("server.hit_bytes_identical", "count", "higher", R),
    def("ensemble.member_s", "s", "lower", P),
    def("ensemble.queue_submit_pop_us", "us", "lower", P),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Seconds-to-unit factor of a time unit.
fn per_second(unit: &str) -> Option<f64> {
    match unit {
        "s" => Some(1.0),
        "ms" => Some(1e3),
        "us" => Some(1e6),
        "ns" => Some(1e9),
        _ => None,
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub summary: Summary,
    pub unit: String,
    pub source: String,
    /// E.g. the percentile a tail metric settled on.
    pub note: Option<String>,
}

/// The named numbers one run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    pub entries: BTreeMap<String, Entry>,
}

impl Ledger {
    fn insert(&mut self, name: &str, summary: Summary, note: Option<String>) {
        let def = find(name).unwrap_or_else(|| panic!("{name} is not in the metric tables"));
        self.entries.insert(
            name.to_string(),
            Entry {
                summary,
                unit: def.unit.to_string(),
                source: def.source.as_str().to_string(),
                note,
            },
        );
    }

    /// Samples already in the metric's unit.
    pub fn samples(&mut self, name: &str, values: &[f64]) {
        self.insert(name, Summary::of(values), None);
    }

    /// Samples in seconds, converted to the metric's time unit.
    pub fn seconds(&mut self, name: &str, seconds: &[f64]) {
        let k = find(name)
            .and_then(|d| per_second(d.unit))
            .unwrap_or_else(|| panic!("{name} is not a time metric"));
        let scaled: Vec<f64> = seconds.iter().map(|s| s * k).collect();
        self.samples(name, &scaled);
    }

    /// One counted, computed or derived value.
    pub fn value(&mut self, name: &str, v: f64) {
        self.insert(name, Summary::exact(v), None);
    }

    pub fn noted(&mut self, name: &str, v: f64, n: usize, note: &str) {
        let mut s = Summary::exact(v);
        s.n = n;
        self.insert(name, s, Some(note.to_string()));
    }

    /// Give every metric of `defs` an entry: what the run did not
    /// measure reads 0 with no samples.
    pub fn fill_missing(&mut self, defs: &[Def]) {
        for d in defs {
            if !self.entries.contains_key(d.name) {
                let mut s = Summary::exact(0.0);
                s.n = 0;
                self.insert(d.name, s, Some("layer idle in this workload".to_string()));
            }
        }
    }

    /// Entries of `defs` that are missing or not finite.
    pub fn unusable(&self, defs: &[Def]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| {
                self.entries
                    .get(d.name)
                    .is_none_or(|e| !e.summary.median.is_finite())
            })
            .map(|d| d.name)
            .collect()
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(why.into());
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }
}

/// One run's result, as written to `perf/out/` and (in the short form)
/// printed as the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub ledger: Ledger,
    /// Failure reasons, environment, sizes: free-form context.
    pub context: BTreeMap<String, Value>,
}

impl RunResult {
    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter restricted to `defs`.
    pub fn driver_line(&self, defs: &[Def]) -> String {
        let metrics = Value::object(defs.iter().filter_map(|d| {
            let e = self.ledger.entries.get(d.name)?;
            Some((
                d.name.to_string(),
                Value::object([
                    ("value".to_string(), Value::from(e.summary.median)),
                    ("unit".to_string(), Value::from(e.unit.as_str())),
                ]),
            ))
        }));
        Value::object([
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), metrics),
        ])
        .to_string()
    }

    pub fn to_json(&self) -> Value {
        let metrics = Value::object(self.ledger.entries.iter().map(|(name, e)| {
            let mut fields = vec![
                ("value".to_string(), Value::from(e.summary.median)),
                ("unit".to_string(), Value::from(e.unit.as_str())),
                ("n".to_string(), Value::from(e.summary.n)),
                ("q1".to_string(), Value::from(e.summary.q1)),
                ("q3".to_string(), Value::from(e.summary.q3)),
                ("source".to_string(), Value::from(e.source.as_str())),
            ];
            if let Some(note) = &e.note {
                fields.push(("note".to_string(), Value::from(note.as_str())));
            }
            (name.clone(), Value::object(fields))
        }));
        Value::object([
            ("schema".to_string(), Value::from("foam-perf/1")),
            ("workload".to_string(), Value::from(self.workload.as_str())),
            ("seed".to_string(), Value::from(self.seed)),
            ("seconds".to_string(), Value::from(self.seconds)),
            ("trace".to_string(), Value::Bool(self.traced)),
            ("smoke".to_string(), Value::Bool(self.smoke)),
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), metrics),
            ("context".to_string(), Value::Object(self.context.clone())),
        ])
    }

    pub fn from_json(v: &Value) -> Option<RunResult> {
        let flag = |k: &str| match v.get(k) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        let mut ledger = Ledger::default();
        for (name, m) in v.get("metrics")?.as_object()? {
            let f = |k: &str| m.get(k).and_then(Value::as_f64);
            ledger.entries.insert(
                name.clone(),
                Entry {
                    summary: Summary {
                        n: f("n")? as usize,
                        q1: f("q1")?,
                        median: f("value")?,
                        q3: f("q3")?,
                    },
                    unit: m.get("unit")?.as_str()?.to_string(),
                    source: m.get("source")?.as_str()?.to_string(),
                    note: m.get("note").and_then(Value::as_str).map(str::to_string),
                },
            );
        }
        Some(RunResult {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            traced: flag("trace")?,
            smoke: flag("smoke")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            ledger,
            context: v.get("context")?.as_object()?.clone(),
        })
    }

    /// The table a person reads: every metric by name with its unit,
    /// sample count and quartiles.
    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  trace {}  correct {}  attempted {}  failed {}",
            self.workload, self.seed, self.traced as u8, self.correct, self.attempted, self.failed
        );
        println!(
            "{:<34} {:>14} {:<8} {:>6} {:>14} {:>14}  src",
            "metric", "median", "unit", "n", "q1", "q3"
        );
        for (name, e) in &self.ledger.entries {
            println!(
                "{:<34} {:>14.6} {:<8} {:>6} {:>14.6} {:>14.6}  {}{}",
                name,
                e.summary.median,
                e.unit,
                e.summary.n,
                e.summary.q1,
                e.summary.q3,
                e.source,
                e.note
                    .as_ref()
                    .map(|n| format!("  ({n})"))
                    .unwrap_or_default()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {:?}",
                d.name,
                d.unit
            );
            assert!(matches!(d.better, "lower" | "higher"));
        }
        for w in WORKLOADS {
            assert!(name_ok(w));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn the_tables_are_what_benchmark_json_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = foam_telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_json_round_trips() {
        let mut ledger = Ledger::default();
        ledger.seconds("setup_s", &[0.011, 0.012, 0.013]);
        ledger.samples("model_speedup", &[20_000.5, 21_000.25]);
        ledger.seconds("spectral.fft48_ns", &[4.0e-7; 6]);
        ledger.noted("server.hit_tail_ms", 3.5, 2400, "p99");
        ledger.fill_missing(&PER_LAYER);
        let result = RunResult {
            workload: "r15_coupled".to_string(),
            seed: 1914,
            seconds: 20.0,
            traced: true,
            smoke: false,
            correct: true,
            attempted: 16,
            failed: 0,
            ledger,
            context: BTreeMap::from([("why".to_string(), Value::from("round trip"))]),
        };
        let text = result.to_json().to_string_pretty();
        let back = RunResult::from_json(&foam_telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
        for name in back.ledger.entries.keys() {
            assert!(name_ok(name), "{name}");
        }
        let fft = result.ledger.entries["spectral.fft48_ns"].summary.median;
        assert!((fft - 400.0).abs() < 1e-9, "{fft}");
        assert_eq!(result.ledger.entries["ocean.busy_frac"].summary.n, 0);

        // The driver's line carries exactly the four keys, and only the
        // metrics asked for.
        let line = foam_telemetry::json::parse(&result.driver_line(&END_TO_END)).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics["setup_s"].get("unit").unwrap().as_str(), Some("s"));
    }
}
