//! The deterministic `foam-ensemble/1` aggregate report.
//!
//! Everything in this module is **byte-identical** across worker counts
//! and member submission orders. That property is engineered, not
//! accidental:
//!
//! * aggregation walks members in member-id order (the runner sorts);
//! * every value in the report is a pure function of member *science*
//!   output — wall-clock quantities (speedups, phase seconds) and the
//!   timing-sensitive `comm.*` counters (wait times) are excluded;
//! * serialization rides on `BTreeMap`-ordered
//!   [`foam_telemetry::json::Value`], whose `f64` formatting
//!   round-trips bits.

use std::collections::BTreeMap;
use std::path::Path;

use foam::sea_area_weights;
use foam_grid::{OceanGrid, World};
use foam_ocean::OceanModel;
use foam_stats::{ensemble_mean, ensemble_mean_field, ensemble_spread, FieldStats};
use foam_telemetry::json::Value;

use crate::runner::MemberRecord;
use crate::spec::EnsembleSpec;

/// Schema identifier carried in the report's `schema` field.
pub const SCHEMA: &str = "foam-ensemble/1";

/// The deterministic per-member slice of the report.
#[derive(Debug, Clone)]
pub struct MemberDigest {
    pub id: usize,
    pub seed: u64,
    /// `"ok"` or `"failed"`.
    pub status: &'static str,
    /// Retries consumed (nonzero with status `"ok"` = recovered).
    pub retries: u32,
    /// Display form of the terminal error, for failed members.
    pub error: Option<String>,
    /// Area-mean SST after the last coupling interval \[°C\].
    pub final_mean_sst: Option<f64>,
    /// Time mean of the member's SST series \[°C\].
    pub series_mean: Option<f64>,
    /// Sea-ice fraction at the end of the run.
    pub ice_fraction: Option<f64>,
    /// Final-SST pattern statistics against the ensemble-mean final SST
    /// (area-weighted over sea points; needs ≥ 2 completed members).
    pub pattern_vs_ensemble_mean: Option<FieldStats>,
    /// Phase *call counts* from the member's telemetry (deterministic,
    /// unlike phase seconds). For a member that recovered after a
    /// fault, these describe the final (resumed) attempt — the failed
    /// attempt's telemetry dies with it.
    pub phase_calls: BTreeMap<String, u64>,
    /// Deterministic counters: algorithmic event counts, with the
    /// timing-sensitive `comm.*` family filtered out.
    pub counters: BTreeMap<String, u64>,
}

/// The full aggregate report.
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    /// Simulated days per member.
    pub days: f64,
    /// Members completed / failed after retries.
    pub n_ok: usize,
    pub n_failed: usize,
    /// Total retries consumed across the ensemble.
    pub total_retries: u64,
    /// Ensemble mean of the members' SST series, per coupling interval.
    pub sst_mean_series: Vec<f64>,
    /// Ensemble spread (population σ) of the SST series.
    pub sst_spread_series: Vec<f64>,
    /// Per-member digests, in member-id order.
    pub members: Vec<MemberDigest>,
}

impl EnsembleReport {
    /// Reduce id-sorted member records into the report. Failed members
    /// are included (marked `"failed"`, with the error's display form)
    /// but excluded from the ensemble statistics.
    pub fn build(spec: &EnsembleSpec, members: &[MemberRecord]) -> EnsembleReport {
        debug_assert!(
            members.windows(2).all(|w| w[0].spec.id < w[1].spec.id),
            "records must arrive in member-id order"
        );
        let ok: Vec<&MemberRecord> = members.iter().filter(|r| r.result.is_ok()).collect();

        let series: Vec<Vec<f64>> = ok
            .iter()
            .filter_map(|r| Some(r.output()?.mean_sst_series.clone()))
            .collect();
        // The reductions only fail on zero members (excluded by the
        // branch) or mismatched lengths, which same-day members cannot
        // produce; an empty series is the graceful fallback either way.
        let (sst_mean_series, sst_spread_series) = if series.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            (
                ensemble_mean(&series).unwrap_or_default(),
                ensemble_spread(&series).unwrap_or_default(),
            )
        };

        // Final-SST pattern stats need a reference field and a second
        // member to differ from it.
        let mean_final: Option<Vec<f64>> = (ok.len() >= 2)
            .then(|| {
                let fields: Vec<&[f64]> = ok
                    .iter()
                    .filter_map(|r| Some(r.output()?.final_sst.as_slice()))
                    .collect();
                ensemble_mean_field(&fields).ok()
            })
            .flatten();
        // Weighted by sea area over the base configuration's ocean grid.
        let weights = mean_final.as_ref().map(|_| {
            let o = &spec.base.ocean;
            let mask = OceanModel::effective_sea_mask(o, &World::earthlike());
            sea_area_weights(&OceanGrid::mercator(o.nx, o.ny, o.lat_max_deg), &mask)
        });

        let digests = members
            .iter()
            .map(|r| {
                let out = r.output();
                let pattern = match (out, &mean_final, &weights) {
                    (Some(o), Some(reference), Some(w)) => Some(foam_stats::pattern_stats(
                        o.final_sst.as_slice(),
                        reference,
                        w,
                    )),
                    _ => None,
                };
                MemberDigest {
                    id: r.spec.id,
                    seed: r.spec.seed,
                    status: if out.is_some() { "ok" } else { "failed" },
                    retries: r.retries,
                    error: r.result.as_ref().err().map(|e| e.to_string()),
                    final_mean_sst: out.and_then(|o| o.mean_sst_series.last().copied()),
                    series_mean: out.map(|o| {
                        o.mean_sst_series.iter().sum::<f64>() / o.mean_sst_series.len() as f64
                    }),
                    ice_fraction: out.map(|o| o.ice_fraction),
                    pattern_vs_ensemble_mean: pattern,
                    phase_calls: out
                        .and_then(|o| o.telemetry.as_ref())
                        .map(|t| t.phases.iter().map(|(k, p)| (k.clone(), p.calls)).collect())
                        .unwrap_or_default(),
                    counters: out
                        .and_then(|o| o.telemetry.as_ref())
                        .map(|t| {
                            t.counters
                                .iter()
                                .filter(|(k, _)| deterministic_counter(k))
                                .map(|(k, v)| (k.clone(), *v))
                                .collect()
                        })
                        .unwrap_or_default(),
                }
            })
            .collect();

        EnsembleReport {
            days: spec.days,
            n_ok: ok.len(),
            n_failed: members.len() - ok.len(),
            total_retries: members.iter().map(|r| u64::from(r.retries)).sum(),
            sst_mean_series,
            sst_spread_series,
            members: digests,
        }
    }

    /// Render the report as a `foam-ensemble/1` JSON document.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("schema".into(), Value::String(SCHEMA.into())),
            ("days".into(), Value::Number(self.days)),
            ("n_members".into(), (self.members.len() as u64).into()),
            ("n_ok".into(), (self.n_ok as u64).into()),
            ("n_failed".into(), (self.n_failed as u64).into()),
            ("total_retries".into(), self.total_retries.into()),
            (
                "sst_mean_series".into(),
                numbers(self.sst_mean_series.iter().copied()),
            ),
            (
                "sst_spread_series".into(),
                numbers(self.sst_spread_series.iter().copied()),
            ),
            (
                "members".into(),
                Value::Array(self.members.iter().map(member_json).collect()),
            ),
        ])
    }

    /// Write the pretty-rendered JSON document to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string_pretty())
    }
}

/// Whether a telemetry counter is a deterministic algorithmic count
/// (safe for the byte-identical report) rather than a timing artifact.
fn deterministic_counter(key: &str) -> bool {
    !key.starts_with("comm.")
}

fn numbers(values: impl Iterator<Item = f64>) -> Value {
    Value::Array(values.map(Value::Number).collect())
}

fn opt_number(x: Option<f64>) -> Value {
    x.map(Value::Number).unwrap_or(Value::Null)
}

fn member_json(m: &MemberDigest) -> Value {
    let counts = |map: &BTreeMap<String, u64>| {
        Value::object(map.iter().map(|(k, v)| (k.clone(), (*v).into())))
    };
    Value::object([
        ("id".into(), (m.id as u64).into()),
        ("seed".into(), m.seed.into()),
        ("status".into(), Value::String(m.status.into())),
        ("retries".into(), u64::from(m.retries).into()),
        (
            "error".into(),
            m.error
                .as_ref()
                .map(|e| Value::String(e.clone()))
                .unwrap_or(Value::Null),
        ),
        ("final_mean_sst".into(), opt_number(m.final_mean_sst)),
        ("series_mean".into(), opt_number(m.series_mean)),
        ("ice_fraction".into(), opt_number(m.ice_fraction)),
        (
            "pattern_vs_ensemble_mean".into(),
            m.pattern_vs_ensemble_mean
                .as_ref()
                .map(|p| {
                    Value::object([
                        ("bias".into(), Value::Number(p.bias)),
                        ("rmse".into(), Value::Number(p.rmse)),
                        (
                            "pattern_correlation".into(),
                            Value::Number(p.pattern_correlation),
                        ),
                        ("max_abs_diff".into(), Value::Number(p.max_abs_diff)),
                    ])
                })
                .unwrap_or(Value::Null),
        ),
        ("phase_calls".into(), counts(&m.phase_calls)),
        ("counters".into(), counts(&m.counters)),
    ])
}
