//! What an ensemble *is*: a base configuration plus per-member
//! perturbations, a worker pool size, the supervisor policy members run
//! under, and an optional output directory for per-member checkpoint
//! stores.

use std::path::PathBuf;

use foam::supervisor::SupervisorConfig;
use foam::{Backoff, CkptConfig, FoamConfig, RankKill, TelemetryConfig};
use foam_ckpt::CheckpointStore;

use crate::EnsembleError;

/// A scalar physics parameter a member (or a scenario sweep axis) sets
/// to an absolute value, overriding the base configuration: a
/// solar-constant sweep says "member k runs at scale 1.002", not "scale
/// the base by x". That is what a scenario's `[sweep]` section lowers
/// to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamOverride {
    /// Solar-constant multiplier (`atm.physics.rad.solar_scale`).
    SolarScale(f64),
    /// CO₂ concentration factor (`atm.physics.rad.co2_factor`).
    Co2Factor(f64),
    /// Stratospheric aerosol optical depth (`atm.physics.rad.aerosol_od`).
    AerosolOd(f64),
    /// Axial tilt in degrees (`atm.physics.obliquity_deg`).
    ObliquityDeg(f64),
}

impl ParamOverride {
    /// Apply the override to `cfg` in place.
    pub fn apply(self, cfg: &mut FoamConfig) {
        match self {
            ParamOverride::SolarScale(v) => cfg.atm.physics.rad.solar_scale = v,
            ParamOverride::Co2Factor(v) => cfg.atm.physics.rad.co2_factor = v,
            ParamOverride::AerosolOd(v) => cfg.atm.physics.rad.aerosol_od = v,
            ParamOverride::ObliquityDeg(v) => cfg.atm.physics.obliquity_deg = v,
        }
    }
}

/// One ensemble member: an id (keys its checkpoint root and its report
/// entry) plus the perturbations applied on top of the base config.
#[derive(Debug, Clone)]
pub struct MemberSpec {
    /// Unique member id (0-based by convention).
    pub id: usize,
    /// Seed for the atmosphere's initial-condition perturbation — the
    /// classic ensemble-generation knob.
    pub seed: u64,
    /// Absolute parameter settings for this member (sweep axes).
    /// Applied in order, so a later override of the same knob wins.
    pub overrides: Vec<ParamOverride>,
    /// A rank death injected into *this member's* run (testing and
    /// recovery demos: kill one member mid-run and watch it resume).
    pub kill_rank: Option<RankKill>,
}

impl MemberSpec {
    /// A member that only perturbs the seed.
    pub fn new(id: usize, seed: u64) -> Self {
        MemberSpec {
            id,
            seed,
            overrides: Vec::new(),
            kill_rank: None,
        }
    }
}

/// Full description of an ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleSpec {
    /// Configuration every member starts from.
    pub base: FoamConfig,
    /// Simulated days each member integrates.
    pub days: f64,
    /// The members (ids must be unique).
    pub members: Vec<MemberSpec>,
    /// OS worker threads executing members (each member itself runs an
    /// SPMD job of `base.n_ranks()` rank threads).
    pub workers: usize,
    /// The run supervisor's policy for each member: a member that fails
    /// with a recoverable error is rolled back and resumed up to
    /// `max_recoveries` times, paced by `backoff`.
    pub supervisor: SupervisorConfig,
    /// Root directory for per-member checkpoint stores
    /// (`<dir>/member-0003/...`). `None` disables checkpointing; failed
    /// members are then retried from scratch instead of resumed.
    pub output_dir: Option<PathBuf>,
    /// Checkpoint cadence in coupling intervals (used only when
    /// `output_dir` is set).
    pub ckpt_interval: usize,
}

impl EnsembleSpec {
    /// The canonical perturbed-initial-condition ensemble: `n` members
    /// whose seeds are `base.atm.seed + id`, two workers, two recoveries
    /// per member, no checkpointing.
    pub fn seed_sweep(base: FoamConfig, days: f64, n: usize) -> Self {
        let seed0 = base.atm.seed;
        EnsembleSpec {
            base,
            days,
            members: (0..n)
                .map(|id| MemberSpec::new(id, seed0 + id as u64))
                .collect(),
            workers: 2,
            supervisor: SupervisorConfig {
                max_recoveries: 2,
                backoff: Backoff::capped(0.05, 2.0),
            },
            output_dir: None,
            ckpt_interval: 4,
        }
    }

    /// Check the spec before any member starts: members exist and have
    /// unique ids, the pool is non-empty, the day count and backoffs
    /// are sane, and every member's derived configuration validates.
    pub fn validate(&self) -> Result<(), EnsembleError> {
        if self.members.is_empty() {
            return Err(EnsembleError::NoMembers);
        }
        if self.workers == 0 {
            return Err(EnsembleError::NoWorkers);
        }
        if !(self.days > 0.0 && self.days.is_finite()) {
            return Err(EnsembleError::NonPositive {
                what: "days",
                value: self.days,
            });
        }
        // Both ends of the schedule reach `Duration` on a worker thread
        // at the first recovery; the cap may be infinite (no cap).
        let Backoff {
            base_secs,
            cap_secs,
        } = self.supervisor.backoff;
        if !(base_secs >= 0.0 && base_secs.is_finite()) {
            return Err(EnsembleError::NonPositive {
                what: "supervisor.backoff.base_secs",
                value: base_secs,
            });
        }
        if cap_secs.is_nan() || cap_secs < 0.0 {
            return Err(EnsembleError::NonPositive {
                what: "supervisor.backoff.cap_secs",
                value: cap_secs,
            });
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in &self.members {
            if !seen.insert(m.id) {
                return Err(EnsembleError::DuplicateMemberId(m.id));
            }
            self.member_config(m)
                .validate()
                .map_err(|e| EnsembleError::Member {
                    id: m.id,
                    error: e.into(),
                })?;
        }
        Ok(())
    }

    /// The full [`FoamConfig`] member `m` runs with: the base config
    /// with the member's perturbations applied, telemetry collection
    /// forced on (the ensemble aggregates it), and — when the ensemble
    /// has an output directory — a per-member checkpoint store.
    pub fn member_config(&self, m: &MemberSpec) -> FoamConfig {
        let mut cfg = self.base.clone();
        cfg.atm.seed = m.seed;
        for ov in &m.overrides {
            ov.apply(&mut cfg);
        }
        cfg.runtime.kill_rank = m.kill_rank;
        cfg.telemetry = TelemetryConfig {
            enabled: true,
            // Per-member report paths would collide; the ensemble writes
            // one aggregate report instead.
            path: None,
        };
        cfg.ckpt = match &self.output_dir {
            Some(dir) => CkptConfig {
                dir: Some(CheckpointStore::member_root(dir, m.id)),
                interval: self.ckpt_interval,
                keep: 2,
                fault_plan: None,
            },
            None => CkptConfig::default(),
        };
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_sweep_perturbs_seeds_only() {
        let spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(7), 2.0, 3);
        assert_eq!(spec.members.len(), 3);
        assert_eq!(spec.members[2].seed, 9);
        let cfg = spec.member_config(&spec.members[2]);
        assert_eq!(cfg.atm.seed, 9);
        assert_eq!(cfg.ocean.slowdown, spec.base.ocean.slowdown);
        assert!(cfg.telemetry.collect());
        assert!(cfg.ckpt.dir.is_none());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn member_config_roots_checkpoints_per_member() {
        let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(1), 1.0, 2);
        spec.output_dir = Some(std::env::temp_dir().join("foam-ensemble-spec-test"));
        let c0 = spec.member_config(&spec.members[0]);
        let c1 = spec.member_config(&spec.members[1]);
        assert_ne!(c0.ckpt.dir, c1.ckpt.dir);
        assert!(c0.ckpt.dir.unwrap().ends_with("member-0000"));
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let base = FoamConfig::tiny(1);
        let mut spec = EnsembleSpec::seed_sweep(base.clone(), 1.0, 0);
        assert_eq!(spec.validate(), Err(EnsembleError::NoMembers));

        spec = EnsembleSpec::seed_sweep(base.clone(), 1.0, 2);
        spec.workers = 0;
        assert_eq!(spec.validate(), Err(EnsembleError::NoWorkers));

        spec = EnsembleSpec::seed_sweep(base.clone(), 0.0, 2);
        assert!(matches!(
            spec.validate(),
            Err(EnsembleError::NonPositive { what: "days", .. })
        ));

        spec = EnsembleSpec::seed_sweep(base.clone(), 1.0, 2);
        spec.members[1].id = 0;
        assert_eq!(spec.validate(), Err(EnsembleError::DuplicateMemberId(0)));

        // Schedules whose `Backoff::delay` would panic at the first
        // recovery: a NaN base, a negative cap.
        spec = EnsembleSpec::seed_sweep(base.clone(), 1.0, 2);
        spec.supervisor.backoff.base_secs = f64::NAN;
        assert!(matches!(
            spec.validate(),
            Err(EnsembleError::NonPositive {
                what: "supervisor.backoff.base_secs",
                ..
            })
        ));
        spec = EnsembleSpec::seed_sweep(base.clone(), 1.0, 2);
        spec.supervisor.backoff.cap_secs = -1.0;
        assert!(matches!(
            spec.validate(),
            Err(EnsembleError::NonPositive {
                what: "supervisor.backoff.cap_secs",
                ..
            })
        ));
        spec.supervisor.backoff = Backoff::new(0.05); // uncapped is fine
        assert!(spec.validate().is_ok());

        // An invalid derived member config is caught up front, typed.
        spec = EnsembleSpec::seed_sweep(base, 1.0, 2);
        spec.base.atm.dt = 0.0;
        assert!(matches!(
            spec.validate(),
            Err(EnsembleError::Member { id: 0, .. })
        ));
    }

    #[test]
    fn overrides_set_absolute_values_and_are_validated() {
        let mut spec = EnsembleSpec::seed_sweep(FoamConfig::tiny(3), 1.0, 2);
        spec.members[1].overrides = vec![
            ParamOverride::SolarScale(1.01),
            ParamOverride::ObliquityDeg(24.5),
        ];
        let c0 = spec.member_config(&spec.members[0]);
        let c1 = spec.member_config(&spec.members[1]);
        assert_eq!(c0.atm.physics.rad.solar_scale, 1.0);
        assert_eq!(c1.atm.physics.rad.solar_scale, 1.01);
        assert_eq!(c1.atm.physics.obliquity_deg, 24.5);
        assert!(spec.validate().is_ok());

        // Out-of-envelope overrides are caught up front, typed per member.
        spec.members[1].overrides = vec![ParamOverride::SolarScale(3.0)];
        assert!(matches!(
            spec.validate(),
            Err(EnsembleError::Member { id: 1, .. })
        ));
    }
}
