//! Configuration of a coupled FOAM run.

use std::path::PathBuf;

use foam_atm::AtmConfig;
use foam_ckpt::StoreFaultPlan;
use foam_ocean::{OceanConfig, SplitScheme};
use foam_physics::forcing::Forcings;

/// A configuration rejected by [`FoamConfig::validate`] — the typed
/// alternative to panicking deep inside the run when a zero timestep or
/// subcycle count divides something.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A quantity that must be strictly positive (a timestep, an
    /// interval length) was zero, negative, or not finite.
    NonPositive { what: &'static str, value: f64 },
    /// A count that must be at least one (ranks, subcycles, checkpoint
    /// cadence) was zero.
    ZeroCount { what: &'static str },
    /// The telemetry report path cannot be written (its parent directory
    /// does not exist or is not a directory). Caught up front so a long
    /// run does not integrate for hours and then lose its report.
    UnwritablePath { what: &'static str, path: PathBuf },
    /// A scenario forcing series is malformed (breakpoint days not
    /// strictly increasing / non-finite) or a forced value leaves the
    /// physically admissible range for its channel.
    BadForcing {
        what: &'static str,
        reason: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositive { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            ConfigError::ZeroCount { what } => write!(f, "{what} must be at least 1"),
            ConfigError::UnwritablePath { what, path } => {
                write!(
                    f,
                    "{what} is not writable: {} (parent directory missing?)",
                    path.display()
                )
            }
            ConfigError::BadForcing { what, reason } => {
                write!(f, "{what} is not a valid forcing series: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checkpoint/restart knobs. Checkpointing is off unless `dir` is set;
/// see `foam::checkpoint` for the snapshot format and the restart
/// guarantee.
#[derive(Debug, Clone, Default)]
pub struct CkptConfig {
    /// Root directory for checkpoints (`None` disables checkpointing).
    /// Each snapshot is a subdirectory `ckpt-<interval>` holding one
    /// shard per rank plus a manifest, committed by an atomic rename.
    pub dir: Option<PathBuf>,
    /// Checkpoint cadence in coupling intervals.
    pub interval: usize,
    /// Committed snapshots retained (older ones are deleted).
    pub keep: usize,
    /// Deterministic checkpoint-store fault injection (testing only):
    /// torn writes, CRC corruption, ENOSPC-style write failures on a
    /// schedule (see [`foam_ckpt::FaultyStore`]).
    pub fault_plan: Option<StoreFaultPlan>,
}

impl CkptConfig {
    /// Checkpoint into `dir` every `interval` coupling intervals,
    /// keeping the last two snapshots.
    pub fn every(dir: impl Into<PathBuf>, interval: usize) -> Self {
        CkptConfig {
            dir: Some(dir.into()),
            interval,
            keep: 2,
            fault_plan: None,
        }
    }
}

/// Telemetry knobs. Telemetry is collected when [`enabled`] is true —
/// either explicitly or implicitly by setting a report [`path`]. It
/// observes wall-clock time only: enabling it cannot change any
/// simulated field bit-for-bit (asserted by the integration tests).
///
/// [`enabled`]: TelemetryConfig::enabled
/// [`path`]: TelemetryConfig::path
///
/// ```
/// use foam::TelemetryConfig;
///
/// assert!(!TelemetryConfig::default().collect());
/// assert!(TelemetryConfig { enabled: true, ..Default::default() }.collect());
/// assert!(TelemetryConfig::to_file("report.json").collect());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Collect phase timings and counters even when no report path is
    /// set (the report is then only available programmatically on
    /// [`crate::CoupledOutput::telemetry`]).
    pub enabled: bool,
    /// Where to write the JSON report at the end of the run. Setting a
    /// path implies `enabled`. The parent directory must exist —
    /// [`FoamConfig::validate`] rejects the config otherwise.
    pub path: Option<PathBuf>,
}

impl TelemetryConfig {
    /// Enable telemetry and write the end-of-run report to `path`.
    pub fn to_file(path: impl Into<PathBuf>) -> Self {
        TelemetryConfig {
            enabled: true,
            path: Some(path.into()),
        }
    }

    /// Whether telemetry should be collected this run.
    pub fn collect(&self) -> bool {
        self.enabled || self.path.is_some()
    }
}

/// Fault injection into a run, separate from the science configuration
/// (testing only): the faults a real run can meet, each on a schedule so
/// that recovery from it is reproducible.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Deterministically kill one rank at a coupling interval (testing
    /// only) — the chaos matrix's "node death" entry.
    pub kill_rank: Option<RankKill>,
    /// Deterministically poison one exchanged SST field (testing only)
    /// — the chaos matrix's "physics blow-up" entry, caught by the
    /// sentinel.
    pub physics_fault: Option<PhysicsFault>,
}

/// Deterministic rank-death injection: `rank` panics at the top of
/// coupling interval `interval` (an in-process stand-in for a node
/// crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKill {
    /// World rank to kill (atmosphere ranks `0..n_atm_ranks`, ocean at
    /// `n_atm_ranks`).
    pub rank: usize,
    /// Coupling interval at which the rank dies.
    pub interval: usize,
}

/// Deterministic physics blow-up injection: the accepted SST of
/// coupling interval `interval` is poisoned on the atmosphere root
/// before the sentinel inspects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicsFault {
    /// Coupling interval whose SST exchange is poisoned.
    pub interval: usize,
    /// How the field blows up.
    pub kind: PhysicsFaultKind,
}

/// The ways an injected physics fault corrupts the SST field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicsFaultKind {
    /// One cell becomes NaN (the classic numerical-instability
    /// signature).
    Nan,
    /// One cell leaves the physical range by orders of magnitude.
    OutOfRange,
}

/// In-run streaming statistics knobs. When [`FoamConfig::stream`] is
/// set, the driver folds each completed monthly-mean SST field into an
/// `O(grid)` streaming estimator ([`crate::DriverStream`]) rather than
/// retaining an `O(grid × months)` monthly history — the device that
/// makes century-scale variability runs fit in memory. The stream state
/// checkpoints and resumes bit-identically with the rest of the run.
#[derive(Debug, Clone)]
pub struct StreamStatsConfig {
    /// Maximum spatial rank of the streaming EOF sketch
    /// ([`foam_stats::StreamingEof`]). Variability beyond this many
    /// spatial degrees of freedom is measured (as a discarded-energy
    /// fraction) but not resolved; 8 comfortably covers the handful of
    /// modes Figure 4 interprets.
    pub eof_rank: usize,
}

impl Default for StreamStatsConfig {
    fn default() -> Self {
        StreamStatsConfig { eof_rank: 8 }
    }
}

/// How the atmosphere and ocean exchange information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingMode {
    /// FOAM's scheme: the ocean integrates each coupling interval
    /// *concurrently* with the atmosphere's next one (SSTs lag one
    /// interval). One ocean node thus overlaps 16 atmosphere nodes.
    Lagged,
    /// Naive scheme: the atmosphere blocks while the ocean integrates
    /// (the conventional sequential coupling of contemporary models).
    Sequential,
}

/// Full configuration of a coupled run.
#[derive(Debug, Clone)]
pub struct FoamConfig {
    pub atm: AtmConfig,
    pub ocean: OceanConfig,
    /// Number of atmosphere ranks ("nodes"); the coupler is co-located
    /// on them. One additional rank runs the ocean.
    pub n_atm_ranks: usize,
    /// Ocean coupling interval \[s\] (paper: 6 h — the ocean is called
    /// four times per simulated day).
    pub dt_couple: f64,
    pub coupling: CouplingMode,
    /// Ocean stepping scheme (FOAM split vs unsplit baseline).
    pub ocean_scheme: SplitScheme,
    /// Record per-rank activity traces (Figure 2).
    pub tracing: bool,
    /// Fold monthly-mean SST into streaming statistics as the run goes
    /// (`O(grid)` memory however long the run) — the one source of the
    /// Figure-3/4 monthly statistics.
    pub stream: Option<StreamStatsConfig>,
    /// Scenario forcings: piecewise-linear CO₂ / solar / aerosol time
    /// series (in simulated days) the atmosphere folds into its column
    /// physics once per simulated day. Empty (the default) is the
    /// identity — unforced runs are bit-identical to pre-scenario
    /// builds. The content participates in
    /// [`FoamConfig::canonical_digest`] and is recorded in snapshots so
    /// a resume under different forcings is rejected instead of
    /// silently diverging.
    pub forcings: Forcings,
    /// Fault injection for the recovery tests (a rank kill, a poisoned
    /// SST); off by default.
    pub runtime: RuntimeConfig,
    /// Checkpoint/restart knobs (off unless a directory is set).
    pub ckpt: CkptConfig,
    /// Telemetry knobs (phase timers, counters, model-speedup report).
    pub telemetry: TelemetryConfig,
}

impl FoamConfig {
    /// The paper's production configuration: R15 atmosphere (48×40×18,
    /// Δt = 30 min) on `n_atm_ranks` nodes, 128×128×16 ocean on one node,
    /// 6-hour lagged coupling.
    pub fn paper(n_atm_ranks: usize, seed: u64) -> Self {
        FoamConfig {
            atm: AtmConfig {
                seed,
                ..Default::default()
            },
            ocean: OceanConfig::default(),
            n_atm_ranks,
            dt_couple: 21_600.0,
            coupling: CouplingMode::Lagged,
            ocean_scheme: SplitScheme::FoamSplit,
            tracing: false,
            stream: None,
            forcings: Forcings::default(),
            runtime: RuntimeConfig::default(),
            ckpt: CkptConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// A reduced configuration for tests and demos: 24×16 R5 atmosphere,
    /// 32×24×6 ocean, 2 atmosphere ranks.
    pub fn tiny(seed: u64) -> Self {
        FoamConfig {
            atm: AtmConfig::tiny(seed),
            ocean: OceanConfig::tiny(),
            n_atm_ranks: 2,
            dt_couple: 21_600.0,
            coupling: CouplingMode::Lagged,
            ocean_scheme: SplitScheme::FoamSplit,
            tracing: false,
            stream: None,
            forcings: Forcings::default(),
            runtime: RuntimeConfig::default(),
            ckpt: CkptConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The century-throughput configuration: a further-reduced grid (16×12
    /// R3 atmosphere on one rank, 24×16×4 ocean) with streaming
    /// statistics on, sized so a single machine pushes 100 simulated
    /// years through the full coupled pipeline in well under an hour
    /// while the statistics memory stays `O(grid)`. This is what the
    /// `century` bench bin runs.
    pub fn century(seed: u64) -> Self {
        let mut atm = AtmConfig::tiny(seed);
        atm.nlon = 16;
        atm.nlat = 12;
        atm.m_max = 3;
        atm.nlev_phys = 4;
        // The coarser grids admit longer stable steps than `tiny`'s.
        atm.dt = 3600.0;
        let mut ocean = OceanConfig::tiny();
        ocean.nx = 24;
        ocean.ny = 16;
        ocean.nz = 4;
        ocean.dt_int = 7200.0;
        FoamConfig {
            atm,
            ocean,
            n_atm_ranks: 1,
            dt_couple: 21_600.0,
            coupling: CouplingMode::Lagged,
            ocean_scheme: SplitScheme::FoamSplit,
            tracing: false,
            stream: Some(StreamStatsConfig::default()),
            forcings: Forcings::default(),
            runtime: RuntimeConfig::default(),
            ckpt: CkptConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Check the configuration before it can divide by zero or spin in
    /// an empty subcycle loop somewhere deep inside the run. Called by
    /// the driver entry points; a failure comes back as a typed
    /// [`crate::CoupledError::Config`] instead of a panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn positive(what: &'static str, value: f64) -> Result<(), ConfigError> {
            if value > 0.0 && value.is_finite() {
                Ok(())
            } else {
                Err(ConfigError::NonPositive { what, value })
            }
        }
        fn at_least_one(what: &'static str, n: usize) -> Result<(), ConfigError> {
            if n >= 1 {
                Ok(())
            } else {
                Err(ConfigError::ZeroCount { what })
            }
        }
        positive("atm.dt", self.atm.dt)?;
        positive("ocean.dt_int", self.ocean.dt_int)?;
        positive("dt_couple", self.dt_couple)?;
        positive("ocean.slowdown", self.ocean.slowdown)?;
        at_least_one("ocean.n_trac", self.ocean.n_trac)?;
        at_least_one("n_atm_ranks", self.n_atm_ranks)?;
        at_least_one("atm.nlat", self.atm.nlat)?;
        if self.ckpt.dir.is_some() {
            at_least_one("ckpt.interval", self.ckpt.interval)?;
            at_least_one("ckpt.keep", self.ckpt.keep)?;
        }
        if let Some(stream) = &self.stream {
            at_least_one("stream.eof_rank", stream.eof_rank)?;
        }
        // Scenario forcings: every breakpoint value must stay inside
        // the physically admissible envelope of its channel. Piecewise-
        // linear interpolation and constant extrapolation cannot leave
        // the convex hull of the breakpoints, so checking breakpoints
        // bounds the whole series.
        fn forcing_range(
            what: &'static str,
            series: &foam_physics::ForcingSeries,
            lo: f64,
            hi: f64,
        ) -> Result<(), ConfigError> {
            if series
                .points()
                .iter()
                .any(|&(_, v)| !(lo..=hi).contains(&v))
            {
                return Err(ConfigError::BadForcing {
                    what,
                    reason: "breakpoint value outside the admissible range",
                });
            }
            Ok(())
        }
        forcing_range("forcings.co2", &self.forcings.co2, 1.0 / 32.0, 32.0)?;
        forcing_range("forcings.solar", &self.forcings.solar, 0.8, 1.2)?;
        forcing_range("forcings.aerosol", &self.forcings.aerosol, 0.0, 5.0)?;
        // The static knobs the forcings multiply into obey the same
        // envelopes (sweep overrides land here, not in the series).
        let rad = &self.atm.physics.rad;
        if !(0.8..=1.2).contains(&rad.solar_scale) {
            return Err(ConfigError::BadForcing {
                what: "atm.physics.rad.solar_scale",
                reason: "static value outside the admissible range [0.8, 1.2]",
            });
        }
        if !(0.0..=5.0).contains(&rad.aerosol_od) {
            return Err(ConfigError::BadForcing {
                what: "atm.physics.rad.aerosol_od",
                reason: "static value outside the admissible range [0, 5]",
            });
        }
        if !(1.0 / 32.0..=32.0).contains(&rad.co2_factor) {
            return Err(ConfigError::BadForcing {
                what: "atm.physics.rad.co2_factor",
                reason: "static value outside the admissible range [1/32, 32]",
            });
        }
        let obl = self.atm.physics.obliquity_deg;
        if !(0.0..=45.0).contains(&obl) || !obl.is_finite() {
            return Err(ConfigError::NonPositive {
                what: "atm.physics.obliquity_deg (must lie in [0, 45])",
                value: obl,
            });
        }
        if let Some(path) = &self.telemetry.path {
            // The file itself is created at the end of the run; what must
            // already exist is the directory it lands in.
            let parent = match path.parent() {
                // `"report.json".parent()` is `Some("")` — the cwd.
                Some(p) if p.as_os_str().is_empty() => PathBuf::from("."),
                Some(p) => p.to_path_buf(),
                None => PathBuf::from("."),
            };
            if !parent.is_dir() {
                return Err(ConfigError::UnwritablePath {
                    what: "telemetry.path",
                    path: path.clone(),
                });
            }
        }
        Ok(())
    }

    /// Total ranks of the job (atmosphere + one ocean node).
    pub fn n_ranks(&self) -> usize {
        self.n_atm_ranks + 1
    }

    /// Atmosphere steps per coupling interval.
    pub fn atm_steps_per_couple(&self) -> usize {
        (self.dt_couple / self.atm.dt).round().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_paper_numbers() {
        let c = FoamConfig::paper(16, 1);
        assert_eq!(c.atm.nlon, 48);
        assert_eq!(c.atm.nlat, 40);
        assert_eq!(c.atm.m_max, 15);
        assert_eq!(c.atm.nlev_phys, 18);
        assert_eq!(c.atm.dt, 1800.0);
        assert_eq!(c.ocean.nx, 128);
        assert_eq!(c.ocean.ny, 128);
        assert_eq!(c.ocean.nz, 16);
        // Ocean called 4 times per simulated day.
        assert_eq!((86_400.0 / c.dt_couple) as usize, 4);
        // 48 atmosphere steps per day (30-minute step).
        assert_eq!(c.atm_steps_per_couple() * 4, 48);
        assert_eq!(c.n_ranks(), 17); // the paper's typical 17-node runs
    }

    #[test]
    fn tiny_config_is_consistent() {
        let c = FoamConfig::tiny(3);
        assert_eq!(c.n_ranks(), 3);
        assert!(c.atm_steps_per_couple() >= 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn century_config_streams_instead_of_collecting() {
        let c = FoamConfig::century(9);
        assert!(c.validate().is_ok());
        let stream = c
            .stream
            .as_ref()
            .expect("century preset streams statistics");
        assert!(stream.eof_rank >= 4);
        assert_eq!(c.n_ranks(), 2);
        // Smaller than tiny in every dimension that costs time.
        let t = FoamConfig::tiny(9);
        assert!(c.atm.nlon * c.atm.nlat < t.atm.nlon * t.atm.nlat);
        assert!(c.ocean.nx * c.ocean.ny * c.ocean.nz < t.ocean.nx * t.ocean.ny * t.ocean.nz);
    }

    #[test]
    fn validate_rejects_zero_stream_rank() {
        let mut c = FoamConfig::century(1);
        c.stream = Some(StreamStatsConfig { eof_rank: 0 });
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroCount {
                what: "stream.eof_rank"
            })
        );
    }

    #[test]
    fn validate_rejects_nonpositive_timesteps() {
        let mut c = FoamConfig::tiny(1);
        c.atm.dt = 0.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPositive {
                what: "atm.dt",
                value: 0.0
            })
        );
        let mut c = FoamConfig::tiny(1);
        c.dt_couple = -21_600.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                what: "dt_couple",
                ..
            })
        ));
        let mut c = FoamConfig::tiny(1);
        c.ocean.dt_int = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                what: "ocean.dt_int",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_zero_counts() {
        let mut c = FoamConfig::tiny(1);
        c.ocean.n_trac = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroCount {
                what: "ocean.n_trac"
            })
        );
        let mut c = FoamConfig::tiny(1);
        c.n_atm_ranks = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroCount {
                what: "n_atm_ranks"
            })
        );
        let mut c = FoamConfig::tiny(1);
        c.ckpt = CkptConfig::every("/tmp/unused", 4);
        c.ckpt.interval = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroCount {
                what: "ckpt.interval"
            })
        );
        // Checkpoint knobs are only checked when checkpointing is on.
        c.ckpt.dir = None;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_forcings() {
        use foam_physics::ForcingSeries;
        let mut c = FoamConfig::tiny(1);
        c.forcings.co2 = ForcingSeries::constant(100.0); // > 32× CO₂
        assert_eq!(
            c.validate(),
            Err(ConfigError::BadForcing {
                what: "forcings.co2",
                reason: "breakpoint value outside the admissible range",
            })
        );
        let mut c = FoamConfig::tiny(1);
        c.forcings.solar = ForcingSeries::constant(0.5); // a half-dark sun
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadForcing {
                what: "forcings.solar",
                ..
            })
        ));
        let mut c = FoamConfig::tiny(1);
        c.forcings.aerosol = ForcingSeries::from_points(vec![(0.0, 0.0), (30.0, -0.1)]).unwrap();
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadForcing {
                what: "forcings.aerosol",
                ..
            })
        ));
        // In-range forcings pass.
        let mut c = FoamConfig::tiny(1);
        c.forcings.co2 = ForcingSeries::from_points(vec![(0.0, 1.0), (360.0, 2.0)]).unwrap();
        c.forcings.solar = ForcingSeries::constant(1.01);
        c.forcings.aerosol = ForcingSeries::constant(0.15);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_wild_obliquity() {
        let mut c = FoamConfig::tiny(1);
        c.atm.physics.obliquity_deg = 90.0;
        assert!(matches!(c.validate(), Err(ConfigError::NonPositive { .. })));
        c.atm.physics.obliquity_deg = 22.1;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unwritable_telemetry_path() {
        let mut c = FoamConfig::tiny(1);
        c.telemetry = TelemetryConfig::to_file("/nonexistent-dir-xyzzy/report.json");
        assert!(matches!(
            c.validate(),
            Err(ConfigError::UnwritablePath {
                what: "telemetry.path",
                ..
            })
        ));
        // A bare filename lands in the cwd, which exists.
        c.telemetry = TelemetryConfig::to_file("report.json");
        assert!(c.validate().is_ok());
        // Plain `enabled` needs no path at all.
        c.telemetry = TelemetryConfig {
            enabled: true,
            path: None,
        };
        assert!(c.validate().is_ok());
    }
}
