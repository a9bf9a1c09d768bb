//! Canonical content digests of run configurations.
//!
//! A long-lived simulation service wants to recognize that two
//! submissions ask for *the same run* — same physics, same grids, same
//! seed, same code — so the second one can be served from a cache (or
//! join the first while it is still executing) instead of costing a
//! full integration. The key is [`FoamConfig::canonical_digest`]: a
//! CRC-64/XZ hash (the same polynomial `foam-ckpt` uses for snapshot
//! integrity) over a **canonical encoding** of every science-relevant
//! configuration field plus the crate version.
//!
//! "Canonical" is the load-bearing word. The encoding emits each field
//! as a `(name, type-tag, raw bytes)` triple and hashes the triples in
//! **sorted field-name order** — never in struct declaration order. A
//! refactor that reorders struct fields (or the hashing code) therefore
//! cannot change any digest, which is exactly the property a persistent
//! on-disk cache needs; [`CanonicalHasher`] exposes the mechanism so
//! callers composing their own keys (a job = config + days + kind)
//! inherit the guarantee. `f64` fields are hashed by their exact
//! IEEE-754 bit patterns, matching the bit-for-bit determinism contract
//! of the rest of the codebase.
//!
//! What is *excluded* is as deliberate as what is included: wall-clock
//! and observability knobs (telemetry, tracing, checkpoint cadence)
//! cannot change a simulated bit, and injected fault plans are excluded
//! because a supervised run recovers from them bit-identically — the
//! same trajectory, so the same digest.
//!
//! ```
//! use foam::FoamConfig;
//!
//! let a = FoamConfig::tiny(42).canonical_digest();
//! assert_eq!(a, FoamConfig::tiny(42).canonical_digest());
//! assert_ne!(a, FoamConfig::tiny(43).canonical_digest()); // seed differs
//! assert_eq!(a.len(), 16); // 16 lowercase hex digits
//! ```

use foam_ckpt::crc64;

use crate::config::{CouplingMode, FoamConfig};
use foam_ocean::SplitScheme;

/// Incremental builder of a canonical field-order-independent digest.
///
/// Feed named fields in *any* order; [`finish`](CanonicalHasher::finish)
/// sorts the `(name, payload)` entries by name before hashing, so two
/// call sites that list the same fields differently produce the same
/// digest. Field names must be unique per hasher (checked in debug
/// builds); nest sub-structures by hashing them with their own
/// `CanonicalHasher` and feeding the result via
/// [`field_digest`](CanonicalHasher::field_digest).
#[derive(Debug, Default)]
pub struct CanonicalHasher {
    entries: Vec<(&'static str, u8, Vec<u8>)>,
}

// Type tags keep `field_u64("x", 1)` and `field_f64("x", f64::from_bits(1))`
// from colliding.
const TAG_U64: u8 = b'u';
const TAG_I64: u8 = b'i';
const TAG_F64: u8 = b'f';
const TAG_BOOL: u8 = b'b';
const TAG_STR: u8 = b's';
const TAG_F64S: u8 = b'v';
const TAG_DIGEST: u8 = b'd';

impl CanonicalHasher {
    pub fn new() -> Self {
        CanonicalHasher::default()
    }

    fn push(&mut self, name: &'static str, tag: u8, bytes: Vec<u8>) {
        debug_assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "duplicate canonical field name {name:?}"
        );
        self.entries.push((name, tag, bytes));
    }

    /// An unsigned integer field (counts, seeds, grid sizes).
    pub fn field_u64(&mut self, name: &'static str, x: u64) -> &mut Self {
        self.push(name, TAG_U64, x.to_le_bytes().to_vec());
        self
    }

    /// A signed integer field.
    pub fn field_i64(&mut self, name: &'static str, x: i64) -> &mut Self {
        self.push(name, TAG_I64, x.to_le_bytes().to_vec());
        self
    }

    /// A float field, hashed by its exact IEEE-754 bit pattern.
    pub fn field_f64(&mut self, name: &'static str, x: f64) -> &mut Self {
        self.push(name, TAG_F64, x.to_bits().to_le_bytes().to_vec());
        self
    }

    /// A boolean field.
    pub fn field_bool(&mut self, name: &'static str, x: bool) -> &mut Self {
        self.push(name, TAG_BOOL, vec![u8::from(x)]);
        self
    }

    /// A string field (enum variants, version strings).
    pub fn field_str(&mut self, name: &'static str, x: &str) -> &mut Self {
        self.push(name, TAG_STR, x.as_bytes().to_vec());
        self
    }

    /// An ordered float-sequence field (the order *is* content here —
    /// Rossby radii per interface, say).
    pub fn field_f64s(&mut self, name: &'static str, xs: &[f64]) -> &mut Self {
        let mut bytes = Vec::with_capacity(8 * xs.len());
        for x in xs {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        self.push(name, TAG_F64S, bytes);
        self
    }

    /// A nested structure, represented by its own canonical digest.
    pub fn field_digest(&mut self, name: &'static str, digest: &str) -> &mut Self {
        self.push(name, TAG_DIGEST, digest.as_bytes().to_vec());
        self
    }

    /// Sort the fields by name, hash, and render as 16 lowercase hex
    /// digits.
    pub fn finish(mut self) -> String {
        self.entries.sort_by_key(|(name, _, _)| *name);
        let mut buf = Vec::new();
        for (name, tag, bytes) in &self.entries {
            buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.push(*tag);
            buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            buf.extend_from_slice(bytes);
        }
        format!("{:016x}", crc64(&buf))
    }
}

impl FoamConfig {
    /// Canonical digest of everything that determines this
    /// configuration's simulated bits: the science fields of the
    /// atmosphere, ocean, physics, and coupling configuration, the
    /// seed, the rank layout, and the crate version (an upgraded binary
    /// must never serve stale cached results). 16 lowercase hex digits
    /// of CRC-64/XZ — see the module docs for the canonicalization and
    /// exclusion rules.
    pub fn canonical_digest(&self) -> String {
        let qg = &self.atm.dynamics;
        let mut qg_h = CanonicalHasher::new();
        qg_h.field_u64("nlev", qg.nlev as u64)
            .field_f64s("rossby_radii", &qg.rossby_radii)
            .field_f64("tau_ekman", qg.tau_ekman)
            .field_f64("tau_thermal", qg.tau_thermal)
            .field_f64("nu_hyper", qg.nu_hyper)
            .field_f64("robert", qg.robert);

        let phys = &self.atm.physics;
        let mut rad_h = CanonicalHasher::new();
        rad_h
            .field_f64("k_h2o", phys.rad.k_h2o)
            .field_f64("k_co2", phys.rad.k_co2)
            .field_f64("co2_factor", phys.rad.co2_factor)
            .field_f64("sw_abs_per_pw", phys.rad.sw_abs_per_pw)
            .field_f64("cloud_albedo", phys.rad.cloud_albedo)
            .field_f64("cloud_lw", phys.rad.cloud_lw)
            .field_f64("solar_scale", phys.rad.solar_scale)
            .field_f64("aerosol_od", phys.rad.aerosol_od);
        // The vintage decides what convection runs; hash the effective
        // switches under the names they had as fields.
        let (deep_enabled, evap_eff) = phys.conv.switches(phys.vintage);
        let mut conv_h = CanonicalHasher::new();
        conv_h
            .field_bool("deep_enabled", deep_enabled)
            .field_f64("cape_threshold", phys.conv.cape_threshold)
            .field_f64("tau_deep", phys.conv.tau_deep)
            .field_u64("max_iters", phys.conv.max_iters as u64)
            .field_f64("evap_eff", evap_eff);
        let mut phys_h = CanonicalHasher::new();
        phys_h
            .field_digest("rad", &rad_h.finish())
            .field_digest("conv", &conv_h.finish())
            .field_f64("rad_refresh", phys.rad_refresh)
            .field_f64("k_pbl_unstable", phys.k_pbl_unstable)
            .field_f64("k_pbl_stable", phys.k_pbl_stable)
            .field_f64("pbl_depth", phys.pbl_depth)
            .field_f64("z_ref", phys.z_ref)
            // Constants that were once settable keep their place in the
            // digest, so no cache key moved when they stopped being.
            .field_bool("diurnal", true)
            .field_str("vintage", &format!("{:?}", phys.vintage))
            .field_f64("obliquity_deg", phys.obliquity_deg);

        let mut atm_h = CanonicalHasher::new();
        atm_h
            .field_u64("nlon", self.atm.nlon as u64)
            .field_u64("nlat", self.atm.nlat as u64)
            .field_u64("m_max", self.atm.m_max as u64)
            .field_u64("nlev_phys", self.atm.nlev_phys as u64)
            .field_f64("dt", self.atm.dt)
            .field_digest("dynamics", &qg_h.finish())
            .field_digest("physics", &phys_h.finish())
            .field_f64("tracer_nu4", self.atm.tracer_nu4)
            .field_bool("orography", true)
            .field_u64("seed", self.atm.seed);

        let o = &self.ocean;
        let mut pp_h = CanonicalHasher::new();
        pp_h.field_f64("nu0", o.pp.nu0)
            .field_f64("nu_b", o.pp.nu_b)
            .field_f64("kappa_b", o.pp.kappa_b)
            .field_f64("alpha", o.pp.alpha)
            .field_i64("exponent", i64::from(o.pp.exponent));
        let mut ocean_h = CanonicalHasher::new();
        ocean_h
            .field_u64("nx", o.nx as u64)
            .field_u64("ny", o.ny as u64)
            .field_f64("lat_max_deg", o.lat_max_deg)
            .field_u64("nz", o.nz as u64)
            .field_f64("depth", o.depth)
            .field_f64("stretch", o.stretch)
            .field_f64("dt_int", o.dt_int)
            .field_u64("n_trac", o.n_trac as u64)
            .field_f64("slowdown", o.slowdown)
            .field_f64("nu4", o.nu4)
            .field_f64("kappa_h", o.kappa_h)
            .field_f64("upwind", o.upwind)
            .field_digest("pp", &pp_h.finish())
            .field_f64("polar_lat", o.polar_lat)
            .field_bool("polar_filter_on", true);

        let mut h = CanonicalHasher::new();
        h.field_str("crate_version", env!("CARGO_PKG_VERSION"))
            .field_digest("atm", &atm_h.finish())
            .field_digest("ocean", &ocean_h.finish())
            .field_u64("n_atm_ranks", self.n_atm_ranks as u64)
            .field_f64("dt_couple", self.dt_couple)
            .field_str(
                "coupling",
                match self.coupling {
                    CouplingMode::Lagged => "lagged",
                    CouplingMode::Sequential => "sequential",
                },
            )
            .field_str(
                "ocean_scheme",
                match self.ocean_scheme {
                    SplitScheme::FoamSplit => "foam_split",
                    SplitScheme::Unsplit => "unsplit",
                },
            )
            // Streaming statistics change what the run *reports* (the
            // stream section), so the sketch rank is content.
            .field_u64(
                "stream_eof_rank",
                self.stream.as_ref().map(|s| s.eof_rank as u64).unwrap_or(0),
            )
            // Once a setting; hashed as the constant it became so no
            // cache key moved.
            .field_bool("collect_monthly_sst", false)
            // Scenario forcings are content: a CO₂ ramp and a control
            // over the same base config are different experiments and
            // must never collide in a result cache.
            .field_digest("forcings", &forcings_digest(&self.forcings));
        h.finish()
    }
}

/// Canonical sub-digest of a forcing bundle: each channel's breakpoint
/// series flattened to `[day₀, value₀, day₁, value₁, …]` (order is
/// content — the series *is* an ordered sequence). Empty channels hash
/// as empty sequences, so the default `Forcings` contributes a fixed
/// digest and legacy digests shift uniformly exactly once.
fn forcings_digest(f: &foam_physics::Forcings) -> String {
    fn flat(points: &[(f64, f64)]) -> Vec<f64> {
        points.iter().flat_map(|&(d, v)| [d, v]).collect()
    }
    let mut h = CanonicalHasher::new();
    h.field_f64s("co2", &flat(f.co2.points()))
        .field_f64s("solar", &flat(f.solar.points()))
        .field_f64s("aerosol", &flat(f.aerosol.points()));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_independent_of_field_feed_order() {
        // The same three fields, fed in every permutation, must hash
        // identically — this is the property that makes struct-field
        // reorders (and hashing-code reorders) digest-preserving.
        let fields: [(&'static str, f64); 3] = [("dt", 1800.0), ("nu", 1.0e16), ("robert", 0.02)];
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let digests: Vec<String> = orders
            .iter()
            .map(|order| {
                let mut h = CanonicalHasher::new();
                for &i in order {
                    h.field_f64(fields[i].0, fields[i].1);
                }
                h.field_u64("seed", 7).field_str("version", "0.1.0");
                h.finish()
            })
            .collect();
        for d in &digests[1..] {
            assert_eq!(d, &digests[0]);
        }
    }

    #[test]
    fn type_tags_and_names_disambiguate() {
        let mut a = CanonicalHasher::new();
        a.field_u64("x", 1);
        let mut b = CanonicalHasher::new();
        b.field_f64("x", f64::from_bits(1));
        assert_ne!(a.finish(), b.finish(), "same bytes, different type");

        let mut c = CanonicalHasher::new();
        c.field_str("ab", "c");
        let mut d = CanonicalHasher::new();
        d.field_str("a", "bc");
        assert_ne!(c.finish(), d.finish(), "name/payload boundary encoded");
    }

    #[test]
    fn config_digest_round_trips_and_discriminates() {
        let base = FoamConfig::tiny(42);
        let d = base.canonical_digest();
        assert_eq!(d, base.clone().canonical_digest(), "clone-stable");
        assert_eq!(d.len(), 16);
        assert!(d.chars().all(|c| c.is_ascii_hexdigit()));

        // Science knobs move the digest...
        assert_ne!(d, FoamConfig::tiny(43).canonical_digest());
        let mut c = base.clone();
        c.ocean.slowdown *= 2.0;
        assert_ne!(d, c.canonical_digest());
        let mut c = base.clone();
        c.coupling = CouplingMode::Sequential;
        assert_ne!(d, c.canonical_digest());
        let mut c = base.clone();
        c.n_atm_ranks += 1;
        assert_ne!(d, c.canonical_digest());
        let mut c = base.clone();
        c.atm.physics.rad.co2_factor = 2.0;
        assert_ne!(d, c.canonical_digest());

        // ...observability and fault-handling knobs do not.
        let mut c = base.clone();
        c.telemetry.enabled = true;
        c.tracing = true;
        c.runtime.kill_rank = Some(crate::RankKill {
            rank: 1,
            interval: 3,
        });
        c.ckpt = crate::CkptConfig::every("/tmp/anywhere", 3);
        assert_eq!(d, c.canonical_digest());
    }

    #[test]
    fn forcing_content_moves_the_digest() {
        use foam_physics::ForcingSeries;
        let base = FoamConfig::tiny(42);
        let d = base.canonical_digest();

        // Two different scenarios over the same base config must get
        // distinct digests (the result-cache collision regression).
        let mut ramp = base.clone();
        ramp.forcings.co2 =
            ForcingSeries::from_points(vec![(0.0, 1.0), (70.0 * 360.0, 2.0)]).unwrap();
        let mut pulse = base.clone();
        pulse.forcings.aerosol =
            ForcingSeries::from_points(vec![(0.0, 0.0), (30.0, 0.15), (400.0, 0.0)]).unwrap();
        let (dr, dp) = (ramp.canonical_digest(), pulse.canonical_digest());
        assert_ne!(dr, d, "CO₂ ramp must move the digest");
        assert_ne!(dp, d, "aerosol pulse must move the digest");
        assert_ne!(dr, dp, "distinct scenarios over one base must not collide");

        // The series *content* is hashed, not just its presence.
        let mut ramp2 = base.clone();
        ramp2.forcings.co2 =
            ForcingSeries::from_points(vec![(0.0, 1.0), (70.0 * 360.0, 4.0)]).unwrap();
        assert_ne!(ramp.canonical_digest(), ramp2.canonical_digest());

        // New static science knobs are content too.
        let mut solar = base.clone();
        solar.atm.physics.rad.solar_scale = 1.01;
        assert_ne!(solar.canonical_digest(), d);
        let mut paleo = base.clone();
        paleo.atm.physics.obliquity_deg = 22.1;
        assert_ne!(paleo.canonical_digest(), d);
    }

    #[test]
    fn presets_have_distinct_digests() {
        let seeds = [
            FoamConfig::tiny(1).canonical_digest(),
            FoamConfig::century(1).canonical_digest(),
            FoamConfig::paper(16, 1).canonical_digest(),
        ];
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
        assert_ne!(seeds[0], seeds[2]);
    }
}
