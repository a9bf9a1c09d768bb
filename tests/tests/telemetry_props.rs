//! Property-based tests of the telemetry reduction: the cross-rank
//! reduce must be independent of the order ranks are harvested in, and
//! folding one run's report into another (`TelemetryReport::absorb`, what
//! the supervisor and the ensemble do with resumed segments and members)
//! must be commutative and associative — the algebra that makes the
//! end-of-run reduction safe to reorder.

use proptest::prelude::*;

use foam_telemetry::{TelemetryRegistry, TelemetryReport};

/// A small closed vocabulary keeps collisions (the interesting case)
/// frequent.
const PHASES: &[&str] = &["atm", "atm/dyn", "atm/phys", "ocean", "coupler"];
const COUNTERS: &[&str] = &["msgs", "bytes", "retries"];

/// Raw material for one registry: phase entries as (vocabulary index,
/// seconds), counter entries as (vocabulary index, amount).
type Spec = (Vec<(usize, f64)>, Vec<(usize, u32)>);

fn spec() -> impl Strategy<Value = Spec> {
    (
        prop::collection::vec((0usize..PHASES.len(), 0.0f64..10.0), 0..8),
        prop::collection::vec((0usize..COUNTERS.len(), 0u32..1000), 0..6),
    )
}

fn build(rank: usize, (phases, counters): &Spec) -> TelemetryRegistry {
    let mut r = TelemetryRegistry::new(rank);
    for &(p, s) in phases {
        r.record_phase(PHASES[p], s);
    }
    for &(c, n) in counters {
        r.add(COUNTERS[c], n as u64);
    }
    r
}

/// A one-rank run's report; the wall clock is the sum of its phases.
fn report(s: &Spec) -> TelemetryReport {
    let wall = s.0.iter().map(|(_, secs)| *secs).sum();
    TelemetryReport::from_ranks(3_600.0, wall, vec![build(0, s)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation of the per-rank registries reduces to the same
    /// report — down to the serialized JSON text.
    #[test]
    fn reduction_is_order_independent(
        specs in prop::collection::vec(spec(), 1..6),
        perm in prop::collection::vec(0usize..64, 0..16),
    ) {
        let regs: Vec<TelemetryRegistry> = specs
            .iter()
            .enumerate()
            .map(|(rank, s)| build(rank, s))
            .collect();
        let mut shuffled = regs.clone();
        // Deterministic permutation driven by generated swap indices.
        let n = shuffled.len();
        for (i, &j) in perm.iter().enumerate() {
            shuffled.swap(i % n, j % n);
        }
        let a = TelemetryReport::from_ranks(86_400.0, 2.0, regs);
        let b = TelemetryReport::from_ranks(86_400.0, 2.0, shuffled);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    /// Absorbing is commutative: a ∪ b == b ∪ a.
    #[test]
    fn merge_is_commutative(sa in spec(), sb in spec()) {
        let (a, b) = (report(&sa), report(&sb));
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        prop_assert_eq!(&ab.ranks[0].phases, &ba.ranks[0].phases);
        prop_assert_eq!(&ab.counters, &ba.counters);
        prop_assert_eq!(ab.wall_seconds, ba.wall_seconds);
    }

    /// Absorbing is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_is_associative(sa in spec(), sb in spec(), sc in spec()) {
        let (a, b, c) = (report(&sa), report(&sb), report(&sc));
        let mut left = a.clone();
        left.absorb(&b);
        left.absorb(&c);
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut right = a.clone();
        right.absorb(&bc);
        // Phase seconds are f64 sums; a different association can differ
        // by rounding, so seconds compare with a tolerance while counts
        // (integers) must match exactly.
        prop_assert_eq!(&left.counters, &right.counters);
        let lp = &left.ranks[0].phases;
        let rp = &right.ranks[0].phases;
        prop_assert_eq!(lp.len(), rp.len());
        for (path, stat) in lp {
            let other = &rp[path];
            prop_assert_eq!(stat.calls, other.calls);
            prop_assert!(
                (stat.seconds - other.seconds).abs() <= 1e-9 * (1.0 + stat.seconds.abs()),
                "{}: {} vs {}", path, stat.seconds, other.seconds
            );
        }
    }
}
