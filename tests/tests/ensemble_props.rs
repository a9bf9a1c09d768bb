//! Property-based test of the ensemble orchestration's determinism
//! contract: for *any* member set, worker count, and submission order,
//! the aggregate `foam-ensemble/1` JSON report comes out byte-identical.
//!
//! It runs the real coupled model at the smallest useful size (one
//! coupling interval per member), so its case count is deliberately low.

use proptest::prelude::*;

use foam::FoamConfig;
use foam_ensemble::{run_ensemble, EnsembleSpec};

proptest! {
    // Each case runs 4 real (tiny, one-interval) ensembles; keep the
    // case count low so the suite stays in tier-1 time budget.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// End-to-end: N members through the real coupled model produce a
    /// byte-identical aggregate JSON report for worker counts {1, 2, 8}
    /// and for a shuffled member submission order.
    #[test]
    fn aggregate_json_is_byte_identical_for_any_worker_count(
        n_members in 1usize..=3,
        seed in 1u32..500,
        shuffle in any::<bool>(),
    ) {
        let mk = || EnsembleSpec::seed_sweep(FoamConfig::tiny(seed as u64), 0.25, n_members);

        let reference = {
            let mut s = mk();
            s.workers = 1;
            run_ensemble(&s).unwrap().report.to_json().to_string_pretty()
        };

        for workers in [2usize, 8] {
            let mut s = mk();
            s.workers = workers;
            if shuffle {
                s.members.reverse();
            }
            let json = run_ensemble(&s).unwrap().report.to_json().to_string_pretty();
            prop_assert_eq!(&json, &reference, "workers = {}, shuffled = {}", workers, shuffle);
        }
    }
}
