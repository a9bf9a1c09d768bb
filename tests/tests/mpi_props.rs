//! Property-based tests of the foam-mpi collectives a coupled run
//! executes: `allreduce_mut` must equal a serial fold written in its
//! binomial-tree order, bit for bit, for *any* rank count, length and
//! input, and communicator splitting must order ranks exactly by (key,
//! parent rank) — not just for the hand-picked cases of the unit tests.

use foam_mpi::{ReduceOp, Universe};
use proptest::prelude::*;

type Fold = fn(f64, f64) -> f64;

/// The fold `allreduce_mut` promises: rank `r` absorbs `r + 1`, then
/// `r + 2`, `r + 4`, ..., each partner having finished its own
/// absorptions first; rank 0 ends up holding the result.
fn tree_fold(contribs: &[Vec<f64>], op: Fold) -> Vec<f64> {
    let p = contribs.len();
    let mut acc = contribs.to_vec();
    let mut mask = 1;
    while mask < p {
        for r in (0..p).step_by(2 * mask) {
            if r + mask < p {
                let (lo, hi) = acc.split_at_mut(r + mask);
                for (a, b) in lo[r].iter_mut().zip(&hi[0]) {
                    *a = op(*a, *b);
                }
            }
        }
        mask <<= 1;
    }
    acc.swap_remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reductions_agree_with_serial_fold(
        p in 1usize..=5,
        len in 0usize..=7,
        base in prop::collection::vec(-1e3f64..1e3, 5 * 7),
    ) {
        let contribs: Vec<Vec<f64>> = (0..p)
            .map(|r| base[r * len..(r + 1) * len].to_vec())
            .collect();
        let ops: [(ReduceOp, Fold); 3] = [
            (ReduceOp::Sum, |a, b| a + b),
            (ReduceOp::Min, f64::min),
            (ReduceOp::Max, f64::max),
        ];
        let out = Universe::run(p, |comm| {
            ops.map(|(op, _)| {
                let mut mine = contribs[comm.rank()].clone();
                comm.allreduce_mut(&mut mine, op);
                mine
            })
        });
        for (k, (op, serial)) in ops.iter().enumerate() {
            let expect = tree_fold(&contribs, *serial);
            for (rank, got) in out.results.iter().enumerate() {
                prop_assert!(
                    got[k].iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{:?} on rank {} of {}: {:?} vs {:?}", op, rank, p, got[k], expect
                );
            }
        }
        prop_assert!(out.lint.is_clean(), "{}", out.lint);
    }

    #[test]
    fn split_orders_ranks_by_key_then_parent_rank(
        p in 2usize..=8,
        colors in prop::collection::vec(0i64..3, 8),
        keys in prop::collection::vec(-4i64..4, 8),
    ) {
        let out = Universe::run(p, |comm| {
            let me = comm.rank();
            let sub = comm.split(colors[me], keys[me]).expect("non-negative color");
            // The members of my color, in the order split() must impose:
            // ascending (key, parent rank).
            let mut members: Vec<(i64, usize)> = (0..p)
                .filter(|r| colors[*r] == colors[me])
                .map(|r| (keys[r], r))
                .collect();
            members.sort();
            assert_eq!(sub.size(), members.len());
            let my_pos = members.iter().position(|&(_, r)| r == me).unwrap();
            assert_eq!(sub.rank(), my_pos, "rank {me} misplaced in its sub-comm");
            // The new communicator must function, and see only its own
            // members: a sum over it is a sum over my color.
            let mut total = [me as f64];
            sub.allreduce_mut(&mut total, ReduceOp::Sum);
            let expect: f64 = members.iter().map(|&(_, r)| r as f64).sum();
            assert_eq!(total[0], expect);
            sub.size()
        });
        prop_assert!(out.lint.is_clean(), "{}", out.lint);
        prop_assert!(out.results.iter().all(|&s| s >= 1));
    }
}
