//! Dense symmetric eigensolver (cyclic Jacobi) — all the linear algebra
//! the EOF analysis needs, implemented here per the no-new-dependencies
//! policy (DESIGN.md §5).

/// Eigen-decomposition of a symmetric matrix (row-major `n × n`).
/// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
/// eigenvector `k` is `vectors[k]` (length `n`, unit norm).
pub(crate) fn symmetric_eigen(a: &[f64], n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    assert_eq!(a.len(), n * n);
    let mut m = a.to_vec();
    // v = identity; accumulates rotations (columns are eigenvectors).
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        // Off-diagonal magnitude.
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m[i * n + j] * m[i * n + j];
            }
        }
        if off.sqrt() < 1e-12 * (1.0 + frobenius(&m, n)) {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q of m.
                for k in 0..n {
                    let mkp = m[k * n + p];
                    let mkq = m[k * n + q];
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[p * n + k];
                    let mqk = m[q * n + k];
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
                // Accumulate in v.
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|k| {
            let val = m[k * n + k];
            let vec: Vec<f64> = (0..n).map(|i| v[i * n + k]).collect();
            (val, vec)
        })
        .collect();
    // `total_cmp`, not `partial_cmp(..).unwrap()`: an eigenvalue can be
    // NaN when the input matrix carries one, and the sort must not
    // panic on it (NaN orders below every finite value descending).
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let vals = pairs.iter().map(|(v, _)| *v).collect();
    let vecs = pairs.into_iter().map(|(_, v)| v).collect();
    (vals, vecs)
}

fn frobenius(m: &[f64], n: usize) -> f64 {
    m.iter().take(n * n).map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0];
        let (vals, vecs) = symmetric_eigen(&a, 3);
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 1.0).abs() < 1e-12);
        assert!((vecs[0][0].abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] → eigenvalues 3 and 1.
        let (vals, vecs) = symmetric_eigen(&[2.0, 1.0, 1.0, 2.0], 2);
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        // First eigenvector ∝ (1, 1)/√2.
        assert!((vecs[0][0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn nan_eigenvalues_do_not_panic_the_sort() {
        // Regression: the descending sort used `partial_cmp(..).unwrap()`
        // and panicked the moment a NaN reached an eigenvalue. A NaN in
        // the input propagates to the diagonal; the decomposition must
        // come back (garbage values, but the right shape) instead of
        // aborting the whole analysis.
        let a = vec![f64::NAN, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0];
        let (vals, vecs) = symmetric_eigen(&a, 3);
        assert_eq!(vals.len(), 3);
        assert_eq!(vecs.len(), 3);
        // Finite eigenvalues still sort descending ahead of the NaN.
        let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
        for pair in finite.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        // Random symmetric matrix from a deterministic generator.
        let n = 8;
        let mut seed = 123u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let x = next();
                a[i * n + j] = x;
                a[j * n + i] = x;
            }
        }
        let (vals, vecs) = symmetric_eigen(&a, n);
        // A v = λ v for each pair.
        for k in 0..n {
            for i in 0..n {
                let av: f64 = (0..n).map(|j| a[i * n + j] * vecs[k][j]).sum();
                assert!(
                    (av - vals[k] * vecs[k][i]).abs() < 1e-9,
                    "k={k} i={i}: {av} vs {}",
                    vals[k] * vecs[k][i]
                );
            }
        }
        // Orthonormal eigenvectors.
        for k1 in 0..n {
            for k2 in 0..n {
                let dot: f64 = (0..n).map(|i| vecs[k1][i] * vecs[k2][i]).sum();
                let expect = if k1 == k2 { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-10);
            }
        }
        // Trace preserved.
        let trace: f64 = (0..n).map(|i| a[i * n + i]).sum();
        let sum_vals: f64 = vals.iter().sum();
        assert!((trace - sum_vals).abs() < 1e-10);
    }
}
