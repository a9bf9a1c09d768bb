//! Cross-member ensemble statistics: the mean/spread summaries an
//! ensemble of perturbed coupled runs reduces its diagnostic series
//! into (the numbers the `foam-ensemble/1` report carries).
//!
//! Everything here is **order-independent by construction**: the
//! accumulation order over members is fixed by the slice order the
//! caller passes (member id order, in `foam-ensemble`), so the same set
//! of members always reduces to bit-identical statistics regardless of
//! which member *finished* first.
//!
//! Degenerate inputs (zero members, mismatched series lengths) come
//! back as a typed [`StatsError`] instead of a panic — an orchestrator
//! that lost every member should report that failure, not abort while
//! reporting it.

use crate::stream::StatsError;

/// Per-time-step ensemble mean over members.
///
/// `series[m]` is member `m`'s diagnostic series; all members must have
/// the same length (they integrated the same number of coupling
/// intervals) or a [`StatsError::LengthMismatch`] comes back.
///
/// ```
/// use foam_stats::ensemble::ensemble_mean;
///
/// let m = ensemble_mean(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m, vec![2.0, 3.0]);
/// assert!(ensemble_mean(&[]).is_err());
/// ```
pub fn ensemble_mean(series: &[Vec<f64>]) -> Result<Vec<f64>, StatsError> {
    let n_m = series.len();
    if n_m == 0 {
        return Err(StatsError::Empty {
            what: "ensemble mean",
        });
    }
    let n_t = series[0].len();
    let mut mean = vec![0.0; n_t];
    for s in series {
        if s.len() != n_t {
            return Err(StatsError::LengthMismatch {
                what: "ensemble member series",
                expected: n_t,
                got: s.len(),
            });
        }
        for (acc, v) in mean.iter_mut().zip(s) {
            *acc += v;
        }
    }
    for acc in mean.iter_mut() {
        *acc /= n_m as f64;
    }
    Ok(mean)
}

/// Per-time-step ensemble spread (population standard deviation across
/// members). A one-member ensemble has zero spread everywhere; a
/// zero-member one is a typed error.
///
/// ```
/// use foam_stats::ensemble::ensemble_spread;
///
/// let s = ensemble_spread(&[vec![1.0, 0.0], vec![3.0, 0.0]]).unwrap();
/// assert_eq!(s, vec![1.0, 0.0]);
/// ```
pub fn ensemble_spread(series: &[Vec<f64>]) -> Result<Vec<f64>, StatsError> {
    let n_m = series.len();
    if n_m == 0 {
        return Err(StatsError::Empty {
            what: "ensemble spread",
        });
    }
    let mean = ensemble_mean(series)?;
    let n_t = mean.len();
    let mut var = vec![0.0; n_t];
    for s in series {
        for ((acc, v), m) in var.iter_mut().zip(s).zip(&mean) {
            let d = v - m;
            *acc += d * d;
        }
    }
    Ok(var.into_iter().map(|v| (v / n_m as f64).sqrt()).collect())
}

/// Element-wise ensemble mean over member *fields* (flattened grids) —
/// the reference field the per-member pattern statistics compare
/// against.
///
/// ```
/// use foam_stats::ensemble::ensemble_mean_field;
///
/// let a = [0.0, 4.0];
/// let b = [2.0, 0.0];
/// assert_eq!(ensemble_mean_field(&[&a, &b]).unwrap(), vec![1.0, 2.0]);
/// ```
pub fn ensemble_mean_field(fields: &[&[f64]]) -> Result<Vec<f64>, StatsError> {
    let n_m = fields.len();
    if n_m == 0 {
        return Err(StatsError::Empty {
            what: "ensemble mean field",
        });
    }
    let n_s = fields[0].len();
    let mut mean = vec![0.0; n_s];
    for f in fields {
        if f.len() != n_s {
            return Err(StatsError::LengthMismatch {
                what: "ensemble member field",
                expected: n_s,
                got: f.len(),
            });
        }
        for (acc, v) in mean.iter_mut().zip(f.iter()) {
            *acc += v;
        }
    }
    for acc in mean.iter_mut() {
        *acc /= n_m as f64;
    }
    Ok(mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::FieldMoments;

    #[test]
    fn one_member_has_zero_spread_and_is_its_own_mean() {
        let s = vec![vec![1.5, -2.0, 0.25]];
        assert_eq!(ensemble_mean(&s).unwrap(), s[0]);
        assert_eq!(ensemble_spread(&s).unwrap(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn mean_and_spread_match_hand_computation() {
        let s = vec![vec![1.0, 10.0], vec![2.0, 10.0], vec![3.0, 10.0]];
        assert_eq!(ensemble_mean(&s).unwrap(), vec![2.0, 10.0]);
        let spread = ensemble_spread(&s).unwrap();
        assert!((spread[0] - (2.0f64 / 3.0).sqrt()).abs() < 1e-15);
        assert_eq!(spread[1], 0.0);
    }

    #[test]
    fn mean_field_averages_pointwise() {
        let a = [0.0, 4.0];
        let b = [2.0, 0.0];
        assert_eq!(ensemble_mean_field(&[&a, &b]).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn zero_members_are_a_typed_error() {
        assert_eq!(
            ensemble_mean(&[]).unwrap_err(),
            StatsError::Empty {
                what: "ensemble mean"
            }
        );
        assert_eq!(
            ensemble_spread(&[]).unwrap_err(),
            StatsError::Empty {
                what: "ensemble spread"
            }
        );
        assert_eq!(
            ensemble_mean_field(&[]).unwrap_err(),
            StatsError::Empty {
                what: "ensemble mean field"
            }
        );
    }

    #[test]
    fn mismatched_lengths_are_a_typed_error() {
        let err = ensemble_mean(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(
            err,
            StatsError::LengthMismatch {
                what: "ensemble member series",
                expected: 1,
                got: 2
            }
        );
        assert!(ensemble_spread(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let a = [0.0, 4.0];
        let b = [2.0];
        assert!(ensemble_mean_field(&[&a, &b]).is_err());
    }

    #[test]
    fn streaming_mean_is_bit_identical_spread_close() {
        let members: Vec<Vec<f64>> = (0..7)
            .map(|m| {
                (0..40)
                    .map(|t| (m as f64 * 1.3 + t as f64 * 0.21).sin() * 5.0)
                    .collect()
            })
            .collect();
        let batch_mean = ensemble_mean(&members).unwrap();
        let batch_spread = ensemble_spread(&members).unwrap();
        // The streaming moments fold members in slice order, exactly as
        // the batch reductions do.
        let mut e = FieldMoments::new(40);
        for m in &members {
            e.push(m).unwrap();
        }
        assert_eq!(e.count(), 7);
        let sm = e.mean_field();
        let sv = e.variance_field();
        for t in 0..40 {
            assert_eq!(sm[t].to_bits(), batch_mean[t].to_bits(), "t={t}");
            assert!((sv[t].sqrt() - batch_spread[t]).abs() < 1e-10, "t={t}");
        }
    }
}
