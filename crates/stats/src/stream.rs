//! Streaming (single-pass) statistical estimators.
//!
//! Century-scale runs cannot afford the `O(grid × months)` history the
//! batch analyses in this crate consume: a 100-simulated-year run on
//! the paper's ocean grid would retain 1,200 monthly fields before a
//! single statistic is computed. The types here consume **one sample at
//! a time** and hold state of size `O(grid)` (plus `O(months × rank)`
//! for the EOF sketch coefficients), so the coupled driver can
//! regenerate the Figure 3/4 diagnostics from a stream.
//!
//! Equivalence with the batch implementations is part of the contract,
//! proven by the property-test layer (`tests/stream_stats_props.rs`):
//!
//! * running sums ([`FieldMoments::mean_field`]) accumulate in the same
//!   order as the batch code, so sequential streaming is
//!   **bit-identical** to batch;
//! * variances use Welford's update, which matches the two-pass batch
//!   computation to ~1e-10 relative;
//! * [`FieldMoments::merge`] (Chan's parallel update) supports "split
//!   anywhere, merge, continue".
//!
//! All streaming state implements `foam_ckpt::Codec` with raw IEEE-754
//! bits, so a checkpointed stream resumes bit-identically.

use foam_ckpt::{ByteReader, CkptError, Codec};

/// Typed error of the statistics layer — the panic-free alternative to
/// `assert!` deep inside a reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// A reduction over zero members/samples was requested.
    Empty { what: &'static str },
    /// Two series/fields that must have equal lengths do not.
    LengthMismatch {
        what: &'static str,
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty { what } => write!(f, "{what} over zero members"),
            StatsError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected length {expected}, got {got}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Per-element online mean/variance of a stream of equal-length vectors
/// (Welford's algorithm, stored struct-of-arrays), plus a running sum so
/// the mean reproduces the batch `Σx / n` bit-for-bit. The memory
/// footprint is `O(grid)` regardless of how many samples flow through:
/// the per-gridpoint moments of monthly SST fields over time (the
/// Figure-3 time mean) that `foam::DriverStream` carries.
///
/// ```
/// use foam_stats::stream::FieldMoments;
///
/// let mut m = FieldMoments::new(2);
/// m.push(&[1.0, 10.0]).unwrap();
/// m.push(&[3.0, 10.0]).unwrap();
/// assert_eq!(m.mean_field(), vec![2.0, 10.0]);
/// assert_eq!(m.variance_field(), vec![1.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FieldMoments {
    n: u64,
    sum: Vec<f64>,
    mean_w: Vec<f64>,
    m2: Vec<f64>,
}

impl FieldMoments {
    /// An empty accumulator for vectors of length `len`.
    pub fn new(len: usize) -> Self {
        FieldMoments {
            n: 0,
            sum: vec![0.0; len],
            mean_w: vec![0.0; len],
            m2: vec![0.0; len],
        }
    }

    /// Element count of the accumulated vectors.
    pub fn len(&self) -> usize {
        self.sum.len()
    }

    /// True until the first sample arrives.
    ///
    /// ```
    /// assert!(foam_stats::stream::FieldMoments::new(3).is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Samples consumed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Consume one sample vector; rejects a length mismatch instead of
    /// panicking.
    pub fn push(&mut self, x: &[f64]) -> Result<(), StatsError> {
        if x.len() != self.sum.len() {
            return Err(StatsError::LengthMismatch {
                what: "field moments sample",
                expected: self.sum.len(),
                got: x.len(),
            });
        }
        self.n += 1;
        let nf = self.n as f64;
        for (i, &v) in x.iter().enumerate() {
            self.sum[i] += v;
            let delta = v - self.mean_w[i];
            self.mean_w[i] += delta / nf;
            self.m2[i] += delta * (v - self.mean_w[i]);
        }
        Ok(())
    }

    /// Element-wise mean `Σx / n` — the batch accumulation order, so a
    /// sequential stream matches the batch mean bit-for-bit. All-`NaN`
    /// when empty.
    pub fn mean_field(&self) -> Vec<f64> {
        let nf = self.n as f64;
        self.sum.iter().map(|s| s / nf).collect()
    }

    /// Element-wise population variance.
    pub fn variance_field(&self) -> Vec<f64> {
        if self.n < 2 {
            return vec![0.0; self.m2.len()];
        }
        let nf = self.n as f64;
        self.m2.iter().map(|m| m / nf).collect()
    }

    /// Fold another accumulator in (element-wise Chan update); rejects a
    /// length mismatch.
    ///
    /// ```
    /// use foam_stats::stream::FieldMoments;
    ///
    /// let mut a = FieldMoments::new(1);
    /// let mut b = FieldMoments::new(1);
    /// a.push(&[1.0]).unwrap();
    /// b.push(&[3.0]).unwrap();
    /// a.merge(&b).unwrap();
    /// assert_eq!(a.mean_field(), vec![2.0]);
    /// ```
    pub fn merge(&mut self, other: &FieldMoments) -> Result<(), StatsError> {
        if other.len() != self.len() {
            return Err(StatsError::LengthMismatch {
                what: "field moments merge",
                expected: self.len(),
                got: other.len(),
            });
        }
        if other.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            *self = other.clone();
            return Ok(());
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        for i in 0..self.len() {
            let delta = other.mean_w[i] - self.mean_w[i];
            self.m2[i] += other.m2[i] + delta * delta * na * nb / n;
            self.mean_w[i] += delta * nb / n;
            self.sum[i] += other.sum[i];
        }
        self.n += other.n;
        Ok(())
    }
}

impl Codec for FieldMoments {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.n.encode(buf);
        self.sum.encode(buf);
        self.mean_w.encode(buf);
        self.m2.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let n = u64::decode(r)?;
        let sum = Vec::<f64>::decode(r)?;
        let mean_w = Vec::<f64>::decode(r)?;
        let m2 = Vec::<f64>::decode(r)?;
        if mean_w.len() != sum.len() || m2.len() != sum.len() {
            return Err(CkptError::Corrupt(
                "field moments arrays disagree on length".into(),
            ));
        }
        Ok(FieldMoments { n, sum, mean_w, m2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-element rows `(x, 3 - x/2)` so every property is checked on
    /// two independent columns at once.
    fn rows(xs: &[f64]) -> Vec<[f64; 2]> {
        xs.iter().map(|&x| [x, 3.0 - 0.5 * x]).collect()
    }

    fn moments_of(rows: &[[f64; 2]]) -> FieldMoments {
        let mut m = FieldMoments::new(2);
        for r in rows {
            m.push(r).unwrap();
        }
        m
    }

    #[test]
    fn sequential_mean_is_bit_identical_to_batch() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.7).sin() * 1e3).collect();
        let rows = rows(&xs);
        let mean = moments_of(&rows).mean_field();
        for c in 0..2 {
            let batch = rows.iter().map(|r| r[c]).sum::<f64>() / rows.len() as f64;
            assert_eq!(mean[c].to_bits(), batch.to_bits());
        }
    }

    #[test]
    fn welford_variance_matches_two_pass() {
        let xs: Vec<f64> = (0..500).map(|i| 20.0 + (i as f64 * 0.3).cos()).collect();
        let rows = rows(&xs);
        let got = moments_of(&rows).variance_field();
        let n = rows.len() as f64;
        for c in 0..2 {
            let mean = rows.iter().map(|r| r[c]).sum::<f64>() / n;
            let var = rows.iter().map(|r| (r[c] - mean).powi(2)).sum::<f64>() / n;
            assert!((got[c] - var).abs() < 1e-10 * var.max(1.0));
        }
    }

    #[test]
    fn merge_equals_sequential_to_tolerance() {
        let xs: Vec<f64> = (0..300).map(|i| (i as f64).sqrt() - 8.0).collect();
        let rows = rows(&xs);
        let whole = moments_of(&rows);
        for split in [0, 1, 150, 299, 300] {
            let mut a = moments_of(&rows[..split]);
            a.merge(&moments_of(&rows[split..])).unwrap();
            assert_eq!(a.count(), whole.count());
            for c in 0..2 {
                assert!((a.mean_field()[c] - whole.mean_field()[c]).abs() < 1e-12);
                assert!((a.variance_field()[c] - whole.variance_field()[c]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn field_moments_reject_mismatched_lengths() {
        let mut m = FieldMoments::new(3);
        let err = m.push(&[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            StatsError::LengthMismatch {
                what: "field moments sample",
                expected: 3,
                got: 2
            }
        );
        let other = FieldMoments::new(2);
        assert!(m.merge(&other).is_err());
    }

    #[test]
    fn codec_roundtrip_is_bit_exact() {
        let mut m = FieldMoments::new(4);
        m.push(&[1.0, -2.0, 3.5, 0.0]).unwrap();
        m.push(&[0.25, 2.0, -3.5, 1e-300]).unwrap();
        let bytes = m.to_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = FieldMoments::decode(&mut r).unwrap();
        assert_eq!(m, back);
    }
}
