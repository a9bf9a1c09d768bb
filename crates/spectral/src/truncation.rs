//! The rhomboidal spectral truncation.
//!
//! FOAM's atmosphere runs at R15: for each zonal wavenumber m ∈ [0, M]
//! the meridional degrees n ∈ [m, m + M] are retained — a "rhomboid" in
//! the (m, n) plane, M+1 degrees per wavenumber. (Triangular truncation
//! would instead cap n ≤ M.) The storage layout here is dense:
//! `idx(m, n) = m (M+1) + (n − m)`.

use foam_ckpt::{ByteReader, CkptError, Codec};

/// A rhomboidal truncation R(M).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// Largest zonal wavenumber M (15 for R15).
    pub m_max: usize,
}

impl Truncation {
    pub fn rhomboidal(m_max: usize) -> Self {
        Truncation { m_max }
    }

    /// The paper's resolution.
    pub fn r15() -> Self {
        Self::rhomboidal(15)
    }

    /// Degrees retained per zonal wavenumber.
    #[inline]
    pub fn n_per_m(&self) -> usize {
        self.m_max + 1
    }

    /// Total number of retained (m, n) pairs.
    #[inline]
    pub fn len(&self) -> usize {
        (self.m_max + 1) * (self.m_max + 1)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Highest retained degree for wavenumber `m`.
    #[inline]
    pub fn n_max(&self, m: usize) -> usize {
        m + self.m_max
    }

    /// Largest degree overall (n of the corner coefficient).
    #[inline]
    pub fn n_max_overall(&self) -> usize {
        2 * self.m_max
    }

    /// Flat index of coefficient (m, n).
    #[inline]
    pub fn idx(&self, m: usize, n: usize) -> usize {
        debug_assert!(m <= self.m_max && n >= m && n <= self.n_max(m));
        m * self.n_per_m() + (n - m)
    }

    /// Iterate all retained (m, n) pairs, m-major.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..=self.m_max).flat_map(move |m| (m..=self.n_max(m)).map(move |n| (m, n)))
    }
}

impl Codec for Truncation {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.m_max.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(Truncation {
            m_max: usize::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r15_counts() {
        let t = Truncation::r15();
        assert_eq!(t.len(), 256);
        assert_eq!(t.n_per_m(), 16);
        assert_eq!(t.n_max(0), 15);
        assert_eq!(t.n_max(15), 30);
        assert_eq!(t.n_max_overall(), 30);
        // The paper's 48 × 40 grid satisfies the alias-free bounds for
        // quadratic products: more than 3M longitudes, at least
        // (5M + 1) / 2 Gaussian latitudes.
        assert!(48 > 3 * t.m_max);
        assert!(40 >= (5 * t.m_max + 1).div_ceil(2));
    }

    #[test]
    fn indexing_is_dense_and_bijective() {
        let t = Truncation::rhomboidal(6);
        let mut seen = vec![false; t.len()];
        for (m, n) in t.pairs() {
            let k = t.idx(m, n);
            assert!(!seen[k], "duplicate index {k}");
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pairs_respect_rhomboid_shape() {
        let t = Truncation::rhomboidal(4);
        for (m, n) in t.pairs() {
            assert!(n >= m && n <= m + 4);
        }
        assert_eq!(t.pairs().count(), t.len());
    }
}
