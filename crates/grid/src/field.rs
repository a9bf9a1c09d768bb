//! Dense 2-D field storage, row-major with `j` (latitude row) as the slow
//! index. The workhorse container for grid-point fields everywhere in
//! FOAM-RS.

use std::ops::{Index, IndexMut};

use foam_ckpt::{ByteReader, CkptError, Codec};

/// A dense `ny × nx` field of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Field2 {
    nx: usize,
    ny: usize,
    data: Vec<f64>,
}

impl Field2 {
    /// A field of zeros.
    pub fn zeros(nx: usize, ny: usize) -> Self {
        Field2 {
            nx,
            ny,
            data: vec![0.0; nx * ny],
        }
    }

    /// A field filled with `v`.
    pub fn filled(nx: usize, ny: usize, v: f64) -> Self {
        Field2 {
            nx,
            ny,
            data: vec![v; nx * ny],
        }
    }

    /// Build from a function of `(i, j)`.
    pub fn from_fn(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                data.push(f(i, j));
            }
        }
        Field2 { nx, ny, data }
    }

    /// Wrap an existing buffer (length must be `nx * ny`).
    pub fn from_vec(nx: usize, ny: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nx * ny, "Field2 buffer length mismatch");
        Field2 { nx, ny, data }
    }

    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny);
        j * self.nx + i
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        self.data[k] = v;
    }

    /// Row `j` as a slice.
    #[inline]
    pub fn row(&self, j: usize) -> &[f64] {
        &self.data[j * self.nx..(j + 1) * self.nx]
    }

    /// Row `j` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nx..(j + 1) * self.nx]
    }

    /// Whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Whole buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Fill with a constant.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self += a * other`, elementwise.
    pub fn axpy(&mut self, a: f64, other: &Field2) {
        assert_eq!(self.data.len(), other.data.len());
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += a * y;
        }
    }

    /// Elementwise scale.
    pub fn scale(&mut self, a: f64) {
        for x in &mut self.data {
            *x *= a;
        }
    }

    /// Maximum absolute value (0 for an empty field).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// True if every entry is finite — the standard integrity check after
    /// a model step.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Codec for Field2 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nx.encode(buf);
        self.ny.encode(buf);
        self.data.encode(buf);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let nx = usize::decode(r)?;
        let ny = usize::decode(r)?;
        let data = Vec::<f64>::decode(r)?;
        if data.len()
            != nx
                .checked_mul(ny)
                .ok_or_else(|| CkptError::Corrupt(format!("Field2 dims {nx}x{ny} overflow")))?
        {
            return Err(CkptError::Corrupt(format!(
                "Field2 buffer length {} does not match dims {nx}x{ny}",
                data.len()
            )));
        }
        Ok(Field2 { nx, ny, data })
    }
}

impl Index<(usize, usize)> for Field2 {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[j * self.nx + i]
    }
}

impl IndexMut<(usize, usize)> for Field2 {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[j * self.nx + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_row_major() {
        let f = Field2::from_fn(3, 2, |i, j| (10 * j + i) as f64);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(f.get(2, 1), 12.0);
        assert_eq!(f[(1, 0)], 1.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Field2::filled(2, 2, 1.0);
        let b = Field2::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-15));
        a.scale(2.0);
        assert!(a.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-15));
    }

    #[test]
    fn stats_helpers() {
        let f = Field2::from_vec(2, 2, vec![1.0, -3.0, 2.0, 0.0]);
        assert_eq!(f.max_abs(), 3.0);
        assert!(f.all_finite());
        let g = Field2::from_vec(1, 2, vec![f64::NAN, 1.0]);
        assert!(!g.all_finite());
    }

    #[test]
    fn rows_are_views() {
        let mut f = Field2::zeros(3, 2);
        f.row_mut(1).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(f.row(1), &[7.0, 8.0, 9.0]);
        assert_eq!(f.get(0, 1), 7.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_checks_length() {
        let _ = Field2::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn codec_round_trip_is_bit_exact() {
        let f = Field2::from_vec(3, 2, vec![1.5, -0.0, f64::NAN, 2e-308, 4.0, -7.25]);
        let g = Field2::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(f.nx(), g.nx());
        assert_eq!(f.ny(), g.ny());
        for (a, b) in f.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_rejects_dim_length_mismatch() {
        let mut buf = Vec::new();
        5usize.encode(&mut buf); // nx
        5usize.encode(&mut buf); // ny
        vec![0.0f64; 4].encode(&mut buf); // wrong: 25 expected
        let err = Field2::from_bytes(&buf).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt(_)));
    }
}
