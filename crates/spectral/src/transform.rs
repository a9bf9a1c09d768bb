//! Serial spherical-harmonic transform between a Gaussian grid and a
//! rhomboidally truncated spectral space, plus spectral-space calculus.

use foam_ckpt::{ByteReader, CkptError, Codec};
use foam_grid::constants::EARTH_RADIUS;
use foam_grid::{AtmGrid, Field2};

use crate::fft::{real_analysis_rows, real_synthesis_into, Complex, FftPlan, ROW_LANES};
use crate::legendre::LegendreTable;
use crate::truncation::Truncation;

/// A field in spectral space under a [`Truncation`].
///
/// Convention: the grid field is recovered as
/// f(λ, μ) = Re\[ Σ_m (2 − δ_{m0}) e^{imλ} Σ_n a_{mn} P̄ₙᵐ(μ) \],
/// with P̄ orthonormal on μ ∈ \[−1, 1\].
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralField {
    pub trunc: Truncation,
    pub data: Vec<Complex>,
}

impl SpectralField {
    pub fn zeros(trunc: Truncation) -> Self {
        SpectralField {
            trunc,
            data: vec![Complex::ZERO; trunc.len()],
        }
    }

    #[inline]
    pub fn get(&self, m: usize, n: usize) -> Complex {
        self.data[self.trunc.idx(m, n)]
    }

    #[inline]
    pub fn set(&mut self, m: usize, n: usize, v: Complex) {
        let k = self.trunc.idx(m, n);
        self.data[k] = v;
    }

    /// `self += a * other`.
    pub fn axpy(&mut self, a: f64, other: &SpectralField) {
        assert_eq!(self.trunc, other.trunc);
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x += y.scale(a);
        }
    }

    pub fn scale(&mut self, a: f64) {
        for x in &mut self.data {
            *x = x.scale(a);
        }
    }

    /// Spectral Laplacian: each (m, n) multiplied by −n(n+1)/a².
    pub fn laplacian(&self) -> SpectralField {
        let mut out = self.clone();
        self.laplacian_into(&mut out);
        out
    }

    /// Allocation-free [`SpectralField::laplacian`]: writes the
    /// Laplacian of `self` into `out` (every coefficient is
    /// overwritten). Bit-identical to the allocating form.
    pub fn laplacian_into(&self, out: &mut SpectralField) {
        assert_eq!(self.trunc, out.trunc);
        let a2 = EARTH_RADIUS * EARTH_RADIUS;
        for (m, n) in self.trunc.pairs() {
            let k = self.trunc.idx(m, n);
            let eig = -((n * (n + 1)) as f64) / a2;
            out.data[k] = self.data[k].scale(eig);
        }
    }

    /// Overwrite `self` with a bitwise copy of `other`'s coefficients.
    #[inline]
    pub fn copy_from(&mut self, other: &SpectralField) {
        assert_eq!(self.trunc, other.trunc);
        self.data.copy_from_slice(&other.data);
    }

    /// Implicit ∇⁴ hyperdiffusion over a step `dt`:
    /// a ← a / (1 + dt ν₄ (n(n+1)/a²)²). Unconditionally stable — the
    /// standard spectral-model damping (the ocean uses an explicit ∇⁴ on
    /// its grid instead).
    pub fn apply_hyperdiffusion(&mut self, nu4: f64, dt: f64) {
        let a2 = EARTH_RADIUS * EARTH_RADIUS;
        for (m, n) in self.trunc.pairs() {
            let k = self.trunc.idx(m, n);
            let lap = (n * (n + 1)) as f64 / a2;
            let f = 1.0 / (1.0 + dt * nu4 * lap * lap);
            self.data[k] = self.data[k].scale(f);
        }
    }

    /// Implicit combined ∇² + ∇⁴ diffusion over a step `dt`:
    /// a ← a / (1 + dt (ν₂ L + ν₄ L²)) with L = n(n+1)/a². Used by the
    /// tracer advection, where a little ∇² keeps explicit advection tame.
    pub fn apply_diffusion(&mut self, nu2: f64, nu4: f64, dt: f64) {
        let a2 = EARTH_RADIUS * EARTH_RADIUS;
        for (m, n) in self.trunc.pairs() {
            let k = self.trunc.idx(m, n);
            let lap = (n * (n + 1)) as f64 / a2;
            let f = 1.0 / (1.0 + dt * (nu2 * lap + nu4 * lap * lap));
            self.data[k] = self.data[k].scale(f);
        }
    }

    /// Area-mean of f² over the sphere, computed spectrally (Parseval).
    pub fn mean_square(&self) -> f64 {
        let mut s = 0.0;
        for (m, n) in self.trunc.pairs() {
            let w = if m == 0 { 1.0 } else { 2.0 };
            s += w * self.get(m, n).norm_sq();
        }
        0.5 * s
    }
}

impl Codec for SpectralField {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.trunc.encode(buf);
        self.data.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let trunc = Truncation::decode(r)?;
        let data = Vec::<Complex>::decode(r)?;
        if data.len() != trunc.len() {
            return Err(CkptError::Corrupt(format!(
                "SpectralField has {} coefficients but truncation R{} holds {}",
                data.len(),
                trunc.m_max,
                trunc.len()
            )));
        }
        Ok(SpectralField { trunc, data })
    }
}

/// Pre-allocated scratch for the spherical-harmonic transform: FFT
/// scratch and Fourier coefficients for one group of [`ROW_LANES`]
/// latitude rows, and one field's spectral accumulator as flat
/// `(re, im)` pairs — the layout the cross-rank reduction sends, so the
/// analysis sums straight into the payload.
///
/// Every `_ws`/`_into` method of [`SphericalTransform`] and
/// [`ParTransform`](crate::ParTransform) borrows the pieces it needs
/// from one of these instead of allocating per call, which is what
/// keeps the coupled hot loop allocation-free in steady state (see
/// PERFORMANCE.md). One workspace serves one transform engine; sharing
/// it across engines of different sizes panics on a size assert.
///
/// ```
/// use foam_grid::{AtmGrid, Field2};
/// use foam_spectral::{SpectralField, SpectralWorkspace, SphericalTransform, Truncation};
///
/// let t = SphericalTransform::new(AtmGrid::new(16, 8), Truncation::rhomboidal(3));
/// let mut ws = SpectralWorkspace::new(&t);
/// let f = Field2::from_fn(16, 8, |i, j| (i + j) as f64);
/// let mut spec = SpectralField::zeros(t.trunc);
/// t.analyze_ws(&f, &mut ws, &mut spec);
/// assert_eq!(spec, t.analyze(&f)); // bit-identical to the allocating path
/// ```
#[derive(Debug, Clone)]
pub struct SpectralWorkspace {
    /// FFT scratch for a row group (`ROW_LANES * plan.scratch_len()`).
    pub(crate) fft: Vec<Complex>,
    /// Fourier coefficients of a row group: `ROW_LANES` rows of
    /// `m_max + 1`, one after the other.
    pub(crate) cm: Vec<Complex>,
    /// Spectral accumulator of one field, `(re, im)` interleaved.
    pub(crate) flat: Vec<f64>,
}

impl SpectralWorkspace {
    /// A workspace sized for `t`; reuse it across all transforms of the
    /// same engine.
    pub fn new(t: &SphericalTransform) -> Self {
        SpectralWorkspace {
            fft: vec![Complex::ZERO; ROW_LANES * t.plan.scratch_len()],
            cm: vec![Complex::ZERO; ROW_LANES * (t.trunc.m_max + 1)],
            flat: vec![0.0; 2 * t.trunc.len()],
        }
    }
}

/// Read spectral coefficients back out of flat `(re, im)` pairs.
pub(crate) fn unflatten(flat: &[f64], out: &mut [Complex]) {
    assert_eq!(flat.len(), 2 * out.len());
    for (c, pair) in out.iter_mut().zip(flat.chunks_exact(2)) {
        *c = Complex::new(pair[0], pair[1]);
    }
}

/// Transform engine bound to a grid and truncation: precomputed FFT plan
/// and Legendre tables.
pub struct SphericalTransform {
    pub grid: AtmGrid,
    pub trunc: Truncation,
    plan: FftPlan,
    /// One table per zonal wavenumber m, tabulated at all grid latitudes.
    tables: Vec<LegendreTable>,
}

impl SphericalTransform {
    pub fn new(grid: AtmGrid, trunc: Truncation) -> Self {
        assert!(
            grid.nlon >= 2 * trunc.m_max + 2,
            "nlon {} too small for m_max {}",
            grid.nlon,
            trunc.m_max
        );
        let plan = FftPlan::new(grid.nlon);
        let tables = (0..=trunc.m_max)
            .map(|m| LegendreTable::new(m, trunc.n_max(m), &grid.mu))
            .collect();
        SphericalTransform {
            grid,
            trunc,
            plan,
            tables,
        }
    }

    /// The paper's configuration: R15 on the 48 × 40 Gaussian grid.
    pub fn r15() -> Self {
        Self::new(AtmGrid::r15(), Truncation::r15())
    }

    /// Forward (analysis) transform of a full grid field.
    pub fn analyze(&self, f: &Field2) -> SpectralField {
        let mut spec = SpectralField::zeros(self.trunc);
        self.analyze_ws(f, &mut SpectralWorkspace::new(self), &mut spec);
        spec
    }

    /// Allocation-free [`SphericalTransform::analyze`]: overwrites
    /// `out` with the analysis of `f`, borrowing scratch from `ws`.
    /// Bit-identical to the allocating form.
    pub fn analyze_ws(&self, f: &Field2, ws: &mut SpectralWorkspace, out: &mut SpectralField) {
        assert_eq!(out.trunc, self.trunc);
        let SpectralWorkspace { fft, cm, flat } = ws;
        flat.fill(0.0);
        self.accumulate_rows(f, 0, f.ny(), flat, cm, fft);
        unflatten(flat, &mut out.data);
    }

    /// Add the Legendre-quadrature contribution of grid rows `[j0, j1)`
    /// to `acc`, one field's coefficients as flat `(re, im)` pairs (the
    /// full analysis is the sum of all rows' contributions, which is
    /// how the distributed transform uses this). `f` is either the full
    /// grid or exactly the slab of rows `[j0, j1)`. `cm` holds the
    /// Fourier coefficients of a row group (`ROW_LANES * (m_max + 1)`)
    /// and `fft` its FFT scratch (`ROW_LANES * FftPlan::scratch_len` of
    /// the grid's plan); [`SpectralWorkspace`] carries suitably sized
    /// buffers.
    ///
    /// Rows go through the FFT [`ROW_LANES`] at a time and the rows left
    /// over as one narrower group. Every coefficient still receives the
    /// rows' terms one by one in ascending row order, so the sums are
    /// those of a row-at-a-time loop, bit for bit.
    pub(crate) fn accumulate_rows(
        &self,
        f: &Field2,
        j0: usize,
        j1: usize,
        acc: &mut [f64],
        cm: &mut [Complex],
        fft: &mut [Complex],
    ) {
        assert_eq!(f.nx(), self.grid.nlon);
        assert_eq!(acc.len(), 2 * self.trunc.len());
        assert_eq!(cm.len(), ROW_LANES * (self.trunc.m_max + 1));
        // Rows of a slab are indexed from its first row.
        let first = if f.ny() == self.grid.nlat { 0 } else { j0 };
        let mut j = j0;
        while j1 - j >= ROW_LANES {
            self.accumulate_group::<ROW_LANES>(f, first, j, acc, cm, fft);
            j += ROW_LANES;
        }
        match j1 - j {
            0 => {}
            1 => self.accumulate_group::<1>(f, first, j, acc, cm, fft),
            2 => self.accumulate_group::<2>(f, first, j, acc, cm, fft),
            3 => self.accumulate_group::<3>(f, first, j, acc, cm, fft),
            _ => unreachable!("fewer than ROW_LANES rows are left"),
        }
    }

    /// [`SphericalTransform::accumulate_rows`] for the `W` grid rows
    /// from `j`, which are rows `j - first ..` of `f`.
    fn accumulate_group<const W: usize>(
        &self,
        f: &Field2,
        first: usize,
        j: usize,
        acc: &mut [f64],
        cm: &mut [Complex],
        fft: &mut [Complex],
    ) {
        let count = self.trunc.m_max + 1;
        let cm = &mut cm[..W * count];
        {
            let mut rows = cm.chunks_exact_mut(count);
            real_analysis_rows::<W>(
                &self.plan,
                std::array::from_fn(|l| f.row(j - first + l)),
                std::array::from_fn(|_| rows.next().expect("W rows of coefficients")),
                fft,
            );
        }
        let w: [f64; W] = std::array::from_fn(|l| self.grid.weights[j + l]);
        for (m, table) in self.tables.iter().enumerate() {
            let prow: [&[f64]; W] = std::array::from_fn(|l| table.p_row(j + l));
            let c: [Complex; W] = std::array::from_fn(|l| cm[l * count + m].scale(w[l]));
            let base = 2 * self.trunc.idx(m, m);
            let len = prow[0].len();
            for (dn, pair) in acc[base..base + 2 * len].chunks_exact_mut(2).enumerate() {
                // The pair stays in registers while the group's rows
                // add their terms in ascending row order.
                let (mut re, mut im) = (pair[0], pair[1]);
                for l in 0..W {
                    let v = c[l].scale(prow[l][dn]);
                    re += v.re;
                    im += v.im;
                }
                pair[0] = re;
                pair[1] = im;
            }
        }
    }

    /// Inverse (synthesis) transform onto the full grid.
    pub fn synthesize(&self, spec: &SpectralField) -> Field2 {
        let mut out = Field2::zeros(self.grid.nlon, self.grid.nlat);
        let ws = &mut SpectralWorkspace::new(self);
        self.synthesize_rows_into(spec, 0, self.grid.nlat, SynthKind::Value, ws, &mut out);
        out
    }

    /// Synthesize rows `[j0, j1)` of the chosen quantity, overwriting
    /// the `(nlon × (j1 − j0))` slab `out` and borrowing scratch from
    /// `ws`. Rows go [`ROW_LANES`] at a time (the rest as one narrower
    /// group): their `m`-sums run as interleaved chains and their FFTs
    /// as lanes of one pass, each row getting the bits it would alone.
    pub fn synthesize_rows_into(
        &self,
        spec: &SpectralField,
        j0: usize,
        j1: usize,
        kind: SynthKind,
        ws: &mut SpectralWorkspace,
        out: &mut Field2,
    ) {
        assert_eq!(spec.trunc, self.trunc);
        assert_eq!(out.nx(), self.grid.nlon);
        assert_eq!(out.ny(), j1 - j0);
        assert_eq!(ws.cm.len(), ROW_LANES * (self.trunc.m_max + 1));
        let mut j = j0;
        while j1 - j >= ROW_LANES {
            self.synthesize_group::<ROW_LANES>(spec, j0, j, kind, ws, out);
            j += ROW_LANES;
        }
        match j1 - j {
            0 => {}
            1 => self.synthesize_group::<1>(spec, j0, j, kind, ws, out),
            2 => self.synthesize_group::<2>(spec, j0, j, kind, ws, out),
            3 => self.synthesize_group::<3>(spec, j0, j, kind, ws, out),
            _ => unreachable!("fewer than ROW_LANES rows are left"),
        }
    }

    /// [`SphericalTransform::synthesize_rows_into`] for the `W` grid
    /// rows from `j`, which are rows `j - j0 ..` of `out`.
    fn synthesize_group<const W: usize>(
        &self,
        spec: &SpectralField,
        j0: usize,
        j: usize,
        kind: SynthKind,
        ws: &mut SpectralWorkspace,
        out: &mut Field2,
    ) {
        let SpectralWorkspace { fft, cm, .. } = ws;
        let count = self.trunc.m_max + 1;
        let cm = &mut cm[..W * count];
        for (m, table) in self.tables.iter().enumerate() {
            let base = self.trunc.idx(m, m);
            let rows: [&[f64]; W] = std::array::from_fn(|l| match kind {
                SynthKind::Value | SynthKind::DLambda => table.p_row(j + l),
                SynthKind::CosGrad => table.h_row(j + l),
            });
            let coeffs = &spec.data[base..base + rows[0].len()];
            // W independent chains, each summed from zero in ascending dn.
            let mut acc = [Complex::ZERO; W];
            for (dn, a) in coeffs.iter().enumerate() {
                for l in 0..W {
                    acc[l] += a.scale(rows[l][dn]);
                }
            }
            for (l, mut c) in acc.into_iter().enumerate() {
                if kind == SynthKind::DLambda {
                    c = c.mul_i().scale(m as f64);
                }
                cm[l * count + m] = c;
            }
        }
        let nlon = self.grid.nlon;
        let slab = &mut out.as_mut_slice()[(j - j0) * nlon..(j - j0 + W) * nlon];
        let mut rows = slab.chunks_exact_mut(nlon);
        real_synthesis_into::<W>(
            &self.plan,
            std::array::from_fn(|l| &cm[l * count..(l + 1) * count]),
            std::array::from_fn(|_| rows.next().expect("W grid rows")),
            fft,
        );
    }
}

/// Which quantity [`SphericalTransform::synthesize_rows_into`] produces:
/// the field, ∂f/∂λ, or cos φ · ∂f/∂φ (= (1 − μ²) ∂f/∂μ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthKind {
    Value,
    DLambda,
    CosGrad,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SphericalTransform {
        SphericalTransform::new(AtmGrid::new(24, 16), Truncation::rhomboidal(5))
    }

    /// Rows `[j0, j1)` of `kind` through a throw-away workspace.
    fn synth_rows(
        t: &SphericalTransform,
        spec: &SpectralField,
        j0: usize,
        j1: usize,
        kind: SynthKind,
    ) -> Field2 {
        let mut out = Field2::zeros(t.grid.nlon, j1 - j0);
        t.synthesize_rows_into(spec, j0, j1, kind, &mut SpectralWorkspace::new(t), &mut out);
        out
    }

    fn rand_spec(t: &SphericalTransform, seed: u64) -> SpectralField {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut spec = SpectralField::zeros(t.trunc);
        for (m, n) in t.trunc.pairs() {
            let re = next();
            let im = if m == 0 { 0.0 } else { next() };
            spec.set(m, n, Complex::new(re, im));
        }
        spec
    }

    /// The analysis as it was written before the row groups: one row
    /// through the FFT, then its Legendre terms, then the next row.
    fn accumulate_row_by_row(
        t: &SphericalTransform,
        f: &Field2,
        j0: usize,
        j1: usize,
        acc: &mut [f64],
    ) {
        let mut fft = vec![Complex::ZERO; t.plan.scratch_len()];
        let mut cm = vec![Complex::ZERO; t.trunc.m_max + 1];
        for (jl, j) in (j0..j1).enumerate() {
            let row = if f.ny() == t.grid.nlat {
                f.row(j)
            } else {
                f.row(jl)
            };
            crate::fft::real_analysis_into(&t.plan, row, &mut cm, &mut fft);
            let w = t.grid.weights[j];
            for m in 0..=t.trunc.m_max {
                let prow = t.tables[m].p_row(j);
                let base = 2 * t.trunc.idx(m, m);
                let c = cm[m].scale(w);
                let acc_m = &mut acc[base..base + 2 * prow.len()];
                for (pair, &p) in acc_m.chunks_exact_mut(2).zip(prow) {
                    let v = c.scale(p);
                    pair[0] += v.re;
                    pair[1] += v.im;
                }
            }
        }
    }

    /// The synthesis as it was written before the row groups: one row's
    /// `m`-sums, then its FFT, then the next row.
    fn synthesize_row_by_row(
        t: &SphericalTransform,
        spec: &SpectralField,
        j0: usize,
        j1: usize,
        kind: SynthKind,
    ) -> Field2 {
        let mut out = Field2::zeros(t.grid.nlon, j1 - j0);
        let mut fft = vec![Complex::ZERO; t.plan.scratch_len()];
        let mut cm = vec![Complex::ZERO; t.trunc.m_max + 1];
        for j in j0..j1 {
            for (m, c) in cm.iter_mut().enumerate() {
                let table = &t.tables[m];
                let base = t.trunc.idx(m, m);
                let mut acc = Complex::ZERO;
                let row = match kind {
                    SynthKind::Value | SynthKind::DLambda => table.p_row(j),
                    SynthKind::CosGrad => table.h_row(j),
                };
                for (dn, &p) in row.iter().enumerate() {
                    acc += spec.data[base + dn].scale(p);
                }
                if kind == SynthKind::DLambda {
                    acc = acc.mul_i().scale(m as f64);
                }
                *c = acc;
            }
            real_synthesis_into(&t.plan, [&cm[..]], [out.row_mut(j - j0)], &mut fft);
        }
        out
    }

    #[test]
    fn row_groups_equal_the_row_by_row_loop_bit_for_bit() {
        let t = small();
        let nlat = t.grid.nlat;
        let spec = rand_spec(&t, 41);
        // Not band-limited, so every coefficient carries rounding.
        let mut grid = t.synthesize(&spec);
        for (i, v) in grid.as_mut_slice().iter_mut().enumerate() {
            *v += (i as f64 * 0.731).sin() * 1e-3;
        }
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut ws = SpectralWorkspace::new(&t);
        for j0 in [0, 1, 3, 6] {
            for j1 in j0..=nlat.min(j0 + 11) {
                // Partial sums onto a non-zero accumulator, from the full
                // grid and from the slab.
                let slab = Field2::from_vec(
                    t.grid.nlon,
                    j1 - j0,
                    grid.as_slice()[j0 * t.grid.nlon..j1 * t.grid.nlon].to_vec(),
                );
                for f in [&grid, &slab] {
                    let start: Vec<f64> = (0..2 * t.trunc.len()).map(|k| k as f64 * 0.01).collect();
                    let mut want = start.clone();
                    accumulate_row_by_row(&t, f, j0, j1, &mut want);
                    let SpectralWorkspace { fft, cm, flat } = &mut ws;
                    flat.copy_from_slice(&start);
                    t.accumulate_rows(f, j0, j1, flat, cm, fft);
                    assert_eq!(bits(flat), bits(&want), "analysis rows {j0}..{j1}");
                }
                for kind in [SynthKind::Value, SynthKind::DLambda, SynthKind::CosGrad] {
                    let want = synthesize_row_by_row(&t, &spec, j0, j1, kind);
                    let got = synth_rows(&t, &spec, j0, j1, kind);
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "{kind:?} rows {j0}..{j1}"
                    );
                }
            }
        }
    }

    #[test]
    fn synthesize_then_analyze_is_identity() {
        let t = small();
        let spec = rand_spec(&t, 3);
        let grid = t.synthesize(&spec);
        let back = t.analyze(&grid);
        for (m, n) in t.trunc.pairs() {
            let d = back.get(m, n) - spec.get(m, n);
            assert!(d.abs() < 1e-11, "m={m} n={n}: {d:?}");
        }
    }

    #[test]
    fn constant_field_is_pure_00_mode() {
        let t = small();
        let f = Field2::filled(t.grid.nlon, t.grid.nlat, 4.2);
        let spec = t.analyze(&f);
        for (m, n) in t.trunc.pairs() {
            if (m, n) == (0, 0) {
                assert!((spec.get(0, 0).re - 4.2 * 2.0f64.sqrt()).abs() < 1e-12);
            } else {
                assert!(spec.get(m, n).abs() < 1e-12, "leakage at ({m},{n})");
            }
        }
        let back = t.synthesize(&spec);
        for &v in back.as_slice() {
            assert!((v - 4.2).abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_has_harmonic_eigenvalues() {
        let t = small();
        let (m, n) = (2usize, 4usize);
        let mut spec = SpectralField::zeros(t.trunc);
        spec.set(m, n, Complex::new(1.0, -0.5));
        let f = t.synthesize(&spec);
        let lap = t.synthesize(&spec.laplacian());
        let eig = -((n * (n + 1)) as f64) / (EARTH_RADIUS * EARTH_RADIUS);
        for (a, b) in f.as_slice().iter().zip(lap.as_slice()) {
            assert!((b - eig * a).abs() < 1e-18);
        }
    }

    #[test]
    fn dlambda_of_sinusoid() {
        let t = small();
        // f = cos φ sin λ is the (m=1, n=1) harmonic combination; build
        // it on the grid and differentiate spectrally.
        let f = Field2::from_fn(t.grid.nlon, t.grid.nlat, |i, j| {
            t.grid.lats[j].cos() * t.grid.lons[i].sin()
        });
        let spec = t.analyze(&f);
        let df = synth_rows(&t, &spec, 0, t.grid.nlat, SynthKind::DLambda);
        for j in 0..t.grid.nlat {
            for i in 0..t.grid.nlon {
                let expect = t.grid.lats[j].cos() * t.grid.lons[i].cos();
                assert!((df.get(i, j) - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cosgrad_of_mu() {
        let t = small();
        // f = μ = sin φ; cos φ ∂f/∂φ = cos²φ = 1 − μ².
        let f = Field2::from_fn(t.grid.nlon, t.grid.nlat, |_i, j| t.grid.mu[j]);
        let spec = t.analyze(&f);
        let g = synth_rows(&t, &spec, 0, t.grid.nlat, SynthKind::CosGrad);
        for j in 0..t.grid.nlat {
            let expect = 1.0 - t.grid.mu[j] * t.grid.mu[j];
            for i in 0..t.grid.nlon {
                assert!((g.get(i, j) - expect).abs() < 1e-10, "j={j}");
            }
        }
    }

    #[test]
    fn uv_from_solid_body_rotation() {
        let t = small();
        // ψ = −Ω a² μ gives solid-body rotation u = Ω a cos φ, v = 0.
        let omega = 3.0e-6;
        let f = Field2::from_fn(t.grid.nlon, t.grid.nlat, |_i, j| {
            -omega * EARTH_RADIUS * EARTH_RADIUS * t.grid.mu[j]
        });
        let psi = t.analyze(&f);
        // (U, V) = (u cos φ, v cos φ) with u = −(1/a) ∂ψ/∂φ and
        // v = (1/(a cos φ)) ∂ψ/∂λ.
        let mut ucos = synth_rows(&t, &psi, 0, t.grid.nlat, SynthKind::CosGrad);
        ucos.scale(-1.0 / EARTH_RADIUS);
        let mut vcos = synth_rows(&t, &psi, 0, t.grid.nlat, SynthKind::DLambda);
        vcos.scale(1.0 / EARTH_RADIUS);
        for j in 0..t.grid.nlat {
            let cos = t.grid.lats[j].cos();
            let expect_u = omega * EARTH_RADIUS * cos; // u = Ωa cosφ
            for i in 0..t.grid.nlon {
                assert!(
                    (ucos.get(i, j) - expect_u * cos).abs() < 1e-7 * EARTH_RADIUS.abs() * omega,
                    "u mismatch at j={j}"
                );
                assert!(vcos.get(i, j).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn parseval_mean_square_matches_grid_quadrature() {
        let t = small();
        let spec = rand_spec(&t, 21);
        let f = t.synthesize(&spec);
        // Grid quadrature of f² with Gaussian weights.
        let mut s = 0.0;
        for j in 0..t.grid.nlat {
            let w = t.grid.weights[j];
            for i in 0..t.grid.nlon {
                s += w * f.get(i, j) * f.get(i, j);
            }
        }
        let grid_ms = s / (2.0 * t.grid.nlon as f64);
        assert!(
            (grid_ms - spec.mean_square()).abs() < 1e-12 * grid_ms.max(1.0),
            "grid {grid_ms} vs spectral {}",
            spec.mean_square()
        );
    }

    #[test]
    fn hyperdiffusion_damps_high_n_hardest() {
        let t = small();
        let mut spec = SpectralField::zeros(t.trunc);
        spec.set(0, 1, Complex::ONE);
        spec.set(5, 10, Complex::ONE);
        spec.apply_hyperdiffusion(1.0e16, 1800.0);
        let low = spec.get(0, 1).abs();
        let high = spec.get(5, 10).abs();
        assert!(low > high, "low {low} should outlive high {high}");
        assert!(low <= 1.0 && high < 1.0);
    }

    #[test]
    fn slab_synthesis_matches_full() {
        let t = small();
        let spec = rand_spec(&t, 77);
        let full = t.synthesize(&spec);
        let slab = synth_rows(&t, &spec, 4, 9, SynthKind::Value);
        for j in 4..9 {
            for i in 0..t.grid.nlon {
                assert_eq!(slab.get(i, j - 4), full.get(i, j));
            }
        }
    }

    #[test]
    fn partial_row_accumulation_sums_to_full_analysis() {
        let t = small();
        let spec = rand_spec(&t, 5);
        let grid = t.synthesize(&spec);
        let mut ws = SpectralWorkspace::new(&t);
        let SpectralWorkspace { fft, cm, flat } = &mut ws;
        t.accumulate_rows(&grid, 0, 7, flat, cm, fft);
        t.accumulate_rows(&grid, 7, t.grid.nlat, flat, cm, fft);
        let mut acc = vec![Complex::ZERO; t.trunc.len()];
        unflatten(flat, &mut acc);
        let full = t.analyze(&grid);
        for (a, b) in acc.iter().zip(&full.data) {
            assert!((*a - *b).abs() < 1e-13);
        }
    }
}
