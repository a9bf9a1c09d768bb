//! Complex arithmetic and a mixed-radix FFT.
//!
//! The transform grid's longitude counts are smooth numbers (48 = 2⁴·3,
//! 128 = 2⁷), so a Cooley–Tukey factorization over the smallest prime
//! factor covers every case; a naive O(r²) combine handles any residual
//! prime factor, keeping the implementation fully general.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use foam_ckpt::{ByteReader, CkptError, Codec};

/// A complex number (we avoid external crates by policy; see DESIGN.md §5).
/// The fields are laid out in order (`repr(C)`), which lets the FFT's
/// lane groups (see `Lanes::load`) move as plain vector copies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// e^{iθ}.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Multiplication by i (a quarter turn), cheaper than a full complex
    /// multiply in the derivative formulas.
    #[inline]
    pub fn mul_i(self) -> Self {
        Complex {
            re: -self.im,
            im: self.re,
        }
    }
}

impl Codec for Complex {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.re.encode(buf);
        self.im.encode(buf);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(Complex {
            re: f64::decode(r)?,
            im: f64::decode(r)?,
        })
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Rows a caller should transform together: [`real_analysis_rows`] and
/// [`real_synthesis_into`] run this many independent rows as lanes of
/// one pass over the plan. Four lanes fill two SSE2 registers per real
/// or imaginary part; a few rows left over run as one narrower group.
pub const ROW_LANES: usize = 4;

/// `W` complex numbers, one per lane, as structure of arrays: the form
/// in which a compiled plan runs `W` independent transforms at once.
/// Every lane does the scalar [`Complex`] arithmetic, in the scalar
/// order, so lane `l` of a `W`-wide run has the bits of a run of lane
/// `l` alone; what the width buys is `W` independent chains per
/// operation instead of one.
#[derive(Clone, Copy)]
struct Lanes<const W: usize> {
    re: [f64; W],
    im: [f64; W],
}

impl<const W: usize> Lanes<W> {
    const ZERO: Self = Lanes {
        re: [0.0; W],
        im: [0.0; W],
    };

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> Complex) -> Self {
        let mut v = Self::ZERO;
        for l in 0..W {
            let c = f(l);
            v.re[l] = c.re;
            v.im[l] = c.im;
        }
        v
    }

    #[inline(always)]
    fn lane(&self, l: usize) -> Complex {
        Complex::new(self.re[l], self.im[l])
    }

    /// The value held by a group of `W` slots of a plan's buffers. The
    /// group stores its `2W` numbers as structure of arrays — the `W`
    /// real parts, then the `W` imaginary parts, two to a slot — so that
    /// moving a group between registers and memory is a plain copy.
    #[inline(always)]
    fn load(slots: &[Complex; W]) -> Self {
        let part = |i: usize| {
            let slot = &slots[i / 2];
            if i.is_multiple_of(2) {
                slot.re
            } else {
                slot.im
            }
        };
        Lanes {
            re: std::array::from_fn(part),
            im: std::array::from_fn(|l| part(W + l)),
        }
    }

    /// The inverse of [`Lanes::load`].
    #[inline(always)]
    fn store(&self, slots: &mut [Complex; W]) {
        let part = |i: usize| if i < W { self.re[i] } else { self.im[i - W] };
        for (q, slot) in slots.iter_mut().enumerate() {
            *slot = Complex::new(part(2 * q), part(2 * q + 1));
        }
    }

    /// [`Complex::conj`] in every lane.
    #[inline(always)]
    fn conj(mut self) -> Self {
        for im in &mut self.im {
            *im = -*im;
        }
        self
    }

    /// `self + w · y` in every lane: the scalar `acc += w * y`.
    #[inline(always)]
    fn mul_add(self, w: Complex, y: Self) -> Self {
        let mut acc = self;
        for l in 0..W {
            acc.re[l] += w.re * y.re[l] - w.im * y.im[l];
            acc.im[l] += w.re * y.im[l] + w.im * y.re[l];
        }
        acc
    }
}

/// A reusable FFT plan for length `n`, compiled once.
///
/// The transform is mixed-radix Cooley–Tukey, decimating in time over
/// the smallest prime factor first. [`FftPlan::new`] flattens that
/// recursion into bottom-up combine stages: a leaf permutation puts the
/// input in the order the innermost sub-transforms read it, and each
/// stage carries its own twiddle table laid out in the order its inner
/// loop walks. Running the plan is then a handful of flat loops over two
/// ping-pong buffers — no recursion, no factoring, no index arithmetic
/// modulo `n` — while every output still sums the same operands in the
/// same order as the recursive definition (the unit tests hold the plan
/// to the recursion bit for bit).
///
/// The stages are one kernel, generic over a lane count `W`: it runs
/// `W` transforms of independent rows side by side, each lane doing
/// exactly the arithmetic of a single transform. `W = 1` is the
/// single-row transform.
///
/// A stage of radix `r` and length `len` stores `len · (r − 1)`
/// twiddles, so a large prime length costs O(n²) memory to match its
/// O(n²) time; the model's lengths (16, 24, 48, 128) need a few
/// kilobytes.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Leaf order: position `p` of the first stage's input is `x[perm[p]]`.
    perm: Vec<usize>,
    /// Combine stages, innermost (shortest sub-transforms) first.
    stages: Vec<Stage>,
}

/// One level of the flattened recursion: `n / len` independent combines,
/// each turning `r` adjacent sub-transforms of length `len / r` into one
/// transform of length `len`.
#[derive(Debug, Clone)]
struct Stage {
    /// Radix: the smallest prime factor of `len`.
    r: usize,
    len: usize,
    /// e^{-2πi·0/len}, the factor of sub-transform 0 in every output.
    w0: Complex,
    /// `tw[(s * r + t) * (r - 1) + j - 1]` = e^{-2πi·jk/len}: the factor
    /// of sub-transform `j ≥ 1` in output `k = s + t · len/r`.
    tw: Vec<Complex>,
}

impl Stage {
    /// Combine every block of `src`, handing the first `limit` outputs of
    /// each block to `emit(position, value)`; outputs at or above `limit`
    /// are not computed.
    #[inline(always)]
    fn combine<const W: usize>(
        &self,
        src: &[[Complex; W]],
        limit: usize,
        emit: impl FnMut(usize, Lanes<W>),
    ) {
        // Constant radices let the compiler unroll the inner sum.
        match self.r {
            2 => self.combine_radix(2, src, limit, emit),
            3 => self.combine_radix(3, src, limit, emit),
            r => self.combine_radix(r, src, limit, emit),
        }
    }

    /// Output `k = s + t·m` is Σ_j W^{jk} Y_j(s), summed from zero in
    /// ascending `j` exactly as the recursion does, in every lane.
    #[inline(always)]
    fn combine_radix<const W: usize>(
        &self,
        r: usize,
        src: &[[Complex; W]],
        limit: usize,
        mut emit: impl FnMut(usize, Lanes<W>),
    ) {
        let m = self.len / r;
        for (block, subs) in src.chunks_exact(self.len).enumerate() {
            let base = block * self.len;
            for (s, tws) in self.tw.chunks_exact(r * (r - 1)).enumerate().take(limit) {
                // The j = 0 term is the same in all r outputs s + t·m.
                let first = Lanes::ZERO.mul_add(self.w0, Lanes::load(&subs[s]));
                for (t, tw) in tws.chunks_exact(r - 1).enumerate() {
                    let k = s + t * m;
                    if k >= limit {
                        break;
                    }
                    let mut acc = first;
                    for j in 1..r {
                        acc = acc.mul_add(tw[j - 1], Lanes::load(&subs[j * m + s]));
                    }
                    emit(base + k, acc);
                }
            }
        }
    }
}

/// `twiddle[k]` = e^{-2πik/n}, the table every stage's factors are
/// copied from (so they carry the bits the recursion would have read).
fn twiddles(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
        .collect()
}

impl FftPlan {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let twiddle = twiddles(n);
        // Walk the recursion top-down: each level splits a transform of
        // length `len` into `r` decimated ones, so leaf position
        // Σ j_d·(len_d / r_d) reads x[Σ j_d·stride_d].
        let mut perm = vec![0usize; n];
        let mut stages = Vec::new();
        let (mut len, mut stride) = (n, 1);
        while len > 1 {
            let r = smallest_prime_factor(len);
            let m = len / r;
            for (pos, src) in perm.iter_mut().enumerate() {
                *src += (pos % len) / m * stride;
            }
            let step = n / len;
            let tw = (0..m)
                .flat_map(|s| (0..r).map(move |t| s + t * m))
                .flat_map(|k| (1..r).map(move |j| (j * k) % len * step))
                .map(|idx| twiddle[idx])
                .collect();
            stages.push(Stage {
                r,
                len,
                w0: twiddle[0],
                tw,
            });
            len = m;
            stride *= r;
        }
        stages.reverse();
        FftPlan { n, perm, stages }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The scratch length (in `Complex` elements) that a one-row call
    /// accepts: `3 * len()`; a call on `W` rows takes `W` times as much.
    /// Allocate it once and reuse it across calls — that is the whole
    /// point of the scratch API.
    ///
    /// ```
    /// use foam_spectral::fft::{real_analysis_into, Complex, FftPlan};
    /// let plan = FftPlan::new(16);
    /// let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
    /// let row = vec![1.0; 16];
    /// let mut c = vec![Complex::ZERO; 8];
    /// real_analysis_into(&plan, &row, &mut c, &mut scratch);
    /// assert!((c[0].re - 1.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn scratch_len(&self) -> usize {
        3 * self.n
    }

    /// Run the compiled stages on `W` lanes: `load(i)` supplies input
    /// element `i` of every lane, and the first `limit` outputs of the
    /// transform go to `emit(k, X_k)`. Intermediate stages compute only
    /// what those outputs read. `scratch` holds the two ping-pong
    /// buffers (`2 * W * len()`).
    #[inline(always)]
    fn run<const W: usize>(
        &self,
        scratch: &mut [Complex],
        limit: usize,
        load: impl Fn(usize) -> Lanes<W>,
        mut emit: impl FnMut(usize, Lanes<W>),
    ) {
        let len = W * self.n;
        assert!(scratch.len() >= 2 * len, "scratch too small");
        let (src, rest) = scratch.split_at_mut(len);
        let (mut src, mut dst) = (
            src.as_chunks_mut::<W>().0,
            rest[..len].as_chunks_mut::<W>().0,
        );
        for (leaf, &i) in src.iter_mut().zip(&self.perm) {
            load(i).store(leaf);
        }
        let Some((last, inner)) = self.stages.split_last() else {
            return emit(0, Lanes::load(&src[0]));
        };
        for stage in inner {
            stage.combine(src, limit.min(stage.len), |k, v| v.store(&mut dst[k]));
            std::mem::swap(&mut src, &mut dst);
        }
        last.combine(src, limit, emit);
    }
}

fn smallest_prime_factor(n: usize) -> usize {
    for p in [2usize, 3, 5, 7] {
        if n.is_multiple_of(p) {
            return p;
        }
    }
    let mut p = 11;
    while p * p <= n {
        if n.is_multiple_of(p) {
            return p;
        }
        p += 2;
    }
    n
}

/// Real analysis on a longitude circle: given `nlon` real samples,
/// fill `out` (length `m_max + 1`) with the one-sided Fourier
/// coefficients c_m = (1/nlon) Σ_i f_i e^{-imλ_i} for m = 0..=m_max, so
/// that f_i = Re[c_0 + 2 Σ_{m≥1} c_m e^{imλ_i}] for band-limited f.
/// Caller scratch of at least `2 * plan.len()` elements
/// ([`FftPlan::scratch_len`] always suffices). Wavenumbers above
/// `m_max` are never computed. This is [`real_analysis_rows`] on one
/// row.
pub fn real_analysis_into(
    plan: &FftPlan,
    row: &[f64],
    out: &mut [Complex],
    scratch: &mut [Complex],
) {
    real_analysis_rows(plan, [row], [out], scratch);
}

/// [`real_analysis_into`] of `W` rows at once, as lanes of one pass:
/// `out[l]` receives the coefficients of `rows[l]`, bit for bit what a
/// call on that row alone gives. Every `out[l]` has the same length;
/// the scratch needs `W * 2 * plan.len()` elements (`W *`
/// [`FftPlan::scratch_len`] always suffices).
pub fn real_analysis_rows<const W: usize>(
    plan: &FftPlan,
    rows: [&[f64]; W],
    mut out: [&mut [Complex]; W],
    scratch: &mut [Complex],
) {
    let n = plan.len();
    let count = out[0].len();
    assert!(count >= 1 && count <= n);
    for l in 0..W {
        assert_eq!(rows[l].len(), n);
        assert_eq!(out[l].len(), count);
    }
    let s = 1.0 / n as f64;
    plan.run::<W>(
        scratch,
        count,
        |i| Lanes::from_fn(|l| Complex::new(rows[l][i], 0.0)),
        |k, v| {
            for (l, row) in out.iter_mut().enumerate() {
                row[k] = v.lane(l).scale(s);
            }
        },
    );
}

/// Real synthesis on longitude circles, the inverse of
/// [`real_analysis_into`], for `W` rows at once as lanes of one pass:
/// `out[l]` receives the row whose coefficients are `coeffs[l]`, bit
/// for bit what a one-row call (`W = 1`) gives. Every `coeffs[l]` has
/// the same length `m_max + 1`, with `2 * m_max < plan.len()`; the
/// scratch needs `W * 3 * plan.len()` elements (`W *`
/// [`FftPlan::scratch_len`]). Only the real half of the last stage is
/// kept — the imaginary half is discarded anyway.
pub fn real_synthesis_into<const W: usize>(
    plan: &FftPlan,
    coeffs: [&[Complex]; W],
    mut out: [&mut [f64]; W],
    scratch: &mut [Complex],
) {
    let n = plan.len();
    assert!(scratch.len() >= 3 * W * n, "scratch too small");
    let (spec, rest) = scratch.split_at_mut(W * n);
    let spec = spec.as_chunks_mut::<W>().0;
    let m_max = coeffs[0].len() - 1;
    assert!(2 * m_max < n, "synthesis requires nlon > 2*m_max");
    for l in 0..W {
        assert_eq!(coeffs[l].len(), m_max + 1);
        assert_eq!(out[l].len(), n);
    }
    // Build each lane's two-sided spectrum of a real signal:
    // X_m = n c_m, X_{n-m} = n conj(c_m).
    let scale = |c: Complex| c.scale(n as f64);
    for group in spec.iter_mut() {
        Lanes::ZERO.store(group);
    }
    Lanes::from_fn(|l| scale(coeffs[l][0])).store(&mut spec[0]);
    for m in 1..=m_max {
        Lanes::from_fn(|l| scale(coeffs[l][m])).store(&mut spec[m]);
        Lanes::from_fn(|l| scale(coeffs[l][m].conj())).store(&mut spec[n - m]);
    }
    // The inverse transform (IDFT(x) = conj(DFT(conj(x))) / n), keeping
    // Re[conj(X)/n] = Re[X]/n only.
    let s = 1.0 / n as f64;
    let spec = &*spec;
    plan.run::<W>(
        rest,
        n,
        |i| Lanes::load(&spec[i]).conj(),
        |k, v| {
            for (l, row) in out.iter_mut().enumerate() {
                row[k] = v.re[l] * s;
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The complex transforms on the one kernel; the model itself only
    /// transforms real rows.
    impl FftPlan {
        /// Forward DFT of `W` lanes: X_k = Σ_j x_j e^{-2πijk/n} (no
        /// normalization), with `W * 2 * len()` elements of scratch.
        pub(crate) fn forward_rows<const W: usize>(
            &self,
            x: [&[Complex]; W],
            mut out: [&mut [Complex]; W],
            scratch: &mut [Complex],
        ) {
            for l in 0..W {
                assert_eq!(x[l].len(), self.n);
                assert_eq!(out[l].len(), self.n);
            }
            self.run::<W>(
                scratch,
                self.n,
                |i| Lanes::from_fn(|l| x[l][i]),
                |k, v| {
                    for (l, row) in out.iter_mut().enumerate() {
                        row[k] = v.lane(l);
                    }
                },
            );
        }

        /// Inverse DFT of `W` lanes: x_j = (1/n) Σ_k X_k e^{+2πijk/n}, by
        /// the conjugate trick IDFT(x) = conj(DFT(conj(x))) / n.
        pub(crate) fn inverse_rows<const W: usize>(
            &self,
            x: [&[Complex]; W],
            mut out: [&mut [Complex]; W],
            scratch: &mut [Complex],
        ) {
            for l in 0..W {
                assert_eq!(x[l].len(), self.n);
                assert_eq!(out[l].len(), self.n);
            }
            let s = 1.0 / self.n as f64;
            self.run::<W>(
                scratch,
                self.n,
                |i| Lanes::from_fn(|l| x[l][i].conj()),
                |k, v| {
                    for (l, row) in out.iter_mut().enumerate() {
                        row[k] = v.lane(l).conj().scale(s);
                    }
                },
            );
        }

        /// [`FftPlan::forward_rows`] on one row.
        pub(crate) fn forward_into(
            &self,
            x: &[Complex],
            out: &mut [Complex],
            scratch: &mut [Complex],
        ) {
            self.forward_rows([x], [out], scratch);
        }

        /// [`FftPlan::inverse_rows`] on one row.
        pub(crate) fn inverse_into(
            &self,
            x: &[Complex],
            out: &mut [Complex],
            scratch: &mut [Complex],
        ) {
            self.inverse_rows([x], [out], scratch);
        }
    }

    /// The recursive mixed-radix Cooley–Tukey definition the compiled
    /// plan must reproduce bit for bit. `x` is viewed with `stride`; `n`
    /// is the logical length of this sub-transform; `twiddle` is the
    /// table of the full length. `scratch` holds at least `2 * n`
    /// elements: the level uses `n` for its sub-transform outputs and
    /// lends the rest downward.
    fn rec_into(
        twiddle: &[Complex],
        x: &[Complex],
        stride: usize,
        n: usize,
        out: &mut [Complex],
        scratch: &mut [Complex],
    ) {
        if n == 1 {
            out[0] = x[0];
            return;
        }
        let r = smallest_prime_factor(n);
        let m = n / r;
        // r sub-transforms of length m over the decimated sequences.
        let (subs, rest) = scratch.split_at_mut(n);
        for j in 0..r {
            rec_into(
                twiddle,
                &x[j * stride..],
                stride * r,
                m,
                &mut subs[j * m..(j + 1) * m],
                rest,
            );
        }
        // Combine: X[s + t m] = Σ_j W_n^{j(s+tm)} Y_j[s].
        let tw_step = twiddle.len() / n;
        for s in 0..m {
            for t in 0..r {
                let k = s + t * m;
                let mut acc = Complex::ZERO;
                for j in 0..r {
                    let idx = (j * k) % n * tw_step;
                    acc += twiddle[idx] * subs[j * m + s];
                }
                out[k] = acc;
            }
        }
    }

    /// The four transforms as they were written over the recursion.
    struct Oracle {
        n: usize,
        twiddle: Vec<Complex>,
    }

    impl Oracle {
        fn new(n: usize) -> Self {
            Oracle {
                n,
                twiddle: twiddles(n),
            }
        }

        fn forward(&self, x: &[Complex]) -> Vec<Complex> {
            let mut out = vec![Complex::ZERO; self.n];
            let mut scratch = vec![Complex::ZERO; 2 * self.n];
            rec_into(&self.twiddle, x, 1, self.n, &mut out, &mut scratch);
            out
        }

        fn inverse(&self, x: &[Complex]) -> Vec<Complex> {
            let conj: Vec<Complex> = x.iter().map(|v| v.conj()).collect();
            let s = 1.0 / self.n as f64;
            self.forward(&conj)
                .iter()
                .map(|c| c.conj().scale(s))
                .collect()
        }

        fn real_analysis(&self, row: &[f64], m_max: usize) -> Vec<Complex> {
            let x: Vec<Complex> = row.iter().map(|&v| Complex::new(v, 0.0)).collect();
            let s = 1.0 / self.n as f64;
            self.forward(&x)[..=m_max]
                .iter()
                .map(|c| c.scale(s))
                .collect()
        }

        fn real_synthesis(&self, coeffs: &[Complex]) -> Vec<f64> {
            let n = self.n;
            let mut spec = vec![Complex::ZERO; n];
            spec[0] = coeffs[0].scale(n as f64);
            for m in 1..coeffs.len() {
                spec[m] = coeffs[m].scale(n as f64);
                spec[n - m] = coeffs[m].conj().scale(n as f64);
            }
            self.inverse(&spec).iter().map(|c| c.re).collect()
        }
    }

    fn bits(x: &[Complex]) -> Vec<(u64, u64)> {
        x.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// `W` lanes of different data through all four entry points at
    /// once, each lane held to the recursion bit for bit.
    fn check_lanes<const W: usize>(n: usize, plan: &FftPlan, oracle: &Oracle) {
        let mut scratch = vec![Complex::ZERO; W * plan.scratch_len()];
        for seed in 0..3u64 {
            let xs: [Vec<Complex>; W] = std::array::from_fn(|l| {
                let mut x = rand_signal(n, 1000 * seed + n as u64 + 7919 * l as u64);
                if seed == 2 && l % 2 == 0 {
                    // Signed zeros and an exact cancellation must
                    // survive too.
                    x[0] = Complex::new(-0.0, 0.0);
                    x[n / 2] = Complex::new(0.0, -0.0);
                }
                x
            });
            let x = std::array::from_fn(|l| &xs[l][..]);
            let mut ys: [Vec<Complex>; W] = std::array::from_fn(|_| vec![Complex::ZERO; n]);
            plan.forward_rows(x, ys.each_mut().map(|y| &mut y[..]), &mut scratch);
            for l in 0..W {
                let want = oracle.forward(&xs[l]);
                assert_eq!(bits(&ys[l]), bits(&want), "forward n={n} lane {l}/{W}");
            }
            plan.inverse_rows(x, ys.each_mut().map(|y| &mut y[..]), &mut scratch);
            for l in 0..W {
                let want = oracle.inverse(&xs[l]);
                assert_eq!(bits(&ys[l]), bits(&want), "inverse n={n} lane {l}/{W}");
            }

            let rows: [Vec<f64>; W] = xs.each_ref().map(|x| x.iter().map(|c| c.re).collect());
            for m_max in 0..n {
                let mut cs: [Vec<Complex>; W] =
                    std::array::from_fn(|_| vec![Complex::ZERO; m_max + 1]);
                real_analysis_rows(
                    plan,
                    rows.each_ref().map(|r| &r[..]),
                    cs.each_mut().map(|c| &mut c[..]),
                    &mut scratch,
                );
                for l in 0..W {
                    let want = oracle.real_analysis(&rows[l], m_max);
                    assert_eq!(
                        bits(&cs[l]),
                        bits(&want),
                        "analysis n={n} m_max={m_max} lane {l}/{W}"
                    );
                }
            }
            for m_max in 0..n.div_ceil(2) {
                let coeffs: [Vec<Complex>; W] = xs.each_ref().map(|x| {
                    let mut c = x[..=m_max].to_vec();
                    c[0].im = 0.0;
                    c
                });
                let mut backs: [Vec<f64>; W] = std::array::from_fn(|_| vec![0.0; n]);
                real_synthesis_into(
                    plan,
                    coeffs.each_ref().map(|c| &c[..]),
                    backs.each_mut().map(|b| &mut b[..]),
                    &mut scratch,
                );
                for l in 0..W {
                    let want = oracle.real_synthesis(&coeffs[l]);
                    assert_eq!(
                        backs[l].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "synthesis n={n} m_max={m_max} lane {l}/{W}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_plan_is_bit_identical_to_the_recursion() {
        for n in (1..=64).chain([128]) {
            let plan = FftPlan::new(n);
            let oracle = Oracle::new(n);
            check_lanes::<1>(n, &plan, &oracle);
            check_lanes::<2>(n, &plan, &oracle);
            check_lanes::<3>(n, &plan, &oracle);
            check_lanes::<4>(n, &plan, &oracle);
        }
    }

    #[test]
    fn fft_roundtrip_proptest_style_sweep() {
        // Deterministic sweep over lengths with pseudo-random signals; the
        // FFT must invert exactly for every smooth and prime length.
        let mut seed = 99u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [2usize, 3, 5, 7, 11, 13, 24, 30, 48, 60, 97, 128] {
            let plan = FftPlan::new(n);
            let x: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
            let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
            let (mut spec, mut y) = (x.clone(), x.clone());
            plan.forward_into(&x, &mut spec, &mut scratch);
            plan.inverse_into(&spec, &mut y, &mut scratch);
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-9, "n = {n}");
            }
        }
    }

    fn forward(plan: &FftPlan, x: &[Complex]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; plan.len()];
        plan.forward_into(x, &mut out, &mut vec![Complex::ZERO; plan.scratch_len()]);
        out
    }

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    acc +=
                        v * Complex::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex> {
        // Small deterministic LCG; avoids pulling rand into unit tests.
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let a = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let b = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                Complex::new(a, b)
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft_for_mixed_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 8, 12, 15, 16, 20, 48, 49, 128] {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, n as u64);
            let fast = forward(&plan, &x);
            let slow = naive_dft(&x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).abs() < 1e-9 * (n as f64), "n={n}");
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [2usize, 3, 7, 24, 48, 128] {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, 42 + n as u64);
            let mut y = vec![Complex::ZERO; n];
            plan.inverse_into(
                &forward(&plan, &x),
                &mut y,
                &mut vec![Complex::ZERO; plan.scratch_len()],
            );
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_identity() {
        let n = 48;
        let plan = FftPlan::new(n);
        let x = rand_signal(n, 7);
        let y = forward(&plan, &x);
        let ex: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let ey: f64 = y.iter().map(|c| c.norm_sq()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-10 * ex);
    }

    #[test]
    fn delta_transforms_to_ones() {
        let n = 12;
        let plan = FftPlan::new(n);
        let mut x = vec![Complex::ZERO; n];
        x[0] = Complex::ONE;
        let y = forward(&plan, &x);
        for c in y {
            assert!((c - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn real_roundtrip_bandlimited() {
        let n = 48;
        let m_max = 15;
        let plan = FftPlan::new(n);
        // A band-limited real signal.
        let row: Vec<f64> = (0..n)
            .map(|i| {
                let lam = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                1.5 + 0.7 * (3.0 * lam).cos() - 2.0 * (15.0 * lam).sin() + 0.1 * (lam).sin()
            })
            .collect();
        let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
        let mut c = vec![Complex::ZERO; m_max + 1];
        real_analysis_into(&plan, &row, &mut c, &mut scratch);
        let mut back = vec![0.0; n];
        real_synthesis_into(&plan, [&c], [&mut back], &mut scratch);
        for (a, b) in row.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn real_analysis_extracts_known_coefficients() {
        let n = 16;
        let plan = FftPlan::new(n);
        let row: Vec<f64> = (0..n)
            .map(|i| {
                let lam = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                2.0 + 3.0 * (2.0 * lam).cos() + 4.0 * (5.0 * lam).sin()
            })
            .collect();
        let mut c = vec![Complex::ZERO; 8];
        real_analysis_into(
            &plan,
            &row,
            &mut c,
            &mut vec![Complex::ZERO; plan.scratch_len()],
        );
        assert!((c[0].re - 2.0).abs() < 1e-12 && c[0].im.abs() < 1e-12);
        // a cos(mλ) → c_m = a/2 ; b sin(mλ) → c_m = -i b/2.
        assert!((c[2].re - 1.5).abs() < 1e-12 && c[2].im.abs() < 1e-12);
        assert!(c[5].re.abs() < 1e-12 && (c[5].im + 2.0).abs() < 1e-12);
        assert!(c[3].abs() < 1e-12);
    }

    #[test]
    fn complex_helpers() {
        let z = Complex::new(1.0, 2.0);
        assert_eq!(z.mul_i(), Complex::new(-2.0, 1.0));
        assert_eq!(z.conj(), Complex::new(1.0, -2.0));
        assert!((Complex::cis(std::f64::consts::PI) + Complex::ONE).abs() < 1e-15);
        assert!((z.abs() - 5.0f64.sqrt()).abs() < 1e-15);
    }
}
