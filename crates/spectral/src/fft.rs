//! Complex arithmetic and a mixed-radix FFT.
//!
//! The transform grid's longitude counts are smooth numbers (48 = 2⁴·3,
//! 128 = 2⁷), so a Cooley–Tukey factorization over the smallest prime
//! factor covers every case; a naive O(r²) combine handles any residual
//! prime factor, keeping the implementation fully general.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use foam_ckpt::{ByteReader, CkptError, Codec};

/// A complex number (we avoid external crates by policy; see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
    fn combine(&self, src: &[Complex], limit: usize, emit: impl FnMut(usize, Complex)) {
        // Constant radices let the compiler unroll the inner sum.
        match self.r {
            2 => self.combine_radix(2, src, limit, emit),
            3 => self.combine_radix(3, src, limit, emit),
            r => self.combine_radix(r, src, limit, emit),
        }
    }

    /// Output `k = s + t·m` is Σ_j W^{jk} Y_j(s), summed from zero in
    /// ascending `j` exactly as the recursion does.
    #[inline(always)]
    fn combine_radix(
        &self,
        r: usize,
        src: &[Complex],
        limit: usize,
        mut emit: impl FnMut(usize, Complex),
    ) {
        let m = self.len / r;
        for (block, subs) in src.chunks_exact(self.len).enumerate() {
            let base = block * self.len;
            for (s, tws) in self.tw.chunks_exact(r * (r - 1)).enumerate().take(limit) {
                // The j = 0 term is the same in all r outputs s + t·m.
                let first = Complex::ZERO + self.w0 * subs[s];
                for (t, tw) in tws.chunks_exact(r - 1).enumerate() {
                    let k = s + t * m;
                    if k >= limit {
                        break;
                    }
                    let mut acc = first;
                    for j in 1..r {
                        acc += tw[j - 1] * subs[j * m + s];
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

    /// The scratch length (in `Complex` elements) that every `_into`
    /// method of this plan accepts: `3 * len()`. Allocate it once and
    /// reuse it across calls — that is the whole point of the scratch
    /// API.
    ///
    /// ```
    /// use foam_spectral::fft::{Complex, FftPlan};
    /// let plan = FftPlan::new(16);
    /// let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
    /// let x = vec![Complex::ONE; 16];
    /// let mut y = vec![Complex::ZERO; 16];
    /// plan.forward_into(&x, &mut y, &mut scratch);
    /// assert!((y[0].re - 16.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn scratch_len(&self) -> usize {
        3 * self.n
    }

    /// Run the compiled stages: `load(i)` supplies input element `i`,
    /// and the first `limit` outputs of the transform go to
    /// `emit(k, X_k)`. Intermediate stages compute only what those
    /// outputs read. `scratch` holds the two ping-pong buffers
    /// (`2 * len()`).
    #[inline(always)]
    fn run(
        &self,
        scratch: &mut [Complex],
        limit: usize,
        load: impl Fn(usize) -> Complex,
        mut emit: impl FnMut(usize, Complex),
    ) {
        assert!(scratch.len() >= 2 * self.n, "scratch too small");
        let (mut src, rest) = scratch.split_at_mut(self.n);
        let mut dst = &mut rest[..self.n];
        for (leaf, &i) in src.iter_mut().zip(&self.perm) {
            *leaf = load(i);
        }
        let Some((last, inner)) = self.stages.split_last() else {
            return emit(0, src[0]);
        };
        for stage in inner {
            stage.combine(src, limit.min(stage.len), |k, v| dst[k] = v);
            std::mem::swap(&mut src, &mut dst);
        }
        last.combine(src, limit, emit);
    }

    /// Forward DFT: X_k = Σ_j x_j e^{-2πijk/n} (no normalization),
    /// written into `out` using caller-provided `scratch` (at least
    /// `2 * len()` elements; [`FftPlan::scratch_len`] always suffices).
    pub fn forward_into(&self, x: &[Complex], out: &mut [Complex], scratch: &mut [Complex]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(out.len(), self.n);
        self.run(scratch, self.n, |i| x[i], |k, v| out[k] = v);
    }

    /// Inverse DFT: x_j = (1/n) Σ_k X_k e^{+2πijk/n} (`scratch` needs
    /// at least `2 * len()` elements; [`FftPlan::scratch_len`] always
    /// suffices).
    pub fn inverse_into(&self, x: &[Complex], out: &mut [Complex], scratch: &mut [Complex]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(out.len(), self.n);
        // Conjugate trick: IDFT(x) = conj(DFT(conj(x))) / n.
        let s = 1.0 / self.n as f64;
        self.run(
            scratch,
            self.n,
            |i| x[i].conj(),
            |k, v| out[k] = v.conj().scale(s),
        );
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
/// `m_max` are never computed.
pub fn real_analysis_into(
    plan: &FftPlan,
    row: &[f64],
    out: &mut [Complex],
    scratch: &mut [Complex],
) {
    let n = plan.len();
    assert_eq!(row.len(), n);
    assert!(!out.is_empty() && out.len() <= n);
    let s = 1.0 / n as f64;
    plan.run(
        scratch,
        out.len(),
        |i| Complex::new(row[i], 0.0),
        |k, v| out[k] = v.scale(s),
    );
}

/// Real synthesis on a longitude circle: inverse of
/// [`real_analysis_into`], using caller scratch of at least
/// `3 * plan.len()` elements (exactly [`FftPlan::scratch_len`]). Only
/// the real half of the last stage is computed — the imaginary half is
/// discarded anyway.
pub fn real_synthesis_into(
    plan: &FftPlan,
    coeffs: &[Complex],
    out: &mut [f64],
    scratch: &mut [Complex],
) {
    let n = plan.len();
    assert_eq!(out.len(), n);
    assert!(scratch.len() >= 3 * n, "scratch too small");
    let (spec, rest) = scratch.split_at_mut(n);
    spec.fill(Complex::ZERO);
    // Build the two-sided spectrum of a real signal: X_m = n c_m,
    // X_{n-m} = n conj(c_m).
    let m_max = coeffs.len() - 1;
    assert!(2 * m_max < n, "synthesis requires nlon > 2*m_max");
    spec[0] = coeffs[0].scale(n as f64);
    for m in 1..=m_max {
        spec[m] = coeffs[m].scale(n as f64);
        spec[n - m] = coeffs[m].conj().scale(n as f64);
    }
    // The inverse transform (see `FftPlan::inverse_into`), keeping
    // Re[conj(X)/n] = Re[X]/n only.
    let s = 1.0 / n as f64;
    plan.run(rest, n, |i| spec[i].conj(), |k, v| out[k] = v.re * s);
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn compiled_plan_is_bit_identical_to_the_recursion() {
        for n in (1..=64).chain([128]) {
            let plan = FftPlan::new(n);
            let oracle = Oracle::new(n);
            let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
            for seed in 0..3u64 {
                let mut x = rand_signal(n, 1000 * seed + n as u64);
                if seed == 2 {
                    // Signed zeros and an exact cancellation must
                    // survive too.
                    x[0] = Complex::new(-0.0, 0.0);
                    x[n / 2] = Complex::new(0.0, -0.0);
                }
                let mut y = vec![Complex::ZERO; n];
                plan.forward_into(&x, &mut y, &mut scratch);
                assert_eq!(bits(&y), bits(&oracle.forward(&x)), "forward n={n}");
                plan.inverse_into(&x, &mut y, &mut scratch);
                assert_eq!(bits(&y), bits(&oracle.inverse(&x)), "inverse n={n}");

                let row: Vec<f64> = x.iter().map(|c| c.re).collect();
                for m_max in 0..n {
                    let mut c = vec![Complex::ZERO; m_max + 1];
                    real_analysis_into(&plan, &row, &mut c, &mut scratch);
                    assert_eq!(
                        bits(&c),
                        bits(&oracle.real_analysis(&row, m_max)),
                        "analysis n={n} m_max={m_max}"
                    );
                }
                for m_max in 0..n.div_ceil(2) {
                    let mut coeffs = x[..=m_max].to_vec();
                    coeffs[0].im = 0.0;
                    let mut back = vec![0.0; n];
                    real_synthesis_into(&plan, &coeffs, &mut back, &mut scratch);
                    let want = oracle.real_synthesis(&coeffs);
                    assert_eq!(
                        back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "synthesis n={n} m_max={m_max}"
                    );
                }
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
        real_synthesis_into(&plan, &c, &mut back, &mut scratch);
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
