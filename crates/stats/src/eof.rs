//! Empirical orthogonal functions (via the snapshot method) and VARIMAX
//! rotation — the machinery behind the paper's Figure 4.

use crate::linalg::symmetric_eigen;

/// An EOF decomposition of an anomaly dataset.
#[derive(Debug, Clone)]
pub struct Eof {
    /// `patterns[k]` is mode k in physical space (length `n_space`),
    /// scaled so that `x(t, s) ≈ Σ_k pcs[k][t] · patterns[k][s]`.
    pub patterns: Vec<Vec<f64>>,
    /// Principal-component series, unit variance.
    pub pcs: Vec<Vec<f64>>,
    /// Fraction of total (area-weighted) variance per mode.
    pub variance_fraction: Vec<f64>,
    /// Total area-weighted variance of the input.
    pub total_variance: f64,
}

/// EOF analysis of `data` (time-major: `data[t][s]`, anomalies) with
/// per-point area weights, keeping `k_keep` modes. Uses the snapshot
/// (temporal covariance) method, which only needs an `n_t × n_t`
/// eigenproblem — the standard trick when space outnumbers time.
pub fn eof_analysis(data: &[Vec<f64>], weights: &[f64], k_keep: usize) -> Eof {
    let n_t = data.len();
    assert!(n_t >= 2, "need at least two time samples");
    let n_s = data[0].len();
    assert_eq!(weights.len(), n_s);
    let sqrt_w: Vec<f64> = weights.iter().map(|w| w.max(0.0).sqrt()).collect();

    // Weighted snapshots X̃[t][s] = x · √w.
    let xt: Vec<Vec<f64>> = data
        .iter()
        .map(|row| {
            assert_eq!(row.len(), n_s);
            row.iter().zip(&sqrt_w).map(|(v, w)| v * w).collect()
        })
        .collect();

    // Gram matrix G = X̃ X̃ᵀ (n_t × n_t).
    let mut g = vec![0.0; n_t * n_t];
    for t1 in 0..n_t {
        for t2 in t1..n_t {
            let dot: f64 = xt[t1].iter().zip(&xt[t2]).map(|(a, b)| a * b).sum();
            g[t1 * n_t + t2] = dot;
            g[t2 * n_t + t1] = dot;
        }
    }
    let (lambda, u) = symmetric_eigen(&g, n_t);
    let total: f64 = lambda.iter().filter(|l| **l > 0.0).sum();
    let k_keep = k_keep.min(n_t);

    let mut patterns = Vec::with_capacity(k_keep);
    let mut pcs = Vec::with_capacity(k_keep);
    let mut varfrac = Vec::with_capacity(k_keep);
    for k in 0..k_keep {
        let lam = lambda[k].max(0.0);
        if lam <= 1e-12 * total.max(1e-300) {
            break;
        }
        // Spatial mode ẽ = X̃ᵀ u / √λ (unit norm in weighted space).
        let mut e = vec![0.0; n_s];
        for t in 0..n_t {
            let c = u[k][t];
            for (s, ev) in e.iter_mut().enumerate() {
                *ev += c * xt[t][s];
            }
        }
        let inv = 1.0 / lam.sqrt();
        for ev in e.iter_mut() {
            *ev *= inv;
        }
        // Physical pattern = ẽ √(λ/n_t) / √w ; PC = u √n_t (unit var).
        let amp = (lam / n_t as f64).sqrt();
        let pattern: Vec<f64> = e
            .iter()
            .zip(&sqrt_w)
            .map(|(ev, w)| if *w > 0.0 { ev * amp / w } else { 0.0 })
            .collect();
        let pc: Vec<f64> = u[k].iter().map(|v| v * (n_t as f64).sqrt()).collect();
        patterns.push(pattern);
        pcs.push(pc);
        varfrac.push(lam / total);
    }

    Eof {
        patterns,
        pcs,
        variance_fraction: varfrac,
        total_variance: total / n_t as f64,
    }
}

/// VARIMAX rotation of the leading `k` modes of `eof` (Kaiser
/// normalized), re-projecting the data to get rotated PCs. Rotated modes
/// are sorted by descending explained variance — the operation the paper
/// applies before plotting Figure 4.
pub fn varimax(data: &[Vec<f64>], weights: &[f64], eof: &Eof, k: usize) -> Eof {
    let k = k.min(eof.patterns.len());
    let n_t = data.len();
    let (l, colvar, order, sqrt_w) = varimax_rotated_loadings(weights, eof, k);
    let n_s = weights.len();

    let mut patterns = Vec::with_capacity(k);
    let mut varfrac = Vec::with_capacity(k);
    let mut pcs = Vec::with_capacity(k);
    for &kk in &order {
        let pattern: Vec<f64> = (0..n_s)
            .map(|s| {
                if sqrt_w[s] > 0.0 {
                    l[s * k + kk] / sqrt_w[s]
                } else {
                    0.0
                }
            })
            .collect();
        // PC by weighted projection onto the (unit) rotated direction.
        let norm: f64 = colvar[kk];
        let pc: Vec<f64> = (0..n_t)
            .map(|t| {
                let mut acc = 0.0;
                for s in 0..n_s {
                    acc += data[t][s] * weights[s].max(0.0) * pattern[s];
                }
                acc / norm.max(1e-300)
            })
            .collect();
        patterns.push(pattern);
        varfrac.push(colvar[kk] / eof.total_variance.max(1e-300));
        pcs.push(pc);
    }

    Eof {
        patterns,
        pcs,
        variance_fraction: varfrac,
        total_variance: eof.total_variance,
    }
}

/// The rotation core shared by the batch and streaming VARIMAX paths:
/// Kaiser-normalized pairwise rotations of the leading `k` loadings,
/// returning the rotated loading matrix `L[s·k + kk]`, the per-factor
/// explained variances, the descending-variance factor order, and the
/// `√w` used — everything except the PCs, which the two paths compute
/// differently (full-grid projection vs reduced-space projection).
fn varimax_rotated_loadings(
    weights: &[f64],
    eof: &Eof,
    k: usize,
) -> (Vec<f64>, Vec<f64>, Vec<usize>, Vec<f64>) {
    let n_s = weights.len();
    let sqrt_w: Vec<f64> = weights.iter().map(|w| w.max(0.0).sqrt()).collect();

    // Loadings in weighted space: L[s][k].
    let mut l = vec![0.0; n_s * k];
    for kk in 0..k {
        for s in 0..n_s {
            l[s * k + kk] = eof.patterns[kk][s] * sqrt_w[s];
        }
    }
    // Kaiser normalization.
    let mut h = vec![0.0; n_s];
    for s in 0..n_s {
        let norm: f64 = (0..k).map(|kk| l[s * k + kk] * l[s * k + kk]).sum();
        h[s] = norm.sqrt();
        if h[s] > 1e-12 {
            for kk in 0..k {
                l[s * k + kk] /= h[s];
            }
        }
    }
    // Pairwise rotations.
    let nf = n_s as f64;
    for _sweep in 0..50 {
        let mut total_rotation = 0.0;
        for p in 0..k {
            for q in p + 1..k {
                let mut a = 0.0;
                let mut b = 0.0;
                let mut c = 0.0;
                let mut d = 0.0;
                for s in 0..n_s {
                    let x = l[s * k + p];
                    let y = l[s * k + q];
                    let u = x * x - y * y;
                    let v = 2.0 * x * y;
                    a += u;
                    b += v;
                    c += u * u - v * v;
                    d += 2.0 * u * v;
                }
                let num = d - 2.0 * a * b / nf;
                let den = c - (a * a - b * b) / nf;
                let theta = 0.25 * num.atan2(den);
                if theta.abs() < 1e-9 {
                    continue;
                }
                total_rotation += theta.abs();
                let (ct, st) = (theta.cos(), theta.sin());
                for s in 0..n_s {
                    let x = l[s * k + p];
                    let y = l[s * k + q];
                    l[s * k + p] = ct * x + st * y;
                    l[s * k + q] = -st * x + ct * y;
                }
            }
        }
        if total_rotation < 1e-8 {
            break;
        }
    }
    // Denormalize.
    for s in 0..n_s {
        if h[s] > 1e-12 {
            for kk in 0..k {
                l[s * k + kk] *= h[s];
            }
        }
    }

    // Rotated explained variance per factor = Σ_s L².
    let mut order: Vec<usize> = (0..k).collect();
    let colvar: Vec<f64> = (0..k)
        .map(|kk| (0..n_s).map(|s| l[s * k + kk] * l[s * k + kk]).sum())
        .collect();
    // `total_cmp`, not `partial_cmp(..).unwrap()`: degenerate input (a
    // NaN anomaly leaking through the filter chain) makes a column
    // variance NaN, and sorting must not panic on it.
    order.sort_by(|&a, &b| colvar[b].total_cmp(&colvar[a]));

    (l, colvar, order, sqrt_w)
}

/// Single-pass EOF analysis via an incremental rank-`r` subspace
/// sketch, the streaming counterpart of [`eof_analysis`].
///
/// Each pushed sample `x` (one monthly field, say) is area-weighted to
/// `y = x·√w` and split into its projection onto the current orthonormal
/// spatial basis `U` plus a residual; a significant residual direction
/// joins the basis until `r_max` directions are held, after which
/// further residual energy is *discarded* (and accounted in
/// [`discarded_fraction`]). Memory is `O(n_space · r_max)` for the basis
/// plus `O(n_time · r_max)` for the per-sample coefficients — never the
/// `O(n_space · n_time)` snapshot matrix the batch method stores.
///
/// For data whose true rank is `≤ r_max` the sketch is **exact**: the
/// spectrum of the coefficient Gram `CᵀC` (size `r × r`) equals the
/// non-zero spectrum of the batch snapshot Gram `X̃X̃ᵀ`, so
/// [`analyze`] with the identity transform reproduces [`eof_analysis`]
/// to rounding — the invariant
/// the property-test layer checks. For full-rank geophysical data the
/// result is the best rank-`r_max` approximation the greedy update
/// retains, with the lost energy reported, not hidden.
///
/// Because the time-axis operators of the Figure-4 pipeline (monthly
/// anomalies, detrending, Lanczos low-pass) are *linear and identical
/// per grid point*, applying them to the `r` coefficient columns at
/// [`analyze`] time equals applying them to every grid point's series —
/// that algebraic identity is what lets a century run regenerate
/// Figure 4 without ever materializing per-point histories.
///
/// [`discarded_fraction`]: StreamingEof::discarded_fraction
/// [`analyze`]: StreamingEof::analyze
///
/// ```
/// use foam_stats::eof::{eof_analysis, StreamingEof};
///
/// // Rank-1 data: one spatial pattern, one driver.
/// let n_s = 20;
/// let pattern: Vec<f64> = (0..n_s).map(|s| (s as f64 * 0.3).sin()).collect();
/// let data: Vec<Vec<f64>> = (0..30)
///     .map(|t| pattern.iter().map(|p| p * (t as f64 * 0.7).cos()).collect())
///     .collect();
/// let w = vec![1.0; n_s];
///
/// let mut se = StreamingEof::new(&w, 4);
/// for row in &data {
///     se.push(row).unwrap();
/// }
/// let stream = se.analyze(1, |series| series).eof;
/// let batch = eof_analysis(&data, &w, 1);
/// assert!((stream.variance_fraction[0] - batch.variance_fraction[0]).abs() < 1e-10);
/// assert_eq!(se.rank(), 1); // the sketch found exactly one direction
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingEof {
    weights: Vec<f64>,
    sqrt_w: Vec<f64>,
    r_max: usize,
    /// Residual significance threshold, relative to the sample norm.
    tol: f64,
    /// Orthonormal spatial basis in weighted space, `rank()` vectors of
    /// length `n_space`.
    basis: Vec<Vec<f64>>,
    /// Per-sample basis coefficients (row `t` has as many entries as
    /// the basis held when sample `t` arrived).
    coeffs: Vec<Vec<f64>>,
    /// Running Σ‖y‖² of every pushed (weighted) sample.
    total_energy: f64,
    /// Residual energy that no longer fit the basis.
    discarded_energy: f64,
}

impl StreamingEof {
    /// A sketch over `weights.len()` grid points holding at most
    /// `r_max` spatial directions.
    pub fn new(weights: &[f64], r_max: usize) -> Self {
        StreamingEof {
            weights: weights.to_vec(),
            sqrt_w: weights.iter().map(|w| w.max(0.0).sqrt()).collect(),
            r_max: r_max.max(1),
            tol: 1e-8,
            basis: Vec::new(),
            coeffs: Vec::new(),
            total_energy: 0.0,
            discarded_energy: 0.0,
        }
    }

    /// Samples consumed so far.
    pub fn samples(&self) -> usize {
        self.coeffs.len()
    }

    /// Spatial directions currently held (`≤ r_max`).
    pub fn rank(&self) -> usize {
        self.basis.len()
    }

    /// The area weights the sketch was built with.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fraction of the pushed (weighted) energy the basis could *not*
    /// represent — `0.0` means the sketch is exact.
    ///
    /// ```
    /// let se = foam_stats::eof::StreamingEof::new(&[1.0; 8], 4);
    /// assert_eq!(se.discarded_fraction(), 0.0);
    /// ```
    pub fn discarded_fraction(&self) -> f64 {
        if self.total_energy > 0.0 {
            self.discarded_energy / self.total_energy
        } else {
            0.0
        }
    }

    /// Consume one spatial sample (length `n_space`); rejects a length
    /// mismatch instead of panicking.
    pub fn push(&mut self, x: &[f64]) -> Result<(), crate::stream::StatsError> {
        if x.len() != self.sqrt_w.len() {
            return Err(crate::stream::StatsError::LengthMismatch {
                what: "streaming EOF sample",
                expected: self.sqrt_w.len(),
                got: x.len(),
            });
        }
        let y: Vec<f64> = x.iter().zip(&self.sqrt_w).map(|(v, w)| v * w).collect();
        let e0: f64 = y.iter().map(|v| v * v).sum();
        self.total_energy += e0;

        // Two Gram–Schmidt passes: the second projection removes the
        // rounding the first one leaves, keeping the basis orthonormal
        // over arbitrarily long streams.
        let mut c: Vec<f64> = Vec::with_capacity(self.basis.len() + 1);
        let mut resid = y;
        for _pass in 0..2 {
            for (i, b) in self.basis.iter().enumerate() {
                let dot: f64 = b.iter().zip(&resid).map(|(a, v)| a * v).sum();
                if _pass == 0 {
                    c.push(dot);
                } else {
                    c[i] += dot;
                }
                for (rv, bv) in resid.iter_mut().zip(b) {
                    *rv -= dot * bv;
                }
            }
        }
        let r2: f64 = resid.iter().map(|v| v * v).sum();
        let rn = r2.sqrt();
        if rn > self.tol * e0.sqrt() && rn > 0.0 {
            if self.basis.len() < self.r_max {
                for v in resid.iter_mut() {
                    *v /= rn;
                }
                self.basis.push(resid);
                c.push(rn);
            } else {
                self.discarded_energy += r2;
            }
        }
        self.coeffs.push(c);
        Ok(())
    }

    /// Finish the stream: EOF decomposition of everything pushed,
    /// keeping `k_keep` modes, after applying a **linear time-axis
    /// transform** (e.g. monthly anomalies → detrend → low-pass) to the
    /// data. With the identity transform this is [`eof_analysis`] on the
    /// full data for rank `≤ r_max` input. `transform` receives one
    /// length-`samples()` series and must return one of the same length;
    /// it is applied to each of the
    /// `rank()` coefficient columns, which — by linearity — equals
    /// applying it to every grid point's series of the original data.
    /// Returns a [`StreamedAnalysis`] carrying the EOF plus the reduced
    /// basis, from which VARIMAX rotations and box-mean series can be
    /// computed without the full data matrix.
    ///
    /// # Panics
    /// If `transform` changes the series length.
    pub fn analyze(
        &self,
        k_keep: usize,
        transform: impl Fn(Vec<f64>) -> Vec<f64>,
    ) -> StreamedAnalysis {
        let r = self.basis.len();
        let n_t = self.coeffs.len();
        let empty = |total: f64| StreamedAnalysis {
            eof: Eof {
                patterns: Vec::new(),
                pcs: Vec::new(),
                variance_fraction: Vec::new(),
                total_variance: total,
            },
            weights: self.weights.clone(),
            sqrt_w: self.sqrt_w.clone(),
            basis: self.basis.clone(),
            coeffs: Vec::new(),
        };
        if r == 0 || n_t < 2 {
            return empty(0.0);
        }
        // Transform each coefficient column on the time axis (rows are
        // ragged — a sample pushed before direction j existed has
        // coefficient 0 on j).
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(r);
        for j in 0..r {
            let col: Vec<f64> = self
                .coeffs
                .iter()
                .map(|row| row.get(j).copied().unwrap_or(0.0))
                .collect();
            let col = transform(col);
            assert_eq!(
                col.len(),
                n_t,
                "time-axis transform must preserve the series length"
            );
            cols.push(col);
        }
        // Coefficient Gram S = CᵀC (r × r) — same non-zero spectrum as
        // the batch snapshot Gram CCᵀ (n_t × n_t).
        let mut s = vec![0.0; r * r];
        let mut trace = 0.0;
        for i in 0..r {
            for j in i..r {
                let dot: f64 = cols[i].iter().zip(&cols[j]).map(|(a, b)| a * b).sum();
                s[i * r + j] = dot;
                s[j * r + i] = dot;
                if i == j {
                    trace += dot;
                }
            }
        }
        let (lambda, v) = symmetric_eigen(&s, r);
        // The denominator of the variance fractions includes the energy
        // the sketch discarded: the transforms used here (anomaly
        // removal, detrending, low-pass) are contractions, so this
        // under-states rather than over-states each mode's share.
        let total = trace + self.discarded_energy;
        if total <= 0.0 {
            return empty(0.0);
        }
        let k_keep = k_keep.min(r);
        let n_s = self.sqrt_w.len();
        let mut patterns = Vec::with_capacity(k_keep);
        let mut pcs = Vec::with_capacity(k_keep);
        let mut varfrac = Vec::with_capacity(k_keep);
        let mut kept_coeffs: Vec<Vec<f64>> = vec![Vec::with_capacity(r); n_t];
        for (t, row) in kept_coeffs.iter_mut().enumerate() {
            row.extend((0..r).map(|j| cols[j][t]));
        }
        for k in 0..k_keep {
            let lam = lambda[k].max(0.0);
            if lam <= 1e-12 * total.max(1e-300) {
                break;
            }
            // Spatial mode: if S v = λ v then the weighted-space EOF is
            // ẽ = U v (see the batch method: ẽ = X̃ᵀ u / √λ = U v).
            let mut e = vec![0.0; n_s];
            for (j, b) in self.basis.iter().enumerate() {
                let cj = v[k][j];
                for (ev, bv) in e.iter_mut().zip(b) {
                    *ev += cj * bv;
                }
            }
            let amp = (lam / n_t as f64).sqrt();
            let pattern: Vec<f64> = e
                .iter()
                .zip(&self.sqrt_w)
                .map(|(ev, w)| if *w > 0.0 { ev * amp / w } else { 0.0 })
                .collect();
            // PC: u[t] = (C v)[t] / √λ, scaled by √n_t to unit variance.
            let scale = (n_t as f64).sqrt() / lam.sqrt();
            let pc: Vec<f64> = kept_coeffs
                .iter()
                .map(|row| row.iter().zip(&v[k]).map(|(a, b)| a * b).sum::<f64>() * scale)
                .collect();
            patterns.push(pattern);
            pcs.push(pc);
            varfrac.push(lam / total);
        }
        StreamedAnalysis {
            eof: Eof {
                patterns,
                pcs,
                variance_fraction: varfrac,
                total_variance: total / n_t as f64,
            },
            weights: self.weights.clone(),
            sqrt_w: self.sqrt_w.clone(),
            basis: self.basis.clone(),
            coeffs: kept_coeffs,
        }
    }
}

impl foam_ckpt::Codec for StreamingEof {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.weights.encode(buf);
        self.sqrt_w.encode(buf);
        self.r_max.encode(buf);
        self.tol.encode(buf);
        self.basis.encode(buf);
        self.coeffs.encode(buf);
        self.total_energy.encode(buf);
        self.discarded_energy.encode(buf);
    }
    fn decode(r: &mut foam_ckpt::ByteReader<'_>) -> Result<Self, foam_ckpt::CkptError> {
        let weights = Vec::<f64>::decode(r)?;
        let sqrt_w = Vec::<f64>::decode(r)?;
        let r_max = usize::decode(r)?;
        let tol = f64::decode(r)?;
        let basis = Vec::<Vec<f64>>::decode(r)?;
        let coeffs = Vec::<Vec<f64>>::decode(r)?;
        let total_energy = f64::decode(r)?;
        let discarded_energy = f64::decode(r)?;
        if sqrt_w.len() != weights.len()
            || basis.len() > r_max
            || basis.iter().any(|b| b.len() != weights.len())
            || coeffs.iter().any(|c| c.len() > basis.len())
        {
            return Err(foam_ckpt::CkptError::Corrupt(
                "streaming EOF state is internally inconsistent".into(),
            ));
        }
        Ok(StreamingEof {
            weights,
            sqrt_w,
            r_max,
            tol,
            basis,
            coeffs,
            total_energy,
            discarded_energy,
        })
    }
}

/// The result of [`StreamingEof::analyze`]: an [`Eof`] plus the reduced
/// spatial basis and (transformed) coefficient series, enough to rotate
/// and to project spatial profiles — everything Figure 4 needs —
/// without the `O(grid × months)` data matrix.
#[derive(Debug, Clone)]
pub struct StreamedAnalysis {
    /// The unrotated EOF decomposition.
    pub eof: Eof,
    weights: Vec<f64>,
    sqrt_w: Vec<f64>,
    basis: Vec<Vec<f64>>,
    /// Transformed coefficients, one length-`rank` row per sample.
    coeffs: Vec<Vec<f64>>,
}

impl StreamedAnalysis {
    /// VARIMAX rotation of the leading `k` modes — the same rotation as
    /// the batch [`varimax`] (the loading algebra never touches the
    /// data matrix), with the rotated PCs recovered by reduced-space
    /// projection instead of a full-grid sweep.
    ///
    /// ```
    /// use foam_stats::eof::StreamingEof;
    ///
    /// let w = vec![1.0; 12];
    /// let mut se = StreamingEof::new(&w, 3);
    /// for t in 0..40 {
    ///     let row: Vec<f64> = (0..12)
    ///         .map(|s| (t as f64 * 0.4).sin() * (s as f64 * 0.5).cos())
    ///         .collect();
    ///     se.push(&row).unwrap();
    /// }
    /// let analysis = se.analyze(2, |col| col);
    /// let rot = analysis.varimax(1);
    /// assert_eq!(rot.patterns.len(), 1);
    /// ```
    pub fn varimax(&self, k: usize) -> Eof {
        let k = k.min(self.eof.patterns.len());
        let (l, colvar, order, sqrt_w) = varimax_rotated_loadings(&self.weights, &self.eof, k);
        let n_s = self.weights.len();
        let mut patterns = Vec::with_capacity(k);
        let mut varfrac = Vec::with_capacity(k);
        let mut pcs = Vec::with_capacity(k);
        for &kk in &order {
            let pattern: Vec<f64> = (0..n_s)
                .map(|s| {
                    if sqrt_w[s] > 0.0 {
                        l[s * k + kk] / sqrt_w[s]
                    } else {
                        0.0
                    }
                })
                .collect();
            let norm: f64 = colvar[kk];
            // Σ_s x[t][s]·w_s·pattern_s reduces to a rank-space dot
            // product (x̃ = C Uᵀ), so each PC costs O(n_t·r + n_s·r).
            let weighted: Vec<f64> = (0..n_s)
                .map(|s| self.weights[s].max(0.0) * pattern[s])
                .collect();
            let pc: Vec<f64> = self
                .series(&weighted)
                .into_iter()
                .map(|v| v / norm.max(1e-300))
                .collect();
            patterns.push(pattern);
            varfrac.push(colvar[kk] / self.eof.total_variance.max(1e-300));
            pcs.push(pc);
        }
        Eof {
            patterns,
            pcs,
            variance_fraction: varfrac,
            total_variance: self.eof.total_variance,
        }
    }

    /// The time series `Σ_s profile[s] · x[t][s]` of a fixed spatial
    /// profile against the (transformed) data — box means, basin
    /// loadings — computed in the reduced space. A zero-weight point
    /// contributes nothing regardless of its profile value.
    ///
    /// # Panics
    /// If `profile.len()` differs from the grid size.
    pub fn series(&self, profile: &[f64]) -> Vec<f64> {
        assert_eq!(profile.len(), self.sqrt_w.len());
        // x[t][s] = x̃[t][s]/√w_s and x̃ = C Uᵀ, so the series is
        // C · (Uᵀ q) with q_s = profile_s/√w_s.
        let q: Vec<f64> = profile
            .iter()
            .zip(&self.sqrt_w)
            .map(|(p, w)| if *w > 0.0 { p / w } else { 0.0 })
            .collect();
        let proj: Vec<f64> = self
            .basis
            .iter()
            .map(|b| b.iter().zip(&q).map(|(a, v)| a * v).sum())
            .collect();
        self.coeffs
            .iter()
            .map(|row| row.iter().zip(&proj).map(|(a, b)| a * b).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two orthogonal spatial patterns with well separated variances.
    fn synthetic(n_t: usize, n_s: usize) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let p1: Vec<f64> = (0..n_s)
            .map(|s| (2.0 * std::f64::consts::PI * s as f64 / n_s as f64).sin())
            .collect();
        let p2: Vec<f64> = (0..n_s)
            .map(|s| (4.0 * std::f64::consts::PI * s as f64 / n_s as f64).cos())
            .collect();
        let data: Vec<Vec<f64>> = (0..n_t)
            .map(|t| {
                let a = 3.0 * (t as f64 * 0.37).sin();
                let b = 1.0 * (t as f64 * 0.11).cos();
                (0..n_s).map(|s| a * p1[s] + b * p2[s]).collect()
            })
            .collect();
        let w = vec![1.0; n_s];
        (data, w, p1, p2)
    }

    fn abs_corr(a: &[f64], b: &[f64]) -> f64 {
        crate::series::correlation(a, b).abs()
    }

    #[test]
    fn recovers_dominant_pattern() {
        let (data, w, p1, _p2) = synthetic(80, 64);
        let eof = eof_analysis(&data, &w, 3);
        assert!(eof.variance_fraction[0] > 0.7);
        assert!(abs_corr(&eof.patterns[0], &p1) > 0.99);
        // Variance fractions are a partition.
        let s: f64 = eof.variance_fraction.iter().sum();
        assert!(s <= 1.0 + 1e-9);
        assert!(eof.variance_fraction[0] >= eof.variance_fraction[1]);
    }

    #[test]
    fn pcs_have_unit_variance_and_are_orthogonal() {
        let (data, w, _, _) = synthetic(100, 40);
        let eof = eof_analysis(&data, &w, 2);
        for pc in &eof.pcs {
            let var: f64 = pc.iter().map(|v| v * v).sum::<f64>() / pc.len() as f64;
            assert!((var - 1.0).abs() < 1e-9, "pc variance {var}");
        }
        let dot: f64 = eof.pcs[0]
            .iter()
            .zip(&eof.pcs[1])
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / eof.pcs[0].len() as f64;
        assert!(dot.abs() < 1e-9);
    }

    #[test]
    fn reconstruction_from_two_modes_is_exact() {
        let (data, w, _, _) = synthetic(60, 32);
        let eof = eof_analysis(&data, &w, 2);
        for t in (0..60).step_by(13) {
            for s in (0..32).step_by(5) {
                let rec: f64 = (0..2).map(|k| eof.pcs[k][t] * eof.patterns[k][s]).sum();
                assert!(
                    (rec - data[t][s]).abs() < 1e-8,
                    "t={t} s={s}: {rec} vs {}",
                    data[t][s]
                );
            }
        }
    }

    #[test]
    fn zero_weight_points_are_excluded() {
        let (mut data, mut w, _, _) = synthetic(40, 20);
        // Poison a masked point; with w = 0 it must not affect anything.
        w[7] = 0.0;
        for row in data.iter_mut() {
            row[7] = 1.0e6;
        }
        let eof = eof_analysis(&data, &w, 1);
        assert_eq!(eof.patterns[0][7], 0.0);
        assert!(eof.variance_fraction[0] > 0.5);
    }

    #[test]
    fn varimax_survives_a_nan_variance() {
        // Regression: the explained-variance sort used
        // `partial_cmp(..).unwrap()`, so a single NaN loading (e.g. an
        // undefined anomaly upstream) made the whole rotation panic.
        // With `total_cmp` the rotation completes and the clean modes
        // still come out sorted ahead of the poisoned one.
        let (data, w, _, _) = synthetic(60, 32);
        let mut eof = eof_analysis(&data, &w, 2);
        eof.patterns[1][3] = f64::NAN;
        // The NaN spreads through the rotation (Kaiser normalization
        // couples the columns), so the *values* are garbage — what the
        // fix guarantees is that the analysis returns with the right
        // shape instead of aborting.
        let rot = varimax(&data, &w, &eof, 2);
        assert_eq!(rot.patterns.len(), 2);
        assert_eq!(rot.variance_fraction.len(), 2);
    }

    #[test]
    fn varimax_recovers_localized_structures() {
        // Two disjoint-support "basin" patterns with *similar* variances:
        // plain EOF mixes them; VARIMAX should separate.
        let n_s = 60;
        let n_t = 200;
        let sup1 = 5..20;
        let sup2 = 35..50;
        let p1: Vec<f64> = (0..n_s)
            .map(|s| if sup1.contains(&s) { 1.0 } else { 0.0 })
            .collect();
        let p2: Vec<f64> = (0..n_s)
            .map(|s| if sup2.contains(&s) { 1.0 } else { 0.0 })
            .collect();
        // Nearly equal amplitudes with slightly correlated drivers — the
        // degenerate case that mixes EOFs.
        let data: Vec<Vec<f64>> = (0..n_t)
            .map(|t| {
                let a = (t as f64 * 0.13).sin() + 0.12 * (t as f64 * 0.05).cos();
                let b = 1.05 * (t as f64 * 0.131 + 1.0).sin();
                (0..n_s).map(|s| a * p1[s] + b * p2[s]).collect()
            })
            .collect();
        let w = vec![1.0; n_s];
        let eof = eof_analysis(&data, &w, 2);
        let rot = varimax(&data, &w, &eof, 2);
        // Each rotated factor concentrates its energy on one support.
        for pattern in &rot.patterns[..2] {
            let e1: f64 = sup1.clone().map(|s| pattern[s] * pattern[s]).sum();
            let e2: f64 = sup2.clone().map(|s| pattern[s] * pattern[s]).sum();
            let (hi, lo) = if e1 > e2 { (e1, e2) } else { (e2, e1) };
            assert!(hi > 9.0 * lo, "rotated factor not simple: {e1} vs {e2}");
        }
        // Rotation preserves the total explained variance of the pair.
        let before: f64 = eof.variance_fraction[..2].iter().sum();
        let after: f64 = rot.variance_fraction[..2].iter().sum();
        assert!((before - after).abs() < 0.02, "{before} vs {after}");
    }

    #[test]
    fn varimax_pcs_track_their_drivers() {
        let n_s = 40;
        let n_t = 150;
        let p1: Vec<f64> = (0..n_s).map(|s| if s < 15 { 1.0 } else { 0.0 }).collect();
        let p2: Vec<f64> = (0..n_s).map(|s| if s >= 25 { 1.0 } else { 0.0 }).collect();
        let drv1: Vec<f64> = (0..n_t).map(|t| (t as f64 * 0.21).sin()).collect();
        let drv2: Vec<f64> = (0..n_t).map(|t| (t as f64 * 0.19 + 0.5).cos()).collect();
        let data: Vec<Vec<f64>> = (0..n_t)
            .map(|t| {
                (0..n_s)
                    .map(|s| drv1[t] * p1[s] + drv2[t] * p2[s])
                    .collect()
            })
            .collect();
        let w = vec![1.0; n_s];
        let eof = eof_analysis(&data, &w, 2);
        let rot = varimax(&data, &w, &eof, 2);
        // One rotated PC matches each driver (in some order, up to sign).
        let c11 = abs_corr(&rot.pcs[0], &drv1);
        let c12 = abs_corr(&rot.pcs[0], &drv2);
        let c21 = abs_corr(&rot.pcs[1], &drv1);
        let c22 = abs_corr(&rot.pcs[1], &drv2);
        let matched = (c11 > 0.95 && c22 > 0.95) || (c12 > 0.95 && c21 > 0.95);
        assert!(matched, "correlations {c11} {c12} {c21} {c22}");
    }

    #[test]
    fn streaming_eof_matches_batch_on_low_rank_data() {
        let (data, w, _, _) = synthetic(80, 64);
        let batch = eof_analysis(&data, &w, 2);
        let mut se = StreamingEof::new(&w, 6);
        for row in &data {
            se.push(row).unwrap();
        }
        assert_eq!(se.rank(), 2, "rank-2 data must yield a rank-2 sketch");
        assert_eq!(se.discarded_fraction(), 0.0);
        let stream = se.analyze(2, |series| series).eof;
        assert_eq!(stream.patterns.len(), batch.patterns.len());
        for k in 0..2 {
            assert!(
                (stream.variance_fraction[k] - batch.variance_fraction[k]).abs() < 1e-10,
                "mode {k} variance fraction"
            );
            assert!(abs_corr(&stream.patterns[k], &batch.patterns[k]) > 1.0 - 1e-9);
            assert!(abs_corr(&stream.pcs[k], &batch.pcs[k]) > 1.0 - 1e-9);
        }
        assert!((stream.total_variance - batch.total_variance).abs() < 1e-9 * batch.total_variance);
    }

    #[test]
    fn streaming_varimax_matches_batch_varimax() {
        let (data, w, _, _) = synthetic(100, 48);
        let batch_eof = eof_analysis(&data, &w, 3);
        let batch_rot = varimax(&data, &w, &batch_eof, 2);
        let mut se = StreamingEof::new(&w, 5);
        for row in &data {
            se.push(row).unwrap();
        }
        let analysis = se.analyze(3, |col| col);
        let rot = analysis.varimax(2);
        assert_eq!(rot.patterns.len(), batch_rot.patterns.len());
        for k in 0..rot.patterns.len() {
            assert!(
                (rot.variance_fraction[k] - batch_rot.variance_fraction[k]).abs() < 1e-8,
                "rotated mode {k}: {} vs {}",
                rot.variance_fraction[k],
                batch_rot.variance_fraction[k]
            );
            assert!(abs_corr(&rot.patterns[k], &batch_rot.patterns[k]) > 1.0 - 1e-7);
            assert!(abs_corr(&rot.pcs[k], &batch_rot.pcs[k]) > 1.0 - 1e-7);
        }
    }

    #[test]
    fn streaming_time_transform_equals_per_point_transform() {
        // Applying a linear time operator to the coefficient columns
        // must equal applying it per grid point — here: detrending.
        let (data, w, _, _) = synthetic(60, 32);
        // Add a linear trend everywhere so the transform has work to do.
        let trended: Vec<Vec<f64>> = data
            .iter()
            .enumerate()
            .map(|(t, row)| row.iter().map(|v| v + 0.05 * t as f64).collect())
            .collect();
        let mut per_point = trended.clone();
        for s in 0..32 {
            let mut col: Vec<f64> = (0..60).map(|t| trended[t][s]).collect();
            crate::series::detrend(&mut col);
            for t in 0..60 {
                per_point[t][s] = col[t];
            }
        }
        let batch = eof_analysis(&per_point, &w, 2);
        let mut se = StreamingEof::new(&w, 8);
        for row in &trended {
            se.push(row).unwrap();
        }
        let stream = se
            .analyze(2, |mut col| {
                crate::series::detrend(&mut col);
                col
            })
            .eof;
        for k in 0..2 {
            assert!(
                (stream.variance_fraction[k] - batch.variance_fraction[k]).abs() < 1e-9,
                "mode {k}"
            );
            assert!(abs_corr(&stream.patterns[k], &batch.patterns[k]) > 1.0 - 1e-8);
        }
    }

    #[test]
    fn streaming_eof_codec_resume_is_identical() {
        use foam_ckpt::{ByteReader, Codec};
        let (data, w, _, _) = synthetic(50, 24);
        let mut whole = StreamingEof::new(&w, 4);
        for row in &data {
            whole.push(row).unwrap();
        }
        for split in [0usize, 1, 25, 49, 50] {
            let mut a = StreamingEof::new(&w, 4);
            for row in &data[..split] {
                a.push(row).unwrap();
            }
            let bytes = a.to_bytes();
            let mut r = ByteReader::new(&bytes);
            let mut b = StreamingEof::decode(&mut r).unwrap();
            for row in &data[split..] {
                b.push(row).unwrap();
            }
            assert_eq!(b, whole, "resume at {split} diverged");
        }
    }

    #[test]
    fn streaming_eof_discards_beyond_capacity_and_reports_it() {
        // Full-rank noise into a rank-2 sketch: energy must be dropped
        // *and* accounted for.
        let n_s = 16;
        let mut x = 1u64;
        let mut next = move || {
            // xorshift — deterministic, no external RNG.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) - 0.5
        };
        let w = vec![1.0; n_s];
        let mut se = StreamingEof::new(&w, 2);
        for _ in 0..30 {
            let row: Vec<f64> = (0..n_s).map(|_| next()).collect();
            se.push(&row).unwrap();
        }
        assert_eq!(se.rank(), 2);
        assert!(se.discarded_fraction() > 0.1, "{}", se.discarded_fraction());
        assert!(se.discarded_fraction() < 1.0);
        // Variance fractions stay a sub-partition of 1.
        let eof = se.analyze(2, |series| series).eof;
        let s: f64 = eof.variance_fraction.iter().sum();
        assert!(s > 0.0 && s <= 1.0 + 1e-9);
    }

    #[test]
    fn streaming_eof_rejects_mismatched_sample() {
        let mut se = StreamingEof::new(&[1.0; 8], 2);
        assert!(se.push(&[0.0; 7]).is_err());
    }
}
