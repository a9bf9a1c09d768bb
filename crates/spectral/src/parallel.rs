//! The latitude-distributed spectral transform.
//!
//! PCCM2 parallelizes CCM2 by decomposing latitudes across processors;
//! the Legendre analysis then needs a *global* combine — the
//! communication-intensive step the paper highlights. Here each rank owns
//! a contiguous block of Gaussian latitudes, accumulates its rows'
//! quadrature contributions, and an `allreduce` sum completes the
//! transform, leaving the full spectral state replicated on every rank
//! (synthesis is then purely local). Because the combine is the
//! expensive step, analyses that do not depend on each other go through
//! an [`AnalysisBatch`]: every field's local sums land in one payload
//! and a single `allreduce` completes them all. The sum is element-wise,
//! so a coefficient gets the same bits whether its field travels alone
//! or in a batch.

use foam_grid::Field2;
use foam_mpi::{Comm, ReduceOp};

use crate::transform::{
    unflatten, SpectralField, SpectralWorkspace, SphericalTransform, SynthKind,
};
use crate::truncation::Truncation;

/// A [`SphericalTransform`] plus a latitude decomposition for one rank.
pub struct ParTransform {
    pub base: SphericalTransform,
    /// First owned latitude row (inclusive).
    pub j0: usize,
    /// Last owned latitude row (exclusive).
    pub j1: usize,
}

/// The allreduce payload of a batch of distributed analyses: one slot of
/// flat `(re, im)` coefficients per field. Allocate it once for the
/// largest batch and reuse it; [`AnalysisBatch::begin`] opens a batch
/// of any size up to that.
///
/// ```
/// use foam_grid::{AtmGrid, Field2};
/// use foam_mpi::Universe;
/// use foam_spectral::{
///     AnalysisBatch, ParTransform, SpectralField, SpectralWorkspace, SphericalTransform,
///     Truncation,
/// };
///
/// Universe::run(2, |comm| {
///     let t = SphericalTransform::new(AtmGrid::new(16, 8), Truncation::rhomboidal(3));
///     let par = ParTransform::new(t, comm);
///     let slabs: Vec<Field2> = (0..3)
///         .map(|f| Field2::from_fn(16, par.n_local_rows(), |i, j| (f * i + j) as f64))
///         .collect();
///     let mut ws = SpectralWorkspace::new(&par.base);
///     let mut batch = AnalysisBatch::new(par.base.trunc, slabs.len());
///     batch.begin(slabs.len());
///     for (slot, slab) in slabs.iter().enumerate() {
///         par.accumulate(slab, &mut ws, &mut batch, slot);
///     }
///     par.reduce(comm, &mut batch); // one allreduce for all three fields
///     let mut spec = SpectralField::zeros(par.base.trunc);
///     let mut alone = spec.clone();
///     for (slot, slab) in slabs.iter().enumerate() {
///         batch.read(slot, &mut spec);
///         par.analyze_into(comm, slab, &mut ws, &mut alone);
///         assert_eq!(spec, alone); // same bits as one at a time
///     }
/// });
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisBatch {
    payload: Vec<f64>,
    /// `f64`s per slot: two per retained coefficient.
    slot_len: usize,
    /// Slots of the batch under way.
    active: usize,
}

impl AnalysisBatch {
    /// A payload with room for `slots` fields under `trunc`.
    pub fn new(trunc: Truncation, slots: usize) -> Self {
        let slot_len = 2 * trunc.len();
        AnalysisBatch {
            payload: vec![0.0; slots * slot_len],
            slot_len,
            active: 0,
        }
    }

    /// Start a batch of `n` fields: zero their slots.
    pub fn begin(&mut self, n: usize) {
        assert!(n * self.slot_len <= self.payload.len(), "batch too large");
        self.active = n;
        self.payload[..n * self.slot_len].fill(0.0);
    }

    /// Copy the coefficients of `slot` into `out` (complete once
    /// [`ParTransform::reduce`] has run).
    pub fn read(&self, slot: usize, out: &mut SpectralField) {
        assert!(slot < self.active);
        let at = slot * self.slot_len;
        unflatten(&self.payload[at..at + self.slot_len], &mut out.data);
    }
}

/// Contiguous block decomposition of `n` rows over `size` ranks: rank `r`
/// owns `[n·r/size, n·(r+1)/size)`. Balanced to within one row.
pub fn block_range(n: usize, size: usize, rank: usize) -> (usize, usize) {
    (n * rank / size, n * (rank + 1) / size)
}

impl ParTransform {
    /// Bind a transform to this rank's block of latitudes.
    pub fn new(base: SphericalTransform, comm: &Comm) -> Self {
        let (j0, j1) = block_range(base.grid.nlat, comm.size(), comm.rank());
        ParTransform { base, j0, j1 }
    }

    /// Number of rows this rank owns.
    pub fn n_local_rows(&self) -> usize {
        self.j1 - self.j0
    }

    /// Distributed analysis: `local` is this rank's `(nlon × local_rows)`
    /// slab; on every rank `out` is overwritten with the complete
    /// spectral field. All scratch (accumulator and reduction payload,
    /// FFT scratch) is borrowed from `ws`. The `spectral` telemetry
    /// scope covers the Legendre sums and the combine; its child
    /// `reduce` is the combine (mostly waiting for the other ranks)
    /// alone.
    pub fn analyze_into(
        &self,
        comm: &Comm,
        local: &Field2,
        ws: &mut SpectralWorkspace,
        out: &mut SpectralField,
    ) {
        let _t = foam_telemetry::scope("spectral");
        assert_eq!(local.ny(), self.n_local_rows());
        assert_eq!(out.trunc, self.base.trunc);
        let SpectralWorkspace { fft, cm, flat } = ws;
        flat.fill(0.0);
        self.base
            .accumulate_rows(local, self.j0, self.j1, flat, cm, fft);
        {
            let _r = foam_telemetry::scope("reduce");
            comm.allreduce_mut(flat, ReduceOp::Sum);
        }
        unflatten(flat, &mut out.data);
    }

    /// The local half of a batched analysis: add this rank's rows of
    /// `local` to `slot` of `batch`. Counts as one `spectral` call.
    pub fn accumulate(
        &self,
        local: &Field2,
        ws: &mut SpectralWorkspace,
        batch: &mut AnalysisBatch,
        slot: usize,
    ) {
        let _t = foam_telemetry::scope("spectral");
        assert_eq!(local.ny(), self.n_local_rows());
        assert!(slot < batch.active);
        let at = slot * batch.slot_len;
        self.base.accumulate_rows(
            local,
            self.j0,
            self.j1,
            &mut batch.payload[at..at + batch.slot_len],
            &mut ws.cm,
            &mut ws.fft,
        );
    }

    /// The global half: one `allreduce` completes every field of the
    /// batch on every rank. Its time goes to `spectral` (and the child
    /// `reduce`) without counting another `spectral` call — the calls
    /// are the fields, already counted by [`ParTransform::accumulate`].
    pub fn reduce(&self, comm: &Comm, batch: &mut AnalysisBatch) {
        let _t = foam_telemetry::resume("spectral");
        let _r = foam_telemetry::scope("reduce");
        let used = batch.active * batch.slot_len;
        comm.allreduce_mut(&mut batch.payload[..used], ReduceOp::Sum);
    }

    /// Local synthesis of this rank's rows (no communication):
    /// overwrites the `(nlon × local_rows)` slab `out`.
    pub fn synthesize_into(
        &self,
        spec: &SpectralField,
        ws: &mut SpectralWorkspace,
        out: &mut Field2,
    ) {
        let _t = foam_telemetry::scope("spectral");
        self.base
            .synthesize_rows_into(spec, self.j0, self.j1, SynthKind::Value, ws, out);
    }

    /// Local synthesis of ∂f/∂λ.
    pub fn synthesize_dlambda_into(
        &self,
        spec: &SpectralField,
        ws: &mut SpectralWorkspace,
        out: &mut Field2,
    ) {
        let _t = foam_telemetry::scope("spectral");
        self.base
            .synthesize_rows_into(spec, self.j0, self.j1, SynthKind::DLambda, ws, out);
    }

    /// Local synthesis of cos φ · ∂f/∂φ.
    pub fn synthesize_cosgrad_into(
        &self,
        spec: &SpectralField,
        ws: &mut SpectralWorkspace,
        out: &mut Field2,
    ) {
        let _t = foam_telemetry::scope("spectral");
        self.base
            .synthesize_rows_into(spec, self.j0, self.j1, SynthKind::CosGrad, ws, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Complex;
    use foam_grid::AtmGrid;
    use foam_mpi::Universe;

    fn serial() -> SphericalTransform {
        SphericalTransform::new(AtmGrid::new(24, 16), Truncation::rhomboidal(5))
    }

    fn test_field(nlon: usize, nlat: usize, grid: &AtmGrid) -> Field2 {
        Field2::from_fn(nlon, nlat, |i, j| {
            let lam = grid.lons[i];
            let mu = grid.mu[j];
            (2.0 * lam).sin() * (1.0 - mu * mu) + 0.3 * mu + (lam.cos() * mu * mu)
        })
    }

    #[test]
    fn block_ranges_tile_exactly() {
        for n in [16usize, 40, 41] {
            for size in [1usize, 2, 3, 5, 8] {
                let mut covered = 0;
                for r in 0..size {
                    let (a, b) = block_range(n, size, r);
                    assert_eq!(a, covered);
                    covered = b;
                    assert!(b - a <= n / size + 1);
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn distributed_analysis_matches_serial() {
        for p in [1usize, 2, 3, 4] {
            let outs = Universe::run(p, |comm| {
                let t = ParTransform::new(serial(), comm);
                let full = test_field(t.base.grid.nlon, t.base.grid.nlat, &t.base.grid);
                // Carve out this rank's slab.
                let mut local = Field2::zeros(t.base.grid.nlon, t.n_local_rows());
                for j in t.j0..t.j1 {
                    local.row_mut(j - t.j0).copy_from_slice(full.row(j));
                }
                let mut spec = SpectralField::zeros(t.base.trunc);
                t.analyze_into(
                    comm,
                    &local,
                    &mut SpectralWorkspace::new(&t.base),
                    &mut spec,
                );
                spec.data
                    .iter()
                    .flat_map(|c| [c.re, c.im])
                    .collect::<Vec<f64>>()
            });
            let st = serial();
            let full = test_field(st.grid.nlon, st.grid.nlat, &st.grid);
            let expect: Vec<f64> = st
                .analyze(&full)
                .data
                .iter()
                .flat_map(|c| [c.re, c.im])
                .collect();
            for r in 0..p {
                for (a, b) in outs.results[r].iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-11, "p={p} rank={r}");
                }
            }
        }
    }

    /// A band-limited field: synthesized from a handful of spectral modes
    /// (arbitrary non-band-limited grid functions would only round-trip
    /// up to projection).
    fn bandlimited_field(st: &SphericalTransform) -> Field2 {
        let mut spec = SpectralField::zeros(st.trunc);
        spec.set(0, 0, Complex::new(1.3, 0.0));
        spec.set(0, 3, Complex::new(-0.4, 0.0));
        spec.set(2, 4, Complex::new(0.9, 0.2));
        spec.set(5, 7, Complex::new(-0.1, 0.8));
        st.synthesize(&spec)
    }

    #[test]
    fn distributed_roundtrip_and_gather() {
        let out = Universe::run(3, |comm| {
            let t = ParTransform::new(serial(), comm);
            let full = bandlimited_field(&t.base);
            let mut local = Field2::zeros(t.base.grid.nlon, t.n_local_rows());
            for j in t.j0..t.j1 {
                local.row_mut(j - t.j0).copy_from_slice(full.row(j));
            }
            let mut ws = SpectralWorkspace::new(&t.base);
            let mut spec = SpectralField::zeros(t.base.trunc);
            t.analyze_into(comm, &local, &mut ws, &mut spec);
            let mut back_local = Field2::zeros(t.base.grid.nlon, t.n_local_rows());
            t.synthesize_into(&spec, &mut ws, &mut back_local);
            let mut max_err = 0.0f64;
            for j in t.j0..t.j1 {
                for (a, b) in back_local.row(j - t.j0).iter().zip(full.row(j)) {
                    max_err = max_err.max((a - b).abs());
                }
            }
            comm.gather(max_err, 0)
        });
        let errs = out.results[0].as_ref().expect("rank 0 holds the gather");
        assert_eq!(errs.len(), 3);
        assert!(errs.iter().all(|&e| e < 1e-10), "roundtrip errors {errs:?}");
    }
}
