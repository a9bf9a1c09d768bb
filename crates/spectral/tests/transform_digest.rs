//! The spherical-harmonic transform's bits, frozen as literals.
//!
//! Each digest is FNV-1a over `to_bits` of what one entry point returns:
//! the coefficients of `analyze_ws`, the grid of `synthesize_rows_into`
//! for every [`SynthKind`], the partial sums of a row range, and the
//! distributed analysis and synthesis on 1 to 5 ranks. They were
//! recorded on the one-row-at-a-time transform; any change that moves
//! one has moved the model's answers (see ROADMAP's re-pin gate before
//! editing a constant here).

use foam_grid::{AtmGrid, Field2};
use foam_mpi::Universe;
use foam_spectral::{
    AnalysisBatch, ParTransform, SpectralField, SpectralWorkspace, SphericalTransform, SynthKind,
    Truncation,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, x: f64) -> u64 {
    x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv_all<'a>(h: u64, xs: impl IntoIterator<Item = &'a f64>) -> u64 {
    xs.into_iter().fold(h, |h, &x| fnv(h, x))
}

fn spec_digest(spec: &SpectralField) -> u64 {
    fnv_all(FNV_OFFSET, spec.data.iter().flat_map(|c| [&c.re, &c.im]))
}

const KINDS: [SynthKind; 3] = [SynthKind::Value, SynthKind::DLambda, SynthKind::CosGrad];

fn r15() -> SphericalTransform {
    SphericalTransform::r15()
}

fn r3() -> SphericalTransform {
    SphericalTransform::new(AtmGrid::new(16, 12), Truncation::rhomboidal(3))
}

/// A grid field that is not band-limited: smooth structure plus a
/// pseudo-random part, so every wavenumber and every row carries bits.
fn field(nlon: usize, nlat: usize, seed: u64) -> Field2 {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Field2::from_fn(nlon, nlat, |i, j| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let lam = i as f64 * 0.37 + j as f64 * 0.11;
        280.0 + 15.0 * lam.sin() + 3.0 * (2.3 * lam).cos() * j as f64 / nlat as f64 + noise
    })
}

/// The rows `[j0, j1)` of `f` as a slab of their own.
fn slab(f: &Field2, j0: usize, j1: usize) -> Field2 {
    Field2::from_vec(
        f.nx(),
        j1 - j0,
        f.as_slice()[j0 * f.nx()..j1 * f.nx()].to_vec(),
    )
}

/// (analysis, Value, DLambda, CosGrad) digests over the full grid.
fn full_grid(t: &SphericalTransform) -> [u64; 4] {
    let (nlon, nlat) = (t.grid.nlon, t.grid.nlat);
    let mut ws = SpectralWorkspace::new(t);
    let mut spec = SpectralField::zeros(t.trunc);
    t.analyze_ws(&field(nlon, nlat, 11), &mut ws, &mut spec);
    let mut out = Field2::zeros(nlon, nlat);
    let mut got = [spec_digest(&spec), 0, 0, 0];
    for (kind, d) in KINDS.into_iter().zip(&mut got[1..]) {
        t.synthesize_rows_into(&spec, 0, nlat, kind, &mut ws, &mut out);
        *d = fnv_all(FNV_OFFSET, out.as_slice());
    }
    got
}

/// One digest over row ranges of every length 0..=9 at each offset
/// (clipped to the grid): the partial analysis sums of the range, and
/// its synthesis of every kind.
fn row_ranges(t: SphericalTransform, offsets: &[usize]) -> u64 {
    let (nlon, nlat) = (t.grid.nlon, t.grid.nlat);
    let full = field(nlon, nlat, 23);
    let mut ws = SpectralWorkspace::new(&t);
    let mut spec = SpectralField::zeros(t.trunc);
    t.analyze_ws(&full, &mut ws, &mut spec);
    let mut par = ParTransform {
        base: t,
        j0: 0,
        j1: 0,
    };
    let mut batch = AnalysisBatch::new(par.base.trunc, 1);
    let mut partial = SpectralField::zeros(par.base.trunc);
    let mut h = FNV_OFFSET;
    for &j0 in offsets {
        for len in 0..=9 {
            let j1 = (j0 + len).min(nlat);
            (par.j0, par.j1) = (j0, j1);
            batch.begin(1);
            par.accumulate(&slab(&full, j0, j1), &mut ws, &mut batch, 0);
            batch.read(0, &mut partial);
            h = fnv_all(h, partial.data.iter().flat_map(|c| [&c.re, &c.im]));
            let mut out = Field2::zeros(nlon, j1 - j0);
            for kind in KINDS {
                par.base
                    .synthesize_rows_into(&spec, j0, j1, kind, &mut ws, &mut out);
                h = fnv_all(h, out.as_slice());
            }
        }
    }
    h
}

/// Per rank count 1..=5, one digest over every rank's results: a
/// `ParTransform::analyze_into`, a batch of three analyses completed by
/// one reduce, and the local synthesis of every kind.
fn distributed(make: fn() -> SphericalTransform) -> Vec<u64> {
    (1..=5)
        .map(|n| {
            let out = Universe::run(n, |comm| {
                let par = ParTransform::new(make(), comm);
                let (nlon, nlat) = (par.base.grid.nlon, par.base.grid.nlat);
                let mut ws = SpectralWorkspace::new(&par.base);
                let mut spec = SpectralField::zeros(par.base.trunc);
                let local = |seed| slab(&field(nlon, nlat, seed), par.j0, par.j1);
                par.analyze_into(comm, &local(31), &mut ws, &mut spec);
                let mut h = spec_digest(&spec);
                let slabs: Vec<Field2> = (0..3).map(|s| local(40 + s)).collect();
                let mut batch = AnalysisBatch::new(par.base.trunc, slabs.len());
                batch.begin(slabs.len());
                for (slot, f) in slabs.iter().enumerate() {
                    par.accumulate(f, &mut ws, &mut batch, slot);
                }
                par.reduce(comm, &mut batch);
                for slot in 0..slabs.len() {
                    batch.read(slot, &mut spec);
                    h = fnv(h, f64::from_bits(spec_digest(&spec)));
                }
                let mut out = Field2::zeros(nlon, par.n_local_rows());
                par.synthesize_into(&spec, &mut ws, &mut out);
                h = fnv_all(h, out.as_slice());
                par.synthesize_dlambda_into(&spec, &mut ws, &mut out);
                h = fnv_all(h, out.as_slice());
                par.synthesize_cosgrad_into(&spec, &mut ws, &mut out);
                fnv_all(h, out.as_slice())
            });
            out.results
                .iter()
                .fold(FNV_OFFSET, |h, &d| fnv(h, f64::from_bits(d)))
        })
        .collect()
}

#[track_caller]
fn check(name: &str, got: &[u64], want: &[u64]) {
    assert_eq!(got, want, "{name}: digests {got:#018x?}");
}

#[test]
fn r15_full_grid() {
    check(
        "R15 analysis, Value, DLambda, CosGrad",
        &full_grid(&r15()),
        &[
            0x2895_edd5_e553_e592,
            0xd307_7c6d_6f45_b531,
            0xe5fe_6ffc_4e63_5d2a,
            0x907d_ca15_254f_a244,
        ],
    );
}

#[test]
fn r3_full_grid() {
    check(
        "R3 analysis, Value, DLambda, CosGrad",
        &full_grid(&r3()),
        &[
            0x5e4a_18b6_9ded_2dc8,
            0x2395_4e41_a768_dc69,
            0x4e90_e12e_ea43_996e,
            0x6421_5920_af61_7e2a,
        ],
    );
}

#[test]
fn r15_row_ranges() {
    check(
        "R15 row ranges",
        &[row_ranges(r15(), &[0, 1, 5, 13, 17, 31, 38, 40])],
        &[0x1ea1_0d74_c681_7ff1],
    );
}

#[test]
fn r3_row_ranges() {
    check(
        "R3 row ranges",
        &[row_ranges(r3(), &[0, 1, 3, 7, 12])],
        &[0x3f29_a692_0ea8_c7c9],
    );
}

#[test]
fn r15_distributed_on_one_to_five_ranks() {
    check(
        "R15 on 1..=5 ranks",
        &distributed(r15),
        &[
            0xf929_fbf5_df98_b81c,
            0x9daf_cb36_9d56_99db,
            0xb2f6_4f00_1330_ee20,
            0x1db1_1010_43ae_93cc,
            0xd4e6_136a_1959_0cb3,
        ],
    );
}

#[test]
fn r3_distributed_on_one_to_five_ranks() {
    check(
        "R3 on 1..=5 ranks",
        &distributed(r3),
        &[
            0x0ba8_e43e_b535_c95b,
            0x102d_f5aa_909e_b1d7,
            0x138e_6263_31d5_f476,
            0x81d3_6dfb_08b9_0ab8,
            0x363f_957a_a6c1_77a5,
        ],
    );
}
