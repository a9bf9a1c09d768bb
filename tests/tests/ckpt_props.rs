//! Property tests of the checkpoint codec: serialize → deserialize must
//! be the *bit-level* identity for the state actually checkpointed —
//! grid fields, the ocean's prognostic state, and the coupler's
//! sequence-numbered exchange buffers — for arbitrary f64 bit patterns
//! (including NaNs and infinities, which a restart must carry through
//! unchanged rather than launder).

use foam_ckpt::{CkptError, Codec, Snapshot, SnapshotWriter};
use foam_coupler::ExchangeBuffers;
use foam_grid::Field2;
use foam_ocean::barotropic::BarotropicState;
use foam_ocean::{OceanForcing, OceanState};
use proptest::prelude::*;

/// Drain `n` raw bit patterns into a field of the given shape.
fn take_field(bits: &mut impl Iterator<Item = u64>, nx: usize, ny: usize) -> Field2 {
    Field2::from_vec(
        nx,
        ny,
        (0..nx * ny)
            .map(|_| f64::from_bits(bits.next().unwrap()))
            .collect(),
    )
}

fn assert_field_bits(a: &Field2, b: &Field2) {
    assert_eq!((a.nx(), a.ny()), (b.nx(), b.ny()));
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// Round-trip a value through a full snapshot file image (header,
/// section table, CRC), not just the bare codec.
fn snapshot_roundtrip<T: Codec>(value: &T) -> T {
    let mut w = SnapshotWriter::new();
    w.put("x", value);
    Snapshot::from_bytes(&w.to_bytes())
        .unwrap()
        .get("x")
        .unwrap()
}

/// Raw f64 bit patterns: `any::<i64>()` covers the whole u64 space,
/// including NaN payloads, ±∞, and subnormals.
fn bit_vec(n: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<i64>(), n).prop_map(|v| v.into_iter().map(|x| x as u64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn field2_roundtrips_bit_exactly(
        dims in (1usize..=6, 1usize..=6),
        raw in bit_vec(36),
    ) {
        let (nx, ny) = dims;
        let mut bits = raw.into_iter();
        let f = take_field(&mut bits, nx, ny);
        assert_field_bits(&f, &snapshot_roundtrip(&f));
        let direct = Field2::from_bytes(&f.to_bytes()).unwrap();
        assert_field_bits(&f, &direct);
    }

    #[test]
    fn ocean_state_roundtrips_bit_exactly(
        dims in (1usize..=4, 1usize..=4, 1usize..=3),
        raw in bit_vec(16 * 15 + 2),
    ) {
        let (nx, ny, nz) = dims;
        let mut bits = raw.into_iter();
        let mut level = |n: usize| (0..n).map(|_| take_field(&mut bits, nx, ny)).collect::<Vec<_>>();
        let state = OceanState {
            u: level(nz),
            v: level(nz),
            t: level(nz),
            s: level(nz),
            baro: BarotropicState {
                eta: take_field(&mut bits, nx, ny),
                u: take_field(&mut bits, nx, ny),
                v: take_field(&mut bits, nx, ny),
            },
            sim_t: f64::from_bits(bits.next().unwrap()),
            step_count: bits.next().unwrap(),
        };
        let back = snapshot_roundtrip(&state);
        prop_assert_eq!(back.step_count, state.step_count);
        prop_assert_eq!(back.sim_t.to_bits(), state.sim_t.to_bits());
        for (a, b) in [(&state.u, &back.u), (&state.v, &back.v), (&state.t, &back.t), (&state.s, &back.s)] {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_field_bits(x, y);
            }
        }
        assert_field_bits(&state.baro.eta, &back.baro.eta);
        assert_field_bits(&state.baro.u, &back.baro.u);
        assert_field_bits(&state.baro.v, &back.baro.v);
    }

    #[test]
    fn exchange_buffers_roundtrip_bit_exactly(
        dims in (1usize..=4, 1usize..=4),
        seq in 0usize..1_000_000,
        raw in bit_vec(16),
    ) {
        let (nx, ny) = dims;
        let mut bits = raw.into_iter();
        let buf = ExchangeBuffers {
            sst_seq: seq,
            sst: take_field(&mut bits, nx, ny),
        };
        let back = snapshot_roundtrip(&buf);
        prop_assert_eq!(back.sst_seq, buf.sst_seq);
        assert_field_bits(&buf.sst, &back.sst);
    }
}

/// An `exchange` section that still carries a list of retained forcings
/// after the SST (empty here, as eight bytes of length) is refused with
/// a typed error — never misread as the two-field layout, never a panic.
#[test]
fn exchange_section_with_retained_forcings_is_refused() {
    let retained: Vec<(usize, OceanForcing)> = Vec::new();
    let mut w = SnapshotWriter::new();
    w.put("exchange", &(7usize, Field2::zeros(2, 2), retained));
    let snap = Snapshot::from_bytes(&w.to_bytes()).unwrap();
    let err = snap.get::<ExchangeBuffers>("exchange").unwrap_err();
    assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
}
