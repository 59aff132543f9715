//! Property-based tests of the core abstractions: option-cast laws, data
//! buffer invariants, and wire-format roundtrips under arbitrary sequences.

use pressio_core::{
    ByteReader, ByteWriter, CastSafety, DType, Data, OptionKind, OptionValue, Options,
};
use proptest::prelude::*;

fn numeric_kinds() -> Vec<OptionKind> {
    vec![
        OptionKind::I8,
        OptionKind::I16,
        OptionKind::I32,
        OptionKind::I64,
        OptionKind::U8,
        OptionKind::U16,
        OptionKind::U32,
        OptionKind::U64,
        OptionKind::F32,
        OptionKind::F64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn implicit_casts_never_lose_information(v in any::<i32>()) {
        // i32 -> any implicit target -> back to i64 must reproduce v.
        let value = OptionValue::I32(v);
        for kind in numeric_kinds() {
            if !OptionValue::implicit_castable(OptionKind::I32, kind) {
                continue;
            }
            let cast = value.cast(kind, CastSafety::Implicit).unwrap();
            let back = cast.cast(OptionKind::I64, CastSafety::Explicit).unwrap();
            prop_assert_eq!(back, OptionValue::I64(v as i64), "{:?}", kind);
        }
    }

    #[test]
    fn explicit_cast_roundtrips_when_it_succeeds(v in any::<u64>()) {
        let value = OptionValue::U64(v);
        for kind in numeric_kinds() {
            if let Ok(cast) = value.cast(kind, CastSafety::Explicit) {
                if cast.kind().is_integer() {
                    let back = cast.cast(OptionKind::U64, CastSafety::Explicit).unwrap();
                    prop_assert_eq!(back, OptionValue::U64(v), "{:?}", kind);
                }
            }
        }
    }

    #[test]
    fn string_numeric_roundtrip(v in any::<i64>()) {
        let s = OptionValue::I64(v).cast(OptionKind::Str, CastSafety::Explicit).unwrap();
        let back = s.cast(OptionKind::I64, CastSafety::Explicit).unwrap();
        prop_assert_eq!(back, OptionValue::I64(v));
    }

    #[test]
    fn options_merge_is_last_writer_wins(
        keys in proptest::collection::vec("[a-z]{1,8}:[a-z]{1,8}", 1..20),
        vals in proptest::collection::vec(any::<i64>(), 1..20),
    ) {
        let mut a = Options::new();
        let mut b = Options::new();
        for (i, (k, &v)) in keys.iter().zip(&vals).enumerate() {
            if i % 2 == 0 {
                a.set(k.clone(), v);
            }
            b.set(k.clone(), v.wrapping_add(1));
        }
        let mut merged = a.clone();
        merged.merge(&b);
        for (k, &v) in keys.iter().zip(&vals) {
            // b sets every key, so the merged value is always b's.
            prop_assert_eq!(
                merged.get_as::<i64>(k).unwrap(),
                Some(v.wrapping_add(1))
            );
        }
    }

    #[test]
    fn data_clone_cow_isolation(
        vals in proptest::collection::vec(any::<f32>(), 1..512),
        idx in any::<u16>(),
        new_val in any::<f32>(),
    ) {
        let n = vals.len();
        let mut a = Data::from_vec(vals.clone(), vec![n]).unwrap();
        let mut b = a.clone();
        let at = idx as usize % n;
        b.as_mut_slice::<f32>().unwrap()[at] = new_val;
        // Original untouched by copy-on-write.
        prop_assert_eq!(a.as_slice::<f32>().unwrap()[at].to_bits(), vals[at].to_bits());
        prop_assert_eq!(b.as_slice::<f32>().unwrap()[at].to_bits(), new_val.to_bits());
        // And the other direction too.
        let c = a.clone();
        a.as_mut_slice::<f32>().unwrap()[at] = new_val;
        prop_assert_eq!(c.as_slice::<f32>().unwrap()[at].to_bits(), vals[at].to_bits());
    }

    #[test]
    fn wire_mixed_sequence_roundtrip(
        ops in proptest::collection::vec((0u8..5, any::<u64>()), 0..64),
        blob in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut w = ByteWriter::new();
        for (op, v) in &ops {
            match op {
                0 => w.put_u8(*v as u8),
                1 => w.put_u32(*v as u32),
                2 => w.put_u64(*v),
                3 => w.put_f64(f64::from_bits(*v)),
                _ => w.put_str(&format!("s{v}")),
            }
        }
        w.put_section(&blob);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        for (op, v) in &ops {
            match op {
                0 => prop_assert_eq!(r.get_u8().unwrap(), *v as u8),
                1 => prop_assert_eq!(r.get_u32().unwrap(), *v as u32),
                2 => prop_assert_eq!(r.get_u64().unwrap(), *v),
                3 => prop_assert_eq!(r.get_f64().unwrap().to_bits(), f64::from_bits(*v).to_bits()),
                _ => prop_assert_eq!(r.get_str().unwrap(), format!("s{v}")),
            }
        }
        prop_assert_eq!(r.get_section().unwrap(), &blob[..]);
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn data_cast_is_value_preserving_for_representable(
        vals in proptest::collection::vec(-1000i32..1000, 1..256),
    ) {
        let n = vals.len();
        let d = Data::from_vec(vals.clone(), vec![n]).unwrap();
        // i32 -> f64 -> i32 must be exact for small integers.
        let f = d.cast(DType::F64).unwrap();
        let back = f.cast(DType::I32).unwrap();
        prop_assert_eq!(back.as_slice::<i32>().unwrap(), &vals[..]);
    }

    #[test]
    fn aligned_buffers_accept_all_views(len in 0usize..128) {
        // Alignment invariants: any dtype view over any owned buffer works,
        // INCLUDING the empty buffer (regression: the empty view must come
        // from the 64-aligned dangling pointer, not the `&[]` literal).
        for dtype in pressio_core::ALL_DTYPES {
            let mut d = Data::owned(dtype, vec![len]);
            prop_assert_eq!(d.size_in_bytes(), len * dtype.size());
            prop_assert_eq!(d.to_f64_vec().map(|v| v.len()).unwrap_or(len), len);
            prop_assert_eq!(d.as_bytes().as_ptr() as usize % pressio_core::BUFFER_ALIGN, 0);
            prop_assert_eq!(d.as_bytes_mut().as_ptr() as usize % pressio_core::BUFFER_ALIGN, 0);
        }
        let empty = Data::empty(DType::F64);
        prop_assert_eq!(empty.as_slice::<f64>().unwrap().len(), 0);
    }
}
