//! Additional SZ plugin behavior tests: option surface details, stream
//! self-description, and concurrency of the threadsafe variant.

use pressio_core::{Compressor, DType, Data, Options};
use pressio_sz::{Sz, SzVariant};

fn field(n: usize) -> Data {
    let vals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.03).sin() * 7.0).collect();
    Data::from_vec(vals, vec![n]).unwrap()
}

#[test]
fn stream_decodes_after_reconfiguration() {
    let input = field(4000);
    let mut c = Sz::new(SzVariant::Global);
    c.set_options(&Options::new().with("sz:abs_err_bound", 1e-4f64))
        .unwrap();
    let compressed = c.compress(&input).unwrap();
    // Change everything; the stream still carries its own parameters.
    c.set_options(
        &Options::new()
            .with("sz:error_bound_mode_str", "rel")
            .with("sz:rel_bound_ratio", 0.5f64)
            .with("sz:max_quant_intervals", 64u32),
    )
    .unwrap();
    let mut out = Data::owned(DType::F64, vec![4000]);
    c.decompress(&compressed, &mut out).unwrap();
    let max_err = input
        .as_slice::<f64>()
        .unwrap()
        .iter()
        .zip(out.as_slice::<f64>().unwrap())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err <= 1e-4);
}

#[test]
fn threadsafe_instances_run_concurrently() {
    // Many threads, each with its own sz_threadsafe instance, compressing
    // concurrently: results must be correct and deterministic.
    let input = field(8192);
    let expected = {
        let mut c = Sz::new(SzVariant::ThreadSafe);
        c.set_options(&Options::new().with(pressio_core::OPT_ABS, 1e-3f64))
            .unwrap();
        c.compress(&input).unwrap()
    };
    let results: Vec<Data> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let input = &input;
                scope.spawn(move || {
                    let mut c = Sz::new(SzVariant::ThreadSafe);
                    c.set_options(&Options::new().with(pressio_core::OPT_ABS, 1e-3f64))
                        .unwrap();
                    c.compress(input).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        assert_eq!(r, expected, "concurrent compression must be deterministic");
    }
}

#[test]
fn thread_safety_visible_in_configuration() {
    for (variant, expect) in [
        (SzVariant::Global, "serialized"),
        (SzVariant::ThreadSafe, "multiple"),
        (SzVariant::ChunkParallel, "multiple"),
    ] {
        let c = Sz::new(variant);
        let name = c.name().to_string();
        let cfg = c.get_configuration();
        assert_eq!(
            cfg.get_as::<String>(&format!("{name}:pressio:thread_safe"))
                .unwrap()
                .unwrap(),
            expect
        );
        assert_eq!(
            cfg.get_as::<bool>(&format!("{name}:pressio:error_bounded"))
                .unwrap(),
            Some(true)
        );
    }
}

#[test]
fn empty_options_are_a_noop() {
    let mut c = Sz::new(SzVariant::Global);
    let before = c.get_options();
    c.set_options(&Options::new()).unwrap();
    assert_eq!(c.get_options(), before);
}

#[test]
fn unknown_keys_are_ignored_but_known_bad_values_fail() {
    let mut c = Sz::new(SzVariant::Global);
    // Unknown key: ignored (the composition-friendly rule).
    c.set_options(&Options::new().with("totally:unknown", 1.0f64))
        .unwrap();
    // Known key with a bad type that cannot cast: error.
    assert!(c
        .set_options(&Options::new().with("sz:abs_err_bound", "not a number"))
        .is_err());
}

#[test]
fn dims_recorded_in_stream_reshape_output() {
    let vals: Vec<f64> = (0..600).map(|i| i as f64).collect();
    let input = Data::from_vec(vals, vec![20, 30]).unwrap();
    let mut c = Sz::new(SzVariant::Global);
    c.set_options(&Options::new().with(pressio_core::OPT_ABS, 0.4f64))
        .unwrap();
    let compressed = c.compress(&input).unwrap();
    // Hand over a wrong-shaped (but right-count) output: plugin reshapes.
    let mut out = Data::owned(DType::F64, vec![600]);
    c.decompress(&compressed, &mut out).unwrap();
    assert_eq!(out.dims(), &[20, 30]);
    // Wrong-count output: plugin reallocates.
    let mut out2 = Data::owned(DType::F64, vec![7]);
    c.decompress(&compressed, &mut out2).unwrap();
    assert_eq!(out2.dims(), &[20, 30]);
}
