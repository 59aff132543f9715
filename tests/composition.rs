//! Integration across subsystems: meta-compressors wrapping real codecs,
//! containers using compressors as filters, metrics observing the whole
//! stack, and third-party plugins flowing through all of it.

use std::sync::Arc;

use libpressio::prelude::*;

fn field() -> Data {
    libpressio::init();
    libpressio::datagen::scale_letkf(8, 48, 48, 55)
}

fn max_err(a: &Data, b: &Data) -> f64 {
    a.to_f64_vec()
        .unwrap()
        .iter()
        .zip(b.to_f64_vec().unwrap().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn deep_meta_composition_preserves_bound() {
    // transpose -> chunking -> sz_threadsafe, all configured through one
    // option set, one bound at the top.
    let library = libpressio::instance();
    let input = field();
    let range = pressio_core::value_range(&input.to_f64_vec().unwrap());
    let mut c = library.get_compressor("transpose").unwrap();
    c.set_options(
        &Options::new()
            .with("transpose:axes", "2,1,0")
            .with("transpose:compressor", "chunking")
            .with("chunking:compressor", "sz_threadsafe")
            .with("chunking:nthreads", 3u32)
            .with(pressio_core::OPT_REL, 1e-3f64),
    )
    .unwrap();
    let compressed = c.compress(&input).unwrap();
    let mut out = Data::owned(input.dtype(), input.dims().to_vec());
    c.decompress(&compressed, &mut out).unwrap();
    assert!(max_err(&input, &out) <= 1e-3 * range * 1.001 + 1e-6);
    // A sized output of another element type is the caller's mistake at
    // every layer: `chunking` answers like the codecs under it instead of
    // replacing the buffer it was handed.
    let mut wrong = Data::owned(DType::F64, input.dims().to_vec());
    let err = c.decompress(&compressed, &mut wrong).unwrap_err();
    assert_eq!(err.code(), libpressio::ErrorCode::InvalidArgument, "{err}");
    assert_eq!(wrong.dtype(), DType::F64);
}

#[test]
fn metrics_observe_any_composition() {
    let library = libpressio::instance();
    let input = field();
    let mut c = library.get_compressor("chunking").unwrap();
    c.set_options(
        &Options::new()
            .with("chunking:compressor", "zfp")
            .with(pressio_core::OPT_ABS, 1e-2f64),
    )
    .unwrap();
    c.set_metrics(library.new_metrics(&["size", "time", "error_stat"]).unwrap());
    let compressed = c.compress(&input).unwrap();
    let mut out = Data::owned(input.dtype(), input.dims().to_vec());
    c.decompress(&compressed, &mut out).unwrap();
    let r = c.metrics_results();
    assert!(r.get_as::<f64>("size:compression_ratio").unwrap().unwrap() > 1.0);
    assert!(r.get_as::<f64>("time:compress").unwrap().unwrap() > 0.0);
    assert!(r.get_as::<f64>("error_stat:max_error").unwrap().unwrap() <= 1e-2 + 1e-6);
}

#[test]
fn h5lite_container_with_lossy_filters_and_reopen() {
    let library = libpressio::instance();
    let _ = library;
    let input = field();
    let dir = std::env::temp_dir().join("pressio-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fields.h5l");

    let mut file = libpressio::io::H5File::new();
    file.put("raw", &input).unwrap();
    file.put_filtered(
        "compressed/sz",
        &input,
        "sz",
        &Options::new().with(pressio_core::OPT_ABS, 1e-2f64),
    )
    .unwrap();
    file.put_filtered("compressed/lossless", &input, "blosc", &Options::new())
        .unwrap();
    file.save(&path).unwrap();

    let reopened = libpressio::io::H5File::open(&path).unwrap();
    assert_eq!(reopened.names().len(), 3);
    assert_eq!(reopened.get("raw").unwrap(), input);
    assert_eq!(reopened.get("compressed/lossless").unwrap(), input);
    let lossy = reopened.get("compressed/sz").unwrap();
    assert!(max_err(&input, &lossy) <= 1e-2 + 1e-7);
}

#[test]
fn select_io_feeds_compression() {
    let library = libpressio::instance();
    // Generate synthetic data through the io registry, select a region,
    // compress it: three subsystems chained through the generic interfaces.
    let mut io = library.get_io("select").unwrap();
    io.set_options(
        &Options::new()
            .with("select:io", "datagen")
            .with("datagen:name", "nyx")
            .with("datagen:seed", 8u64)
            .with("select:start", "8,8,8")
            .with("select:count", "16,16,16"),
    )
    .unwrap();
    let region = io.read(None).unwrap();
    assert_eq!(region.dims(), &[16, 16, 16]);
    let mut c = library.get_compressor("sz").unwrap();
    c.set_options(&Options::new().with(pressio_core::OPT_REL, 1e-3f64))
        .unwrap();
    let compressed = c.compress(&region).unwrap();
    assert!(compressed.size_in_bytes() < region.size_in_bytes());
}

#[test]
fn third_party_plugin_flows_through_meta_io_and_metrics() {
    // The Table I "third party extension" claim, end to end: a downstream
    // crate registers a compressor; chunking parallelizes it, h5lite uses
    // it as a filter, metrics observe it — no library changes.
    #[derive(Clone)]
    struct XorCodec;
    impl Compressor for XorCodec {
        fn name(&self) -> &str {
            "vendor_xor"
        }
        fn version(&self) -> libpressio::Version {
            libpressio::Version::new(1, 0, 0)
        }
        fn get_options(&self) -> Options {
            Options::new()
        }
        fn set_options(&mut self, _: &Options) -> libpressio::Result<()> {
            Ok(())
        }
        fn compress(&mut self, input: &Data) -> libpressio::Result<Data> {
            let mut bytes = input.as_bytes().to_vec();
            for b in bytes.iter_mut() {
                *b ^= 0x5A;
            }
            // Prepend geometry so decompression is self-describing.
            let mut w = pressio_core::ByteWriter::new();
            w.put_dtype(input.dtype());
            w.put_dims(input.dims());
            w.put_section(&bytes);
            Ok(Data::from_bytes(&w.into_vec()))
        }
        fn decompress(&mut self, c: &Data, o: &mut Data) -> libpressio::Result<()> {
            let mut r = pressio_core::ByteReader::new(c.as_bytes());
            let dtype = r.get_dtype()?;
            let dims = r.get_dims()?;
            let payload = r.get_section()?;
            if o.dtype() != dtype || o.num_elements() != dims.iter().product::<usize>() {
                *o = Data::owned(dtype, dims);
            }
            for (dst, src) in o.as_bytes_mut().iter_mut().zip(payload) {
                *dst = src ^ 0x5A;
            }
            Ok(())
        }
        fn clone_compressor(&self) -> Box<dyn Compressor> {
            Box::new(self.clone())
        }
    }

    let library = libpressio::instance();
    libpressio::registry().register_compressor("vendor_xor", || Box::new(XorCodec));
    let input = field();

    // Through chunking (parallel meta).
    let mut c = library.get_compressor("chunking").unwrap();
    c.set_options(
        &Options::new()
            .with("chunking:compressor", "vendor_xor")
            .with("chunking:nthreads", 2u32),
    )
    .unwrap();
    c.set_metrics(library.new_metrics(&["size"]).unwrap());
    let compressed = c.compress(&input).unwrap();
    let mut out = Data::owned(input.dtype(), input.dims().to_vec());
    c.decompress(&compressed, &mut out).unwrap();
    assert_eq!(out, input);
    assert!(c.metrics_results().contains("size:compressed_size"));

    // As an h5lite filter.
    let mut file = libpressio::io::H5File::new();
    file.put_filtered("x", &input, "vendor_xor", &Options::new())
        .unwrap();
    assert_eq!(file.get("x").unwrap(), input);
}

#[test]
fn userdata_options_pass_through_compositions() {
    // The "arbitrary configuration" claim: opaque handles travel through a
    // meta-compressor to the child untouched.
    struct FakeQueue(#[allow(dead_code)] u32);
    let library = libpressio::instance();
    let mut c = library.get_compressor("transpose").unwrap();
    let mut o = Options::new().with("transpose:compressor", "sz");
    o.set_userdata("sz:user_params", Arc::new(FakeQueue(11)));
    c.set_options(&o).unwrap();
    let got = c.get_options();
    assert!(got
        .get_userdata::<FakeQueue>("sz:user_params")
        .unwrap()
        .is_some());
}

#[test]
fn bplite_stream_with_many_steps_and_operators() {
    libpressio::init();
    let mut w = libpressio::io::BpWriter::new();
    w.set_operator("sz", Options::new().with(pressio_core::OPT_REL, 1e-3f64))
        .unwrap();
    let steps: Vec<Data> = (0..5)
        .map(|t| libpressio::datagen::scale_letkf(4, 24, 24, t))
        .collect();
    for s in &steps {
        w.begin_step();
        w.put("t", s).unwrap();
        w.end_step();
    }
    let bytes = w.into_bytes();
    let r = libpressio::io::BpReader::from_bytes(&bytes).unwrap();
    assert_eq!(r.num_steps(), 5);
    for (t, s) in steps.iter().enumerate() {
        let range = pressio_core::value_range(&s.to_f64_vec().unwrap());
        let back = r.get(t as u32, "t").unwrap();
        assert!(max_err(s, back) <= 1e-3 * range * 1.001 + 1e-6);
    }
}
