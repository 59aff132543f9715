//! The `mgard` compressor plugin.

use pressio_core::{
    registry, require_dtype, ByteReader, ByteWriter, Compressor, DType, Data, Error, ErrorBound,
    OptionKind, Options, Result, ThreadSafety, Version,
};

use crate::kernel::{compress_body, decompress_body};

/// Stream envelope magic ("MGRD").
const MAGIC: u32 = 0x4D47_5244;

/// The MGARD-style multilevel error-bounded lossy compressor plugin.
#[derive(Debug, Clone)]
pub struct Mgard {
    bound: ErrorBound,
    /// `s`-norm selector accepted for interface parity (only the L∞ norm,
    /// `s = inf`, is implemented by this reproduction).
    s: f64,
}

impl Default for Mgard {
    fn default() -> Self {
        Mgard {
            bound: ErrorBound::Abs(1e-4),
            s: f64::INFINITY,
        }
    }
}

impl Compressor for Mgard {
    fn name(&self) -> &str {
        "mgard"
    }

    fn version(&self) -> Version {
        // Mirrors the MGARD release evaluated in the paper.
        Version::new(0, 1, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        ThreadSafety::Multiple
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new().with("mgard:s", self.s);
        match self.bound {
            ErrorBound::Abs(b) => {
                o.set("mgard:tolerance", b);
                o.declare("mgard:rel_tolerance", OptionKind::F64);
            }
            ErrorBound::ValueRangeRel(r) => {
                o.set("mgard:rel_tolerance", r);
                o.declare("mgard:tolerance", OptionKind::F64);
            }
        }
        o.declare(pressio_core::OPT_ABS, OptionKind::F64);
        o.declare(pressio_core::OPT_REL, OptionKind::F64);
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(b) = ErrorBound::from_common_options(options)? {
            b.validate().map_err(|e| e.in_plugin("mgard"))?;
            self.bound = b;
        }
        if let Some(t) = options.get_as::<f64>("mgard:tolerance")? {
            let b = ErrorBound::Abs(t);
            b.validate().map_err(|e| e.in_plugin("mgard"))?;
            self.bound = b;
        }
        if let Some(r) = options.get_as::<f64>("mgard:rel_tolerance")? {
            let b = ErrorBound::ValueRangeRel(r);
            b.validate().map_err(|e| e.in_plugin("mgard"))?;
            self.bound = b;
        }
        if let Some(s) = options.get_as::<f64>("mgard:s")? {
            if s != f64::INFINITY {
                return Err(Error::unsupported(
                    "only the L-infinity norm (s = inf) is implemented",
                )
                .in_plugin("mgard"));
            }
            self.s = s;
        }
        Ok(())
    }

    fn check_options(&self, options: &Options) -> Result<()> {
        let mut probe = self.clone();
        probe.set_options(options)
    }

    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.set("mgard:pressio:lossless", false);
        o.set("mgard:pressio:lossy", true);
        o.set("mgard:pressio:error_bounded", true);
        o
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "mgard",
                "multilevel (multigrid) error-bounded lossy compressor; requires >= 3 \
                 points per dimension",
            )
            .with("mgard:tolerance", "absolute error tolerance (L-infinity)")
            .with("mgard:rel_tolerance", "value-range relative error tolerance")
            .with("mgard:s", "target smoothness norm; only s = inf is implemented")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        require_dtype("mgard", input, &[DType::F32, DType::F64])?;
        let values = input.to_f64_vec()?;
        let abs = match self.bound {
            ErrorBound::Abs(b) => b,
            ErrorBound::ValueRangeRel(r) => {
                let range = pressio_core::value_range(&values);
                if range == 0.0 {
                    r.max(f64::MIN_POSITIVE)
                } else {
                    r * range
                }
            }
        };
        let body = compress_body(&values, input.dims(), abs).map_err(|e| e.in_plugin("mgard"))?;
        let mut w = ByteWriter::with_capacity(body.len() + 64);
        w.put_u32(MAGIC);
        w.put_dtype(input.dtype());
        w.put_dims(input.dims());
        w.put_section(&body);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != MAGIC {
            return Err(Error::corrupt("bad mgard envelope magic").in_plugin("mgard"));
        }
        let (dtype, dims) = r.get_geometry().map_err(|e| e.in_plugin("mgard"))?;
        let body = r.get_section()?;
        if r.remaining() != 0 {
            return Err(Error::corrupt(format!(
                "{} bytes follow the mgard body section",
                r.remaining()
            ))
            .in_plugin("mgard"));
        }
        let values = decompress_body(body, &dims).map_err(|e| e.in_plugin("mgard"))?;
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin("mgard"))?;
        output.fill_from(&values)
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

/// Register the `mgard` plugin.
pub fn register_builtins() {
    registry().register_compressor("mgard", || Box::new(Mgard::default()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(dims: &[usize]) -> Data {
        let n: usize = dims.iter().product();
        let nx = *dims.last().expect("non-empty dims");
        let v: Vec<f64> = (0..n)
            .map(|i| {
                let x = (i % nx) as f64;
                let y = (i / nx) as f64;
                (x * 0.05).sin() * (y * 0.03).cos() * 10.0
            })
            .collect();
        Data::from_vec(v, dims.to_vec()).unwrap()
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
    fn bound_respected_1d_2d_3d() {
        for dims in [vec![1000usize], vec![48, 56], vec![12, 20, 24]] {
            let input = field(&dims);
            for tol in [1.0, 1e-2, 1e-4] {
                let mut c = Mgard::default();
                c.set_options(&Options::new().with("mgard:tolerance", tol))
                    .unwrap();
                let compressed = c.compress(&input).unwrap();
                let mut out = Data::owned(DType::F64, dims.clone());
                c.decompress(&compressed, &mut out).unwrap();
                let err = max_err(&input, &out);
                assert!(err <= tol, "dims {dims:?} tol {tol}: err {err}");
            }
        }
    }

    #[test]
    fn compresses_smooth_data() {
        let input = field(&[64, 64]);
        let mut c = Mgard::default();
        c.set_options(&Options::new().with("mgard:tolerance", 1e-2f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let ratio = input.size_in_bytes() as f64 / compressed.size_in_bytes() as f64;
        assert!(ratio > 4.0, "ratio {ratio:.2}");
    }

    #[test]
    fn rejects_dims_below_three() {
        // The exact behavior the paper's Section V highlights.
        let mut c = Mgard::default();
        for dims in [vec![2usize], vec![100, 2], vec![2, 100], vec![10, 10, 1]] {
            let n: usize = dims.iter().product();
            let input = Data::from_vec(vec![1.0f64; n], dims.clone()).unwrap();
            let err = c.compress(&input).unwrap_err();
            assert_eq!(
                err.code(),
                pressio_core::ErrorCode::InvalidArgument,
                "dims {dims:?}"
            );
            assert!(err.to_string().contains("at least 3"));
        }
    }

    #[test]
    fn odd_and_awkward_extents() {
        for dims in [vec![3usize], vec![5, 7], vec![3, 3, 3], vec![9, 5, 3], vec![17, 31]] {
            let input = field(&dims);
            let mut c = Mgard::default();
            c.set_options(&Options::new().with("mgard:tolerance", 1e-3f64))
                .unwrap();
            let compressed = c.compress(&input).unwrap();
            let mut out = Data::owned(DType::F64, dims.clone());
            c.decompress(&compressed, &mut out).unwrap();
            assert!(max_err(&input, &out) <= 1e-3, "dims {dims:?}");
        }
    }

    #[test]
    fn rel_tolerance_scales() {
        let input = field(&[32, 32]);
        let range = pressio_core::value_range(input.as_slice::<f64>().unwrap());
        let mut c = Mgard::default();
        c.set_options(&Options::new().with("mgard:rel_tolerance", 1e-3f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![32, 32]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-3 * range * (1.0 + 1e-12));
    }

    #[test]
    fn generic_abs_option() {
        let input = field(&[16, 16]);
        let mut c = Mgard::default();
        c.set_options(&Options::new().with(pressio_core::OPT_ABS, 0.5f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![16, 16]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 0.5);
    }

    #[test]
    fn non_inf_norm_unsupported() {
        let mut c = Mgard::default();
        for s in [0.0f64, f64::NEG_INFINITY, f64::NAN] {
            let err = c
                .set_options(&Options::new().with("mgard:s", s))
                .unwrap_err();
            assert_eq!(err.code(), pressio_core::ErrorCode::Unsupported, "s = {s}");
        }
        c.set_options(&Options::new().with("mgard:s", f64::INFINITY))
            .unwrap();
    }

    #[test]
    fn nan_rejected() {
        let input = Data::from_vec(vec![1.0f64, f64::NAN, 2.0], vec![3]).unwrap();
        let mut c = Mgard::default();
        assert_eq!(
            c.compress(&input).unwrap_err().code(),
            pressio_core::ErrorCode::Unsupported
        );
    }

    #[test]
    fn spiky_data_still_bounded() {
        // Exercise the exception (verbatim) path with extreme magnitudes.
        let mut v: Vec<f64> = (0..400).map(|i| (i as f64 * 0.1).sin()).collect();
        v[100] = 1e18;
        v[101] = -1e18;
        let input = Data::from_vec(v, vec![20, 20]).unwrap();
        let mut c = Mgard::default();
        c.set_options(&Options::new().with("mgard:tolerance", 1e-6f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![20, 20]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-6);
    }

    #[test]
    fn f32_input_roundtrip() {
        let vals: Vec<f32> = (0..900).map(|i| (i as f32 * 0.02).cos()).collect();
        let input = Data::from_vec(vals, vec![30, 30]).unwrap();
        let mut c = Mgard::default();
        c.set_options(&Options::new().with("mgard:tolerance", 1e-3f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F32, vec![30, 30]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-3 + 1e-7);
    }

    #[test]
    fn corrupt_stream_errors() {
        let input = field(&[8, 8]);
        let mut c = Mgard::default();
        let compressed = c.compress(&input).unwrap();
        let bytes = compressed.as_bytes();
        let mut out = Data::owned(DType::F64, vec![8, 8]);
        for cut in (0..bytes.len()).step_by(13) {
            let _ = c.decompress(&Data::from_bytes(&bytes[..cut]), &mut out);
        }
        let mut bad = bytes.to_vec();
        bad[6] ^= 0x3C;
        let _ = c.decompress(&Data::from_bytes(&bad), &mut out);
    }

    /// Nothing the encoder does not write may ride along: every byte of a
    /// stream is either decoded or an error.
    #[test]
    fn surplus_input_is_corrupt() {
        use pressio_codecs::deflate;

        // Spikes past the code range, so the exception section is not empty.
        let mut v: Vec<f64> = (0..400).map(|i| (i as f64 * 0.1).sin()).collect();
        v[100] = 1e18;
        v[399] = -1e18;
        let input = Data::from_vec(v, vec![20, 20]).unwrap();
        let mut c = Mgard::default();
        let valid = c.compress(&input).unwrap();

        // The stream taken apart: envelope up to the body section, then the
        // body's header and its two inflated sections.
        let mut r = ByteReader::new(valid.as_bytes());
        r.get_u32().unwrap();
        r.get_geometry().unwrap();
        let envelope = &valid.as_bytes()[..r.position()];
        let mut body = ByteReader::new(r.get_section().unwrap());
        let header = body.get_bytes(8 + 4 + 8).unwrap();
        let codes = deflate::decompress(body.get_section().unwrap()).unwrap();
        let exceptions = deflate::decompress(body.get_section().unwrap()).unwrap();
        assert_eq!(exceptions.len(), 16);

        // ...and put back together with `extra` appended at each joint.
        let rebuilt = |codes_extra: &[u8], exc_extra: &[u8], body_extra: &[u8], extra: &[u8]| {
            let mut b = ByteWriter::new();
            b.put_bytes(header);
            b.put_section(&deflate::compress(&[&codes[..], codes_extra].concat()).unwrap());
            b.put_section(&deflate::compress(&[&exceptions[..], exc_extra].concat()).unwrap());
            b.put_bytes(body_extra);
            let mut w = ByteWriter::new();
            w.put_bytes(envelope);
            w.put_section(b.as_slice());
            w.put_bytes(extra);
            Data::from_bytes(&w.into_vec())
        };
        let mut decode = |stream: &Data| {
            let mut out = Data::empty(DType::F64);
            c.decompress(stream, &mut out).map(|()| out)
        };
        assert_eq!(rebuilt(&[], &[], &[], &[]).as_bytes(), valid.as_bytes());
        decode(&valid).unwrap();

        let surplus: [(&str, Data); 5] = [
            ("a byte after the last code", rebuilt(&[0], &[], &[], &[])),
            ("an exception no code flags", rebuilt(&[], &[0; 8], &[], &[])),
            ("a fraction of an exception", rebuilt(&[], &[0; 3], &[], &[])),
            ("a byte after the exception section", rebuilt(&[], &[], &[0], &[])),
            ("a byte after the body section", rebuilt(&[], &[], &[], &[0])),
        ];
        for (what, stream) in &surplus {
            let err = decode(stream).expect_err(what);
            assert_eq!(err.code(), pressio_core::ErrorCode::CorruptStream, "{what}");
        }
    }

    #[test]
    fn registered() {
        register_builtins();
        assert!(registry().has_compressor("mgard"));
    }
}
