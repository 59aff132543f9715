//! The `zfp` compressor plugin.
//!
//! Wraps the kernel behind the generic interface. Notably, the kernel is
//! natively **Fortran-ordered** (like real ZFP) while the generic interface
//! is uniformly C-ordered; this plugin reverses the dimension list on the
//! way in, so users never deal with the mismatch — the transparency argument
//! of the paper's Section IV-B.
//!
//! Two registrations share this type and one stream format: serial `zfp`
//! (`nthreads` defaults to 1) and `zfp_omp` (defaults to 4), which encodes
//! contiguous runs of 4^d blocks in parallel on the shared execution engine
//! and stitches the per-worker bitstreams through a chunk directory in the
//! envelope. Streams are machine-independent (the split depends only on
//! `nthreads`), and either registration decodes the other's output.

use pressio_core::{
    registry, require_dtype, ByteReader, ByteWriter, Compressor, DType, Data, Error, Options,
    Result, ThreadSafety, Version,
};

use crate::kernel::{
    block_count, compress_f64_chunks, decompress_f64, decompress_f64_chunks, ZfpMode,
};

/// Stream envelope magic ("ZFPR").
const MAGIC: u32 = 0x5A46_5052;

/// The ZFP-style transform-based compressor plugin.
#[derive(Debug, Clone)]
pub struct Zfp {
    mode: ZfpMode,
    /// Value-range relative bound adapter: real ZFP has no relative mode,
    /// so (like LibPressio's bound-conversion layer) the plugin resolves
    /// `pressio:rel` to an absolute tolerance from the input's range at
    /// compress time.
    rel: Option<f64>,
    /// Number of independent block-range chunks to encode in parallel.
    nthreads: u32,
    /// Registered as `zfp_omp` (affects the option prefix, not the format).
    omp: bool,
}

impl Default for Zfp {
    fn default() -> Self {
        Zfp {
            mode: ZfpMode::FixedAccuracy(1e-3),
            rel: None,
            nthreads: 1,
            omp: false,
        }
    }
}

impl Zfp {
    /// Create a plugin with an explicit mode.
    pub fn with_mode(mode: ZfpMode) -> Zfp {
        Zfp {
            mode,
            ..Zfp::default()
        }
    }

    /// The chunk-parallel registration (`zfp_omp`).
    pub fn omp() -> Zfp {
        Zfp {
            nthreads: 4,
            omp: true,
            ..Zfp::default()
        }
    }

    /// The currently configured mode.
    pub fn mode(&self) -> ZfpMode {
        self.mode
    }

    fn prefix(&self) -> &'static str {
        if self.omp {
            "zfp_omp"
        } else {
            "zfp"
        }
    }
}

impl Compressor for Zfp {
    fn name(&self) -> &str {
        self.prefix()
    }

    fn version(&self) -> Version {
        // Mirrors the ZFP release evaluated in the paper.
        Version::new(0, 5, 5)
    }

    fn thread_safety(&self) -> ThreadSafety {
        // Like real ZFP: each instance owns independent state.
        ThreadSafety::Multiple
    }

    fn get_options(&self) -> Options {
        let p = self.prefix();
        let mut o = Options::new();
        match self.mode {
            ZfpMode::FixedRate(r) => {
                o.set(format!("{p}:rate"), r);
                o.declare(format!("{p}:precision"), pressio_core::OptionKind::U32);
                o.declare(format!("{p}:accuracy"), pressio_core::OptionKind::F64);
            }
            ZfpMode::FixedPrecision(prec) => {
                o.set(format!("{p}:precision"), prec);
                o.declare(format!("{p}:rate"), pressio_core::OptionKind::F64);
                o.declare(format!("{p}:accuracy"), pressio_core::OptionKind::F64);
            }
            ZfpMode::FixedAccuracy(t) => {
                o.set(format!("{p}:accuracy"), t);
                o.declare(format!("{p}:rate"), pressio_core::OptionKind::F64);
                o.declare(format!("{p}:precision"), pressio_core::OptionKind::U32);
            }
        }
        o.set(format!("{p}:nthreads"), self.nthreads);
        match self.rel {
            Some(r) => o.set(pressio_core::OPT_REL, r),
            None => o.declare(pressio_core::OPT_REL, pressio_core::OptionKind::F64),
        }
        o.declare(pressio_core::OPT_ABS, pressio_core::OptionKind::F64);
        o.declare(pressio_core::OPT_RATE, pressio_core::OptionKind::F64);
        o.declare(pressio_core::OPT_PREC, pressio_core::OptionKind::U32);
        o.declare(pressio_core::OPT_NTHREADS, pressio_core::OptionKind::U32);
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        let p = self.prefix();
        // Native keys first, then the generic pressio:* aliases.
        let mut mode = self.mode;
        if let Some(r) = options.get_as::<f64>(&format!("{p}:rate"))? {
            mode = ZfpMode::FixedRate(r);
            self.rel = None;
        }
        if let Some(prec) = options.get_as::<u32>(&format!("{p}:precision"))? {
            mode = ZfpMode::FixedPrecision(prec);
            self.rel = None;
        }
        if let Some(t) = options.get_as::<f64>(&format!("{p}:accuracy"))? {
            mode = ZfpMode::FixedAccuracy(t);
            self.rel = None;
        }
        if let Some(r) = options.get_as::<f64>(pressio_core::OPT_RATE)? {
            mode = ZfpMode::FixedRate(r);
            self.rel = None;
        }
        if let Some(prec) = options.get_as::<u32>(pressio_core::OPT_PREC)? {
            mode = ZfpMode::FixedPrecision(prec);
            self.rel = None;
        }
        if let Some(t) = options.get_as::<f64>(pressio_core::OPT_ABS)? {
            mode = ZfpMode::FixedAccuracy(t);
            self.rel = None;
        }
        if let Some(r) = options.get_as::<f64>(pressio_core::OPT_REL)? {
            if !(r.is_finite() && r > 0.0) {
                return Err(
                    Error::invalid_argument(format!("relative bound must be positive, got {r}"))
                        .in_plugin(p),
                );
            }
            self.rel = Some(r);
            // Mode is resolved per-input at compress time.
        }
        if let Some(n) = options
            .get_as::<u32>(&format!("{p}:nthreads"))?
            .or(options.get_as::<u32>(pressio_core::OPT_NTHREADS)?)
        {
            if n == 0 {
                return Err(Error::invalid_argument("nthreads must be >= 1").in_plugin(p));
            }
            self.nthreads = n;
        }
        mode.validate().map_err(|e| e.in_plugin(p))?;
        self.mode = mode;
        Ok(())
    }

    fn check_options(&self, options: &Options) -> Result<()> {
        let mut probe = self.clone();
        probe.set_options(options)
    }

    fn get_configuration(&self) -> Options {
        let p = self.prefix();
        let mut o = pressio_core::base_configuration(self);
        o.set(format!("{p}:pressio:lossless"), false);
        o.set(format!("{p}:pressio:lossy"), true);
        o.set(format!("{p}:pressio:error_bounded"), true);
        // Read-only: which mode the current parameters select.
        o.set(
            format!("{p}:mode"),
            match self.mode {
                ZfpMode::FixedRate(_) => "rate",
                ZfpMode::FixedPrecision(_) => "precision",
                ZfpMode::FixedAccuracy(_) => "accuracy",
            },
        );
        o
    }

    fn get_documentation(&self) -> Options {
        let p = self.prefix();
        Options::new()
            .with(
                p.to_string(),
                "transform-based compressor: 4^d blocks, block floating point, lifted \
                 orthogonal transform, embedded bit-plane coding",
            )
            .with(
                format!("{p}:rate"),
                "fixed rate in bits per value (enables random access)",
            )
            .with(
                format!("{p}:precision"),
                "fixed precision in bit planes per block",
            )
            .with(
                format!("{p}:accuracy"),
                "fixed accuracy: absolute error tolerance",
            )
            .with(
                format!("{p}:mode"),
                "active mode: rate | precision | accuracy (read-only)",
            )
            .with(
                format!("{p}:nthreads"),
                "block-range chunks encoded in parallel on the shared execution \
                 engine (1 = serial; the stream layout depends only on this value, \
                 never on the host's core count)",
            )
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let p = self.prefix();
        require_dtype(p, input, &[DType::F32, DType::F64])?;
        // Uniform C ordering in; native Fortran ordering inside.
        let fdims: Vec<usize> = input.dims().iter().rev().copied().collect();
        let values: Vec<f64> = input.to_f64_vec()?;
        let mode = match self.rel {
            Some(r) => {
                let range = pressio_core::value_range(&values);
                ZfpMode::FixedAccuracy((r * range).max(f64::MIN_POSITIVE))
            }
            None => self.mode,
        };
        // Adaptive piece count: the engine's plan caps the requested
        // nthreads by what the input can amortize (small fields encode
        // serially — `exec:serial_fallback`), and depends only on the
        // request and the input geometry, never on the host.
        let pieces =
            pressio_core::plan_chunks(values.len(), 8, self.nthreads.max(1) as usize).len();
        let chunks =
            compress_f64_chunks(&values, &fdims, mode, pieces.max(1)).map_err(|e| e.in_plugin(p))?;
        let payload_len: usize = chunks.iter().map(|c| c.bytes.len()).sum();
        let mut w = ByteWriter::with_capacity(payload_len + 64 + 12 * chunks.len());
        w.put_u32(MAGIC);
        w.put_dtype(input.dtype());
        w.put_dims(input.dims());
        w.put_u8(mode.tag());
        w.put_f64(mode.param());
        // Chunk directory: count, then (bit length, bitstream) per chunk. The
        // bit lengths are the bitbudget offsets that let decode validate every
        // chunk boundary before touching the payload.
        w.put_u32(chunks.len() as u32);
        for c in &chunks {
            w.put_u64(c.nbits);
            w.put_section(&c.bytes);
        }
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let p = self.prefix();
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != MAGIC {
            return Err(Error::corrupt("bad zfp envelope magic").in_plugin(p));
        }
        let (dtype, dims) = r.get_geometry().map_err(|e| e.in_plugin(p))?;
        let mode = ZfpMode::from_tag(r.get_u8()?, r.get_f64()?)?;
        mode.validate()
            .map_err(|_| Error::corrupt("zfp stream carries invalid mode parameters"))?;
        let fdims: Vec<usize> = dims.iter().rev().copied().collect();
        let nblocks = block_count(&fdims).map_err(|e| e.in_plugin(p))?;
        // The shared container's count, bounded by the bytes present; the
        // entries are this format's own (a bit length rides with each
        // section), so the loop is too.
        let n_chunks =
            pressio_core::chunked::get_chunk_count(&mut r, nblocks).map_err(|e| e.in_plugin(p))?;
        let mut sections: Vec<&[u8]> = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            let nbits = r.get_u64()?;
            let bytes = r.get_section()?;
            if bytes.len() as u64 != nbits.div_ceil(8) {
                return Err(Error::corrupt(format!(
                    "zfp chunk directory declares {nbits} bits but carries {} bytes",
                    bytes.len()
                ))
                .in_plugin(p));
            }
            sections.push(bytes);
        }
        let values = if n_chunks == 1 {
            decompress_f64(sections[0], &fdims, mode)
        } else {
            decompress_f64_chunks(&sections, &fdims, mode)
        }
        .map_err(|e| e.in_plugin(p))?;
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin(p))?;
        output.fill_from(&values)
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

/// Register the `zfp` and `zfp_omp` plugins.
pub fn register_builtins() {
    registry().register_compressor("zfp", || Box::new(Zfp::default()));
    registry().register_compressor("zfp_omp", || Box::new(Zfp::omp()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(nz: usize, ny: usize, nx: usize) -> Data {
        let mut v = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    v.push(((x as f64) * 0.06).sin() * ((y as f64) * 0.05).cos() + z as f64 * 0.02);
                }
            }
        }
        Data::from_vec(v, vec![nz, ny, nx]).unwrap()
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
    fn accuracy_mode_roundtrip() {
        let input = field(8, 32, 32);
        let mut c = Zfp::default();
        c.set_options(&Options::new().with("zfp:accuracy", 1e-4f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        assert!(compressed.size_in_bytes() < input.size_in_bytes() / 2);
        let mut out = Data::owned(DType::F64, vec![8, 32, 32]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-4);
    }

    #[test]
    fn generic_abs_maps_to_accuracy() {
        let input = field(4, 16, 16);
        let mut c = Zfp::default();
        c.set_options(&Options::new().with(pressio_core::OPT_ABS, 1e-3f64))
            .unwrap();
        assert_eq!(c.mode(), ZfpMode::FixedAccuracy(1e-3));
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![4, 16, 16]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-3);
    }

    #[test]
    fn rate_mode_gives_predictable_size() {
        let input = field(1, 64, 64);
        let mut c = Zfp::default();
        c.set_options(&Options::new().with("zfp:rate", 8.0f64)).unwrap();
        let compressed = c.compress(&input).unwrap();
        // 2-d blocks of 16 values at 8 bits/value = 128 bits each; an input
        // of 64x64 (with the length-1 dim treated as a third dimension of
        // extent 1, padded to 4) has a fixed block count.
        assert!(compressed.size_in_bytes() > 0);
        let mut again = Zfp::default();
        again
            .set_options(&Options::new().with("zfp:rate", 8.0f64))
            .unwrap();
        let compressed2 = again.compress(&input).unwrap();
        assert_eq!(compressed.size_in_bytes(), compressed2.size_in_bytes());
    }

    #[test]
    fn f32_roundtrip_with_ulp_slop() {
        let vals: Vec<f32> = (0..64 * 64).map(|i| (i as f32 * 0.01).sin()).collect();
        let input = Data::from_vec(vals, vec![64, 64]).unwrap();
        let mut c = Zfp::default();
        let tol = 1e-4f64;
        c.set_options(&Options::new().with("zfp:accuracy", tol)).unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F32, vec![64, 64]);
        c.decompress(&compressed, &mut out).unwrap();
        // f32 storage adds at most half an ulp on top of the tolerance.
        assert!(max_err(&input, &out) <= tol + 1e-7);
    }

    #[test]
    fn mode_switching_via_options() {
        let mut c = Zfp::default();
        c.set_options(&Options::new().with("zfp:precision", 20u32))
            .unwrap();
        assert_eq!(c.mode(), ZfpMode::FixedPrecision(20));
        c.set_options(&Options::new().with("zfp:rate", 12.0f64)).unwrap();
        assert_eq!(c.mode(), ZfpMode::FixedRate(12.0));
        let o = c.get_options();
        assert_eq!(
            c.get_configuration().get_as::<String>("zfp:mode").unwrap().unwrap(),
            "rate"
        );
        assert_eq!(o.get_as::<f64>("zfp:rate").unwrap(), Some(12.0));
        // The unset modes are still declared for introspection.
        assert!(o.contains("zfp:precision"));
        assert!(o.contains("zfp:accuracy"));
    }

    #[test]
    fn invalid_options_rejected() {
        let c = Zfp::default();
        assert!(c
            .check_options(&Options::new().with("zfp:rate", 1000.0f64))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("zfp:accuracy", 0.0f64))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("zfp:precision", 0u32))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("zfp:nthreads", 0u32))
            .is_err());
    }

    #[test]
    fn rejects_non_float() {
        let ints = Data::from_vec(vec![1u32, 2, 3, 4], vec![4]).unwrap();
        let mut c = Zfp::default();
        assert!(c.compress(&ints).is_err());
    }

    #[test]
    fn rejects_nan_with_clear_error() {
        let input = Data::from_vec(vec![1.0f64, f64::NAN], vec![2]).unwrap();
        let mut c = Zfp::default();
        let err = c.compress(&input).unwrap_err();
        assert_eq!(err.code(), pressio_core::ErrorCode::Unsupported);
    }

    #[test]
    fn corrupt_stream_errors() {
        let input = field(2, 8, 8);
        let mut c = Zfp::default();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![2, 8, 8]);
        let mut bad = compressed.as_bytes().to_vec();
        bad[1] ^= 0xFF;
        assert!(c.decompress(&Data::from_bytes(&bad), &mut out).is_err());
        assert!(c
            .decompress(&Data::from_bytes(&bad[..10]), &mut out)
            .is_err());
    }

    #[test]
    fn omp_uses_its_own_prefix() {
        let c = Zfp::omp();
        assert_eq!(c.name(), "zfp_omp");
        let o = c.get_options();
        assert_eq!(o.get_as::<u32>("zfp_omp:nthreads").unwrap(), Some(4));
        assert!(o.contains("zfp_omp:accuracy"));
        let mut c = Zfp::omp();
        c.set_options(&Options::new().with(pressio_core::OPT_NTHREADS, 7u32))
            .unwrap();
        assert_eq!(c.get_options().get_as::<u32>("zfp_omp:nthreads").unwrap(), Some(7));
    }

    #[test]
    fn omp_roundtrip_matches_serial_values() {
        let input = field(9, 21, 13); // partial blocks in every dimension
        for threads in [2u32, 7] {
            let mut serial = Zfp::default();
            serial
                .set_options(&Options::new().with("zfp:accuracy", 1e-4f64))
                .unwrap();
            let mut par = Zfp::omp();
            par.set_options(
                &Options::new()
                    .with("zfp_omp:accuracy", 1e-4f64)
                    .with("zfp_omp:nthreads", threads),
            )
            .unwrap();
            let cs = serial.compress(&input).unwrap();
            let cp = par.compress(&input).unwrap();
            let mut outs = Data::owned(DType::F64, vec![9, 21, 13]);
            let mut outp = Data::owned(DType::F64, vec![9, 21, 13]);
            serial.decompress(&cs, &mut outs).unwrap();
            par.decompress(&cp, &mut outp).unwrap();
            // Chunking never changes decoded values, only stream framing.
            assert_eq!(
                outs.to_f64_vec().unwrap(),
                outp.to_f64_vec().unwrap(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn serial_and_parallel_streams_cross_decode() {
        let input = field(4, 12, 10);
        let mut par = Zfp::omp();
        par.set_options(&Options::new().with("zfp_omp:nthreads", 3u32))
            .unwrap();
        let cp = par.compress(&input).unwrap();
        // A serial instance decodes the multi-chunk stream...
        let mut serial = Zfp::default();
        let mut out = Data::owned(DType::F64, vec![4, 12, 10]);
        serial.decompress(&cp, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-3);
        // ...and the parallel instance decodes a serial stream.
        let cs = serial.compress(&input).unwrap();
        let mut out2 = Data::owned(DType::F64, vec![4, 12, 10]);
        par.decompress(&cs, &mut out2).unwrap();
        assert!(max_err(&input, &out2) <= 1e-3);
    }

    #[test]
    fn chunk_directory_validates_bit_lengths() {
        let input = field(4, 12, 10);
        let mut par = Zfp::omp();
        par.set_options(&Options::new().with("zfp_omp:nthreads", 3u32))
            .unwrap();
        let cp = par.compress(&input).unwrap();
        // Corrupt the first chunk's declared bit length (directly after the
        // fixed header: magic + dtype + dims(count + 3 x u64) + tag + param
        // + chunk count).
        let mut bad = cp.as_bytes().to_vec();
        let dir = 4 + 1 + (4 + 3 * 8) + 1 + 8 + 4;
        bad[dir] ^= 0xFF;
        let mut out = Data::owned(DType::F64, vec![4, 12, 10]);
        assert!(par.decompress(&Data::from_bytes(&bad), &mut out).is_err());
    }

    #[test]
    fn registered_and_constructible() {
        register_builtins();
        let h = registry().compressor("zfp").unwrap();
        assert_eq!(h.name(), "zfp");
        assert_eq!(h.thread_safety(), ThreadSafety::Multiple);
        let h = registry().compressor("zfp_omp").unwrap();
        assert_eq!(h.name(), "zfp_omp");
        assert_eq!(h.thread_safety(), ThreadSafety::Multiple);
    }
}
