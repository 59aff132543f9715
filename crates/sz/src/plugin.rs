//! The `sz`, `sz_threadsafe`, and `sz_omp` compressor plugins.
//!
//! All three share the kernel in [`crate::codec`]; they differ exactly the
//! way the paper's glossary describes:
//!
//! * `sz` — the classic interface with the *shared global configuration
//!   store*: construction refcounts an emulated `SZ_Init`, and every
//!   compression call serializes on the store lock → thread safety
//!   `Serialized`.
//! * `sz_threadsafe` — no global store; instances are independent →
//!   `Multiple`.
//! * `sz_omp` — chunk-parallel CPU variant (row blocks dispatched onto the
//!   shared execution engine, `pressio_core::exec`), also `Multiple`.
//!
//! The `sz` variant snapshots its effective parameters out of the emulated
//! global store *before* computing, holding the store lock only for the
//! snapshot — concurrent instances contend for microseconds, not for the
//! duration of a kernel invocation.
//!
//! The option surface mirrors SZ's (a large set of `sz:*` keys plus the
//! generic `pressio:*` bounds); unsupported historical knobs are accepted
//! and stored for compatibility, as the real LibPressio plugin does.

use std::sync::Arc;

use pressio_core::{
    chunked, registry, require_dtype, ByteReader, ByteWriter, Compressor, DType, Data, Error, ErrorBound,
    OptionKind, OptionValue, Options, Result, ThreadSafety, Version,
};

use crate::codec::{compress_body, decompress_body, LosslessBackend, SzFloat, SzParams};
use crate::global::{lock_store, SzInitToken};

/// Stream envelope magic ("SZRS").
const MAGIC: u32 = 0x535A_5253;

/// Which concurrency/storage flavor a [`Sz`] instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SzVariant {
    /// Shared global config store, serialized calls.
    Global,
    /// Independent instances (the `sz_threadsafe` plugin).
    ThreadSafe,
    /// Chunk-parallel over row blocks (the `sz_omp` plugin).
    ChunkParallel,
}

/// Error bound mode, mirroring `sz:error_bound_mode_str`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMode {
    /// Absolute L∞ bound (`abs`).
    Abs,
    /// Value-range relative bound (`rel` / `vr_rel`).
    Rel,
    /// Point-wise relative bound (`pw_rel`): `|x - x'| <= r * |x|` per
    /// element, implemented like SZ via log-domain quantization.
    PwRel,
}

/// The SZ-style prediction-based error-bounded lossy compressor.
#[derive(Clone)]
pub struct Sz {
    variant: SzVariant,
    mode: BoundMode,
    abs_err_bound: f64,
    rel_bound_ratio: f64,
    pw_rel_bound_ratio: f64,
    /// Magnitudes below this floor bypass the log transform and are stored
    /// verbatim (SZ's handling of zeros/denormals in pw_rel mode).
    pw_rel_floor: f64,
    max_quant_intervals: u32,
    quantization_intervals: u32,
    /// 0 = best speed (skip lossless pass on verbatim values), 1 = best
    /// compression.
    sz_mode: i32,
    /// Lossless backend for best-compression mode (`sz:lossless`).
    lossless: LosslessBackend,
    nthreads: u32,
    // Compatibility knobs: accepted and reported but not interpreted by this
    // reproduction (they tune SZ's auto interval estimation).
    sample_distance: u32,
    pred_threshold: f64,
    app: String,
    user_params: Option<Arc<dyn std::any::Any + Send + Sync>>,
    _init: Option<SzInitToken>,
}

impl Sz {
    /// Create an instance of the given variant with SZ-like defaults.
    pub fn new(variant: SzVariant) -> Sz {
        Sz {
            variant,
            mode: BoundMode::Abs,
            abs_err_bound: 1e-4,
            rel_bound_ratio: 1e-4,
            pw_rel_bound_ratio: 1e-3,
            pw_rel_floor: 1e-100,
            max_quant_intervals: 65536,
            quantization_intervals: 0,
            sz_mode: 1,
            lossless: LosslessBackend::Deflate,
            nthreads: 4,
            sample_distance: 100,
            pred_threshold: 0.99,
            app: "SZ".to_string(),
            user_params: None,
            _init: match variant {
                SzVariant::Global => Some(SzInitToken::acquire()),
                _ => None,
            },
        }
    }

    fn radius(&self) -> u32 {
        let capacity = if self.quantization_intervals > 0 {
            self.quantization_intervals
        } else {
            self.max_quant_intervals
        };
        (capacity / 2).clamp(2, 1 << 20)
    }

    fn params(&self, abs_eb: f64) -> SzParams {
        SzParams {
            abs_eb,
            radius: self.radius(),
            // Best-speed mode skips the lossless pass regardless of which
            // backend is selected for best-compression mode.
            lossless: if self.sz_mode == 0 {
                LosslessBackend::None
            } else {
                self.lossless
            },
        }
    }

    fn resolve_bound<T: SzFloat>(&self, data: &[T]) -> Result<f64> {
        let eb = match self.mode {
            BoundMode::Abs => self.abs_err_bound,
            BoundMode::Rel => {
                let range = pressio_core::value_range(data);
                if range == 0.0 {
                    // Constant data: any positive bound is exact.
                    self.rel_bound_ratio.max(f64::MIN_POSITIVE)
                } else {
                    self.rel_bound_ratio * range
                }
            }
            // pw_rel quantizes in the log domain: |ln x - ln x'| <= ln(1+r)
            // implies x'/x in [1/(1+r), 1+r], i.e. a point-wise relative
            // bound of exactly r.
            BoundMode::PwRel => (1.0 + self.pw_rel_bound_ratio).ln(),
        };
        if !(eb.is_finite() && eb > 0.0) {
            return Err(Error::invalid_argument(format!(
                "resolved error bound {eb} is not positive and finite"
            ))
            .in_plugin(self.name()));
        }
        Ok(eb)
    }

    fn chunk_ranges(&self, dims: &[usize], elem_bytes: usize) -> Vec<(usize, usize)> {
        // Split whole rows of the slowest dimension across workers, using
        // the engine's adaptive plan: the piece count depends only on
        // `nthreads` and the input's size/dtype (stream layout stays
        // machine-independent), and small inputs collapse to one chunk so
        // the parallel variant never pays stitch overhead it cannot win
        // back (`exec:serial_fallback`).
        let slow = dims.first().copied().unwrap_or(1).max(1);
        let row: usize = dims.iter().skip(1).product::<usize>().max(1);
        pressio_core::plan_chunks(
            slow,
            row.saturating_mul(elem_bytes),
            self.nthreads.max(1) as usize,
        )
        .into_iter()
        .map(|r| (r.start * row, r.end * row))
        .collect()
    }

    fn compress_typed<T: SzFloat>(
        &self,
        values: &[T],
        dims: &[usize],
        abs_eb: f64,
    ) -> Result<Vec<Vec<u8>>> {
        let p = self.params(abs_eb);
        if self.variant != SzVariant::ChunkParallel {
            return Ok(vec![compress_body(values, dims, &p)?]);
        }
        let ranges = self.chunk_ranges(dims, std::mem::size_of::<T>());
        let row: usize = dims.iter().skip(1).product::<usize>().max(1);
        // Per-chunk dims are precomputed: the pool closure itself stays
        // allocation-free (no-alloc-in-par-closure).
        let tail = &dims[1.min(dims.len())..];
        let cdims: Vec<Vec<usize>> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let mut d = Vec::with_capacity(1 + tail.len());
                d.push((hi - lo) / row);
                d.extend_from_slice(tail);
                d
            })
            .collect();
        pressio_core::par_map_indexed(ranges.len(), |w| {
            let _s = pressio_core::trace::span_labeled("sz:compress_chunk", || format!("chunk {w}"));
            let (lo, hi) = ranges[w];
            compress_body(&values[lo..hi], &cdims[w], &p)
        })
    }

    fn decompress_typed<T: SzFloat>(
        &self,
        bodies: &[&[u8]],
        dims: &[usize],
    ) -> Result<Vec<T>> {
        if bodies.len() == 1 {
            return decompress_body(bodies[0], dims);
        }
        // Chunked stream: reconstruct per-chunk dims from row counts —
        // precomputed so the pool closure performs no allocation.
        let slow = dims.first().copied().unwrap_or(1);
        let workers = bodies.len();
        let base = slow / workers;
        let extra = slow % workers;
        let tail = &dims[1.min(dims.len())..];
        let cdims: Vec<Vec<usize>> = (0..workers)
            .map(|w| {
                let mut d = Vec::with_capacity(1 + tail.len());
                d.push(base + usize::from(w < extra));
                d.extend_from_slice(tail);
                d
            })
            .collect();
        chunked::decode(bodies, MAGIC, "sz:decompress_chunk", |w, body| {
            decompress_body::<T>(body, &cdims[w])
        })
    }

    /// Hand decoded `vals` to the caller. Runs only once the payload has
    /// decoded, and sizes the output only then: `dims` came off the wire,
    /// and on a corrupt stream a huge declared geometry must fail against
    /// the (small) decoded body, not commit a multi-gigabyte zeroed
    /// allocation first.
    fn write_output<T: pressio_core::Element>(
        &self,
        output: &mut Data,
        dtype: DType,
        dims: &[usize],
        vals: &[T],
    ) -> Result<()> {
        let n: usize = dims.iter().product();
        if vals.len() != n {
            return Err(Error::corrupt(format!(
                "sz stream decoded {} elements for geometry of {n}",
                vals.len()
            ))
            .in_plugin(self.prefix()));
        }
        output.shape_to(dtype, dims).map_err(|e| e.in_plugin(self.prefix()))?;
        output.fill_from(vals)
    }

    fn prefix(&self) -> &'static str {
        match self.variant {
            SzVariant::Global => "sz",
            SzVariant::ThreadSafe => "sz_threadsafe",
            SzVariant::ChunkParallel => "sz_omp",
        }
    }
}

impl Compressor for Sz {
    fn name(&self) -> &str {
        self.prefix()
    }

    fn version(&self) -> Version {
        // Mirrors the SZ release evaluated in the paper.
        Version::new(2, 1, 10)
    }

    fn thread_safety(&self) -> ThreadSafety {
        match self.variant {
            SzVariant::Global => ThreadSafety::Serialized,
            _ => ThreadSafety::Multiple,
        }
    }

    fn get_options(&self) -> Options {
        let p = self.prefix();
        let mut o = Options::new()
            .with(
                format!("{p}:error_bound_mode_str"),
                match self.mode {
                    BoundMode::Abs => "abs",
                    BoundMode::Rel => "rel",
                    BoundMode::PwRel => "pw_rel",
                },
            )
            .with(format!("{p}:abs_err_bound"), self.abs_err_bound)
            .with(format!("{p}:rel_bound_ratio"), self.rel_bound_ratio)
            .with(format!("{p}:pw_rel_bound_ratio"), self.pw_rel_bound_ratio)
            .with(format!("{p}:pw_rel_floor"), self.pw_rel_floor)
            .with(format!("{p}:max_quant_intervals"), self.max_quant_intervals)
            .with(
                format!("{p}:quantization_intervals"),
                self.quantization_intervals,
            )
            .with(format!("{p}:sz_mode"), self.sz_mode)
            .with(
                format!("{p}:lossless"),
                match self.lossless {
                    LosslessBackend::Rans => "rans",
                    _ => "deflate",
                },
            )
            .with(format!("{p}:sample_distance"), self.sample_distance)
            .with(format!("{p}:pred_threshold"), self.pred_threshold)
            .with(format!("{p}:app"), self.app.as_str());
        if self.variant == SzVariant::ChunkParallel {
            o.set(format!("{p}:nthreads"), self.nthreads);
        }
        match &self.user_params {
            Some(u) => o.set(format!("{p}:user_params"), OptionValue::UserData(u.clone())),
            None => o.declare(format!("{p}:user_params"), OptionKind::UserData),
        }
        // Generic bounds and thread count are always settable.
        o.declare(pressio_core::OPT_ABS, OptionKind::F64);
        o.declare(pressio_core::OPT_REL, OptionKind::F64);
        o.declare(pressio_core::OPT_NTHREADS, OptionKind::U32);
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        let p = self.prefix();
        if let Some(mode) = options.get_as::<String>(&format!("{p}:error_bound_mode_str"))? {
            self.mode = match mode.as_str() {
                "abs" => BoundMode::Abs,
                "rel" | "vr_rel" => BoundMode::Rel,
                "pw_rel" => BoundMode::PwRel,
                other => {
                    return Err(Error::invalid_argument(format!(
                        "unknown error bound mode {other:?} (supported: abs, rel, vr_rel, pw_rel)"
                    ))
                    .in_plugin(p))
                }
            };
        }
        if let Some(b) = options.get_as::<f64>(&format!("{p}:abs_err_bound"))? {
            ErrorBound::Abs(b).validate().map_err(|e| e.in_plugin(p))?;
            self.abs_err_bound = b;
        }
        if let Some(r) = options.get_as::<f64>(&format!("{p}:rel_bound_ratio"))? {
            ErrorBound::ValueRangeRel(r)
                .validate()
                .map_err(|e| e.in_plugin(p))?;
            self.rel_bound_ratio = r;
        }
        if let Some(r) = options.get_as::<f64>(&format!("{p}:pw_rel_bound_ratio"))? {
            if !(r.is_finite() && r > 0.0) {
                return Err(Error::invalid_argument(format!(
                    "pw_rel bound ratio must be positive and finite, got {r}"
                ))
                .in_plugin(p));
            }
            self.pw_rel_bound_ratio = r;
        }
        if let Some(f) = options.get_as::<f64>(&format!("{p}:pw_rel_floor"))? {
            if !(f.is_finite() && f > 0.0) {
                return Err(Error::invalid_argument(format!(
                    "pw_rel floor must be positive and finite, got {f}"
                ))
                .in_plugin(p));
            }
            self.pw_rel_floor = f;
        }
        // Generic bounds select both the mode and the value.
        if let Some(b) = options.get_as::<f64>(pressio_core::OPT_ABS)? {
            ErrorBound::Abs(b).validate().map_err(|e| e.in_plugin(p))?;
            self.mode = BoundMode::Abs;
            self.abs_err_bound = b;
        } else if let Some(r) = options.get_as::<f64>(pressio_core::OPT_REL)? {
            ErrorBound::ValueRangeRel(r)
                .validate()
                .map_err(|e| e.in_plugin(p))?;
            self.mode = BoundMode::Rel;
            self.rel_bound_ratio = r;
        }
        if let Some(m) = options.get_as::<u32>(&format!("{p}:max_quant_intervals"))? {
            if m < 4 {
                return Err(
                    Error::invalid_argument("max_quant_intervals must be >= 4").in_plugin(p)
                );
            }
            self.max_quant_intervals = m;
        }
        if let Some(q) = options.get_as::<u32>(&format!("{p}:quantization_intervals"))? {
            self.quantization_intervals = q;
        }
        if let Some(m) = options.get_as::<i32>(&format!("{p}:sz_mode"))? {
            if !(0..=1).contains(&m) {
                return Err(Error::invalid_argument(
                    "sz_mode must be 0 (best speed) or 1 (best compression)",
                )
                .in_plugin(p));
            }
            self.sz_mode = m;
        }
        if let Some(b) = options.get_as::<String>(&format!("{p}:lossless"))? {
            self.lossless = match b.as_str() {
                "deflate" => LosslessBackend::Deflate,
                "rans" => LosslessBackend::Rans,
                other => {
                    return Err(Error::invalid_argument(format!(
                        "unknown lossless backend {other:?} (supported: deflate, rans)"
                    ))
                    .in_plugin(p))
                }
            };
        }
        if let Some(n) =
            options.get_as::<u32>(&format!("{p}:nthreads"))?.or(options
                .get_as::<u32>(pressio_core::OPT_NTHREADS)?)
        {
            if n == 0 {
                return Err(Error::invalid_argument("nthreads must be >= 1").in_plugin(p));
            }
            self.nthreads = n;
        }
        if let Some(d) = options.get_as::<u32>(&format!("{p}:sample_distance"))? {
            self.sample_distance = d;
        }
        if let Some(t) = options.get_as::<f64>(&format!("{p}:pred_threshold"))? {
            self.pred_threshold = t;
        }
        if let Some(a) = options.get_as::<String>(&format!("{p}:app"))? {
            self.app = a;
        }
        if let Some(OptionValue::UserData(u)) = options.get(&format!("{p}:user_params")) {
            self.user_params = Some(u.clone());
        }
        Ok(())
    }

    fn check_options(&self, options: &Options) -> Result<()> {
        let mut probe = self.clone();
        probe.set_options(options)
    }

    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        let p = self.prefix();
        o.set(format!("{p}:pressio:lossless"), false);
        o.set(format!("{p}:pressio:lossy"), true);
        o.set(
            format!("{p}:pressio:error_bounded"),
            true,
        );
        o
    }

    fn get_documentation(&self) -> Options {
        let p = self.prefix();
        Options::new()
            .with(
                p.to_string(),
                "prediction-based error-bounded lossy compressor (Lorenzo prediction + \
                 linear-scaling quantization + Huffman coding)",
            )
            .with(
                format!("{p}:error_bound_mode_str"),
                "bound mode: abs | rel (value-range relative)",
            )
            .with(format!("{p}:abs_err_bound"), "absolute error bound (L-infinity)")
            .with(
                format!("{p}:rel_bound_ratio"),
                "value-range relative error bound ratio",
            )
            .with(
                format!("{p}:pw_rel_bound_ratio"),
                "point-wise relative bound: |x - x'| <= r * |x| per element",
            )
            .with(
                format!("{p}:pw_rel_floor"),
                "magnitudes below this floor are stored verbatim in pw_rel mode",
            )
            .with(
                format!("{p}:max_quant_intervals"),
                "maximum number of quantization intervals (alphabet capacity)",
            )
            .with(
                format!("{p}:quantization_intervals"),
                "fixed interval count; 0 selects the maximum automatically",
            )
            .with(
                format!("{p}:sz_mode"),
                "0 = best speed, 1 = best compression (lossless pass on verbatim values)",
            )
            .with(
                format!("{p}:lossless"),
                "lossless backend for best-compression mode: deflate | rans",
            )
            .with(
                format!("{p}:user_params"),
                "opaque application-specific configuration handle",
            )
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        require_dtype(self.prefix(), input, &[DType::F32, DType::F64])?;
        // The classic interface reads its configuration from the emulated
        // global store. Snapshot the effective parameters while holding the
        // store lock, then release it *before* the kernel runs: holding the
        // lock across compute serialized every concurrent compression on
        // this process (the root cause of PR 2's cascade timeouts).
        let me = {
            let _guard = (self.variant == SzVariant::Global).then(lock_store);
            self.clone()
        };
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_dtype(input.dtype());
        w.put_dims(input.dims());
        let bodies = if me.mode == BoundMode::PwRel {
            // Point-wise relative mode: quantize in the log domain.
            let values = input.to_f64_vec()?;
            let eb_log = (1.0 + me.pw_rel_bound_ratio).ln();
            let staged = pw_rel_forward(&values, me.pw_rel_floor);
            w.put_u8(1);
            w.put_f64(me.pw_rel_floor);
            w.put_section(&pressio_codecs::deflate::compress(&staged.signs)?);
            w.put_section(&pressio_codecs::deflate::compress(&staged.exceptions)?);
            me.compress_typed(&staged.logs, input.dims(), eb_log)?
        } else {
            w.put_u8(0);
            let eb = match input.dtype() {
                DType::F32 => me.resolve_bound(input.as_slice::<f32>()?)?,
                _ => me.resolve_bound(input.as_slice::<f64>()?)?,
            };
            match input.dtype() {
                DType::F32 => me.compress_typed(input.as_slice::<f32>()?, input.dims(), eb)?,
                _ => me.compress_typed(input.as_slice::<f64>()?, input.dims(), eb)?,
            }
        };
        chunked::put_directory(&mut w, &bodies);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        // Same brief-lock parameter snapshot as `compress`.
        let me = {
            let _guard = (self.variant == SzVariant::Global).then(lock_store);
            self.clone()
        };
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != MAGIC {
            return Err(Error::corrupt("bad sz envelope magic").in_plugin(self.prefix()));
        }
        let (dtype, dims) = r.get_geometry().map_err(|e| e.in_plugin(self.prefix()))?;
        let mode_tag = r.get_u8()?;
        let pw_rel = match mode_tag {
            0 => None,
            1 => {
                r.get_f64()?; // the floor: recorded, not needed to invert
                let signs = pressio_codecs::deflate::decompress(r.get_section()?)?;
                let exceptions = pressio_codecs::deflate::decompress(r.get_section()?)?;
                Some((signs, exceptions))
            }
            other => {
                return Err(
                    Error::corrupt(format!("unknown sz mode tag {other}")).in_plugin(self.prefix())
                )
            }
        };
        // At most one body per row of the slowest dimension.
        let bodies = chunked::get_directory(&mut r, dims.first().copied().unwrap_or(1).max(1))
            .map_err(|e| e.in_plugin(self.prefix()))?;
        match (pw_rel, dtype) {
            (Some((signs, exceptions)), _) => {
                let logs: Vec<f64> = me.decompress_typed(&bodies, &dims)?;
                let vals = pw_rel_inverse(&logs, &signs, &exceptions)
                    .map_err(|e| e.in_plugin(self.prefix()))?;
                self.write_output(output, dtype, &dims, &vals)
            }
            (None, DType::F32) => {
                self.write_output(output, dtype, &dims, &me.decompress_typed::<f32>(&bodies, &dims)?)
            }
            (None, _) => {
                self.write_output(output, dtype, &dims, &me.decompress_typed::<f64>(&bodies, &dims)?)
            }
        }
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

/// Staging buffers of the pw_rel log transform.
struct PwRelStaged {
    /// ln(|x|) per element (0.0 placeholder at exception sites).
    logs: Vec<f64>,
    /// Sign bitmask, one bit per element, LSB-first within bytes.
    signs: Vec<u8>,
    /// Exceptions: [count u64][(index u64, bits u64)...] little-endian —
    /// zeros, sub-floor magnitudes, and non-finite values stored verbatim.
    exceptions: Vec<u8>,
}

/// Forward log transform of pw_rel mode.
fn pw_rel_forward(values: &[f64], floor: f64) -> PwRelStaged {
    let _s = pressio_core::trace::span("sz:pw_rel_forward");
    let mut logs = Vec::with_capacity(values.len());
    let mut signs = vec![0u8; values.len().div_ceil(8)];
    let mut exc: Vec<(u64, u64)> = Vec::new();
    for (i, &x) in values.iter().enumerate() {
        if x.is_finite() && x.abs() >= floor {
            if x < 0.0 {
                signs[i / 8] |= 1 << (i % 8);
            }
            logs.push(x.abs().ln());
        } else {
            exc.push((i as u64, x.to_bits()));
            logs.push(0.0);
        }
    }
    let mut exceptions = Vec::with_capacity(8 + exc.len() * 16);
    exceptions.extend_from_slice(&(exc.len() as u64).to_le_bytes());
    for (i, b) in exc {
        exceptions.extend_from_slice(&i.to_le_bytes());
        exceptions.extend_from_slice(&b.to_le_bytes());
    }
    PwRelStaged {
        logs,
        signs,
        exceptions,
    }
}

/// Inverse of [`pw_rel_forward`] applied to reconstructed logs.
fn pw_rel_inverse(logs: &[f64], signs: &[u8], exceptions: &[u8]) -> Result<Vec<f64>> {
    let _s = pressio_core::trace::span("sz:pw_rel_inverse");
    if signs.len() < logs.len().div_ceil(8) || exceptions.len() < 8 {
        return Err(Error::corrupt("pw_rel side sections truncated"));
    }
    let mut out: Vec<f64> = logs
        .iter()
        .enumerate()
        .map(|(i, &y)| {
            let mag = y.exp();
            if signs[i / 8] >> (i % 8) & 1 == 1 {
                -mag
            } else {
                mag
            }
        })
        .collect();
    let mut r = ByteReader::new(exceptions);
    let n_exc = r
        .get_len()
        .map_err(|_| Error::corrupt("pw_rel exception section truncated"))?;
    for _ in 0..n_exc {
        let idx = r.get_len()?;
        let bits = r.get_u64()?;
        if idx >= out.len() {
            return Err(Error::corrupt("pw_rel exception index out of range"));
        }
        out[idx] = f64::from_bits(bits);
    }
    Ok(out)
}

/// Register `sz`, `sz_threadsafe`, and `sz_omp`.
pub fn register_builtins() {
    let reg = registry();
    reg.register_compressor("sz", || Box::new(Sz::new(SzVariant::Global)));
    reg.register_compressor("sz_threadsafe", || Box::new(Sz::new(SzVariant::ThreadSafe)));
    reg.register_compressor("sz_omp", || Box::new(Sz::new(SzVariant::ChunkParallel)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_3d(nz: usize, ny: usize, nx: usize) -> Data {
        let mut v = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    v.push(
                        ((x as f64) * 0.05).sin() * ((y as f64) * 0.04).cos()
                            + 0.01 * z as f64,
                    );
                }
            }
        }
        Data::from_vec(v, vec![nz, ny, nx]).unwrap()
    }

    fn max_err(a: &Data, b: &Data) -> f64 {
        let x = a.to_f64_vec().unwrap();
        let y = b.to_f64_vec().unwrap();
        x.iter()
            .zip(&y)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn plugin_roundtrip_abs_bound() {
        let input = field_3d(8, 32, 32);
        let mut c = Sz::new(SzVariant::Global);
        c.set_options(&Options::new().with("sz:abs_err_bound", 1e-3f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        assert!(compressed.size_in_bytes() < input.size_in_bytes() / 4);
        let mut out = Data::owned(DType::F64, vec![8, 32, 32]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-3);
    }

    #[test]
    fn rel_bound_scales_with_range() {
        let input = field_3d(4, 16, 16);
        let range = pressio_core::value_range(input.as_slice::<f64>().unwrap());
        let mut c = Sz::new(SzVariant::ThreadSafe);
        c.set_options(
            &Options::new()
                .with("sz_threadsafe:error_bound_mode_str", "rel")
                .with("sz_threadsafe:rel_bound_ratio", 1e-4f64),
        )
        .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![4, 16, 16]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-4 * range * (1.0 + 1e-12));
    }

    #[test]
    fn generic_pressio_bounds_work() {
        let input = field_3d(4, 16, 16);
        let mut c = Sz::new(SzVariant::Global);
        c.set_options(&Options::new().with(pressio_core::OPT_ABS, 5e-3f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![4, 16, 16]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 5e-3);
    }

    #[test]
    fn omp_variant_matches_bound_and_parallels() {
        let input = field_3d(16, 32, 32);
        for threads in [1u32, 2, 4, 7] {
            let mut c = Sz::new(SzVariant::ChunkParallel);
            c.set_options(
                &Options::new()
                    .with("sz_omp:abs_err_bound", 1e-4f64)
                    .with("sz_omp:nthreads", threads),
            )
            .unwrap();
            let compressed = c.compress(&input).unwrap();
            let mut out = Data::owned(DType::F64, vec![16, 32, 32]);
            c.decompress(&compressed, &mut out).unwrap();
            assert!(max_err(&input, &out) <= 1e-4, "threads={threads}");
        }
    }

    #[test]
    fn global_store_lock_released_during_compute() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Regression test for the PR 2 cascade-timeout root cause: the `sz`
        // variant must hold the global store lock only while snapshotting
        // parameters, not across the kernel. A watcher thread polls the
        // lock while a compression runs and must see it free *before* the
        // compression completes.
        let input = field_3d(64, 64, 64);
        let done = Arc::new(AtomicBool::new(false));
        let observed_free = Arc::new(AtomicBool::new(false));
        let started = Arc::new(std::sync::Barrier::new(2));
        let watcher = {
            let done = Arc::clone(&done);
            let observed_free = Arc::clone(&observed_free);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                started.wait();
                // Let the compression get past its snapshot and into the
                // kernel before probing.
                std::thread::sleep(std::time::Duration::from_millis(10));
                while !done.load(Ordering::Acquire) {
                    if crate::global::try_lock_store().is_some() {
                        observed_free.store(true, Ordering::Release);
                        return;
                    }
                    std::thread::yield_now();
                }
            })
        };
        let mut c = Sz::new(SzVariant::Global);
        c.set_options(&Options::new().with("sz:abs_err_bound", 1e-6f64))
            .unwrap();
        started.wait();
        let t0 = std::time::Instant::now();
        c.compress(&input).unwrap();
        let elapsed = t0.elapsed();
        done.store(true, Ordering::Release);
        watcher.join().unwrap();
        // Only meaningful when the watcher had time to probe mid-compute.
        if elapsed > std::time::Duration::from_millis(50) {
            assert!(
                observed_free.load(Ordering::Acquire),
                "global store lock was held for the entire compression"
            );
        }
    }

    #[test]
    fn thread_safety_classification() {
        assert_eq!(
            Sz::new(SzVariant::Global).thread_safety(),
            ThreadSafety::Serialized
        );
        assert_eq!(
            Sz::new(SzVariant::ThreadSafe).thread_safety(),
            ThreadSafety::Multiple
        );
        assert_eq!(
            Sz::new(SzVariant::ChunkParallel).thread_safety(),
            ThreadSafety::Multiple
        );
    }

    #[test]
    fn global_variant_refcounts_init() {
        let before = crate::global::init_count();
        {
            let _a = Sz::new(SzVariant::Global);
            let _b = _a.clone();
            assert_eq!(crate::global::init_count(), before + 2);
            let _c = Sz::new(SzVariant::ThreadSafe);
            assert_eq!(crate::global::init_count(), before + 2);
        }
        assert_eq!(crate::global::init_count(), before);
    }

    #[test]
    fn rejects_integer_input() {
        let ints = Data::from_vec(vec![1i32, 2, 3, 4], vec![4]).unwrap();
        let mut c = Sz::new(SzVariant::Global);
        let err = c.compress(&ints).unwrap_err();
        assert_eq!(err.code(), pressio_core::ErrorCode::Unsupported);
    }

    #[test]
    fn option_introspection_lists_surface() {
        let c = Sz::new(SzVariant::Global);
        let o = c.get_options();
        for key in [
            "sz:error_bound_mode_str",
            "sz:abs_err_bound",
            "sz:rel_bound_ratio",
            "sz:max_quant_intervals",
            "sz:sz_mode",
            "sz:lossless",
            "sz:user_params",
            pressio_core::OPT_ABS,
        ] {
            assert!(o.contains(key), "{key} missing from get_options");
        }
        let docs = c.get_documentation();
        assert!(docs.contains("sz:abs_err_bound"));
    }

    #[test]
    fn invalid_options_rejected_by_check() {
        let c = Sz::new(SzVariant::Global);
        assert!(c
            .check_options(&Options::new().with("sz:error_bound_mode_str", "psnr"))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("sz:pw_rel_bound_ratio", -0.5f64))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("sz:abs_err_bound", -1.0f64))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("sz:sz_mode", 7i32))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("sz:abs_err_bound", 0.5f64))
            .is_ok());
    }

    #[test]
    fn userdata_option_roundtrips() {
        struct FakeComm(#[allow(dead_code)] u64);
        let mut c = Sz::new(SzVariant::Global);
        let mut o = Options::new();
        o.set_userdata("sz:user_params", Arc::new(FakeComm(3)));
        c.set_options(&o).unwrap();
        let got = c.get_options();
        assert_eq!(
            got.get("sz:user_params").unwrap().kind(),
            OptionKind::UserData
        );
    }

    #[test]
    fn f32_roundtrip() {
        let vals: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        let input = Data::from_vec(vals, vec![64, 64]).unwrap();
        let mut c = Sz::new(SzVariant::Global);
        c.set_options(&Options::new().with("sz:abs_err_bound", 1e-3f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F32, vec![64, 64]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-3);
    }

    #[test]
    fn best_speed_mode_skips_lossless_pass() {
        let input = field_3d(4, 16, 16);
        let mut fast = Sz::new(SzVariant::Global);
        fast.set_options(
            &Options::new()
                .with("sz:sz_mode", 0i32)
                .with("sz:abs_err_bound", 1e-5f64),
        )
        .unwrap();
        let mut best = Sz::new(SzVariant::Global);
        best.set_options(
            &Options::new()
                .with("sz:sz_mode", 1i32)
                .with("sz:abs_err_bound", 1e-5f64),
        )
        .unwrap();
        // Both roundtrip within bound.
        for c in [&mut fast, &mut best] {
            let compressed = c.compress(&input).unwrap();
            let mut out = Data::owned(DType::F64, vec![4, 16, 16]);
            c.decompress(&compressed, &mut out).unwrap();
            assert!(max_err(&input, &out) <= 1e-5);
        }
    }

    #[test]
    fn rans_lossless_backend_roundtrips_and_is_selectable() {
        let input = field_3d(8, 24, 24);
        let mut c = Sz::new(SzVariant::Global);
        c.set_options(
            &Options::new()
                .with("sz:abs_err_bound", 1e-4f64)
                .with("sz:lossless", "rans"),
        )
        .unwrap();
        assert_eq!(
            c.get_options().get_as::<String>("sz:lossless").unwrap(),
            Some("rans".to_string())
        );
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![8, 24, 24]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(max_err(&input, &out) <= 1e-4);
        // A deflate-backend instance decodes the rans stream too: the
        // backend travels in the stream, not in the decoder's options.
        let mut d = Sz::new(SzVariant::Global);
        let mut out2 = Data::owned(DType::F64, vec![8, 24, 24]);
        d.decompress(&compressed, &mut out2).unwrap();
        assert_eq!(
            out.as_bytes(),
            out2.as_bytes(),
            "decode must not depend on the decoder's configured backend"
        );
    }

    #[test]
    fn unknown_lossless_backend_rejected() {
        let c = Sz::new(SzVariant::Global);
        assert!(c
            .check_options(&Options::new().with("sz:lossless", "zstd"))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("sz:lossless", "rans"))
            .is_ok());
    }

    #[test]
    fn corrupt_envelope_errors() {
        let input = field_3d(2, 8, 8);
        let mut c = Sz::new(SzVariant::Global);
        let compressed = c.compress(&input).unwrap();
        let mut bad = compressed.as_bytes().to_vec();
        bad[0] ^= 0xFF;
        let mut out = Data::owned(DType::F64, vec![2, 8, 8]);
        assert!(c.decompress(&Data::from_bytes(&bad), &mut out).is_err());
    }

    #[test]
    fn pw_rel_bounds_pointwise_relative_error() {
        // Values spanning 12 orders of magnitude: a value-range relative
        // bound would destroy the small values; pw_rel preserves each.
        let vals: Vec<f64> = (0..4000)
            .map(|i| {
                let mag = 10f64.powi((i % 12) - 6);
                let s = if i % 7 == 0 { -1.0 } else { 1.0 };
                s * mag * (1.0 + 0.3 * ((i as f64) * 0.01).sin())
            })
            .collect();
        let input = Data::from_vec(vals, vec![4000]).unwrap();
        for r in [1e-2f64, 1e-4] {
            let mut c = Sz::new(SzVariant::Global);
            c.set_options(
                &Options::new()
                    .with("sz:error_bound_mode_str", "pw_rel")
                    .with("sz:pw_rel_bound_ratio", r),
            )
            .unwrap();
            let compressed = c.compress(&input).unwrap();
            let mut out = Data::owned(DType::F64, vec![4000]);
            c.decompress(&compressed, &mut out).unwrap();
            let orig = input.as_slice::<f64>().unwrap();
            let got = out.as_slice::<f64>().unwrap();
            for (a, b) in orig.iter().zip(got) {
                assert!(
                    (a - b).abs() <= r * a.abs() * (1.0 + 1e-12),
                    "r {r}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn pw_rel_handles_zeros_nans_and_subfloor_values() {
        let mut vals: Vec<f64> = (0..500).map(|i| (i as f64 + 1.0) * 0.1).collect();
        vals[5] = 0.0;
        vals[10] = -0.0;
        vals[20] = f64::NAN;
        vals[30] = f64::INFINITY;
        vals[40] = 1e-200; // below the default 1e-100 floor
        let input = Data::from_vec(vals.clone(), vec![500]).unwrap();
        let mut c = Sz::new(SzVariant::ThreadSafe);
        c.set_options(
            &Options::new()
                .with("sz_threadsafe:error_bound_mode_str", "pw_rel")
                .with("sz_threadsafe:pw_rel_bound_ratio", 1e-3f64),
        )
        .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![500]);
        c.decompress(&compressed, &mut out).unwrap();
        let got = out.as_slice::<f64>().unwrap();
        // Exception values are reproduced bit-exactly.
        assert_eq!(got[5].to_bits(), vals[5].to_bits());
        assert_eq!(got[10].to_bits(), vals[10].to_bits());
        assert!(got[20].is_nan());
        assert_eq!(got[30], f64::INFINITY);
        assert_eq!(got[40].to_bits(), vals[40].to_bits());
        // Normal values honor the point-wise bound.
        for (i, (a, b)) in vals.iter().zip(got).enumerate() {
            if a.is_finite() && a.abs() >= 1e-100 {
                assert!((a - b).abs() <= 1e-3 * a.abs() * 1.001, "index {i}");
            }
        }
    }

    #[test]
    fn pw_rel_beats_vr_rel_on_wide_dynamic_range() {
        // On exponentially distributed magnitudes, achieving per-element
        // 1e-3 fidelity with a value-range bound requires a tiny absolute
        // bound, so the pw_rel stream should be no larger (usually smaller).
        let vals: Vec<f64> = (0..20_000)
            .map(|i| 10f64.powf((i % 1000) as f64 / 100.0) * (1.0 + 0.1 * (i as f64 * 0.01).sin()))
            .collect();
        let input = Data::from_vec(vals.clone(), vec![20_000]).unwrap();
        let mut pw = Sz::new(SzVariant::Global);
        pw.set_options(
            &Options::new()
                .with("sz:error_bound_mode_str", "pw_rel")
                .with("sz:pw_rel_bound_ratio", 1e-3f64),
        )
        .unwrap();
        let pw_size = pw.compress(&input).unwrap().size_in_bytes();
        // Equivalent per-element guarantee via abs bound: 1e-3 * min |x|.
        let min_abs = vals.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
        let mut ab = Sz::new(SzVariant::Global);
        ab.set_options(&Options::new().with("sz:abs_err_bound", 1e-3 * min_abs))
            .unwrap();
        let ab_size = ab.compress(&input).unwrap().size_in_bytes();
        assert!(
            pw_size < ab_size,
            "pw_rel {pw_size} should beat equivalent abs {ab_size}"
        );
    }
}
