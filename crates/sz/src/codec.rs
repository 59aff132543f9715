//! The SZ-style compression kernel.
//!
//! SZ (Di & Cappello, IPDPS'16; Tao et al.) is a *prediction-based*
//! error-bounded lossy compressor. For every element, in C-order scan:
//!
//! 1. predict the value with a Lorenzo predictor over already-*reconstructed*
//!    neighbors (so compressor and decompressor see identical state);
//! 2. linear-scale quantize the prediction error with step `2·eb`;
//! 3. if the quantized reconstruction honors the bound and the code fits the
//!    quantization radius, emit the code; otherwise store the value verbatim
//!    ("unpredictable");
//! 4. entropy-code the code stream with canonical Huffman; optionally apply a
//!    lossless pass over the unpredictable section.
//!
//! Zero-padding the Lorenzo stencil at boundaries degrades gracefully to the
//! lower-order predictor on faces/edges, exactly like SZ's boundary handling.
//!
//! The kernel guarantees `|x - x'|∞ <= eb` for every finite element; NaN and
//! infinite values always take the verbatim path and are reproduced
//! bit-exactly.

use pressio_codecs::{deflate, huffman, lz77, rans};
use pressio_core::{
    bytes_to_elements, elements_as_bytes, ByteReader, ByteWriter, Element, Error, Result,
};

/// Which lossless pass the kernel applies over its entropy-coded and
/// verbatim sections — the role zlib/zstd play for the reference SZ. The
/// discriminants are the on-wire tag bytes: 0/1 predate the enum (they
/// were a bool), so every existing stream keeps decoding unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LosslessBackend {
    /// No lossless pass (best-speed mode, `sz:sz_mode = 0`).
    None,
    /// LZ77 + canonical Huffman ("deflate-lite", the historical default).
    #[default]
    Deflate,
    /// LZ77 + static-table interleaved rANS: the same match modeling with
    /// a table-driven 12-bit entropy stage (denser codes, faster decode).
    Rans,
}

impl LosslessBackend {
    fn tag(self) -> u8 {
        match self {
            LosslessBackend::None => 0,
            LosslessBackend::Deflate => 1,
            LosslessBackend::Rans => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<LosslessBackend> {
        match tag {
            0 => Ok(LosslessBackend::None),
            1 => Ok(LosslessBackend::Deflate),
            2 => Ok(LosslessBackend::Rans),
            other => Err(Error::corrupt(format!(
                "unknown sz lossless backend tag {other}"
            ))),
        }
    }

    /// Apply this backend's lossless pass to one section.
    pub fn compress(self, data: &[u8]) -> Result<Vec<u8>> {
        match self {
            LosslessBackend::None => Ok(data.to_vec()),
            LosslessBackend::Deflate => deflate::compress(data),
            LosslessBackend::Rans => {
                pressio_core::cancel::checkpoint()?;
                let staged = lz77::compress(data);
                pressio_core::cancel::checkpoint()?;
                rans::compress(&staged)
            }
        }
    }

    /// Inverse of [`LosslessBackend::compress`].
    pub fn decompress(self, data: &[u8]) -> Result<Vec<u8>> {
        match self {
            LosslessBackend::None => Ok(data.to_vec()),
            LosslessBackend::Deflate => deflate::decompress(data),
            LosslessBackend::Rans => lz77::decompress(&rans::decompress(data)?),
        }
    }
}

/// Tuning parameters of one kernel invocation.
#[derive(Debug, Clone, Copy)]
pub struct SzParams {
    /// Absolute (already resolved) error bound; must be finite and > 0.
    pub abs_eb: f64,
    /// Quantization radius: codes span `[-(radius-1), radius-1]`; alphabet
    /// size is `2 * radius`.
    pub radius: u32,
    /// Lossless pass applied over the entropy-coded and verbatim sections.
    pub lossless: LosslessBackend,
}

impl Default for SzParams {
    fn default() -> Self {
        SzParams {
            abs_eb: 1e-6,
            radius: 32768,
            lossless: LosslessBackend::Deflate,
        }
    }
}

/// A float type the kernel can compress (f32 or f64).
pub trait SzFloat: Element {
    /// Exact conversion to the f64 arithmetic domain.
    fn to_f64x(self) -> f64;
    /// Truncating conversion back to storage precision.
    fn from_f64x(v: f64) -> Self;
    /// Borrow this type's reconstruction-shadow buffer from the worker's
    /// scratch arena (pair with [`SzFloat::put_scratch`]).
    fn take_scratch(s: &mut pressio_core::Scratch) -> Vec<Self>;
    /// Hand back the buffer taken by [`SzFloat::take_scratch`].
    fn put_scratch(s: &mut pressio_core::Scratch, buf: Vec<Self>);
}

impl SzFloat for f32 {
    #[inline]
    fn to_f64x(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64x(v: f64) -> Self {
        v as f32
    }
    fn take_scratch(s: &mut pressio_core::Scratch) -> Vec<f32> {
        std::mem::take(&mut s.f32s)
    }
    fn put_scratch(s: &mut pressio_core::Scratch, buf: Vec<f32>) {
        s.f32s = buf;
    }
}

impl SzFloat for f64 {
    #[inline]
    fn to_f64x(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64x(v: f64) -> Self {
        v
    }
    fn take_scratch(s: &mut pressio_core::Scratch) -> Vec<f64> {
        std::mem::take(&mut s.f64s)
    }
    fn put_scratch(s: &mut pressio_core::Scratch, buf: Vec<f64>) {
        s.f64s = buf;
    }
}

/// Collapse an n-d shape into at most 3 dims (leading dims merge), mirroring
/// how SZ treats >3-d data as 3-d with a large slow dimension.
fn effective_dims(dims: &[usize]) -> (usize, usize, usize) {
    // Drop length-1 dims: they add no spatial structure.
    let real: Vec<usize> = dims.iter().copied().filter(|&d| d > 1).collect();
    match real.len() {
        0 => (1, 1, 1),
        1 => (1, 1, real[0]),
        2 => (1, real[0], real[1]),
        _ => {
            let lead: usize = real[..real.len() - 2].iter().product();
            (lead, real[real.len() - 2], real[real.len() - 1])
        }
    }
}

/// Quantization codes + verbatim values produced by the prediction pass.
struct Quantized<T> {
    codes: Vec<u32>,
    unpredictable: Vec<T>,
}

/// One linear-scaling quantization step: records either a code or a verbatim
/// fallback and returns the value the decompressor will reconstruct.
#[inline(always)]
fn quantize_step<T: SzFloat>(
    val: T,
    pred: f64,
    eb: f64,
    two_eb: f64,
    radius: i64,
    codes: &mut Vec<u32>,
    unpredictable: &mut Vec<T>,
) -> T {
    let v = val.to_f64x();
    let diff = v - pred;
    let q = (diff / two_eb).round();
    if q.is_finite() && q.abs() < (radius - 1) as f64 {
        let qi = q as i64;
        let dec = T::from_f64x(pred + qi as f64 * two_eb);
        if (dec.to_f64x() - v).abs() <= eb {
            codes.push((radius + qi) as u32);
            return dec;
        }
    }
    codes.push(0);
    unpredictable.push(val);
    val
}

/// Quantize one row with the two-tap-plus-corner recurrence
/// `pred = west + other[x] - other[x-1]` (at `x == 0` just `other[0]`).
/// This is both the 2-d Lorenzo row (`other` = the row to the north) and the
/// `y == 0` row of a later plane (`other` = the same row one plane below):
/// the zero-padded stencil collapses to the identical formula in both cases.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn quantize_row_2d<T: SzFloat>(
    vals: &[T],
    other: &[T],
    out: &mut [T],
    eb: f64,
    two_eb: f64,
    radius: i64,
    codes: &mut Vec<u32>,
    unpredictable: &mut Vec<T>,
) {
    let Some((&val0, vals_rest)) = vals.split_first() else {
        return;
    };
    let mut o_prev = other[0].to_f64x();
    let dec = quantize_step(val0, o_prev, eb, two_eb, radius, codes, unpredictable);
    out[0] = dec;
    let mut w = dec.to_f64x();
    for ((dst, &val), &o) in out[1..].iter_mut().zip(vals_rest).zip(&other[1..]) {
        let ov = o.to_f64x();
        let pred = w + ov - o_prev;
        let dec = quantize_step(val, pred, eb, two_eb, radius, codes, unpredictable);
        *dst = dec;
        o_prev = ov;
        w = dec.to_f64x();
    }
}

fn predict_quantize<T: SzFloat>(data: &[T], dims: &[usize], p: &SzParams) -> Result<Quantized<T>> {
    let (nz, ny, nx) = effective_dims(dims);
    let n = data.len();
    debug_assert_eq!(nz * ny * nx, n);
    let eb = p.abs_eb;
    let two_eb = 2.0 * eb;
    let radius = p.radius as i64;
    // The stage's dominant buffers: codes (u32 per element) and the
    // reconstruction shadow (one T per element), both charged to the memory
    // budget. Both cycle through the worker's arena: `compress_body` hands
    // the codes back after entropy coding; the shadow goes back right below.
    // An early cancellation drops them, which only costs the capacity.
    let mut codes = pressio_core::with_scratch(|s| std::mem::take(&mut s.u32s));
    codes.clear();
    pressio_core::alloc::try_reserve(&mut codes, n)?;
    let mut unpredictable = Vec::new();
    // Reconstructed values drive prediction: decompressor state == here.
    let mut recon = pressio_core::with_scratch(T::take_scratch);
    recon.clear();
    pressio_core::alloc::try_reserve(&mut recon, n)?;
    recon.resize(n, T::from_f64x(0.0));
    let mut cp = pressio_core::cancel::Checkpointer::new(1);

    let plane = ny * nx;
    for z in 0..nz {
        for y in 0..ny {
            // Cooperation point once per row: a tripped token stops the
            // predictor mid-field instead of finishing the whole pass.
            cp.tick()?;
            let row = z * plane + y * nx;
            let (done, rest) = recon.split_at_mut(row);
            let cur = &mut rest[..nx];
            let vals = &data[row..row + nx];
            // Each (z, y) region fixes which Lorenzo taps are zero-padded,
            // so every row runs a straight-line specialized loop instead of
            // testing boundaries tap-by-tap per element. Term order matches
            // the reference stencil exactly (dropped taps are exact zeros),
            // so the streams are bit-identical — see the equivalence tests.
            match (z > 0, y > 0) {
                (false, false) => {
                    // Very first row: 1-d Lorenzo, pred = west neighbor.
                    let mut w = 0.0f64;
                    for (dst, &val) in cur.iter_mut().zip(vals) {
                        let dec =
                            quantize_step(val, w, eb, two_eb, radius, &mut codes, &mut unpredictable);
                        *dst = dec;
                        w = dec.to_f64x();
                    }
                }
                (false, true) => {
                    let north = &done[row - nx..];
                    quantize_row_2d(
                        vals, north, cur, eb, two_eb, radius, &mut codes, &mut unpredictable,
                    );
                }
                (true, false) => {
                    let below = &done[row - plane..row - plane + nx];
                    quantize_row_2d(
                        vals, below, cur, eb, two_eb, radius, &mut codes, &mut unpredictable,
                    );
                }
                (true, true) => {
                    // Interior rows: the full 7-tap stencil. Neighbor rows
                    // are contiguous slices; the x-1 taps are loop carries.
                    let north = &done[row - nx..];
                    let below = &done[row - plane..row - plane + nx];
                    let below_north = &done[row - plane - nx..row - plane];
                    let Some((&val0, vals_rest)) = vals.split_first() else {
                        continue;
                    };
                    let mut nw = north[0].to_f64x();
                    let mut dw = below[0].to_f64x();
                    let mut dnw = below_north[0].to_f64x();
                    let pred0 = nw + dw - dnw;
                    let dec =
                        quantize_step(val0, pred0, eb, two_eb, radius, &mut codes, &mut unpredictable);
                    cur[0] = dec;
                    let mut w = dec.to_f64x();
                    for (((dst, &val), (&nb, &db)), &dnb) in cur[1..]
                        .iter_mut()
                        .zip(vals_rest)
                        .zip(north[1..].iter().zip(&below[1..]))
                        .zip(&below_north[1..])
                    {
                        let nv = nb.to_f64x();
                        let dv = db.to_f64x();
                        let dnv = dnb.to_f64x();
                        let pred = w + nv + dv - nw - dw - dnv + dnw;
                        let dec = quantize_step(
                            val, pred, eb, two_eb, radius, &mut codes, &mut unpredictable,
                        );
                        *dst = dec;
                        nw = nv;
                        dw = dv;
                        dnw = dnv;
                        w = dec.to_f64x();
                    }
                }
            }
        }
    }
    pressio_core::with_scratch(|s| {
        recon.clear();
        T::put_scratch(s, recon);
    });
    Ok(Quantized {
        codes,
        unpredictable,
    })
}

/// Mirror of [`quantize_step`]: resolve one code (or consume one verbatim
/// value) against the prediction.
#[inline(always)]
fn reconstruct_step<T: SzFloat>(
    code: u32,
    pred: f64,
    two_eb: f64,
    radius: i64,
    unpredictable: &[T],
    next_unpred: &mut usize,
) -> Result<T> {
    if code == 0 {
        let v = *unpredictable
            .get(*next_unpred)
            .ok_or_else(|| Error::corrupt("sz stream exhausted unpredictable values"))?;
        *next_unpred += 1;
        Ok(v)
    } else {
        let qi = code as i64 - radius;
        Ok(T::from_f64x(pred + qi as f64 * two_eb))
    }
}

/// Mirror of [`quantize_row_2d`] on the decode side.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn reconstruct_row_2d<T: SzFloat>(
    codes: &[u32],
    other: &[T],
    out: &mut [T],
    two_eb: f64,
    radius: i64,
    unpredictable: &[T],
    next_unpred: &mut usize,
) -> Result<()> {
    let Some((&c0, codes_rest)) = codes.split_first() else {
        return Ok(());
    };
    let mut o_prev = other[0].to_f64x();
    let dec = reconstruct_step(c0, o_prev, two_eb, radius, unpredictable, next_unpred)?;
    out[0] = dec;
    let mut w = dec.to_f64x();
    for ((dst, &c), &o) in out[1..].iter_mut().zip(codes_rest).zip(&other[1..]) {
        let ov = o.to_f64x();
        let pred = w + ov - o_prev;
        let dec = reconstruct_step(c, pred, two_eb, radius, unpredictable, next_unpred)?;
        *dst = dec;
        o_prev = ov;
        w = dec.to_f64x();
    }
    Ok(())
}

fn predict_reconstruct<T: SzFloat>(
    codes: &[u32],
    unpredictable: &[T],
    dims: &[usize],
    p: &SzParams,
) -> Result<Vec<T>> {
    let (nz, ny, nx) = effective_dims(dims);
    let n = nz * ny * nx;
    if codes.len() != n {
        return Err(Error::corrupt(format!(
            "sz stream has {} codes for {} elements",
            codes.len(),
            n
        )));
    }
    let two_eb = 2.0 * p.abs_eb;
    let radius = p.radius as i64;
    // The reconstruction is the caller's output, so it cannot come from the
    // arena; it is allocated exactly once.
    let mut recon = pressio_core::alloc::try_zeroed_vec::<T>(n)?;
    let mut next_unpred = 0usize;
    let mut cp = pressio_core::cancel::Checkpointer::new(1);
    let plane = ny * nx;
    for z in 0..nz {
        for y in 0..ny {
            cp.tick()?;
            let row = z * plane + y * nx;
            let (done, rest) = recon.split_at_mut(row);
            let cur = &mut rest[..nx];
            let row_codes = &codes[row..row + nx];
            // Region specialization mirrors `predict_quantize` exactly; the
            // same carries, slices, and term order keep reconstruction
            // bit-identical to the reference stencil.
            match (z > 0, y > 0) {
                (false, false) => {
                    let mut w = 0.0f64;
                    for (dst, &c) in cur.iter_mut().zip(row_codes) {
                        let dec =
                            reconstruct_step(c, w, two_eb, radius, unpredictable, &mut next_unpred)?;
                        *dst = dec;
                        w = dec.to_f64x();
                    }
                }
                (false, true) => {
                    let north = &done[row - nx..];
                    reconstruct_row_2d(
                        row_codes,
                        north,
                        cur,
                        two_eb,
                        radius,
                        unpredictable,
                        &mut next_unpred,
                    )?;
                }
                (true, false) => {
                    let below = &done[row - plane..row - plane + nx];
                    reconstruct_row_2d(
                        row_codes,
                        below,
                        cur,
                        two_eb,
                        radius,
                        unpredictable,
                        &mut next_unpred,
                    )?;
                }
                (true, true) => {
                    let north = &done[row - nx..];
                    let below = &done[row - plane..row - plane + nx];
                    let below_north = &done[row - plane - nx..row - plane];
                    let Some((&c0, codes_rest)) = row_codes.split_first() else {
                        continue;
                    };
                    let mut nw = north[0].to_f64x();
                    let mut dw = below[0].to_f64x();
                    let mut dnw = below_north[0].to_f64x();
                    let pred0 = nw + dw - dnw;
                    let dec =
                        reconstruct_step(c0, pred0, two_eb, radius, unpredictable, &mut next_unpred)?;
                    cur[0] = dec;
                    let mut w = dec.to_f64x();
                    for (((dst, &c), (&nb, &db)), &dnb) in cur[1..]
                        .iter_mut()
                        .zip(codes_rest)
                        .zip(north[1..].iter().zip(&below[1..]))
                        .zip(&below_north[1..])
                    {
                        let nv = nb.to_f64x();
                        let dv = db.to_f64x();
                        let dnv = dnb.to_f64x();
                        let pred = w + nv + dv - nw - dw - dnv + dnw;
                        let dec = reconstruct_step(
                            c,
                            pred,
                            two_eb,
                            radius,
                            unpredictable,
                            &mut next_unpred,
                        )?;
                        *dst = dec;
                        nw = nv;
                        dw = dv;
                        dnw = dnv;
                        w = dec.to_f64x();
                    }
                }
            }
        }
    }
    if next_unpred != unpredictable.len() {
        return Err(Error::corrupt("sz stream has surplus unpredictable values"));
    }
    Ok(recon)
}

/// Magic bytes of an SZ-style stream body.
const BODY_MAGIC: u32 = 0x535A_4C50; // "SZLP"

/// Compress a typed slice, producing a self-contained stream body (the
/// plugin prepends its own envelope with dtype/dims).
pub fn compress_body<T: SzFloat>(data: &[T], dims: &[usize], p: &SzParams) -> Result<Vec<u8>> {
    if !(p.abs_eb.is_finite() && p.abs_eb > 0.0) {
        return Err(Error::invalid_argument(format!(
            "absolute error bound must be positive and finite, got {}",
            p.abs_eb
        )));
    }
    if !(2..=1 << 20).contains(&p.radius) {
        return Err(Error::invalid_argument(format!(
            "quantization radius {} out of range",
            p.radius
        )));
    }
    let Quantized {
        mut codes,
        unpredictable,
    } = {
        let _s = pressio_core::trace::span("sz:predict_quantize");
        predict_quantize(data, dims, p)?
    };
    // Stage boundary: stop before entropy coding when the token tripped.
    pressio_core::cancel::checkpoint()?;
    let huff_raw = {
        let _s = pressio_core::trace::span("sz:huffman_encode");
        huffman::encode(&codes, 2 * p.radius)?
    };
    // Codes are coded: hand the buffer back before the deflate stage, whose
    // byte-Huffman staging wants the same arena slot.
    pressio_core::with_scratch(|s| {
        codes.clear();
        s.u32s = codes;
    });
    pressio_core::cancel::checkpoint()?;
    let unpred_bytes = elements_as_bytes(&unpredictable);
    // Best-compression mode (sz_mode = 1) applies the lossless backend over
    // both sections, like SZ's gzip/zstd stage; best-speed mode skips it.
    let (huff, unpred_payload) = match p.lossless {
        LosslessBackend::None => (huff_raw, unpred_bytes.to_vec()),
        backend => {
            let _s = pressio_core::trace::span(match backend {
                LosslessBackend::Rans => "sz:rans",
                _ => "sz:deflate",
            });
            (backend.compress(&huff_raw)?, backend.compress(unpred_bytes)?)
        }
    };
    let mut w = ByteWriter::with_capacity(huff.len() + unpred_payload.len() + 64);
    w.put_u32(BODY_MAGIC);
    w.put_f64(p.abs_eb);
    w.put_u32(p.radius);
    w.put_u8(p.lossless.tag());
    w.put_u64(unpredictable.len() as u64);
    w.put_section(&huff);
    w.put_section(&unpred_payload);
    Ok(w.into_vec())
}

/// Decompress a stream body produced by [`compress_body`].
pub fn decompress_body<T: SzFloat>(body: &[u8], dims: &[usize]) -> Result<Vec<T>> {
    let mut r = ByteReader::new(body);
    let magic = r.get_u32()?;
    if magic != BODY_MAGIC {
        return Err(Error::corrupt("bad sz body magic"));
    }
    let abs_eb = r.get_f64()?;
    let radius = r.get_u32()?;
    if !(2..=1 << 20).contains(&radius) {
        return Err(Error::corrupt("sz radius out of range"));
    }
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(Error::corrupt("sz stream carries invalid error bound"));
    }
    let lossless = LosslessBackend::from_tag(r.get_u8()?)?;
    let n_unpred = r.get_len()?;
    let huff_section = r.get_section()?;
    let unpred_payload = r.get_section()?;
    let (huff, unpred_bytes) = match lossless {
        LosslessBackend::None => (huff_section.to_vec(), unpred_payload.to_vec()),
        backend => {
            let _s = pressio_core::trace::span(match backend {
                LosslessBackend::Rans => "sz:rans_decode",
                _ => "sz:deflate_decode",
            });
            (backend.decompress(huff_section)?, backend.decompress(unpred_payload)?)
        }
    };
    pressio_core::cancel::checkpoint()?;
    let codes = {
        let _s = pressio_core::trace::span("sz:huffman_decode");
        huffman::decode(&huff)?
    };
    pressio_core::cancel::checkpoint()?;
    let unpredictable: Vec<T> = bytes_to_elements(&unpred_bytes)?;
    if unpredictable.len() != n_unpred {
        return Err(Error::corrupt(format!(
            "sz stream declares {n_unpred} unpredictable values, decoded {}",
            unpredictable.len()
        )));
    }
    let p = SzParams {
        abs_eb,
        radius,
        lossless,
    };
    let out = {
        let _s = pressio_core::trace::span("sz:reconstruct");
        predict_reconstruct(&codes, &unpredictable, dims, &p)
    };
    // Recycle the decoded code buffer for the next body on this worker.
    pressio_core::with_scratch(|s| {
        let mut codes = codes;
        codes.clear();
        s.u32s = codes;
    });
    out
}

/// Compression/decompression roundtrip measurement used in tests and tuning:
/// returns (compressed size, max abs error).
#[cfg(test)]
fn roundtrip_stats<T: SzFloat>(data: &[T], dims: &[usize], p: &SzParams) -> (usize, f64) {
    let body = compress_body(data, dims, p).unwrap();
    let back: Vec<T> = decompress_body(&body, dims).unwrap();
    let max_err = data
        .iter()
        .zip(&back)
        .map(|(a, b)| (a.to_f64x() - b.to_f64x()).abs())
        .fold(0.0f64, f64::max);
    (body.len(), max_err)
}

/// The original closure-based Lorenzo kernels, retained verbatim as the
/// reference the specialized row loops are proven bit-identical against.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn predict_quantize<T: SzFloat>(
        data: &[T],
        dims: &[usize],
        p: &SzParams,
    ) -> Result<Quantized<T>> {
        let (nz, ny, nx) = effective_dims(dims);
        let n = data.len();
        let eb = p.abs_eb;
        let two_eb = 2.0 * eb;
        let radius = p.radius as i64;
        let mut codes = Vec::with_capacity(n);
        let mut unpredictable = Vec::new();
        let mut recon = vec![T::from_f64x(0.0); n];
        let plane = ny * nx;
        for z in 0..nz {
            for y in 0..ny {
                let row = z * plane + y * nx;
                for x in 0..nx {
                    let i = row + x;
                    let r = |dz: usize, dy: usize, dx: usize| -> f64 {
                        if (dz > z) || (dy > y) || (dx > x) {
                            0.0
                        } else {
                            recon[i - dz * plane - dy * nx - dx].to_f64x()
                        }
                    };
                    let pred = r(0, 0, 1) + r(0, 1, 0) + r(1, 0, 0) - r(0, 1, 1) - r(1, 0, 1)
                        - r(1, 1, 0)
                        + r(1, 1, 1);
                    let val = data[i].to_f64x();
                    let diff = val - pred;
                    let q = (diff / two_eb).round();
                    let mut stored = false;
                    if q.is_finite() && q.abs() < (radius - 1) as f64 {
                        let qi = q as i64;
                        let dec = T::from_f64x(pred + qi as f64 * two_eb);
                        if (dec.to_f64x() - val).abs() <= eb {
                            codes.push((radius + qi) as u32);
                            recon[i] = dec;
                            stored = true;
                        }
                    }
                    if !stored {
                        codes.push(0);
                        unpredictable.push(data[i]);
                        recon[i] = data[i];
                    }
                }
            }
        }
        Ok(Quantized {
            codes,
            unpredictable,
        })
    }

    pub(super) fn predict_reconstruct<T: SzFloat>(
        codes: &[u32],
        unpredictable: &[T],
        dims: &[usize],
        p: &SzParams,
    ) -> Result<Vec<T>> {
        let (nz, ny, nx) = effective_dims(dims);
        let n = nz * ny * nx;
        assert_eq!(codes.len(), n);
        let two_eb = 2.0 * p.abs_eb;
        let radius = p.radius as i64;
        let mut recon = vec![T::from_f64x(0.0); n];
        let mut next_unpred = 0usize;
        let plane = ny * nx;
        for z in 0..nz {
            for y in 0..ny {
                let row = z * plane + y * nx;
                for x in 0..nx {
                    let i = row + x;
                    let code = codes[i];
                    if code == 0 {
                        recon[i] = unpredictable[next_unpred];
                        next_unpred += 1;
                    } else {
                        let r = |dz: usize, dy: usize, dx: usize| -> f64 {
                            if (dz > z) || (dy > y) || (dx > x) {
                                0.0
                            } else {
                                recon[i - dz * plane - dy * nx - dx].to_f64x()
                            }
                        };
                        let pred = r(0, 0, 1) + r(0, 1, 0) + r(1, 0, 0)
                            - r(0, 1, 1)
                            - r(1, 0, 1)
                            - r(1, 1, 0)
                            + r(1, 1, 1);
                        let qi = code as i64 - radius;
                        recon[i] = T::from_f64x(pred + qi as f64 * two_eb);
                    }
                }
            }
        }
        assert_eq!(next_unpred, unpredictable.len());
        Ok(recon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_3d(nz: usize, ny: usize, nx: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let (zf, yf, xf) = (z as f64, y as f64, x as f64);
                    v.push(
                        (xf * 0.07).sin() * (yf * 0.05).cos() * (zf * 0.11 + 1.0)
                            + 0.3 * (xf * 0.013 * yf * 0.011).sin(),
                    );
                }
            }
        }
        v
    }

    /// A field that exercises every quantizer path: smooth regions (coded),
    /// spikes (verbatim), and non-finite values (always verbatim).
    fn adversarial_field(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.07).sin() * 3.0 + (i as f64 * 0.011).cos())
            .collect();
        for i in (0..n).step_by(97) {
            v[i] *= 1e12;
        }
        if n > 50 {
            v[13] = f64::NAN;
            v[29] = f64::INFINITY;
            v[47] = -0.0;
        }
        v
    }

    #[test]
    fn specialized_kernels_match_reference_bit_for_bit_f64() {
        for dims in [
            vec![720],
            vec![24, 30],
            vec![10, 9, 8],
            vec![3, 4, 5, 6],
            vec![1, 17, 1, 13],
            vec![2, 1, 300],
        ] {
            let n: usize = dims.iter().product();
            let data = adversarial_field(n);
            let p = SzParams {
                abs_eb: 1e-3,
                radius: 512,
                ..Default::default()
            };
            let a = predict_quantize(&data, &dims, &p).unwrap();
            let b = reference::predict_quantize(&data, &dims, &p).unwrap();
            assert_eq!(a.codes, b.codes, "codes diverge for dims {dims:?}");
            assert_eq!(
                elements_as_bytes(&a.unpredictable),
                elements_as_bytes(&b.unpredictable),
                "verbatim section diverges for dims {dims:?}"
            );
            let ra = predict_reconstruct(&a.codes, &a.unpredictable, &dims, &p).unwrap();
            let rb = reference::predict_reconstruct(&b.codes, &b.unpredictable, &dims, &p).unwrap();
            assert_eq!(
                elements_as_bytes(&ra),
                elements_as_bytes(&rb),
                "reconstruction diverges for dims {dims:?}"
            );
        }
    }

    #[test]
    fn specialized_kernels_match_reference_bit_for_bit_f32() {
        let dims = vec![7, 11, 13];
        let n: usize = dims.iter().product();
        let data: Vec<f32> = adversarial_field(n).iter().map(|&v| v as f32).collect();
        let p = SzParams {
            abs_eb: 1e-2,
            ..Default::default()
        };
        let a = predict_quantize(&data, &dims, &p).unwrap();
        let b = reference::predict_quantize(&data, &dims, &p).unwrap();
        assert_eq!(a.codes, b.codes);
        assert_eq!(
            elements_as_bytes(&a.unpredictable),
            elements_as_bytes(&b.unpredictable)
        );
        let ra = predict_reconstruct(&a.codes, &a.unpredictable, &dims, &p).unwrap();
        let rb = reference::predict_reconstruct(&b.codes, &b.unpredictable, &dims, &p).unwrap();
        assert_eq!(elements_as_bytes(&ra), elements_as_bytes(&rb));
    }

    #[test]
    fn error_bound_respected_1d() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.01).sin() * 50.0).collect();
        for eb in [1.0, 1e-2, 1e-4, 1e-8] {
            let p = SzParams {
                abs_eb: eb,
                ..Default::default()
            };
            let (_, max_err) = roundtrip_stats(&data, &[10_000], &p);
            assert!(max_err <= eb, "eb {eb}: max_err {max_err}");
        }
    }

    #[test]
    fn error_bound_respected_3d_f32() {
        let data: Vec<f32> = smooth_3d(16, 32, 32).iter().map(|&v| v as f32).collect();
        for eb in [1e-1, 1e-3] {
            let p = SzParams {
                abs_eb: eb,
                ..Default::default()
            };
            let (_, max_err) = roundtrip_stats(&data, &[16, 32, 32], &p);
            assert!(max_err <= eb, "eb {eb}: max_err {max_err}");
        }
    }

    #[test]
    fn smooth_data_compresses_strongly() {
        let data = smooth_3d(16, 64, 64);
        let p = SzParams {
            abs_eb: 1e-3,
            ..Default::default()
        };
        let (size, _) = roundtrip_stats(&data, &[16, 64, 64], &p);
        let ratio = (data.len() * 8) as f64 / size as f64;
        assert!(ratio > 8.0, "expected ratio > 8, got {ratio:.2}");
    }

    #[test]
    fn correct_dims_beat_flattened_1d() {
        // The Section V phenomenon: flattening multi-d data to 1-d loses
        // the higher-order Lorenzo prediction and hence compression ratio.
        let data = smooth_3d(16, 64, 64);
        let p = SzParams {
            abs_eb: 1e-4,
            ..Default::default()
        };
        let (sz_3d, _) = roundtrip_stats(&data, &[16, 64, 64], &p);
        let (sz_1d, _) = roundtrip_stats(&data, &[16 * 64 * 64], &p);
        assert!(
            sz_3d < sz_1d,
            "3d-aware should beat flattened: {sz_3d} vs {sz_1d}"
        );
    }

    #[test]
    fn constant_data_is_tiny() {
        let data = vec![42.0f64; 100_000];
        let p = SzParams {
            abs_eb: 1e-6,
            ..Default::default()
        };
        let (size, max_err) = roundtrip_stats(&data, &[100_000], &p);
        assert_eq!(max_err, 0.0);
        assert!(size < 2000, "constant data compressed to {size} bytes");
    }

    #[test]
    fn nan_and_inf_survive_verbatim() {
        let mut data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        data[17] = f64::NAN;
        data[500] = f64::INFINITY;
        data[900] = f64::NEG_INFINITY;
        let p = SzParams {
            abs_eb: 0.1,
            ..Default::default()
        };
        let body = compress_body(&data, &[1000], &p).unwrap();
        let back: Vec<f64> = decompress_body(&body, &[1000]).unwrap();
        assert!(back[17].is_nan());
        assert_eq!(back[500], f64::INFINITY);
        assert_eq!(back[900], f64::NEG_INFINITY);
        for (i, (a, b)) in data.iter().zip(&back).enumerate() {
            if a.is_finite() {
                assert!((a - b).abs() <= 0.1, "index {i}");
            }
        }
    }

    #[test]
    fn spiky_data_falls_back_to_verbatim() {
        // Alternating huge magnitudes defeat prediction; bound still holds.
        let data: Vec<f64> = (0..5000)
            .map(|i| if i % 2 == 0 { 1e15 } else { -1e15 } * (1.0 + i as f64 * 1e-7))
            .collect();
        let p = SzParams {
            abs_eb: 1e-3,
            ..Default::default()
        };
        let (_, max_err) = roundtrip_stats(&data, &[5000], &p);
        assert!(max_err <= 1e-3);
    }

    #[test]
    fn small_radius_still_bounds_error() {
        let data: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.1).sin() * 1000.0).collect();
        let p = SzParams {
            abs_eb: 1e-6,
            radius: 16,
            ..Default::default()
        };
        let (_, max_err) = roundtrip_stats(&data, &[2000], &p);
        assert!(max_err <= 1e-6);
    }

    #[test]
    fn invalid_params_rejected() {
        let data = vec![1.0f64; 10];
        for eb in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let p = SzParams {
                abs_eb: eb,
                ..Default::default()
            };
            assert!(compress_body(&data, &[10], &p).is_err(), "eb {eb}");
        }
        let p = SzParams {
            radius: 1,
            ..Default::default()
        };
        assert!(compress_body(&data, &[10], &p).is_err());
    }

    #[test]
    fn corrupt_body_errors_not_panics() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let p = SzParams {
            abs_eb: 1e-3,
            ..Default::default()
        };
        let body = compress_body(&data, &[500], &p).unwrap();
        for cut in (0..body.len()).step_by(7) {
            let _ = decompress_body::<f64>(&body[..cut], &[500]);
        }
        for i in (0..body.len()).step_by(11) {
            let mut bad = body.clone();
            bad[i] ^= 0xA5;
            let _ = decompress_body::<f64>(&bad, &[500]);
        }
    }

    #[test]
    fn length_one_dims_are_squeezed() {
        let data = smooth_3d(1, 32, 32);
        let p = SzParams {
            abs_eb: 1e-4,
            ..Default::default()
        };
        let a = compress_body(&data, &[1, 32, 32], &p).unwrap();
        let b = compress_body(&data, &[32, 32], &p).unwrap();
        assert_eq!(a.len(), b.len());
    }
}
