//! The ZFP floating-point kernel: block quantization to a common exponent,
//! transform coding, and the three classic modes (fixed rate, fixed
//! precision, fixed accuracy).
//!
//! The kernel natively thinks in **Fortran dimension order** (`x` fastest),
//! like the real ZFP library; the plugin layer translates from the uniform
//! C ordering of the generic interface, transparently to users — the exact
//! transparency the paper's Section IV-B argues for.

use pressio_codecs::bitstream::{BitReader, BitWriter};
use pressio_core::{Error, Result, Scratch};

use crate::bitbudget::{BudgetReader, BudgetWriter};
use crate::block::{
    decode_ints, encode_ints, fwd_xform, int2uint, inv_xform, perm, uint2int, INTPREC,
};

/// IEEE double exponent bias.
const EBIAS: i32 = 1023;
/// Bits used to code a block's common exponent (+1 for the nonzero flag).
const EBITS: u32 = 11;

/// Compression mode, mirroring `zfp_stream_set_rate/precision/accuracy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZfpMode {
    /// Fixed rate in (amortized) bits per value: every block occupies exactly
    /// `rate * 4^d` bits — supports random access and exact size planning.
    FixedRate(f64),
    /// Fixed precision: at most this many bit planes per block.
    FixedPrecision(u32),
    /// Fixed accuracy: absolute error tolerance.
    FixedAccuracy(f64),
}

impl ZfpMode {
    /// Stable tag for stream headers.
    pub fn tag(&self) -> u8 {
        match self {
            ZfpMode::FixedRate(_) => 0,
            ZfpMode::FixedPrecision(_) => 1,
            ZfpMode::FixedAccuracy(_) => 2,
        }
    }

    /// Numeric parameter for stream headers.
    pub fn param(&self) -> f64 {
        match self {
            ZfpMode::FixedRate(r) => *r,
            ZfpMode::FixedPrecision(p) => *p as f64,
            ZfpMode::FixedAccuracy(t) => *t,
        }
    }

    /// Rebuild from header tag + parameter.
    pub fn from_tag(tag: u8, param: f64) -> Result<ZfpMode> {
        Ok(match tag {
            0 => ZfpMode::FixedRate(param),
            1 => ZfpMode::FixedPrecision(param as u32),
            2 => ZfpMode::FixedAccuracy(param),
            other => return Err(Error::corrupt(format!("unknown zfp mode tag {other}"))),
        })
    }

    /// Validate user-supplied parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            ZfpMode::FixedRate(r) => {
                if !(r.is_finite() && (0.5..=64.0).contains(&r)) {
                    return Err(Error::invalid_argument(format!(
                        "rate must be in [0.5, 64] bits/value, got {r}"
                    )));
                }
            }
            ZfpMode::FixedPrecision(p) => {
                if !(1..=64).contains(&p) {
                    return Err(Error::invalid_argument(format!(
                        "precision must be in [1, 64] bit planes, got {p}"
                    )));
                }
            }
            ZfpMode::FixedAccuracy(t) => {
                if !(t.is_finite() && t > 0.0) {
                    return Err(Error::invalid_argument(format!(
                        "tolerance must be positive and finite, got {t}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Resolved per-stream coding parameters.
#[derive(Debug, Clone, Copy)]
struct Params {
    /// Exact bit budget per block (u64::MAX/2 when unconstrained).
    maxbits: u64,
    /// Whether blocks are padded to exactly `maxbits` (fixed rate).
    fixed_size: bool,
    maxprec: u32,
    minexp: i32,
}

fn resolve(mode: ZfpMode, d: usize) -> Params {
    let blocksize = 1u64 << (2 * d);
    match mode {
        ZfpMode::FixedRate(rate) => {
            let maxbits = ((rate * blocksize as f64).ceil() as u64).max((EBITS + 1) as u64 + 1);
            Params {
                maxbits,
                fixed_size: true,
                maxprec: INTPREC,
                minexp: -(EBIAS + 51),
            }
        }
        ZfpMode::FixedPrecision(p) => Params {
            maxbits: u64::MAX / 2,
            fixed_size: false,
            maxprec: p.min(INTPREC),
            minexp: -(EBIAS + 51),
        },
        ZfpMode::FixedAccuracy(tol) => Params {
            maxbits: u64::MAX / 2,
            fixed_size: false,
            maxprec: INTPREC,
            minexp: tol.log2().floor() as i32,
        },
    }
}

/// ZFP's `precision()`: bit planes worth coding for a block with maximum
/// exponent `emax`.
fn precision(emax: i32, maxprec: u32, minexp: i32, d: usize) -> u32 {
    let guard = 2 * (d as i32 + 1);
    maxprec.min((emax - minexp + guard).max(0) as u32)
}

/// frexp-style exponent of `|x|`, clamped to the normal range like ZFP.
#[inline]
fn exponent(x: f64) -> i32 {
    let a = x.abs();
    if a > 0.0 {
        let bits = a.to_bits();
        let ef = (bits >> 52) as i32 & 0x7FF;
        let e = if ef > 0 {
            ef - (EBIAS - 1)
        } else {
            // Subnormal: derive from the mantissa's leading zeros.
            let mant = bits & ((1u64 << 52) - 1);
            let lz = mant.leading_zeros() as i32;
            -1010 - lz
        };
        e.max(1 - EBIAS)
    } else {
        -EBIAS
    }
}

/// Exact scale by a power of two without forming 2^e separately.
#[inline]
fn ldexp2(x: f64, e: i32) -> f64 {
    #[inline]
    fn pow2(e: i32) -> f64 {
        debug_assert!((-1022..=1023).contains(&e));
        f64::from_bits(((e + EBIAS) as u64) << 52)
    }
    if (-1022..=1023).contains(&e) {
        x * pow2(e)
    } else if e > 0 {
        x * pow2(1023) * pow2(e - 1023)
    } else {
        x * pow2(-1022) * pow2((e + 1022).max(-1022))
    }
}

fn encode_block(
    w: &mut BitWriter,
    fblock: &[f64],
    d: usize,
    p: &Params,
    s: &mut Scratch,
) {
    let start = w.len_bits();
    let emax = fblock.iter().map(|&x| exponent(x)).max().unwrap_or(-EBIAS);
    let maxprec = precision(emax, p.maxprec, p.minexp, d);
    let all_zero = fblock.iter().all(|&x| x == 0.0);
    let e = if maxprec == 0 || all_zero {
        0u64
    } else {
        (emax + EBIAS) as u64
    };
    if e > 0 {
        let mut bw = BudgetWriter::new(w);
        bw.write_bits(2 * e + 1, EBITS + 1);
        // Quantize to the block's common exponent, staging through the
        // thread-local scratch arena (no per-block allocation).
        s.i64s.clear();
        s.i64s.extend(
            fblock
                .iter()
                .map(|&x| ldexp2(x, (INTPREC as i32 - 2) - emax) as i64),
        );
        fwd_xform(&mut s.i64s, d);
        let order = perm(d);
        s.u64s.clear();
        s.u64s.extend(order.iter().map(|&i| int2uint(s.i64s[i])));
        let budget = p.maxbits - (EBITS as u64 + 1);
        encode_ints(&mut bw, budget, maxprec, &s.u64s);
    } else {
        w.write_bit(false);
    }
    if p.fixed_size {
        let used = w.len_bits() - start;
        debug_assert!(used <= p.maxbits);
        for _ in used..p.maxbits {
            w.write_bit(false);
        }
    }
}

fn decode_block(
    r: &mut BitReader<'_>,
    out: &mut [f64],
    d: usize,
    p: &Params,
    s: &mut Scratch,
) -> Result<()> {
    let blocksize = 1usize << (2 * d);
    debug_assert_eq!(out.len(), blocksize);
    let mut used: u64 = 1;
    if r.read_bit()? {
        let e = {
            let mut br = BudgetReader::new(r);
            br.read_bits(EBITS)?
        };
        used += EBITS as u64;
        // We wrote 2e+1 in 12 bits; the low flag bit was consumed above, so
        // the remaining 11 bits are e = emax + EBIAS.
        let emax = e as i32 - EBIAS;
        let maxprec = precision(emax, p.maxprec, p.minexp, d);
        s.u64s.clear();
        s.u64s.resize(blocksize, 0);
        let budget = p.maxbits - (EBITS as u64 + 1);
        let mut br = BudgetReader::new(r);
        used += decode_ints(&mut br, budget, maxprec, &mut s.u64s)?;
        let order = perm(d);
        s.i64s.clear();
        s.i64s.resize(blocksize, 0);
        for (seq, &i) in order.iter().enumerate() {
            s.i64s[i] = uint2int(s.u64s[seq]);
        }
        inv_xform(&mut s.i64s, d);
        for (o, &q) in out.iter_mut().zip(s.i64s.iter()) {
            *o = ldexp2(q as f64, emax - (INTPREC as i32 - 2));
        }
    } else {
        out.fill(0.0);
    }
    if p.fixed_size {
        r.skip(p.maxbits - used)?;
    }
    Ok(())
}

/// Gather a 4^d block at origin `(bx, by, bz)` from a Fortran-ordered array,
/// replicating edge values for partial blocks.
#[allow(clippy::too_many_arguments)]
fn gather(
    data: &[f64],
    nx: usize,
    ny: usize,
    nz: usize,
    bx: usize,
    by: usize,
    bz: usize,
    d: usize,
    block: &mut [f64],
) {
    let mut idx = 0;
    let zs = if d >= 3 { 4 } else { 1 };
    let ys = if d >= 2 { 4 } else { 1 };
    for dz in 0..zs {
        let z = (bz + dz).min(nz - 1);
        for dy in 0..ys {
            let y = (by + dy).min(ny - 1);
            for dx in 0..4 {
                let x = (bx + dx).min(nx - 1);
                block[idx] = data[(z * ny + y) * nx + x];
                idx += 1;
            }
        }
    }
}

/// Scatter a decoded block back, discarding padded lanes.
#[allow(clippy::too_many_arguments)]
fn scatter(
    out: &mut [f64],
    nx: usize,
    ny: usize,
    nz: usize,
    bx: usize,
    by: usize,
    bz: usize,
    d: usize,
    block: &[f64],
) {
    let mut idx = 0;
    let zs = if d >= 3 { 4 } else { 1 };
    let ys = if d >= 2 { 4 } else { 1 };
    for dz in 0..zs {
        let z = bz + dz;
        for dy in 0..ys {
            let y = by + dy;
            for dx in 0..4 {
                let x = bx + dx;
                if x < nx && y < ny && z < nz {
                    out[(z * ny + y) * nx + x] = block[idx];
                }
                idx += 1;
            }
        }
    }
}

/// Normalize Fortran dims to exactly (nx, ny, nz, d) with 1 <= d <= 3.
fn normalize_dims(fdims: &[usize]) -> Result<(usize, usize, usize, usize)> {
    if fdims.is_empty() || fdims.contains(&0) {
        return Err(Error::invalid_argument(format!(
            "invalid dimensions {fdims:?}"
        )));
    }
    match fdims.len() {
        1 => Ok((fdims[0], 1, 1, 1)),
        2 => Ok((fdims[0], fdims[1], 1, 2)),
        3 => Ok((fdims[0], fdims[1], fdims[2], 3)),
        // Collapse trailing (slow) dims into z, like treating >3-d data as
        // 3-d with a large slow dimension.
        _ => Ok((
            fdims[0],
            fdims[1],
            fdims[2..].iter().product(),
            3,
        )),
    }
}

/// Linearized 4^d block grid over a normalized geometry. Blocks are numbered
/// x-fastest (the exact order of the classic serial loop), so splitting the
/// linear index range into contiguous chunks and concatenating the per-chunk
/// streams reproduces the serial stream block-for-block.
#[derive(Debug, Clone, Copy)]
struct BlockGrid {
    nx: usize,
    ny: usize,
    nz: usize,
    d: usize,
    xb: usize,
    yb: usize,
    zb: usize,
}

impl BlockGrid {
    fn new(fdims: &[usize]) -> Result<BlockGrid> {
        let (nx, ny, nz, d) = normalize_dims(fdims)?;
        let xb = nx.div_ceil(4);
        let yb = if d >= 2 { ny.div_ceil(4) } else { 1 };
        let zb = if d >= 3 { nz.div_ceil(4) } else { 1 };
        Ok(BlockGrid {
            nx,
            ny,
            nz,
            d,
            xb,
            yb,
            zb,
        })
    }

    fn blocks(&self) -> usize {
        self.xb * self.yb * self.zb
    }

    fn blocksize(&self) -> usize {
        1usize << (2 * self.d)
    }

    /// Element-space origin of linear block `i`.
    fn origin(&self, i: usize) -> (usize, usize, usize) {
        let bx = (i % self.xb) * 4;
        let by = ((i / self.xb) % self.yb) * 4;
        let bz = (i / (self.xb * self.yb)) * 4;
        (bx, by, bz)
    }
}

/// Number of 4^d coding blocks for a geometry — the unit of parallel work and
/// the upper bound on how many chunks a stream may carry.
pub fn block_count(fdims: &[usize]) -> Result<usize> {
    Ok(BlockGrid::new(fdims)?.blocks())
}

/// One contiguous run of encoded blocks. `nbits` is the exact bit length of
/// the run before byte padding; the plugin records it as the bitbudget offset
/// directory used to validate chunk boundaries at decode time.
#[derive(Debug, Clone)]
pub struct ZfpChunk {
    /// Exact number of payload bits (<= `bytes.len() * 8`).
    pub nbits: u64,
    /// Byte-padded bitstream for this run of blocks.
    pub bytes: Vec<u8>,
}

fn encode_range(
    data: &[f64],
    g: &BlockGrid,
    p: &Params,
    range: std::ops::Range<usize>,
) -> Result<ZfpChunk> {
    pressio_core::with_scratch(|s| {
        let mut w = BitWriter::new();
        s.f64s.clear();
        s.f64s.resize(g.blocksize(), 0.0);
        let mut block = std::mem::take(&mut s.f64s);
        let mut cp = pressio_core::cancel::Checkpointer::new(256);
        let mut res = Ok(());
        for i in range {
            if let Err(stop) = cp.tick() {
                res = Err(stop);
                break;
            }
            let (bx, by, bz) = g.origin(i);
            gather(data, g.nx, g.ny, g.nz, bx, by, bz, g.d, &mut block);
            encode_block(&mut w, &block, g.d, p, s);
        }
        s.f64s = block;
        res?;
        Ok(ZfpChunk {
            nbits: w.len_bits(),
            bytes: w.into_bytes(),
        })
    })
}

/// Decode a run of blocks into block-major order (each consecutive
/// `blocksize` values are one block, ready to scatter).
fn decode_range_blocks(
    payload: &[u8],
    g: &BlockGrid,
    p: &Params,
    nblocks: usize,
) -> Result<Vec<f64>> {
    pressio_core::with_scratch(|s| {
        let blocksize = g.blocksize();
        let mut vals = pressio_core::alloc::try_zeroed_vec::<f64>(nblocks * blocksize)?;
        let mut r = BitReader::new(payload);
        let mut cp = pressio_core::cancel::Checkpointer::new(256);
        for block in vals.chunks_mut(blocksize) {
            cp.tick()?;
            decode_block(&mut r, block, g.d, p, s)?;
        }
        Ok(vals)
    })
}

fn validate_input(data: &[f64], fdims: &[usize], g: &BlockGrid) -> Result<()> {
    if g.nx * g.ny * g.nz != data.len() {
        return Err(Error::invalid_argument(format!(
            "dims {fdims:?} do not match {} elements",
            data.len()
        )));
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(Error::unsupported(
            "zfp cannot represent non-finite values; mask or replace them first",
        ));
    }
    Ok(())
}

/// Compress a Fortran-ordered `f64` array into up to `pieces` independent
/// chunks of contiguous blocks, encoded in parallel on the shared execution
/// engine. The chunk split depends only on `pieces` and the geometry — never
/// on the host's core count — so streams are machine-independent, and
/// `pieces == 1` is bit-identical to [`compress_f64`].
pub fn compress_f64_chunks(
    data: &[f64],
    fdims: &[usize],
    mode: ZfpMode,
    pieces: usize,
) -> Result<Vec<ZfpChunk>> {
    mode.validate()?;
    let g = BlockGrid::new(fdims)?;
    validate_input(data, fdims, &g)?;
    let p = resolve(mode, g.d);
    let ranges = pressio_core::chunk_ranges(g.blocks(), pieces);
    pressio_core::par_map_indexed(ranges.len(), |i| {
        let _s = pressio_core::trace::span_labeled("zfp:encode_chunk", || {
            format!("blocks {}..{}", ranges[i].start, ranges[i].end)
        });
        encode_range(data, &g, &p, ranges[i].clone())
    })
}

/// Decompress chunks produced by [`compress_f64_chunks`] with identical dims,
/// mode, and chunk count. Chunks decode in parallel; the scatter back into
/// the array is serial.
pub fn decompress_f64_chunks(
    chunks: &[&[u8]],
    fdims: &[usize],
    mode: ZfpMode,
) -> Result<Vec<f64>> {
    mode.validate()?;
    let g = BlockGrid::new(fdims)?;
    let p = resolve(mode, g.d);
    let ranges = pressio_core::chunk_ranges(g.blocks(), chunks.len().max(1));
    if ranges.len() != chunks.len() {
        return Err(Error::corrupt(format!(
            "{} zfp chunks cannot cover {} blocks",
            chunks.len(),
            g.blocks()
        )));
    }
    let decoded = pressio_core::par_map_indexed(ranges.len(), |i| {
        let _s = pressio_core::trace::span_labeled("zfp:decode_chunk", || {
            format!("blocks {}..{}", ranges[i].start, ranges[i].end)
        });
        decode_range_blocks(chunks[i], &g, &p, ranges[i].len())
    })?;
    let blocksize = g.blocksize();
    let mut out = pressio_core::alloc::try_zeroed_vec::<f64>(g.nx * g.ny * g.nz)?;
    for (range, vals) in ranges.iter().zip(&decoded) {
        for (k, i) in range.clone().enumerate() {
            let (bx, by, bz) = g.origin(i);
            let block = &vals[k * blocksize..(k + 1) * blocksize];
            scatter(&mut out, g.nx, g.ny, g.nz, bx, by, bz, g.d, block);
        }
    }
    Ok(out)
}

/// Compress a Fortran-ordered `f64` array. Returns the bit-packed payload.
pub fn compress_f64(data: &[f64], fdims: &[usize], mode: ZfpMode) -> Result<Vec<u8>> {
    let mut chunks = compress_f64_chunks(data, fdims, mode, 1)?;
    Ok(chunks.pop().map(|c| c.bytes).unwrap_or_default())
}

/// Decompress a payload produced by [`compress_f64`] with identical dims and
/// mode. Streams one block at a time through a thread-local scratch arena.
pub fn decompress_f64(payload: &[u8], fdims: &[usize], mode: ZfpMode) -> Result<Vec<f64>> {
    mode.validate()?;
    let g = BlockGrid::new(fdims)?;
    let p = resolve(mode, g.d);
    let mut out = pressio_core::alloc::try_zeroed_vec::<f64>(g.nx * g.ny * g.nz)?;
    let _s = pressio_core::trace::span("zfp:decode_stream");
    pressio_core::with_scratch(|s| {
        s.f64s.clear();
        s.f64s.resize(g.blocksize(), 0.0);
        let mut block = std::mem::take(&mut s.f64s);
        let mut r = BitReader::new(payload);
        let mut res = Ok(());
        let mut cp = pressio_core::cancel::Checkpointer::new(256);
        for i in 0..g.blocks() {
            if let Err(stop) = cp.tick() {
                res = Err(stop);
                break;
            }
            if let Err(e) = decode_block(&mut r, &mut block, g.d, &p, s) {
                res = Err(e);
                break;
            }
            let (bx, by, bz) = g.origin(i);
            scatter(&mut out, g.nx, g.ny, g.nz, bx, by, bz, g.d, &block);
        }
        s.f64s = block;
        res
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(nx: usize, ny: usize, nz: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    v.push(
                        ((x as f64) * 0.1).sin() + ((y as f64) * 0.07).cos() * 2.0
                            + (z as f64) * 0.01,
                    );
                }
            }
        }
        v
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn exponent_matches_frexp_semantics() {
        assert_eq!(exponent(1.0), 1); // 1.0 = 0.5 * 2^1
        assert_eq!(exponent(0.5), 0);
        assert_eq!(exponent(0.75), 0);
        assert_eq!(exponent(2.0), 2);
        assert_eq!(exponent(-8.0), 4);
        assert_eq!(exponent(0.0), -EBIAS);
        // Clamped at the bottom of the normal range.
        assert_eq!(exponent(f64::MIN_POSITIVE / 4.0), 1 - EBIAS);
    }

    #[test]
    fn ldexp2_exact_powers() {
        assert_eq!(ldexp2(1.5, 3), 12.0);
        assert_eq!(ldexp2(12.0, -3), 1.5);
        assert_eq!(ldexp2(1.0, 62), (1u64 << 62) as f64);
        // Extreme exponents survive the two-step path (within the f64
        // representable domain: subnormal down, < 2^1024 up).
        assert_eq!(ldexp2(ldexp2(1.0, -1040), 1040), 1.0);
        assert_eq!(ldexp2(f64::MIN_POSITIVE, 1040), (1u64 << 18) as f64);
    }

    #[test]
    fn fixed_accuracy_bounds_error_all_dims() {
        for (fdims, data) in [
            (vec![4096usize], smooth(4096, 1, 1)),
            (vec![64, 64], smooth(64, 64, 1)),
            (vec![32, 32, 16], smooth(32, 32, 16)),
        ] {
            for tol in [1e-1, 1e-3, 1e-6] {
                let mode = ZfpMode::FixedAccuracy(tol);
                let c = compress_f64(&data, &fdims, mode).unwrap();
                let back = decompress_f64(&c, &fdims, mode).unwrap();
                let err = max_err(&data, &back);
                assert!(
                    err <= tol,
                    "dims {fdims:?} tol {tol}: max err {err}"
                );
            }
        }
    }

    #[test]
    fn fixed_accuracy_compresses_smooth_data() {
        let data = smooth(64, 64, 16);
        let c = compress_f64(&data, &[64, 64, 16], ZfpMode::FixedAccuracy(1e-3)).unwrap();
        let ratio = (data.len() * 8) as f64 / c.len() as f64;
        assert!(ratio > 4.0, "ratio {ratio:.2}");
    }

    #[test]
    fn fixed_rate_produces_exact_size() {
        let data = smooth(64, 64, 1);
        for rate in [4.0f64, 8.0, 16.0] {
            let c = compress_f64(&data, &[64, 64], ZfpMode::FixedRate(rate)).unwrap();
            let blocks = (64 / 4) * (64 / 4);
            let expected_bits = blocks as u64 * (rate * 16.0).ceil().max(13.0) as u64;
            assert_eq!(c.len() as u64, expected_bits.div_ceil(8), "rate {rate}");
            let back = decompress_f64(&c, &[64, 64], ZfpMode::FixedRate(rate)).unwrap();
            // Higher rates give lower error; at 16 bits/value error is small
            // relative to the ~3.0 value range.
            if rate >= 16.0 {
                assert!(max_err(&data, &back) < 1e-2);
            }
        }
    }

    #[test]
    fn higher_rate_monotonically_reduces_error() {
        let data = smooth(32, 32, 8);
        let mut last = f64::INFINITY;
        for rate in [2.0, 4.0, 8.0, 16.0, 32.0] {
            let m = ZfpMode::FixedRate(rate);
            let c = compress_f64(&data, &[32, 32, 8], m).unwrap();
            let back = decompress_f64(&c, &[32, 32, 8], m).unwrap();
            let err = max_err(&data, &back);
            assert!(err <= last * 1.5, "rate {rate}: {err} vs {last}");
            last = err;
        }
        assert!(last < 1e-4);
    }

    #[test]
    fn fixed_precision_roundtrip() {
        let data = smooth(32, 32, 1);
        for prec in [8u32, 16, 32, 64] {
            let m = ZfpMode::FixedPrecision(prec);
            let c = compress_f64(&data, &[32, 32], m).unwrap();
            let back = decompress_f64(&c, &[32, 32], m).unwrap();
            if prec == 64 {
                // Full precision is near-lossless for doubles.
                assert!(max_err(&data, &back) < 1e-12);
            }
        }
    }

    #[test]
    fn all_zero_blocks_are_one_bit() {
        let data = vec![0.0f64; 4096];
        let c = compress_f64(&data, &[4096], ZfpMode::FixedAccuracy(1e-6)).unwrap();
        // 1024 blocks * 1 bit = 128 bytes.
        assert_eq!(c.len(), 128);
        let back = decompress_f64(&c, &[4096], ZfpMode::FixedAccuracy(1e-6)).unwrap();
        assert!(back.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn partial_blocks_padding_roundtrip() {
        // Dims not multiples of 4 exercise gather/scatter padding.
        for fdims in [vec![5usize], vec![7, 3], vec![5, 6, 7]] {
            let n: usize = fdims.iter().product();
            let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let m = ZfpMode::FixedAccuracy(1e-4);
            let c = compress_f64(&data, &fdims, m).unwrap();
            let back = decompress_f64(&c, &fdims, m).unwrap();
            assert!(max_err(&data, &back) <= 1e-4, "dims {fdims:?}");
        }
    }

    #[test]
    fn small_dims_pad_inefficiently() {
        // The Section V observation: a dimension below the block size forces
        // zero padding and hurts efficiency vs. a well-shaped layout.
        let data = smooth(64, 64, 1);
        let m = ZfpMode::FixedAccuracy(1e-4);
        let well_shaped = compress_f64(&data, &[64, 64], m).unwrap();
        let skinny = compress_f64(&data, &[64 * 64 / 2, 2], m).unwrap();
        assert!(
            skinny.len() > well_shaped.len(),
            "skinny {} vs well-shaped {}",
            skinny.len(),
            well_shaped.len()
        );
    }

    #[test]
    fn nonfinite_rejected() {
        let mut data = smooth(16, 1, 1);
        data[3] = f64::NAN;
        assert!(compress_f64(&data, &[16], ZfpMode::FixedAccuracy(1e-3)).is_err());
    }

    #[test]
    fn invalid_modes_rejected() {
        let data = vec![1.0; 16];
        assert!(compress_f64(&data, &[16], ZfpMode::FixedRate(0.0)).is_err());
        assert!(compress_f64(&data, &[16], ZfpMode::FixedAccuracy(-1.0)).is_err());
        assert!(compress_f64(&data, &[16], ZfpMode::FixedPrecision(0)).is_err());
        assert!(compress_f64(&data, &[16], ZfpMode::FixedPrecision(65)).is_err());
    }

    #[test]
    fn single_chunk_matches_serial_stream() {
        let data = smooth(32, 16, 8);
        let m = ZfpMode::FixedAccuracy(1e-5);
        let serial = compress_f64(&data, &[32, 16, 8], m).unwrap();
        let chunks = compress_f64_chunks(&data, &[32, 16, 8], m, 1).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].bytes, serial);
        assert_eq!(chunks[0].nbits.div_ceil(8), serial.len() as u64);
    }

    #[test]
    fn chunked_roundtrip_matches_serial_values() {
        let data = smooth(21, 13, 9); // partial blocks in every dimension
        for pieces in [1usize, 2, 3, 7, 64] {
            for m in [
                ZfpMode::FixedAccuracy(1e-4),
                ZfpMode::FixedRate(8.0),
                ZfpMode::FixedPrecision(24),
            ] {
                let serial = {
                    let c = compress_f64(&data, &[21, 13, 9], m).unwrap();
                    decompress_f64(&c, &[21, 13, 9], m).unwrap()
                };
                let chunks = compress_f64_chunks(&data, &[21, 13, 9], m, pieces).unwrap();
                let bytes: Vec<Vec<u8>> = chunks.into_iter().map(|c| c.bytes).collect();
                let refs: Vec<&[u8]> = bytes.iter().map(|b| b.as_slice()).collect();
                let back = decompress_f64_chunks(&refs, &[21, 13, 9], m).unwrap();
                assert_eq!(serial, back, "pieces {pieces} mode {m:?}");
            }
        }
    }

    #[test]
    fn chunk_count_is_capped_by_block_count() {
        let data = smooth(4, 4, 1);
        let m = ZfpMode::FixedAccuracy(1e-3);
        // 1 block total: asking for 8 pieces still yields 1 chunk.
        let chunks = compress_f64_chunks(&data, &[4, 4], m, 8).unwrap();
        assert_eq!(chunks.len(), 1);
        // And a stream claiming more chunks than blocks is corrupt.
        let bogus: Vec<&[u8]> = vec![&chunks[0].bytes, &chunks[0].bytes];
        assert!(decompress_f64_chunks(&bogus, &[4, 4], m).is_err());
    }

    #[test]
    fn huge_magnitudes_roundtrip() {
        let data: Vec<f64> = (0..256).map(|i| (i as f64 + 1.0) * 1e300).collect();
        let m = ZfpMode::FixedPrecision(64);
        let c = compress_f64(&data, &[256], m).unwrap();
        let back = decompress_f64(&c, &[256], m).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!(((a - b) / a).abs() < 1e-12);
        }
    }

    #[test]
    fn tiny_magnitudes_roundtrip() {
        let data: Vec<f64> = (0..64).map(|i| (i as f64 + 1.0) * 1e-300).collect();
        let m = ZfpMode::FixedPrecision(64);
        let c = compress_f64(&data, &[64], m).unwrap();
        let back = decompress_f64(&c, &[64], m).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!(((a - b) / a).abs() < 1e-10, "{a} vs {b}");
        }
    }
}
