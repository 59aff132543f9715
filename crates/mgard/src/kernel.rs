//! The MGARD-style multilevel compression kernel.
//!
//! Follows the multigrid construction of Ainsworth et al. (the paper's
//! citation \[17\]) in its practical form: a hierarchy of nested uniform grids
//! (every-other-point coarsening), multilinear interpolation from each coarse
//! grid, and *multilevel coefficients* — the interpolation residuals — that
//! are quantized with a per-level share of the global L∞ budget and entropy
//! coded.
//!
//! Because multilinear interpolation is a convex combination, reconstruction
//! error does not amplify across levels: with per-level quantization error
//! `eb / (levels + 1)` the total error is bounded by `eb`.
//!
//! Like real MGARD, the kernel refuses grids with fewer than 3 points in any
//! declared dimension (the behavior the paper's Section V calls out).

use pressio_codecs::{deflate, varint};
use pressio_core::{ByteReader, ByteWriter, Error, Result};

/// Sentinel quantization code marking an exception (verbatim f64 follows in
/// the exception section).
const EXCEPTION: i64 = i64::MIN + 1;
/// Largest representable quantization code before falling back to verbatim.
const MAX_CODE: i64 = 1 << 46;

/// Number of live grid points along an axis of extent `n` at level `l`.
#[inline]
fn live(n: usize, l: u32) -> usize {
    ((n - 1) >> l) + 1
}

/// Geometry of one decomposition.
struct Hierarchy {
    /// Padded extents (nz, ny, nx); non-declared axes have extent 1.
    nz: usize,
    ny: usize,
    nx: usize,
    /// Total number of levels applied.
    levels: u32,
}

impl Hierarchy {
    fn build(dims: &[usize]) -> Result<Hierarchy> {
        if dims.is_empty() {
            return Err(Error::invalid_argument("mgard requires at least 1 dimension"));
        }
        for &d in dims {
            if d < 3 {
                return Err(Error::invalid_argument(format!(
                    "mgard requires at least 3 points in each dimension, got {dims:?}"
                )));
            }
        }
        // Collapse leading dims beyond 3 into the slowest axis.
        let (nz, ny, nx) = match dims.len() {
            1 => (1, 1, dims[0]),
            2 => (1, dims[0], dims[1]),
            3 => (dims[0], dims[1], dims[2]),
            _ => (
                dims[..dims.len() - 2].iter().product(),
                dims[dims.len() - 2],
                dims[dims.len() - 1],
            ),
        };
        let mut levels = 0u32;
        while [nz, ny, nx].iter().any(|&n| live(n, levels) >= 3) {
            levels += 1;
            if levels > 60 {
                break;
            }
        }
        Ok(Hierarchy { nz, ny, nx, levels })
    }

    /// Can this axis still coarsen at level `l`?
    #[inline]
    fn coarsens(&self, n: usize, l: u32) -> bool {
        live(n, l) >= 3
    }

    /// Visit the *detail* points of level `l` in deterministic order,
    /// calling `f(index, pred_corners)` where `pred_corners` describes the
    /// multilinear stencil: a list of (index, weight).
    fn for_each_detail(&self, l: u32, mut f: impl FnMut(usize, &[(usize, f64)])) {
        let (nz, ny, nx) = (self.nz, self.ny, self.nx);
        // Each axis keeps its own live stride: an axis that stopped
        // coarsening earlier stays at its final stride while other axes
        // continue to coarsen.
        let sz = 1usize << levels_for(nz, l);
        let sy = 1usize << levels_for(ny, l);
        let sx = 1usize << levels_for(nx, l);
        let cz = self.coarsens(nz, l);
        let cy = self.coarsens(ny, l);
        let cx = self.coarsens(nx, l);
        let plane = ny * nx;
        let mut corners: Vec<(usize, f64)> = Vec::with_capacity(8);

        // Multilinear stencil over the odd axes; at the upper boundary the
        // right neighbor may not exist, in which case the left one is reused
        // (constant extrapolation).
        fn expand(
            odd: bool,
            coord: usize,
            extent: usize,
            stride: usize,
            step: usize,
            corners: &mut Vec<(usize, f64)>,
        ) {
            if !odd {
                for c in corners.iter_mut() {
                    c.0 += coord * stride;
                }
                return;
            }
            let left = coord - step;
            let right = if coord + step < extent {
                coord + step
            } else {
                left
            };
            let prev = std::mem::take(corners);
            for (off, wgt) in prev {
                corners.push((off + left * stride, wgt * 0.5));
                corners.push((off + right * stride, wgt * 0.5));
            }
        }

        let mut z = 0usize;
        while z < nz {
            let oz = cz && (z / sz) % 2 == 1;
            let mut y = 0usize;
            while y < ny {
                let oy = cy && (y / sy) % 2 == 1;
                let mut x = 0usize;
                while x < nx {
                    let ox = cx && (x / sx) % 2 == 1;
                    if oz || oy || ox {
                        corners.clear();
                        corners.push((0usize, 1.0f64));
                        expand(oz, z, nz, plane, sz, &mut corners);
                        expand(oy, y, ny, nx, sy, &mut corners);
                        expand(ox, x, nx, 1, sx, &mut corners);
                        let idx = z * plane + y * nx + x;
                        f(idx, &corners);
                    }
                    x += sx;
                }
                y += sy;
            }
            z += sz;
        }
    }

    /// Visit the base (coarsest) grid points in deterministic order.
    fn for_each_base(&self, mut f: impl FnMut(usize)) {
        let sz = 1usize << levels_for(self.nz, self.levels);
        let sy = 1usize << levels_for(self.ny, self.levels);
        let sx = 1usize << levels_for(self.nx, self.levels);
        let plane = self.ny * self.nx;
        let mut z = 0usize;
        while z < self.nz {
            let mut y = 0usize;
            while y < self.ny {
                let mut x = 0usize;
                while x < self.nx {
                    f(z * plane + y * self.nx + x);
                    x += sx;
                }
                y += sy;
            }
            z += sz;
        }
    }
}

/// Number of coarsening levels actually applied to an axis of extent `n`
/// when the hierarchy ran `total` levels.
fn levels_for(n: usize, total: u32) -> u32 {
    let mut l = 0;
    while l < total && live(n, l) >= 3 {
        l += 1;
    }
    l
}

struct Quantizer {
    step: f64,
}

impl Quantizer {
    fn new(eb_level: f64) -> Quantizer {
        Quantizer {
            step: 2.0 * eb_level,
        }
    }

    /// Quantize `d`; `None` requests the verbatim exception path.
    fn code(&self, d: f64) -> Option<i64> {
        let q = (d / self.step).round();
        if q.is_finite() && q.abs() < MAX_CODE as f64 {
            Some(q as i64)
        } else {
            None
        }
    }

    fn value(&self, q: i64) -> f64 {
        q as f64 * self.step
    }
}

/// Compress an f64 array with an absolute error bound.
pub fn compress_body(data: &[f64], dims: &[usize], abs_eb: f64) -> Result<Vec<u8>> {
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(Error::invalid_argument(format!(
            "absolute error bound must be positive and finite, got {abs_eb}"
        )));
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(Error::unsupported(
            "mgard cannot represent non-finite values; mask or replace them first",
        ));
    }
    let h = Hierarchy::build(dims)?;
    if h.nz * h.ny * h.nx != data.len() {
        return Err(Error::invalid_argument(format!(
            "dims {dims:?} do not match {} elements",
            data.len()
        )));
    }
    let eb_level = abs_eb / (h.levels as f64 + 1.0);
    let quant = Quantizer::new(eb_level);

    let mut codes: Vec<u8> = Vec::new();
    let mut exceptions: Vec<f64> = Vec::new();
    let mut n_codes: u64 = 0;
    let push_code = |codes: &mut Vec<u8>, exceptions: &mut Vec<f64>, d: f64, raw: f64| {
        match quant.code(d) {
            Some(q) => varint::write_u64(codes, varint::zigzag(q)),
            None => {
                varint::write_u64(codes, varint::zigzag(EXCEPTION));
                exceptions.push(raw);
            }
        }
    };

    // Multilevel coefficients, finest level first. Prediction corners are
    // original values of coarser points — the decoder's reconstructed
    // corners differ by at most the accumulated per-level error, which the
    // budget accounts for.
    for l in 0..h.levels {
        h.for_each_detail(l, |idx, corners| {
            let pred: f64 = corners.iter().map(|&(i, w)| data[i] * w).sum();
            push_code(&mut codes, &mut exceptions, data[idx] - pred, data[idx]);
            n_codes += 1;
        });
    }
    // Base grid: quantize the values themselves.
    h.for_each_base(|idx| {
        push_code(&mut codes, &mut exceptions, data[idx], data[idx]);
        n_codes += 1;
    });

    let payload = deflate::compress(&codes)?;
    let mut exc_bytes = Vec::with_capacity(exceptions.len() * 8);
    for v in &exceptions {
        exc_bytes.extend_from_slice(&v.to_le_bytes());
    }
    let mut w = ByteWriter::with_capacity(payload.len() + exc_bytes.len() + 64);
    w.put_f64(abs_eb);
    w.put_u32(h.levels);
    w.put_u64(n_codes);
    w.put_section(&payload);
    w.put_section(&deflate::compress(&exc_bytes)?);
    Ok(w.into_vec())
}

/// Decompress a body produced by [`compress_body`] with identical dims.
pub fn decompress_body(body: &[u8], dims: &[usize]) -> Result<Vec<f64>> {
    let mut r = ByteReader::new(body);
    let abs_eb = r.get_f64()?;
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(Error::corrupt("mgard stream carries invalid error bound"));
    }
    let levels = r.get_u32()?;
    let n_codes = r.get_u64()?;
    let codes = deflate::decompress(r.get_section()?)?;
    let exc_bytes = deflate::decompress(r.get_section()?)?;
    let h = Hierarchy::build(dims)?;
    if h.levels != levels {
        return Err(Error::corrupt(format!(
            "mgard stream has {levels} levels but dims {dims:?} imply {}",
            h.levels
        )));
    }
    // Every grid point contributes exactly one code; a corrupt count must
    // fail here, before it sizes any allocation.
    if n_codes != (h.nz * h.ny * h.nx) as u64 {
        return Err(Error::corrupt(format!(
            "mgard stream declares {n_codes} codes for {} grid points",
            h.nz * h.ny * h.nx
        )));
    }
    let eb_level = abs_eb / (levels as f64 + 1.0);
    let quant = Quantizer::new(eb_level);

    // Decode the code stream up-front, in the writer's order.
    let mut pos = 0usize;
    let mut decoded: Vec<i64> = Vec::new();
    pressio_core::alloc::try_reserve(&mut decoded, n_codes as usize)?;
    for _ in 0..n_codes {
        decoded.push(varint::unzigzag(varint::read_u64(&codes, &mut pos)?));
    }
    let exceptions: Vec<f64> = exc_bytes
        .chunks_exact(8)
        .filter_map(pressio_core::wire::f64_le)
        .collect();

    let n = h.nz * h.ny * h.nx;
    let mut out = pressio_core::alloc::try_zeroed_vec::<f64>(n)?;

    // The writer emitted: details of level 0, 1, ..., L-1, then base. Split
    // the decoded stream accordingly by re-walking the same traversals.
    let mut counts: Vec<usize> = Vec::with_capacity(levels as usize);
    for l in 0..levels {
        let mut c = 0usize;
        h.for_each_detail(l, |_, _| c += 1);
        counts.push(c);
    }
    let total_details: usize = counts.iter().sum();
    let mut base_count = 0usize;
    h.for_each_base(|_| base_count += 1);
    if total_details + base_count != n_codes as usize {
        return Err(Error::corrupt("mgard code count mismatch"));
    }
    let mut offsets: Vec<usize> = Vec::with_capacity(levels as usize);
    {
        let mut acc = 0usize;
        for &c in &counts {
            offsets.push(acc);
            acc += c;
        }
    }

    // Exceptions were appended in writer order (details level 0..L-1, then
    // base); pre-split them into per-section queues before reconstructing
    // in a different (coarse-to-fine) order.
    let mut level_exc: Vec<Vec<f64>> = Vec::with_capacity(levels as usize);
    let mut exc_cursor = 0usize;
    let take_exceptions = |sec: &[i64], exc_cursor: &mut usize| -> Result<Vec<f64>> {
        let n_exc = sec.iter().filter(|&&q| q == EXCEPTION).count();
        if *exc_cursor + n_exc > exceptions.len() {
            return Err(Error::corrupt("mgard exception list exhausted"));
        }
        let vals = exceptions[*exc_cursor..*exc_cursor + n_exc].to_vec();
        *exc_cursor += n_exc;
        Ok(vals)
    };
    for l in 0..levels as usize {
        let sec = &decoded[offsets[l]..offsets[l] + counts[l]];
        level_exc.push(take_exceptions(sec, &mut exc_cursor)?);
    }
    let base_slice = &decoded[total_details..];
    let base_exc = take_exceptions(base_slice, &mut exc_cursor)?;

    // Reconstruct: base first...
    let mut bi = 0usize;
    let mut bei = 0usize;
    h.for_each_base(|idx| {
        let q = base_slice[bi];
        bi += 1;
        out[idx] = if q == EXCEPTION {
            let v = base_exc[bei];
            bei += 1;
            v
        } else {
            quant.value(q)
        };
    });
    // ...then details from the coarsest detail level down to the finest.
    for l in (0..levels as usize).rev() {
        let sec = &decoded[offsets[l]..offsets[l] + counts[l]];
        let mut si = 0usize;
        let mut ei = 0usize;
        h.for_each_detail(l as u32, |idx, corners| {
            let pred: f64 = corners.iter().map(|&(i, w)| out[i] * w).sum();
            let q = sec[si];
            si += 1;
            out[idx] = if q == EXCEPTION {
                
                sec_exc(&level_exc[l], &mut ei)
            } else {
                pred + quant.value(q)
            };
        });
    }
    Ok(out)
}

#[inline]
fn sec_exc(vals: &[f64], cursor: &mut usize) -> f64 {
    let v = vals[*cursor];
    *cursor += 1;
    v
}
