//! The interpolation-based compression kernel (SZ3 style).
//!
//! Where classic SZ predicts each point from its immediate Lorenzo
//! neighborhood, the interpolation family (Zhao et al., the SZ3 lineage)
//! predicts over a *multilevel grid*: starting from a coarse lattice, every
//! refinement level predicts the new points by spline interpolation from the
//! already-reconstructed coarser lattice, quantizes the residual with the
//! full error bound (prediction from reconstructed values means per-level
//! errors do not accumulate), and entropy-codes the quantization indices.
//!
//! Prediction is cubic (4-point Lagrange) along an axis when one axis
//! refines and four aligned coarse neighbors exist, multilinear otherwise —
//! mirroring SZ3's interpolator selection in simplified form.

use pressio_codecs::{deflate, huffman};
use pressio_core::{
    bytes_to_elements, elements_as_bytes, ByteReader, ByteWriter, Element, Error, Result,
};

/// Tuning parameters for one kernel invocation.
#[derive(Debug, Clone, Copy)]
pub struct InterpParams {
    /// Absolute error bound; must be positive and finite.
    pub abs_eb: f64,
    /// Quantization radius (alphabet is `2 * radius`).
    pub radius: u32,
    /// Prefer cubic interpolation where four aligned neighbors exist.
    pub cubic: bool,
}

impl Default for InterpParams {
    fn default() -> Self {
        InterpParams {
            abs_eb: 1e-6,
            radius: 32768,
            cubic: true,
        }
    }
}

/// Float types the kernel accepts.
pub trait InterpFloat: Element {
    /// Exact conversion to the f64 arithmetic domain.
    fn to_f64x(self) -> f64;
    /// Conversion back to storage precision.
    fn from_f64x(v: f64) -> Self;
}

impl InterpFloat for f32 {
    #[inline]
    fn to_f64x(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64x(v: f64) -> Self {
        v as f32
    }
}

impl InterpFloat for f64 {
    #[inline]
    fn to_f64x(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64x(v: f64) -> Self {
        v
    }
}

/// Collapse dims to (nz, ny, nx) like the classic SZ kernel.
fn effective_dims(dims: &[usize]) -> (usize, usize, usize) {
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

#[inline]
fn live(n: usize, l: u32) -> usize {
    ((n - 1) >> l) + 1
}

fn levels_for(n: usize, total: u32) -> u32 {
    let mut l = 0;
    while l < total && live(n, l) >= 2 {
        l += 1;
    }
    l
}

struct Grid {
    nz: usize,
    ny: usize,
    nx: usize,
    levels: u32,
}

impl Grid {
    fn build(dims: &[usize]) -> Grid {
        let (nz, ny, nx) = effective_dims(dims);
        let mut levels = 0u32;
        while [nz, ny, nx].iter().any(|&n| live(n, levels) >= 2) && levels < 60 {
            levels += 1;
        }
        Grid { nz, ny, nx, levels }
    }

    #[inline]
    fn refines(n: usize, l: u32) -> bool {
        live(n, l) >= 2
    }

    /// Visit every refinement point of level `l` (coarse -> fine order is
    /// the caller's responsibility), invoking `f(index, prediction_spec)`.
    fn for_each_refined(&self, l: u32, mut f: impl FnMut(usize, Stencil)) {
        let (nz, ny, nx) = (self.nz, self.ny, self.nx);
        let sz = 1usize << levels_for(nz, l);
        let sy = 1usize << levels_for(ny, l);
        let sx = 1usize << levels_for(nx, l);
        let rz = Self::refines(nz, l);
        let ry = Self::refines(ny, l);
        let rx = Self::refines(nx, l);
        let plane = ny * nx;
        let mut z = 0usize;
        while z < nz {
            let oz = rz && (z / sz) % 2 == 1;
            let mut y = 0usize;
            while y < ny {
                let oy = ry && (y / sy) % 2 == 1;
                let mut x = 0usize;
                while x < nx {
                    let ox = rx && (x / sx) % 2 == 1;
                    if oz || oy || ox {
                        let idx = z * plane + y * nx + x;
                        f(
                            idx,
                            Stencil {
                                coord: [z, y, x],
                                step: [sz, sy, sx],
                                odd: [oz, oy, ox],
                                extent: [nz, ny, nx],
                                stride: [plane, nx, 1],
                            },
                        );
                    }
                    x += sx;
                }
                y += sy;
            }
            z += sz;
        }
    }

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

/// Geometry of one prediction site.
struct Stencil {
    coord: [usize; 3],
    step: [usize; 3],
    odd: [bool; 3],
    extent: [usize; 3],
    stride: [usize; 3],
}

impl Stencil {
    /// Predict from reconstructed values: cubic along the axis when exactly
    /// one axis refines and four aligned neighbors exist; multilinear with
    /// edge clamping otherwise.
    fn predict<T: InterpFloat>(&self, recon: &[T], cubic: bool) -> f64 {
        let odd_axes: Vec<usize> = (0..3).filter(|&a| self.odd[a]).collect();
        if cubic && odd_axes.len() == 1 {
            let a = odd_axes[0];
            let c = self.coord[a];
            let h = self.step[a];
            let base = self.base_offset_excluding(a);
            if c >= 3 * h && c + 3 * h < self.extent[a] {
                let v = |coord: usize| recon[base + coord * self.stride[a]].to_f64x();
                // 4-point Lagrange midpoint interpolation.
                return (-v(c - 3 * h) + 9.0 * v(c - h) + 9.0 * v(c + h) - v(c + 3 * h)) / 16.0;
            }
        }
        // Multilinear with constant extrapolation at the upper boundary.
        let mut corners: Vec<(usize, f64)> = vec![(0, 1.0)];
        for a in 0..3 {
            let c = self.coord[a];
            if !self.odd[a] {
                for e in corners.iter_mut() {
                    e.0 += c * self.stride[a];
                }
                continue;
            }
            let h = self.step[a];
            let left = c - h;
            let right = if c + h < self.extent[a] { c + h } else { left };
            let prev = std::mem::take(&mut corners);
            for (off, w) in prev {
                corners.push((off + left * self.stride[a], w * 0.5));
                corners.push((off + right * self.stride[a], w * 0.5));
            }
        }
        corners
            .iter()
            .map(|&(i, w)| recon[i].to_f64x() * w)
            .sum()
    }

    fn base_offset_excluding(&self, axis: usize) -> usize {
        let mut off = 0usize;
        for a in 0..3 {
            if a != axis {
                off += self.coord[a] * self.stride[a];
            }
        }
        off
    }
}

const BODY_MAGIC: u32 = 0x535A_3349; // "SZ3I"

/// Compress a typed slice into a self-contained stream body.
pub fn compress_body<T: InterpFloat>(
    data: &[T],
    dims: &[usize],
    p: &InterpParams,
) -> Result<Vec<u8>> {
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
    let grid = Grid::build(dims);
    let n = grid.nz * grid.ny * grid.nx;
    if n != data.len() {
        return Err(Error::invalid_argument(format!(
            "dims {dims:?} do not match {} elements",
            data.len()
        )));
    }
    let eb = p.abs_eb;
    let two_eb = 2.0 * eb;
    let radius = p.radius as i64;
    let mut recon: Vec<T> = data.to_vec();
    let mut codes: Vec<u32> = Vec::with_capacity(n);
    let mut unpredictable: Vec<T> = Vec::new();

    let mut quantize = |pred: f64, idx: usize, recon: &mut [T]| {
        let val = recon[idx].to_f64x(); // original value still in place
        let diff = val - pred;
        let q = (diff / two_eb).round();
        if q.is_finite() && q.abs() < (radius - 1) as f64 {
            let qi = q as i64;
            let dec = T::from_f64x(pred + qi as f64 * two_eb);
            if (dec.to_f64x() - val).abs() <= eb {
                codes.push((radius + qi) as u32);
                recon[idx] = dec;
                return;
            }
        }
        codes.push(0);
        unpredictable.push(recon[idx]);
        // recon keeps the exact value.
    };

    // Base lattice first (predicted as 0), then refine coarse -> fine so the
    // decompressor sees identical reconstructed predictors.
    grid.for_each_base(|idx| quantize(0.0, idx, &mut recon));
    for l in (0..grid.levels).rev() {
        grid.for_each_refined(l, |idx, st| {
            let pred = st.predict(&recon, p.cubic);
            quantize(pred, idx, &mut recon);
        });
    }

    let huff = huffman::encode(&codes, 2 * p.radius)?;
    let huff = deflate::compress(&huff)?;
    let unpred = deflate::compress(elements_as_bytes(&unpredictable))?;
    let mut w = ByteWriter::with_capacity(huff.len() + unpred.len() + 64);
    w.put_u32(BODY_MAGIC);
    w.put_f64(eb);
    w.put_u32(p.radius);
    w.put_u8(p.cubic as u8);
    w.put_u64(unpredictable.len() as u64);
    w.put_section(&huff);
    w.put_section(&unpred);
    Ok(w.into_vec())
}

/// Decompress a stream body produced by [`compress_body`].
pub fn decompress_body<T: InterpFloat>(body: &[u8], dims: &[usize]) -> Result<Vec<T>> {
    let mut r = ByteReader::new(body);
    if r.get_u32()? != BODY_MAGIC {
        return Err(Error::corrupt("bad sz_interp body magic"));
    }
    let eb = r.get_f64()?;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(Error::corrupt("sz_interp stream carries invalid error bound"));
    }
    let radius = r.get_u32()?;
    if !(2..=1 << 20).contains(&radius) {
        return Err(Error::corrupt("sz_interp radius out of range"));
    }
    let cubic = r.get_u8()? != 0;
    let n_unpred = r.get_len()?;
    let huff = deflate::decompress(r.get_section()?)?;
    let codes = huffman::decode(&huff)?;
    let unpred_bytes = deflate::decompress(r.get_section()?)?;
    let unpredictable: Vec<T> = bytes_to_elements(&unpred_bytes)?;
    if unpredictable.len() != n_unpred {
        return Err(Error::corrupt("sz_interp unpredictable count mismatch"));
    }
    let grid = Grid::build(dims);
    let n = grid.nz * grid.ny * grid.nx;
    if codes.len() != n {
        return Err(Error::corrupt(format!(
            "sz_interp stream has {} codes for {n} elements",
            codes.len()
        )));
    }
    let two_eb = 2.0 * eb;
    let radius_i = radius as i64;
    let mut recon = pressio_core::alloc::try_zeroed_vec::<T>(n)?;
    let mut next_code = 0usize;
    let mut next_unpred = 0usize;
    let mut err: Option<Error> = None;

    let mut reconstruct = |pred: f64, idx: usize, recon: &mut [T], err: &mut Option<Error>| {
        let code = codes[next_code];
        next_code += 1;
        if code == 0 {
            match unpredictable.get(next_unpred) {
                Some(v) => {
                    recon[idx] = *v;
                    next_unpred += 1;
                }
                None => *err = Some(Error::corrupt("sz_interp exhausted unpredictable values")),
            }
        } else {
            let qi = code as i64 - radius_i;
            recon[idx] = T::from_f64x(pred + qi as f64 * two_eb);
        }
    };

    grid.for_each_base(|idx| reconstruct(0.0, idx, &mut recon, &mut err));
    for l in (0..grid.levels).rev() {
        grid.for_each_refined(l, |idx, st| {
            let pred = st.predict(&recon, cubic);
            reconstruct(pred, idx, &mut recon, &mut err);
        });
    }
    match err {
        Some(e) => Err(e),
        None => Ok(recon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(nz: usize, ny: usize, nx: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    v.push(
                        (x as f64 * 0.05).sin() * (y as f64 * 0.04).cos() + z as f64 * 0.01,
                    );
                }
            }
        }
        v
    }

    fn roundtrip<T: InterpFloat>(data: &[T], dims: &[usize], p: &InterpParams) -> (usize, f64) {
        let body = compress_body(data, dims, p).unwrap();
        let back: Vec<T> = decompress_body(&body, dims).unwrap();
        let err = data
            .iter()
            .zip(&back)
            .map(|(a, b)| (a.to_f64x() - b.to_f64x()).abs())
            .fold(0.0f64, f64::max);
        (body.len(), err)
    }

    #[test]
    fn bound_holds_all_dims() {
        for dims in [vec![1000usize], vec![40, 50], vec![10, 20, 30]] {
            let n: usize = dims.iter().product();
            let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 42.0).collect();
            for eb in [1e-1, 1e-3, 1e-6] {
                let p = InterpParams {
                    abs_eb: eb,
                    ..Default::default()
                };
                let (_, err) = roundtrip(&data, &dims, &p);
                assert!(err <= eb, "dims {dims:?} eb {eb}: err {err}");
            }
        }
    }

    #[test]
    fn cubic_beats_linear_on_smooth_data() {
        let data = smooth(1, 128, 128);
        let base = InterpParams {
            abs_eb: 1e-4,
            ..Default::default()
        };
        let (cubic_size, _) = roundtrip(&data, &[128, 128], &base);
        let linear = InterpParams {
            cubic: false,
            ..base
        };
        let (linear_size, _) = roundtrip(&data, &[128, 128], &linear);
        assert!(
            cubic_size <= linear_size,
            "cubic {cubic_size} vs linear {linear_size}"
        );
    }

    #[test]
    fn compresses_smooth_fields_strongly() {
        let data = smooth(16, 64, 64);
        let p = InterpParams {
            abs_eb: 1e-3,
            ..Default::default()
        };
        let (size, err) = roundtrip(&data, &[16, 64, 64], &p);
        let ratio = (data.len() * 8) as f64 / size as f64;
        assert!(err <= 1e-3);
        assert!(ratio > 8.0, "ratio {ratio:.2}");
    }

    #[test]
    fn f32_path() {
        let data: Vec<f32> = smooth(4, 32, 32).iter().map(|&v| v as f32).collect();
        let p = InterpParams {
            abs_eb: 1e-3,
            ..Default::default()
        };
        let (_, err) = roundtrip(&data, &[4, 32, 32], &p);
        assert!(err <= 1e-3);
    }

    #[test]
    fn nonfinite_values_survive() {
        let mut data: Vec<f64> = (0..500).map(|i| i as f64 * 0.1).collect();
        data[3] = f64::NAN;
        data[77] = f64::INFINITY;
        let p = InterpParams {
            abs_eb: 1e-2,
            ..Default::default()
        };
        let body = compress_body(&data, &[500], &p).unwrap();
        let back: Vec<f64> = decompress_body(&body, &[500]).unwrap();
        assert!(back[3].is_nan());
        assert_eq!(back[77], f64::INFINITY);
        for (a, b) in data.iter().zip(&back) {
            if a.is_finite() {
                assert!((a - b).abs() <= 1e-2);
            }
        }
    }

    #[test]
    fn tiny_inputs() {
        for n in 1..8usize {
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = InterpParams {
                abs_eb: 1e-4,
                ..Default::default()
            };
            let (_, err) = roundtrip(&data, &[n], &p);
            assert!(err <= 1e-4, "n={n}");
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let data = vec![1.0f64; 8];
        for eb in [0.0, -1.0, f64::NAN] {
            let p = InterpParams {
                abs_eb: eb,
                ..Default::default()
            };
            assert!(compress_body(&data, &[8], &p).is_err());
        }
    }

    #[test]
    fn corrupt_body_errors_not_panics() {
        let data: Vec<f64> = (0..300).map(|i| (i as f64).sqrt()).collect();
        let p = InterpParams {
            abs_eb: 1e-3,
            ..Default::default()
        };
        let body = compress_body(&data, &[300], &p).unwrap();
        for cut in (0..body.len()).step_by(11) {
            let _ = decompress_body::<f64>(&body[..cut], &[300]);
        }
        for i in (0..body.len()).step_by(7) {
            let mut bad = body.clone();
            bad[i] ^= 0x81;
            let _ = decompress_body::<f64>(&bad, &[300]);
        }
    }
}
