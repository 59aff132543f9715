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

use std::cell::Cell;

use pressio_codecs::{deflate, varint};
use pressio_core::{alloc, ByteReader, ByteWriter, Error, Result};

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

/// Number of coarsening levels actually applied to an axis of extent `n`
/// when the hierarchy ran `total` levels.
fn levels_for(n: usize, total: u32) -> u32 {
    let mut l = 0;
    while l < total && live(n, l) >= 3 {
        l += 1;
    }
    l
}

/// One grid axis at one level.
#[derive(Clone, Copy)]
struct Axis {
    extent: usize,
    /// Distance between live points: an axis that stopped coarsening earlier
    /// stays at its final stride while the other axes go on.
    stride: usize,
    /// Whether this level halves the axis, which makes its odd live points
    /// detail nodes.
    coarsens: bool,
}

impl Axis {
    fn at(extent: usize, l: u32) -> Axis {
        Axis {
            extent,
            stride: 1 << levels_for(extent, l),
            coarsens: live(extent, l) >= 3,
        }
    }

    fn points(&self) -> usize {
        (self.extent - 1) / self.stride + 1
    }

    /// The live coordinates, each with whether it is odd at this level.
    fn coords(self) -> impl Iterator<Item = (usize, bool)> {
        (0..self.extent)
            .step_by(self.stride)
            .enumerate()
            .map(move |(k, c)| (c, self.coarsens && k % 2 == 1))
    }

    /// The coordinates a prediction reads along this axis, left before
    /// right: the point's own when it is even; its two even neighbours when
    /// it is odd, the left one twice where the right one would lie past the
    /// end (constant extrapolation).
    fn sources(&self, c: usize, odd: bool) -> impl Iterator<Item = usize> {
        let (first, second) = if odd {
            let left = c - self.stride;
            let right = c + self.stride;
            (left, Some(if right < self.extent { right } else { left }))
        } else {
            (c, None)
        };
        std::iter::once(first).chain(second)
    }
}

/// A grid value the sweep can read: the encoder's `f64`, or the decoder's
/// `Cell<f64>`, through which its callback stores each node while the sweep
/// still holds the field.
trait Sample {
    fn get(&self) -> f64;
}

impl Sample for f64 {
    fn get(&self) -> f64 {
        *self
    }
}

impl Sample for Cell<f64> {
    fn get(&self) -> f64 {
        Cell::get(self)
    }
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

    fn axes(&self, l: u32) -> [Axis; 3] {
        [self.nz, self.ny, self.nx].map(|n| Axis::at(n, l))
    }

    /// Live grid points at level `l`. Level `l + 1` keeps those that are
    /// even on every axis level `l` halves, so level `l` has
    /// `points(l) - points(l + 1)` detail nodes, the base grid is
    /// `points(levels)`, and the sum telescopes to every grid point.
    fn points(&self, l: u32) -> usize {
        self.axes(l).iter().map(Axis::points).product()
    }

    /// Visit the detail nodes of level `l` as `node(index, prediction)`: the
    /// multilinear interpolation of the node from the level `l + 1` points
    /// around it in `field`.
    ///
    /// The node order (z-major, x-minor) is the order of the code stream, and
    /// a prediction is its 2, 4 or 8 corners — z-major, x-minor, left before
    /// right — each times `0.5` per odd axis and added in that order onto
    /// `-0.0`, which is `f64`'s `Sum`. A node is never a corner on its own
    /// level, so `node` may store it into the cells of `field`.
    fn sweep<T: Sample>(&self, l: u32, field: &[T], mut node: impl FnMut(usize, f64)) {
        let [az, ay, ax] = self.axes(l);
        let (plane, nx) = (self.ny * self.nx, self.nx);
        for (z, odd_z) in az.coords() {
            for (y, odd_y) in ay.coords() {
                let on_coarse_line = !(odd_z || odd_y);
                if on_coarse_line && !ax.coarsens {
                    continue;
                }
                let mut rows = [&field[..0]; 4];
                let mut used = 0;
                for zs in az.sources(z, odd_z) {
                    for ys in ay.sources(y, odd_y) {
                        let base = zs * plane + ys * nx;
                        rows[used] = &field[base..base + nx];
                        used += 1;
                    }
                }
                let rows = &rows[..used];
                let weight = [1.0, 0.5, 0.25][usize::from(odd_z) + usize::from(odd_y)];
                let half = weight * 0.5;
                let line = z * plane + y * nx;
                for (x, odd_x) in ax.coords() {
                    let pred = if odd_x {
                        let left = x - ax.stride;
                        let right = if x + ax.stride < nx { x + ax.stride } else { left };
                        rows.iter().fold(-0.0, |sum, row| {
                            sum + row[left].get() * half + row[right].get() * half
                        })
                    } else if on_coarse_line {
                        continue;
                    } else {
                        rows.iter().fold(-0.0, |sum, row| sum + row[x].get() * weight)
                    };
                    node(line + x, pred);
                }
            }
        }
    }

    /// Visit the base (coarsest) grid points in deterministic order.
    fn for_each_base(&self, mut f: impl FnMut(usize)) {
        let [az, ay, ax] = self.axes(self.levels);
        let plane = self.ny * self.nx;
        for (z, _) in az.coords() {
            for (y, _) in ay.coords() {
                for (x, _) in ax.coords() {
                    f(z * plane + y * self.nx + x);
                }
            }
        }
    }
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

    // One code per grid point, each at least a byte.
    let mut codes: Vec<u8> = Vec::new();
    alloc::try_reserve(&mut codes, data.len())?;
    let mut exceptions: Vec<u8> = Vec::new();
    let mut emit = |d: f64, raw: f64| match quant.code(d) {
        Some(q) => varint::write_u64(&mut codes, varint::zigzag(q)),
        None => {
            varint::write_u64(&mut codes, varint::zigzag(EXCEPTION));
            exceptions.extend_from_slice(&raw.to_le_bytes());
        }
    };

    // Multilevel coefficients, finest level first. Prediction corners are
    // original values of coarser points — the decoder's reconstructed
    // corners differ by at most the accumulated per-level error, which the
    // budget accounts for.
    for l in 0..h.levels {
        h.sweep(l, data, |idx, pred| emit(data[idx] - pred, data[idx]));
    }
    // Base grid: quantize the values themselves.
    h.for_each_base(|idx| emit(data[idx], data[idx]));

    let payload = deflate::compress(&codes)?;
    let exceptions = deflate::compress(&exceptions)?;
    let mut w = ByteWriter::with_capacity(payload.len() + exceptions.len() + 64);
    w.put_f64(abs_eb);
    w.put_u32(h.levels);
    w.put_u64(data.len() as u64);
    w.put_section(&payload);
    w.put_section(&exceptions);
    Ok(w.into_vec())
}

/// What is left of one section of the code stream — a level's detail nodes,
/// or the base grid — and of the verbatim values its `EXCEPTION` codes stand
/// for.
struct Section<'a> {
    codes: &'a [i64],
    verbatim: &'a [[u8; 8]],
}

impl Section<'_> {
    /// The next node's value, given what its code is a correction to.
    fn next(&mut self, quant: &Quantizer, pred: f64) -> f64 {
        let q = self.codes[0];
        self.codes = &self.codes[1..];
        if q != EXCEPTION {
            return pred + quant.value(q);
        }
        let raw = self.verbatim[0];
        self.verbatim = &self.verbatim[1..];
        f64::from_le_bytes(raw)
    }
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
    let exceptions = deflate::decompress(r.get_section()?)?;
    if r.remaining() != 0 {
        return Err(Error::corrupt(format!(
            "{} bytes follow the mgard exception section",
            r.remaining()
        )));
    }
    let h = Hierarchy::build(dims)?;
    if h.levels != levels {
        return Err(Error::corrupt(format!(
            "mgard stream has {levels} levels but dims {dims:?} imply {}",
            h.levels
        )));
    }
    // Every grid point contributes exactly one code; a corrupt count must
    // fail here, before it sizes any allocation.
    let n = h.nz * h.ny * h.nx;
    if n_codes != n as u64 {
        return Err(Error::corrupt(format!(
            "mgard stream declares {n_codes} codes for {n} grid points"
        )));
    }
    let quant = Quantizer::new(abs_eb / (levels as f64 + 1.0));

    // Decode the code stream up-front, in the writer's order.
    let mut pos = 0usize;
    let mut flagged = 0usize;
    let mut decoded: Vec<i64> = Vec::new();
    alloc::try_reserve(&mut decoded, n)?;
    for _ in 0..n {
        let q = varint::unzigzag(varint::read_u64(&codes, &mut pos)?);
        flagged += usize::from(q == EXCEPTION);
        decoded.push(q);
    }
    if pos != codes.len() {
        return Err(Error::corrupt(format!(
            "{} bytes follow the last of {n} mgard codes",
            codes.len() - pos
        )));
    }
    let (verbatim, fraction) = exceptions.as_chunks::<8>();
    if flagged != verbatim.len() || !fraction.is_empty() {
        return Err(Error::corrupt(format!(
            "mgard stream flags {flagged} exceptions but carries {} bytes of them",
            exceptions.len()
        )));
    }

    // The writer emitted the details of level 0, 1, ..., L-1, then the base,
    // and appended exceptions in that order; reconstruction runs the other
    // way, so sections come off the back of both. Level `l`'s starts where
    // `points(l)` codes are still to come, the base's where `points(levels)`.
    let (mut codes_end, mut verbatim_end) = (n, verbatim.len());
    let mut section_from = |points: usize| {
        let codes = &decoded[n - points..codes_end];
        codes_end = n - points;
        let count = codes.iter().filter(|&&q| q == EXCEPTION).count();
        let verbatim = &verbatim[verbatim_end - count..verbatim_end];
        verbatim_end -= count;
        Section { codes, verbatim }
    };

    let mut out = alloc::try_zeroed_vec::<f64>(n)?;
    let cells = Cell::from_mut(&mut out[..]).as_slice_of_cells();
    // Reconstruct: base first...
    let mut base = section_from(h.points(levels));
    // (`-0.0 + v` is `v` bit for bit, also for a `v` of either zero.)
    h.for_each_base(|idx| cells[idx].set(base.next(&quant, -0.0)));
    // ...then details from the coarsest detail level down to the finest.
    for l in (0..levels).rev() {
        let mut details = section_from(h.points(l));
        h.sweep(l, cells, |idx, pred| cells[idx].set(details.next(&quant, pred)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Hierarchy {
        /// The traversal every stream on disk was written by, kept as the
        /// scalar reference for [`Hierarchy::sweep`]: it builds each node's
        /// multilinear stencil as a list of `(index, weight)` corners, and
        /// the prediction is `corners.map(|(i, w)| field[i] * w).sum()`.
        fn for_each_detail(&self, l: u32, mut f: impl FnMut(usize, &[(usize, f64)])) {
            let (nz, ny, nx) = (self.nz, self.ny, self.nx);
            // Each axis keeps its own live stride: an axis that stopped
            // coarsening earlier stays at its final stride while other axes
            // continue to coarsen.
            let sz = 1usize << levels_for(nz, l);
            let sy = 1usize << levels_for(ny, l);
            let sx = 1usize << levels_for(nx, l);
            let cz = live(nz, l) >= 3;
            let cy = live(ny, l) >= 3;
            let cx = live(nx, l) >= 3;
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
    }

    /// Values whose products and partial sums expose any change of corner
    /// order, weight or starting value: both zeros, subnormals, magnitudes
    /// near the top of the range, and ordinary noise between them.
    fn awkward_values(n: usize) -> Vec<f64> {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|i| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                match s >> 60 {
                    0 | 1 => -0.0,
                    2 => 0.0,
                    3 => f64::from_bits(s >> 40 | 1),
                    4 => -f64::from_bits(s >> 40 | 1),
                    5 => noise * 1e300,
                    6 => noise * 1e-300,
                    _ => noise * (i % 13 + 1) as f64,
                }
            })
            .collect()
    }

    #[test]
    fn sweep_is_the_corner_list_traversal_bit_for_bit() {
        let all_dims: [&[usize]; 11] = [
            &[3],
            &[4],
            &[5],
            &[1000],
            &[3, 3],
            &[48, 56],
            &[3, 200, 5],
            &[12, 20, 24],
            &[10, 9, 8],
            &[65, 64, 63],
            &[3, 4, 17, 33],
        ];
        for dims in all_dims {
            let h = Hierarchy::build(dims).unwrap();
            let n = h.nz * h.ny * h.nx;
            assert_eq!(h.points(0), n, "{dims:?}");
            // Every value, then a field of negative zeros only: the one
            // input on which the sum's starting value shows.
            for mut field in [awkward_values(n), vec![-0.0; n]] {
                for l in 0..h.levels {
                    let mut reference = Vec::new();
                    h.for_each_detail(l, |idx, corners| {
                        let pred: f64 = corners.iter().map(|&(i, w)| field[i] * w).sum();
                        reference.push((idx, pred.to_bits()));
                    });
                    let mut swept = Vec::new();
                    h.sweep(l, &field, |idx, pred| swept.push((idx, pred.to_bits())));
                    assert!(swept == reference, "{dims:?} level {l}");
                    assert_eq!(swept.len(), h.points(l) - h.points(l + 1), "{dims:?} level {l}");

                    // The decoder's instance: the same reads through cells.
                    let cells = Cell::from_mut(&mut field[..]).as_slice_of_cells();
                    let mut through_cells = Vec::new();
                    h.sweep(l, cells, |idx, pred| through_cells.push((idx, pred.to_bits())));
                    assert!(through_cells == reference, "{dims:?} level {l}, cells");
                }
            }
            let mut base = 0;
            h.for_each_base(|_| base += 1);
            assert_eq!(base, h.points(h.levels), "{dims:?}");
        }
    }
}
