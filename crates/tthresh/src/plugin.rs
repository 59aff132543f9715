//! The `tthresh` compressor plugin: truncated SVD with quantized factors.
//!
//! Like real tthresh, the accuracy target is a *relative Frobenius-norm*
//! error (`tthresh:target_eps`, the `-e` flag), not a point-wise L∞ bound —
//! `get_configuration` advertises `error_bounded = false` accordingly, and
//! generic tools can discover that by introspection. Inputs of more than
//! two dimensions are unfolded along the slowest axis (a simplification of
//! tthresh's full Tucker decomposition, documented in DESIGN.md).

use pressio_codecs::{deflate, varint};
use pressio_core::{
    registry, require_dtype, ByteReader, ByteWriter, Compressor, DType, Data, Error, Options,
    Result, ThreadSafety, Version,
};

use crate::svd::{reconstruct, truncated_svd, Triplet};

/// Stream envelope magic ("TTHR").
const MAGIC: u32 = 0x5454_4852;
/// Factor-quantization resolution relative to each vector's max magnitude.
const FACTOR_QUANT: f64 = 1.0 / (1 << 15) as f64;

/// The tthresh-style SVD compressor.
#[derive(Debug, Clone)]
pub struct Tthresh {
    /// Relative Frobenius error target in (0, 1).
    target_eps: f64,
    /// Hard cap on stored rank.
    max_rank: u32,
}

impl Default for Tthresh {
    fn default() -> Self {
        Tthresh {
            target_eps: 1e-3,
            max_rank: 512,
        }
    }
}

fn quantize_vector(v: &[f64], out: &mut Vec<u8>) {
    let max = v.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(1e-300);
    let step = max * FACTOR_QUANT;
    out.extend_from_slice(&max.to_le_bytes());
    for &x in v {
        varint::write_u64(out, varint::zigzag((x / step).round() as i64));
    }
}

fn dequantize_vector(bytes: &[u8], pos: &mut usize, len: usize) -> Result<Vec<f64>> {
    let Some(max) = bytes.get(*pos..).and_then(pressio_core::wire::f64_le) else {
        return Err(Error::corrupt("tthresh factor header truncated"));
    };
    *pos += 8;
    if !(max.is_finite() && max > 0.0) {
        return Err(Error::corrupt("tthresh factor scale invalid"));
    }
    let step = max * FACTOR_QUANT;
    // `len` is a stream-declared extent; every value costs at least one
    // varint byte, so what remains of the payload bounds it exactly.
    if len > bytes.len() - *pos {
        return Err(Error::corrupt("tthresh factor longer than its payload"));
    }
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        let q = varint::unzigzag(varint::read_u64(bytes, pos)?);
        v.push(q as f64 * step);
    }
    Ok(v)
}

/// Unfold input dims into a near-square (m, n) matrix shape.
fn matrix_shape(dims: &[usize]) -> (usize, usize) {
    match dims.len() {
        0 => (1, 1),
        1 => {
            // Fold a vector into a near-square matrix for low-rank structure.
            let n = dims[0];
            let mut cols = (n as f64).sqrt() as usize;
            while cols > 1 && !n.is_multiple_of(cols) {
                cols -= 1;
            }
            (n / cols.max(1), cols.max(1))
        }
        _ => {
            let n = dims.last().copied().unwrap_or(1);
            (dims[..dims.len() - 1].iter().product(), n)
        }
    }
}

impl Compressor for Tthresh {
    fn name(&self) -> &str {
        "tthresh"
    }

    fn version(&self) -> Version {
        Version::new(0, 2, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        ThreadSafety::Multiple
    }

    fn get_options(&self) -> Options {
        Options::new()
            .with("tthresh:target_eps", self.target_eps)
            .with("tthresh:max_rank", self.max_rank)
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(e) = options.get_as::<f64>("tthresh:target_eps")? {
            if !(e.is_finite() && (0.0..1.0).contains(&e) && e > 0.0) {
                return Err(Error::invalid_argument(format!(
                    "target_eps must be in (0, 1), got {e}"
                ))
                .in_plugin("tthresh"));
            }
            self.target_eps = e;
        }
        if let Some(r) = options.get_as::<u32>("tthresh:max_rank")? {
            if r == 0 {
                return Err(Error::invalid_argument("max_rank must be >= 1").in_plugin("tthresh"));
            }
            self.max_rank = r;
        }
        Ok(())
    }

    fn check_options(&self, options: &Options) -> Result<()> {
        let mut probe = self.clone();
        probe.set_options(options)
    }

    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.set("tthresh:pressio:lossless", false);
        o.set("tthresh:pressio:lossy", true);
        // Frobenius-norm target, not a point-wise guarantee.
        o.set("tthresh:pressio:error_bounded", false);
        o
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "tthresh",
                "SVD-based lossy compressor (tthresh style): truncated singular value \
                 decomposition with quantized factors; targets a relative Frobenius error",
            )
            .with("tthresh:target_eps", "relative Frobenius-norm error target in (0, 1)")
            .with("tthresh:max_rank", "hard cap on the stored rank")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        require_dtype("tthresh", input, &[DType::F32, DType::F64])?;
        let values = input.to_f64_vec()?;
        if values.iter().any(|v| !v.is_finite()) {
            return Err(Error::unsupported(
                "tthresh cannot represent non-finite values; mask or replace them first",
            )
            .in_plugin("tthresh"));
        }
        let (m, n) = matrix_shape(input.dims());
        if m * n != values.len() {
            return Err(Error::internal("unfolding mismatch").in_plugin("tthresh"));
        }
        // Target slightly tighter than requested to leave headroom for the
        // factor quantization noise.
        let eps = self.target_eps * 0.8;
        let energy_fraction = 1.0 - eps * eps;
        let (triplets, _residual) =
            truncated_svd(&values, m, n, energy_fraction, self.max_rank as usize);

        let mut payload = Vec::new();
        for t in &triplets {
            payload.extend_from_slice(&t.sigma.to_le_bytes());
            quantize_vector(&t.u, &mut payload);
            quantize_vector(&t.v, &mut payload);
        }
        let packed = deflate::compress(&payload)?;
        let mut w = ByteWriter::with_capacity(packed.len() + 64);
        w.put_u32(MAGIC);
        w.put_dtype(input.dtype());
        w.put_dims(input.dims());
        w.put_u64(m as u64);
        w.put_u64(n as u64);
        w.put_u32(triplets.len() as u32);
        w.put_section(&packed);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != MAGIC {
            return Err(Error::corrupt("bad tthresh envelope magic").in_plugin("tthresh"));
        }
        let (dtype, dims) = r.get_geometry().map_err(|e| e.in_plugin("tthresh"))?;
        let m = r.get_len()?;
        let n = r.get_len()?;
        let rank = r.get_count()?;
        let total: usize = dims.iter().product();
        if m.checked_mul(n) != Some(total) || rank > m.min(n).max(1) {
            return Err(Error::corrupt("tthresh geometry inconsistent").in_plugin("tthresh"));
        }
        let payload = deflate::decompress(r.get_section()?)?;
        let mut pos = 0usize;
        let mut triplets = Vec::new();
        for _ in 0..rank {
            let Some(sigma) = payload.get(pos..).and_then(pressio_core::wire::f64_le) else {
                return Err(Error::corrupt("tthresh sigma truncated"));
            };
            pos += 8;
            if !(sigma.is_finite() && sigma >= 0.0) {
                return Err(Error::corrupt("tthresh sigma invalid"));
            }
            let u = dequantize_vector(&payload, &mut pos, m)?;
            let v = dequantize_vector(&payload, &mut pos, n)?;
            triplets.push(Triplet { sigma, u, v });
        }
        let values = reconstruct(&triplets, m, n).map_err(|e| e.in_plugin("tthresh"))?;
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin("tthresh"))?;
        output.fill_from(&values)
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

/// Register the `tthresh` plugin.
pub fn register_builtins() {
    registry().register_compressor("tthresh", || Box::new(Tthresh::default()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::frobenius;

    fn low_rank_field(m: usize, n: usize) -> Data {
        // Separable (rank ~3) field: SVD's best case.
        let mut vals = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                vals.push(
                    (i as f64 * 0.1).sin() * (j as f64 * 0.07).cos() * 10.0
                        + (i as f64 * 0.02).cos() * 2.0
                        + (j as f64 * 0.03).sin(),
                );
            }
        }
        Data::from_vec(vals, vec![m, n]).unwrap()
    }

    fn rel_frobenius_err(a: &Data, b: &Data) -> f64 {
        let x = a.to_f64_vec().unwrap();
        let y = b.to_f64_vec().unwrap();
        let diff: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p - q).collect();
        frobenius(&diff) / frobenius(&x)
    }

    #[test]
    fn frobenius_target_met_on_low_rank_data() {
        let input = low_rank_field(48, 40);
        for eps in [1e-1, 1e-2, 1e-3] {
            let mut c = Tthresh::default();
            c.set_options(&Options::new().with("tthresh:target_eps", eps))
                .unwrap();
            let compressed = c.compress(&input).unwrap();
            let mut out = Data::owned(DType::F64, vec![48, 40]);
            c.decompress(&compressed, &mut out).unwrap();
            let err = rel_frobenius_err(&input, &out);
            assert!(err <= eps, "eps {eps}: rel frobenius err {err}");
        }
    }

    #[test]
    fn low_rank_data_compresses_strongly() {
        let input = low_rank_field(96, 96);
        let mut c = Tthresh::default();
        c.set_options(&Options::new().with("tthresh:target_eps", 1e-3f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let ratio = input.size_in_bytes() as f64 / compressed.size_in_bytes() as f64;
        assert!(ratio > 8.0, "ratio {ratio:.2}");
    }

    #[test]
    fn rank_cap_limits_quality_and_size() {
        let input = low_rank_field(64, 64);
        let mut capped = Tthresh::default();
        capped
            .set_options(
                &Options::new()
                    .with("tthresh:target_eps", 1e-6f64)
                    .with("tthresh:max_rank", 1u32),
            )
            .unwrap();
        let small = capped.compress(&input).unwrap();
        let mut full = Tthresh::default();
        full.set_options(&Options::new().with("tthresh:target_eps", 1e-6f64))
            .unwrap();
        let big = full.compress(&input).unwrap();
        assert!(small.size_in_bytes() < big.size_in_bytes());
    }

    #[test]
    fn introspection_reports_not_error_bounded() {
        let c = Tthresh::default();
        let cfg = c.get_configuration();
        assert_eq!(
            cfg.get_as::<bool>("tthresh:pressio:error_bounded").unwrap(),
            Some(false)
        );
    }

    #[test]
    fn invalid_options_rejected() {
        let c = Tthresh::default();
        assert!(c
            .check_options(&Options::new().with("tthresh:target_eps", 1.5f64))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("tthresh:target_eps", 0.0f64))
            .is_err());
        assert!(c
            .check_options(&Options::new().with("tthresh:max_rank", 0u32))
            .is_err());
    }

    #[test]
    fn one_dimensional_input_folds() {
        let vals: Vec<f64> = (0..900).map(|i| (i as f64 * 0.05).sin()).collect();
        let input = Data::from_vec(vals, vec![900]).unwrap();
        let mut c = Tthresh::default();
        c.set_options(&Options::new().with("tthresh:target_eps", 1e-2f64))
            .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![900]);
        c.decompress(&compressed, &mut out).unwrap();
        assert!(rel_frobenius_err(&input, &out) <= 1e-2);
    }

    #[test]
    fn nan_rejected_and_corrupt_streams_error() {
        let mut c = Tthresh::default();
        let bad = Data::from_vec(vec![1.0f64, f64::NAN], vec![2]).unwrap();
        assert!(c.compress(&bad).is_err());

        let input = low_rank_field(16, 16);
        let compressed = c.compress(&input).unwrap();
        let bytes = compressed.as_bytes();
        let mut out = Data::owned(DType::F64, vec![16, 16]);
        for cut in (0..bytes.len()).step_by(9) {
            let _ = c.decompress(&Data::from_bytes(&bytes[..cut]), &mut out);
        }
        let mut flipped = bytes.to_vec();
        flipped[8] ^= 0x42;
        let _ = c.decompress(&Data::from_bytes(&flipped), &mut out);
    }

    #[test]
    fn registered() {
        register_builtins();
        assert!(registry().has_compressor("tthresh"));
    }
}
