//! Shared helpers for meta-compressors.

use pressio_core::wire::{checked_geometry, ByteReader, ByteWriter};
use pressio_core::{registry, Compressor, Data, Error, Options, Result, Version};

/// Instantiate a child compressor by registry name.
pub fn resolve_child(name: &str) -> Result<Box<dyn Compressor>> {
    Ok(registry().compressor(name)?.into_inner())
}

/// The default child for meta-compressors: the registry's `noop` when
/// available (always, once `libpressio::init()` has run), otherwise a
/// private inert pass-through — so constructors are infallible without a
/// panic path.
pub fn default_child() -> Box<dyn Compressor> {
    resolve_child("noop").unwrap_or_else(|_| Box::new(InertChild))
}

/// Stand-in for `noop` used only when the registry has not been populated
/// (e.g. a bare unit test constructing a meta-compressor directly). Mirrors
/// noop's introspection surface; the wire format is private to this type,
/// which is fine because a stream never crosses between registry states.
#[derive(Debug, Clone, Copy)]
struct InertChild;

impl Compressor for InertChild {
    fn name(&self) -> &str {
        "noop"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn get_options(&self) -> Options {
        Options::new()
    }

    fn set_options(&mut self, _options: &Options) -> Result<()> {
        Ok(())
    }

    fn get_configuration(&self) -> Options {
        pressio_core::base_configuration(self)
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let mut w = ByteWriter::with_capacity(input.size_in_bytes() + 64);
        w.put_dtype(input.dtype());
        w.put_dims(input.dims());
        w.put_bytes(input.as_bytes());
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        let (dtype, dims) = r.get_geometry()?;
        let bytes = r.get_bytes(checked_geometry(dtype, &dims)?)?;
        output.shape_to(dtype, &dims)?;
        output.as_bytes_mut().copy_from_slice(bytes);
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(*self)
    }
}

/// Nd transpose of raw element bytes.
///
/// `dims` are the input dims (C order), `axes` maps output axis -> input
/// axis (a permutation). Returns the permuted bytes and the output dims.
pub fn transpose_bytes(
    bytes: &[u8],
    dims: &[usize],
    axes: &[usize],
    elem: usize,
) -> Result<(Vec<u8>, Vec<usize>)> {
    let nd = dims.len();
    if axes.len() != nd {
        return Err(Error::invalid_argument(format!(
            "axes {axes:?} must have the same length as dims {dims:?}"
        )));
    }
    let mut seen = vec![false; nd];
    for &a in axes {
        if a >= nd || seen[a] {
            return Err(Error::invalid_argument(format!(
                "axes {axes:?} is not a permutation of 0..{nd}"
            )));
        }
        seen[a] = true;
    }
    let n: usize = dims.iter().product();
    if bytes.len() != n * elem {
        return Err(Error::invalid_argument(
            "byte length does not match dims and element size",
        ));
    }
    // Input strides (elements).
    let mut in_strides = vec![1usize; nd];
    for i in (0..nd.saturating_sub(1)).rev() {
        in_strides[i] = in_strides[i + 1] * dims[i + 1];
    }
    let out_dims: Vec<usize> = axes.iter().map(|&a| dims[a]).collect();
    let mut out = vec![0u8; bytes.len()];
    // Iterate output indices in order; compute the matching input index.
    let mut coord = vec![0usize; nd];
    for (oi, chunk) in out.chunks_exact_mut(elem).enumerate() {
        // Decompose oi into output coords.
        let mut rem = oi;
        for (k, &od) in out_dims.iter().enumerate().rev() {
            coord[k] = rem % od;
            rem /= od;
        }
        let mut ii = 0usize;
        for (k, &a) in axes.iter().enumerate() {
            ii += coord[k] * in_strides[a];
        }
        chunk.copy_from_slice(&bytes[ii * elem..(ii + 1) * elem]);
    }
    Ok((out, out_dims))
}

/// Parse a comma-separated list of unsigned integers (e.g. `"2,0,1"`).
pub fn parse_usize_list(s: &str) -> Result<Vec<usize>> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| Error::invalid_argument(format!("cannot parse {p:?} as an index")))
        })
        .collect()
}

/// Inverse of a permutation.
pub fn invert_axes(axes: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; axes.len()];
    for (i, &a) in axes.iter().enumerate() {
        inv[a] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_2d_known() {
        // 2x3 row-major [[1,2,3],[4,5,6]] -> 3x2 [[1,4],[2,5],[3,6]].
        let vals: Vec<u8> = vec![1, 2, 3, 4, 5, 6];
        let (out, dims) = transpose_bytes(&vals, &[2, 3], &[1, 0], 1).unwrap();
        assert_eq!(dims, vec![3, 2]);
        assert_eq!(out, vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn transpose_roundtrip_3d_multibyte() {
        let dims = [3usize, 4, 5];
        let n: usize = dims.iter().product();
        let vals: Vec<u32> = (0..n as u32).collect();
        let bytes = pressio_core::elements_as_bytes(&vals);
        let axes = [2usize, 0, 1];
        let (t, tdims) = transpose_bytes(bytes, &dims, &axes, 4).unwrap();
        assert_eq!(tdims, vec![5, 3, 4]);
        let inv = invert_axes(&axes);
        let (back, bdims) = transpose_bytes(&t, &tdims, &inv, 4).unwrap();
        assert_eq!(bdims, dims.to_vec());
        assert_eq!(back, bytes);
    }

    #[test]
    fn identity_permutation() {
        let vals = vec![9u8, 8, 7, 6];
        let (out, dims) = transpose_bytes(&vals, &[4], &[0], 1).unwrap();
        assert_eq!(out, vals);
        assert_eq!(dims, vec![4]);
    }

    #[test]
    fn invalid_axes_rejected() {
        let vals = vec![0u8; 6];
        assert!(transpose_bytes(&vals, &[2, 3], &[0], 1).is_err());
        assert!(transpose_bytes(&vals, &[2, 3], &[0, 0], 1).is_err());
        assert!(transpose_bytes(&vals, &[2, 3], &[0, 2], 1).is_err());
    }

    #[test]
    fn inert_child_fills_a_correctly_sized_output_in_place() {
        let input = Data::from_slice(&[1.0f32, 2.0, 3.0, 4.0], vec![2, 2]).unwrap();
        let stream = InertChild.compress(&input).unwrap();
        let mut out = Data::owned(pressio_core::DType::F32, vec![4]);
        let held = out.as_bytes().as_ptr();
        InertChild.decompress(&stream, &mut out).unwrap();
        assert_eq!(out, input);
        assert_eq!(out.as_bytes().as_ptr(), held, "reshaped, not reallocated");
    }

    #[test]
    fn parse_list() {
        assert_eq!(parse_usize_list("2, 0,1").unwrap(), vec![2, 0, 1]);
        assert!(parse_usize_list("a,b").is_err());
    }

    #[test]
    fn invert() {
        assert_eq!(invert_axes(&[2, 0, 1]), vec![1, 2, 0]);
        assert_eq!(invert_axes(&[0, 1]), vec![0, 1]);
    }
}
