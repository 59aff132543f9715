//! Output verification. Set-up checks one reference output against the
//! input it came from; every timed op is then compared with the reference
//! stream and output byte for byte, which is sound because streams and
//! outputs are deterministic in this repository.

use libpressio::{DType, Data};

/// What a workload's decompressed output must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Byte-equal to the input (lossless codecs and `noop`).
    Lossless,
    /// L∞ error at most this share of the input's value range (`pressio:rel`).
    Rel(f64),
}

/// Check the bytes of a decompressed output against the `input` they were
/// produced from.
pub fn check_output(input: &Data, output: &[u8], check: Check) -> Result<(), String> {
    if output.len() != input.size_in_bytes() {
        return Err(format!(
            "output has {} bytes, input had {}",
            output.len(),
            input.size_in_bytes()
        ));
    }
    let rel = match check {
        Check::Lossless => return same_bytes("output", input.as_bytes(), output),
        Check::Rel(rel) => rel,
    };
    if input.dtype() != DType::F32 {
        return Err(format!(
            "bound check needs f32 input, got {}",
            input.dtype()
        ));
    }
    let original = input.as_slice::<f32>().map_err(|e| e.to_string())?;
    let (min, max) = libpressio::core::value_min_max(original);
    let bound = rel * (max - min);
    // Codecs reconstruct in f64 and store f32: rounding to storage precision
    // may add half an ulp of the largest magnitude.
    let slack = min.abs().max(max.abs()) * f64::from(f32::EPSILON);
    let worst = original
        .iter()
        .zip(output.chunks_exact(4))
        .map(|(x, y)| {
            let y = f32::from_ne_bytes([y[0], y[1], y[2], y[3]]);
            (f64::from(*x) - f64::from(y)).abs()
        })
        .fold(0.0, |m, e| if e > m || e.is_nan() { e } else { m });
    if worst <= bound + slack {
        Ok(())
    } else {
        Err(format!(
            "L-inf error {worst:e} exceeds the resolved bound {bound:e}"
        ))
    }
}

/// Slice equality with the first differing offset in the message.
pub fn same_bytes(what: &str, reference: &[u8], got: &[u8]) -> Result<(), String> {
    if reference == got {
        return Ok(());
    }
    let at = reference
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(reference.len().min(got.len()));
    Err(format!(
        "{what} differs from the reference at byte {at} ({} vs {} bytes)",
        got.len(),
        reference.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use libpressio::{Compressor, Options};

    fn field() -> Data {
        libpressio::datagen::nyx_density(16, 3)
    }

    #[test]
    fn rejects_a_flipped_stream_byte() {
        let input = field();
        let mut sz = libpressio::sz::Sz::new(libpressio::sz::SzVariant::ThreadSafe);
        sz.set_options(&Options::new().with("pressio:rel", 1e-3f64))
            .unwrap();
        let reference = sz.compress(&input).unwrap();
        let mut stream = reference.as_bytes().to_vec();
        assert!(same_bytes("stream", reference.as_bytes(), &stream).is_ok());
        let middle = stream.len() / 2;
        stream[middle] ^= 0x10;
        let err = same_bytes("stream", reference.as_bytes(), &stream).unwrap_err();
        assert!(err.contains(&format!("byte {middle}")), "{err}");
        stream.pop();
        assert!(same_bytes("stream", reference.as_bytes(), &stream).is_err());
    }

    #[test]
    fn rejects_an_over_bound_value_and_accepts_the_bound() {
        let input = field();
        let values = input.as_slice::<f32>().unwrap();
        let range = libpressio::core::value_range(values);
        let nudged = |by: f64| {
            let mut v = values.to_vec();
            v[100] += by as f32;
            Data::from_vec(v, input.dims().to_vec()).unwrap()
        };
        let check = |output: &Data, check| check_output(&input, output.as_bytes(), check);
        assert!(check(&nudged(0.9e-3 * range), Check::Rel(1e-3)).is_ok());
        let err = check(&nudged(2e-3 * range), Check::Rel(1e-3)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(check(&nudged(f64::NAN), Check::Rel(1e-3)).is_err());
        assert!(check(&nudged(0.9e-3 * range), Check::Lossless).is_err());
        assert!(check(&input, Check::Lossless).is_ok());
        assert!(check_output(&input, &input.as_bytes()[4..], Check::Rel(1e-3)).is_err());
    }
}
