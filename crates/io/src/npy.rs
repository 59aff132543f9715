//! NumPy `.npy` v1.0 files (the `numpy` IO plugin).
//!
//! Implements the published format from scratch: the `\x93NUMPY` magic, a
//! Python-dict header with `descr`, `fortran_order`, and `shape`, and the
//! raw little-endian payload. Self-describing, so `read` needs no template.

use std::io::{Read, Write};

use pressio_core::{DType, Data, Error, IoPlugin, OptionKind, Options, Result};

/// Map a dtype to its numpy descr.
fn descr_of(d: DType) -> &'static str {
    match d {
        DType::I8 => "|i1",
        DType::I16 => "<i2",
        DType::I32 => "<i4",
        DType::I64 => "<i8",
        DType::U8 | DType::Byte => "|u1",
        DType::U16 => "<u2",
        DType::U32 => "<u4",
        DType::U64 => "<u8",
        DType::F32 => "<f4",
        DType::F64 => "<f8",
    }
}

/// Inverse of [`descr_of`].
fn dtype_of(descr: &str) -> Result<DType> {
    Ok(match descr {
        "|i1" | "i1" => DType::I8,
        "<i2" => DType::I16,
        "<i4" => DType::I32,
        "<i8" => DType::I64,
        "|u1" | "u1" => DType::U8,
        "<u2" => DType::U16,
        "<u4" => DType::U32,
        "<u8" => DType::U64,
        "<f4" => DType::F32,
        "<f8" => DType::F64,
        other => {
            return Err(Error::unsupported(format!(
                "unsupported numpy descr {other:?} (big-endian and object arrays are not supported)"
            )))
        }
    })
}

/// Serialize `data` as `.npy` bytes.
pub fn to_npy_bytes(data: &Data) -> Vec<u8> {
    let shape = data
        .dims()
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let shape = if data.num_dims() == 1 {
        format!("({shape},)")
    } else {
        format!("({shape})")
    };
    let mut header = format!(
        "{{'descr': '{}', 'fortran_order': False, 'shape': {}, }}",
        descr_of(data.dtype()),
        shape
    );
    // Pad with spaces so magic+version+len+header is a multiple of 64,
    // terminated by a newline (per the spec).
    let prefix = 10;
    let total = (prefix + header.len() + 1).div_ceil(64) * 64;
    while prefix + header.len() + 1 < total {
        header.push(' ');
    }
    header.push('\n');
    let mut out = Vec::with_capacity(total + data.size_in_bytes());
    out.extend_from_slice(b"\x93NUMPY");
    out.push(1);
    out.push(0);
    out.extend_from_slice(&(header.len() as u16).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(data.as_bytes());
    out
}

/// Parse `.npy` bytes.
pub fn from_npy_bytes(bytes: &[u8]) -> Result<Data> {
    if bytes.len() < 10 || &bytes[..6] != b"\x93NUMPY" {
        return Err(Error::corrupt("not a .npy file (bad magic)"));
    }
    let (major, _minor) = (bytes[6], bytes[7]);
    if major != 1 {
        return Err(Error::unsupported(format!(
            ".npy version {major} is not supported (only 1.0)"
        )));
    }
    let hlen = usize::from(u16::from_le_bytes([bytes[8], bytes[9]]));
    let header = bytes
        .get(10..10 + hlen)
        .ok_or_else(|| Error::corrupt(".npy header truncated"))?;
    let header = std::str::from_utf8(header)
        .map_err(|_| Error::corrupt(".npy header is not UTF-8"))?;

    let descr = extract_str_field(header, "descr")?;
    let dtype = dtype_of(&descr)?;
    let fortran = header.contains("'fortran_order': True");
    if fortran {
        return Err(Error::unsupported("fortran_order .npy files are not supported"));
    }
    let dims = extract_shape(header)?;
    let nbytes = pressio_core::checked_geometry(dtype, &dims)?;
    let payload = bytes
        .get(10 + hlen..)
        .ok_or_else(|| Error::corrupt(".npy payload truncated"))?;
    if payload.len() < nbytes {
        return Err(Error::corrupt(format!(
            ".npy payload has {} bytes, expected {nbytes}",
            payload.len(),
        )));
    }
    let mut out = Data::alloc_output(dtype, dims)?;
    out.as_bytes_mut().copy_from_slice(&payload[..nbytes]);
    Ok(out)
}

fn extract_str_field(header: &str, key: &str) -> Result<String> {
    let pat = format!("'{key}':");
    let at = header
        .find(&pat)
        .ok_or_else(|| Error::corrupt(format!(".npy header missing {key:?}")))?;
    let rest = &header[at + pat.len()..];
    let open = rest
        .find('\'')
        .ok_or_else(|| Error::corrupt(".npy header malformed"))?;
    let rest = &rest[open + 1..];
    let close = rest
        .find('\'')
        .ok_or_else(|| Error::corrupt(".npy header malformed"))?;
    Ok(rest[..close].to_string())
}

fn extract_shape(header: &str) -> Result<Vec<usize>> {
    let at = header
        .find("'shape':")
        .ok_or_else(|| Error::corrupt(".npy header missing shape"))?;
    let rest = &header[at..];
    let open = rest
        .find('(')
        .ok_or_else(|| Error::corrupt(".npy header malformed shape"))?;
    let close = rest[open..]
        .find(')')
        .ok_or_else(|| Error::corrupt(".npy header malformed shape"))?;
    let inner = &rest[open + 1..open + close];
    let mut dims = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        dims.push(
            part.parse::<usize>()
                .map_err(|_| Error::corrupt(format!("bad shape entry {part:?}")))?,
        );
    }
    if dims.is_empty() {
        dims.push(1); // 0-d array holds one scalar
    }
    Ok(dims)
}

/// The `numpy` IO plugin.
#[derive(Debug, Clone, Default)]
pub struct NpyIo {
    path: Option<String>,
}

impl IoPlugin for NpyIo {
    fn name(&self) -> &str {
        "numpy"
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new();
        match &self.path {
            Some(p) => o.set("io:path", p.as_str()),
            None => o.declare("io:path", OptionKind::Str),
        }
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(p) = options.get_as::<String>("io:path")? {
            self.path = Some(p);
        }
        Ok(())
    }

    fn read(&mut self, _template: Option<&Data>) -> Result<Data> {
        let path = self
            .path
            .clone()
            .ok_or_else(|| Error::invalid_argument("io:path is not set").in_plugin("numpy"))?;
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        from_npy_bytes(&bytes)
    }

    fn write(&mut self, data: &Data) -> Result<()> {
        let path = self
            .path
            .clone()
            .ok_or_else(|| Error::invalid_argument("io:path is not set").in_plugin("numpy"))?;
        let mut f = std::fs::File::create(path)?;
        f.write_all(&to_npy_bytes(data))?;
        Ok(())
    }

    fn clone_io(&self) -> Box<dyn IoPlugin> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_dtypes() {
        for dtype in [
            DType::I8,
            DType::I32,
            DType::U16,
            DType::U64,
            DType::F32,
            DType::F64,
        ] {
            let mut d = Data::owned(dtype, vec![3, 4]);
            for (i, b) in d.as_bytes_mut().iter_mut().enumerate() {
                *b = (i * 7 % 251) as u8;
            }
            let bytes = to_npy_bytes(&d);
            let back = from_npy_bytes(&bytes).unwrap();
            assert_eq!(back, d, "{dtype}");
        }
    }

    #[test]
    fn header_is_spec_conformant() {
        let d = Data::from_vec(vec![1.0f64, 2.0, 3.0], vec![3]).unwrap();
        let bytes = to_npy_bytes(&d);
        assert_eq!(&bytes[..6], b"\x93NUMPY");
        assert_eq!(bytes[6], 1);
        let hlen = usize::from(u16::from_le_bytes([bytes[8], bytes[9]]));
        assert_eq!((10 + hlen) % 64, 0, "header must pad to 64-byte alignment");
        let header = std::str::from_utf8(&bytes[10..10 + hlen]).unwrap();
        assert!(header.contains("'descr': '<f8'"));
        assert!(header.contains("'shape': (3,)"));
        assert!(header.ends_with('\n'));
    }

    #[test]
    fn one_dim_shape_has_trailing_comma() {
        let d = Data::owned(DType::F32, vec![7]);
        let bytes = to_npy_bytes(&d);
        let hlen = usize::from(u16::from_le_bytes([bytes[8], bytes[9]]));
        let header = std::str::from_utf8(&bytes[10..10 + hlen]).unwrap();
        assert!(header.contains("(7,)"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_npy_bytes(b"not numpy at all").is_err());
        assert!(from_npy_bytes(b"").is_err());
        let d = Data::owned(DType::F64, vec![10]);
        let mut bytes = to_npy_bytes(&d);
        bytes.truncate(bytes.len() - 8); // missing one element
        assert!(from_npy_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_fortran_order_and_big_endian() {
        let d = Data::owned(DType::F64, vec![2]);
        let bytes = to_npy_bytes(&d);
        let s = String::from_utf8_lossy(&bytes).into_owned();
        let fortran = s.replace("'fortran_order': False", "'fortran_order': True ");
        assert!(from_npy_bytes(fortran.as_bytes()).is_err());
        let big = String::from_utf8_lossy(&bytes).replace("<f8", ">f8");
        assert!(from_npy_bytes(big.as_bytes()).is_err());
    }

    #[test]
    fn plugin_file_roundtrip() {
        let dir = std::env::temp_dir().join("pressio-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.npy").to_string_lossy().into_owned();
        let d = Data::from_vec((0..24u32).collect::<Vec<_>>(), vec![2, 3, 4]).unwrap();
        let mut io = NpyIo::default();
        io.set_options(&Options::new().with("io:path", path.as_str())).unwrap();
        io.write(&d).unwrap();
        let back = io.read(None).unwrap();
        assert_eq!(back, d);
    }
}
