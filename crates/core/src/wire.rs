//! Little-endian wire-format helpers shared by every compressed-stream and
//! container format in the workspace.
//!
//! Compressed streams are self-describing: plugins serialize a small header
//! (magic, dtype, dims, parameters) followed by payload sections. These
//! helpers centralize bounds-checked reads so corrupt streams surface as
//! [`ErrorCode::CorruptStream`](crate::ErrorCode::CorruptStream) instead of
//! panics — which is what makes the fault-injection meta-compressor and the
//! fuzzing example safe to run.
//!
//! A decoder turns wire bytes into sizes through four operations and no
//! others: [`ByteReader::get_geometry`], [`Data::shape_to`](crate::Data::shape_to),
//! [`chunked`](crate::chunked) and [`alloc::try_reserve`](crate::alloc::try_reserve)
//! / [`try_zeroed_vec`](crate::alloc::try_zeroed_vec). It holds no unchecked
//! geometry and reserves for no declared count.

use crate::dtype::DType;
use crate::error::{Error, Result};

/// An append-only byte sink with typed little-endian writers.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, returning the accumulated bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the accumulated bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Append a little-endian `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw bytes, no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed (u64) byte section.
    pub fn put_section(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_bytes(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_section(v.as_bytes());
    }

    /// A dtype tag.
    pub fn put_dtype(&mut self, d: DType) {
        self.put_u8(d.tag());
    }

    /// Dimension list: count then each dim as u64.
    pub fn put_dims(&mut self, dims: &[usize]) {
        self.put_u32(dims.len() as u32);
        for &d in dims {
            self.put_u64(d as u64);
        }
    }
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corrupt(format!(
                "stream truncated: wanted {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Read a little-endian `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }
    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }
    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }
    /// Read a little-endian `f32`.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take_array()?))
    }
    /// Read a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Read a `u64` length/count field as `usize`, enforcing the
    /// [`MAX_DECODE_BYTES`] cap so stream-declared sizes cannot drive absurd
    /// allocations (and cannot wrap on 32-bit targets).
    pub fn get_len(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        if v > MAX_DECODE_BYTES {
            return Err(Error::corrupt(format!(
                "declared length {v} exceeds the {MAX_DECODE_BYTES}-byte decode cap"
            )));
        }
        usize::try_from(v)
            .map_err(|_| Error::corrupt(format!("declared length {v} does not fit usize")))
    }

    /// Read a `u32` count field as `usize` — via `try_from`, never a bare
    /// cast, so the conversion is lossless on every target.
    pub fn get_count(&mut self) -> Result<usize> {
        let v = self.get_u32()?;
        usize::try_from(v)
            .map_err(|_| Error::corrupt(format!("declared count {v} does not fit usize")))
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a length-prefixed section written by [`ByteWriter::put_section`].
    pub fn get_section(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(Error::corrupt(format!(
                "section length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        self.take(n as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.get_section()?)
            .map_err(|_| Error::corrupt("section is not valid UTF-8"))
    }

    /// Read a dtype tag.
    pub fn get_dtype(&mut self) -> Result<DType> {
        DType::from_tag(self.get_u8()?)
    }

    /// Read a dimension list written by [`ByteWriter::put_dims`]; refuses
    /// absurd dimension counts so corrupt streams cannot trigger huge
    /// allocations.
    pub fn get_dims(&mut self) -> Result<Vec<usize>> {
        let n = self.get_u32()?;
        if n > 64 {
            return Err(Error::corrupt(format!("implausible dimension count {n}")));
        }
        let mut dims = Vec::with_capacity(n as usize);
        for _ in 0..n {
            // Each dim is also a length: any real geometry passes
            // checked_geometry later, so the decode cap applies per-axis too.
            dims.push(self.get_len()?);
        }
        Ok(dims)
    }

    /// Read a header's `dtype · dims`, already through [`checked_geometry`]:
    /// how a plugin reads a geometry it may then size from.
    pub fn get_geometry(&mut self) -> Result<(DType, Vec<usize>)> {
        let dtype = self.get_dtype()?;
        Ok((dtype, self.get_dims_of(dtype)?))
    }

    /// [`get_geometry`](Self::get_geometry) for a header that records only
    /// the dims; the element type is the caller's.
    pub fn get_dims_of(&mut self, dtype: DType) -> Result<Vec<usize>> {
        let dims = self.get_dims()?;
        checked_geometry(dtype, &dims)?;
        Ok(dims)
    }

    /// The rest of the buffer, consuming it.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

/// Upper bound on the payload size any stream-declared geometry may claim
/// (1 TiB): corrupt headers must fail with a clean error instead of
/// attempting absurd allocations.
pub const MAX_DECODE_BYTES: u64 = 1 << 40;

/// Validate stream-declared geometry before allocating for it: checks for
/// multiplication overflow and the [`MAX_DECODE_BYTES`] cap, returning the
/// payload size in bytes.
pub fn checked_geometry(dtype: DType, dims: &[usize]) -> Result<usize> {
    let mut total: u64 = dtype.size() as u64;
    for &d in dims {
        total = total
            .checked_mul(d as u64)
            .ok_or_else(|| Error::corrupt(format!("dimensions {dims:?} overflow")))?;
        if total > MAX_DECODE_BYTES {
            return Err(Error::corrupt(format!(
                "declared geometry {dims:?} x {dtype} exceeds the {MAX_DECODE_BYTES}-byte decode cap"
            )));
        }
    }
    Ok(total as usize)
}

/// Decode the first 8 bytes of `slice` as a little-endian `f64`, or `None`
/// when the slice is too short — the panic-free form of
/// `f64::from_le_bytes(slice[..8].try_into().unwrap())`.
pub fn f64_le(slice: &[u8]) -> Option<f64> {
    let (head, _) = slice.split_first_chunk::<8>()?;
    Some(f64::from_le_bytes(*head))
}

/// Reinterpret a typed slice as bytes (plain-old-data only, via [`crate::Element`]).
pub fn elements_as_bytes<T: crate::Element>(s: &[T]) -> &[u8] {
    // SAFETY: Element guarantees T is plain-old-data without padding.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

/// Decode a little-endian byte slice into a typed vector.
///
/// # Errors
///
/// Fails when the byte length is not a multiple of the element size.
pub fn bytes_to_elements<T: crate::Element>(bytes: &[u8]) -> Result<Vec<T>> {
    let sz = std::mem::size_of::<T>();
    if !bytes.len().is_multiple_of(sz) {
        return Err(Error::corrupt(format!(
            "byte length {} is not a multiple of element size {sz}",
            bytes.len()
        )));
    }
    let n = bytes.len() / sz;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: we copy exactly n*sz initialized bytes into the reserved
    // allocation, then set the length; T is plain-old-data so any bit
    // pattern is valid.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
        out.set_len(n);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(1000);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-42);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 1000);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_read_is_error_not_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn section_roundtrip_and_corruption() {
        let mut w = ByteWriter::new();
        w.put_section(b"hello");
        w.put_str("world");
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_section().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "world");

        // A section whose declared length overruns the buffer must error.
        let mut w = ByteWriter::new();
        w.put_u64(1 << 50);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_section().is_err());
    }

    #[test]
    fn dims_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_dims(&[100, 500, 500]);
        w.put_dtype(DType::F32);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_dims().unwrap(), vec![100, 500, 500]);
        assert_eq!(r.get_dtype().unwrap(), DType::F32);
    }

    #[test]
    fn geometry_is_checked_as_it_is_read() {
        let mut w = ByteWriter::new();
        w.put_dtype(DType::F32);
        w.put_dims(&[3, 5]);
        w.put_dims(&[1 << 39]);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_geometry().unwrap(), (DType::F32, vec![3, 5]));
        // 2^39 bytes pass the decode cap, 2^39 doubles do not.
        assert_eq!(r.clone().get_dims_of(DType::U8).unwrap(), vec![1 << 39]);
        assert!(r.get_dims_of(DType::F64).is_err());
    }

    #[test]
    fn implausible_dims_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(10_000);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_dims().is_err());
    }

    #[test]
    fn element_byte_conversions() {
        let vals = [1.0f32, -2.5, 3.25];
        let bytes = elements_as_bytes(&vals);
        assert_eq!(bytes.len(), 12);
        let back: Vec<f32> = bytes_to_elements(bytes).unwrap();
        assert_eq!(back, vals);
        assert!(bytes_to_elements::<f64>(&bytes[..10]).is_err());
    }

    #[test]
    fn checked_geometry_guards_absurd_dims() {
        use crate::DType;
        assert_eq!(checked_geometry(DType::F64, &[10, 10]).unwrap(), 800);
        assert_eq!(checked_geometry(DType::Byte, &[]).unwrap(), 1);
        // Cap: one dimension of 2^60 bytes.
        assert!(checked_geometry(DType::F64, &[1 << 60]).is_err());
        // Overflow: product wraps u64.
        assert!(checked_geometry(DType::U8, &[1 << 40, 1 << 40]).is_err());
    }

    #[test]
    fn get_len_enforces_decode_cap() {
        let mut w = ByteWriter::new();
        w.put_u64(4096);
        w.put_u64(MAX_DECODE_BYTES + 1);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_len().unwrap(), 4096);
        assert!(r.get_len().is_err());
    }

    #[test]
    fn get_count_reads_u32() {
        let mut w = ByteWriter::new();
        w.put_u32(42);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_count().unwrap(), 42);
        assert!(r.get_count().is_err());
    }

    #[test]
    fn rest_consumes() {
        let mut r = ByteReader::new(&[1, 2, 3, 4]);
        r.get_u8().unwrap();
        assert_eq!(r.rest(), &[2, 3, 4]);
        assert_eq!(r.remaining(), 0);
    }
}
