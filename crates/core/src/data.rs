//! The `pressio_data` analog: a dynamically typed, n-dimensional, owned data
//! buffer.
//!
//! [`Data`] couples raw bytes with a [`DType`] and a dimension list so that
//! compressors can exploit type and layout information (the paper's
//! "datatype-aware" and "n-d data aware" criteria), while memory management
//! stays inside the abstraction. Dimensions are stored in **C order**
//! (slowest-varying first); plugins whose native convention is Fortran order
//! (e.g. the ZFP-style compressor) reorder internally, transparently to the
//! user — exactly the uniform-ordering policy the paper argues for.
//!
//! The C library's deleter-function design (owning, non-owning, and shallow
//! copies) maps onto Rust as one representation: every [`Data`] holds its
//! payload in a reference-counted, 64-byte-aligned buffer. [`Clone`] is O(1)
//! and shares the payload; the first mutable access through a handle that is
//! still sharing ([`Data::as_bytes_mut`], [`Data::as_mut_slice`]) copies it
//! first, so value semantics hold — writing through one handle never shows
//! through another — while a buffer nobody else holds is written in place.
//! That is what lets a wrapper stage its input for a worker thread, or a
//! daemon hand a request payload from its reader to its worker, without
//! copying a byte.
//!
//! Sizes that come from outside the program (a stream header, a peer's
//! request) go through [`Data::alloc_output`]: geometry check, memory-budget
//! charge, and an allocation that fails with an error instead of aborting.
//! A decoder reaches it through [`Data::shape_to`] and writes its result with
//! [`Data::fill_from`]; nothing outside this crate replaces an output buffer.

use std::sync::Arc;

use crate::alloc::AlignedVec;
use crate::dtype::{DType, Element};
use crate::error::{Error, ErrorCode, Result};

/// A dynamically typed n-dimensional data buffer.
///
/// This is the single currency passed between compressors, metrics, and IO
/// plugins. See the [module docs](self) for the design rationale.
#[derive(Debug, Clone)]
pub struct Data {
    dtype: DType,
    dims: Vec<usize>,
    storage: Arc<AlignedVec>,
}

impl Data {
    // ---------------------------------------------------------------- ctors

    /// A zero-filled buffer of the given type and dimensions.
    pub fn owned(dtype: DType, dims: impl Into<Vec<usize>>) -> Data {
        let dims = dims.into();
        let n: usize = dims.iter().product::<usize>();
        Data {
            dtype,
            storage: Arc::new(AlignedVec::zeroed(n * dtype.size())),
            dims,
        }
    }

    /// A zero-filled buffer for a geometry that came from outside the
    /// program — a stream header, a peer's request. The one allocation path
    /// for such sizes: the geometry must pass
    /// [`checked_geometry`](crate::checked_geometry), the bytes are charged
    /// to the ambient [`CancelToken`](crate::CancelToken)'s memory budget,
    /// and an allocation the host refuses is an error, never an abort.
    ///
    /// # Errors
    ///
    /// [`CorruptStream`](ErrorCode::CorruptStream) for an implausible
    /// geometry; [`Cancelled`](ErrorCode::Cancelled) when the budget or the
    /// allocator says no.
    pub fn alloc_output(dtype: DType, dims: impl Into<Vec<usize>>) -> Result<Data> {
        let dims = dims.into();
        let bytes = crate::wire::checked_geometry(dtype, &dims)?;
        crate::cancel::charge(bytes as u64)?;
        let storage = AlignedVec::try_zeroed(bytes).ok_or_else(|| {
            Error::new(
                ErrorCode::Cancelled,
                format!("the host refused the {bytes}-byte allocation for {dims:?} x {dtype}"),
            )
        })?;
        Ok(Data {
            dtype,
            dims,
            storage: Arc::new(storage),
        })
    }

    /// An empty 0-element buffer of the given type (used as an output
    /// placeholder, like `pressio_data_new_empty`).
    pub fn empty(dtype: DType) -> Data {
        Data::owned(dtype, vec![0usize])
    }

    /// Copy a typed slice into a new buffer.
    ///
    /// # Errors
    ///
    /// Fails if `dims` do not multiply to `src.len()`.
    pub fn from_slice<T: Element>(src: &[T], dims: impl Into<Vec<usize>>) -> Result<Data> {
        let dims = dims.into();
        let n: usize = dims.iter().product();
        if n != src.len() {
            return Err(Error::invalid_argument(format!(
                "dims {dims:?} describe {n} elements but slice has {}",
                src.len()
            )));
        }
        // SAFETY: Element guarantees T is plain-old-data with no padding, so
        // viewing the slice as bytes is sound.
        let bytes = unsafe {
            std::slice::from_raw_parts(src.as_ptr() as *const u8, std::mem::size_of_val(src))
        };
        Ok(Data {
            dtype: T::DTYPE,
            dims,
            storage: Arc::new(AlignedVec::from_slice(bytes)),
        })
    }

    /// Take ownership of a typed vector (the `pressio_data_new_move` analog;
    /// one copy is made to guarantee alignment).
    pub fn from_vec<T: Element>(src: Vec<T>, dims: impl Into<Vec<usize>>) -> Result<Data> {
        Data::from_slice(&src, dims)
    }

    /// Wrap raw bytes as a 1-d `Byte` buffer (compressed streams).
    pub fn from_bytes(bytes: &[u8]) -> Data {
        Data::from_byte_parts(&[bytes])
    }

    /// The concatenation of `parts` as a 1-d `Byte` buffer, assembled in one
    /// pass: a stream built from a header, a payload and a trailer lands
    /// once, in the aligned buffer the next stage reads.
    pub fn from_byte_parts(parts: &[&[u8]]) -> Data {
        Data::from_aligned_bytes(AlignedVec::concat(parts))
    }

    /// Wrap an already-aligned buffer as a 1-d `Byte` buffer without copying.
    pub fn from_aligned_bytes(bytes: AlignedVec) -> Data {
        Data {
            dtype: DType::Byte,
            dims: vec![bytes.len()],
            storage: Arc::new(bytes),
        }
    }

    // ------------------------------------------------------------- geometry

    /// The element type.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Dimensions in C order (slowest-varying first).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Total payload size in bytes.
    #[inline]
    pub fn size_in_bytes(&self) -> usize {
        self.storage.len()
    }

    /// Reinterpret the buffer with new dimensions (same dtype, same element
    /// count) — the `resize` meta-compressor builds on this.
    pub fn reshape(&mut self, dims: impl Into<Vec<usize>>) -> Result<()> {
        let dims = dims.into();
        let n: usize = dims.iter().product();
        if n != self.num_elements() {
            return Err(Error::invalid_argument(format!(
                "reshape to {dims:?} ({n} elements) from {:?} ({} elements)",
                self.dims,
                self.num_elements()
            )));
        }
        self.dims = dims;
        Ok(())
    }

    /// Make this buffer — a decoder's `output` — hold the `dims` x `dtype`
    /// its stream declared. One that already holds that many elements is
    /// reshaped in place; any other is replaced through
    /// [`alloc_output`](Self::alloc_output): checked, charged, fallible.
    ///
    /// # Errors
    ///
    /// [`InvalidArgument`](ErrorCode::InvalidArgument) when the caller's
    /// buffer has another element type; otherwise as `alloc_output`.
    pub fn shape_to(&mut self, dtype: DType, dims: &[usize]) -> Result<()> {
        if self.dtype != dtype {
            return Err(Error::invalid_argument(format!(
                "output dtype {} does not match stream dtype {dtype}",
                self.dtype
            )));
        }
        if self.dims != dims {
            if crate::wire::checked_geometry(dtype, dims)? == self.storage.len() {
                self.dims = dims.to_vec();
            } else {
                *self = Data::alloc_output(dtype, dims)?;
            }
        }
        Ok(())
    }

    // --------------------------------------------------------------- access

    /// The raw bytes of the buffer.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.storage.as_slice()
    }

    /// Mutable raw bytes. Copies the payload first when another [`Data`]
    /// still shares it (see [`is_shared`](Self::is_shared)); writes in place
    /// otherwise.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.storage).as_mut_slice()
    }

    /// View the buffer as a typed slice.
    ///
    /// # Errors
    ///
    /// Fails with [`TypeMismatch`](crate::ErrorCode::TypeMismatch) if `T` does
    /// not match the buffer's dtype (`u8` additionally matches `Byte`).
    pub fn as_slice<T: Element>(&self) -> Result<&[T]> {
        self.check_view::<T>()?;
        let bytes = self.as_bytes();
        // SAFETY: dtype matches T, byte length is a multiple of size_of::<T>()
        // by construction, and AlignedVec guarantees 64-byte alignment.
        Ok(unsafe {
            std::slice::from_raw_parts(
                bytes.as_ptr() as *const T,
                bytes.len() / std::mem::size_of::<T>(),
            )
        })
    }

    /// View the buffer as a mutable typed slice (copy-on-write if shared).
    pub fn as_mut_slice<T: Element>(&mut self) -> Result<&mut [T]> {
        self.check_view::<T>()?;
        let bytes = self.as_bytes_mut();
        // SAFETY: as in `as_slice`, plus exclusive access through &mut self.
        Ok(unsafe {
            std::slice::from_raw_parts_mut(
                bytes.as_mut_ptr() as *mut T,
                bytes.len() / std::mem::size_of::<T>(),
            )
        })
    }

    fn check_view<T: Element>(&self) -> Result<()> {
        let compatible = T::DTYPE == self.dtype
            || (T::DTYPE == DType::U8 && self.dtype == DType::Byte)
            || (T::DTYPE == DType::U8 && self.dtype == DType::U8);
        if !compatible {
            return Err(Error::type_mismatch(format!(
                "buffer holds {} but a {} view was requested",
                self.dtype,
                T::DTYPE
            )));
        }
        debug_assert_eq!(self.storage.len() % std::mem::size_of::<T>(), 0);
        Ok(())
    }

    /// Overwrite every element with `values`, converted to this buffer's
    /// element type (a kernel's `f64` staging narrowed into an `f32` output;
    /// a plain copy when the types agree). A count that is not one value per
    /// element is [`CorruptStream`](ErrorCode::CorruptStream): the values
    /// were decoded from a stream that declared this geometry.
    pub fn fill_from<T: Element>(&mut self, values: &[T]) -> Result<()> {
        if values.len() != self.num_elements() {
            return Err(Error::corrupt(format!(
                "decoded {} values for a geometry of {} elements",
                values.len(),
                self.num_elements()
            )));
        }
        if T::DTYPE == self.dtype {
            self.as_bytes_mut().copy_from_slice(crate::wire::elements_as_bytes(values));
            return Ok(());
        }
        crate::dispatch_dtype!(self.dtype, U => {
            for (o, v) in self.as_mut_slice::<U>()?.iter_mut().zip(values) {
                *o = U::from_f64(v.to_f64());
            }
        });
        Ok(())
    }

    /// Copy out as a typed vector.
    pub fn to_vec<T: Element>(&self) -> Result<Vec<T>> {
        Ok(self.as_slice::<T>()?.to_vec())
    }

    // ------------------------------------------------------------- sharing

    /// True when this buffer shares its payload with another [`Data`] (a
    /// clone that neither side has written to since).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.storage) > 1
    }

    // ---------------------------------------------------------- conversion

    /// Element-wise numeric cast to another dtype (via `f64`); `Byte` buffers
    /// cannot be cast.
    pub fn cast(&self, to: DType) -> Result<Data> {
        if self.dtype == DType::Byte || to == DType::Byte {
            return Err(Error::unsupported("cannot numerically cast byte buffers"));
        }
        if to == self.dtype {
            return Ok(self.clone());
        }
        let values: Vec<f64> = crate::dispatch_dtype!(self.dtype, T => {
            self.as_slice::<T>()?.iter().map(|v| v.to_f64()).collect()
        });
        crate::dispatch_dtype!(to, U => {
            let out: Vec<U> = values.into_iter().map(U::from_f64).collect();
            Data::from_vec(out, self.dims.clone())
        })
    }

    /// Every element converted to `f64` — the common path for metrics.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>> {
        crate::dispatch_dtype!(self.dtype, T => {
            Ok(self.as_slice::<T>()?.iter().map(|v| v.to_f64()).collect())
        })
    }
}

impl AsRef<[u8]> for Data {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Data {
    fn eq(&self, other: &Self) -> bool {
        self.dtype == other.dtype
            && self.dims == other.dims
            && self.as_bytes() == other.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_zeroed() {
        let d = Data::owned(DType::F64, vec![10, 20]);
        assert_eq!(d.num_elements(), 200);
        assert_eq!(d.size_in_bytes(), 1600);
        assert!(d.as_slice::<f64>().unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_slice_roundtrip() {
        let src = [1.5f32, -2.0, 3.25, 0.0, 7.0, 8.0];
        let d = Data::from_slice(&src, vec![2, 3]).unwrap();
        assert_eq!(d.dtype(), DType::F32);
        assert_eq!(d.dims(), &[2, 3]);
        assert_eq!(d.as_slice::<f32>().unwrap(), &src);
    }

    #[test]
    fn dims_must_match_length() {
        assert!(Data::from_slice(&[1.0f64; 5], vec![2, 3]).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let d = Data::from_slice(&[1i32, 2, 3], vec![3]).unwrap();
        assert!(d.as_slice::<f32>().is_err());
        assert!(d.as_slice::<i32>().is_ok());
    }

    #[test]
    fn byte_buffers_view_as_u8() {
        let d = Data::from_bytes(&[1, 2, 3]);
        assert_eq!(d.dtype(), DType::Byte);
        assert_eq!(d.as_slice::<u8>().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn reshape_checks_count() {
        let mut d = Data::owned(DType::I16, vec![4, 6]);
        d.reshape(vec![24]).unwrap();
        assert_eq!(d.dims(), &[24]);
        d.reshape(vec![2, 3, 4]).unwrap();
        assert!(d.reshape(vec![5, 5]).is_err());
    }

    #[test]
    fn clone_shares_then_copies_on_write() {
        let mut a = Data::from_slice(&[1.0f64, 2.0, 3.0], vec![3]).unwrap();
        assert!(!a.is_shared());
        let unshared = a.as_bytes().as_ptr();
        a.as_mut_slice::<f64>().unwrap()[2] = 4.0;
        assert_eq!(a.as_bytes().as_ptr(), unshared, "sole holder writes in place");
        let mut b = a.clone();
        assert!(a.is_shared() && b.is_shared());
        assert_eq!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr());
        // Mutate the copy: original must be untouched (copy-on-write).
        b.as_mut_slice::<f64>().unwrap()[0] = 99.0;
        assert_eq!(a.as_slice::<f64>().unwrap(), &[1.0, 2.0, 4.0]);
        assert_eq!(b.as_slice::<f64>().unwrap(), &[99.0, 2.0, 4.0]);
        assert!(!a.is_shared() && !b.is_shared());
    }

    #[test]
    fn byte_parts_land_in_order() {
        let d = Data::from_byte_parts(&[b"head", b"", b"payload", &[0u8; 2]]);
        assert_eq!(d.dtype(), DType::Byte);
        assert_eq!(d.dims(), &[13]);
        assert_eq!(d.as_bytes(), b"headpayload\0\0");
    }

    #[test]
    fn alloc_output_checks_charges_and_never_aborts() {
        let d = Data::alloc_output(DType::F32, vec![4, 4]).unwrap();
        assert_eq!((d.dims(), d.size_in_bytes()), (&[4usize, 4][..], 64));
        // Past the decode cap: the geometry check refuses before any charge.
        let e = Data::alloc_output(DType::F64, vec![1usize << 40]).unwrap_err();
        assert_eq!(e.code(), ErrorCode::CorruptStream);
        // Inside the cap but past the ambient budget: charged, refused.
        let token = crate::CancelToken::new();
        token.set_memory_budget(1 << 20);
        let e = crate::cancel::with_token(&token, || Data::alloc_output(DType::U8, vec![2 << 20]))
            .unwrap_err();
        assert_eq!(e.code(), ErrorCode::Cancelled);
        // Inside the cap with no budget, half a terabyte: a host that
        // refuses yields an error, not `handle_alloc_error` (one that
        // overcommits hands out untouched zero pages).
        match Data::alloc_output(DType::F32, vec![1usize << 37]) {
            Err(e) => assert_eq!(e.code(), ErrorCode::Cancelled),
            Ok(d) => assert_eq!(d.size_in_bytes(), 1 << 39),
        }
    }

    #[test]
    fn shape_to_reshapes_reallocates_or_refuses() {
        let mut out = Data::owned(DType::F32, vec![24]);
        let held = out.as_bytes().as_ptr();
        out.shape_to(DType::F32, &[2, 3, 4]).unwrap();
        assert_eq!((out.dims(), out.as_bytes().as_ptr()), (&[2usize, 3, 4][..], held));
        out.shape_to(DType::F32, &[5, 5]).unwrap();
        assert_eq!((out.dims(), out.size_in_bytes()), (&[5usize, 5][..], 100));
        let code = |r: Result<()>| r.unwrap_err().code();
        assert_eq!(code(out.shape_to(DType::F64, &[5, 5])), ErrorCode::InvalidArgument);
        assert_eq!(out.dims(), &[5, 5], "a refused output is left as it was");
        // An implausible or over-budget shape is refused, not attempted.
        assert_eq!(code(out.shape_to(DType::F32, &[1 << 39])), ErrorCode::CorruptStream);
        let token = crate::CancelToken::new();
        token.set_memory_budget(1 << 10);
        let over = crate::cancel::with_token(&token, || out.shape_to(DType::F32, &[1 << 20]));
        assert_eq!(code(over), ErrorCode::Cancelled);
    }

    #[test]
    fn fill_from_copies_or_converts_and_counts() {
        let mut out = Data::owned(DType::F32, vec![3]);
        out.fill_from(&[1.5f64, -2.0, 1e-50]).unwrap();
        assert_eq!(out.as_slice::<f32>().unwrap(), &[1.5, -2.0, 0.0]);
        out.fill_from(&[4.0f32, 5.0, 6.0]).unwrap();
        assert_eq!(out.as_slice::<f32>().unwrap(), &[4.0, 5.0, 6.0]);
        assert_eq!(out.fill_from(&[1.0f64; 2]).unwrap_err().code(), ErrorCode::CorruptStream);
    }

    #[test]
    fn cast_f64_to_i32_rounds() {
        let d = Data::from_slice(&[1.4f64, 2.6, -3.5], vec![3]).unwrap();
        let c = d.cast(DType::I32).unwrap();
        assert_eq!(c.as_slice::<i32>().unwrap(), &[1, 3, -4]);
    }

    #[test]
    fn cast_same_type_is_identity() {
        let d = Data::from_slice(&[5u16, 6], vec![2]).unwrap();
        let c = d.cast(DType::U16).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn cast_byte_rejected() {
        let d = Data::from_bytes(&[0, 1]);
        assert!(d.cast(DType::F32).is_err());
    }

    #[test]
    fn to_f64_vec_all_types() {
        let d = Data::from_slice(&[1u8, 2, 3], vec![3]).unwrap();
        assert_eq!(d.to_f64_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        let d = Data::from_slice(&[-1i64, 4], vec![2]).unwrap();
        assert_eq!(d.to_f64_vec().unwrap(), vec![-1.0, 4.0]);
    }

    #[test]
    fn alignment_supports_f64_views() {
        // Many small buffers: all must be aligned for f64 access.
        for n in 1..32 {
            let d = Data::owned(DType::F64, vec![n]);
            let s = d.as_slice::<f64>().unwrap();
            assert_eq!(s.len(), n);
        }
    }

    #[test]
    fn equality_compares_payload() {
        let a = Data::from_slice(&[1.0f32, 2.0], vec![2]).unwrap();
        let b = Data::from_slice(&[1.0f32, 2.0], vec![2]).unwrap();
        let c = Data::from_slice(&[1.0f32, 2.5], vec![2]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
