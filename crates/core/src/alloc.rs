//! 64-byte-aligned byte buffers.
//!
//! [`Data`](crate::data::Data) stores its payload in an [`AlignedVec`] so that
//! reinterpreting the bytes as any element type (up to, and beyond, `f64`) is
//! always correctly aligned, and so that SIMD-friendly 64-byte (cache line)
//! alignment is guaranteed for hot compression kernels. This replaces the
//! `malloc`-based buffers of the C library.
//!
//! [`try_reserve`] and [`try_zeroed_vec`] are the allocators for *staging* a
//! decoder sizes from its stream: charged to the ambient memory budget, then
//! allocated fallibly, so a declared count never reaches `handle_alloc_error`.

use std::alloc::{alloc, alloc_zeroed, dealloc, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use crate::dtype::Element;
use crate::error::{Error, ErrorCode, Result};

/// Alignment (bytes) of every [`AlignedVec`] allocation: one x86 cache line.
pub const BUFFER_ALIGN: usize = 64;

/// A fixed-capacity, 64-byte-aligned, heap-allocated byte buffer.
///
/// Unlike `Vec<u8>`, the allocation is always aligned to [`BUFFER_ALIGN`], so
/// slices of any scalar type can be viewed over it safely. The length is fixed
/// at construction (compression buffers are sized up front); use
/// [`truncate`](AlignedVec::truncate) to shrink the visible length without
/// reallocating.
pub struct AlignedVec {
    ptr: NonNull<u8>,
    len: usize,
    cap: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively; it is a plain byte
// buffer with no interior mutability or thread affinity.
unsafe impl Send for AlignedVec {}
// SAFETY: shared access is read-only (all mutation goes through &mut self),
// so the same exclusive-ownership argument as Send applies.
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    fn layout(cap: usize) -> Layout {
        // `cap` is at least 1 here; Layout::from_size_align only fails for
        // sizes overflowing isize, which is unreachable for real buffers.
        Layout::from_size_align(cap, BUFFER_ALIGN).expect("buffer size overflows isize")
    }

    /// A dangling-but-aligned pointer for the empty buffer, so typed views
    /// over empty buffers satisfy `slice::from_raw_parts`' alignment
    /// precondition for every element type up to [`BUFFER_ALIGN`].
    fn dangling() -> NonNull<u8> {
        NonNull::new(BUFFER_ALIGN as *mut u8).expect("BUFFER_ALIGN is nonzero")
    }

    /// Allocate `len` zero-initialized bytes.
    pub fn zeroed(len: usize) -> Self {
        Self::try_zeroed(len).unwrap_or_else(|| std::alloc::handle_alloc_error(Self::layout(len)))
    }

    /// Allocate `len` zero-initialized bytes, or `None` when the allocator
    /// refuses — the form for sizes a stream or a peer declared, where
    /// [`zeroed`](AlignedVec::zeroed)'s abort would take the host down.
    pub fn try_zeroed(len: usize) -> Option<Self> {
        if len == 0 {
            return Some(AlignedVec {
                ptr: Self::dangling(),
                len: 0,
                cap: 0,
            });
        }
        let layout = Layout::from_size_align(len, BUFFER_ALIGN).ok()?;
        // SAFETY: layout has non-zero size.
        let raw = unsafe { alloc_zeroed(layout) };
        Some(AlignedVec {
            ptr: NonNull::new(raw)?,
            len,
            cap: len,
        })
    }

    /// Allocate `len` uninitialized bytes and immediately fill them from `f`.
    ///
    /// `f` receives the raw destination and must fully initialize it; this is
    /// kept private and used by the safe constructors below.
    fn with_init(len: usize, f: impl FnOnce(*mut u8)) -> Self {
        if len == 0 {
            return Self::zeroed(0);
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size.
        let raw = unsafe { alloc(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        f(ptr.as_ptr());
        AlignedVec { ptr, len, cap: len }
    }

    /// Allocate a copy of `src`.
    pub fn from_slice(src: &[u8]) -> Self {
        Self::concat(&[src])
    }

    /// Allocate the concatenation of `parts`, each byte written once.
    pub fn concat(parts: &[&[u8]]) -> Self {
        let len = parts.iter().map(|p| p.len()).sum();
        Self::with_init(len, |dst| {
            let mut at = 0;
            for part in parts {
                // SAFETY: dst is freshly allocated with `len` bytes, the
                // parts' lengths sum to `len` so `at + part.len() <= len`,
                // and a fresh allocation cannot overlap a live slice.
                unsafe { std::ptr::copy_nonoverlapping(part.as_ptr(), dst.add(at), part.len()) }
                at += part.len();
            }
        })
    }

    /// Number of visible bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity in bytes (`>= len`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Shrink the visible length to `new_len` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `new_len > len`.
    pub fn truncate(&mut self, new_len: usize) {
        assert!(
            new_len <= self.len,
            "truncate to {new_len} exceeds length {}",
            self.len
        );
        self.len = new_len;
    }

    /// View as a byte slice.
    ///
    /// Deliberately NOT the `&[]` literal for the empty case: downstream
    /// typed views cast this slice's pointer to wider element types, so it
    /// must always be the buffer's 64-byte-aligned pointer (the literal's
    /// promoted static has no alignment guarantee beyond 1).
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr is valid for len initialized bytes (len 0 uses the
        // aligned dangling pointer, which from_raw_parts permits).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// View as a mutable byte slice (same alignment note as
    /// [`as_slice`](AlignedVec::as_slice)).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: ptr is valid for len initialized bytes and we hold &mut.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Raw pointer to the start of the buffer.
    #[inline]
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr.as_ptr()
    }
}

fn refused(bytes: usize) -> Error {
    Error::new(ErrorCode::Cancelled, format!("the host refused a {bytes}-byte staging allocation"))
}

/// Room for `additional` more elements in `v` (fresh or a recycled scratch
/// buffer), for a count a stream declared: the request is charged to the
/// ambient [`CancelToken`](crate::CancelToken), and a reservation the host
/// refuses is [`Cancelled`](ErrorCode::Cancelled), never an abort.
pub fn try_reserve<T>(v: &mut Vec<T>, additional: usize) -> Result<()> {
    let bytes = additional.saturating_mul(std::mem::size_of::<T>());
    crate::cancel::charge(bytes as u64)?;
    v.try_reserve(additional).map_err(|_| refused(bytes))
}

/// `vec![0; n]` for a stream-derived `n`: charged and fallible like
/// [`try_reserve`], and still one zero-page allocation nobody writes twice.
pub fn try_zeroed_vec<T: Element>(n: usize) -> Result<Vec<T>> {
    let bytes = n.saturating_mul(std::mem::size_of::<T>());
    crate::cancel::charge(bytes as u64)?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let layout = Layout::array::<T>(n).map_err(|_| refused(bytes))?;
    // SAFETY: layout has non-zero size (n > 0, no `Element` is zero-sized).
    let raw = unsafe { alloc_zeroed(layout) };
    if raw.is_null() {
        return Err(refused(bytes));
    }
    // SAFETY: `raw` came from the global allocator with the layout of
    // `[T; n]`, which is what `Vec<T>` frees a capacity of `n` with; all `n`
    // elements are initialised, because `Element` types are plain numbers
    // whose all-zero pattern is a value (zero).
    Ok(unsafe { Vec::from_raw_parts(raw.cast::<T>(), n, n) })
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: allocated with the identical layout in zeroed/with_init.
            unsafe { dealloc(self.ptr.as_ptr(), Self::layout(self.cap)) }
        }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        AlignedVec::from_slice(self.as_slice())
    }
}

impl Deref for AlignedVec {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec({} bytes)", self.len)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for AlignedVec {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let v = AlignedVec::zeroed(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&b| b == 0));
        assert_eq!(v.as_ptr() as usize % BUFFER_ALIGN, 0);
    }

    #[test]
    fn from_slice_copies() {
        let src: Vec<u8> = (0..=255).collect();
        let v = AlignedVec::from_slice(&src);
        assert_eq!(v.as_slice(), &src[..]);
        assert_eq!(v.as_ptr() as usize % BUFFER_ALIGN, 0);
    }

    #[test]
    fn concat_joins_parts_in_order() {
        let v = AlignedVec::concat(&[b"ab", b"", b"cde", &[0u8; 8]]);
        assert_eq!(v.as_slice(), b"abcde\0\0\0\0\0\0\0\0");
        assert_eq!(v.as_ptr() as usize % BUFFER_ALIGN, 0);
        assert!(AlignedVec::concat(&[]).is_empty());
    }

    #[test]
    fn try_zeroed_refuses_instead_of_aborting() {
        assert_eq!(AlignedVec::try_zeroed(100).map(|v| v.len()), Some(100));
        assert!(AlignedVec::try_zeroed(0).is_some_and(|v| v.is_empty()));
        // Past isize::MAX no layout exists; just under it the layout is
        // valid and the allocator says no. Neither may abort.
        assert!(AlignedVec::try_zeroed(usize::MAX).is_none());
        assert!(AlignedVec::try_zeroed(isize::MAX as usize - 63).is_none());
    }

    #[test]
    fn staging_is_charged_zeroed_and_never_aborts() {
        let cancelled = |e: Error| e.code() == ErrorCode::Cancelled;
        let mut v: Vec<u32> = vec![7];
        try_reserve(&mut v, 100).unwrap();
        assert!(v.capacity() >= 101 && v == [7]);
        let z: Vec<f64> = try_zeroed_vec(1000).unwrap();
        assert!(z.capacity() == 1000 && z == [0.0; 1000]);
        assert!(try_zeroed_vec::<i64>(0).unwrap().is_empty());
        // Half a terabyte is an error (or untouched pages where the host
        // overcommits); more than an address space always is.
        assert!(try_zeroed_vec::<f64>(1 << 36).map_or_else(cancelled, |z| z.len() == 1 << 36));
        assert!(try_zeroed_vec::<f64>(usize::MAX / 4).is_err_and(cancelled));
        assert!(try_reserve(&mut v, usize::MAX / 2).is_err_and(cancelled));
        // Under a budget the charge refuses first, whatever the host would do.
        let token = crate::CancelToken::new();
        token.set_memory_budget(1 << 10);
        crate::cancel::with_token(&token, || {
            assert!(try_zeroed_vec::<u8>(1 << 20).is_err_and(cancelled));
            assert!(try_reserve(&mut v, 1 << 20).is_err_and(cancelled));
        });
    }

    #[test]
    fn empty_buffer_ok() {
        let v = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[u8]);
        let c = v.clone();
        assert!(c.is_empty());
        // The empty buffer's pointer must still satisfy the strictest
        // element alignment (caught by debug-mode UB checks otherwise).
        assert_eq!(v.as_ptr() as usize % BUFFER_ALIGN, 0);
    }

    #[test]
    fn truncate_shrinks_view() {
        let mut v = AlignedVec::from_slice(&[1, 2, 3, 4, 5]);
        v.truncate(2);
        assert_eq!(v.as_slice(), &[1, 2]);
        assert_eq!(v.capacity(), 5);
    }

    #[test]
    #[should_panic]
    fn truncate_grow_panics() {
        let mut v = AlignedVec::zeroed(2);
        v.truncate(3);
    }

    #[test]
    fn mutation_roundtrip() {
        let mut v = AlignedVec::zeroed(16);
        v.as_mut_slice()[7] = 42;
        assert_eq!(v[7], 42);
        let c = v.clone();
        assert_eq!(c, v);
    }

    #[test]
    fn many_allocations_drop_cleanly() {
        for i in 0..200 {
            let v = AlignedVec::zeroed(i * 13 + 1);
            assert_eq!(v.len(), i * 13 + 1);
        }
    }
}
