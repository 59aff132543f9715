//! Counting global allocator: allocation calls, bytes requested and the
//! high-water mark of live heap bytes, for `peak_mem_mb` and every
//! `allocs_*` / `alloc_bytes_*` metric.
//!
//! The program under test makes up to half a million small allocations per
//! call (`mgard`), so the counters must cost far less than `malloc` itself.
//! Calls and bytes are therefore kept per thread in single-writer slots
//! (a plain load and store, no locked instruction) and summed on demand;
//! live bytes are pushed to one shared atomic only when a thread's pending
//! delta passes [`FLUSH_BYTES`], so the high-water mark is exact for every
//! allocation of at least that size and off by at most `FLUSH_BYTES` per
//! running thread otherwise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// A thread publishes its live-byte delta once it exceeds this magnitude.
const FLUSH_BYTES: i64 = 4096;
/// Threads past `SLOTS - 1` share the last slot and pay a locked add.
const SLOTS: usize = 256;

#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
}

static TABLE: [Slot; SLOTS] = [const {
    Slot {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised cells without destructors: reading them from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static PENDING: Cell<i64> = const { Cell::new(0) };
}

fn add(counter: &AtomicU64, by: u64, shared: bool) {
    if shared {
        counter.fetch_add(by, Relaxed);
    } else {
        // Single writer: this thread owns the slot, readers only sum.
        counter.store(counter.load(Relaxed).wrapping_add(by), Relaxed);
    }
}

fn note_alloc(size: usize) {
    let mut index = MY_SLOT.get();
    if index == usize::MAX {
        index = NEXT_SLOT.fetch_add(1, Relaxed).min(SLOTS - 1);
        MY_SLOT.set(index);
    }
    let shared = index == SLOTS - 1;
    add(&TABLE[index].calls, 1, shared);
    add(&TABLE[index].bytes, size as u64, shared);
    note_live(size as i64);
}

fn note_live(delta: i64) {
    let pending = PENDING.get() + delta;
    if pending.abs() < FLUSH_BYTES {
        PENDING.set(pending);
        return;
    }
    PENDING.set(0);
    let live = LIVE.fetch_add(pending, Relaxed) + pending;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

/// The system allocator with counters in front.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns its result unchanged; the
// bookkeeping around the calls touches only atomics and const-initialised
// thread-local cells, so it cannot allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        note_live(-(layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls and bytes requested so far, summed over all threads.
/// Exact whenever no other thread is inside the allocator.
pub fn totals() -> (u64, u64) {
    TABLE.iter().fold((0, 0), |(calls, bytes), slot| {
        (
            calls + slot.calls.load(Relaxed),
            bytes + slot.bytes.load(Relaxed),
        )
    })
}

/// Allocation calls and bytes made while `f` runs (all threads).
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = totals();
    let result = f();
    let (calls_after, bytes_after) = totals();
    (result, calls_after - calls, bytes_after - bytes)
}

/// Restart the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_bytes_and_high_water() {
        let (v, calls, bytes) = counted(|| vec![7u8; 1 << 20]);
        assert!(calls >= 1);
        assert!(bytes >= 1 << 20);
        reset_peak();
        let before = peak_bytes();
        let w = vec![1u8; 4 << 20];
        assert!(peak_bytes() >= before + (4 << 20));
        drop((v, w));
    }
}
