//! The allocation budget of one `mgard` call, gated on a count instead of a
//! clock.
//!
//! The kernel used to build a heap-allocated corner list per grid node:
//! 487,408 allocations (38.7 MB requested) to compress a 64^3 field and
//! 973,702 to decompress it, so its time was the allocator's. The level sweep
//! allocates nothing per node; what is left is the staging a call cannot do
//! without (the widened input, the code stream, the output) and the `deflate`
//! tail's few hundred small buffers. This test holds that line with a
//! counting allocator, as `crates/tools/tests/serve_copy_budget.rs` does for
//! the daemon: a count repeats exactly where a time on a shared host does not.
//!
//! One `#[test]` only, and the counters are per thread: nothing the harness
//! does beside it is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pressio_core::{Compressor, DType, Data, Options, OPT_REL};
use pressio_mgard::Mgard;

/// Allocations one compress of a 64^3 `f32` field may make, and the bytes
/// they may request in total.
const COMPRESS_CALLS: u64 = 1_500;
const COMPRESS_BYTES: u64 = 8 << 20;
/// Allocations one decompress of it may make.
const DECOMPRESS_CALLS: u64 = 200;
/// By how many allocations a compress of 64^3 may differ from one of 32^3:
/// eight times the nodes, so any per-node allocation is 229,376 apart.
const SCALING_SLACK: u64 = 300;

struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading them from inside
    // the allocator neither allocates nor registers anything.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns its result unchanged; the
// counting touches two const-initialised thread-local cells and cannot
// allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `f`'s result, and the allocations and bytes this thread requested while
/// it ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (CALLS.get(), BYTES.get());
    let result = f();
    (result, CALLS.get() - calls, BYTES.get() - bytes)
}

/// An `edge`^3 `f32` field: three smooth waves under a little LCG noise, so
/// codes of every width reach the tail.
fn cube(edge: usize) -> Data {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let values: Vec<f32> = (0..edge * edge * edge)
        .map(|i| {
            let (z, y, x) = (i / (edge * edge), i / edge % edge, i % edge);
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (s >> 40) as f64 / (1u64 << 24) as f64 - 0.5;
            let wave = (z as f64 * 0.11).sin() + (y as f64 * 0.07).cos() * (x as f64 * 0.05).sin();
            (wave * 10.0 + noise * 0.2) as f32
        })
        .collect();
    Data::from_vec(values, vec![edge, edge, edge]).expect("dims")
}

/// One warmed-up round trip of an `edge`^3 field: allocations and bytes of
/// the compress, allocations of the decompress.
fn round_trip(mgard: &mut Mgard, edge: usize) -> (u64, u64, u64) {
    let input = cube(edge);
    let mut out = Data::empty(DType::F32);
    // Once uncounted: whatever comes up on a first call stays.
    let stream = mgard.compress(&input).expect("compress");
    mgard.decompress(&stream, &mut out).expect("decompress");

    let (stream, c_calls, c_bytes) = counted(|| mgard.compress(&input).expect("compress"));
    let ((), d_calls, _) = counted(|| mgard.decompress(&stream, &mut out).expect("decompress"));
    assert_eq!(out.dims(), input.dims());
    (c_calls, c_bytes, d_calls)
}

#[test]
fn a_call_allocates_for_its_buffers_not_for_its_nodes() {
    let mut mgard = Mgard::default();
    mgard
        .set_options(&Options::new().with(OPT_REL, 1e-3f64))
        .expect("pressio:rel");

    let (c_calls, c_bytes, d_calls) = round_trip(&mut mgard, 64);
    assert!(
        c_calls <= COMPRESS_CALLS && c_bytes <= COMPRESS_BYTES,
        "compress: {c_calls} allocations, {c_bytes} bytes"
    );
    assert!(d_calls <= DECOMPRESS_CALLS, "decompress: {d_calls} allocations");

    let (small, ..) = round_trip(&mut mgard, 32);
    assert!(
        small.abs_diff(c_calls) < SCALING_SLACK,
        "compress allocations scale with the grid: {small} at 32^3, {c_calls} at 64^3"
    );
}
