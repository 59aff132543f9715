//! The hostile-stream table: every stream of [`libpressio::hostile`] —
//! well-formed, 22 to 121 bytes, each an abort of the whole process before
//! decoders sized everything through `pressio-core` — must come back as a
//! structured error that cost next to nothing, with and without a budget.
//!
//! Under a budget the charge refuses, before the allocator is asked. Without
//! one, a count is refused by the bytes present (nothing is requested) and a
//! staging buffer by the host (half a terabyte is asked for, fallibly, and
//! declined). A host that grants any request (`vm.overcommit_memory = 1`)
//! would hand out untouched pages instead, so there the unbudgeted half of
//! the [`HOST_REFUSED`] rows is skipped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use libpressio::core::{cancel::with_token, CancelToken};
use libpressio::{Data, ErrorCode};

/// Counts the bytes the allocator handed to the calling thread (a refused
/// request hands over nothing), as `serve_protocol_fuzz.rs` counts requests.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor registers anything.
    static GRANTED: Cell<u64> = const { Cell::new(0) };
}

fn note(ptr: *mut u8, size: usize) -> *mut u8 {
    if !ptr.is_null() {
        let _ = GRANTED.try_with(|g| g.set(g.get() + size as u64));
    }
    ptr
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns its result unchanged; the
// counting touches one const-initialised thread-local cell and cannot
// allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(System.alloc(layout), layout.size())
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(System.alloc_zeroed(layout), layout.size())
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(System.realloc(ptr, layout, new_size), new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Rows whose unbudgeted refusal is the host's, not the decoder's.
const HOST_REFUSED: [&str; 3] = ["zfp_staging", "tthresh_matrix", "mgard_codes"];

#[test]
fn hostile_streams_are_structured_errors_that_cost_nothing() {
    let library = libpressio::instance();
    let overcommits = std::fs::read_to_string("/proc/sys/vm/overcommit_memory")
        .is_ok_and(|mode| mode.trim() == "1");
    for stream in libpressio::hostile::streams().expect("corpus") {
        let name = stream.name;
        let mut decoder = library.get_compressor(stream.plugin).expect(name);
        let mut decode = || {
            let mut out = Data::empty(stream.dtype);
            let before = GRANTED.get();
            let result = decoder.decompress(&Data::from_bytes(&stream.bytes), &mut out);
            (result.expect_err(name).code(), GRANTED.get() - before)
        };
        // A fresh token per stream: a budget that trips stays tripped.
        let budget = CancelToken::new();
        budget.set_memory_budget(256 << 20);
        let mut halves = vec![("budgeted", with_token(&budget, &mut decode))];
        if !(overcommits && HOST_REFUSED.contains(&name)) {
            halves.push(("unbudgeted", decode()));
        }
        for (half, (code, granted)) in halves {
            assert!(
                matches!(
                    code,
                    ErrorCode::CorruptStream | ErrorCode::InvalidArgument | ErrorCode::Cancelled
                ),
                "{name} ({half}): {code:?}"
            );
            assert!(granted < 1 << 20, "{name} ({half}): {granted} bytes allocated");
            // The one row a budget already made clean before this table existed.
            if (name, half) == ("zfp_staging", "budgeted") {
                assert_eq!(code, ErrorCode::Cancelled);
            }
        }
    }
}
