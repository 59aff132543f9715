//! The copy budget of one request, gated on a count instead of a clock.
//!
//! A 1 MiB request through `pressio serve` used to allocate seventeen
//! buffers of its own size on the way from the client's slice to the
//! client's result (the count repeated exactly over fourteen traced
//! benchmark runs); the data path now lands a payload once per socket
//! crossing and assembles the guard frame once, which leaves six on a
//! compress and five on a decompress — three and one of them the `noop`
//! codec's own. This test holds that line with a counting allocator: bytes
//! requested across **all** threads (client, reader, worker, watchdog,
//! writer) while one request is in flight, in units of the body.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use libpressio::{DType, Data, Options};
use pressio_tools::serve::client::{Client, ServeOutcome};
use pressio_tools::serve::{ProfileSpec, ServeConfig, Server};

/// The request body: 256 Ki f32.
const BODY: usize = 1 << 20;
/// Body-sized buffers one daemon request may allocate, either direction.
const SERVE_BUDGET: u64 = 7;
/// Body-sized buffers one in-process `guard>noop` call may allocate.
const GUARD_BUDGET: u64 = 5;

static REQUESTED: AtomicU64 = AtomicU64::new(0);
static BODY_SIZED: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    REQUESTED.fetch_add(size as u64, Relaxed);
    if size >= BODY {
        BODY_SIZED.fetch_add(1, Relaxed);
    }
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns its result unchanged; the
// counting touches two atomics and cannot allocate, unwind or re-enter the
// allocator.
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

/// `f`'s result, the bytes every thread requested while it ran, and how
/// many of those requests were at least one body.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (bytes, buffers) = (REQUESTED.load(Relaxed), BODY_SIZED.load(Relaxed));
    let result = f();
    (
        result,
        REQUESTED.load(Relaxed) - bytes,
        BODY_SIZED.load(Relaxed) - buffers,
    )
}

fn within(what: &str, budget: u64, bytes: u64, buffers: u64) {
    assert!(
        buffers <= budget && bytes <= budget * BODY as u64,
        "{what}: {buffers} body-sized buffers, {bytes} bytes ({:.2} bodies); the budget is {budget}",
        bytes as f64 / BODY as f64
    );
}

fn served(outcome: libpressio::Result<ServeOutcome>) -> Vec<u8> {
    match outcome.expect("request") {
        ServeOutcome::Ok(bytes) => bytes,
        ServeOutcome::Busy { .. } => panic!("an idle daemon shed a request"),
    }
}

#[test]
fn one_request_stays_within_its_copy_budget() {
    let payload: Vec<u8> = (0..BODY / 4)
        .flat_map(|i| ((i as f32 * 0.001).sin()).to_le_bytes())
        .collect();
    let dims = [BODY / 4];

    // ---- through a real daemon, over a Unix socket.
    let dir = std::env::temp_dir().join(format!("pressio-copy-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let sock = dir.join("serve.sock");
    let server = Server::start(ServeConfig {
        profiles: vec![ProfileSpec::parse("raw=noop").expect("spec")],
        unix_path: Some(sock.clone()),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect_unix(&sock).expect("connect");
    // Once untimed: thread-locals, scratch arenas and the watchdog pool come
    // up on the first request and stay.
    let stream = served(client.compress("raw", DType::F32, &dims, &payload));
    assert_eq!(
        served(client.decompress("raw", DType::F32, &dims, &stream)),
        payload
    );

    let (stream, bytes, buffers) =
        counted(|| served(client.compress("raw", DType::F32, &dims, &payload)));
    within("serve compress", SERVE_BUDGET, bytes, buffers);
    let (restored, bytes, buffers) =
        counted(|| served(client.decompress("raw", DType::F32, &dims, &stream)));
    within("serve decompress", SERVE_BUDGET, bytes, buffers);
    assert_eq!(restored, payload);

    drop(client);
    let report = server.shutdown();
    assert!(
        report.drained_clean && report.stuck_inflight == 0,
        "{report:?}"
    );
    std::fs::remove_dir_all(&dir).ok();

    // ---- the same stack in-process, through a handle.
    let mut guard = libpressio::registry().compressor("guard").expect("guard");
    guard
        .set_options(&Options::new().with("guard:compressor", "noop"))
        .expect("options");
    let input = Data::from_bytes(&payload);
    let mut out = Data::owned(DType::Byte, vec![BODY]);
    let framed = guard.compress(&input).expect("compress");
    guard.decompress(&framed, &mut out).expect("decompress");

    let (framed, bytes, buffers) = counted(|| guard.compress(&input).expect("compress"));
    within("guard>noop compress", GUARD_BUDGET, bytes, buffers);
    let ((), bytes, buffers) = counted(|| guard.decompress(&framed, &mut out).expect("decompress"));
    within("guard>noop decompress", GUARD_BUDGET, bytes, buffers);
    assert_eq!(out.as_bytes(), &payload[..]);
}
