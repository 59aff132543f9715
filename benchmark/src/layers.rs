//! The traced run's layer calls: every layer of the program is called from
//! outside through its public items, each call inside one of the
//! benchmark's spans, and the per-layer table is derived from those spans.
//!
//! From outside only one boundary per call is visible, so a layer's self
//! time is an outer call's median minus the inner call's median over
//! interleaved iterations. `allocs_*` and `alloc_bytes_*` are exact counts
//! from the counting allocator. Payloads are fixed per layer (sizes in
//! `README.md`), so the table reads the same whichever workload is traced.

use std::hint::black_box;
use std::time::{Duration, Instant};

use libpressio::codecs::{deflate, huffman, lz77, rans, shuffle};
use libpressio::core::{par_map_indexed, run_deadlined, trace, value_range, AdmissionQueue};
use libpressio::datagen::hurricane_cloud;
use libpressio::mgard::Mgard;
use libpressio::sz::{Sz, SzParams, SzVariant};
use libpressio::zfp::{Zfp, ZfpMode};
use libpressio::{Data, Options};
use pressio_tools::serve::protocol::{self, FrameKind, ReadOutcome, Response};
use pressio_tools::serve::Server;

use crate::span::Tracer;
use crate::stats::median;
use crate::verify::{check_output, same_bytes, Check};
use crate::workloads::{
    check_drain, configured, connect, density, handle, nproc, profile, rel_options, start_server,
    threads, Bare, Endpoint, Out, REL,
};
use crate::{alloc, json, Report};

/// (warm-up, recorded) iterations: calls under a millisecond, calls on the
/// 16 KiB and 1 MiB payloads, and calls on the 4 and 8 MiB payloads.
const MICRO: (usize, usize) = (20, 200);
const STANDARD: (usize, usize) = (3, 24);
const HEAVY: (usize, usize) = (1, 8);
/// Closed-loop time per client count for `serve.concurrency_gain`.
const CONCURRENCY_PHASE: Duration = Duration::from_millis(750);

const MIB: usize = 1 << 20;

struct Payloads {
    /// `density(128)`, 8 MiB: the `sz_field` and `zfp_pooled` input.
    field: Data,
    /// `density(64)`, 1 MiB: the `mgard_field` and serve input.
    mib: Data,
    /// `hurricane_cloud(64,128,128)`, 4 MiB: the `lossless_bytes` input.
    cloud: Data,
    /// `density(16)`, 16 KiB: one `small_calls` block.
    block: Data,
}

fn must<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| panic!("layer call {what} failed: {e}"))
}

fn mbps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

/// One compress and one decompress, untimed; the stream's length.
fn op<E: Endpoint>(endpoint: &mut E, input: &Data, out: &mut Out) -> usize {
    let stream = must(endpoint.compress(input), "compress");
    must(endpoint.decompress(&stream, out), "decompress");
    E::bytes(&stream).len()
}

/// [`op`] with each call in a span of its own.
fn trip<E: Endpoint>(
    t: &mut Tracer,
    (compress, decompress): (&'static str, &'static str),
    endpoint: &mut E,
    input: &Data,
    out: &mut Out,
) -> usize {
    let stream = must(t.call(compress, || endpoint.compress(input)), compress);
    must(
        t.call(decompress, || endpoint.decompress(&stream, out)),
        decompress,
    );
    E::bytes(&stream).len()
}

/// Allocation calls and bytes of one single-threaded call. Two consecutive
/// passes must agree exactly, or the run is marked incorrect.
fn exact_allocs<R>(r: &mut Report, what: &str, mut f: impl FnMut() -> R) -> (f64, f64) {
    let (_, calls, bytes) = alloc::counted(&mut f);
    let (_, calls_again, bytes_again) = alloc::counted(&mut f);
    if (calls, bytes) != (calls_again, bytes_again) {
        r.fail(format!(
            "{what}: {calls} allocations of {bytes} B, then {calls_again} of {bytes_again} B"
        ));
    }
    (calls as f64, bytes as f64)
}

/// Run every layer group and fill in the per-layer metrics.
pub fn run(t: &mut Tracer, r: &mut Report, seed: u64) -> Result<(), String> {
    libpressio::init();
    let p = Payloads {
        field: t.call("datagen.field", || density(128, seed)),
        mib: density(64, seed),
        cloud: hurricane_cloud(64, 128, 128, seed),
        block: density(16, seed),
    };
    r.set("datagen.field_ms", t.median_ns("datagen.field") / 1e6);
    host(t, r, p.mib.as_bytes());
    small_calls(t, r, &p)?;
    exec(t, r, p.mib.as_bytes());
    codecs(t, r, p.cloud.as_bytes());
    sz(t, r, &p.field)?;
    zfp(t, r, &p.field)?;
    mgard(t, r, &p.mib)?;
    wrappers(t, r, &p.mib)?;
    wire_format(t, r, &p.mib);
    daemon(t, r, &p.mib)
}

fn host(t: &mut Tracer, r: &mut Report, mib: &[u8]) {
    let mut copy = vec![0u8; mib.len()];
    t.rounds(MICRO, |t| {
        t.call("host.timer", || {
            for _ in 0..1000 {
                black_box(Instant::now());
            }
        });
        t.call("host.copy", || copy.copy_from_slice(black_box(mib)));
    });
    black_box(&copy);
    r.set("host.nproc", nproc() as f64);
    r.set("host.timer_ns", t.median_ns("host.timer") / 1000.0);
    r.set("host.copy_mbps", mbps(mib.len(), t.median_ns("host.copy")));
}

/// The per-call fixed costs, all on one 16 KiB block with zfp as the kernel:
/// arming, the handle over the bare struct, `guard` over the handle, and
/// the program's own span collector switched on.
fn small_calls(t: &mut Tracer, r: &mut Report, p: &Payloads) -> Result<(), String> {
    let rel = rel_options();
    let mut bare = Bare(configured(Zfp::default(), &rel)?);
    let mut plain = handle("zfp", &rel)?;
    let mut guarded = handle("guard", &rel.clone().with("guard:compressor", "zfp"))?;
    let (block, mut out) = (&p.block, Out::like(&p.block));
    let (mut inner, mut outer, mut round) = (0, 0, 0);
    t.rounds(MICRO, |t| {
        // Whichever call follows other work runs on colder caches, which at
        // these call times outweighs the differences being measured: rotate
        // the order so that every variant takes every position equally often.
        for position in 0..3 {
            match (round + position) % 3 {
                0 => {
                    let names = ("zfp.small.compress", "zfp.small.decompress");
                    trip(t, names, &mut bare, block, &mut out);
                }
                1 => {
                    let names = ("core.handle.compress", "core.handle.decompress");
                    inner = trip(t, names, &mut plain, block, &mut out);
                }
                _ => {
                    let names = ("meta.guard.compress", "meta.guard.decompress");
                    outer = trip(t, names, &mut guarded, block, &mut out);
                }
            }
        }
        for position in 0..2 {
            if (round + position) % 2 == 0 {
                trace::enable();
                t.call("core.trace.on", || op(&mut guarded, block, &mut out));
                trace::disable();
                trace::clear();
            } else {
                t.call("core.trace.off", || op(&mut guarded, block, &mut out));
            }
        }
        round += 1;
    });
    t.rounds(MICRO, |t| {
        t.call("core.registry.arm", || black_box(handle("zfp", &rel)))
            .expect("arming zfp");
        t.call("core.data.fill", || {
            let mut filled = Data::owned(p.mib.dtype(), p.mib.dims().to_vec());
            filled.as_bytes_mut().copy_from_slice(p.mib.as_bytes());
            black_box(filled)
        });
    });
    check_output(block, out.bytes(), Check::Rel(REL))?;

    let ns = |name: &str| t.median_ns(name);
    let bare_ns = ns("zfp.small.compress") + ns("zfp.small.decompress");
    let handle_ns = ns("core.handle.compress") + ns("core.handle.decompress");
    r.set("core.registry.arm_us", ns("core.registry.arm") / 1e3);
    r.set("zfp.small.compress_ns", ns("zfp.small.compress"));
    r.set("core.handle.self_ns", handle_ns - bare_ns);
    r.set(
        "meta.guard.compress_self_ns",
        ns("meta.guard.compress") - ns("core.handle.compress"),
    );
    r.set(
        "meta.guard.decompress_self_ns",
        ns("meta.guard.decompress") - ns("core.handle.decompress"),
    );
    r.set("meta.guard.frame_bytes", (outer - inner) as f64);
    r.set(
        "core.trace.enabled_ratio",
        ns("core.trace.on") / ns("core.trace.off"),
    );
    r.set(
        "core.data.fill_mbps",
        mbps(p.mib.size_in_bytes(), ns("core.data.fill")),
    );

    let (bare_allocs, _) = exact_allocs(r, "zfp on a block", || op(&mut bare, block, &mut out));
    let (handle_allocs, _) = exact_allocs(r, "zfp handle on a block", || {
        op(&mut plain, block, &mut out)
    });
    let (guard_allocs, _) = exact_allocs(r, "guard>zfp on a block", || {
        op(&mut guarded, block, &mut out)
    });
    r.set("core.handle.allocs_per_call", handle_allocs - bare_allocs);
    r.set("meta.guard.allocs_per_call", guard_allocs - handle_allocs);
    Ok(())
}

fn exec(t: &mut Tracer, r: &mut Report, mib: &[u8]) {
    let n = threads();
    let queue = AdmissionQueue::new(4);
    let work =
        |_: usize| -> libpressio::Result<u64> { Ok(libpressio::core::fnv1a64(black_box(mib))) };
    t.rounds(MICRO, |t| {
        t.call("core.exec.fanout", || {
            must(par_map_indexed(n, |_| Ok(())), "fan-out")
        });
        t.call("core.exec.deadline_handoff", || {
            must(run_deadlined(1000, "benchmark", || ()), "hand-off")
        });
        t.call("core.serve.queue_pair", || {
            for item in 0..1000u32 {
                black_box(queue.try_submit(item).is_ok());
                black_box(queue.pop());
            }
        });
        t.call("core.exec.serial", || {
            for i in 0..n {
                black_box(must(work(i), "checksum"));
            }
        });
        t.call("core.exec.parallel", || {
            black_box(must(par_map_indexed(n, work), "pooled checksum"))
        });
    });
    let ns = |name: &str| t.median_ns(name);
    r.set("core.exec.fanout_us", ns("core.exec.fanout") / 1e3);
    r.set(
        "core.exec.deadline_handoff_us",
        ns("core.exec.deadline_handoff") / 1e3,
    );
    r.set(
        "core.serve.queue_pair_ns",
        ns("core.serve.queue_pair") / 1000.0,
    );
    r.set(
        "core.exec.par_speedup",
        ns("core.exec.serial") / ns("core.exec.parallel"),
    );
}

fn codecs(t: &mut Tracer, r: &mut Report, raw: &[u8]) {
    let (mut deflate_len, mut rans_len) = (0, 0);
    t.rounds(HEAVY, |t| {
        let staged = t.call("codecs.lz77.compress", || lz77::compress(raw));
        let back = t.call("codecs.lz77.decompress", || lz77::decompress(&staged));
        assert!(must(back, "lz77") == raw, "lz77 changed the payload");
        let coded = must(
            t.call("codecs.huffman.encode", || huffman::encode_bytes(raw)),
            "huffman",
        );
        let back = t.call("codecs.huffman.decode", || huffman::decode_bytes(&coded));
        assert!(must(back, "huffman") == raw, "huffman changed the payload");
        let packed = must(
            t.call("codecs.deflate.compress", || deflate::compress(raw)),
            "deflate",
        );
        let back = t.call("codecs.deflate.decompress", || deflate::decompress(&packed));
        assert!(must(back, "deflate") == raw, "deflate changed the payload");
        deflate_len = packed.len();
        let packed = must(
            t.call("codecs.rans.compress", || rans::compress(raw)),
            "rans",
        );
        let back = t.call("codecs.rans.decompress", || rans::decompress(&packed));
        assert!(must(back, "rans") == raw, "rans changed the payload");
        rans_len = packed.len();
        let shuffled = t.call("codecs.shuffle", || shuffle::shuffle(raw, 4));
        assert!(
            shuffle::unshuffle(&shuffled, 4) == raw,
            "shuffle is not invertible"
        );
    });
    for (metric, span) in [
        ("codecs.lz77.compress_mbps", "codecs.lz77.compress"),
        ("codecs.lz77.decompress_mbps", "codecs.lz77.decompress"),
        ("codecs.huffman.encode_mbps", "codecs.huffman.encode"),
        ("codecs.huffman.decode_mbps", "codecs.huffman.decode"),
        ("codecs.deflate.compress_mbps", "codecs.deflate.compress"),
        (
            "codecs.deflate.decompress_mbps",
            "codecs.deflate.decompress",
        ),
        ("codecs.rans.compress_mbps", "codecs.rans.compress"),
        ("codecs.rans.decompress_mbps", "codecs.rans.decompress"),
        ("codecs.shuffle.mbps", "codecs.shuffle"),
    ] {
        r.set(metric, mbps(raw.len(), t.median_ns(span)));
    }
    r.set(
        "codecs.deflate.ratio",
        raw.len() as f64 / deflate_len as f64,
    );
    r.set("codecs.rans.ratio", raw.len() as f64 / rans_len as f64);
    r.set(
        "codecs.deflate.lz77_share",
        t.median_ns("codecs.lz77.compress") / t.median_ns("codecs.deflate.compress"),
    );
    // One call is one compress and one decompress.
    let (calls, _) = exact_allocs(r, "deflate", || {
        deflate::decompress(&must(deflate::compress(raw), "deflate"))
    });
    r.set("codecs.deflate.allocs_per_call", calls);
    let (calls, _) = exact_allocs(r, "huffman", || {
        huffman::decode_bytes(&must(huffman::encode_bytes(raw), "huffman"))
    });
    r.set("codecs.huffman.allocs_per_call", calls);
    let (calls, _) = exact_allocs(r, "rans", || {
        rans::decompress(&must(rans::compress(raw), "rans"))
    });
    r.set("codecs.rans.allocs_per_call", calls);
}

fn sz(t: &mut Tracer, r: &mut Report, field: &Data) -> Result<(), String> {
    let rel = rel_options();
    let armed = |options: &Options| configured(Sz::new(SzVariant::Global), options).map(Bare);
    let mut native = armed(&rel)?;
    let mut no_tail = armed(&rel.clone().with("sz:sz_mode", 0i32))?;
    let mut rans_tail = armed(&rel.clone().with("sz:lossless", "rans"))?;
    let values = field.as_slice::<f32>().map_err(|e| e.to_string())?;
    let dims = field.dims();
    let params = SzParams {
        abs_eb: REL * value_range(values),
        ..SzParams::default()
    };
    let mut out = Out::like(field);
    let (mut deflate_len, mut rans_len) = (0, 0);
    t.rounds(HEAVY, |t| {
        let names = ("sz.native.compress", "sz.native.decompress");
        deflate_len = trip(t, names, &mut native, field, &mut out);
        let body = t.call("sz.body.compress", || {
            libpressio::sz::compress_body(values, dims, &params)
        });
        let body = must(body, "sz body");
        let back = t.call("sz.body.decompress", || {
            libpressio::sz::decompress_body::<f32>(&body, dims)
        });
        assert!(must(back, "sz body").len() == values.len());
        let names = ("sz.no_tail.compress", "sz.no_tail.decompress");
        trip(t, names, &mut no_tail, field, &mut out);
        let names = ("sz.rans_tail.compress", "sz.rans_tail.decompress");
        rans_len = trip(t, names, &mut rans_tail, field, &mut out);
    });
    check_output(field, out.bytes(), Check::Rel(REL))?;

    let ns = |name: &str| t.median_ns(name);
    for name in [
        "sz.native.compress",
        "sz.native.decompress",
        "sz.body.compress",
        "sz.body.decompress",
    ] {
        r.set(&format!("{name}_ns"), ns(name));
    }
    r.set(
        "sz.plugin.self_ns",
        ns("sz.native.compress") + ns("sz.native.decompress")
            - ns("sz.body.compress")
            - ns("sz.body.decompress"),
    );
    r.set(
        "sz.tail.compress_ns",
        ns("sz.native.compress") - ns("sz.no_tail.compress"),
    );
    r.set(
        "sz.tail.decompress_ns",
        ns("sz.native.decompress") - ns("sz.no_tail.decompress"),
    );
    r.set(
        "sz.tail.rans_decompress_ns",
        ns("sz.rans_tail.decompress") - ns("sz.no_tail.decompress"),
    );
    r.set(
        "sz.tail.rans_size_gain",
        deflate_len as f64 / rans_len as f64,
    );

    let stream = must(native.compress(field), "sz");
    let (calls, bytes) = exact_allocs(r, "sz compress", || native.compress(field));
    r.set("sz.allocs_per_compress", calls);
    r.set("sz.alloc_bytes_per_compress", bytes);
    let (calls, bytes) = exact_allocs(r, "sz decompress", || native.decompress(&stream, &mut out));
    r.set("sz.allocs_per_decompress", calls);
    r.set("sz.alloc_bytes_per_decompress", bytes);

    // The only values not timed from outside: the spans the program itself
    // emits today. A stage a later change renames reads as missing.
    trace::clear();
    trace::enable();
    op(&mut native, field, &mut out);
    trace::disable();
    let stages = trace::take().aggregate();
    for (metric, span) in [
        ("sz.stage.predict_quantize_ns", "sz:predict_quantize"),
        ("sz.stage.huffman_encode_ns", "sz:huffman_encode"),
        ("sz.stage.tail_ns", "sz:deflate"),
        ("sz.stage.huffman_decode_ns", "sz:huffman_decode"),
        ("sz.stage.reconstruct_ns", "sz:reconstruct"),
    ] {
        match stages.iter().find(|s| s.name == span) {
            Some(s) => r.set(metric, s.total_ns as f64 / s.count as f64),
            None => r.set_missing(metric, &format!("source=program emits no span {span}")),
        }
    }
    Ok(())
}

fn zfp(t: &mut Tracer, r: &mut Report, field: &Data) -> Result<(), String> {
    let rel = rel_options();
    let mut native = Bare(configured(Zfp::default(), &rel)?);
    let pooled_options = rel.clone().with("zfp_omp:nthreads", threads() as u32);
    let mut pooled = Bare(configured(Zfp::omp(), &pooled_options)?);
    // What the plugin does before it reaches the kernel: widen to f64,
    // reverse the dimensions, resolve the bound.
    let wide = field.to_f64_vec().map_err(|e| e.to_string())?;
    let fdims: Vec<usize> = field.dims().iter().rev().copied().collect();
    let mode = ZfpMode::FixedAccuracy(REL * value_range(&wide));
    let mut out = Out::like(field);
    t.rounds(HEAVY, |t| {
        let names = ("zfp.native.compress", "zfp.native.decompress");
        trip(t, names, &mut native, field, &mut out);
        let payload = t.call("zfp.kernel.compress", || {
            libpressio::zfp::compress_f64(&wide, &fdims, mode)
        });
        let payload = must(payload, "zfp kernel");
        let back = t.call("zfp.kernel.decompress", || {
            libpressio::zfp::decompress_f64(&payload, &fdims, mode)
        });
        assert!(must(back, "zfp kernel").len() == wide.len());
        let names = ("zfp.pooled.compress", "zfp.pooled.decompress");
        trip(t, names, &mut pooled, field, &mut out);
    });
    check_output(field, out.bytes(), Check::Rel(REL))?;

    let ns = |name: &str| t.median_ns(name);
    for name in [
        "zfp.native.compress",
        "zfp.native.decompress",
        "zfp.pooled.compress",
        "zfp.pooled.decompress",
    ] {
        r.set(&format!("{name}_ns"), ns(name));
    }
    // Rates are over the f32 field's bytes, like every other rate here.
    let bytes = field.size_in_bytes();
    r.set(
        "zfp.kernel.compress_mbps",
        mbps(bytes, ns("zfp.kernel.compress")),
    );
    r.set(
        "zfp.kernel.decompress_mbps",
        mbps(bytes, ns("zfp.kernel.decompress")),
    );
    r.set(
        "zfp.plugin.self_ns",
        ns("zfp.native.compress") + ns("zfp.native.decompress")
            - ns("zfp.kernel.compress")
            - ns("zfp.kernel.decompress"),
    );
    let (calls, bytes) = exact_allocs(r, "zfp compress", || native.compress(field));
    r.set("zfp.allocs_per_compress", calls);
    r.set("zfp.alloc_bytes_per_compress", bytes);
    Ok(())
}

fn mgard(t: &mut Tracer, r: &mut Report, field: &Data) -> Result<(), String> {
    let mut native = Bare(configured(Mgard::default(), &rel_options())?);
    let wide = field.to_f64_vec().map_err(|e| e.to_string())?;
    let abs = REL * value_range(&wide);
    let mut out = Out::like(field);
    t.rounds(STANDARD, |t| {
        let names = ("mgard.native.compress", "mgard.native.decompress");
        trip(t, names, &mut native, field, &mut out);
        let body = t.call("mgard.kernel.compress", || {
            libpressio::mgard::compress_body(&wide, field.dims(), abs)
        });
        let body = must(body, "mgard kernel");
        let back = t.call("mgard.kernel.decompress", || {
            libpressio::mgard::decompress_body(&body, field.dims())
        });
        assert!(must(back, "mgard kernel").len() == wide.len());
    });
    check_output(field, out.bytes(), Check::Rel(REL))?;
    for name in [
        "mgard.native.compress",
        "mgard.native.decompress",
        "mgard.kernel.compress",
        "mgard.kernel.decompress",
    ] {
        r.set(&format!("{name}_ns"), t.median_ns(name));
    }
    let stream = must(native.compress(field), "mgard");
    let (calls, bytes) = exact_allocs(r, "mgard compress", || native.compress(field));
    r.set("mgard.allocs_per_compress", calls);
    r.set("mgard.alloc_bytes_per_compress", bytes);
    let (calls, _) = exact_allocs(r, "mgard decompress", || {
        native.decompress(&stream, &mut out)
    });
    r.set("mgard.allocs_per_decompress", calls);
    Ok(())
}

/// Wrapper costs at 1 MiB, one span per op: `guard` and attached metrics
/// around sz, `chunking` around zfp.
fn wrappers(t: &mut Tracer, r: &mut Report, field: &Data) -> Result<(), String> {
    let rel = rel_options();
    let mut sz = handle("sz", &rel)?;
    let mut guarded = handle("guard", &rel.clone().with("guard:compressor", "sz"))?;
    let mut hooked = handle("sz", &rel)?;
    hooked.set_metrics(
        libpressio::instance()
            .new_metrics(&["size", "time", "error_stat"])
            .map_err(|e| e.to_string())?,
    );
    let mut zfp = handle("zfp", &rel)?;
    let chunked_options = rel
        .clone()
        .with("chunking:compressor", "zfp")
        .with("chunking:nthreads", threads() as u32);
    let mut chunked = handle("chunking", &chunked_options)?;
    let mut out = Out::like(field);
    t.rounds(STANDARD, |t| {
        t.call("wrap.sz", || op(&mut sz, field, &mut out));
        t.call("wrap.guard_sz", || op(&mut guarded, field, &mut out));
        t.call("wrap.hooked_sz", || op(&mut hooked, field, &mut out));
        t.call("wrap.zfp", || op(&mut zfp, field, &mut out));
        t.call("wrap.chunked_zfp", || op(&mut chunked, field, &mut out));
    });
    check_output(field, out.bytes(), Check::Rel(REL))?;
    let ns = |name: &str| t.median_ns(name);
    r.set(
        "meta.guard.large_self_ns",
        ns("wrap.guard_sz") - ns("wrap.sz"),
    );
    r.set("metrics.hooks_ratio", ns("wrap.hooked_sz") / ns("wrap.sz"));
    r.set(
        "meta.chunking.vs_child_ratio",
        ns("wrap.chunked_zfp") / ns("wrap.zfp"),
    );
    Ok(())
}

/// The frame protocol's pure functions on a 1 MiB payload.
fn wire_format(t: &mut Tracer, r: &mut Report, field: &Data) {
    let payload = field.as_bytes();
    let answer = Response::Ok(payload.to_vec());
    t.rounds(MICRO, |t| {
        let request = t.call("serve.protocol.encode_request", || {
            let (dtype, dims) = (field.dtype(), field.dims());
            protocol::encode_request(FrameKind::Compress, 7, "raw", dtype, dims, payload)
        });
        let body = &request[protocol::HEADER_LEN..];
        let parsed = t.call("serve.protocol.parse_request", || {
            protocol::parse_request(FrameKind::Compress, body).is_ok()
        });
        assert!(parsed, "the request frame did not parse");
        let response = t.call("serve.protocol.encode_response", || {
            protocol::encode_response(7, &answer)
        });
        let read = t.call("serve.protocol.read_frame", || {
            protocol::read_frame(&mut &response[..], protocol::DEFAULT_MAX_BODY)
        });
        let Ok(ReadOutcome::Frame(header, body)) = read else {
            panic!("the response frame did not read back");
        };
        let parsed = t.call("serve.protocol.parse_response", || {
            protocol::parse_response(header.kind, &body)
        });
        assert!(
            parsed.is_ok_and(|p| p == answer),
            "the response changed on the wire"
        );
    });
    let ns = |name: &str| t.median_ns(name);
    r.set(
        "serve.protocol.parse_request_ns",
        ns("serve.protocol.parse_request"),
    );
    for name in [
        "serve.protocol.encode_request",
        "serve.protocol.encode_response",
        "serve.protocol.read_frame",
        "serve.protocol.parse_response",
    ] {
        r.set(&format!("{name}_mbps"), mbps(payload.len(), ns(name)));
    }
}

/// `clients` connections compressing `input` on the `sz` profile in a closed
/// loop for [`CONCURRENCY_PHASE`]: (requests answered, requests shed).
fn sz_closed_loop(server: &Server, clients: usize, input: &Data) -> Result<(u64, u64), String> {
    let mut remotes = (0..clients)
        .map(|_| connect(server, "sz"))
        .collect::<Result<Vec<_>, _>>()?;
    let deadline = Instant::now() + CONCURRENCY_PHASE;
    Ok(std::thread::scope(|scope| {
        let callers: Vec<_> = remotes
            .iter_mut()
            .map(|remote| {
                scope.spawn(move || {
                    let (mut answered, mut shed) = (0, 0);
                    while Instant::now() < deadline {
                        match remote.compress(input) {
                            Ok(_) => answered += 1,
                            Err(why) if why.starts_with("busy") => shed += 1,
                            Err(why) => panic!("serve request failed: {why}"),
                        }
                    }
                    (answered, shed)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|caller| caller.join().expect("client thread"))
            .fold((0, 0), |(a, s), (answered, shed)| (a + answered, s + shed))
    }))
}

fn daemon(t: &mut Tracer, r: &mut Report, field: &Data) -> Result<(), String> {
    let profiles = || {
        vec![
            profile("raw", "noop", Options::new()),
            profile("sz", "sz", rel_options()),
        ]
    };
    let values = field.as_slice::<f32>().map_err(|e| e.to_string())?;
    let small = Data::from_slice(&values[..1024], vec![1024]).map_err(|e| e.to_string())?;
    // The two lifecycle costs: from `Server::start` to the first answer on a
    // fresh connection, and the drain of a daemon that has served it. A
    // daemon drained before its threads have run says nothing about either.
    for _ in 0..5 {
        let (server, _idle) = t.call("serve.start", || -> Result<_, String> {
            let server = start_server(profiles(), "layers")?;
            let mut first = connect(&server, "raw")?;
            first.compress(&small)?;
            Ok((server, first))
        })?;
        check_drain(&t.call("serve.drain", || server.shutdown()))?;
    }
    r.set("serve.start_ms", t.median_ns("serve.start") / 1e6);
    r.set("serve.drain_ms", t.median_ns("serve.drain") / 1e6);

    let server = start_server(profiles(), "layers")?;
    let mut remote = connect(&server, "raw")?;
    let mut in_process = handle("guard", &Options::new().with("guard:compressor", "noop"))?;
    let (mut out, mut local_out) = (Out::like(field), Out::like(field));
    // No warm-up is set aside: the daemon's own median below counts every
    // request, so the client's must too.
    t.rounds((0, STANDARD.0 + STANDARD.1), |t| {
        let names = ("serve.rtt.compress", "serve.rtt.decompress");
        trip(t, names, &mut remote, field, &mut out);
        let names = ("serve.local.compress", "serve.local.decompress");
        trip(t, names, &mut in_process, field, &mut local_out);
    });
    same_bytes("daemon output", field.as_bytes(), out.bytes())?;
    let health = json::parse(&server.health_json())?;
    let server_p50_ms = health
        .get("profiles")
        .and_then(|profiles| profiles.get("raw"))
        .and_then(|raw| raw.get("p50_ms"))
        .and_then(json::Json::num)
        .ok_or("health document has no profiles.raw.p50_ms")?;
    let mut both = t.durations("serve.rtt.compress");
    both.extend(t.durations("serve.rtt.decompress"));
    let ns = |name: &str| t.median_ns(name);
    r.set("serve.server_p50_ms", server_p50_ms);
    r.set("serve.wire_ms", median(&both) / 1e6 - server_p50_ms);
    r.set(
        "serve.path_compress_ms",
        (ns("serve.rtt.compress") - ns("serve.local.compress")) / 1e6,
    );
    r.set(
        "serve.path_decompress_ms",
        (ns("serve.rtt.decompress") - ns("serve.local.decompress")) / 1e6,
    );

    t.rounds(MICRO, |t| {
        must(
            t.call("serve.rtt.small", || remote.compress(&small)),
            "4 KiB request",
        );
    });
    let extra_mib = (field.size_in_bytes() - small.size_in_bytes()) as f64 / MIB as f64;
    let per_mib_ms =
        (t.median_ns("serve.rtt.compress") - t.median_ns("serve.rtt.small")) / 1e6 / extra_mib;
    r.set("serve.fixed_us", t.median_ns("serve.rtt.small") / 1e3);
    r.set("serve.per_mib_ms", per_mib_ms);
    let copy_ms = MIB as f64
        / r.get("host.copy_mbps")
            .ok_or("the host group has not run")?
        / 1e3;
    r.set("serve.copy_equiv", per_mib_ms / copy_ms);

    // All threads together, so the counts include the daemon's side; they
    // repeat to within the odd allocation of a polling thread.
    let (mut calls, mut bytes) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (_, c, b) = alloc::counted(|| must(remote.compress(field), "raw compress"));
        calls.push(c as f64);
        bytes.push(b as f64);
    }
    r.set("serve.allocs_per_request", median(&calls));
    r.set("serve.alloc_bytes_per_request", median(&bytes));

    let (alone, shed_alone) = sz_closed_loop(&server, 1, field)?;
    let (together, shed_together) = sz_closed_loop(&server, threads(), field)?;
    let shed = shed_alone + shed_together;
    r.set("serve.concurrency_gain", together as f64 / alone as f64);
    r.set(
        "serve.busy_frac",
        shed as f64 / (alone + together + shed) as f64,
    );
    drop(remote);
    let report = server.shutdown();
    check_drain(&report)?;
    r.set("serve.queue.accepted", report.queue.accepted as f64);
    r.set("serve.queue.shed", report.queue.shed as f64);
    Ok(())
}
