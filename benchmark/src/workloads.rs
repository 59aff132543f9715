//! The seven workloads: how each is armed, what one op is, and the timed
//! phase that produces the end-to-end metrics.
//!
//! An op is one compress of the workload's input followed by one decompress
//! of the result, each call timed on the calling thread. Every op's stream
//! and output are compared with references outside the timed windows.

use std::time::{Duration, Instant};

use libpressio::codecs::{ByteCodec, CodecKind};
use libpressio::datagen::{hurricane_cloud, nyx_density};
use libpressio::mgard::Mgard;
use libpressio::sz::{Sz, SzVariant};
use libpressio::zfp::Zfp;
use libpressio::{Compressor, CompressorHandle, Data, Options};
use pressio_tools::serve::client::{Client, ServeOutcome};
use pressio_tools::serve::{DrainReport, ProfileSpec, ServeConfig, Server};

use crate::span::Tracer;
use crate::stats::{median, percentile};
use crate::verify::{check_output, same_bytes, Check};
use crate::{alloc, Report};

/// The value-range relative bound every lossy workload runs at.
pub const REL: f64 = 1e-3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Warm-up ops per caller in set-up, after the reference op.
const WARM_UPS: usize = 2;
/// In-process workloads run the native call as every fourth iteration.
const NATIVE_EVERY: u64 = 4;
/// Serve workloads spend this share of the run on the native call, half
/// before and half after the clients' phase.
const SERVE_NATIVE_SHARE: f64 = 0.2;
/// Verified ops whose times are kept. Allocated before the timed phase so
/// that sample storage never moves `peak_mem_mb`; ops past it still count.
const SAMPLE_CAP: usize = 1 << 16;
/// The timed phase is read in this many equal time windows. The 90th
/// percentiles, goodput and peak memory are each the median of the windows'
/// values: this host loses a core to its neighbours for seconds at a time,
/// and a burst that spoils one or two windows must not decide a run.
const WINDOWS: usize = 5;
/// Time the traced run spends comparing traced with untraced ops.
const OVERHEAD_BUDGET: Duration = Duration::from_secs(2);

/// `std::thread::available_parallelism`, printed with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads and connections a load generator may use: `min(nproc, 4)`.
pub fn threads() -> usize {
    nproc().min(4)
}

pub fn rel_options() -> Options {
    Options::new().with("pressio:rel", REL)
}

/// A concrete plugin struct with `options` applied: the bare native call.
pub fn configured<C: Compressor>(mut plugin: C, options: &Options) -> Result<C, String> {
    plugin.set_options(options).map_err(|e| e.to_string())?;
    Ok(plugin)
}

/// A registry handle with `options` applied: the generic interface.
pub fn handle(stack: &str, options: &Options) -> Result<CompressorHandle, String> {
    libpressio::init();
    let mut handle = libpressio::registry()
        .compressor(stack)
        .map_err(|e| e.to_string())?;
    handle.set_options(options).map_err(|e| e.to_string())?;
    Ok(handle)
}

/// `nyx_density(n, seed)` with its values clamped to `e^±3`, which is ±2.5
/// standard deviations of the Gaussian field underneath. The extremes of a
/// lognormal field differ several-fold between seeds, and with them the
/// value range that `pressio:rel` resolves against, the ratio and the call
/// times; every realisation reaches the clamp, so every seed gives a field
/// of the same range and the same statistics. 1.2% of the values change.
pub fn density(n: usize, seed: u64) -> Data {
    let field = nyx_density(n, seed);
    let (low, high) = ((-3.0f32).exp(), 3.0f32.exp());
    let clamped: Vec<f32> = field
        .as_slice::<f32>()
        .expect("nyx_density is f32")
        .iter()
        .map(|v| v.clamp(low, high))
        .collect();
    Data::from_vec(clamped, field.dims().to_vec()).expect("same shape")
}

/// Where the benchmark writes: sockets and trace files.
pub fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

// ------------------------------------------------------------ endpoints

/// Where a decompress leaves its result: in the pre-shaped buffer an
/// in-process caller passes, or in the bytes a daemon client gets back.
pub struct Out {
    shaped: Data,
    returned: Option<Vec<u8>>,
}

impl Out {
    pub fn like(input: &Data) -> Out {
        Out {
            shaped: Data::owned(input.dtype(), input.dims().to_vec()),
            returned: None,
        }
    }

    /// Overwrite what the previous op left, so that a decompress which
    /// writes nothing cannot pass for a correct one.
    fn poison(&mut self) {
        self.shaped.as_bytes_mut().fill(0xFF);
        self.returned = None;
    }

    pub fn bytes(&self) -> &[u8] {
        self.returned.as_deref().unwrap_or(self.shaped.as_bytes())
    }
}

/// One way of reaching a codec: the generic handle, the bare struct, or a
/// connection to the daemon.
pub trait Endpoint {
    type Stream;
    fn compress(&mut self, input: &Data) -> Result<Self::Stream, String>;
    fn decompress(&mut self, stream: &Self::Stream, out: &mut Out) -> Result<(), String>;
    fn bytes(stream: &Self::Stream) -> &[u8];
}

impl Endpoint for CompressorHandle {
    type Stream = Data;
    fn compress(&mut self, input: &Data) -> Result<Data, String> {
        CompressorHandle::compress(self, input).map_err(|e| e.to_string())
    }
    fn decompress(&mut self, stream: &Data, out: &mut Out) -> Result<(), String> {
        CompressorHandle::decompress(self, stream, &mut out.shaped).map_err(|e| e.to_string())
    }
    fn bytes(stream: &Data) -> &[u8] {
        stream.as_bytes()
    }
}

/// A concrete plugin struct called directly: no handle, wrapper, pool or
/// daemon in between.
pub struct Bare<C>(pub C);

impl<C: Compressor> Endpoint for Bare<C> {
    type Stream = Data;
    fn compress(&mut self, input: &Data) -> Result<Data, String> {
        self.0.compress(input).map_err(|e| e.to_string())
    }
    fn decompress(&mut self, stream: &Data, out: &mut Out) -> Result<(), String> {
        self.0
            .decompress(stream, &mut out.shaped)
            .map_err(|e| e.to_string())
    }
    fn bytes(stream: &Data) -> &[u8] {
        stream.as_bytes()
    }
}

/// One closed-loop client connection to the daemon.
pub struct Remote {
    client: Client,
    profile: String,
}

impl Remote {
    fn payload(outcome: libpressio::Result<ServeOutcome>) -> Result<Vec<u8>, String> {
        match outcome {
            Ok(ServeOutcome::Ok(bytes)) => Ok(bytes),
            Ok(ServeOutcome::Busy { depth, .. }) => Err(format!("busy at queue depth {depth}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl Endpoint for Remote {
    type Stream = Vec<u8>;
    fn compress(&mut self, input: &Data) -> Result<Vec<u8>, String> {
        Remote::payload(self.client.compress(
            &self.profile,
            input.dtype(),
            input.dims(),
            input.as_bytes(),
        ))
    }
    fn decompress(&mut self, stream: &Vec<u8>, out: &mut Out) -> Result<(), String> {
        let (dtype, dims) = (out.shaped.dtype(), out.shaped.dims());
        out.returned = Some(Remote::payload(self.client.decompress(
            &self.profile,
            dtype,
            dims,
            stream,
        ))?);
        Ok(())
    }
    fn bytes(stream: &Vec<u8>) -> &[u8] {
        stream
    }
}

// ------------------------------------------------------------------ ops

/// The stream and output every later op of an endpoint must reproduce.
pub struct Reference {
    pub stream: Vec<u8>,
    output: Vec<u8>,
}

impl Reference {
    /// Run one op and check its output against the input it came from.
    fn build<E: Endpoint>(
        endpoint: &mut E,
        input: &Data,
        check: Check,
        out: &mut Out,
    ) -> Result<Reference, String> {
        let stream = endpoint.compress(input)?;
        out.poison();
        endpoint.decompress(&stream, out)?;
        check_output(input, out.bytes(), check)?;
        Ok(Reference {
            stream: E::bytes(&stream).to_vec(),
            output: out.bytes().to_vec(),
        })
    }
}

/// One timed op: the two call times and whether both results matched.
pub struct Sample {
    pub compress_ns: f64,
    pub decompress_ns: f64,
    pub verdict: Result<(), String>,
}

fn clocked<R>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = match tracer {
        Some(t) => t.call(name, f),
        None => f(),
    };
    (result, start.elapsed().as_nanos() as f64)
}

/// Compress `input`, decompress the result, then verify both against
/// `reference`. With a tracer the op is a span with one child per call.
pub fn run_op<E: Endpoint>(
    endpoint: &mut E,
    input: &Data,
    reference: &Reference,
    out: &mut Out,
    tracer: Option<&mut Tracer>,
) -> Sample {
    let mut body = |mut tracer: Option<&mut Tracer>| {
        let (stream, compress_ns) = clocked(tracer.as_deref_mut(), "path.compress", || {
            endpoint.compress(input)
        });
        out.poison();
        let (done, decompress_ns) = clocked(tracer, "path.decompress", || match &stream {
            Ok(stream) => endpoint.decompress(stream, out),
            Err(why) => Err(why.clone()),
        });
        (stream, done, compress_ns, decompress_ns)
    };
    let (stream, done, compress_ns, decompress_ns) = match tracer {
        Some(t) => t.span("op", |t| body(Some(t))),
        None => body(None),
    };
    let verdict = done.and_then(|()| {
        let stream = stream.as_ref().map_err(Clone::clone)?;
        same_bytes("stream", &reference.stream, E::bytes(stream))?;
        same_bytes("output", &reference.output, out.bytes())
    });
    Sample {
        compress_ns,
        decompress_ns,
        verdict,
    }
}

/// One verified op of the timed phase.
struct Op {
    /// When it started, in nanoseconds since the phase did.
    at_ns: f64,
    compress_ns: f64,
    decompress_ns: f64,
    bytes: usize,
}

/// What one set of callers measured.
pub struct Tally {
    ops: Vec<Op>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            ops: Vec::with_capacity(SAMPLE_CAP),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn record(&mut self, sample: Sample, at_ns: f64, bytes: usize) {
        self.attempted += 1;
        match sample.verdict {
            Ok(()) if self.ops.len() < SAMPLE_CAP => self.ops.push(Op {
                at_ns,
                compress_ns: sample.compress_ns,
                decompress_ns: sample.decompress_ns,
                bytes,
            }),
            Ok(()) => {}
            Err(why) => self.fail(why),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    fn absorb(&mut self, other: Tally) {
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if let Some(why) = other.first_failure {
            self.first_failure.get_or_insert(why);
        }
    }

    fn compress_ns(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.compress_ns).collect()
    }

    fn decompress_ns(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.decompress_ns).collect()
    }

    fn p50_sum_ns(&self) -> f64 {
        median(&self.compress_ns()) + median(&self.decompress_ns())
    }

    /// Median over the [`WINDOWS`] time windows of a phase `phase_ns` long
    /// of `stat` applied to the ops that started in each window; windows
    /// without an op are left out.
    fn windowed(&self, phase_ns: f64, stat: impl Fn(&[&Op]) -> f64) -> f64 {
        let mut windows: Vec<Vec<&Op>> = (0..WINDOWS).map(|_| Vec::new()).collect();
        for op in &self.ops {
            let index = (op.at_ns / phase_ns * WINDOWS as f64) as usize;
            windows[index.min(WINDOWS - 1)].push(op);
        }
        let values: Vec<f64> = windows
            .iter()
            .filter(|ops| !ops.is_empty())
            .map(|ops| stat(ops))
            .collect();
        median(&values)
    }
}

/// The high-water mark of live heap bytes in each window of the phase.
struct WindowPeaks {
    peaks: Vec<f64>,
    window: Duration,
    next: Instant,
}

impl WindowPeaks {
    fn start(phase: Duration) -> WindowPeaks {
        alloc::reset_peak();
        let window = phase.div_f64(WINDOWS as f64);
        WindowPeaks {
            peaks: Vec::with_capacity(WINDOWS),
            window,
            next: Instant::now() + window,
        }
    }

    /// Close every window that has ended.
    fn tick(&mut self) {
        while self.peaks.len() < WINDOWS && Instant::now() >= self.next {
            self.peaks.push(alloc::peak_bytes() as f64);
            alloc::reset_peak();
            self.next += self.window;
        }
    }

    /// Sleep until the last window has closed, for a caller that only waits.
    fn sleep_through(&mut self) {
        while self.peaks.len() < WINDOWS {
            std::thread::sleep(self.next.saturating_duration_since(Instant::now()));
            self.tick();
        }
    }

    fn median_bytes(mut self) -> f64 {
        if self.peaks.is_empty() {
            self.peaks.push(alloc::peak_bytes() as f64);
        }
        median(&self.peaks)
    }
}

// ----------------------------------------------------------------- rigs

/// Everything set-up leaves behind: inputs, armed endpoints, references.
pub struct Rig<P, N> {
    inputs: Vec<Data>,
    /// One endpoint per concurrent caller of the path under test.
    callers: Vec<P>,
    native: N,
    path_refs: Vec<Reference>,
    native_refs: Vec<Reference>,
    server: Option<Server>,
}

impl<P: Endpoint, N: Endpoint> Rig<P, N> {
    /// Build and verify references, then warm every endpoint up.
    fn arm(
        inputs: Vec<Data>,
        mut callers: Vec<P>,
        mut native: N,
        server: Option<Server>,
        check: Check,
    ) -> Result<Rig<P, N>, String> {
        let mut out = Out::like(&inputs[0]);
        let path_refs = inputs
            .iter()
            .map(|input| Reference::build(&mut callers[0], input, check, &mut out))
            .collect::<Result<Vec<_>, _>>()?;
        let native_refs = inputs
            .iter()
            .map(|input| Reference::build(&mut native, input, check, &mut out))
            .collect::<Result<Vec<_>, _>>()?;
        for _ in 0..WARM_UPS {
            for (input, reference) in inputs.iter().zip(&path_refs) {
                for caller in &mut callers {
                    run_op(caller, input, reference, &mut out, None).verdict?;
                }
            }
        }
        for (input, reference) in inputs.iter().zip(&native_refs) {
            run_op(&mut native, input, reference, &mut out, None).verdict?;
        }
        Ok(Rig {
            inputs,
            callers,
            native,
            path_refs,
            native_refs,
            server,
        })
    }

    /// Close the clients and, for a serve workload, drain the daemon and
    /// check the state it ends in.
    fn teardown(self) -> Result<(), String> {
        drop(self.callers);
        match self.server {
            Some(server) => check_drain(&server.shutdown()),
            None => Ok(()),
        }
    }

    /// Uncompressed bytes over reference stream bytes, all inputs together.
    fn ratio(&self) -> f64 {
        let raw: usize = self.inputs.iter().map(Data::size_in_bytes).sum();
        let packed: usize = self.path_refs.iter().map(|r| r.stream.len()).sum();
        raw as f64 / packed as f64
    }
}

/// The daemon's end-state invariants after a drain.
pub fn check_drain(report: &DrainReport) -> Result<(), String> {
    let queue = &report.queue;
    if report.drained_clean
        && report.stuck_inflight == 0
        && queue.accepted == queue.popped
        && report.watchdog.0 == report.watchdog.1
    {
        Ok(())
    } else {
        Err(format!("daemon end state violated: {report:?}"))
    }
}

fn arm_handle<N: Compressor>(
    inputs: Vec<Data>,
    stack: &str,
    options: &Options,
    native: N,
    check: Check,
) -> Result<Rig<CompressorHandle, Bare<N>>, String> {
    let path = handle(stack, options)?;
    Rig::arm(inputs, vec![path], Bare(native), None, check)
}

/// Start a daemon serving one `guard`-wrapped profile on a Unix socket with
/// `T` workers and a queue of `2T`.
pub fn start_server(profiles: Vec<ProfileSpec>, tag: &str) -> Result<Server, String> {
    let socket = out_dir()?.join(format!("{tag}-{}.sock", std::process::id()));
    Server::start(ServeConfig {
        profiles,
        workers: threads(),
        queue_capacity: 2 * threads(),
        unix_path: Some(socket),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())
}

pub fn profile(name: &str, compressor: &str, options: Options) -> ProfileSpec {
    ProfileSpec {
        name: name.to_string(),
        compressor: compressor.to_string(),
        options,
        deadline_ms: 0,
        memory_budget_bytes: 0,
    }
}

pub fn connect(server: &Server, profile: &str) -> Result<Remote, String> {
    let socket = server.unix_path().ok_or("daemon has no unix socket")?;
    Ok(Remote {
        client: Client::connect_unix(socket).map_err(|e| e.to_string())?,
        profile: profile.to_string(),
    })
}

fn arm_serve<N: Compressor>(
    input: Data,
    spec: ProfileSpec,
    clients: usize,
    native: N,
    check: Check,
) -> Result<Rig<Remote, Bare<N>>, String> {
    let name = spec.name.clone();
    let server = start_server(vec![spec], &name)?;
    let callers = (0..clients)
        .map(|_| connect(&server, &name))
        .collect::<Result<Vec<_>, _>>()?;
    Rig::arm(vec![input], callers, Bare(native), Some(server), check)
}

// -------------------------------------------------------------- running

/// What to do with a workload once its set-up routine is known. The two
/// implementations are the untraced measurement and the traced run's
/// overhead pass; the indirection exists because each workload has its own
/// endpoint types.
pub trait Visitor {
    type Output;
    fn visit<P: Endpoint + Send, N: Endpoint>(
        self,
        arm: impl Fn() -> Result<Rig<P, N>, String>,
    ) -> Self::Output;
}

/// Hand the named workload's set-up routine to `visitor`. Inputs come from
/// `pressio-datagen` and `seed` only.
pub fn dispatch<V: Visitor>(name: &str, seed: u64, visitor: V) -> Option<V::Output> {
    let rel = rel_options();
    let t = threads();
    let field = || density(128, seed);
    Some(match name {
        "sz_field" => visitor.visit(|| {
            let native = configured(Sz::new(SzVariant::Global), &rel)?;
            arm_handle(vec![field()], "sz", &rel, native, Check::Rel(REL))
        }),
        "zfp_pooled" => visitor.visit(|| {
            let pooled = rel.clone().with("zfp_omp:nthreads", t as u32);
            let native = configured(Zfp::default(), &rel)?;
            arm_handle(vec![field()], "zfp_omp", &pooled, native, Check::Rel(REL))
        }),
        "mgard_field" => visitor.visit(|| {
            let native = configured(Mgard::default(), &rel)?;
            arm_handle(
                vec![density(64, seed)],
                "mgard",
                &rel,
                native,
                Check::Rel(REL),
            )
        }),
        "lossless_bytes" => visitor.visit(|| {
            let input = hurricane_cloud(64, 128, 128, seed);
            let native = ByteCodec::new(CodecKind::Deflate);
            arm_handle(
                vec![input],
                "deflate",
                &Options::new(),
                native,
                Check::Lossless,
            )
        }),
        "small_calls" => visitor.visit(|| {
            let blocks = (0..64).map(|i| density(16, seed + i)).collect();
            let guarded = rel.clone().with("guard:compressor", "zfp");
            let native = configured(Zfp::default(), &rel)?;
            arm_handle(blocks, "guard", &guarded, native, Check::Rel(REL))
        }),
        "serve_raw" => visitor.visit(|| {
            let native = ByteCodec::new(CodecKind::Noop);
            let spec = profile("raw", "noop", Options::new());
            arm_serve(density(64, seed), spec, 1, native, Check::Lossless)
        }),
        "serve_sz" => visitor.visit(|| {
            let native = configured(Sz::new(SzVariant::Global), &rel)?;
            let spec = profile("sz", "sz", rel.clone());
            arm_serve(density(64, seed), spec, t, native, Check::Rel(REL))
        }),
        _ => return None,
    })
}

/// One caller's closed loop from `start` until `deadline`, cycling over the
/// inputs.
fn closed_loop<E: Endpoint>(
    endpoint: &mut E,
    inputs: &[Data],
    references: &[Reference],
    (start, deadline): (Instant, Instant),
    tally: &mut Tally,
) {
    let mut out = Out::like(&inputs[0]);
    let mut op = 0;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let i = op % inputs.len();
        let sample = run_op(endpoint, &inputs[i], &references[i], &mut out, None);
        let at_ns = (now - start).as_nanos() as f64;
        tally.record(sample, at_ns, inputs[i].size_in_bytes());
        op += 1;
    }
}

/// The untraced run: set up [`SETUP_REPS`] times, measure for `seconds`,
/// tear down, and fill in the ten end-to-end metrics.
pub struct Measure<'a> {
    pub seconds: f64,
    pub report: &'a mut Report,
}

impl Visitor for Measure<'_> {
    type Output = Result<(), String>;

    fn visit<P: Endpoint + Send, N: Endpoint>(
        self,
        arm: impl Fn() -> Result<Rig<P, N>, String>,
    ) -> Result<(), String> {
        let mut setups = Vec::new();
        let mut armed: Option<Rig<P, N>> = None;
        for _ in 0..SETUP_REPS {
            if let Some(previous) = armed.take() {
                previous.teardown()?;
            }
            let start = Instant::now();
            armed = Some(arm()?);
            setups.push(start.elapsed().as_secs_f64());
        }
        let mut rig = armed.ok_or("no set-up ran")?;

        let mut path = Tally::new();
        let mut native = Tally::new();
        let phase = Duration::from_secs_f64(self.seconds);
        let (peaks, path_phase) = if rig.server.is_none() {
            // One caller; the native call takes every fourth iteration of
            // the same loop. Each side cycles the inputs on its own count,
            // so both see the same population.
            let mut out = Out::like(&rig.inputs[0]);
            let (mut path_ops, mut native_ops) = (0usize, 0usize);
            let mut peaks = WindowPeaks::start(phase);
            let start = Instant::now();
            loop {
                let now = Instant::now();
                if now >= start + phase {
                    break;
                }
                let at_ns = (now - start).as_nanos() as f64;
                if (path.attempted + native.attempted) % NATIVE_EVERY == NATIVE_EVERY - 1 {
                    let i = native_ops % rig.inputs.len();
                    let (input, reference) = (&rig.inputs[i], &rig.native_refs[i]);
                    let sample = run_op(&mut rig.native, input, reference, &mut out, None);
                    native.record(sample, at_ns, input.size_in_bytes());
                    native_ops += 1;
                } else {
                    let i = path_ops % rig.inputs.len();
                    let (input, reference) = (&rig.inputs[i], &rig.path_refs[i]);
                    let sample = run_op(&mut rig.callers[0], input, reference, &mut out, None);
                    path.record(sample, at_ns, input.size_in_bytes());
                    path_ops += 1;
                }
                peaks.tick();
            }
            (peaks, phase)
        } else {
            // The native call runs alone, half before and half after the
            // clients, so that it never competes with the daemon for a core.
            let half = phase.mul_f64(SERVE_NATIVE_SHARE / 2.0);
            let clients_phase = phase.mul_f64(1.0 - SERVE_NATIVE_SHARE);
            let (inputs, refs, path_refs) = (&rig.inputs, &rig.native_refs, &rig.path_refs);
            let span = |length: Duration| (Instant::now(), Instant::now() + length);
            closed_loop(&mut rig.native, inputs, refs, span(half), &mut native);
            let mut tallies: Vec<Tally> = rig.callers.iter().map(|_| Tally::new()).collect();
            let mut peaks = WindowPeaks::start(clients_phase);
            let window = span(clients_phase);
            std::thread::scope(|scope| {
                for (caller, tally) in rig.callers.iter_mut().zip(&mut tallies) {
                    scope.spawn(move || closed_loop(caller, inputs, path_refs, window, tally));
                }
                peaks.sleep_through();
            });
            tallies.into_iter().for_each(|t| path.absorb(t));
            closed_loop(&mut rig.native, inputs, refs, span(half), &mut native);
            (peaks, clients_phase)
        };

        let callers = rig.callers.len();
        let ratio = rig.ratio();
        if let Err(why) = rig.teardown() {
            path.attempted += 1;
            path.fail(why);
        }

        let ms = |ns: f64| ns / 1e6;
        let phase_ns = path_phase.as_nanos() as f64;
        let p90 = |time: fn(&Op) -> f64| {
            path.windowed(phase_ns, |ops| {
                percentile(&ops.iter().map(|op| time(op)).collect::<Vec<_>>(), 0.9)
            })
        };
        let report = self.report;
        report.set("setup_s", median(&setups));
        report.set("compress_p50_ms", ms(median(&path.compress_ns())));
        report.set("decompress_p50_ms", ms(median(&path.decompress_ns())));
        report.set("compress_p90_ms", ms(p90(|op| op.compress_ns)));
        report.set("decompress_p90_ms", ms(p90(|op| op.decompress_ns)));
        // Bytes per nanosecond are GB/s. Callers overlap, so a window's time
        // base is the mean time one caller spent inside its calls.
        report.set(
            "goodput_mbps",
            path.windowed(phase_ns, |ops| {
                let bytes: usize = ops.iter().map(|op| op.bytes).sum();
                let busy_ns: f64 = ops.iter().map(|op| op.compress_ns + op.decompress_ns).sum();
                bytes as f64 / (busy_ns / callers as f64) * 1e3
            }),
        );
        report.set("ratio", ratio);
        report.set("vs_native_ratio", path.p50_sum_ns() / native.p50_sum_ns());
        report.set("peak_mem_mb", peaks.median_bytes() / 1e6);
        report.attempted = path.attempted + native.attempted;
        report.failed = path.failed + native.failed;
        report.set(
            "ok_frac",
            (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        );
        report.note(format!(
            "callers {callers}, path samples {} per direction, native samples {}",
            path.ops.len(),
            native.ops.len()
        ));
        if let Some(why) = path.first_failure.or(native.first_failure) {
            report.note(format!("first failure: {why}"));
        }
        Ok(())
    }
}

/// The traced run's first pass: the workload's op with and without the
/// benchmark's spans around its calls, alternating, for
/// `bench.trace_overhead_ratio`.
pub struct Overhead<'a> {
    pub tracer: &'a mut Tracer,
    pub report: &'a mut Report,
}

impl Visitor for Overhead<'_> {
    type Output = Result<(), String>;

    fn visit<P: Endpoint + Send, N: Endpoint>(
        self,
        arm: impl Fn() -> Result<Rig<P, N>, String>,
    ) -> Result<(), String> {
        let mut rig = arm()?;
        let mut out = Out::like(&rig.inputs[0]);
        let (mut traced, mut plain) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut op = 0;
        while op < 16 || (start.elapsed() < OVERHEAD_BUDGET && op < 4000) {
            // Ops come in pairs on one input, traced and untraced; the
            // second of a pair finds the input in cache, so pairs alternate
            // which side goes first.
            let pair = op / 2;
            let i = pair % rig.inputs.len();
            let (input, reference) = (&rig.inputs[i], &rig.path_refs[i]);
            let (tracer, samples) = if (op + pair) % 2 == 0 {
                (Some(&mut *self.tracer), &mut traced)
            } else {
                (None, &mut plain)
            };
            let sample = run_op(&mut rig.callers[0], input, reference, &mut out, tracer);
            sample.verdict?;
            samples.push(sample.compress_ns + sample.decompress_ns);
            op += 1;
        }
        self.report.attempted = op as u64;
        self.report.set(
            "bench.trace_overhead_ratio",
            median(&traced) / median(&plain),
        );
        self.report.note(format!(
            "path op p50 {:.4} ms untraced, {:.4} ms traced ({} ops each)",
            median(&plain) / 1e6,
            median(&traced) / 1e6,
            plain.len()
        ));
        rig.teardown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(ops: &[(f64, f64)]) -> Tally {
        let mut tally = Tally::new();
        for &(at_ns, compress_ns) in ops {
            let sample = Sample {
                compress_ns,
                decompress_ns: 1.0,
                verdict: Ok(()),
            };
            tally.record(sample, at_ns, 100);
        }
        tally
    }

    #[test]
    fn a_burst_in_one_window_does_not_move_the_windowed_p90() {
        // A 100 ns phase, ten ops per window, every op 10 ns except that
        // the whole second window ran five times slower.
        let ops: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                (
                    i as f64 * 2.0,
                    if (10..20).contains(&i) { 50.0 } else { 10.0 },
                )
            })
            .collect();
        let tally = tally(&ops);
        let p90 =
            |ops: &[&Op]| percentile(&ops.iter().map(|o| o.compress_ns).collect::<Vec<_>>(), 0.9);
        assert_eq!(tally.windowed(100.0, p90), 10.0);
        assert_eq!(percentile(&tally.compress_ns(), 0.9), 50.0);
        // Goodput of a window: bytes over time inside the calls.
        let goodput = |ops: &[&Op]| {
            ops.iter().map(|o| o.bytes as f64).sum::<f64>()
                / ops
                    .iter()
                    .map(|o| o.compress_ns + o.decompress_ns)
                    .sum::<f64>()
        };
        assert!((tally.windowed(100.0, goodput) - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn windows_without_ops_are_left_out_and_late_ops_join_the_last() {
        let tally = tally(&[(5.0, 1.0), (95.0, 3.0), (130.0, 5.0)]);
        let count = |ops: &[&Op]| ops.len() as f64;
        assert_eq!(tally.windowed(100.0, count), 1.5);
        let slowest = |ops: &[&Op]| ops.iter().map(|o| o.compress_ns).fold(0.0, f64::max);
        assert_eq!(tally.windowed(100.0, slowest), 3.0);
    }

    #[test]
    fn failed_ops_count_but_leave_no_sample() {
        let mut tally = tally(&[(1.0, 1.0)]);
        let failed = Sample {
            compress_ns: 9.0,
            decompress_ns: 9.0,
            verdict: Err("mismatch".to_string()),
        };
        tally.record(failed, 2.0, 100);
        assert_eq!((tally.attempted, tally.failed, tally.ops.len()), (2, 1, 1));
        assert_eq!(tally.first_failure.as_deref(), Some("mismatch"));
    }

    /// Passes set-up, then flips a bit of every second stream it returns.
    struct FlipsLater {
        inner: Bare<ByteCodec>,
        compressions: usize,
    }

    impl Endpoint for FlipsLater {
        type Stream = Data;
        fn compress(&mut self, input: &Data) -> Result<Data, String> {
            self.compressions += 1;
            let stream = self.inner.compress(input)?;
            if self.compressions <= 10 || self.compressions % 2 == 1 {
                return Ok(stream);
            }
            let mut bytes = stream.as_bytes().to_vec();
            *bytes.last_mut().expect("a stream has bytes") ^= 1;
            Ok(Data::from_bytes(&bytes))
        }
        fn decompress(&mut self, stream: &Data, out: &mut Out) -> Result<(), String> {
            self.inner.decompress(stream, out)
        }
        fn bytes(stream: &Data) -> &[u8] {
            stream.as_bytes()
        }
    }

    #[test]
    fn a_flipped_stream_bit_in_the_timed_phase_is_a_failed_op() {
        let noop = || Bare(ByteCodec::new(CodecKind::Noop));
        let mut report = Report::default();
        let measure = Measure {
            seconds: 0.2,
            report: &mut report,
        };
        measure
            .visit(|| {
                let path = FlipsLater {
                    inner: noop(),
                    compressions: 0,
                };
                Rig::arm(
                    vec![density(16, 1)],
                    vec![path],
                    noop(),
                    None,
                    Check::Lossless,
                )
            })
            .unwrap();
        assert!(report.failed > 0 && report.failed < report.attempted);
        assert!(report.get("ok_frac").unwrap() < 1.0);
        assert!(report.get("compress_p50_ms").unwrap() > 0.0);
    }

    #[test]
    fn clamped_density_has_the_same_range_for_every_seed() {
        for seed in [1, 2, 3] {
            let field = density(64, seed);
            let (min, max) = libpressio::core::value_min_max(field.as_slice::<f32>().unwrap());
            assert_eq!(
                (min as f32, max as f32),
                ((-3.0f32).exp(), 3.0f32.exp()),
                "seed {seed}"
            );
        }
    }
}
