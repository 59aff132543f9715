//! `guard`: a meta-compressor that wraps any child with production
//! robustness policies — the "misbehaving plugin cannot hang or crash the
//! host" half of the paper's embeddability argument (Sec. V).
//!
//! Four composable policies, all driven by options:
//!
//! 1. **Integrity framing** — the child's stream is wrapped in a versioned
//!    frame carrying magic, the serving child's name, a dtype/dims echo, the
//!    payload length, and an 8-byte checksum trailer
//!    ([`pressio_core::checksum`]). Frame **v2**, the one written, checksums
//!    every byte before the trailer with one XXH64 call; frame **v1**
//!    (FNV-1a over the fields) is still read, selected by nothing but the
//!    version field in the stream. Decompression validates the whole frame
//!    first, so truncated, bit-flipped, or mismatched streams are rejected
//!    with [`CorruptStream`](pressio_core::ErrorCode::CorruptStream) before
//!    the child's decoder ever parses hostile bytes. The checksum is an
//!    integrity check, not authentication — anyone can compute it — so the
//!    echoed geometry never sizes a buffer by itself: a sized `output` must
//!    agree with it, and an empty one is filled through
//!    [`Data::alloc_output`] (checked, charged, fallible).
//! 2. **Deadline enforcement & cancellation** — with `guard:timeout_ms > 0`,
//!    compress and decompress run on a deadline worker from the execution
//!    engine's watchdog pool under a [`pressio_core::CancelToken`]; an
//!    overrun returns [`Timeout`](pressio_core::ErrorCode::Timeout) to the
//!    caller immediately *and trips the token*, so in-flight work — pool
//!    chunks, SZ/ZFP stage loops, entropy coders — stops cooperatively at
//!    its next checkpoint instead of running detached to completion. The
//!    worker then re-registers idle for reuse; a fresh child instance is
//!    re-armed from the registry. `guard:memory_budget_bytes > 0`
//!    additionally caps the child's charged allocations; exhaustion
//!    surfaces as the terminal
//!    [`Cancelled`](pressio_core::ErrorCode::Cancelled) instead of an
//!    abort-on-OOM.
//! 3. **Retry with backoff** — transient errors (per
//!    [`ErrorCode::is_transient`](pressio_core::ErrorCode::is_transient):
//!    `Io`, `Timeout`, and `Busy`) are retried up to `guard:max_retries`
//!    times with exponential backoff from `guard:backoff_ms`, capped at
//!    [`MAX_BACKOFF_MS`] and dithered by deterministic seeded equal
//!    jitter ([`jittered_backoff_ms`], `guard:backoff_jitter_seed`) so
//!    synchronized retry storms decorrelate. Terminal errors (corrupt
//!    stream, bad arguments) are never retried.
//! 4. **Fallback chain** — `guard:fallbacks` names an ordered list of
//!    stand-in compressors. When the primary child fails (after retries),
//!    the guard degrades down the chain — ultimately to a lossless or
//!    `noop` passthrough if so configured — and records which child served
//!    in `guard:served_by`. With `guard:verify = 1` each candidate's stream
//!    is round-trip checked after compression, so a child that *silently*
//!    emits a corrupt stream also triggers the chain.
//!
//! Attempt/failure/timeout counters are exposed both as read-only
//! `guard:*` options and through the metrics interface via
//! [`Guard::stats_metrics`].

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use pressio_core::checksum::{xxh64, Fnv1a64};
use pressio_core::{
    ByteReader, ByteWriter, Compressor, DType, Data, Error, ErrorCode, MetricsPlugin, Options,
    Result, ThreadSafety, Version,
};

use crate::util::{default_child, resolve_child};

const GUARD_MAGIC: u32 = 0x4752_4431; // "GRD1"
/// The frame version written: XXH64 over every frame byte before the trailer.
const GUARD_VERSION: u16 = 2;
/// The first frame version, read for streams already written: FNV-1a over
/// the header fields and the payload, field by field.
const GUARD_VERSION_FNV: u16 = 1;
/// Bytes of checksum closing every frame, in both versions.
const TRAILER_LEN: usize = 8;

/// Upper bound on a single backoff sleep; retry loops never sleep longer
/// than this per attempt regardless of configuration.
pub const MAX_BACKOFF_MS: u64 = 1_000;

/// The backoff schedule: capped exponential with deterministic
/// *equal jitter*.
///
/// The undithered delay for `attempt` is
/// `base_ms * 2^min(attempt, 10)`, capped at [`MAX_BACKOFF_MS`]; the
/// jittered delay is drawn from `[exp/2, exp]` by a splitmix64 hash of
/// `(seed, attempt)`. Jitter decorrelates retry storms — when many
/// guards (or many `pressio serve` requests) fail at once, synchronized
/// full-exponential schedules re-collide on every attempt, while
/// equal-jitter spreads them across half the window — yet the schedule
/// stays a pure function of `(base_ms, attempt, seed)` so a failing run
/// replays exactly and tests can pin the whole schedule.
pub fn jittered_backoff_ms(base_ms: u64, attempt: u32, seed: u64) -> u64 {
    let exp = base_ms
        .saturating_mul(1u64 << attempt.min(10))
        .min(MAX_BACKOFF_MS);
    if exp <= 1 {
        return exp;
    }
    // splitmix64 finalizer over (seed, attempt): stateless, so concurrent
    // clones of one guard draw identical schedules.
    let mut z = seed
        .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let half = exp / 2;
    (half + z % (exp - half + 1)).min(MAX_BACKOFF_MS)
}

/// Run `f` under a deadline on the execution engine's watchdog pool.
///
/// With `timeout_ms == 0` the closure runs inline (no thread, no copy
/// overhead). Otherwise the closure runs on a pooled deadline worker under
/// an ambient [`pressio_core::CancelToken`]; if the deadline passes first,
/// [`ErrorCode::Timeout`] is returned immediately *and the token is
/// tripped*, so any cancellation-aware work inside `f` stops cooperatively
/// at its next checkpoint and the worker returns to the pool — nothing is
/// left running detached. A closure that panics on the worker surfaces as
/// [`ErrorCode::Internal`], never as an unwinding host thread.
///
/// Thin delegation to [`pressio_core::run_deadlined`], kept for callers
/// (and the fuzz harness) that want the guard's deadline semantics without
/// a full [`Guard`].
pub fn run_with_deadline<T: Send + 'static>(
    timeout_ms: u64,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T> {
    pressio_core::run_deadlined(timeout_ms, what, f)
}

/// Attempt/failure counters shared between a [`Guard`] and its
/// [`stats_metrics`](Guard::stats_metrics) view.
#[derive(Debug, Default, Clone)]
struct GuardCounters {
    /// Child invocations attempted (including retries and fallbacks).
    attempts: u64,
    /// Child invocations that returned an error.
    failures: u64,
    /// Attempts that hit the watchdog deadline.
    timeouts: u64,
    /// Attempts stopped by cooperative cancellation (explicit cancel or
    /// memory-budget exhaustion — deadline trips count as timeouts).
    cancelled: u64,
    /// Requests ultimately served by a fallback rather than the primary.
    fallback_served: u64,
    /// Requests that exhausted the whole chain.
    exhausted: u64,
}

/// The guarded-execution meta-compressor.
pub struct Guard {
    child_name: String,
    /// The live primary; `None` only while a call has it checked out.
    child: Option<Box<dyn Compressor>>,
    fallbacks: Vec<String>,
    timeout_ms: u64,
    memory_budget_bytes: u64,
    max_retries: u32,
    backoff_ms: u64,
    backoff_jitter_seed: u64,
    verify: bool,
    /// Every option set applied so far, merged — used to arm fallback
    /// children and to re-arm a fresh primary after a detached timeout.
    saved_options: Options,
    served_by: Option<String>,
    stats: Arc<Mutex<GuardCounters>>,
}

impl Guard {
    /// A guard over `noop` until configured: framing only, no deadline, no
    /// retries, no fallbacks.
    pub fn new() -> Guard {
        Guard {
            child_name: "noop".to_string(),
            child: Some(default_child()),
            fallbacks: Vec::new(),
            timeout_ms: 0,
            memory_budget_bytes: 0,
            max_retries: 0,
            backoff_ms: 10,
            backoff_jitter_seed: 1,
            verify: false,
            saved_options: Options::new(),
            served_by: None,
            stats: Arc::new(Mutex::new(GuardCounters::default())),
        }
    }

    /// A metrics plugin view over this guard's live counters: attach it to
    /// the surrounding [`CompressorHandle`](pressio_core::CompressorHandle)
    /// (or read `results()` directly) to observe attempts, failures,
    /// timeouts, and fallback use.
    pub fn stats_metrics(&self) -> Box<dyn MetricsPlugin> {
        Box::new(GuardStats {
            stats: Arc::clone(&self.stats),
        })
    }

    /// Which child served the most recent compress/decompress, if any.
    pub fn served_by(&self) -> Option<&str> {
        self.served_by.as_deref()
    }

    /// Resolve and configure one candidate child by registry name.
    fn arm(&self, name: &str) -> Result<Box<dyn Compressor>> {
        let mut c = resolve_child(name).map_err(|e| e.in_plugin("guard"))?;
        c.set_options(&self.saved_options)?;
        Ok(c)
    }

    /// The primary to put back after a call: the instance the call
    /// returned, or — when it was lost to a detached watchdog worker — a
    /// freshly armed one, falling back to an inert `noop` when even the
    /// registry lookup fails, so the guard stays usable.
    fn or_rearmed(&self, returned: Option<Box<dyn Compressor>>) -> Option<Box<dyn Compressor>> {
        returned
            .or_else(|| self.arm(&self.child_name).ok())
            .or_else(|| Some(default_child()))
    }

    /// One child invocation under the cancellation policies. With a
    /// deadline armed the child instance is moved to a pooled deadline
    /// worker and handed back on completion; on timeout the caller returns
    /// immediately with `None` in its place while the tripped token walks
    /// the in-flight work to a cooperative stop (the worker then
    /// re-registers idle — no thread is left running detached).
    fn timed<T: Send + 'static>(
        &self,
        child: Box<dyn Compressor>,
        what: &'static str,
        op: impl FnOnce(&mut Box<dyn Compressor>) -> Result<T> + Send + 'static,
    ) -> (Option<Box<dyn Compressor>>, Result<T>) {
        if self.timeout_ms == 0 && self.memory_budget_bytes == 0 {
            let mut child = child;
            let r = op(&mut child);
            return (Some(child), r);
        }
        let token = pressio_core::CancelToken::new();
        if self.timeout_ms > 0 {
            token.set_deadline_ms(self.timeout_ms);
        }
        if self.memory_budget_bytes > 0 {
            token.set_memory_budget(self.memory_budget_bytes);
        }
        if self.timeout_ms == 0 {
            // Budget only: there is no deadline to wait out, so the child
            // can run inline under the ambient token.
            let mut child = child;
            let r = pressio_core::cancel::with_token(&token, || op(&mut child));
            return (Some(child), r);
        }
        match pressio_core::run_cancellable(&token, what, move || {
            let mut child = child;
            let r = op(&mut child);
            (child, r)
        }) {
            Ok((child, r)) => (Some(child), r),
            Err(e) => (None, Err(e)),
        }
    }

    /// Retry loop around one candidate's invocation: transient errors are
    /// retried with capped exponential backoff, terminal errors return
    /// immediately. `attempt_op` builds the closure for each attempt, so an
    /// attempt can own what it works on (a staged input, the caller's
    /// output buffer) instead of cloning it per try. Returns the surviving
    /// child instance (if not lost to a detached worker) and the final
    /// outcome.
    fn with_retries<T, Op>(
        &self,
        name: &str,
        mut child: Box<dyn Compressor>,
        what: &'static str,
        mut attempt_op: impl FnMut() -> Op,
    ) -> (Option<Box<dyn Compressor>>, Result<T>)
    where
        T: Send + 'static,
        Op: FnOnce(&mut Box<dyn Compressor>) -> Result<T> + Send + 'static,
    {
        let mut attempt = 0u32;
        loop {
            {
                let mut s = self.stats.lock();
                s.attempts += 1;
            }
            let (returned, outcome) = {
                let _span =
                    pressio_core::trace::span_labeled("guard:attempt", || format!("{name} {what}"));
                self.timed(child, what, attempt_op())
            };
            match outcome {
                Ok(v) => return (returned, Ok(v)),
                Err(e) => {
                    {
                        let mut s = self.stats.lock();
                        s.failures += 1;
                        if e.code() == ErrorCode::Timeout {
                            s.timeouts += 1;
                            pressio_core::trace::count("guard:timeout", 1);
                        } else if e.code() == ErrorCode::Cancelled {
                            s.cancelled += 1;
                            pressio_core::trace::count("guard:cancelled", 1);
                        }
                    }
                    if attempt >= self.max_retries || !e.is_transient() {
                        return (returned, Err(e));
                    }
                    pressio_core::trace::count("guard:retry", 1);
                    // Child lost to a detached worker: arm a fresh instance
                    // of the same candidate for the retry.
                    child = match returned {
                        Some(c) => c,
                        None => match self.arm(name) {
                            Ok(c) => c,
                            Err(arm_err) => return (None, Err(arm_err)),
                        },
                    };
                    let backoff =
                        jittered_backoff_ms(self.backoff_ms, attempt, self.backoff_jitter_seed);
                    std::thread::sleep(Duration::from_millis(backoff.min(MAX_BACKOFF_MS)));
                    attempt += 1;
                }
            }
        }
    }

    /// Round-trip verification of a candidate's output stream.
    fn verify_payload(&self, candidate: &str, input: &Data, stream: &Data) -> Result<()> {
        let _span = pressio_core::trace::span("guard:verify");
        pressio_core::trace::count("guard:verify", 1);
        let checker = self.arm(candidate)?;
        let dtype = input.dtype();
        let (_, outcome) = self.with_retries(candidate, checker, "verify", || {
            let stream = stream.clone();
            let dims = input.dims().to_vec();
            move |c| {
                let mut out = Data::owned(dtype, dims);
                c.decompress(&stream, &mut out)
            }
        });
        outcome.map_err(|e| {
            Error::corrupt(format!(
                "verification decode of {candidate}'s stream failed: {e}"
            ))
            .in_plugin("guard")
        })
    }
}

/// Record which child served, without reallocating an unchanged name.
fn record_served_by(slot: &mut Option<String>, name: &str) {
    if slot.as_deref() != Some(name) {
        *slot = Some(name.to_string());
    }
}

/// Wrap a child payload in the integrity frame: header, payload and trailer
/// land once in the aligned buffer the caller gets, and one hash over what
/// precedes the trailer fills it in.
fn frame(served_by: &str, input: &Data, payload: &[u8]) -> Data {
    let mut head = ByteWriter::with_capacity(64 + served_by.len() + 8 * input.num_dims());
    head.put_u32(GUARD_MAGIC);
    head.put_u16(GUARD_VERSION);
    head.put_str(served_by);
    head.put_dtype(input.dtype());
    head.put_dims(input.dims());
    head.put_u64(payload.len() as u64);
    let mut frame = Data::from_byte_parts(&[head.as_slice(), payload, &[0u8; TRAILER_LEN]]);
    let bytes = frame.as_bytes_mut();
    let (covered, trailer) = bytes.split_at_mut(bytes.len() - TRAILER_LEN);
    trailer.copy_from_slice(&xxh64(covered).to_le_bytes());
    frame
}

/// A validated integrity frame, borrowed from the stream it was read from.
struct Frame<'a> {
    served_by: &'a str,
    dtype: DType,
    dims: Vec<usize>,
    payload: &'a [u8],
}

/// Parse and fully validate the integrity frame. Every rejection is a
/// [`CorruptStream`](ErrorCode::CorruptStream) raised *before* any child
/// decoder runs.
fn unframe(bytes: &[u8]) -> Result<Frame<'_>> {
    let corrupt = |msg: String| Error::corrupt(msg).in_plugin("guard");
    let mut r = ByteReader::new(bytes);
    if r.get_u32()? != GUARD_MAGIC {
        return Err(corrupt("bad guard frame magic".to_string()));
    }
    let version = r.get_u16()?;
    if version != GUARD_VERSION && version != GUARD_VERSION_FNV {
        return Err(corrupt(format!(
            "unsupported guard frame version {version} (this build reads \
             {GUARD_VERSION_FNV} and {GUARD_VERSION})"
        )));
    }
    let served_by = r.get_str()?;
    // The echo must describe a plausible buffer.
    let (dtype, dims) = r.get_geometry()?;
    let payload = r.get_section()?;
    let covered = r.position();
    let declared = r.get_u64()?;
    let computed = if version == GUARD_VERSION_FNV {
        frame_checksum_v1(served_by, dtype.tag(), &dims, payload)
    } else {
        xxh64(&bytes[..covered])
    };
    if declared != computed {
        return Err(corrupt(format!(
            "guard checksum mismatch: stream declares {declared:#018x}, frame hashes to \
             {computed:#018x}"
        )));
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the guard frame",
            r.remaining()
        )));
    }
    Ok(Frame {
        served_by,
        dtype,
        dims,
        payload,
    })
}

/// Frame v1's checksum: FNV-1a binding the header fields to the payload.
fn frame_checksum_v1(served_by: &str, dtype_tag: u8, dims: &[usize], payload: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(served_by.as_bytes());
    h.update(&[dtype_tag]);
    for &d in dims {
        h.update_u64(d as u64);
    }
    h.update_u64(payload.len() as u64);
    h.update(payload);
    h.finish()
}

impl Default for Guard {
    fn default() -> Self {
        Guard::new()
    }
}

impl Compressor for Guard {
    fn get_configuration(&self) -> Options {
        let stats = self.stats.lock().clone();
        let mut o = pressio_core::base_configuration(self);
        // Read-only telemetry lives on the configuration surface: these
        // keys are reported, never settable (like opt's achieved_ratio).
        o.set("guard:served_by", self.served_by.as_deref().unwrap_or(""));
        o.set("guard:attempts", stats.attempts);
        o.set("guard:failures", stats.failures);
        o.set("guard:timeouts", stats.timeouts);
        o.set("guard:cancelled", stats.cancelled);
        o.set("guard:fallback_served", stats.fallback_served);
        if let Some(child) = &self.child {
            o.merge(&child.get_configuration());
        }
        o
    }

    fn name(&self) -> &str {
        "guard"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        self.child
            .as_ref()
            .map_or(ThreadSafety::Single, |child| child.thread_safety())
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new()
            .with("guard:compressor", self.child_name.as_str())
            .with("guard:fallbacks", self.fallbacks.clone())
            .with("guard:timeout_ms", self.timeout_ms)
            .with("guard:memory_budget_bytes", self.memory_budget_bytes)
            .with("guard:max_retries", self.max_retries)
            .with("guard:backoff_ms", self.backoff_ms)
            .with("guard:backoff_jitter_seed", self.backoff_jitter_seed)
            .with("guard:verify", u32::from(self.verify));
        if let Some(child) = &self.child {
            o.merge(&child.get_options());
        }
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("guard:compressor")? {
            self.child = Some(resolve_child(&name).map_err(|e| e.in_plugin("guard"))?);
            self.child_name = name;
        }
        if let Some(fallbacks) = options.get_as::<Vec<String>>("guard:fallbacks")? {
            // CLI callers can only pass plain strings, so a single
            // comma-separated entry means a list: `guard:fallbacks=deflate,noop`.
            let fallbacks: Vec<String> = fallbacks
                .iter()
                .flat_map(|f| f.split(','))
                .map(|f| f.trim().to_string())
                .filter(|f| !f.is_empty())
                .collect();
            for f in &fallbacks {
                // Fail configuration, not the first degraded request.
                resolve_child(f).map_err(|e| e.in_plugin("guard"))?;
            }
            self.fallbacks = fallbacks;
        }
        if let Some(t) = options.get_as::<u64>("guard:timeout_ms")? {
            self.timeout_ms = t;
        }
        if let Some(b) = options.get_as::<u64>("guard:memory_budget_bytes")? {
            self.memory_budget_bytes = b;
        }
        if let Some(r) = options.get_as::<u32>("guard:max_retries")? {
            self.max_retries = r;
        }
        if let Some(b) = options.get_as::<u64>("guard:backoff_ms")? {
            self.backoff_ms = b.min(MAX_BACKOFF_MS);
        }
        if let Some(s) = options.get_as::<u64>("guard:backoff_jitter_seed")? {
            self.backoff_jitter_seed = s;
        }
        if let Some(v) = options.get_as::<u32>("guard:verify")? {
            self.verify = v != 0;
        }
        if let Some(child) = &mut self.child {
            child.set_options(options)?;
        }
        // Remember everything ever applied so fallback children and
        // re-armed primaries can be configured identically. Counter echoes
        // from a previous get_options are harmless: they are ignored above
        // and overwritten in every future get_options.
        self.saved_options.merge(options);
        Ok(())
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "guard",
                "wraps a child with integrity framing, a watchdog deadline, retry with \
                 backoff, and an ordered fallback chain",
            )
            .with("guard:compressor", "registry name of the primary child")
            .with(
                "guard:fallbacks",
                "ordered fallback compressor names tried when the primary fails",
            )
            .with(
                "guard:timeout_ms",
                "per-invocation deadline in ms; an overrun returns Timeout and trips the \
                 cancel token so in-flight work stops cooperatively (0 runs inline)",
            )
            .with(
                "guard:memory_budget_bytes",
                "cap on the child's charged working-set allocations per invocation; \
                 exhaustion returns the terminal Cancelled code (0 = unlimited)",
            )
            .with(
                "guard:max_retries",
                "retries per candidate for transient (io/timeout) errors",
            )
            .with(
                "guard:backoff_ms",
                "base backoff between retries; doubles per attempt, capped at 1000 ms",
            )
            .with(
                "guard:backoff_jitter_seed",
                "seed for the deterministic equal-jitter dither on each backoff sleep; \
                 the schedule is a pure function of (backoff_ms, attempt, seed)",
            )
            .with(
                "guard:verify",
                "1 = round-trip check each candidate's stream before accepting it",
            )
            .with("guard:served_by", "read-only: child that served the last request")
            .with("guard:attempts", "read-only: child invocations attempted")
            .with("guard:failures", "read-only: child invocations that errored")
            .with("guard:timeouts", "read-only: attempts that hit the deadline")
            .with(
                "guard:cancelled",
                "read-only: attempts stopped by cooperative cancellation (budget/explicit)",
            )
            .with(
                "guard:fallback_served",
                "read-only: requests served by a fallback child",
            )
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let mut last_err: Option<Error> = None;
        let candidates = std::iter::once(&self.child_name).chain(&self.fallbacks);
        for (rank, name) in candidates.enumerate() {
            // Rank 0 uses the live primary (preserving its state in the
            // happy path); fallbacks are armed fresh per request.
            let primary = if rank == 0 { self.child.take() } else { None };
            let candidate = match primary.map_or_else(|| self.arm(name), Ok) {
                Ok(c) => c,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            let (returned, outcome) = self.with_retries(name, candidate, "compress", || {
                let staged = input.clone();
                move |c| c.compress(&staged)
            });
            if rank == 0 {
                self.child = self.or_rearmed(returned);
            }
            match outcome {
                Ok(stream) => {
                    if self.verify {
                        if let Err(e) = self.verify_payload(name, input, &stream) {
                            self.stats.lock().failures += 1;
                            last_err = Some(e);
                            continue;
                        }
                    }
                    if rank > 0 {
                        self.stats.lock().fallback_served += 1;
                        pressio_core::trace::count("guard:fallback", 1);
                    }
                    record_served_by(&mut self.served_by, name);
                    return Ok(frame(name, input, stream.as_bytes()));
                }
                Err(e) => last_err = Some(e),
            }
        }
        self.stats.lock().exhausted += 1;
        Err(last_err
            .unwrap_or_else(|| Error::internal("guard had no candidates"))
            .in_plugin("guard"))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let Frame {
            served_by,
            dtype,
            dims,
            payload,
        } = unframe(compressed.as_bytes())?;
        // A sized output is the caller's statement of what the stream holds
        // (a daemon sizes it from the request, under the request's cap), and
        // the buffer the child decodes into: a frame echoing anything else
        // is refused before a byte is allocated for it. An empty output
        // lets the frame decide, through the one checked, charged, fallible
        // allocation.
        let sized = output.num_elements() != 0;
        if sized {
            if output.dtype() != dtype || output.num_elements() != dims.iter().product() {
                return Err(Error::invalid_argument(format!(
                    "the frame holds {dims:?} x {dtype} but the output is {:?} x {}",
                    output.dims(),
                    output.dtype()
                ))
                .in_plugin("guard"));
            }
            if output.dims() != dims {
                output.reshape(dims.clone())?;
            }
        }
        // Route to the child recorded in the frame: the primary when it
        // served, otherwise a fallback armed with the same options.
        let primary_served = served_by == self.child_name;
        let primary = if primary_served { self.child.take() } else { None };
        let child = primary.map_or_else(|| self.arm(served_by), Ok)?;
        let mut callers_buffer = sized.then(|| std::mem::replace(output, Data::empty(dtype)));
        let payload = Data::from_bytes(payload);
        let (returned, outcome) = self.with_retries(served_by, child, "decompress", || {
            let payload = payload.clone();
            let dims = dims.clone();
            let reused = callers_buffer.take();
            move |c| {
                let mut staged = match reused {
                    Some(buffer) => buffer,
                    None => Data::alloc_output(dtype, dims)?,
                };
                c.decompress(&payload, &mut staged)?;
                Ok(staged)
            }
        });
        if primary_served {
            self.child = self.or_rearmed(returned);
        }
        *output = outcome?;
        record_served_by(&mut self.served_by, served_by);
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(Guard {
            child_name: self.child_name.clone(),
            child: self.child.as_ref().map(|child| child.clone_compressor()),
            fallbacks: self.fallbacks.clone(),
            timeout_ms: self.timeout_ms,
            memory_budget_bytes: self.memory_budget_bytes,
            max_retries: self.max_retries,
            backoff_ms: self.backoff_ms,
            backoff_jitter_seed: self.backoff_jitter_seed,
            verify: self.verify,
            saved_options: self.saved_options.clone(),
            served_by: self.served_by.clone(),
            // Counters are per-instance observations, not configuration.
            stats: Arc::new(Mutex::new(GuardCounters::default())),
        })
    }
}

/// Metrics plugin view over a [`Guard`]'s counters (see
/// [`Guard::stats_metrics`]). Results are read live from the shared
/// counters, so one attached instance observes every request the guard
/// serves.
struct GuardStats {
    stats: Arc<Mutex<GuardCounters>>,
}

impl MetricsPlugin for GuardStats {
    fn name(&self) -> &str {
        "guard_stats"
    }

    fn results(&self) -> Options {
        let s = self.stats.lock().clone();
        Options::new()
            .with("guard_stats:attempts", s.attempts)
            .with("guard_stats:failures", s.failures)
            .with("guard_stats:timeouts", s.timeouts)
            .with("guard_stats:cancelled", s.cancelled)
            .with("guard_stats:fallback_served", s.fallback_served)
            .with("guard_stats:exhausted", s.exhausted)
    }

    fn clone_metrics(&self) -> Box<dyn MetricsPlugin> {
        Box::new(GuardStats {
            stats: Arc::clone(&self.stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jittered_backoff_schedule_is_deterministic_and_pinned() {
        let schedule = |seed: u64| -> Vec<u64> {
            (0..6).map(|a| jittered_backoff_ms(10, a, seed)).collect()
        };
        // Same seed, same schedule — concurrent guard clones agree.
        assert_eq!(schedule(42), schedule(42));
        // Different seeds decorrelate.
        assert_ne!(schedule(42), schedule(43));
        // Every draw lands in the equal-jitter window [exp/2, exp].
        for seed in [0u64, 1, 42, u64::MAX] {
            for attempt in 0..16u32 {
                let exp = 10u64
                    .saturating_mul(1 << attempt.min(10))
                    .min(MAX_BACKOFF_MS);
                let j = jittered_backoff_ms(10, attempt, seed);
                assert!(
                    j >= exp / 2 && j <= exp,
                    "seed {seed} attempt {attempt}: {j} outside [{}, {exp}]",
                    exp / 2
                );
            }
        }
        // Degenerate bases pass through unjittered.
        assert_eq!(jittered_backoff_ms(0, 3, 42), 0);
        assert_eq!(jittered_backoff_ms(1, 0, 9), 1);
        // Regression pin: the exact schedule for (base 10, seed 42). A
        // change here silently breaks replayability of recorded failures.
        assert_eq!(schedule(42), vec![6, 15, 20, 40, 105, 185]);
    }

    fn init() {
        pressio_codecs::register_builtins();
        pressio_sz::register_builtins();
        crate::register_builtins();
    }

    fn field(n: usize) -> Data {
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        Data::from_vec(v, vec![n]).unwrap()
    }

    #[test]
    fn framing_roundtrips_and_reports_served_by() {
        init();
        let input = field(512);
        let mut g = Guard::new();
        g.set_options(
            &Options::new()
                .with("guard:compressor", "sz")
                .with("sz:abs_err_bound", 1e-4f64),
        )
        .unwrap();
        let c = g.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![512]);
        g.decompress(&c, &mut out).unwrap();
        assert_eq!(g.served_by(), Some("sz"));
        assert_eq!(
            g.get_configuration().get_as::<String>("guard:served_by").unwrap(),
            Some("sz".to_string())
        );
        let max_err = input
            .to_f64_vec()
            .unwrap()
            .iter()
            .zip(out.to_f64_vec().unwrap())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= 1e-4);
    }

    /// A frame as version 1 wrote it: same layout, FNV-1a trailer.
    fn frame_v1(served_by: &str, dtype: DType, dims: &[usize], payload: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(GUARD_MAGIC);
        w.put_u16(GUARD_VERSION_FNV);
        w.put_str(served_by);
        w.put_dtype(dtype);
        w.put_dims(dims);
        w.put_section(payload);
        w.put_u64(frame_checksum_v1(served_by, dtype.tag(), dims, payload));
        w.into_vec()
    }

    /// The same frame as version 2 writes it.
    fn frame_v2(served_by: &str, dtype: DType, dims: &[usize], payload: &[u8]) -> Vec<u8> {
        let mut bytes = frame_v1(served_by, dtype, dims, payload);
        bytes[4..6].copy_from_slice(&GUARD_VERSION.to_le_bytes());
        let covered = bytes.len() - TRAILER_LEN;
        let sum = xxh64(&bytes[..covered]);
        bytes[covered..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn every_frame_field_is_validated() {
        init();
        let input = field(256);
        let mut g = Guard::new();
        g.set_options(&Options::new().with("guard:compressor", "deflate"))
            .unwrap();
        let v2 = g.compress(&input).unwrap().as_bytes().to_vec();
        let payload = unframe(&v2).unwrap().payload;
        assert_eq!(v2, frame_v2("deflate", DType::F64, &[256], payload));
        let v1 = frame_v1("deflate", DType::F64, &[256], payload);
        assert_eq!(v1.len(), v2.len(), "the versions differ in the trailer's value only");

        for (version, clean) in [(1u16, v1), (2, v2)] {
            let cases: Vec<(&str, Vec<u8>)> = vec![
                ("flipped magic", {
                    let mut b = clean.clone();
                    b[0] ^= 0xff;
                    b
                }),
                ("unknown version", {
                    let mut b = clean.clone();
                    b[4] = 3;
                    b
                }),
                ("the other version's label", {
                    let mut b = clean.clone();
                    b[4] ^= 0x03;
                    b
                }),
                ("renamed child", {
                    let mut b = clean.clone();
                    b[14] ^= 0x01;
                    b
                }),
                ("dtype tag", {
                    let mut b = clean.clone();
                    b[21] ^= 0x01;
                    b
                }),
                ("dimension", {
                    let mut b = clean.clone();
                    b[26] ^= 0x01;
                    b
                }),
                ("payload bit flip", {
                    let mut b = clean.clone();
                    let mid = b.len() / 2;
                    b[mid] ^= 0x10;
                    b
                }),
                ("trailer bit flip", {
                    let mut b = clean.clone();
                    let last = b.len() - 1;
                    b[last] ^= 0x80;
                    b
                }),
                ("truncated tail", clean[..clean.len() - 9].to_vec()),
                ("extended tail", {
                    let mut b = clean.clone();
                    b.extend_from_slice(&[0u8; 16]);
                    b
                }),
                ("empty stream", Vec::new()),
            ];
            for (case, bytes) in cases {
                let mut out = Data::owned(DType::F64, vec![256]);
                let err = g.decompress(&Data::from_bytes(&bytes), &mut out).unwrap_err();
                assert_eq!(err.code(), ErrorCode::CorruptStream, "v{version} {case}: {err}");
            }
            // The clean stream still decodes after all that.
            let mut out = Data::owned(DType::F64, vec![256]);
            g.decompress(&Data::from_bytes(&clean), &mut out).unwrap();
            assert_eq!(out, input, "v{version}");
        }
    }

    #[test]
    fn a_hostile_geometry_echo_is_an_error_not_an_abort() {
        init();
        // 51 bytes, every field well-formed, a checksum anyone can compute:
        // the frame claims its four payload bytes decode to half a terabyte.
        let huge = [1usize << 37];
        for hostile in [
            frame_v1("noop", DType::F32, &huge, b"tiny"),
            frame_v2("noop", DType::F32, &huge, b"tiny"),
        ] {
            assert_eq!(hostile.len(), 51);
            let hostile = Data::from_bytes(&hostile);
            let mut g = Guard::new();
            // A caller that says what it expects is never resized by the
            // frame: refused before anything is allocated.
            let mut sized = Data::owned(DType::F32, vec![4]);
            let err = g.decompress(&hostile, &mut sized).unwrap_err();
            assert_eq!(err.code(), ErrorCode::InvalidArgument, "{err}");
            assert_eq!(sized.dims(), &[4], "a refused frame leaves the output alone");
            // A caller that lets the frame decide gets the checked, charged,
            // fallible allocation — under a budget, a clean Cancelled.
            let token = pressio_core::CancelToken::new();
            token.set_memory_budget(64 << 20);
            let err = pressio_core::cancel::with_token(&token, || {
                g.decompress(&hostile, &mut Data::empty(DType::F32))
            })
            .unwrap_err();
            assert_eq!(err.code(), ErrorCode::Cancelled, "{err}");
            // And with no budget at all, whatever the host says, no abort.
            assert!(g.decompress(&hostile, &mut Data::empty(DType::F32)).is_err());
            // The guard is still usable afterwards.
            let input = field(16);
            let c = g.compress(&input).unwrap();
            let mut out = Data::empty(DType::F64);
            g.decompress(&c, &mut out).unwrap();
            assert_eq!(out, input);
        }
    }

    #[test]
    fn a_sized_output_is_decoded_in_place_and_reshaped_to_the_frame() {
        init();
        let v: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let input = Data::from_vec(v, vec![8, 8]).unwrap();
        let mut g = Guard::new();
        let c = g.compress(&input).unwrap();
        // Same element count, flattened: the caller's allocation is the one
        // the child fills, and it comes back in the frame's shape.
        let mut out = Data::owned(DType::F64, vec![64]);
        let buffer = out.as_bytes().as_ptr();
        g.decompress(&c, &mut out).unwrap();
        assert_eq!(out, input);
        assert_eq!(out.as_bytes().as_ptr(), buffer, "the output was allocated twice");
        // Wrong dtype or element count: refused.
        for mut wrong in [Data::owned(DType::F32, vec![8, 8]), Data::owned(DType::F64, vec![63])] {
            let err = g.decompress(&c, &mut wrong).unwrap_err();
            assert_eq!(err.code(), ErrorCode::InvalidArgument, "{err}");
        }
    }

    #[test]
    fn deadline_returns_timeout_and_guard_stays_usable() {
        init();
        let input = field(64);
        // Register a deliberately hanging compressor for this test.
        pressio_core::registry()
            .register_compressor("slowpoke_test", || Box::new(Slowpoke { delay_ms: 600 }));
        let mut g = Guard::new();
        g.set_options(
            &Options::new()
                .with("guard:compressor", "slowpoke_test")
                .with("guard:timeout_ms", 30u64),
        )
        .unwrap();
        let start = std::time::Instant::now();
        let err = g.compress(&input).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Timeout, "{err}");
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "caller waited for the hung worker: {:?}",
            start.elapsed()
        );
        // The guard re-armed a fresh child and still works.
        let stats = g.stats_metrics().results();
        assert_eq!(stats.get_as::<u64>("guard_stats:timeouts").unwrap(), Some(1));

        // With a fallback, the same request degrades and succeeds.
        g.set_options(&Options::new().with("guard:fallbacks", vec!["noop".to_string()]))
            .unwrap();
        let c = g.compress(&input).unwrap();
        assert_eq!(g.served_by(), Some("noop"));
        let mut out = Data::owned(DType::F64, vec![64]);
        g.decompress(&c, &mut out).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn retries_transient_errors_then_succeeds() {
        init();
        // A child that fails with Io twice, then works.
        pressio_core::registry().register_compressor("flaky_test", || {
            Box::new(Flaky {
                failures_left: std::sync::Arc::new(Mutex::new(2)),
            })
        });
        let input = field(64);
        let mut g = Guard::new();
        g.set_options(
            &Options::new()
                .with("guard:compressor", "flaky_test")
                .with("guard:max_retries", 3u32)
                .with("guard:backoff_ms", 1u64),
        )
        .unwrap();
        let c = g.compress(&input).unwrap();
        assert_eq!(g.served_by(), Some("flaky_test"));
        let stats = g.stats_metrics().results();
        assert_eq!(stats.get_as::<u64>("guard_stats:attempts").unwrap(), Some(3));
        assert_eq!(stats.get_as::<u64>("guard_stats:failures").unwrap(), Some(2));
        let mut out = Data::owned(DType::F64, vec![64]);
        g.decompress(&c, &mut out).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn terminal_errors_are_not_retried() {
        init();
        let input = Data::from_slice(&[1i32, 2, 3], vec![3]).unwrap();
        let mut g = Guard::new();
        g.set_options(
            &Options::new()
                .with("guard:compressor", "sz") // rejects integer dtypes
                .with("guard:max_retries", 5u32)
                .with("guard:backoff_ms", 1u64),
        )
        .unwrap();
        let err = g.compress(&input).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Unsupported);
        // One attempt, no retries: Unsupported is terminal.
        let stats = g.stats_metrics().results();
        assert_eq!(stats.get_as::<u64>("guard_stats:attempts").unwrap(), Some(1));
    }

    #[test]
    fn corrupting_child_triggers_fallback_chain_under_verify() {
        init();
        let input = field(512);
        let mut g = Guard::new();
        g.set_options(
            &Options::new()
                .with("guard:compressor", "fault_injector")
                .with("fault_injector:compressor", "sz")
                .with("sz:abs_err_bound", 1e-4f64)
                .with("fault_injector:mode", "truncate")
                .with("fault_injector:num_bits", 64u32)
                .with("guard:verify", 1u32)
                .with("guard:fallbacks", vec!["deflate".to_string(), "noop".to_string()]),
        )
        .unwrap();
        let c = g.compress(&input).unwrap();
        // The corrupting primary was rejected by verification; the first
        // healthy fallback served.
        assert_eq!(g.served_by(), Some("deflate"));
        assert_eq!(
            g.get_configuration().get_as::<String>("guard:served_by").unwrap(),
            Some("deflate".to_string())
        );
        let stats = g.stats_metrics().results();
        assert_eq!(
            stats.get_as::<u64>("guard_stats:fallback_served").unwrap(),
            Some(1)
        );
        // And a *fresh* guard decodes the frame by routing to deflate.
        let mut fresh = Guard::new();
        let mut out = Data::owned(DType::F64, vec![512]);
        fresh.decompress(&c, &mut out).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn exhausted_chain_reports_last_error() {
        init();
        let input = Data::from_slice(&[1i32, 2, 3], vec![3]).unwrap();
        let mut g = Guard::new();
        g.set_options(
            &Options::new()
                .with("guard:compressor", "sz")
                .with("guard:fallbacks", vec!["zfp_like_missing".to_string()]),
        )
        .unwrap_err(); // unknown fallback rejected at configuration time
        let mut g = Guard::new();
        g.set_options(
            &Options::new()
                .with("guard:compressor", "sz")
                .with("guard:fallbacks", vec!["fpzip".to_string()]),
        )
        .unwrap();
        // Integer input: sz and fpzip both refuse; chain exhausts cleanly.
        let err = g.compress(&input).unwrap_err();
        assert_eq!(err.plugin(), Some("guard"));
        let stats = g.stats_metrics().results();
        assert_eq!(stats.get_as::<u64>("guard_stats:exhausted").unwrap(), Some(1));
    }

    #[test]
    fn run_with_deadline_contains_panics() {
        // Generous deadline: the worker panics immediately, but under a
        // loaded test host its thread may take tens of ms to even start —
        // the deadline must not win that race.
        let r: Result<()> = run_with_deadline(5_000, "test", || panic!("boom"));
        assert_eq!(r.unwrap_err().code(), ErrorCode::Internal);
        let r = run_with_deadline(0, "test", || 41 + 1);
        assert_eq!(r.unwrap(), 42);
        let r: Result<u32> = run_with_deadline(10, "test", || {
            std::thread::sleep(Duration::from_millis(400));
            7
        });
        assert_eq!(r.unwrap_err().code(), ErrorCode::Timeout);
    }

    /// Test double: sleeps before answering.
    struct Slowpoke {
        delay_ms: u64,
    }

    impl Compressor for Slowpoke {
        fn name(&self) -> &str {
            "slowpoke_test"
        }
        fn version(&self) -> Version {
            Version::new(1, 0, 0)
        }
        fn get_options(&self) -> Options {
            Options::new()
        }
        fn set_options(&mut self, _: &Options) -> Result<()> {
            Ok(())
        }
        fn get_configuration(&self) -> Options {
            pressio_core::base_configuration(self)
        }
        fn compress(&mut self, input: &Data) -> Result<Data> {
            std::thread::sleep(Duration::from_millis(self.delay_ms));
            Ok(Data::from_bytes(input.as_bytes()))
        }
        fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
            std::thread::sleep(Duration::from_millis(self.delay_ms));
            output.as_bytes_mut().copy_from_slice(compressed.as_bytes());
            Ok(())
        }
        fn clone_compressor(&self) -> Box<dyn Compressor> {
            Box::new(Slowpoke {
                delay_ms: self.delay_ms,
            })
        }
    }

    /// Test double: returns transient Io errors a fixed number of times.
    struct Flaky {
        failures_left: std::sync::Arc<Mutex<u32>>,
    }

    impl Compressor for Flaky {
        fn name(&self) -> &str {
            "flaky_test"
        }
        fn version(&self) -> Version {
            Version::new(1, 0, 0)
        }
        fn get_options(&self) -> Options {
            Options::new()
        }
        fn set_options(&mut self, _: &Options) -> Result<()> {
            Ok(())
        }
        fn get_configuration(&self) -> Options {
            pressio_core::base_configuration(self)
        }
        fn compress(&mut self, input: &Data) -> Result<Data> {
            let mut left = self.failures_left.lock();
            if *left > 0 {
                *left -= 1;
                return Err(Error::new(ErrorCode::Io, "transient blip").in_plugin("flaky_test"));
            }
            let mut w = ByteWriter::with_capacity(input.size_in_bytes() + 64);
            w.put_dtype(input.dtype());
            w.put_dims(input.dims());
            w.put_bytes(input.as_bytes());
            Ok(Data::from_bytes(&w.into_vec()))
        }
        fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
            let mut r = ByteReader::new(compressed.as_bytes());
            let (dtype, dims) = r.get_geometry()?;
            let bytes = r.get_bytes(pressio_core::checked_geometry(dtype, &dims)?)?;
            output.shape_to(dtype, &dims)?;
            output.as_bytes_mut().copy_from_slice(bytes);
            Ok(())
        }
        fn clone_compressor(&self) -> Box<dyn Compressor> {
            Box::new(Flaky {
                failures_left: std::sync::Arc::clone(&self.failures_left),
            })
        }
    }
}
