//! `pressio serve`: a long-lived, admission-controlled compression daemon.
//!
//! The daemon listens on a Unix socket and/or TCP, speaks the
//! length-prefixed frame protocol of [`protocol`], and dispatches requests
//! to a pool of pre-configured named **profiles** — each a `guard`-wrapped
//! compressor stack armed once at startup and cloned per worker. The
//! robustness composition is the point (this is the first multi-request
//! concurrent composition of every safety layer in the tree):
//!
//! - **Admission control**: a bounded [`AdmissionQueue`] sheds load with a
//!   structured `Busy`/retry-after response instead of queueing
//!   unboundedly, so accepted-request latency stays bounded by
//!   `queue_capacity × worst-case service time`.
//! - **Per-request safety envelope**: every request runs under its own
//!   [`CancelToken`] (per-profile deadline + memory budget) on a watchdog
//!   worker via [`run_cancellable`], inside the profile's `guard` stack —
//!   a hung or panicking codec costs one structured error, never a wedged
//!   worker or an unwinding daemon.
//! - **Backpressure**: responses flow through a *bounded* per-connection
//!   write buffer. A slow reader fills it, which stalls the workers
//!   serving it (bounded patience), which fills the admission queue, which
//!   sheds — pressure propagates to the edge instead of accumulating as
//!   memory. A reader stalled past `slow_writer_give_up_ms` forfeits the
//!   response and the connection is poisoned and closed; a peer that
//!   half-writes a frame and goes silent is abandoned by the protocol
//!   layer's mid-frame stall deadline.
//! - **Bounded connections**: accepted connections are capped
//!   (`max_connections`); past the cap a new peer gets one structured
//!   `Busy` frame and is closed at accept, and finished connection
//!   threads are reaped on every accept instead of accumulating for the
//!   daemon's lifetime.
//! - **Graceful drain**: `SIGTERM` (CLI) or a `Shutdown` frame stops
//!   admission ([`DrainGate::begin_drain`]), finishes everything already
//!   admitted, and escalates to cooperative cancellation of in-flight
//!   tokens if the drain deadline passes. [`Server::shutdown`] joins every
//!   thread it spawned — force-closing the sockets of connections that do
//!   not wind down within a bounded grace period, so a stalled peer can
//!   never hang the drain — and reports whether it was clean. A `Shutdown`
//!   frame is only honored from the Unix socket unless
//!   `allow_remote_shutdown` is set: an unauthenticated TCP peer cannot
//!   terminate the daemon.
//! - **Observability**: a `Health` frame returns queue depth, shed counts,
//!   and per-profile p50/p99 latency; the same numbers flow through the
//!   trace layer as `serve:*` counters.

pub mod client;
pub mod protocol;

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use libpressio::core::cancel::CancelToken;
use libpressio::core::serve::{AdmissionQueue, DrainGate, InFlightPermit, ShedReason};
use libpressio::core::{registry, run_cancellable, spawn_service, trace, watchdog_stats};
use libpressio::{CompressorHandle, Data, Error, ErrorCode, Options, Result};

use protocol::{
    encode_response, read_request, FrameKind, RequestRead, Response, StreamedRequest,
    DEFAULT_MAX_BODY, MID_FRAME_STALL_MS,
};

/// Socket read timeout: how often idle readers re-check the drain flag.
const READ_POLL_MS: u64 = 50;
/// Socket write timeout: the longest a writer blocks on a stuffed peer
/// before the connection is declared dead.
const WRITE_TIMEOUT_MS: u64 = 500;
/// Acceptor poll interval while the listener has no pending connection.
const ACCEPT_POLL_MS: u64 = 10;
/// Re-poll interval while a bounded response send waits for buffer space.
const SEND_POLL_MS: u64 = 2;

/// One named compressor profile: what to arm, how to bound it.
#[derive(Debug, Clone)]
pub struct ProfileSpec {
    /// Wire name clients address (charset-validated like the protocol).
    pub name: String,
    /// Registry name of the child compressor the guard wraps.
    pub compressor: String,
    /// Options applied to the guard stack (child keys forwarded).
    pub options: Options,
    /// Per-request deadline; 0 uses the server default (never unbounded).
    pub deadline_ms: u64,
    /// Per-request memory budget in bytes; 0 = unlimited.
    pub memory_budget_bytes: u64,
}

impl ProfileSpec {
    /// Parse a CLI profile spec: `name=compressor[,key=value]*`.
    ///
    /// `deadline_ms` and `memory_budget_bytes` are profile-level keys;
    /// `fallbacks=a|b` becomes the guard's fallback chain; every other
    /// key is forwarded to the compressor stack (typed like `-O`:
    /// integer, then float, then string).
    pub fn parse(spec: &str) -> Result<ProfileSpec> {
        let (name, rest) = spec
            .split_once('=')
            .ok_or_else(|| Error::invalid_argument(format!("profile spec {spec:?}: expected name=compressor[,key=value]*")))?;
        protocol::validate_profile_name(name)
            .map_err(|e| Error::invalid_argument(format!("profile name {name:?}: {e}")))?;
        let mut parts = rest.split(',');
        let compressor = parts
            .next()
            .filter(|c| !c.is_empty())
            .ok_or_else(|| Error::invalid_argument(format!("profile {name:?}: missing compressor name")))?
            .to_string();
        let mut out = ProfileSpec {
            name: name.to_string(),
            compressor,
            options: Options::new(),
            deadline_ms: 0,
            memory_budget_bytes: 0,
        };
        for part in parts {
            let (k, v) = part.split_once('=').ok_or_else(|| {
                Error::invalid_argument(format!("profile {name:?}: expected key=value, got {part:?}"))
            })?;
            match k {
                "deadline_ms" => {
                    out.deadline_ms = v.parse::<u64>().map_err(|_| {
                        Error::invalid_argument(format!("profile {name:?}: bad deadline_ms {v:?}"))
                    })?;
                }
                "memory_budget_bytes" => {
                    out.memory_budget_bytes = v.parse::<u64>().map_err(|_| {
                        Error::invalid_argument(format!(
                            "profile {name:?}: bad memory_budget_bytes {v:?}"
                        ))
                    })?;
                }
                "fallbacks" => {
                    out.options
                        .set("guard:fallbacks", v.split('|').collect::<Vec<_>>().join(","));
                }
                _ => {
                    if let Ok(i) = v.parse::<i64>() {
                        out.options.set(k, i);
                    } else if let Ok(f) = v.parse::<f64>() {
                        out.options.set(k, f);
                    } else {
                        out.options.set(k, v);
                    }
                }
            }
        }
        Ok(out)
    }

    /// The default profile set armed when the CLI passes no `--profile`:
    /// a raw passthrough, a lossless stack, and the two lossy floats.
    pub fn defaults() -> Vec<ProfileSpec> {
        let plain = |name: &str, compressor: &str| ProfileSpec {
            name: name.to_string(),
            compressor: compressor.to_string(),
            options: Options::new(),
            deadline_ms: 0,
            memory_budget_bytes: 0,
        };
        let mut sz = plain("sz_abs_1e3", "sz");
        sz.options.set("sz:abs_err_bound", 1e-3);
        vec![
            plain("raw", "noop"),
            plain("lossless", "deflate"),
            sz,
            plain("zfp_default", "zfp"),
        ]
    }
}

/// Daemon tuning. Zero-valued fields resolve to defaults in
/// [`Server::start`].
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Named profiles to arm (empty → [`ProfileSpec::defaults`]).
    pub profiles: Vec<ProfileSpec>,
    /// Worker threads executing requests (0 → min(4, pool width)).
    pub workers: usize,
    /// Admission-queue bound (0 → 2 × workers).
    pub queue_capacity: usize,
    /// Unix socket path to bind.
    pub unix_path: Option<PathBuf>,
    /// TCP address to bind, e.g. `127.0.0.1:0`.
    pub tcp_addr: Option<String>,
    /// Graceful-drain deadline before escalating to cancellation (0 → 5000).
    pub drain_deadline_ms: u64,
    /// Per-connection frame-body cap (0 → [`DEFAULT_MAX_BODY`]).
    pub max_body: usize,
    /// Bounded write-buffer depth, in frames (0 → 8).
    pub write_buffer_frames: usize,
    /// Deadline for profiles that declare none (0 → 30_000); requests are
    /// never unbounded.
    pub default_deadline_ms: u64,
    /// Worker patience for a stuffed write buffer before the response is
    /// forfeited and the connection poisoned (0 → 2000).
    pub slow_writer_give_up_ms: u64,
    /// Cap on concurrently accepted connections; past it a new peer is
    /// answered with one `Busy` frame and closed at accept (0 → 256).
    pub max_connections: usize,
    /// Honor `Shutdown` frames arriving over TCP. Off by default: any
    /// peer that can reach the TCP listener could otherwise terminate the
    /// daemon; the Unix socket (filesystem-permissioned) always may.
    pub allow_remote_shutdown: bool,
}

/// What a connection's writer thread is handed to put on the socket.
enum Outgoing {
    /// A request's result, still in the [`Data`] the codec left it in: the
    /// writer sends it beside its 25 bytes of header and length in one
    /// vectored write, so the result is never copied into a frame.
    Result { request_id: u64, payload: Data },
    /// Everything else — errors, busy, health, acks: small, encoded up front.
    Frame(Vec<u8>),
}

/// A connection's response path: the bounded write buffer plus the poison
/// flag that condemns the whole connection. Cloned into every [`Request`]
/// admitted from that connection.
#[derive(Clone)]
struct ConnTx {
    tx: SyncSender<Outgoing>,
    /// Set when the connection is condemned — a slow-writer give-up or a
    /// write failure. The writer thread closes the stream on sight and the
    /// reader stops consuming, honoring the documented contract that a
    /// forfeited response ends the connection rather than leaving the
    /// client blocked on a request that will never be answered.
    poisoned: Arc<AtomicBool>,
}

/// What a request needs once admitted: everything owned, plus the permit
/// proving it counts as in-flight. Dropping a `Request` (shed after
/// admission, cleared at hard shutdown) retires the permit.
struct Request {
    /// Server-unique id, key into the active-token table.
    serial: u64,
    /// Client correlation id, echoed in the response frame.
    client_id: u64,
    kind: FrameKind,
    /// Profile, geometry and the payload where the reader landed it.
    body: StreamedRequest,
    /// The originating connection's response path.
    conn: ConnTx,
    permit: InFlightPermit,
    /// Trace-clock ns at admission, for end-to-end latency accounting.
    enqueue_ns: u64,
}

/// Per-profile accounting for the health frame.
struct ProfileStats {
    requests: u64,
    ok: u64,
    errors: u64,
    timeouts: u64,
    cancelled: u64,
    /// Latency ring (ms, end-to-end from admission), capacity 4096.
    samples: Vec<f64>,
    next: usize,
}

impl ProfileStats {
    fn new() -> ProfileStats {
        ProfileStats {
            requests: 0,
            ok: 0,
            errors: 0,
            timeouts: 0,
            cancelled: 0,
            samples: Vec::new(),
            next: 0,
        }
    }

    fn record(&mut self, failure: Option<ErrorCode>, latency_ms: f64) {
        self.requests += 1;
        match failure {
            None => self.ok += 1,
            Some(code) => {
                self.errors += 1;
                match code {
                    ErrorCode::Timeout => self.timeouts += 1,
                    ErrorCode::Cancelled => self.cancelled += 1,
                    _ => {}
                }
            }
        }
        const RING: usize = 4096;
        if self.samples.len() < RING {
            self.samples.push(latency_ms);
        } else {
            self.samples[self.next] = latency_ms;
        }
        self.next = (self.next + 1) % RING;
    }
}

/// `q`-th percentile (0..=100) of a sample set, by sorted copy.
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Cross-thread daemon state.
struct Shared {
    queue: AdmissionQueue<Request>,
    gate: Arc<DrainGate>,
    /// Pristine per-profile guard stacks, cloned by workers.
    templates: Mutex<HashMap<String, CompressorHandle>>,
    /// Resolved per-profile bounds.
    bounds: HashMap<String, (u64, u64)>,
    /// Tokens of requests currently executing, for drain escalation.
    active: Mutex<HashMap<u64, CancelToken>>,
    per_profile: Mutex<BTreeMap<String, ProfileStats>>,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    serial: AtomicU64,
    busy_responses: AtomicU64,
    malformed: AtomicU64,
    slow_drops: AtomicU64,
    connections: AtomicU64,
    /// Live connections: reaped on every accept, force-closed at drain.
    conns: Mutex<Vec<ConnSlot>>,
    max_body: usize,
    write_buffer_frames: usize,
    slow_writer_give_up_ms: u64,
    max_connections: usize,
    allow_remote_shutdown: bool,
}

/// One accepted connection's threads plus a stream clone kept solely so
/// shutdown can force-close a peer that will not wind down on its own.
struct ConnSlot {
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
    stream: Stream,
}

/// Join and drop every connection whose threads have both finished, so a
/// long-lived daemon's thread table tracks *live* connections instead of
/// every connection ever accepted.
fn reap_finished(conns: &mut Vec<ConnSlot>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].reader.is_finished() && conns[i].writer.is_finished() {
            let slot = conns.swap_remove(i);
            let _ = slot.reader.join();
            let _ = slot.writer.join();
        } else {
            i += 1;
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Either kind of connected socket, from either end: the daemon's accepted
/// connections and the [`client`]'s.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl Stream {
    fn configure(&self) -> std::io::Result<()> {
        let read = Some(Duration::from_millis(READ_POLL_MS));
        let write = Some(Duration::from_millis(WRITE_TIMEOUT_MS));
        match self {
            Stream::Tcp(s) => {
                s.set_nodelay(true)?;
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
            Stream::Unix(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    // The default writes only the first buffer: a frame's header would
    // leave alone, under `nodelay` in a TCP segment of its own.
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// How a completed [`Server::shutdown`] went.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Did every in-flight request finish inside the drain deadline
    /// without escalation?
    pub drained_clean: bool,
    /// In-flight tokens cooperatively cancelled after the deadline.
    pub cancelled_inflight: usize,
    /// Admitted-but-undispatched requests answered `Busy` at hard cutoff.
    pub cleared_queued: usize,
    /// Requests in flight after escalation (0 on any sane run).
    pub stuck_inflight: usize,
    /// Watchdog pool `(spawned, idle)` after the drain settled; equal
    /// numbers mean no leaked deadline workers.
    pub watchdog: (usize, usize),
    /// Total `Busy` responses served over the daemon's lifetime.
    pub busy_responses: u64,
    /// Final queue counters.
    pub queue: libpressio::core::QueueStats,
}

/// A running daemon: listeners, workers, and connection threads.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    tcp_local: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    drain_deadline_ms: u64,
}

impl Server {
    /// Arm the profiles, bind the listeners, and start the daemon.
    pub fn start(cfg: ServeConfig) -> Result<Server> {
        libpressio::init();
        let workers = if cfg.workers == 0 {
            libpressio::core::available_threads().min(4)
        } else {
            cfg.workers
        };
        let queue_capacity = if cfg.queue_capacity == 0 {
            workers * 2
        } else {
            cfg.queue_capacity
        };
        let default_deadline_ms = if cfg.default_deadline_ms == 0 {
            30_000
        } else {
            cfg.default_deadline_ms
        };
        let specs = if cfg.profiles.is_empty() {
            ProfileSpec::defaults()
        } else {
            cfg.profiles.clone()
        };

        // Arm every profile eagerly: bad names or options fail startup,
        // not the first request.
        let mut templates = HashMap::new();
        let mut bounds = HashMap::new();
        for spec in &specs {
            protocol::validate_profile_name(&spec.name)
                .map_err(|e| Error::invalid_argument(format!("profile {:?}: {e}", spec.name)))?;
            let mut handle = registry().compressor("guard")?;
            let mut opts = Options::new();
            opts.set("guard:compressor", spec.compressor.as_str());
            opts.merge(&spec.options);
            // The serve layer owns the deadline through the request token;
            // the guard still enforces an explicit per-profile
            // guard:timeout_ms if the spec set one.
            handle.set_options(&opts).map_err(|e| {
                Error::invalid_argument(format!("profile {:?}: {e}", spec.name))
            })?;
            let deadline = if spec.deadline_ms == 0 {
                default_deadline_ms
            } else {
                spec.deadline_ms
            };
            templates.insert(spec.name.clone(), handle);
            bounds.insert(spec.name.clone(), (deadline, spec.memory_budget_bytes));
        }

        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(queue_capacity),
            gate: Arc::new(DrainGate::new()),
            templates: Mutex::new(templates),
            bounds,
            active: Mutex::new(HashMap::new()),
            per_profile: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            serial: AtomicU64::new(1),
            busy_responses: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            slow_drops: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            max_body: if cfg.max_body == 0 {
                DEFAULT_MAX_BODY
            } else {
                cfg.max_body
            },
            write_buffer_frames: if cfg.write_buffer_frames == 0 {
                8
            } else {
                cfg.write_buffer_frames
            },
            slow_writer_give_up_ms: if cfg.slow_writer_give_up_ms == 0 {
                2_000
            } else {
                cfg.slow_writer_give_up_ms
            },
            max_connections: if cfg.max_connections == 0 {
                256
            } else {
                cfg.max_connections
            },
            allow_remote_shutdown: cfg.allow_remote_shutdown,
        });

        let mut threads = Vec::new();
        let mut tcp_local = None;
        let mut unix_path = None;

        if let Some(addr) = &cfg.tcp_addr {
            let listener = TcpListener::bind(addr.as_str())
                .map_err(|e| Error::new(ErrorCode::Io, format!("bind {addr}: {e}")))?;
            tcp_local = listener.local_addr().ok();
            listener
                .set_nonblocking(true)
                .map_err(|e| Error::new(ErrorCode::Io, e.to_string()))?;
            let sh = Arc::clone(&shared);
            threads.push(spawn_service("serve-accept-tcp", move || {
                acceptor_loop(sh, Listener::Tcp(listener));
            })?);
        }
        if let Some(path) = &cfg.unix_path {
            // A stale socket file from a crashed daemon blocks bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)
                .map_err(|e| Error::new(ErrorCode::Io, format!("bind {}: {e}", path.display())))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| Error::new(ErrorCode::Io, e.to_string()))?;
            unix_path = Some(path.clone());
            let sh = Arc::clone(&shared);
            threads.push(spawn_service("serve-accept-unix", move || {
                acceptor_loop(sh, Listener::Unix(listener));
            })?);
        }
        if tcp_local.is_none() && unix_path.is_none() {
            return Err(Error::invalid_argument(
                "serve needs at least one listener (tcp_addr or unix_path)",
            ));
        }

        for i in 0..workers {
            let sh = Arc::clone(&shared);
            threads.push(spawn_service(&format!("serve-worker-{i}"), move || {
                worker_loop(sh);
            })?);
        }

        Ok(Server {
            shared,
            threads,
            tcp_local,
            unix_path,
            drain_deadline_ms: if cfg.drain_deadline_ms == 0 {
                5_000
            } else {
                cfg.drain_deadline_ms
            },
        })
    }

    /// The bound TCP address (useful with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_local
    }

    /// The bound Unix socket path.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Did a client send a `Shutdown` frame?
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Relaxed)
    }

    /// The health document, identical to the `Health` frame's body.
    pub fn health_json(&self) -> String {
        health_json(&self.shared)
    }

    /// Graceful drain: stop admission, finish what was admitted, escalate
    /// to cooperative cancellation at the drain deadline, join every
    /// thread, and report.
    pub fn shutdown(self) -> DrainReport {
        let sh = &self.shared;
        sh.draining.store(true, Ordering::SeqCst);
        sh.gate.begin_drain();
        // Already-admitted requests are still served; new ones shed Closed.
        sh.queue.close();

        let drained_clean = sh.gate.wait_idle_ms(self.drain_deadline_ms);
        let mut cancelled_inflight = 0;
        let mut cleared_queued = 0;
        if !drained_clean {
            // Escalation: trip every in-flight token (their watchdogs
            // return Timeout/Cancelled structurally) and answer queued
            // requests that never started with a shutdown Busy.
            for token in sh.active.lock().unwrap_or_else(|p| p.into_inner()).values() {
                token.cancel();
                cancelled_inflight += 1;
            }
            for req in sh.queue.close_and_clear() {
                respond_busy(sh, &req.conn, req.client_id, 0, "daemon shutting down");
                cleared_queued += 1;
                drop(req); // retires the permit
            }
            sh.gate.wait_idle_ms(self.drain_deadline_ms);
        }
        let stuck_inflight = sh.gate.inflight();

        // Workers exit when the closed queue empties; acceptors poll the
        // drain flag; readers see it at the next idle tick; writers exit
        // when every sender is gone.
        for t in self.threads {
            let _ = t.join();
        }
        // Connection threads get a bounded grace window to wind down (an
        // idle reader notices the drain flag within one read-timeout
        // tick); whoever is left — a peer mid-frame, a stuffed writer —
        // has its socket force-closed so the joins below cannot hang on a
        // half-written frame.
        let grace_deadline = trace::monotonic_ns().saturating_add(500_000_000);
        loop {
            let all_done = {
                let mut conns = lock_ignore(&sh.conns);
                reap_finished(&mut conns);
                conns.is_empty()
            };
            if all_done || trace::monotonic_ns() >= grace_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(SEND_POLL_MS.min(5)));
        }
        let leftovers: Vec<ConnSlot> = lock_ignore(&sh.conns).drain(..).collect();
        for slot in &leftovers {
            slot.stream.shutdown();
        }
        for slot in leftovers {
            let _ = slot.reader.join();
            let _ = slot.writer.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }

        // The watchdog pool drains asynchronously (cancelled work stops at
        // its next checkpoint); wait boundedly for spawned == idle.
        let wd_deadline = trace::monotonic_ns().saturating_add(2_000_000_000);
        let mut watchdog = watchdog_stats();
        while watchdog.0 != watchdog.1 && trace::monotonic_ns() < wd_deadline {
            std::thread::sleep(Duration::from_millis(SEND_POLL_MS.min(5)));
            watchdog = watchdog_stats();
        }

        DrainReport {
            drained_clean,
            cancelled_inflight,
            cleared_queued,
            stuck_inflight,
            watchdog,
            busy_responses: sh.busy_responses.load(Ordering::Relaxed),
            queue: sh.queue.stats(),
        }
    }
}

fn lock_ignore<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn acceptor_loop(shared: Arc<Shared>, listener: Listener) {
    // TCP peers are "remote" for the Shutdown-frame policy; the Unix
    // socket is local (its reach is bounded by filesystem permissions).
    let remote = matches!(listener, Listener::Tcp(_));
    loop {
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                if spawn_connection(&shared, stream, remote).is_err() {
                    trace::count("serve:conn_spawn_failed", 1);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS.min(50)));
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS.min(50)));
            }
        }
    }
}

fn spawn_connection(shared: &Arc<Shared>, stream: Stream, remote: bool) -> Result<()> {
    stream
        .configure()
        .map_err(|e| Error::new(ErrorCode::Io, e.to_string()))?;
    // Reap finished connections on every accept, then enforce the cap —
    // both are what keep a long-lived daemon's thread table bounded by
    // *live* connections. The slight overshoot two racing acceptors can
    // cause is harmless; the Busy write below happens outside the lock so
    // a slow rejected peer cannot stall accepts.
    let live = {
        let mut conns = lock_ignore(&shared.conns);
        reap_finished(&mut conns);
        conns.len()
    };
    if live >= shared.max_connections {
        shared.busy_responses.fetch_add(1, Ordering::Relaxed);
        trace::count("serve:conn_rejected", 1);
        let busy = Response::Busy {
            retry_after_ms: 100,
            depth: live as u32,
            message: format!("connection limit ({}) reached", shared.max_connections),
        };
        let mut stream = stream;
        let _ = protocol::write_response(&mut stream, 0, &busy);
        stream.shutdown();
        return Ok(());
    }
    let writer_stream = stream
        .try_clone()
        .map_err(|e| Error::new(ErrorCode::Io, e.to_string()))?;
    let shutdown_stream = stream
        .try_clone()
        .map_err(|e| Error::new(ErrorCode::Io, e.to_string()))?;
    shared.connections.fetch_add(1, Ordering::Relaxed);
    trace::count("serve:connections", 1);
    let (tx, rx) = sync_channel::<Outgoing>(shared.write_buffer_frames);
    let conn = ConnTx {
        tx,
        poisoned: Arc::new(AtomicBool::new(false)),
    };

    let sh = Arc::clone(shared);
    let poisoned_w = Arc::clone(&conn.poisoned);
    let writer = spawn_service("serve-conn-writer", move || {
        writer_loop(sh, writer_stream, rx, poisoned_w);
    })?;
    let sh = Arc::clone(shared);
    let reader = spawn_service("serve-conn-reader", move || {
        reader_loop(sh, stream, conn, remote);
    })?;
    lock_ignore(&shared.conns).push(ConnSlot {
        reader,
        writer,
        stream: shutdown_stream,
    });
    Ok(())
}

fn writer_loop(
    _shared: Arc<Shared>,
    mut stream: Stream,
    rx: Receiver<Outgoing>,
    poisoned: Arc<AtomicBool>,
) {
    loop {
        match rx.recv_timeout(Duration::from_millis(READ_POLL_MS)) {
            Ok(outgoing) => {
                if poisoned.load(Ordering::Relaxed) {
                    break;
                }
                let written = match &outgoing {
                    Outgoing::Result {
                        request_id,
                        payload,
                    } => protocol::write_ok(&mut stream, *request_id, payload.as_bytes()),
                    Outgoing::Frame(frame) => protocol::write_frame(&mut stream, frame),
                };
                if written.is_err() {
                    // Stuffed or dead peer past the write timeout: the
                    // connection is over; readers see the poison flag.
                    poisoned.store(true, Ordering::SeqCst);
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if poisoned.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    stream.shutdown();
}

/// Bounded-patience send into a connection's write buffer. Blocks while
/// the buffer is full (this is the backpressure path: the worker stalls,
/// the queue fills, admission sheds) but gives up after
/// `slow_writer_give_up_ms` — and a give-up *poisons the connection*: the
/// writer closes the stream, so the client sees a closed socket instead
/// of silently waiting forever on a request id that was forfeited.
fn bounded_send(shared: &Shared, conn: &ConnTx, mut outgoing: Outgoing) -> bool {
    let deadline = trace::monotonic_ns()
        .saturating_add(shared.slow_writer_give_up_ms.saturating_mul(1_000_000));
    loop {
        if conn.poisoned.load(Ordering::Relaxed) {
            return false;
        }
        match conn.tx.try_send(outgoing) {
            Ok(()) => return true,
            Err(TrySendError::Full(back)) => {
                if trace::monotonic_ns() >= deadline {
                    shared.slow_drops.fetch_add(1, Ordering::Relaxed);
                    trace::count("serve:slow_reader_drop", 1);
                    conn.poisoned.store(true, Ordering::SeqCst);
                    return false;
                }
                outgoing = back;
                std::thread::sleep(Duration::from_millis(SEND_POLL_MS.min(5)));
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
    }
}

fn respond_busy(shared: &Shared, conn: &ConnTx, client_id: u64, depth: usize, msg: &str) {
    shared.busy_responses.fetch_add(1, Ordering::Relaxed);
    trace::count("serve:busy", 1);
    // Retry hint grows with the backlog the shed request saw.
    let retry_after_ms = (5 + 2 * depth as u32).clamp(5, 250);
    let busy = Response::Busy {
        retry_after_ms,
        depth: depth as u32,
        message: msg.to_string(),
    };
    let _ = send_response(shared, conn, client_id, &busy);
}

/// Queue a small response, encoded here; `false` when the connection is
/// gone or condemned.
fn send_response(shared: &Shared, conn: &ConnTx, client_id: u64, response: &Response) -> bool {
    bounded_send(shared, conn, Outgoing::Frame(encode_response(client_id, response)))
}

fn send_error(shared: &Shared, conn: &ConnTx, client_id: u64, code: ErrorCode, message: String) -> bool {
    send_response(shared, conn, client_id, &Response::Error { code, message })
}

fn reader_loop(shared: Arc<Shared>, mut stream: Stream, conn: ConnTx, remote: bool) {
    loop {
        if conn.poisoned.load(Ordering::Relaxed) {
            break;
        }
        let keep_open = match read_request(&mut stream, shared.max_body, MID_FRAME_STALL_MS) {
            Ok(RequestRead::Idle) => !shared.draining.load(Ordering::Relaxed),
            Ok(RequestRead::Eof) => false,
            Ok(RequestRead::Data(header, body)) => admit(&shared, &conn, header, body),
            Ok(RequestRead::Bodyless(header)) => control(&shared, &conn, header, remote),
            Ok(RequestRead::Rejected(header, e)) => {
                // The frame boundary itself was sound (header validated,
                // body consumed to its end), so a garbage *body* is
                // answerable in-protocol without losing sync.
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                trace::count("serve:malformed", 1);
                send_error(&shared, &conn, header.request_id, e.code(), e.to_string())
            }
            Err(e) => {
                if e.code() == ErrorCode::CorruptStream {
                    // Malformed framing (including a mid-frame stall):
                    // answer structurally, then close — we cannot trust the
                    // byte stream to be in sync anymore.
                    shared.malformed.fetch_add(1, Ordering::Relaxed);
                    trace::count("serve:malformed", 1);
                    let _ = send_error(&shared, &conn, 0, e.code(), e.to_string());
                }
                false
            }
        };
        if !keep_open {
            break;
        }
    }
    // Dropping the ConnTx lets the writer drain pending responses and exit.
}

/// Answer a health or shutdown request; `false` closes the connection.
fn control(shared: &Arc<Shared>, conn: &ConnTx, header: protocol::FrameHeader, remote: bool) -> bool {
    if header.kind == FrameKind::Health {
        return send_response(shared, conn, header.request_id, &Response::Health(health_json(shared)));
    }
    if remote && !shared.allow_remote_shutdown {
        trace::count("serve:shutdown_refused", 1);
        return send_error(
            shared,
            conn,
            header.request_id,
            ErrorCode::Unsupported,
            "shutdown over TCP is disabled; use the unix socket or start the daemon with \
             --allow-remote-shutdown"
                .to_string(),
        );
    }
    shared.shutdown_requested.store(true, Ordering::SeqCst);
    trace::count("serve:shutdown_requested", 1);
    let _ = send_response(shared, conn, header.request_id, &Response::Ok(Vec::new()));
    true
}

/// Admit a data request to the queue or shed it; `false` closes the
/// connection.
fn admit(
    shared: &Arc<Shared>,
    conn: &ConnTx,
    header: protocol::FrameHeader,
    body: StreamedRequest,
) -> bool {
    if !shared.bounds.contains_key(&body.profile) {
        return send_error(
            shared,
            conn,
            header.request_id,
            ErrorCode::NotFound,
            format!("no profile named {:?}", body.profile),
        );
    }
    let Some(permit) = shared.gate.admit() else {
        respond_busy(shared, conn, header.request_id, 0, "draining: not accepting new requests");
        return true;
    };
    let request = Request {
        serial: shared.serial.fetch_add(1, Ordering::Relaxed),
        client_id: header.request_id,
        kind: header.kind,
        body,
        conn: conn.clone(),
        permit,
        enqueue_ns: trace::monotonic_ns(),
    };
    if let Err((request, reason)) = shared.queue.try_submit(request) {
        let depth = shared.queue.depth();
        let msg = match reason {
            ShedReason::Full => "admission queue full",
            ShedReason::Closed => "draining: not accepting new requests",
        };
        respond_busy(shared, &request.conn, request.client_id, depth, msg);
        drop(request); // permit retires here, never executed
    }
    true
}

fn worker_loop(shared: Arc<Shared>) {
    // Each worker owns private clones of the profile stacks, pre-armed so
    // the first request pays no arming latency.
    let mut handles: HashMap<String, CompressorHandle> = {
        let templates = lock_ignore(&shared.templates);
        templates
            .iter()
            .map(|(name, h)| (name.clone(), h.clone()))
            .collect()
    };
    while let Some(request) = shared.queue.pop() {
        process_request(&shared, &mut handles, request);
    }
}

/// Run one request on a worker's stack. The input is the `Data` the reader
/// filled; a decompress output is allocated once, here, under the request's
/// token (checked, charged, fallible), and the guard decodes into it.
fn execute(handle: &mut CompressorHandle, kind: FrameKind, body: StreamedRequest) -> Result<Data> {
    match kind {
        FrameKind::Compress => handle.compress(&body.payload),
        FrameKind::Decompress => {
            let mut out = Data::alloc_output(body.dtype, body.dims)?;
            handle.decompress(&body.payload, &mut out)?;
            Ok(out)
        }
        _ => Err(Error::internal("non-request frame reached a worker")),
    }
}

fn process_request(
    shared: &Arc<Shared>,
    handles: &mut HashMap<String, CompressorHandle>,
    request: Request,
) {
    let Request {
        serial,
        client_id,
        kind,
        body,
        conn,
        permit,
        enqueue_ns,
    } = request;
    let profile = body.profile.clone();

    let (deadline_ms, budget_bytes) = shared
        .bounds
        .get(&profile)
        .copied()
        .unwrap_or((30_000, 0));
    let token = CancelToken::new();
    token.set_deadline_ms(deadline_ms.max(1));
    if budget_bytes > 0 {
        token.set_memory_budget(budget_bytes);
    }
    #[cfg(feature = "chaos")]
    libpressio::core::chaos::service_point(&token);

    lock_ignore(&shared.active).insert(serial, token.clone());

    // Arm this worker's stack (lazily re-armed after a detached timeout
    // lost the previous instance to its watchdog worker).
    let armed = handles.remove(&profile).or_else(|| {
        let templates = lock_ignore(&shared.templates);
        templates.get(&profile).cloned()
    });

    let outcome = match armed {
        None => Err(Error::not_found(format!("no profile named {profile:?}"))),
        Some(mut handle) => run_cancellable(&token, "serve:request", move || {
            let _span = trace::span_labeled("serve:request", || body.profile.clone());
            let r = execute(&mut handle, kind, body);
            (handle, r)
        })
        .map(|(handle, r)| {
            handles.insert(profile.clone(), handle);
            r
        })
        .and_then(|r| r),
    };

    lock_ignore(&shared.active).remove(&serial);

    let outcome = outcome.and_then(|result| {
        // Never build a frame whose length field would truncate: a result
        // past the wire's u32 body limit becomes a structured error.
        if result.size_in_bytes() > protocol::MAX_WIRE_BODY - 64 {
            return Err(Error::unsupported(format!(
                "result of {} bytes exceeds the wire frame limit",
                result.size_in_bytes()
            )));
        }
        Ok(result)
    });
    let latency_ms =
        (trace::monotonic_ns().saturating_sub(enqueue_ns)) as f64 / 1_000_000.0;
    {
        let mut per_profile = lock_ignore(&shared.per_profile);
        per_profile
            .entry(profile)
            .or_insert_with(ProfileStats::new)
            .record(outcome.as_ref().err().map(Error::code), latency_ms);
    }
    trace::count("serve:served", 1);

    #[cfg(feature = "chaos")]
    libpressio::core::chaos::service_point(&token);

    // A give-up here poisons the connection (see bounded_send): the client
    // is never left alive-but-unanswered on a forfeited response.
    let _ = match outcome {
        Ok(payload) => bounded_send(
            shared,
            &conn,
            Outgoing::Result {
                request_id: client_id,
                payload,
            },
        ),
        Err(e) => send_error(shared, &conn, client_id, e.code(), e.to_string()),
    };
    drop(permit);
}

fn health_json(shared: &Arc<Shared>) -> String {
    let q = shared.queue.stats();
    let (wd_spawned, wd_idle) = watchdog_stats();
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":\"pressio-serve/health-v1\"");
    out.push_str(&format!(
        ",\"queue\":{{\"depth\":{},\"capacity\":{},\"accepted\":{},\"shed\":{},\"popped\":{},\"closed\":{}}}",
        q.depth, q.capacity, q.accepted, q.shed, q.popped, q.closed
    ));
    out.push_str(&format!(
        ",\"inflight\":{},\"draining\":{},\"connections\":{},\"busy_responses\":{},\"malformed\":{},\"slow_reader_drops\":{}",
        shared.gate.inflight(),
        shared.draining.load(Ordering::Relaxed),
        shared.connections.load(Ordering::Relaxed),
        shared.busy_responses.load(Ordering::Relaxed),
        shared.malformed.load(Ordering::Relaxed),
        shared.slow_drops.load(Ordering::Relaxed),
    ));
    out.push_str(&format!(
        ",\"watchdog\":{{\"spawned\":{wd_spawned},\"idle\":{wd_idle}}}"
    ));
    out.push_str(",\"profiles\":{");
    {
        let per_profile = lock_ignore(&shared.per_profile);
        let mut first = true;
        for (name, st) in per_profile.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{name}\":{{\"requests\":{},\"ok\":{},\"errors\":{},\"timeouts\":{},\"cancelled\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3}}}",
                st.requests,
                st.ok,
                st.errors,
                st.timeouts,
                st.cancelled,
                percentile(&st.samples, 50.0),
                percentile(&st.samples, 99.0),
            ));
        }
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_spec_parses() {
        let p = ProfileSpec::parse(
            "fast=sz,sz:abs_err_bound=0.001,deadline_ms=250,memory_budget_bytes=1048576,fallbacks=deflate|noop",
        )
        .expect("valid spec");
        assert_eq!(p.name, "fast");
        assert_eq!(p.compressor, "sz");
        assert_eq!(p.deadline_ms, 250);
        assert_eq!(p.memory_budget_bytes, 1_048_576);
        assert_eq!(
            p.options.get_as::<f64>("sz:abs_err_bound").unwrap(),
            Some(0.001)
        );
        assert_eq!(
            p.options.get_as::<String>("guard:fallbacks").unwrap(),
            Some("deflate,noop".to_string())
        );
        assert!(ProfileSpec::parse("bad profile=sz").is_err());
        assert!(ProfileSpec::parse("nameonly").is_err());
        assert!(ProfileSpec::parse("p=").is_err());
    }

    #[test]
    fn percentile_is_sane() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 50.0), 51.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
