//! Shared execution engine: a lazily-initialized, globally shared thread
//! pool with work-stealing deques, plus per-worker reusable scratch arenas.
//!
//! Plugins and codecs submit *chunk tasks* through [`par_map_indexed`] /
//! [`par_chunks`] instead of spawning their own threads. This gives every
//! parallel stage in the workspace one shared, bounded set of workers (the
//! paper's embeddable in-process execution model — Section V — without each
//! plugin paying thread spawn/teardown per call), uniform panic isolation
//! (a panicking chunk surfaces as a structured [`Error`], reusing the
//! watchdog discipline of the `guard` meta-compressor), and a natural home
//! for thread-local scratch buffers that remove hot-path allocations.
//!
//! Design notes:
//!
//! * **Work stealing.** Each worker owns a deque; submitted tasks are
//!   distributed round-robin. A worker pops its own deque from the back
//!   (LIFO, cache-warm) and steals from other deques or the shared injector
//!   from the front (FIFO, oldest first).
//! * **Helping.** The submitting thread does not sleep while a job runs: it
//!   executes queued tasks itself until its job completes. This both uses
//!   the caller's core and makes *nested* parallelism deadlock-free — a
//!   task that itself calls [`par_map_indexed`] drains queues while it
//!   waits, so progress is always possible even on a single-worker pool.
//! * **Determinism.** Chunk *splitting* ([`chunk_ranges`]) depends only on
//!   the requested piece count, never on the machine's core count, so
//!   streams produced by chunk-parallel plugins are byte-stable across
//!   hosts; the pool size only bounds how many chunks run concurrently.
//! * **Cancellation.** Every job snapshots the submitting thread's ambient
//!   [`crate::cancel::CancelToken`] and re-installs it on whichever worker
//!   picks a chunk up, so `checkpoint()` polls inside codec loops follow
//!   work across the pool (including stolen tasks). A tripped token makes
//!   remaining chunks *skip* at the chunk boundary instead of running.
//! * **Deadlines.** [`run_cancellable`] / [`run_deadlined`] execute a
//!   closure on a reusable watchdog worker and stop *waiting* at the
//!   token's deadline — tripping the token so the in-flight work also
//!   stops cooperatively at its next checkpoint. No thread is ever
//!   detached: the worker re-registers as idle once the work unwinds.
//! * **Self-healing.** Worker iterations run under `catch_unwind`; a panic
//!   between tasks (only injected chaos faults can cause one) is counted
//!   as `exec:worker_replaced` and the worker keeps serving the queues.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use crate::sync::{Condvar, Mutex, MutexGuard, OnceLock};

use crate::error::{Error, Result};

/// An erased chunk task queued on the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Upper bound on pool workers regardless of reported core count.
const MAX_WORKERS: usize = 16;

/// How long a helper/worker waits on its condvar before re-checking the
/// queues (bounded; re-polling is cheap and keeps the design simple).
const POLL_MS: u64 = 2;

struct Shared {
    /// Global FIFO injector, also stolen from by workers.
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Signaled whenever new tasks are queued.
    work_available: Condvar,
    /// Paired with [`Shared::work_available`]; counts queued-task batches.
    work_seq: Mutex<u64>,
    /// Round-robin cursor for task distribution.
    rr: Mutex<usize>,
}

/// Lock a std mutex, ignoring poisoning: queue state is a plain `VecDeque`
/// and every task runs under `catch_unwind`, so a poisoned lock only means
/// some unrelated task panicked — the data itself is still consistent.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    fn pop_any(&self, home: usize) -> Option<Task> {
        // Own deque back first (LIFO), then the injector, then steal.
        if home < self.locals.len() {
            if let Some(t) = lock_ignore_poison(&self.locals[home]).pop_back() {
                return Some(t);
            }
        }
        if let Some(t) = lock_ignore_poison(&self.injector).pop_front() {
            crate::trace::count("exec:injector_pop", 1);
            return Some(t);
        }
        for (i, q) in self.locals.iter().enumerate() {
            if i == home {
                continue;
            }
            if let Some(t) = lock_ignore_poison(q).pop_front() {
                crate::trace::count("exec:steal", 1);
                return Some(t);
            }
        }
        None
    }

    fn submit(&self, tasks: Vec<Task>) {
        crate::trace::count("exec:queued", tasks.len() as u64);
        {
            let mut rr = lock_ignore_poison(&self.rr);
            for t in tasks {
                if self.locals.is_empty() {
                    lock_ignore_poison(&self.injector).push_back(t);
                } else {
                    lock_ignore_poison(&self.locals[*rr % self.locals.len()]).push_back(t);
                    *rr = rr.wrapping_add(1);
                }
            }
        }
        *lock_ignore_poison(&self.work_seq) += 1;
        self.work_available.notify_all();
    }
}

/// One scheduling iteration of a pool worker: run one task, or wait
/// (bounded) for work. Factored out of [`worker_loop`] so the panic
/// containment wrapping it covers exactly one iteration.
fn worker_iteration(shared: &Shared, home: usize) {
    // Chaos faults are injected here, *between* tasks, where no task is
    // held — a panic at this point can never orphan a queued chunk.
    #[cfg(feature = "chaos")]
    crate::chaos::scheduling_point();
    match shared.pop_any(home) {
        Some(task) => task(),
        None => {
            let guard = lock_ignore_poison(&shared.work_seq);
            // Bounded wait, then re-poll; a lost wakeup costs POLL_MS.
            let _ = shared
                .work_available
                .wait_timeout(guard, std::time::Duration::from_millis(POLL_MS));
        }
    }
}

fn worker_loop(shared: &'static Shared, home: usize) {
    loop {
        // Self-heal: job tasks never unwind (run_one catches), so a panic
        // here means the scheduling machinery itself was made to panic
        // (chaos worker faults). Swallow it and keep serving — the worker
        // "replaces itself" without losing its deque.
        if catch_unwind(AssertUnwindSafe(|| worker_iteration(shared, home))).is_err() {
            crate::trace::count("exec:worker_replaced", 1);
        }
    }
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<&'static Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let workers = pool_width();
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            work_available: Condvar::new(),
            work_seq: Mutex::new(0),
            rr: Mutex::new(0),
        }));
        for i in 0..workers {
            let builder = std::thread::Builder::new().name(format!("pressio-exec-{i}"));
            // Spawn failure is tolerable: remaining workers plus the
            // submitting thread (which helps) still drain every queue.
            let _ = builder.spawn(move || worker_loop(shared, i));
        }
        shared
    })
}

/// Number of pool workers: the host's available parallelism, clamped to
/// `[2, 16]`. The floor of 2 keeps cross-thread execution paths exercised
/// even on single-core machines; the submitting thread additionally helps,
/// so small machines are never oversubscribed by more than one thread.
pub fn available_threads() -> usize {
    pool_width()
}

fn pool_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(2, MAX_WORKERS)
    })
}

/// Resolve a user-facing `nthreads` option value: `0` selects the pool
/// width ("auto"), anything else is used as the requested piece count.
pub fn resolve_nthreads(requested: u32) -> usize {
    if requested == 0 {
        pool_width()
    } else {
        requested as usize
    }
}

/// Split `total` items into at most `pieces` contiguous ranges, the first
/// `total % pieces` ranges one item larger — the canonical split used by
/// every chunk-parallel plugin so serial and parallel variants agree on
/// chunk geometry (and so streams are machine-independent).
pub fn chunk_ranges(total: usize, pieces: usize) -> Vec<Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let pieces = pieces.clamp(1, total);
    let base = total / pieces;
    let extra = total % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0usize;
    for w in 0..pieces {
        let len = base + usize::from(w < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Minimum bytes of input one chunk must carry before splitting pays for
/// itself: below this, queue/steal/stitch overhead eats the win. Chosen
/// offline from serial-vs-pooled timings of the pooled plugins;
/// deliberately a compile-time constant, *not* a host probe, so
/// chunk geometry — and therefore every stream — stays machine-independent.
pub const MIN_CHUNK_BYTES: usize = 256 * 1024;

/// Inputs below this many bytes run serial regardless of the requested
/// piece count. This is exactly `2 * MIN_CHUNK_BYTES`: any split of a
/// smaller input would leave at least one chunk under the minimum, so the
/// threshold emerges from the chunk floor rather than being a second knob.
pub const SERIAL_FALLBACK_BYTES: usize = 2 * MIN_CHUNK_BYTES;

/// Adaptive chunk planning: split `total_elems` items of `bytes_per_elem`
/// bytes into at most `nthreads` contiguous ranges, but never more than the
/// input can amortize — each chunk must carry at least [`MIN_CHUNK_BYTES`]
/// of input, so small inputs (below [`SERIAL_FALLBACK_BYTES`]) collapse to
/// a single range (serial execution, observable as the
/// `exec:serial_fallback` trace counter).
///
/// The plan depends only on its arguments — requested piece count, element
/// count, element width — never on the host, so two machines produce
/// identical chunk geometry (and identical streams) for the same request.
pub fn plan_chunks(total_elems: usize, bytes_per_elem: usize, nthreads: usize) -> Vec<Range<usize>> {
    plan_chunks_min(total_elems, bytes_per_elem, nthreads, MIN_CHUNK_BYTES)
}

/// [`plan_chunks`] with an explicit per-chunk byte floor, for codecs whose
/// parallel framing amortizes at a different grain (deflate's LZ windows
/// pay off from 64 KiB chunks, where the transform codecs need 256 KiB).
pub fn plan_chunks_min(
    total_elems: usize,
    bytes_per_elem: usize,
    nthreads: usize,
    min_chunk_bytes: usize,
) -> Vec<Range<usize>> {
    if total_elems == 0 {
        return Vec::new();
    }
    let total_bytes = total_elems.saturating_mul(bytes_per_elem.max(1));
    let max_pieces = (total_bytes / min_chunk_bytes.max(1)).max(1);
    let pieces = nthreads.max(1).min(max_pieces);
    if pieces <= 1 && nthreads > 1 {
        crate::trace::count("exec:serial_fallback", 1);
    }
    chunk_ranges(total_elems, pieces)
}

/// Per-job completion state shared between the submitting thread and the
/// queued tasks (via an erased pointer — see the SAFETY argument in
/// [`par_map_indexed`]).
struct Job<'f, T> {
    f: &'f (dyn Fn(usize) -> Result<T> + Sync),
    /// The submitting thread's ambient cancel token, snapshotted at submit
    /// time and re-installed on whichever thread executes each chunk.
    token: crate::cancel::CancelToken,
    slots: Vec<Mutex<Option<Result<T>>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

impl<T> Job<'_, T> {
    fn run_one(&self, idx: usize) {
        crate::trace::count("exec:run", 1);
        let result = match catch_unwind(AssertUnwindSafe(|| -> Result<T> {
            #[cfg(feature = "chaos")]
            crate::chaos::before_task(&self.token);
            // Chunk-boundary cooperation point: once the job's token has
            // tripped, remaining chunks are skipped instead of run.
            if let Err(stop) = self.token.check() {
                crate::trace::count("exec:cancelled", 1);
                return Err(stop);
            }
            crate::cancel::with_token(&self.token, || (self.f)(idx))
        })) {
            Ok(r) => r,
            Err(_) => Err(Error::internal(format!(
                "exec: worker task {idx} panicked (isolated by the execution engine)"
            ))),
        };
        if let Some(slot) = self.slots.get(idx) {
            *lock_ignore_poison(slot) = Some(result);
        }
        let mut remaining = lock_ignore_poison(&self.remaining);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// Run `f(0), f(1), ..., f(n-1)` on the shared pool and collect the results
/// in index order. The submitting thread participates (it executes queued
/// tasks while waiting), every task is panic-isolated, and the first error
/// — by index — is returned if any task fails.
///
/// Falls back to a plain serial loop when `n <= 1`, so callers can use it
/// unconditionally.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Result<Vec<T>>
where
    T: Send + 'static,
    F: Fn(usize) -> Result<T> + Sync,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    // Chunk-boundary check for the serial shortcut too, so a tripped token
    // stops single-chunk work identically to pooled work.
    crate::cancel::checkpoint()?;
    if n == 1 {
        return Ok(vec![f(0)?]);
    }
    let pool = shared();
    let job = Job {
        f: &f,
        token: crate::cancel::current().unwrap_or_default(),
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
        remaining: Mutex::new(n),
        done: Condvar::new(),
    };
    // Erase the job's lifetime so tasks are 'static for the queue. The
    // pointer round-trips through usize purely so the closures below are
    // trivially Send.
    let job_addr = &job as *const Job<'_, T> as usize;
    let mut tasks: Vec<Task> = Vec::with_capacity(n.saturating_sub(1));
    for idx in 1..n {
        tasks.push(Box::new(move || {
            // SAFETY: `job` lives on the submitting thread's stack, and that
            // thread does not return from `par_map_indexed` until
            // `remaining` reaches 0 (the wait loop below), which happens
            // only after every queued task — including this one — has
            // finished executing `run_one`. Therefore the reference is
            // valid for the task's entire execution. `Job` is shared
            // across threads only through `&self` methods over `Mutex`/
            // `Condvar` fields plus the `Sync` closure, so the aliasing is
            // sound.
            let job = unsafe { &*(job_addr as *const Job<'static, T>) };
            job.run_one(idx);
        }));
    }
    pool.submit(tasks);
    // Run chunk 0 inline, then help drain queues until the job completes.
    job.run_one(0);
    loop {
        {
            let remaining = lock_ignore_poison(&job.remaining);
            if *remaining == 0 {
                break;
            }
        }
        match pool.pop_any(usize::MAX) {
            // Helping may execute tasks of *other* in-flight jobs; that is
            // fine — tasks are independent and self-contained.
            Some(task) => task(),
            None => {
                let remaining = lock_ignore_poison(&job.remaining);
                if *remaining == 0 {
                    break;
                }
                let _ = job
                    .done
                    .wait_timeout(remaining, std::time::Duration::from_millis(POLL_MS));
            }
        }
    }
    let mut out = Vec::with_capacity(n);
    for (idx, slot) in job.slots.iter().enumerate() {
        match lock_ignore_poison(slot).take() {
            Some(r) => out.push(r?),
            None => {
                return Err(Error::internal(format!(
                    "exec: task {idx} completed without storing a result"
                )))
            }
        }
    }
    Ok(out)
}

/// Split `total` items into at most `pieces` contiguous ranges and process
/// them on the shared pool: `f(chunk_index, item_range)`. Results are in
/// chunk order. See [`chunk_ranges`] for the split.
pub fn par_chunks<T, F>(total: usize, pieces: usize, f: F) -> Result<Vec<T>>
where
    T: Send + 'static,
    F: Fn(usize, Range<usize>) -> Result<T> + Sync,
{
    let ranges = chunk_ranges(total, pieces);
    par_map_indexed(ranges.len(), |i| f(i, ranges[i].clone()))
}

// ======================================================== deadline watchdog

/// A closure queued to a watchdog worker.
type WatchdogTask = Box<dyn FnOnce() + Send + 'static>;

/// Reusable deadline-runner workers. Unlike the main pool, these threads
/// are *dedicated* to one deadlined closure at a time: the caller stops
/// waiting at the deadline, trips the token, and the worker re-registers
/// itself as idle once the (cooperatively stopped) closure unwinds. The
/// pool grows on demand so a deadline caller is never starved by other
/// in-flight deadline runs, and shrinks to "all idle" as runs finish —
/// no thread is ever detached or leaked.
struct WatchdogPool {
    /// Senders of watchdog workers currently parked waiting for a task.
    idle: Mutex<Vec<std::sync::mpsc::Sender<WatchdogTask>>>,
    /// Total watchdog threads ever spawned (leak diagnostics: this must
    /// plateau at the peak number of *concurrent* deadline runs).
    spawned: crate::sync::atomic::AtomicUsize,
}

fn watchdogs() -> &'static WatchdogPool {
    static WATCHDOGS: OnceLock<&'static WatchdogPool> = OnceLock::new();
    WATCHDOGS.get_or_init(|| {
        Box::leak(Box::new(WatchdogPool {
            idle: Mutex::new(Vec::new()),
            spawned: crate::sync::atomic::AtomicUsize::new(0),
        }))
    })
}

fn watchdog_loop(
    rx: std::sync::mpsc::Receiver<WatchdogTask>,
    tx: std::sync::mpsc::Sender<WatchdogTask>,
) {
    while let Ok(task) = rx.recv() {
        task();
        // Work finished (or unwound): park this worker back in the idle
        // pool for the next deadline run.
        lock_ignore_poison(&watchdogs().idle).push(tx.clone());
    }
}

/// Hand `task` to an idle watchdog worker, spawning a new one only when
/// every existing worker is busy.
fn watchdog_dispatch(task: WatchdogTask) -> Result<()> {
    let pool = watchdogs();
    let reused = lock_ignore_poison(&pool.idle).pop();
    let tx = match reused {
        Some(tx) => tx,
        None => {
            let (tx, rx) = std::sync::mpsc::channel::<WatchdogTask>();
            let n = pool.spawned.fetch_add(1, crate::sync::atomic::Ordering::Relaxed);
            crate::trace::count("exec:watchdog_spawn", 1);
            let worker_tx = tx.clone();
            std::thread::Builder::new()
                .name(format!("pressio-watchdog-{n}"))
                .spawn(move || watchdog_loop(rx, worker_tx))
                .map_err(|e| {
                    Error::new(
                        crate::ErrorCode::Io,
                        format!("exec: failed to spawn watchdog thread: {e}"),
                    )
                })?;
            tx
        }
    };
    task_send(tx, task)
}

fn task_send(tx: std::sync::mpsc::Sender<WatchdogTask>, task: WatchdogTask) -> Result<()> {
    tx.send(task)
        .map_err(|_| Error::internal("exec: watchdog worker vanished before accepting its task"))
}

/// `(threads ever spawned, threads currently idle)` in the watchdog pool —
/// leak diagnostics for the chaos harness and regression tests.
pub fn watchdog_stats() -> (usize, usize) {
    let pool = watchdogs();
    let idle = lock_ignore_poison(&pool.idle).len();
    (
        pool.spawned.load(crate::sync::atomic::Ordering::Relaxed),
        idle,
    )
}

/// Run `f` on a watchdog worker under `token`, installed ambiently so the
/// whole call tree under `f` (including pool chunks it submits) sees it.
/// The caller waits at most until the token's deadline (forever when none
/// is armed): on expiry the token is tripped — the in-flight work stops
/// cooperatively at its next checkpoint and the worker then re-registers
/// idle — and [`crate::ErrorCode::Timeout`] is returned immediately.
///
/// A panicking `f` is contained and surfaces as
/// [`crate::ErrorCode::Internal`].
pub fn run_cancellable<T, F>(token: &crate::cancel::CancelToken, what: &str, f: F) -> Result<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let task_token = token.clone();
    let task: WatchdogTask = Box::new(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| crate::cancel::with_token(&task_token, f)));
        // The caller may have stopped listening (deadline); ignore that.
        let _ = tx.send(outcome);
    });
    watchdog_dispatch(task)?;
    let outcome = match token.remaining_ms() {
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        Some(ms) => rx.recv_timeout(std::time::Duration::from_millis(ms.max(1))),
    };
    match outcome {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(_panic)) => Err(Error::internal(format!(
            "{what} panicked on the deadline worker (contained)"
        ))),
        Err(RecvTimeoutError::Timeout) => {
            token.cancel_as_timed_out();
            crate::trace::count("exec:deadline_cancel", 1);
            Err(Error::timeout(format!(
                "{what} missed its deadline; in-flight work signalled to stop cooperatively"
            )))
        }
        Err(RecvTimeoutError::Disconnected) => Err(Error::internal(format!(
            "{what} deadline worker disappeared without reporting a result"
        ))),
    }
}

/// Spawn a named, long-lived service thread (the `pressio serve` daemon's
/// listener, connection, and worker loops). The execution engine is the
/// single place in the workspace allowed to create threads (the
/// `no-adhoc-thread-spawn` lint rule); service components borrow that
/// privilege through this hook instead of spawning ad hoc, so every thread
/// in the process is attributable to one file.
pub fn spawn_service<F>(name: &str, f: F) -> Result<std::thread::JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("pressio-{name}"))
        .spawn(f)
        .map_err(|e| Error::internal(format!("exec: failed to spawn service thread {name}: {e}")))
}

/// Run `f` under a fresh token whose deadline is `timeout_ms` from now.
/// `timeout_ms == 0` means "no deadline": `f` runs inline on the calling
/// thread. This is the engine behind `guard:timeout_ms`.
pub fn run_deadlined<T, F>(timeout_ms: u64, what: &str, f: F) -> Result<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    if timeout_ms == 0 {
        return Ok(f());
    }
    let token = crate::cancel::CancelToken::with_deadline_ms(timeout_ms);
    run_cancellable(&token, what, f)
}

// ============================================================= scratch pool

/// Reusable per-thread scratch buffers for hot compression paths:
/// quantization codes, transform staging, and bitstream staging. Buffers
/// keep their capacity between calls, so steady-state chunk processing
/// performs no heap allocation.
#[derive(Default)]
pub struct Scratch {
    /// Quantization code staging (SZ-style linear-scaling codes).
    pub u32s: Vec<u32>,
    /// Signed integer block staging (ZFP decorrelation transform).
    pub i64s: Vec<i64>,
    /// Unsigned integer block staging (ZFP negabinary/bit planes).
    pub u64s: Vec<u64>,
    /// Single-precision reconstruction staging (SZ f32 Lorenzo recon).
    pub f32s: Vec<f32>,
    /// Floating-point block staging (gather/scatter buffers).
    pub f64s: Vec<f64>,
    /// Index staging (LZ match-finder hash table).
    pub usizes: Vec<usize>,
    /// Byte staging (bitstream assembly).
    pub bytes: Vec<u8>,
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
    /// See [`allow_scratch_reentrancy`].
    static SCRATCH_REENTRANCY_OK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with this thread's scratch arena. Reentrant calls (a scratch
/// user calling another scratch user) get a fresh temporary arena instead
/// of aliasing the outer borrow — but loudly: the miss is counted as
/// `exec:scratch_miss` and, in debug builds, asserts with the caller's
/// location, because a throwaway arena silently re-pays the allocations
/// the arena exists to remove. Hot paths should `mem::take` the buffers
/// they need out of the arena (and put them back) rather than nest.
#[track_caller]
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let caller = std::panic::Location::caller();
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => {
            crate::trace::count("exec:scratch_miss", 1);
            debug_assert!(
                SCRATCH_REENTRANCY_OK.with(std::cell::Cell::get),
                "re-entrant with_scratch at {caller}: the per-worker arena is already \
                 borrowed, so this call allocates a throwaway Scratch — mem::take the \
                 buffers out of the outer borrow instead (or wrap a deliberate nesting \
                 in exec::allow_scratch_reentrancy)",
            );
            f(&mut Scratch::default())
        }
    })
}

/// Run `f` with nested [`with_scratch`] calls permitted on this thread:
/// misses are still counted (`exec:scratch_miss`) but the debug assertion
/// is suppressed. For the rare caller that *knowingly* trades a throwaway
/// arena for simplicity (and for the tests that pin the fallback behavior).
pub fn allow_scratch_reentrancy<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCRATCH_REENTRANCY_OK.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCRATCH_REENTRANCY_OK.with(|c| c.replace(true)));
    f()
}

impl Scratch {
    /// Borrow the `i64` buffer resized (not reallocated when capacity
    /// suffices) to exactly `len` zeroed elements.
    pub fn i64_slice(&mut self, len: usize) -> &mut [i64] {
        self.i64s.clear();
        self.i64s.resize(len, 0);
        &mut self.i64s[..]
    }

    /// Borrow the `u64` buffer as exactly `len` zeroed elements.
    pub fn u64_slice(&mut self, len: usize) -> &mut [u64] {
        self.u64s.clear();
        self.u64s.resize(len, 0);
        &mut self.u64s[..]
    }

    /// Borrow the `f64` buffer as exactly `len` zeroed elements.
    pub fn f64_slice(&mut self, len: usize) -> &mut [f64] {
        self.f64s.clear();
        self.f64s.resize(len, 0.0);
        &mut self.f64s[..]
    }

    /// Borrow the `u32` buffer as exactly `len` zeroed elements.
    pub fn u32_slice(&mut self, len: usize) -> &mut [u32] {
        self.u32s.clear();
        self.u32s.resize(len, 0);
        &mut self.u32s[..]
    }

    /// Borrow the index buffer as exactly `len` elements of `fill`.
    pub fn usize_slice_filled(&mut self, len: usize, fill: usize) -> &mut [usize] {
        self.usizes.clear();
        self.usizes.resize(len, fill);
        &mut self.usizes[..]
    }
}

// ====================================================== model-check support

/// Loom-model scaffolding: a pool core ([`Shared`]) without its global
/// `'static` registration or OS worker threads, so the model-check suite
/// (`crates/core/tests/loom_exec.rs`) can drive `submit`/`pop_any`/the
/// work-available condvar under the shim scheduler with a bounded number
/// of modeled threads. Only compiled for `--features loom` builds.
#[cfg(feature = "loom")]
pub mod model_support {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A locally owned pool core for model runs.
    pub struct ModelPool {
        shared: Shared,
    }

    impl ModelPool {
        /// A pool core with `workers` local deques (0 = injector-only).
        pub fn new(workers: usize) -> ModelPool {
            ModelPool {
                shared: Shared {
                    injector: Mutex::new(VecDeque::new()),
                    locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
                    work_available: Condvar::new(),
                    work_seq: Mutex::new(0),
                    rr: Mutex::new(0),
                },
            }
        }

        /// Submit `n` tasks that each bump `tally` exactly once, through
        /// the production round-robin distribution path.
        pub fn submit_tally(&self, n: usize, tally: &Arc<AtomicUsize>) {
            let tasks: Vec<Task> = (0..n)
                .map(|_| {
                    let tally = Arc::clone(tally);
                    Box::new(move || {
                        tally.fetch_add(1, Ordering::SeqCst);
                    }) as Task
                })
                .collect();
            self.shared.submit(tasks);
        }

        /// Pop-and-run until every queue reads empty from `home`'s
        /// perspective (own deque, injector, then stealing); returns how
        /// many tasks ran.
        pub fn drain(&self, home: usize) -> usize {
            let mut ran = 0;
            while let Some(task) = self.shared.pop_any(home) {
                task();
                ran += 1;
            }
            ran
        }

        /// Pop-and-run at most one task, as one iteration of
        /// [`worker_loop`] would; `false` means every queue was empty.
        pub fn step(&self, home: usize) -> bool {
            match self.shared.pop_any(home) {
                Some(task) => {
                    task();
                    true
                }
                None => false,
            }
        }

        /// One bounded wait on the work-available condvar, exactly as the
        /// idle branch of [`worker_loop`] performs it.
        pub fn wait_for_work(&self) {
            let guard = lock_ignore_poison(&self.shared.work_seq);
            let _ = self
                .shared
                .work_available
                .wait_timeout(guard, std::time::Duration::from_millis(POLL_MS));
        }

        /// Submit `n` cancellation-shaped tasks through the production
        /// distribution path: each checks `token` at its chunk boundary
        /// exactly as [`Job::run_one`] does, bumping `ran` when the
        /// payload executes and `skipped` when cancellation won the race.
        /// The model invariant is conservation: after a full drain,
        /// `ran + skipped == n` regardless of interleaving.
        pub fn submit_cancellable_tally(
            &self,
            n: usize,
            token: &crate::cancel::CancelToken,
            ran: &Arc<AtomicUsize>,
            skipped: &Arc<AtomicUsize>,
        ) {
            let tasks: Vec<Task> = (0..n)
                .map(|_| {
                    let token = token.clone();
                    let ran = Arc::clone(ran);
                    let skipped = Arc::clone(skipped);
                    Box::new(move || {
                        if token.check().is_ok() {
                            ran.fetch_add(1, Ordering::SeqCst);
                        } else {
                            skipped.fetch_add(1, Ordering::SeqCst);
                        }
                    }) as Task
                })
                .collect();
            self.shared.submit(tasks);
        }

        /// Submit `n` tasks of which the one at `poison` panics; the rest
        /// bump `tally`. Pairs with [`ModelPool::step_hardened`] to model
        /// the worker-replacement path: the panic must be contained by one
        /// iteration and every healthy task must still run exactly once.
        pub fn submit_poison_tally(&self, n: usize, poison: usize, tally: &Arc<AtomicUsize>) {
            let tasks: Vec<Task> = (0..n)
                .map(|i| {
                    let tally = Arc::clone(tally);
                    Box::new(move || {
                        if i == poison {
                            panic!("model: poisoned task");
                        }
                        tally.fetch_add(1, Ordering::SeqCst);
                    }) as Task
                })
                .collect();
            self.shared.submit(tasks);
        }

        /// One *hardened* worker iteration, as [`worker_loop`] executes it:
        /// pop one task and run it under `catch_unwind`. Returns `None`
        /// when every queue was empty, `Some(panicked)` otherwise — a
        /// panicked task is swallowed exactly like the self-heal path, so
        /// models can assert the worker survives and later tasks still
        /// run exactly once.
        pub fn step_hardened(&self, home: usize) -> Option<bool> {
            let task = self.shared.pop_any(home)?;
            Some(catch_unwind(AssertUnwindSafe(task)).is_err())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_returns_results_in_index_order() {
        let out = par_map_indexed(100, |i| Ok(i * 3)).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_and_single() {
        assert_eq!(par_map_indexed(0, Ok).unwrap(), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| Ok(i + 7)).unwrap(), vec![7]);
    }

    #[test]
    fn map_propagates_errors_by_lowest_index() {
        let err = par_map_indexed(10, |i| {
            if i >= 4 {
                Err(Error::invalid_argument(format!("chunk {i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err.message(), "chunk 4");
    }

    #[test]
    fn map_isolates_panics_as_internal_errors() {
        let err = par_map_indexed(8, |i| {
            if i == 3 {
                panic!("boom");
            }
            Ok(i)
        })
        .unwrap_err();
        assert_eq!(err.code(), crate::ErrorCode::Internal);
        assert!(err.message().contains("panicked"));
        // The pool stays usable after a panic.
        assert_eq!(par_map_indexed(4, Ok).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn map_actually_uses_multiple_threads() {
        // With a floor of 2 workers plus the helping submitter, at least
        // one task should land off the submitting thread.
        let submitter = std::thread::current().id();
        let off_thread = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(2);
        par_map_indexed(2, |_| {
            // Rendezvous: both tasks must be in flight at once, so they
            // cannot both run on the submitting thread.
            barrier.wait();
            if std::thread::current().id() != submitter {
                off_thread.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })
        .unwrap();
        assert!(off_thread.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn nested_parallelism_completes() {
        let out = par_map_indexed(4, |i| {
            let inner = par_map_indexed(4, move |j| Ok(i * 10 + j))?;
            Ok(inner.into_iter().sum::<usize>())
        })
        .unwrap();
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn chunk_ranges_cover_exactly_including_non_divisible() {
        for (total, pieces) in [(10, 3), (7, 7), (7, 20), (64, 1), (1, 4), (13, 2)] {
            let ranges = chunk_ranges(total, pieces);
            assert!(ranges.len() <= pieces.max(1));
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "total {total} pieces {pieces}");
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, total);
            // Balanced: sizes differ by at most one.
            let min = ranges.iter().map(|r| r.len()).min().unwrap();
            let max = ranges.iter().map(|r| r.len()).max().unwrap();
            assert!(max - min <= 1);
        }
        assert!(chunk_ranges(0, 4).is_empty());
    }

    #[test]
    fn par_chunks_matches_serial_split() {
        let sums = par_chunks(100, 7, |_, r| Ok(r.sum::<usize>())).unwrap();
        assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
        assert_eq!(sums.len(), 7);
    }

    #[test]
    fn resolve_nthreads_auto_and_explicit() {
        assert_eq!(resolve_nthreads(0), available_threads());
        assert_eq!(resolve_nthreads(7), 7);
        assert!(available_threads() >= 2);
    }

    #[test]
    fn scratch_keeps_capacity_across_calls() {
        let cap = with_scratch(|s| {
            let buf = s.f64_slice(4096);
            buf[0] = 1.0;
            s.f64s.capacity()
        });
        let cap2 = with_scratch(|s| {
            let buf = s.f64_slice(1024);
            // Re-zeroed on every borrow.
            assert!(buf.iter().all(|&v| v == 0.0));
            s.f64s.capacity()
        });
        assert!(cap2 >= 1024 && cap >= 4096);
        assert_eq!(cap2, cap, "no reallocation when shrinking");
    }

    #[test]
    fn scratch_reentrancy_gets_fresh_arena() {
        // Deliberate nesting must opt in; the fallback still hands out a
        // fresh arena without corrupting the outer borrow.
        allow_scratch_reentrancy(|| {
            with_scratch(|outer| {
                outer.u32s.push(1);
                with_scratch(|inner| {
                    assert!(inner.u32s.is_empty());
                });
                assert_eq!(outer.u32s.len(), 1);
            });
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "re-entrant with_scratch")]
    fn scratch_reentrancy_asserts_loudly_without_opt_in() {
        with_scratch(|_outer| {
            with_scratch(|_inner| {});
        });
    }

    #[test]
    fn plan_chunks_goes_serial_below_the_byte_threshold() {
        // 32^3 f32 = 128 KiB < 512 KiB: serial regardless of nthreads.
        for nt in [1usize, 2, 4, 7, 16] {
            let plan = plan_chunks(32 * 32 * 32, 4, nt);
            assert_eq!(plan.len(), 1, "nthreads={nt}");
            assert_eq!(plan[0], 0..32 * 32 * 32);
        }
        // Just under and just over the fallback boundary (f64 elements).
        let under = SERIAL_FALLBACK_BYTES / 8 - 1;
        assert_eq!(plan_chunks(under, 8, 4).len(), 1);
        let over = SERIAL_FALLBACK_BYTES / 8;
        assert_eq!(plan_chunks(over, 8, 4).len(), 2);
    }

    #[test]
    fn plan_chunks_caps_pieces_by_input_size() {
        // 64^3 f32 = 1 MiB: at most 4 chunks of >= 256 KiB each.
        assert_eq!(plan_chunks(64 * 64 * 64, 4, 16).len(), 4);
        // 128^3 f32 = 8 MiB: the request, not the cap, binds at 4 threads.
        assert_eq!(plan_chunks(128 * 128 * 128, 4, 4).len(), 4);
        // The plan is the canonical split of the chosen piece count.
        let plan = plan_chunks(128 * 128 * 128, 4, 4);
        assert_eq!(plan, chunk_ranges(128 * 128 * 128, 4));
        assert!(plan_chunks(0, 4, 4).is_empty());
    }

    #[test]
    fn plan_chunks_min_overrides_the_floor() {
        // 128 KiB of bytes: serial under the default floor, 2 pieces under
        // deflate's 64 KiB floor.
        let n = 128 * 1024;
        assert_eq!(plan_chunks(n, 1, 4).len(), 1);
        assert_eq!(plan_chunks_min(n, 1, 4, 64 * 1024).len(), 2);
    }

    #[test]
    fn many_concurrent_jobs_from_many_threads() {
        // Cross-thread stress: multiple submitters sharing the pool.
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for round in 0..10 {
                        let out = par_map_indexed(9, |i| Ok(t * 1000 + round * 10 + i)).unwrap();
                        assert_eq!(out.len(), 9);
                        assert_eq!(out[8], t * 1000 + round * 10 + 8);
                    }
                });
            }
        });
    }
}
