//! The `pressio-lint` static-analysis engine.
//!
//! A dependency-light source scanner over the workspace enforcing hygiene
//! rules that `rustc` and `clippy` do not express:
//!
//! * [`RULE_NO_PANIC`] — library code of the core, codec, and compressor
//!   crates must not `unwrap()`/`expect()`/`panic!()`: fallible paths route
//!   through `pressio_core::error` so generic callers (the paper's C/Rust
//!   clients) see recoverable errors, never aborts.
//! * [`RULE_SAFETY_COMMENT`] — every `unsafe` block/fn/impl must be
//!   preceded by a `// SAFETY:` comment stating the proof obligation.
//! * [`RULE_PLUGIN_SURFACE`] — every `impl Compressor for ...` in a plugin
//!   crate must define `set_options`, `get_options`, `get_configuration`,
//!   and `version` rather than inheriting introspection defaults.
//! * [`RULE_WIRE_CAST`] — wire-format lengths decoded from untrusted
//!   streams must not flow through bare `as usize` casts on the same
//!   expression without a bounds check (`checked_geometry`,
//!   `MAX_DECODE_BYTES`, ...).
//! * [`RULE_NO_DEBUG_PRINT`] — no `dbg!`/`println!`/`print!` in library
//!   crates; user-visible output belongs to the binaries.
//! * [`RULE_NO_UNBOUNDED_SLEEP`] — `thread::sleep` in library code must cap
//!   its duration on the same line (`.min(...)`/`.clamp(...)`), so retry
//!   backoff can never stall a host past its watchdog deadlines.
//! * [`RULE_NO_ADHOC_THREAD_SPAWN`] — library crates must not create their
//!   own threads; all parallelism routes through the shared execution
//!   engine (`pressio_core::exec`). Only `crates/core/src/exec.rs` itself,
//!   binaries, and test modules are exempt.
//!
//! v2 adds a lightweight token-tree front end ([`tokens`]) — a lexer and
//! delimiter-matched parser, no rustc dependency — feeding three deeper
//! passes that line/regex matching cannot express:
//!
//! * [`RULE_TAINT_ALLOC`] / [`RULE_TAINT_ARITH`] — intraprocedural taint
//!   analysis ([`taint`]) from wire reads into allocation sites and
//!   unchecked length arithmetic.
//! * [`RULE_PLUGIN_SURFACE_KEYS`] — key-level option-surface symmetry for
//!   every `impl Compressor` block ([`surface`]): accepted keys must be
//!   declared, declared keys must be read.
//! * [`RULE_LOCK_ORDER`] / [`RULE_NO_LOCK_IN_PAR_CLOSURE`] — the global
//!   lock acquisition order and the no-locks-on-the-pool rule ([`locks`]).
//!
//! The scanner strips string literals, comments, and `#[cfg(test)] mod`
//! blocks before matching, so tests and docs never trip the rules. Findings
//! can be waived through an allowlist file (default `lint-allow.txt` at the
//! workspace root); each line is
//!
//! ```text
//! <rule> <file> <substring of the offending line>   # justification
//! ```
//!
//! matched by rule id, workspace-relative path, and line *content* (stable
//! across unrelated edits, unlike line numbers). `pressio-lint --explain
//! <rule>` prints the rationale and the allowlist recipe for each rule.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod locks;
pub mod surface;
pub mod taint;
pub mod tokens;

/// Rule id: no `unwrap`/`expect`/`panic!` in library code.
pub const RULE_NO_PANIC: &str = "no-panic";
/// Rule id: `unsafe` requires a `// SAFETY:` comment.
pub const RULE_SAFETY_COMMENT: &str = "safety-comment";
/// Rule id: compressor impls must define the full introspection surface.
pub const RULE_PLUGIN_SURFACE: &str = "plugin-surface";
/// Rule id: wire lengths must be bounds-checked before `as usize`.
pub const RULE_WIRE_CAST: &str = "wire-cast";
/// Rule id: no debug printing in library crates.
pub const RULE_NO_DEBUG_PRINT: &str = "no-debug-print";
/// Rule id: library sleeps must carry an explicit cap.
pub const RULE_NO_UNBOUNDED_SLEEP: &str = "no-unbounded-sleep";
/// Rule id: no ad-hoc thread creation outside the shared execution engine.
pub const RULE_NO_ADHOC_THREAD_SPAWN: &str = "no-adhoc-thread-spawn";
/// Rule id: no raw clock reads outside the trace module.
pub const RULE_NO_TIMESTAMP: &str = "no-timestamp-outside-trace";
/// Rule id: no wire-tainted value may size an allocation unchecked.
pub const RULE_TAINT_ALLOC: &str = "taint-alloc";
/// Rule id: no unchecked `*`/`+`/`<<` on wire-tainted lengths.
pub const RULE_TAINT_ARITH: &str = "taint-arith";
/// Rule id: option keys must be symmetric across the introspection surface.
pub const RULE_PLUGIN_SURFACE_KEYS: &str = "plugin-surface-keys";
/// Rule id: global locks follow one acquisition order.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Rule id: no lock acquisition inside shared-pool closures.
pub const RULE_NO_LOCK_IN_PAR_CLOSURE: &str = "no-lock-in-par-closure";
/// Rule id: no heap allocation inside shared-pool closures.
pub const RULE_NO_ALLOC_IN_PAR_CLOSURE: &str = "no-alloc-in-par-closure";

/// All rule ids, in reporting order.
pub const ALL_RULES: &[&str] = &[
    RULE_NO_PANIC,
    RULE_SAFETY_COMMENT,
    RULE_PLUGIN_SURFACE,
    RULE_WIRE_CAST,
    RULE_NO_DEBUG_PRINT,
    RULE_NO_UNBOUNDED_SLEEP,
    RULE_NO_ADHOC_THREAD_SPAWN,
    RULE_NO_TIMESTAMP,
    RULE_TAINT_ALLOC,
    RULE_TAINT_ARITH,
    RULE_PLUGIN_SURFACE_KEYS,
    RULE_LOCK_ORDER,
    RULE_NO_LOCK_IN_PAR_CLOSURE,
    RULE_NO_ALLOC_IN_PAR_CLOSURE,
];

/// Long-form rationale for `--explain`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        RULE_NO_PANIC => {
            "no-panic: library code of the core, codec, and compressor crates must not call \
             .unwrap(), .expect(), panic!, todo!, unimplemented!, or unreachable!. LibPressio \
             is embedded in long-running simulations; a poisoned option value or corrupt \
             stream must surface as a pressio_core::error::Error the caller can handle, \
             never abort the host. Test modules (#[cfg(test)]) are exempt. To waive a \
             genuinely infallible case (e.g. a mutex that cannot be poisoned), add \
             `no-panic <file> <line substring>  # why it cannot fail` to the allowlist."
        }
        RULE_SAFETY_COMMENT => {
            "safety-comment: every `unsafe` block, fn, or impl must be immediately preceded \
             by a `// SAFETY:` comment stating why the operation is sound (which invariant \
             of which type guarantees it). An unsafe block without a written proof \
             obligation cannot be audited. The comment must be on the same line or in the \
             contiguous comment block directly above. Allowlisting is possible but adding \
             the comment is always the better fix."
        }
        RULE_PLUGIN_SURFACE => {
            "plugin-surface: every `impl Compressor for ...` in a plugin crate must define \
             set_options, get_options, get_configuration, and version. The paper's \
             introspection contract (options declare themselves; configuration reports \
             thread safety and pedigree) only holds if plugins implement it explicitly \
             instead of inheriting an empty default. Test doubles inside #[cfg(test)] are \
             exempt."
        }
        RULE_WIRE_CAST => {
            "wire-cast: a length decoded from an untrusted stream (get_u16/get_u32/get_u64/\
             from_le_bytes) must not be turned into a buffer size via a bare `as usize` on \
             the same expression: a hostile stream can then drive a multi-gigabyte \
             allocation or an overflowing product. Route lengths through \
             pressio_core::wire::checked_geometry / bytes_to_elements or compare against \
             MAX_DECODE_BYTES first. Allowlist only casts whose bound is established on a \
             previous line."
        }
        RULE_NO_DEBUG_PRINT => {
            "no-debug-print: dbg!, println!, and print! are forbidden in library crates — \
             a compression library must not write to the host's stdout. Report through \
             metrics results, error messages, or return values; only the CLI binaries \
             print. (eprintln! in binaries is fine; this rule does not scan src/main.rs \
             or src/bin/.)"
        }
        RULE_NO_UNBOUNDED_SLEEP => {
            "no-unbounded-sleep: a `thread::sleep` in library code must cap its duration \
             on the same line (e.g. `backoff.min(MAX_BACKOFF_MS)`). Sleep durations \
             derived from options or retry arithmetic can otherwise grow without bound \
             and stall the host past any watchdog deadline — the guard meta-compressor's \
             own backoff is the model: exponential growth clamped by an explicit \
             constant. Test modules and binaries are exempt. Allowlist only sleeps \
             whose bound is established on a previous line."
        }
        RULE_NO_ADHOC_THREAD_SPAWN => {
            "no-adhoc-thread-spawn: library crates must not create their own threads \
             (`thread::spawn`, `thread::Builder`, `thread::scope`, `crossbeam::scope`) — \
             all parallelism routes through the shared execution engine \
             (`pressio_core::exec`: par_chunks / par_map_indexed), which caps worker \
             count, isolates panics, and reuses per-worker scratch arenas. Ad-hoc \
             threads pay spawn/teardown per call, ignore the engine's thread budget, \
             and escape its panic containment. crates/core/src/exec.rs itself, binaries, \
             and test modules are exempt. Allowlist only threads whose job the pool \
             cannot express (e.g. the guard watchdog, which must detach a hung worker)."
        }
        RULE_NO_TIMESTAMP => {
            "no-timestamp-outside-trace: library crates must not read clocks directly \
             (`Instant::now`, `SystemTime::now`) — all timing routes through \
             `pressio_core::trace` (spans share one monotonic epoch, cost one relaxed \
             atomic load when tracing is off, and surface uniformly through the trace \
             metrics plugin, the chrome-trace exporter, and `pressio trace`). A private \
             clock read is invisible to that pipeline and re-pays the syscall even when \
             nobody is measuring. crates/core/src/trace.rs itself, binaries, and test \
             modules are exempt — so the experiment drivers under crates/bench/src/bin, \
             which time foreign code outside any span, need no waiver. Allowlist only \
             library code that must read a clock outside a span."
        }
        RULE_TAINT_ALLOC => {
            "taint-alloc: a value read from an untrusted compressed stream (get_len, \
             get_count, get_dims, get_u16/u32/u64, from_le_bytes, read_u16/u32/u64) must \
             not size an allocation (Vec::with_capacity, vec![x; n], .reserve, .resize, \
             Data::owned(dtype, dims)) until a bounds check dominates it. The fuzz harness \
             found exactly this in the sz decoder: a corrupt header drove a 34 GB \
             allocation before any validation ran. Read a header's geometry with \
             get_geometry / get_dims_of (clean: already through checked_geometry), shape \
             an output with Data::shape_to / Data::alloc_output, read a chunk directory \
             with pressio_core::chunked, and size staging with alloc::try_reserve / \
             alloc::try_zeroed_vec — none of these is a sink. Otherwise sanitize by \
             binding through checked_geometry / bytes_to_elements / .min(..) / .clamp(..) \
             / try_into, or guard with `if <len> > <bound> { return Err(..) }` before the \
             allocation, where <bound> is something the stream does not control: a \
             comparison against another wire-derived value (`n > dims[0]`, with dims out \
             of the same header, checked as a geometry or not) bounds nothing, and \
             neither does `n == 0`. The analysis is intraprocedural and token-ordered; \
             waive a false positive with \
             `taint-alloc <file> <line substring>  # why the bound holds` only when the \
             bound is established somewhere the analysis cannot see (another function)."
        }
        RULE_TAINT_ARITH => {
            "taint-arith: a wire-tainted length must not feed a raw `*`, `+`, or `<<` — \
             the classic overflow shapes that turn three plausible u32 dims into a tiny \
             (or enormous) wrapped product that later sizes a buffer or indexes a slice. \
             Use checked_mul / checked_add / checked_shl / saturating_* or \
             pressio_core::wire::checked_geometry, or compare against an explicit bound \
             first (a comparison in the same statement, or a dominating guard that \
             returns Err, silences the rule). Waive only arithmetic whose operands are \
             provably bounded elsewhere, with the proof in the allowlist comment."
        }
        RULE_PLUGIN_SURFACE_KEYS => {
            "plugin-surface-keys: within each `impl Compressor` block, every option key \
             set_options reads (options.get_as / options.get) must be declared by \
             get_options or get_configuration, and every key get_options declares must \
             be read by set_options. An accepted-but-undeclared key is invisible to \
             `pressio options` introspection; a declared-but-ignored key makes setting \
             it a silent no-op. get_configuration is exempt from the second direction \
             (it is a read-only capability surface). Keys are matched canonically: \
             format!(\"{p}:key\") placeholders, plain literals, and OPT_* constants \
             unify. Dynamic keys computed in helpers are skipped, not guessed; if the \
             pass cannot see a genuine declaration, allowlist with the helper named."
        }
        RULE_LOCK_ORDER => {
            "lock-order: the workspace's global locks have one sanctioned acquisition \
             order, outermost first: sz store lock (lock_store, rank 10) > exec pool \
             internals (lock_ignore_poison, rank 20) > trace ring (buffers().lock(), \
             rank 30). Acquiring a lower-rank lock while a let-bound guard of a higher \
             rank is live inverts that order and is one store-lock cascade away from \
             deadlock. Statement-scoped temporaries drop at the `;` and do not count. \
             Restructure so the outer lock is released first, or allowlist with a proof \
             that the two locks can never be contended by the same pair of threads."
        }
        RULE_NO_LOCK_IN_PAR_CLOSURE => {
            "no-lock-in-par-closure: closures passed to par_map_indexed / par_chunks run \
             on the shared pool; a lock taken inside one serializes the workers the pool \
             exists to parallelize, and a *global* lock there reproduces the PR 3 \
             store-lock cascade (workers convoy, the submitter helps, watchdogs fire). \
             Hoist the lock outside the parallel region or partition the state per \
             task. crates/core/src/exec.rs (the pool's own bookkeeping) is exempt. \
             Allowlist only per-task locks that are provably uncontended — one task, \
             one mutex, no sharing — and say so in the justification."
        }
        RULE_NO_ALLOC_IN_PAR_CLOSURE => {
            "no-alloc-in-par-closure: closures passed to par_map_indexed / par_chunks \
             are the per-chunk hot path; a Vec::new(), vec![..], or with_capacity(..) \
             inside one pays the allocator once per chunk per round — exactly the \
             malloc traffic the per-worker Scratch arena (exec::with_scratch) was \
             built to remove, and under glibc the workers additionally contend on \
             the allocator's arena lock. Route the buffer through with_scratch \
             (s.u8_slice / s.f64_slice / take_vec helpers) or hoist the allocation \
             out of the closure and move it in. crates/core/src/exec.rs (the pool's \
             own task plumbing) is exempt. Allowlist only allocations that provably \
             cannot be hoisted or scratch-routed (e.g. the closure returns the Vec \
             as its per-chunk result), and say why in the justification."
        }
        _ => return None,
    })
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// True when an allowlist entry waived this finding.
    pub allowed: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}{}",
            self.file,
            self.line,
            self.rule,
            self.snippet,
            if self.allowed { "  (allowlisted)" } else { "" }
        )
    }
}

/// One allowlist entry: `rule file substring`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    rule: String,
    file: String,
    substring: String,
    /// Set once a finding matched; unused entries are reported.
    used: std::cell::Cell<bool>,
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the allowlist format: one `rule file substring` triple per
    /// line; `#` starts a comment; blank lines ignored.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = match line.find('#') {
                Some(i) => &line[..i],
                None => line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (rule, file, substring) = (parts.next(), parts.next(), parts.next());
            if let (Some(rule), Some(file), Some(substring)) = (rule, file, substring) {
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    file: file.to_string(),
                    substring: substring.trim().to_string(),
                    used: std::cell::Cell::new(false),
                });
            }
        }
        Allowlist { entries }
    }

    /// True when `finding` is waived by some entry (marks the entry used).
    fn permits(&self, finding: &Finding) -> bool {
        for e in &self.entries {
            if e.rule == finding.rule
                && e.file == finding.file
                && finding.snippet.contains(&e.substring)
            {
                e.used.set(true);
                return true;
            }
        }
        false
    }

    /// Entries that never matched a finding (likely stale).
    pub fn unused(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| format!("{} {} {}", e.rule, e.file, e.substring))
            .collect()
    }
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, allowlisted or not.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Stale allowlist entries (matched nothing).
    pub unused_allows: Vec<String>,
}

impl LintReport {
    /// Findings not waived by the allowlist.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// True when no un-waived findings exist.
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
    }
}

// --------------------------------------------------------------- sanitizing

/// A preprocessed source file: raw lines for display/SAFETY detection,
/// sanitized lines (strings and comments blanked) for rule matching, and a
/// per-line "is test code" mask.
struct Source<'a> {
    raw_lines: Vec<&'a str>,
    sanitized_lines: Vec<String>,
    in_test: Vec<bool>,
}

/// Blank out string/char literals and comments, preserving length and line
/// structure so byte offsets keep meaning. Handles raw strings (`r"..."`,
/// `r#"..."#`), line and block comments.
fn sanitize(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    // Preserve newlines.
    for (i, &c) in b.iter().enumerate() {
        if c == b'\n' {
            out[i] = b'\n';
        }
    }
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                out[i] = b'"';
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                if i < b.len() {
                    out[i] = b'"';
                    i += 1;
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string: r"..."  or  r#"..."#  (any # count).
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    j += 1;
                    'scan: while j < b.len() {
                        if b[j] == b'"' {
                            let mut k = j + 1;
                            let mut h = 0;
                            while k < b.len() && b[k] == b'#' && h < hashes {
                                h += 1;
                                k += 1;
                            }
                            if h == hashes {
                                j = k;
                                break 'scan;
                            }
                        }
                        j += 1;
                    }
                    out[start] = b'r';
                    i = j;
                } else {
                    out[i] = b[i];
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime. Lifetimes ('a, 'static) have no
                // closing quote nearby; char literals do ('x', '\n', '\u{..}').
                let mut j = i + 1;
                if j < b.len() && b[j] == b'\\' {
                    j += 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    i = if j < b.len() { j + 1 } else { j };
                } else if j + 1 < b.len() && b[j] != b'\'' && b[j + 1] == b'\'' {
                    i = j + 2; // simple 'x'
                } else {
                    out[i] = b'\'';
                    i += 1; // lifetime: leave following ident visible
                }
            }
            c => {
                out[i] = c;
                i += 1;
            }
        }
    }
    // Multi-byte UTF-8 sequences may have been partially blanked, so rebuild
    // through lossy conversion rather than asserting validity.
    String::from_utf8_lossy(&out).into_owned()
}

/// Mark the line spans of `#[cfg(test)] mod ... { ... }` blocks.
fn test_mask(sanitized: &str) -> Vec<bool> {
    let lines: Vec<&str> = sanitized.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the next `{` from here and brace-match.
            let mut depth = 0usize;
            let mut opened = false;
            let start = i;
            let mut j = i;
            'outer: while j < lines.len() {
                for ch in lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            for m in mask.iter_mut().take((j + 1).min(lines.len())).skip(start) {
                *m = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

impl<'a> Source<'a> {
    fn new(raw: &'a str) -> Source<'a> {
        let sanitized = sanitize(raw);
        let in_test = test_mask(&sanitized);
        Source {
            raw_lines: raw.lines().collect(),
            sanitized_lines: sanitized.lines().map(str::to_string).collect(),
            in_test,
        }
    }

    fn is_test_line(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }
}

// -------------------------------------------------------------- rule scans

/// Crates whose library code falls under the no-panic rule: the core and
/// every compressor/codec crate (Section IV's "errors are values" contract).
const NO_PANIC_CRATES: &[&str] = &[
    "core", "codecs", "sz", "sz3", "zfp", "mgard", "tthresh", "meta",
];

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "todo!(",
    "unimplemented!(",
    "unreachable!(",
];

const WIRE_READS: &[&str] = &["get_u16", "get_u32", "get_u64", "from_le_bytes", "read_u32", "read_u64"];
const WIRE_GUARDS: &[&str] = &[
    "checked_geometry",
    "bytes_to_elements",
    "MAX_DECODE_BYTES",
    "try_into",
    "min(",
];

const DEBUG_PRINTS: &[&str] = &["dbg!(", "println!(", "print!("];

/// Cap markers accepted by `no-unbounded-sleep` on the sleeping line.
const SLEEP_GUARDS: &[&str] = &[".min(", ".clamp("];

/// Thread-creation expressions forbidden outside the execution engine.
const THREAD_SPAWN_PATTERNS: &[&str] = &[
    "thread::spawn",
    "thread::Builder",
    "thread::scope",
    "crossbeam::scope",
    "crossbeam::thread",
];

/// The one library file allowed to create threads: the shared engine.
const EXEC_ENGINE_FILE: &str = "crates/core/src/exec.rs";

/// Raw clock reads forbidden outside the trace module.
const TIMESTAMP_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now"];

/// The one library file allowed to read clocks: the span collector.
const TRACE_FILE: &str = "crates/core/src/trace.rs";

/// Name of the crate a workspace-relative path belongs to, e.g.
/// `crates/sz/src/plugin.rs` -> `sz`; the facade `src/lib.rs` -> `.` .
fn crate_of(rel: &str) -> Option<&str> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next()
    } else if rel.starts_with("src/") {
        Some(".")
    } else {
        None
    }
}

/// True for binary sources (CLI code), exempt from library-only rules.
fn is_binary_source(rel: &str) -> bool {
    rel.ends_with("/main.rs") || rel.contains("/src/bin/")
}

/// Does the line contain an `unsafe` keyword that introduces an unsafe
/// item or block (as opposed to appearing inside a function-pointer *type*
/// like `Option<unsafe extern "C" fn(..)>`, which creates no obligation at
/// this site)?
fn introduces_unsafe(line: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(off) = line[from..].find("unsafe") {
        let start = from + off;
        let end = start + "unsafe".len();
        let left_ok = start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_');
        let right_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if left_ok && right_ok {
            // Type position: the previous non-space char opens a generic
            // argument, tuple, reference, or union of types.
            let prev = line[..start].trim_end().chars().next_back();
            if !matches!(prev, Some('<' | '(' | '&' | ',' | '|' | ':')) {
                return true;
            }
        }
        from = end;
    }
    false
}

/// Is the `unsafe` at `line_idx` covered by a `// SAFETY:` comment — on the
/// same line or in the contiguous comment block directly above?
fn has_safety_comment(src: &Source, line_idx: usize) -> bool {
    if src.raw_lines[line_idx].contains("SAFETY:") {
        return true;
    }
    let mut i = line_idx;
    while i > 0 {
        i -= 1;
        let t = src.raw_lines[i].trim_start();
        if t.starts_with("//") {
            // A rustdoc `# Safety` section on a pub unsafe item is the
            // idiomatic equivalent of a `// SAFETY:` comment.
            if t.contains("SAFETY:") || (t.starts_with("///") && t.contains("# Safety")) {
                return true;
            }
        } else if t.starts_with("#[") || t.ends_with("]") && t.starts_with('#') {
            // attribute between the comment and the unsafe item: keep walking
            continue;
        } else {
            break;
        }
    }
    false
}

/// Scan one file's content; `rel` is its workspace-relative path with `/`
/// separators. Pure function over the source text — the unit-test surface.
pub fn scan_source(rel: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(krate) = crate_of(rel) else {
        return findings;
    };
    let binary = is_binary_source(rel);
    let src = Source::new(content);

    let push = |findings: &mut Vec<Finding>, rule, idx: usize, src: &Source| {
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line: idx + 1,
            snippet: src.raw_lines[idx].trim().to_string(),
            allowed: false,
        });
    };

    for (idx, line) in src.sanitized_lines.iter().enumerate() {
        if src.is_test_line(idx) {
            continue;
        }

        // no-panic: core + compressor crates, library code only.
        if !binary && NO_PANIC_CRATES.contains(&krate)
            && PANIC_PATTERNS.iter().any(|p| line.contains(p))
        {
            push(&mut findings, RULE_NO_PANIC, idx, &src);
        }

        // safety-comment: everywhere.
        if introduces_unsafe(line) && !has_safety_comment(&src, idx) {
            push(&mut findings, RULE_SAFETY_COMMENT, idx, &src);
        }

        // wire-cast: everywhere in library code.
        if !binary
            && line.contains("as usize")
            && WIRE_READS.iter().any(|p| line.contains(p))
            && !WIRE_GUARDS.iter().any(|g| line.contains(g))
        {
            push(&mut findings, RULE_WIRE_CAST, idx, &src);
        }

        // no-debug-print: library code of every crate.
        if !binary && DEBUG_PRINTS.iter().any(|p| line.contains(p)) {
            push(&mut findings, RULE_NO_DEBUG_PRINT, idx, &src);
        }

        // no-unbounded-sleep: library code of every crate.
        if !binary
            && line.contains("thread::sleep")
            && !SLEEP_GUARDS.iter().any(|g| line.contains(g))
        {
            push(&mut findings, RULE_NO_UNBOUNDED_SLEEP, idx, &src);
        }

        // no-adhoc-thread-spawn: library code of every crate except the
        // execution engine itself.
        if !binary
            && rel != EXEC_ENGINE_FILE
            && THREAD_SPAWN_PATTERNS.iter().any(|p| line.contains(p))
        {
            push(&mut findings, RULE_NO_ADHOC_THREAD_SPAWN, idx, &src);
        }

        // no-timestamp-outside-trace: library code of every crate except
        // the span collector itself.
        if !binary
            && rel != TRACE_FILE
            && TIMESTAMP_PATTERNS.iter().any(|p| line.contains(p))
        {
            push(&mut findings, RULE_NO_TIMESTAMP, idx, &src);
        }
    }

    // plugin-surface: brace-match each `impl Compressor for` block.
    // Binary sources (experiment drivers with local test doubles) are exempt.
    let required = ["fn set_options", "fn get_options", "fn get_configuration", "fn version"];
    let mut idx = 0;
    while idx < src.sanitized_lines.len() {
        let line = &src.sanitized_lines[idx];
        if !binary && !src.is_test_line(idx) && line.contains("impl Compressor for") {
            // Collect the block text.
            let mut depth = 0usize;
            let mut opened = false;
            let mut block = String::new();
            let mut j = idx;
            'block: while j < src.sanitized_lines.len() {
                block.push_str(&src.sanitized_lines[j]);
                block.push('\n');
                for ch in src.sanitized_lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'block;
                            }
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            for missing in required.iter().filter(|r| !block.contains(*r)) {
                findings.push(Finding {
                    rule: RULE_PLUGIN_SURFACE,
                    file: rel.to_string(),
                    line: idx + 1,
                    snippet: format!(
                        "{} — missing `{}`",
                        src.raw_lines[idx].trim(),
                        missing
                    ),
                    allowed: false,
                });
            }
            idx = j + 1;
        } else {
            idx += 1;
        }
    }

    // v2 token-tree passes: taint, key-level surface symmetry, lock
    // discipline. Library code only; binaries decode nothing untrusted and
    // own their own locking.
    if !binary {
        let nodes = tokens::parse_source(content);
        let is_test = |idx: usize| src.is_test_line(idx);
        let snippet_at = |idx: usize, msg: &str| {
            let line = src.raw_lines.get(idx).map(|l| l.trim()).unwrap_or("");
            format!("{line} — {msg}")
        };
        for t in taint::scan(&nodes, &is_test) {
            findings.push(Finding {
                rule: if t.alloc { RULE_TAINT_ALLOC } else { RULE_TAINT_ARITH },
                file: rel.to_string(),
                line: t.line_idx + 1,
                snippet: snippet_at(t.line_idx, &t.why),
                allowed: false,
            });
        }
        for s in surface::scan(&nodes, &is_test) {
            findings.push(Finding {
                rule: RULE_PLUGIN_SURFACE_KEYS,
                file: rel.to_string(),
                line: s.line_idx + 1,
                snippet: snippet_at(s.line_idx, &s.msg),
                allowed: false,
            });
        }
        for l in locks::scan(&nodes, &is_test) {
            // The pool's own bookkeeping must lock inside its machinery.
            if !l.order && rel == EXEC_ENGINE_FILE {
                continue;
            }
            findings.push(Finding {
                rule: if l.order { RULE_LOCK_ORDER } else { RULE_NO_LOCK_IN_PAR_CLOSURE },
                file: rel.to_string(),
                line: l.line_idx + 1,
                snippet: snippet_at(l.line_idx, &l.msg),
                allowed: false,
            });
        }
        for a in locks::scan_allocs(&nodes, &is_test) {
            // The pool's own task plumbing allocates its result vectors.
            if rel == EXEC_ENGINE_FILE {
                continue;
            }
            findings.push(Finding {
                rule: RULE_NO_ALLOC_IN_PAR_CLOSURE,
                file: rel.to_string(),
                line: a.line_idx + 1,
                snippet: snippet_at(a.line_idx, &a.msg),
                allowed: false,
            });
        }
    }

    findings
}

// ---------------------------------------------------------------- running

/// Recursively collect `.rs` files under `dir`, skipping `target/`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "tests" || name == "benches" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run the linter over the workspace rooted at `root`, applying
/// `allowlist`. Scans `src/` of the facade and every `crates/*/src/`.
pub fn run(root: &Path, allowlist: &Allowlist) -> io::Result<LintReport> {
    let mut files = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = LintReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(&path)?;
        report.files_scanned += 1;
        for mut f in scan_source(&rel, &content) {
            f.allowed = allowlist.permits(&f);
            report.findings.push(f);
        }
    }
    report.unused_allows = allowlist.unused();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(rel: &str, src: &str) -> Vec<Finding> {
        scan_source(rel, src)
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ------------------------------------------------------------ no-panic

    #[test]
    fn no_panic_flags_unwrap_in_compressor_crate() {
        let f = findings_for(
            "crates/sz/src/plugin.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert_eq!(rules(&f), vec![RULE_NO_PANIC]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn no_panic_ignores_tests_strings_comments_and_foreign_crates() {
        let src = "\
// a comment mentioning .unwrap() is fine
fn msg() -> &'static str { \"call .unwrap() later\" }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
";
        assert!(findings_for("crates/sz/src/plugin.rs", src).is_empty());
        // metrics crate is outside the no-panic scope
        let f = findings_for("crates/metrics/src/basic.rs", "fn f() { x.unwrap(); }\n");
        assert!(!rules(&f).contains(&RULE_NO_PANIC));
    }

    #[test]
    fn no_panic_flags_every_panic_macro() {
        for pat in ["panic!(\"x\")", "todo!()", "unimplemented!()", "unreachable!()"] {
            let src = format!("fn f() {{ {pat} }}\n");
            let f = findings_for("crates/core/src/data.rs", &src);
            assert_eq!(rules(&f), vec![RULE_NO_PANIC], "{pat}");
        }
    }

    // ------------------------------------------------------ safety-comment

    #[test]
    fn safety_comment_required_and_honored() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let f = findings_for("crates/core/src/alloc.rs", bad);
        assert_eq!(rules(&f), vec![RULE_SAFETY_COMMENT]);

        let good = "\
// SAFETY: caller guarantees p is valid for reads.
fn f(p: *const u8) -> u8 { unsafe { *p } }
";
        assert!(findings_for("crates/core/src/alloc.rs", good).is_empty());

        let same_line = "let x = unsafe { *p }; // SAFETY: p outlives x\n";
        assert!(findings_for("crates/core/src/alloc.rs", same_line).is_empty());

        // Rustdoc `# Safety` sections count: they are the public-API spelling
        // of the same proof obligation.
        let doc_section = "\
/// Marker for plain-old-data scalars.
///
/// # Safety
///
/// Every bit pattern must be valid.
pub unsafe trait Element {}
";
        assert!(findings_for("crates/core/src/dtype.rs", doc_section).is_empty());
    }

    #[test]
    fn safety_comment_sees_through_attributes_and_comment_blocks() {
        let src = "\
// SAFETY: repr(C) layout is pointer-compatible with the C header;
// the handle is never aliased mutably.
#[no_mangle]
unsafe fn pressio_thing() {}
";
        assert!(findings_for("crates/capi/src/lib.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_skips_fn_pointer_type_positions() {
        let src = "\
struct H { deleter: Option<unsafe extern \"C\" fn(*mut u8)> }
fn take(f: unsafe extern \"C\" fn()) {}
";
        assert!(findings_for("crates/capi/src/lib.rs", src).is_empty());
        // ... but a real unsafe item still needs its comment.
        let f = findings_for("crates/capi/src/lib.rs", "unsafe impl Sync for H {}\n");
        assert_eq!(rules(&f), vec![RULE_SAFETY_COMMENT]);
    }

    #[test]
    fn safety_comment_ignores_the_word_in_strings_and_docs() {
        let src = "/// This type has no unsafe code.\nfn f() -> &'static str { \"unsafe\" }\n";
        assert!(findings_for("crates/core/src/data.rs", src).is_empty());
    }

    // ------------------------------------------------------ plugin-surface

    #[test]
    fn plugin_surface_flags_missing_methods() {
        let src = "\
impl Compressor for Thing {
    fn name(&self) -> &str { \"thing\" }
    fn set_options(&mut self, _: &Options) -> Result<()> { Ok(()) }
    fn get_options(&self) -> Options { Options::new() }
}
";
        let f = findings_for("crates/zfp/src/plugin.rs", src);
        assert_eq!(rules(&f), vec![RULE_PLUGIN_SURFACE, RULE_PLUGIN_SURFACE]);
        assert!(f[0].snippet.contains("fn get_configuration"));
        assert!(f[1].snippet.contains("fn version"));
    }

    #[test]
    fn plugin_surface_accepts_complete_impls_and_skips_test_doubles() {
        let complete = "\
impl Compressor for Thing {
    fn version(&self) -> Version { Version::new(1, 0, 0) }
    fn set_options(&mut self, _: &Options) -> Result<()> { Ok(()) }
    fn get_options(&self) -> Options { Options::new() }
    fn get_configuration(&self) -> Options { base_configuration(self) }
}
";
        assert!(findings_for("crates/zfp/src/plugin.rs", complete).is_empty());

        let test_double = "\
#[cfg(test)]
mod tests {
    impl Compressor for Dummy {
        fn name(&self) -> &str { \"dummy\" }
    }
}
";
        assert!(findings_for("crates/zfp/src/plugin.rs", test_double).is_empty());
    }

    // ----------------------------------------------------------- wire-cast

    #[test]
    fn wire_cast_flags_unchecked_lengths() {
        let src = "let n = r.get_u64()? as usize;\n";
        let f = findings_for("crates/core/src/wire.rs", src);
        assert_eq!(rules(&f), vec![RULE_WIRE_CAST]);
    }

    #[test]
    fn wire_cast_accepts_guarded_lengths() {
        for guarded in [
            "let n = (r.get_u64()?.min(MAX_DECODE_BYTES as u64)) as usize;",
            "let n: usize = r.get_u64()?.try_into().map_err(bad)?;",
            "let dims = checked_geometry(r.get_u32()? as usize, raw)?;",
        ] {
            let f = findings_for("crates/core/src/wire.rs", &format!("{guarded}\n"));
            assert!(f.is_empty(), "{guarded} -> {f:?}");
        }
        // `as usize` with no wire read on the line is out of scope.
        assert!(findings_for("crates/core/src/wire.rs", "let x = y as usize;\n").is_empty());
    }

    // ------------------------------------------------------ no-debug-print

    #[test]
    fn debug_print_flagged_in_libraries_not_binaries() {
        let f = findings_for("crates/io/src/basic.rs", "fn f() { println!(\"x\"); }\n");
        assert_eq!(rules(&f), vec![RULE_NO_DEBUG_PRINT]);
        let f = findings_for("crates/io/src/basic.rs", "fn f() { dbg!(3); }\n");
        assert_eq!(rules(&f), vec![RULE_NO_DEBUG_PRINT]);
        assert!(findings_for("crates/tools/src/main.rs", "fn f() { println!(\"x\"); }\n").is_empty());
        assert!(findings_for("crates/tools/src/bin/x.rs", "fn f() { println!(); }\n").is_empty());
    }

    // ------------------------------------------------- no-unbounded-sleep

    #[test]
    fn unbounded_sleep_flagged_in_libraries() {
        let f = findings_for(
            "crates/meta/src/guard.rs",
            "fn f(ms: u64) { std::thread::sleep(Duration::from_millis(ms)); }\n",
        );
        assert_eq!(rules(&f), vec![RULE_NO_UNBOUNDED_SLEEP]);
    }

    #[test]
    fn capped_sleep_and_exempt_contexts_pass() {
        let capped =
            "std::thread::sleep(Duration::from_millis(backoff.min(MAX_BACKOFF_MS)));\n";
        assert!(findings_for("crates/meta/src/guard.rs", capped).is_empty());
        let clamped = "thread::sleep(Duration::from_millis(ms.clamp(0, 500)));\n";
        assert!(findings_for("crates/meta/src/guard.rs", clamped).is_empty());
        // Binaries and test modules may sleep freely.
        let raw = "fn f() { std::thread::sleep(Duration::from_secs(5)); }\n";
        assert!(findings_for("crates/tools/src/main.rs", raw).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n    {raw}}}\n");
        assert!(findings_for("crates/meta/src/guard.rs", &in_test).is_empty());
    }

    // ------------------------------------------- no-adhoc-thread-spawn

    #[test]
    fn adhoc_spawn_flagged_in_libraries() {
        for pat in [
            "std::thread::spawn(move || work());",
            "std::thread::Builder::new().name(n).spawn(f)?;",
            "std::thread::scope(|s| { s.spawn(|| work()); });",
            "crossbeam::scope(|s| { s.spawn(|_| work()); });",
        ] {
            let src = format!("fn f() {{ {pat} }}\n");
            let f = findings_for("crates/sz/src/plugin.rs", &src);
            assert_eq!(rules(&f), vec![RULE_NO_ADHOC_THREAD_SPAWN], "{pat}");
        }
    }

    #[test]
    fn adhoc_spawn_exempts_engine_binaries_and_tests() {
        let spawn = "fn f() { std::thread::spawn(|| work()); }\n";
        // The execution engine itself owns its workers.
        assert!(findings_for("crates/core/src/exec.rs", spawn).is_empty());
        // Binaries may spawn freely.
        assert!(findings_for("crates/tools/src/main.rs", spawn).is_empty());
        assert!(findings_for("crates/bench/src/bin/exp.rs", spawn).is_empty());
        // Test modules are masked.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n    {spawn}}}\n");
        assert!(findings_for("crates/sz/src/plugin.rs", &in_test).is_empty());
    }

    // ------------------------------------------- no-timestamp-outside-trace

    #[test]
    fn timestamp_flagged_in_libraries() {
        for pat in [
            "let t0 = std::time::Instant::now();",
            "let wall = SystemTime::now();",
        ] {
            let src = format!("fn f() {{ {pat} }}\n");
            let f = findings_for("crates/sz/src/plugin.rs", &src);
            assert_eq!(rules(&f), vec![RULE_NO_TIMESTAMP], "{pat}");
        }
    }

    #[test]
    fn timestamp_exempts_trace_module_binaries_and_tests() {
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        // The span collector owns the clock.
        assert!(findings_for("crates/core/src/trace.rs", clock).is_empty());
        // Binaries may read clocks freely.
        assert!(findings_for("crates/tools/src/main.rs", clock).is_empty());
        assert!(findings_for("crates/bench/src/bin/exp.rs", clock).is_empty());
        // Test modules are masked.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n    {clock}}}\n");
        assert!(findings_for("crates/zfp/src/kernel.rs", &in_test).is_empty());
    }

    // ----------------------------------------------------------- allowlist

    #[test]
    fn allowlist_waives_by_rule_file_and_substring() {
        let allow = Allowlist::parse(
            "# comment line\n\
             no-panic crates/sz/src/global.rs lock_store().expect  # cannot poison\n",
        );
        let mut hit = Finding {
            rule: RULE_NO_PANIC,
            file: "crates/sz/src/global.rs".to_string(),
            line: 10,
            snippet: "let g = lock_store().expect(\"never poisoned\");".to_string(),
            allowed: false,
        };
        assert!(allow.permits(&hit));
        hit.file = "crates/sz/src/plugin.rs".to_string();
        assert!(!allow.permits(&hit));
        // rule mismatch
        hit.file = "crates/sz/src/global.rs".to_string();
        hit.rule = RULE_WIRE_CAST;
        assert!(!allow.permits(&hit));
    }

    #[test]
    fn allowlist_reports_unused_entries() {
        let allow = Allowlist::parse("no-panic crates/x/src/a.rs nothing matches this\n");
        assert_eq!(allow.unused().len(), 1);
        let used = Allowlist::parse("no-panic crates/x/src/a.rs boom\n");
        let f = Finding {
            rule: RULE_NO_PANIC,
            file: "crates/x/src/a.rs".to_string(),
            line: 1,
            snippet: "boom".to_string(),
            allowed: false,
        };
        assert!(used.permits(&f));
        assert!(used.unused().is_empty());
    }

    // ----------------------------------------------------------- sanitizer

    #[test]
    fn sanitizer_strips_strings_comments_and_raw_strings() {
        let s = sanitize("let a = \"panic!(\"; // .unwrap()\nlet r = r#\"x.expect(\"#;");
        assert!(!s.contains("panic!("));
        assert!(!s.contains(".unwrap()"));
        assert!(!s.contains(".expect("));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn sanitizer_keeps_lifetimes_and_chars_straight() {
        let s = sanitize("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(s.contains("fn f<'a>"));
        assert!(!s.contains("'x'"));
    }

    #[test]
    fn explain_covers_every_rule() {
        for rule in ALL_RULES {
            assert!(explain(rule).is_some(), "{rule}");
        }
        assert!(explain("nonsense").is_none());
    }
}
