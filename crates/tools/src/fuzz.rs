//! The `pressio fuzz-decode` corruption harness.
//!
//! Every compressor's *decompressor* is a parser of untrusted bytes: streams
//! come off disks, networks, and archives that bit-rot, truncate, and
//! mis-splice. This harness drives every registered compressor's decoder
//! with systematically damaged copies of its own valid stream — one sweep
//! per [`FaultMode`] (bit flips, truncation, garbage extension, zeroed
//! regions) — and demands the *robustness contract*:
//!
//! * **no panics** — a hostile stream must never unwind into the host;
//! * **no hangs** — decoding runs under a watchdog deadline
//!   ([`run_with_deadline`]) and must finish inside it;
//! * **structured errors** — rejection surfaces as an [`Error`] with a
//!   meaningful [`ErrorCode`], never as a crash.
//!
//! Plain codecs may legitimately *accept* a damaged stream (a bit flip in a
//! raw payload is just different data); that is counted, not failed. The
//! `guard` meta-compressor is held to the strict standard: its integrity
//! frame must reject **every** stream the mutator actually changed.
//!
//! That strictness is also a blind spot: byte-level damage always breaks the
//! frame's checksum first, so nothing behind the checksum — the geometry
//! echo that sizes the output, the child decoding a damaged payload under a
//! valid frame — is ever reached. The *resealed* targets close it: after
//! the damage the frame's trailer is recomputed (the checksum is integrity,
//! not authentication — anyone can), and the decoder is handed an empty
//! output so the frame alone decides what is allocated. A resealed frame
//! may be accepted; it may not panic, hang, or abort on an allocation.
//!
//! Byte-level damage also rarely gets past a decoder's first magic. The
//! *hostile seeds* ([`libpressio::hostile`]) do: well-formed streams whose
//! headers declare sizes nothing backs, each an abort of the process when it
//! was found. Every seed is decoded as-is first — it must be rejected — and
//! then mutated like any other clean stream.
//!
//! Determinism: the whole sweep derives from one `--seed`, with each
//! (plugin, mode, case) triple hashed to its own RNG stream, so a failure
//! report is reproducible bit for bit.

use std::fmt;

use libpressio::core::ErrorCode;
use libpressio::meta::{mutate_stream, run_with_deadline, FaultMode, ALL_FAULT_MODES};
use libpressio::{DType, Data, Options};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::contract::roundtrip_preset;

/// Tuning for one fuzz sweep.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Mutated streams per (compressor, mode) pair.
    pub iterations: u32,
    /// Master seed; every case RNG derives from it deterministically.
    pub seed: u64,
    /// Watchdog deadline per decode attempt, in ms (0 disables — only
    /// sensible under a debugger).
    pub timeout_ms: u64,
    /// Restrict the sweep to one compressor (`None` = all registered).
    pub compressor: Option<String>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 64,
            seed: 1,
            timeout_ms: 2_000,
            compressor: None,
        }
    }
}

/// One robustness-contract violation.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Registry name of the offending compressor.
    pub plugin: String,
    /// Mutator mode that produced the stream.
    pub mode: &'static str,
    /// Case index within that (plugin, mode) sweep.
    pub case: u32,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} case {}]: {}",
            self.plugin, self.mode, self.case, self.detail
        )
    }
}

/// Outcome of a fuzz sweep.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Compressors actually fuzzed.
    pub compressors: usize,
    /// Mutated streams decoded.
    pub cases: usize,
    /// Decodes that returned a structured error (the expected outcome).
    pub rejected: usize,
    /// Decodes that accepted the damaged stream (legal for plain codecs:
    /// damaged payload bytes are just different data).
    pub accepted: usize,
    /// Mutations that left the stream byte-identical (e.g. zeroing a
    /// region that was already zero); these cannot be expected to fail.
    pub unchanged: usize,
    /// Compressors skipped, as `(plugin, reason)` pairs — e.g. plugins
    /// that refuse to compress unconfigured.
    pub skipped: Vec<(String, String)>,
    /// Robustness-contract violations: panics, hangs, or a guard frame
    /// accepting damage.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when every decode honored the robustness contract.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzzed {} compressors, {} damaged streams: {} rejected, {} accepted, \
             {} unchanged-by-mutation, {} failure(s), {} skip(s)",
            self.compressors,
            self.cases,
            self.rejected,
            self.accepted,
            self.unchanged,
            self.failures.len(),
            self.skipped.len()
        )?;
        for v in &self.failures {
            writeln!(f, "  FAIL {v}")?;
        }
        for (p, r) in &self.skipped {
            writeln!(f, "  skip {p}: {r}")?;
        }
        Ok(())
    }
}

/// How one decode attempt ended.
enum CaseOutcome {
    /// Decoder returned `Ok` on the damaged stream.
    Accepted,
    /// Decoder returned a structured error.
    Rejected,
    /// Decoder panicked (caught on the worker).
    Panicked,
    /// Decoder blew the watchdog deadline.
    TimedOut,
}

/// The smooth f32 field every compressor is fuzzed over (same shape as the
/// contract checker's round-trip field).
fn seed_input() -> Data {
    let dims = vec![16usize, 16, 16];
    let n: usize = dims.iter().product();
    let v: Vec<f32> = (0..n)
        .map(|i| ((i as f32) * 0.01).sin() * 100.0 + (i as f32) * 0.001)
        .collect();
    Data::from_vec(v, dims).expect("static geometry")
}

/// Deterministic per-case RNG: master seed + plugin + mode + case index.
fn case_rng(seed: u64, plugin: &str, mode: FaultMode, case: u32) -> StdRng {
    let mut h = libpressio::core::Fnv1a64::new();
    h.update_u64(seed);
    h.update(plugin.as_bytes());
    h.update(mode.name().as_bytes());
    h.update_u64(case as u64);
    StdRng::seed_from_u64(h.finish())
}

/// One fuzz subject: a registry name plus an optional option overlay that
/// assembles a meta-compressor stack on top of it.
struct Target {
    /// Display label for reports (`guard>chunking>sz` for stacks).
    label: String,
    /// Registry name armed for every case.
    name: String,
    /// Extra options applied after the generic arming — wires `guard`'s
    /// child, the parallel meta's child, and so on.
    stack: Option<Options>,
    /// Recompute the guard frame's checksum after every mutation and decode
    /// into an empty output (see the module docs).
    resealed: bool,
    /// Element type of the empty output a hostile seed decodes into.
    seed_dtype: Option<DType>,
}

/// Make a damaged guard frame pass its checksum again: frame v2's trailer
/// is XXH64 over every byte before it.
fn reseal(frame: &mut [u8]) {
    if let Some(covered) = frame.len().checked_sub(8) {
        let sum = libpressio::core::xxh64(&frame[..covered]);
        frame[covered..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Stacked meta-compressor targets swept in addition to the plain registry
/// walk: the guard wrapping a parallel meta wrapping a real codec. Damage
/// must stop at the guard's frame before the inner decoders parse anything,
/// no matter how many layers sit underneath.
fn stacked_targets() -> Vec<Target> {
    let guard_over = |child: &str| Options::new().with("guard:compressor", child);
    vec![
        Target {
            label: "guard>chunking>sz".to_string(),
            name: "guard".to_string(),
            stack: Some(
                guard_over("chunking")
                    .with("chunking:compressor", "sz")
                    .with("chunking:nthreads", 2u32)
                    .with("guard:timeout_ms", 2_000u64),
            ),
            resealed: false,
            seed_dtype: None,
        },
        Target {
            label: "guard>many_independent>zfp".to_string(),
            name: "guard".to_string(),
            stack: Some(
                guard_over("many_independent")
                    .with("many_independent:compressor", "zfp")
                    .with("many_independent:nthreads", 2u32)
                    .with("guard:timeout_ms", 2_000u64),
            ),
            resealed: false,
            seed_dtype: None,
        },
        // Behind a valid checksum: `noop` accepts any payload of the right
        // size, so the frame's geometry echo is all that stands between a
        // damaged dimension and the allocator; `sz` parses what it is given.
        Target {
            label: "guard>noop[resealed]".to_string(),
            name: "guard".to_string(),
            stack: Some(guard_over("noop")),
            resealed: true,
            seed_dtype: None,
        },
        Target {
            label: "guard>sz[resealed]".to_string(),
            name: "guard".to_string(),
            stack: Some(guard_over("sz")),
            resealed: true,
            seed_dtype: None,
        },
        // The registry walk already fuzzes `sz` with its default deflate
        // tail and the standalone `rans` codec; this target covers the
        // third combination — SZ streams whose sections carry the rANS
        // backend tag — so frequency-header damage inside a lossy stream
        // is exercised too.
        Target {
            label: "sz[lossless=rans]".to_string(),
            name: "sz".to_string(),
            stack: Some(Options::new().with("sz:lossless", "rans")),
            resealed: false,
            seed_dtype: None,
        },
    ]
}

/// Build a configured instance of `name` the same way the contract checker
/// does: a generic error bound plus any documented preset, plus the stack
/// overlay when the target is a meta-compressor stack.
fn armed_handle(
    name: &str,
    stack: Option<&Options>,
) -> Result<libpressio::CompressorHandle, libpressio::Error> {
    let mut h = libpressio::registry().compressor(name)?;
    let _ = h.set_options_unchecked(&Options::new().with("pressio:abs", 1e-3f64));
    if let Some(preset) = roundtrip_preset(name) {
        h.set_options(&preset)?;
    }
    if let Some(stack) = stack {
        h.set_options(stack)?;
        // The overlay may have swapped the child: re-apply the generic
        // bound so the inner codec is armed too.
        let _ = h.set_options_unchecked(&Options::new().with("pressio:abs", 1e-3f64));
    }
    Ok(h)
}

/// Decode one damaged stream on a watchdog worker, catching panics.
fn decode_case(target: &Target, mutated: Vec<u8>, timeout_ms: u64) -> CaseOutcome {
    // A resealed frame and a hostile seed decode into an empty output: the
    // stream alone decides what is allocated.
    let empty = target.seed_dtype.or(target.resealed.then_some(DType::F32));
    let handle = match armed_handle(&target.name, target.stack.as_ref()) {
        Ok(h) => h,
        // The compressor armed moments ago; losing the registry entry
        // mid-sweep is a harness bug, surfaced as a failure by the caller.
        Err(_) => return CaseOutcome::Panicked,
    };
    let outcome = run_with_deadline(timeout_ms, "fuzz-decode", move || {
        // Arm a memory budget on the worker's ambient token: a damaged
        // header may declare any geometry up to the wire-level decode cap
        // (1 TiB), and decoders charge large allocations cooperatively —
        // the budget turns an absurd claim into a clean error instead of
        // an OOM abort. 256 MiB dwarfs any honest decode of the 16^3 seed.
        if let Some(token) = libpressio::core::cancel::current() {
            token.set_memory_budget(256 << 20);
        }
        let mut handle = handle;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut out = match empty {
                Some(dtype) => Data::empty(dtype),
                None => Data::owned(DType::F32, vec![16usize, 16, 16]),
            };
            handle.decompress(&Data::from_bytes(&mutated), &mut out)
        }));
        match caught {
            Ok(Ok(())) => CaseOutcome::Accepted,
            Ok(Err(_)) => CaseOutcome::Rejected,
            Err(_) => CaseOutcome::Panicked,
        }
    });
    match outcome {
        Ok(o) => o,
        Err(e) if e.code() == ErrorCode::Timeout => CaseOutcome::TimedOut,
        // Worker infrastructure failed (spawn error): count as a panic-level
        // harness failure rather than silently passing.
        Err(_) => CaseOutcome::Panicked,
    }
}

/// Fuzz one compressor's decoder across every mutation mode.
pub fn fuzz_compressor(name: &str, cfg: &FuzzConfig, report: &mut FuzzReport) {
    fuzz_target(
        &Target {
            label: name.to_string(),
            name: name.to_string(),
            stack: None,
            resealed: false,
            seed_dtype: None,
        },
        cfg,
        report,
    );
}

/// Fuzz one target (plain compressor or meta stack) across every mode.
fn fuzz_target(target: &Target, cfg: &FuzzConfig, report: &mut FuzzReport) {
    libpressio::init();
    let input = seed_input();
    let name = target.label.as_str();

    let mut h = match armed_handle(&target.name, target.stack.as_ref()) {
        Ok(h) => h,
        Err(e) => {
            report.skipped.push((name.to_string(), format!("cannot configure: {e}")));
            return;
        }
    };
    let clean = match h.compress(&input) {
        Ok(c) => c.as_bytes().to_vec(),
        Err(e)
            if matches!(
                e.code(),
                ErrorCode::Unsupported | ErrorCode::InvalidArgument | ErrorCode::NotFound
            ) =>
        {
            // Unconfigured-by-default plugins may refuse to produce a
            // stream; there is then nothing to mutate. Never silent.
            report.skipped.push((name.to_string(), format!("compress refused: {e}")));
            return;
        }
        Err(e) => {
            report.failures.push(FuzzFailure {
                plugin: name.to_string(),
                mode: "none",
                case: 0,
                detail: format!("compress failed on a plain f32 field: {e}"),
            });
            return;
        }
    };

    sweep(target, &clean, cfg, report);
}

/// Decode a hostile seed as-is — anything but a structured rejection fails
/// (an abort takes the sweep down with it) — then sweep it like a clean stream.
fn fuzz_seed(seed: libpressio::hostile::HostileStream, cfg: &FuzzConfig, report: &mut FuzzReport) {
    let target = Target {
        label: format!("{}[{}]", seed.plugin, seed.name),
        name: seed.plugin.to_string(),
        stack: None,
        resealed: false,
        seed_dtype: Some(seed.dtype),
    };
    if !matches!(decode_case(&target, seed.bytes.clone(), cfg.timeout_ms), CaseOutcome::Rejected) {
        report.failures.push(FuzzFailure {
            plugin: target.label.clone(),
            mode: "none",
            case: 0,
            detail: "hostile seed was not rejected with a structured error".to_string(),
        });
    }
    sweep(&target, &seed.bytes, cfg, report);
}

/// Mutate `clean` in every mode and decode each damaged copy.
fn sweep(target: &Target, clean: &[u8], cfg: &FuzzConfig, report: &mut FuzzReport) {
    let name = target.label.as_str();
    report.compressors += 1;
    // The guard's integrity frame must reject every byte-level change —
    // whether it wraps a codec directly or a whole meta stack; for
    // everything else acceptance of damaged payload bytes is legal.
    let strict = target.name == "guard" && !target.resealed;

    for mode in ALL_FAULT_MODES {
        for case in 0..cfg.iterations {
            let mut rng = case_rng(cfg.seed, name, mode, case);
            let intensity = rng.gen_range(1..48u32);
            let mut mutated = mutate_stream(clean, mode, intensity, &mut rng);
            if target.resealed {
                reseal(&mut mutated);
            }
            let changed = mutated != clean;
            if !changed {
                report.unchanged += 1;
            }
            report.cases += 1;
            match decode_case(target, mutated, cfg.timeout_ms) {
                CaseOutcome::Rejected => report.rejected += 1,
                CaseOutcome::Accepted => {
                    report.accepted += 1;
                    if strict && changed {
                        report.failures.push(FuzzFailure {
                            plugin: name.to_string(),
                            mode: mode.name(),
                            case,
                            detail: "integrity frame accepted a damaged stream".to_string(),
                        });
                    }
                }
                CaseOutcome::Panicked => report.failures.push(FuzzFailure {
                    plugin: name.to_string(),
                    mode: mode.name(),
                    case,
                    detail: "decoder panicked on a damaged stream".to_string(),
                }),
                CaseOutcome::TimedOut => report.failures.push(FuzzFailure {
                    plugin: name.to_string(),
                    mode: mode.name(),
                    case,
                    detail: format!(
                        "decoder exceeded the {} ms watchdog deadline",
                        cfg.timeout_ms
                    ),
                }),
            }
        }
    }
}

/// Fuzz every registered compressor (or the one named in
/// [`FuzzConfig::compressor`]), then the stacked meta-compressor targets.
pub fn fuzz_all(cfg: &FuzzConfig) -> FuzzReport {
    libpressio::init();
    let mut report = FuzzReport::default();
    match &cfg.compressor {
        Some(one) => fuzz_compressor(one, cfg, &mut report),
        None => {
            for name in libpressio::instance().supported_compressors() {
                fuzz_compressor(&name, cfg, &mut report);
            }
            for target in stacked_targets() {
                fuzz_target(&target, cfg, &mut report);
            }
            for seed in libpressio::hostile::streams().expect("no token is installed") {
                fuzz_seed(seed, cfg, &mut report);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rng_is_deterministic_and_distinct() {
        let draw = |p: &str, m: FaultMode, c: u32| {
            let mut r = case_rng(9, p, m, c);
            r.gen_range(0..u64::MAX)
        };
        assert_eq!(draw("sz", FaultMode::Bitflip, 0), draw("sz", FaultMode::Bitflip, 0));
        assert_ne!(draw("sz", FaultMode::Bitflip, 0), draw("sz", FaultMode::Bitflip, 1));
        assert_ne!(draw("sz", FaultMode::Bitflip, 0), draw("sz", FaultMode::Truncate, 0));
        assert_ne!(draw("sz", FaultMode::Bitflip, 0), draw("zfp", FaultMode::Bitflip, 0));
    }

    #[test]
    fn a_resealed_frame_gets_past_the_checksum() {
        libpressio::init();
        let mut guard = armed_handle("guard", None).expect("guard arms");
        let mut frame = guard.compress(&seed_input()).expect("compress").as_bytes().to_vec();
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        let mut out = Data::empty(DType::F32);
        let err = guard
            .decompress(&Data::from_bytes(&frame), &mut out)
            .expect_err("a flipped payload bit breaks the checksum");
        assert_eq!(err.code(), ErrorCode::CorruptStream);
        // Resealed, the same damage reaches the child: noop takes the
        // flipped bit as different data.
        reseal(&mut frame);
        guard
            .decompress(&Data::from_bytes(&frame), &mut out)
            .expect("resealed frame passes the integrity check");
        assert_ne!(out.as_bytes(), seed_input().as_bytes());
    }

    #[test]
    fn quick_sweep_over_one_codec_is_clean() {
        let cfg = FuzzConfig {
            iterations: 4,
            seed: 3,
            timeout_ms: 2_000,
            compressor: Some("deflate".to_string()),
        };
        let report = fuzz_all(&cfg);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.compressors, 1);
        assert_eq!(report.cases, 4 * ALL_FAULT_MODES.len());
    }
}
