//! Library side of the pressio tools.
//!
//! * [`contract`] — the live plugin-contract checker: iterates the global
//!   registry and verifies that every registered compressor, metrics, and IO
//!   plugin honors the LibPressio interface contract (introspection
//!   idempotency, unknown-key rejection, documentation consistency, and
//!   metadata-preserving round trips).
//!
//! * [`lint`] — the `pressio-lint` static-analysis engine: a
//!   dependency-light source scanner enforcing workspace hygiene rules
//!   (no panics in library code, `// SAFETY:` comments on `unsafe`,
//!   complete plugin trait surfaces, and forbidden debug/wire patterns).
//!
//! * [`fuzz`] — the `pressio fuzz-decode` corruption harness: feeds every
//!   registered compressor's decompressor deterministically damaged streams
//!   (bit flips, truncation, extension, zeroed regions) and fails on
//!   panics, hangs, or a `guard` frame accepting damage.
//!
//! * [`chaos`] — the `pressio chaos` fault-injection sweep: arms the
//!   execution engine's seeded chaos hooks (`--features chaos`) and drives
//!   every pooled plugin plus the guard/parallel meta stacks through
//!   faulted round trips, asserting the pool self-heals, stops are
//!   structured errors, and a faulted handle never corrupts later runs.
//!
//! * [`trace_cmd`] — the `pressio trace` observability harness: runs a
//!   round trip on a datagen field with the `pressio_core::trace` span
//!   collector enabled and reports the per-stage span tree, with a
//!   chrome-trace JSON export and a `--check` well-nestedness validation.
//!
//! All are also exposed as binaries: `pressio contract`,
//! `pressio fuzz-decode`, and `pressio-lint`. Third-party plugin authors
//! can run the contract checker and fuzzer against their own plugins by
//! registering them and calling [`contract::check_all`] /
//! [`fuzz::fuzz_all`].

pub mod chaos;
pub mod contract;
pub mod fuzz;
pub mod lint;
pub mod serve;
pub mod trace_cmd;
