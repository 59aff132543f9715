//! # pressio-core
//!
//! Core abstractions of **libpressio-rs**, a from-scratch Rust reproduction
//! of *LibPressio* (Underwood et al., SC 2021): a generic, introspectable,
//! low-overhead interface for lossless and error-bounded lossy compression of
//! dense tensors.
//!
//! The six major components of the paper's Figure 1 map to:
//!
//! | paper component      | here |
//! |----------------------|------|
//! | `pressio`            | [`Pressio`], [`Registry`], [`Error`] |
//! | `pressio_data`       | [`Data`], [`DType`], [`AlignedVec`] |
//! | `pressio_compressor` | [`Compressor`], [`CompressorHandle`] |
//! | `pressio_options`    | [`Options`], [`OptionValue`] |
//! | `pressio_io`         | [`IoPlugin`] |
//! | `pressio_metrics`    | [`MetricsPlugin`] |
//!
//! Concrete plugins live in sibling crates (`pressio-sz`, `pressio-zfp`,
//! `pressio-mgard`, `pressio-codecs`, `pressio-meta`, `pressio-metrics`,
//! `pressio-io`) and register themselves into the global [`registry()`];
//! the `libpressio` facade crate wires everything together.
//!
//! ```
//! use pressio_core::{registry, Data, Options, Pressio};
//! # use pressio_core::{Compressor, Version, Result};
//! # #[derive(Clone)] struct Noop;
//! # impl Compressor for Noop {
//! #   fn name(&self) -> &str { "noop" }
//! #   fn version(&self) -> Version { Version::new(0,1,0) }
//! #   fn get_options(&self) -> Options { Options::new() }
//! #   fn set_options(&mut self, _: &Options) -> Result<()> { Ok(()) }
//! #   fn compress(&mut self, i: &Data) -> Result<Data> { Ok(Data::from_bytes(i.as_bytes())) }
//! #   fn decompress(&mut self, c: &Data, o: &mut Data) -> Result<()> {
//! #     o.as_bytes_mut().copy_from_slice(c.as_bytes()); Ok(())
//! #   }
//! #   fn clone_compressor(&self) -> Box<dyn Compressor> { Box::new(self.clone()) }
//! # }
//! // Third-party plugins register without modifying this crate:
//! registry().register_compressor("noop", || Box::new(Noop));
//!
//! let library = Pressio::new();
//! let mut compressor = library.get_compressor("noop").unwrap();
//! let input = Data::from_slice(&[1.0f32, 2.0, 3.0], vec![3]).unwrap();
//! let compressed = compressor.compress(&input).unwrap();
//! let mut output = Data::owned(pressio_core::DType::F32, vec![3]);
//! compressor.decompress(&compressed, &mut output).unwrap();
//! assert_eq!(input, output);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod cancel;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod checksum;
pub mod chunked;
pub mod common;
pub mod compressor;
pub mod data;
pub mod dtype;
pub mod error;
pub mod exec;
pub mod handle;
pub mod io;
pub mod metrics;
pub mod options;
pub mod registry;
pub mod serve;
pub mod sync;
pub mod trace;
pub mod version;
pub mod wire;

#[cfg(feature = "loom")]
pub use loom;

pub use alloc::{AlignedVec, BUFFER_ALIGN};
pub use cancel::CancelToken;
pub use checksum::{fnv1a64, xxh64, Fnv1a64};
pub use common::{
    value_min_max, value_range, ErrorBound, OPT_ABS, OPT_LOSSLESS, OPT_NTHREADS, OPT_PREC,
    OPT_RATE, OPT_REL,
};
pub use compressor::{base_configuration, require_dtype, Compressor, Stability, ThreadSafety};
pub use data::Data;
pub use dtype::{DType, Element, ALL_DTYPES};
pub use error::{Error, ErrorCode, Result};
pub use exec::{
    available_threads, chunk_ranges, par_chunks, par_map_indexed, plan_chunks, plan_chunks_min,
    resolve_nthreads, run_cancellable, run_deadlined, spawn_service, watchdog_stats, with_scratch,
    Scratch, MIN_CHUNK_BYTES, SERIAL_FALLBACK_BYTES,
};
pub use handle::CompressorHandle;
pub use io::IoPlugin;
pub use metrics::MetricsPlugin;
pub use options::{
    validate_plugin_options, CastSafety, FromOptionValue, OptionKind, OptionValue, Options,
};
pub use registry::{registry, Pressio, Registry};
pub use serve::{AdmissionQueue, DrainGate, InFlightPermit, QueueStats, ShedReason};
pub use trace::{chrome_trace_json, SpanEvent, TraceReport};
pub use version::Version;
pub use wire::{bytes_to_elements, checked_geometry, elements_as_bytes, ByteReader, ByteWriter, MAX_DECODE_BYTES};
