//! # libpressio
//!
//! A from-scratch Rust reproduction of **LibPressio** (Underwood, Malvoso,
//! Calhoun, Di, Cappello — *Productive and Performant Generic Lossy Data
//! Compression with LibPressio*, SC 2021): one uniform, introspectable,
//! low-overhead interface over many lossless and error-bounded lossy
//! compressors for dense tensors.
//!
//! This facade crate re-exports the whole workspace and wires every builtin
//! plugin into the global registry. See `DESIGN.md` for the system
//! inventory and the paper-experiment index, and `EXPERIMENTS.md` for the
//! reproduced results.
//!
//! ## Quickstart
//!
//! The Rust rendering of the paper's Appendix A example:
//!
//! ```
//! use libpressio::prelude::*;
//!
//! let library = libpressio::instance();
//!
//! // Get a handle to a compressor and attach metrics.
//! let mut compressor = library.get_compressor("sz").unwrap();
//! compressor.set_metrics(library.new_metrics(&["size"]).unwrap());
//!
//! // Configure it: introspectable, typed options.
//! let options = Options::new()
//!     .with("sz:error_bound_mode_str", "abs")
//!     .with("sz:abs_err_bound", 0.5f64);
//! compressor.check_options(&options).unwrap();
//! compressor.set_options(&options).unwrap();
//!
//! // A 30x30x30 double-precision buffer.
//! let raw: Vec<f64> = (0..27_000).map(|i| (i as f64 * 1e-3).sin() * 100.0).collect();
//! let input = Data::from_vec(raw, vec![30, 30, 30]).unwrap();
//!
//! // Compress and decompress.
//! let compressed = compressor.compress(&input).unwrap();
//! let mut output = Data::owned(DType::F64, vec![30, 30, 30]);
//! compressor.decompress(&compressed, &mut output).unwrap();
//!
//! // Read the compression ratio from the metrics.
//! let ratio = compressor
//!     .metrics_results()
//!     .get_as::<f64>("size:compression_ratio")
//!     .unwrap()
//!     .unwrap();
//! assert!(ratio > 1.0);
//! ```
//!
//! To use ZFP or any other registered compressor, only the plugin name and
//! the option keys change — the paper's portability claim, verbatim.

#![warn(missing_docs)]

use std::sync::Once;

pub mod hostile;

pub use pressio_codecs as codecs;
pub use pressio_core as core;
pub use pressio_datagen as datagen;
pub use pressio_io as io;
pub use pressio_meta as meta;
pub use pressio_metrics as metrics;
pub use pressio_mgard as mgard;
pub use pressio_sz as sz;
pub use pressio_sz3 as sz3;
pub use pressio_tthresh as tthresh;
pub use pressio_zfp as zfp;
pub use zchecker_lite as zchecker;

pub use pressio_core::{
    registry, Compressor, CompressorHandle, DType, Data, Error, ErrorCode, IoPlugin,
    MetricsPlugin, OptionKind, OptionValue, Options, Pressio, Result, ThreadSafety, Version,
};

/// Commonly used items for `use libpressio::prelude::*`.
pub mod prelude {
    pub use pressio_core::{
        Compressor, CompressorHandle, DType, Data, IoPlugin, MetricsPlugin, OptionKind,
        OptionValue, Options, Pressio, ThreadSafety,
    };
}

/// Register every builtin plugin exactly once (idempotent, thread safe).
pub fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        pressio_codecs::register_builtins();
        pressio_sz::register_builtins();
        pressio_sz3::register_builtins();
        pressio_tthresh::register_builtins();
        pressio_zfp::register_builtins();
        pressio_mgard::register_builtins();
        pressio_meta::register_builtins();
        pressio_metrics::register_builtins();
        pressio_io::register_builtins();
        pressio_datagen::register_builtins();
    });
}

/// Acquire a library handle with all builtin plugins registered — the
/// `pressio_instance()` analog.
pub fn instance() -> Pressio {
    init();
    Pressio::new()
}

#[cfg(test)]
mod tests {
    #[test]
    fn instance_registers_everything() {
        let library = super::instance();
        let compressors = library.supported_compressors();
        for name in [
            "sz",
            "sz_threadsafe",
            "sz_omp",
            "sz_interp",
            "tthresh",
            "zfp",
            "mgard",
            "deflate",
            "blosc",
            "fpzip",
            "chunking",
            "opt",
            "noop",
        ] {
            assert!(
                compressors.iter().any(|c| c == name),
                "{name} missing from {compressors:?}"
            );
        }
        assert!(compressors.len() >= 25, "got {}", compressors.len());
        assert!(library.supported_metrics().len() >= 12);
        assert!(library.supported_io().len() >= 8);
    }
}
