//! Table II workload — "distributed experiment harness" (LibPressio only;
//! the paper's native column is empty for this row because no
//! multi-compressor native equivalent exists).
//!
//! A worker pool sweeps a (dataset × compressor × bound) grid in parallel —
//! the MPI-distributed experiment harness of the paper, with scoped
//! threads standing in for ranks. Thread safety introspection decides which
//! compressors may run concurrently.
//!
//! Run: `cargo run --release --example distributed_experiment`

use std::sync::atomic::{AtomicUsize, Ordering};

use libpressio::prelude::*;
use libpressio::zchecker::Assessment;

struct Job {
    dataset: &'static str,
    compressor: &'static str,
    rel_bound: f64,
}

fn main() -> libpressio::Result<()> {
    let library = libpressio::instance();
    let mut jobs = Vec::new();
    for dataset in ["hurricane", "nyx", "scale-letkf"] {
        for compressor in ["sz_threadsafe", "zfp", "mgard"] {
            for rel_bound in [1e-2, 1e-3, 1e-4] {
                jobs.push(Job {
                    dataset,
                    compressor,
                    rel_bound,
                });
            }
        }
    }
    // Only schedule concurrently what the plugins declare safe.
    let all_safe = jobs.iter().all(|j| {
        library
            .get_compressor(j.compressor)
            .map(|c| c.thread_safety() == ThreadSafety::Multiple)
            .unwrap_or(false)
    });
    let workers = if all_safe { 8 } else { 1 };

    let next = AtomicUsize::new(0);
    let results: Vec<parking_lot_free::Cell> = (0..jobs.len()).map(|_| Default::default()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let j = &jobs[i];
                let input = libpressio::datagen::by_name(j.dataset, 1, 99).expect("dataset");
                let opts = Options::new().with(pressio_core::OPT_REL, j.rel_bound);
                let line = match Assessment::run(j.compressor, &opts, &input) {
                    Ok(a) => format!(
                        "{:<12} {:<14} {:>8.0e} ratio {:>8.2} psnr {:>7.2}",
                        j.dataset,
                        j.compressor,
                        j.rel_bound,
                        a.value("size:compression_ratio").unwrap_or(f64::NAN),
                        a.value("error_stat:psnr").unwrap_or(f64::NAN),
                    ),
                    Err(e) => format!("{:<12} {:<14} {:>8.0e} error: {e}", j.dataset, j.compressor, j.rel_bound),
                };
                results[i].set(line);
            });
        }
    });

    println!("distributed experiment: {} jobs on {workers} workers\n", jobs.len());
    for r in &results {
        println!("{}", r.get());
    }
    Ok(())
}

/// A tiny write-once cell so workers can publish rows without unsafe code.
mod parking_lot_free {
    use std::sync::Mutex;

    #[derive(Default)]
    pub struct Cell(Mutex<String>);

    impl Cell {
        pub fn set(&self, s: String) {
            *self.0.lock().expect("cell") = s;
        }
        pub fn get(&self) -> String {
            self.0.lock().expect("cell").clone()
        }
    }
}
