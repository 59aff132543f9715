//! Parallel meta-compressors: `chunking`, `many_independent`, and
//! `many_dependent`.
//!
//! These consume the thread-safety introspection of the child plugin
//! (Section IV-B of the paper): a `Multiple`-safe child runs with one clone
//! per worker task on the shared execution engine (`pressio_core::exec`); a
//! `Serialized` or `Single` child silently degrades to sequential execution
//! instead of racing on shared state — which is exactly the reason the
//! interface exposes thread safety at all.
//!
//! `Compressor` is `Send` but not `Sync`, so each task's child clone is
//! staged behind its own uncontended `Mutex` (locked by exactly one task).

use pressio_core::{
    chunked, ByteReader, ByteWriter, Compressor, Data, Error, Options, Result, ThreadSafety, Version,
};

use crate::util::{default_child, resolve_child};

const CHUNK_MAGIC: u32 = 0x4348_4E4B;

/// One decompression task: a child clone plus the disjoint output slice it
/// owns, staged behind an uncontended per-task mutex (see module docs).
type DecompressTask<'a> = parking_lot::Mutex<(Box<dyn Compressor>, &'a mut [Data])>;

/// One pool task's state: its child clone plus the pre-staged chunk dims,
/// so the closure takes them instead of allocating (no-alloc-in-par-closure).
type ChunkWorker = parking_lot::Mutex<(Box<dyn Compressor>, Vec<usize>)>;

/// Splits the input into contiguous row blocks along the slowest dimension,
/// compressing them in parallel when the child allows it.
pub struct Chunking {
    nthreads: usize,
    child_name: String,
    child: Box<dyn Compressor>,
}

impl Chunking {
    /// Chunking over `noop` until configured.
    pub fn new() -> Chunking {
        Chunking {
            nthreads: 4,
            child_name: "noop".to_string(),
            child: default_child(),
        }
    }

    fn parallel_allowed(&self) -> bool {
        self.child.thread_safety() == ThreadSafety::Multiple
    }

    fn split(&self, dims: &[usize], elem_bytes: usize) -> Vec<(usize, usize, Vec<usize>)> {
        // (element start, element end, chunk dims). The adaptive plan caps
        // the worker count by the data volume, so small buffers stay serial
        // instead of paying per-chunk staging and stream framing.
        let slow = dims.first().copied().unwrap_or(1).max(1);
        let row: usize = dims.iter().skip(1).product::<usize>().max(1);
        let plan = pressio_core::plan_chunks(
            slow,
            row.saturating_mul(elem_bytes.max(1)),
            self.nthreads.max(1),
        );
        let mut out = Vec::with_capacity(plan.len());
        for rows_range in plan {
            let rows = rows_range.len();
            let mut cdims = vec![rows];
            cdims.extend_from_slice(&dims[1.min(dims.len())..]);
            out.push((rows_range.start * row, rows_range.end * row, cdims));
        }
        out
    }
}

impl Default for Chunking {
    fn default() -> Self {
        Chunking::new()
    }
}

impl Compressor for Chunking {
    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.merge(&self.child.get_configuration());
        o
    }

    fn name(&self) -> &str {
        "chunking"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        ThreadSafety::Multiple
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new()
            .with("chunking:nthreads", self.nthreads as u32)
            .with("chunking:compressor", self.child_name.as_str());
        o.declare(pressio_core::OPT_NTHREADS, pressio_core::OptionKind::U32);
        o.merge(&self.child.get_options());
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("chunking:compressor")? {
            self.child = resolve_child(&name).map_err(|e| e.in_plugin("chunking"))?;
            self.child_name = name;
        }
        if let Some(n) = options
            .get_as::<u32>("chunking:nthreads")?
            .or(options.get_as::<u32>(pressio_core::OPT_NTHREADS)?)
        {
            if n == 0 {
                return Err(
                    Error::invalid_argument("chunking:nthreads must be >= 1").in_plugin("chunking")
                );
            }
            self.nthreads = n as usize;
        }
        self.child.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "chunking",
                "splits the buffer into row blocks compressed independently; runs in \
                 parallel when the child reports thread safety 'multiple'",
            )
            .with("chunking:nthreads", "maximum worker threads")
            .with("chunking:compressor", "registry name of the child compressor")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let elem = input.dtype().size();
        let chunks = self.split(input.dims(), elem);
        let bytes = input.as_bytes();
        let dtype = input.dtype();
        let results: Vec<Data> = if self.parallel_allowed() && chunks.len() > 1 {
            let workers: Vec<ChunkWorker> = chunks
                .iter()
                .map(|(_, _, cdims)| {
                    parking_lot::Mutex::new((self.child.clone_compressor(), cdims.clone()))
                })
                .collect();
            pressio_core::par_map_indexed(chunks.len(), |i| {
                let (lo, hi, _) = &chunks[i];
                let mut guard = workers[i].lock();
                let (worker, cdims) = &mut *guard;
                let mut staged = Data::owned(dtype, std::mem::take(cdims));
                staged
                    .as_bytes_mut()
                    .copy_from_slice(&bytes[lo * elem..hi * elem]);
                worker.compress(&staged)
            })?
        } else {
            chunks
                .iter()
                .map(|(lo, hi, cdims)| {
                    pressio_core::cancel::checkpoint()?;
                    let mut staged = Data::owned(dtype, cdims.clone());
                    staged
                        .as_bytes_mut()
                        .copy_from_slice(&bytes[lo * elem..hi * elem]);
                    self.child.compress(&staged)
                })
                .collect::<Result<Vec<Data>>>()?
        };
        let mut w = ByteWriter::new();
        w.put_u32(CHUNK_MAGIC);
        w.put_str(&self.child_name);
        w.put_dtype(dtype);
        w.put_dims(input.dims());
        chunked::put_directory(&mut w, &results);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != CHUNK_MAGIC {
            return Err(Error::corrupt("bad chunking magic").in_plugin("chunking"));
        }
        let child_name = r.get_str()?.to_string();
        let (dtype, dims) = r.get_geometry().map_err(|e| e.in_plugin("chunking"))?;
        // At most one chunk per row of the slowest dimension.
        let slow = dims.first().copied().unwrap_or(1).max(1);
        let sections =
            chunked::get_directory(&mut r, slow).map_err(|e| e.in_plugin("chunking"))?;
        let n_chunks = sections.len();
        if child_name != self.child_name {
            self.child = resolve_child(&child_name).map_err(|e| e.in_plugin("chunking"))?;
            self.child_name = child_name;
        }
        let row: usize = dims.iter().skip(1).product::<usize>().max(1);
        let base = slow / n_chunks;
        let extra = slow % n_chunks;
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin("chunking"))?;
        let elem = dtype.size();
        let chunk_results: Vec<Data> = if self.parallel_allowed() && n_chunks > 1 {
            // As in compress: chunk dims ride in the task's mutex.
            let workers: Vec<ChunkWorker> = (0..n_chunks)
                .map(|wi| {
                    let rows = base + usize::from(wi < extra);
                    let mut cdims = vec![rows];
                    cdims.extend_from_slice(&dims[1.min(dims.len())..]);
                    parking_lot::Mutex::new((self.child.clone_compressor(), cdims))
                })
                .collect();
            pressio_core::par_map_indexed(sections.len(), |wi| {
                let mut guard = workers[wi].lock();
                let (worker, cdims) = &mut *guard;
                let mut staged = Data::alloc_output(dtype, std::mem::take(cdims))?;
                worker.decompress(&Data::from_bytes(sections[wi]), &mut staged)?;
                Ok(staged)
            })?
        } else {
            sections
                .iter()
                .enumerate()
                .map(|(wi, sec)| {
                    pressio_core::cancel::checkpoint()?;
                    let rows = base + usize::from(wi < extra);
                    let mut cdims = vec![rows];
                    cdims.extend_from_slice(&dims[1.min(dims.len())..]);
                    let mut staged = Data::alloc_output(dtype, cdims)?;
                    self.child.decompress(&Data::from_bytes(sec), &mut staged)?;
                    Ok(staged)
                })
                .collect::<Result<Vec<Data>>>()?
        };
        let out_bytes = output.as_bytes_mut();
        let mut start_row = 0usize;
        for (wi, chunk) in chunk_results.into_iter().enumerate() {
            let rows = base + usize::from(wi < extra);
            let lo = start_row * row * elem;
            let hi = (start_row + rows) * row * elem;
            if chunk.as_bytes().len() != hi - lo {
                return Err(Error::corrupt("chunk size mismatch").in_plugin("chunking"));
            }
            out_bytes[lo..hi].copy_from_slice(chunk.as_bytes());
            start_row += rows;
        }
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(Chunking {
            nthreads: self.nthreads,
            child_name: self.child_name.clone(),
            child: self.child.clone_compressor(),
        })
    }
}

/// Embarrassingly parallel compression of *multiple buffers*
/// (`compress_many`), one child clone per worker.
pub struct ManyIndependent {
    nthreads: usize,
    child_name: String,
    child: Box<dyn Compressor>,
}

impl ManyIndependent {
    /// Wrapper over `noop` until configured.
    pub fn new() -> ManyIndependent {
        ManyIndependent {
            nthreads: 4,
            child_name: "noop".to_string(),
            child: default_child(),
        }
    }
}

impl Default for ManyIndependent {
    fn default() -> Self {
        ManyIndependent::new()
    }
}

impl Compressor for ManyIndependent {
    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.merge(&self.child.get_configuration());
        o
    }

    fn name(&self) -> &str {
        "many_independent"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        ThreadSafety::Multiple
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new()
            .with("many_independent:nthreads", self.nthreads as u32)
            .with("many_independent:compressor", self.child_name.as_str());
        o.declare(pressio_core::OPT_NTHREADS, pressio_core::OptionKind::U32);
        o.merge(&self.child.get_options());
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("many_independent:compressor")? {
            self.child = resolve_child(&name).map_err(|e| e.in_plugin("many_independent"))?;
            self.child_name = name;
        }
        if let Some(n) = options
            .get_as::<u32>("many_independent:nthreads")?
            .or(options.get_as::<u32>(pressio_core::OPT_NTHREADS)?)
        {
            if n == 0 {
                return Err(Error::invalid_argument("nthreads must be >= 1")
                    .in_plugin("many_independent"));
            }
            self.nthreads = n as usize;
        }
        self.child.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "many_independent",
                "embarrassingly parallel compression of multiple buffers; respects the \
                 child's thread-safety introspection",
            )
            .with("many_independent:nthreads", "maximum worker threads")
            .with(
                "many_independent:compressor",
                "registry name of the child compressor",
            )
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        self.child.compress(input)
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        self.child.decompress(compressed, output)
    }

    fn compress_many(&mut self, inputs: &[&Data]) -> Result<Vec<Data>> {
        // Group count follows the adaptive plan over the average buffer
        // size: a handful of tiny buffers stays serial, large batches split
        // into at most `nthreads` groups. A Serialized/Single child must not
        // run concurrently at all.
        let groups = if self.child.thread_safety() == ThreadSafety::Multiple {
            let total: usize = inputs.iter().map(|d| d.as_bytes().len()).sum();
            pressio_core::plan_chunks(
                inputs.len(),
                total / inputs.len().max(1),
                self.nthreads.max(1),
            )
        } else {
            Vec::new()
        };
        if groups.len() <= 1 {
            return inputs
                .iter()
                .map(|d| {
                    pressio_core::cancel::checkpoint()?;
                    self.child.compress(d)
                })
                .collect();
        }
        // One task (and one child clone) per worker group: at most `nthreads`
        // children run concurrently, matching the option's contract, while
        // the shared engine's work stealing balances the groups.
        let workers: Vec<parking_lot::Mutex<Box<dyn Compressor>>> = groups
            .iter()
            .map(|_| parking_lot::Mutex::new(self.child.clone_compressor()))
            .collect();
        let grouped = pressio_core::par_map_indexed(groups.len(), |g| {
            let mut worker = workers[g].lock();
            groups[g]
                .clone()
                .map(|i| {
                    // Per-item cooperation: a tripped token stops the group
                    // between buffers, not only at the pool's chunk boundary.
                    pressio_core::cancel::checkpoint()?;
                    worker.compress(inputs[i])
                })
                .collect::<Result<Vec<Data>>>()
        })?;
        Ok(grouped.into_iter().flatten().collect())
    }

    fn decompress_many(&mut self, compressed: &[&Data], outputs: &mut [Data]) -> Result<()> {
        if compressed.len() != outputs.len() {
            return Err(Error::invalid_argument("length mismatch").in_plugin("many_independent"));
        }
        // Same adaptive grouping as compress_many, planned over the average
        // compressed buffer size.
        let groups = if self.child.thread_safety() == ThreadSafety::Multiple {
            let total: usize = compressed.iter().map(|d| d.as_bytes().len()).sum();
            pressio_core::plan_chunks(
                compressed.len(),
                total / compressed.len().max(1),
                self.nthreads.max(1),
            )
        } else {
            Vec::new()
        };
        if groups.len() <= 1 {
            for (c, o) in compressed.iter().zip(outputs.iter_mut()) {
                pressio_core::cancel::checkpoint()?;
                self.child.decompress(c, o)?;
            }
            return Ok(());
        }
        // Split the outputs into per-group disjoint slices so each task owns
        // its outputs outright — no claim protocol needed.
        let mut slices: Vec<&mut [Data]> = Vec::with_capacity(groups.len());
        let mut rest = outputs;
        for g in &groups {
            let (head, tail) = rest.split_at_mut(g.len());
            slices.push(head);
            rest = tail;
        }
        let tasks: Vec<DecompressTask> = slices
            .into_iter()
            .map(|outs| parking_lot::Mutex::new((self.child.clone_compressor(), outs)))
            .collect();
        pressio_core::par_map_indexed(groups.len(), |g| {
            let mut guard = tasks[g].lock();
            let (worker, outs) = &mut *guard;
            for (k, i) in groups[g].clone().enumerate() {
                pressio_core::cancel::checkpoint()?;
                worker.decompress(compressed[i], &mut outs[k])?;
            }
            Ok(())
        })?;
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(ManyIndependent {
            nthreads: self.nthreads,
            child_name: self.child_name.clone(),
            child: self.child.clone_compressor(),
        })
    }
}

/// Sequential pipeline over multiple buffers where a metric observed on each
/// buffer configures the next one (the glossary's *Many Dependent*, used to
/// forward a configuration guess between time steps).
pub struct ManyDependent {
    child_name: String,
    child: Box<dyn Compressor>,
    /// Metrics result key to observe (e.g. `error_stat:value_range`).
    source: String,
    /// Child option key to set from the observed value (e.g. `pressio:abs`).
    target: String,
    /// Scale factor applied to the observed value before forwarding.
    scale: f64,
}

impl ManyDependent {
    /// Pipeline over `noop` until configured.
    pub fn new() -> ManyDependent {
        ManyDependent {
            child_name: "noop".to_string(),
            child: default_child(),
            source: "error_stat:value_range".to_string(),
            target: String::new(),
            scale: 1.0,
        }
    }
}

impl Default for ManyDependent {
    fn default() -> Self {
        ManyDependent::new()
    }
}

impl Compressor for ManyDependent {
    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.merge(&self.child.get_configuration());
        o
    }

    fn name(&self) -> &str {
        "many_dependent"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        self.child.thread_safety()
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new()
            .with("many_dependent:compressor", self.child_name.as_str())
            .with("many_dependent:source", self.source.as_str())
            .with("many_dependent:target", self.target.as_str())
            .with("many_dependent:scale", self.scale);
        o.merge(&self.child.get_options());
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("many_dependent:compressor")? {
            self.child = resolve_child(&name).map_err(|e| e.in_plugin("many_dependent"))?;
            self.child_name = name;
        }
        if let Some(s) = options.get_as::<String>("many_dependent:source")? {
            self.source = s;
        }
        if let Some(t) = options.get_as::<String>("many_dependent:target")? {
            self.target = t;
        }
        if let Some(s) = options.get_as::<f64>("many_dependent:scale")? {
            self.scale = s;
        }
        self.child.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "many_dependent",
                "sequential multi-buffer pipeline: a metric observed on buffer i \
                 configures buffer i+1 (configuration forwarding between time steps)",
            )
            .with("many_dependent:source", "metrics result key to observe")
            .with("many_dependent:target", "child option key to set from it")
            .with("many_dependent:scale", "factor applied before forwarding")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        self.child.compress(input)
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        self.child.decompress(compressed, output)
    }

    fn compress_many(&mut self, inputs: &[&Data]) -> Result<Vec<Data>> {
        let mut out = Vec::with_capacity(inputs.len());
        for input in inputs {
            // Observe the source metric on this buffer...
            if !self.target.is_empty() {
                let observed = match self.source.as_str() {
                    "error_stat:value_range" => {
                        let vals = input.to_f64_vec()?;
                        Some(pressio_core::value_range(&vals))
                    }
                    _ => None,
                };
                // ...and forward it (scaled) to configure this and later
                // buffers — the first buffer establishes the guess.
                if let Some(v) = observed {
                    let mut o = Options::new();
                    o.set(self.target.clone(), v * self.scale);
                    self.child.set_options(&o)?;
                }
            }
            out.push(self.child.compress(input)?);
        }
        Ok(out)
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(ManyDependent {
            child_name: self.child_name.clone(),
            child: self.child.clone_compressor(),
            source: self.source.clone(),
            target: self.target.clone(),
            scale: self.scale,
        })
    }
}
