//! Shape-manipulating meta-compressors: `transpose`, `resize`, and `sample`.
//!
//! These are the paper's "common, useful pre/post processing steps": they
//! implement the compressor interface but delegate the actual coding to a
//! child plugin, adjusting the data's shape on the way in and out. `resize`
//! is exactly the glossary's trick for helping block compressors with
//! degenerate dimensions (e.g. treating `A×B×1` as 2-d for ZFP).

use pressio_core::{
    registry, ByteReader, ByteWriter, Compressor, Data, Error, Options, Result, ThreadSafety,
    Version,
};

use crate::util::{default_child, invert_axes, parse_usize_list, resolve_child, transpose_bytes};

const TRANSPOSE_MAGIC: u32 = 0x5452_4E53;
const RESIZE_MAGIC: u32 = 0x5253_5A45;
const SAMPLE_MAGIC: u32 = 0x534D_504C;

/// Applies an axis permutation before compressing and the inverse after
/// decompressing.
pub struct Transpose {
    axes: Vec<usize>,
    child_name: String,
    child: Box<dyn Compressor>,
}

impl Transpose {
    /// Transpose wrapping the `noop` child until configured.
    pub fn new() -> Transpose {
        Transpose {
            axes: Vec::new(),
            child_name: "noop".to_string(),
            child: default_child(),
        }
    }
}

impl Default for Transpose {
    fn default() -> Self {
        Transpose::new()
    }
}

impl Compressor for Transpose {
    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.merge(&self.child.get_configuration());
        o
    }

    fn name(&self) -> &str {
        "transpose"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        self.child.thread_safety()
    }

    fn get_options(&self) -> Options {
        let axes = self
            .axes
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut o = Options::new()
            .with("transpose:axes", axes)
            .with("transpose:compressor", self.child_name.as_str());
        o.merge(&self.child.get_options());
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("transpose:compressor")? {
            self.child = resolve_child(&name).map_err(|e| e.in_plugin("transpose"))?;
            self.child_name = name;
        }
        if let Some(axes) = options.get_as::<String>("transpose:axes")? {
            self.axes = if axes.trim().is_empty() {
                Vec::new()
            } else {
                parse_usize_list(&axes).map_err(|e| e.in_plugin("transpose"))?
            };
        }
        self.child.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with("transpose", "permutes data axes before the child compressor")
            .with("transpose:axes", "comma-separated permutation, output axis -> input axis")
            .with("transpose:compressor", "registry name of the child compressor")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let axes = if self.axes.is_empty() {
            // Default: reverse the axes (C -> Fortran view).
            (0..input.num_dims()).rev().collect::<Vec<_>>()
        } else {
            self.axes.clone()
        };
        let (bytes, tdims) = transpose_bytes(
            input.as_bytes(),
            input.dims(),
            &axes,
            input.dtype().size(),
        )
        .map_err(|e| e.in_plugin("transpose"))?;
        let mut staged = Data::owned(input.dtype(), tdims);
        staged.as_bytes_mut().copy_from_slice(&bytes);
        let inner = self.child.compress(&staged)?;
        let mut w = ByteWriter::with_capacity(inner.size_in_bytes() + 64);
        w.put_u32(TRANSPOSE_MAGIC);
        w.put_str(&self.child_name);
        w.put_dims(input.dims());
        w.put_dims(&axes);
        w.put_section(inner.as_bytes());
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != TRANSPOSE_MAGIC {
            return Err(Error::corrupt("bad transpose magic").in_plugin("transpose"));
        }
        let child_name = r.get_str()?.to_string();
        let orig_dims = r.get_dims_of(output.dtype()).map_err(|e| e.in_plugin("transpose"))?;
        // The axes list came off the wire, framed like a dims list: it must
        // be a permutation of the recorded dims' axes before anything
        // indexes with it.
        let nd = orig_dims.len();
        let n_axes = r.get_count()?;
        let axes = (0..n_axes.min(nd)).map(|_| r.get_len()).collect::<Result<Vec<usize>>>()?;
        let mut seen = vec![false; nd];
        let valid = n_axes == nd
            && axes.iter().all(|&a| a < nd && !std::mem::replace(&mut seen[a], true));
        if !valid {
            return Err(Error::corrupt(format!(
                "transpose stream axes {axes:?} are not a permutation of 0..{nd}"
            ))
            .in_plugin("transpose"));
        }
        let inner = r.get_section()?;
        if child_name != self.child_name {
            self.child = resolve_child(&child_name).map_err(|e| e.in_plugin("transpose"))?;
            self.child_name = child_name;
        }
        let tdims: Vec<usize> = axes.iter().map(|&a| orig_dims[a]).collect();
        let mut staged = Data::alloc_output(output.dtype(), tdims.clone())
            .map_err(|e| e.in_plugin("transpose"))?;
        self.child.decompress(&Data::from_bytes(inner), &mut staged)?;
        // A corrupt child stream can carry its own geometry and resize the
        // staged buffer; the transposed shape is dictated by this envelope.
        if staged.dims() != tdims {
            return Err(Error::corrupt(format!(
                "transpose child produced shape {:?}, envelope requires {tdims:?}",
                staged.dims()
            ))
            .in_plugin("transpose"));
        }
        let inv = invert_axes(&axes);
        let (bytes, bdims) = transpose_bytes(
            staged.as_bytes(),
            staged.dims(),
            &inv,
            staged.dtype().size(),
        )
        .map_err(|e| e.in_plugin("transpose"))?;
        output.shape_to(staged.dtype(), &bdims).map_err(|e| e.in_plugin("transpose"))?;
        output.as_bytes_mut().copy_from_slice(&bytes);
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(Transpose {
            axes: self.axes.clone(),
            child_name: self.child_name.clone(),
            child: self.child.clone_compressor(),
        })
    }
}

/// Reinterprets the dimensions (without touching values) before compressing,
/// restoring the original shape after decompression.
pub struct Resize {
    dims: Vec<usize>,
    child_name: String,
    child: Box<dyn Compressor>,
}

impl Resize {
    /// Resize wrapping `noop` until configured.
    pub fn new() -> Resize {
        Resize {
            dims: Vec::new(),
            child_name: "noop".to_string(),
            child: default_child(),
        }
    }
}

impl Default for Resize {
    fn default() -> Self {
        Resize::new()
    }
}

impl Compressor for Resize {
    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.merge(&self.child.get_configuration());
        o
    }

    fn name(&self) -> &str {
        "resize"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        self.child.thread_safety()
    }

    fn get_options(&self) -> Options {
        let dims = self
            .dims
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut o = Options::new()
            .with("resize:dims", dims)
            .with("resize:compressor", self.child_name.as_str());
        o.merge(&self.child.get_options());
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("resize:compressor")? {
            self.child = resolve_child(&name).map_err(|e| e.in_plugin("resize"))?;
            self.child_name = name;
        }
        if let Some(dims) = options.get_as::<String>("resize:dims")? {
            self.dims = if dims.trim().is_empty() {
                Vec::new()
            } else {
                parse_usize_list(&dims).map_err(|e| e.in_plugin("resize"))?
            };
        }
        self.child.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "resize",
                "reinterprets dimensions before the child compressor (element count must match)",
            )
            .with("resize:dims", "comma-separated new dimensions")
            .with("resize:compressor", "registry name of the child compressor")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        if self.dims.is_empty() {
            return Err(Error::invalid_argument("resize:dims is not set").in_plugin("resize"));
        }
        let mut staged = input.clone();
        staged
            .reshape(self.dims.clone())
            .map_err(|e| e.in_plugin("resize"))?;
        let inner = self.child.compress(&staged)?;
        let mut w = ByteWriter::with_capacity(inner.size_in_bytes() + 64);
        w.put_u32(RESIZE_MAGIC);
        w.put_str(&self.child_name);
        w.put_dims(input.dims());
        w.put_section(inner.as_bytes());
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != RESIZE_MAGIC {
            return Err(Error::corrupt("bad resize magic").in_plugin("resize"));
        }
        let child_name = r.get_str()?.to_string();
        let orig_dims = r.get_dims_of(output.dtype()).map_err(|e| e.in_plugin("resize"))?;
        let inner = r.get_section()?;
        if child_name != self.child_name {
            self.child = resolve_child(&child_name).map_err(|e| e.in_plugin("resize"))?;
            self.child_name = child_name;
        }
        let mut staged = Data::owned(output.dtype(), vec![0]);
        self.child.decompress(&Data::from_bytes(inner), &mut staged)?;
        if staged.num_elements() != orig_dims.iter().product::<usize>() {
            return Err(Error::corrupt("resize child produced wrong element count"));
        }
        staged.reshape(orig_dims)?;
        *output = staged;
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(Resize {
            dims: self.dims.clone(),
            child_name: self.child_name.clone(),
            child: self.child.clone_compressor(),
        })
    }
}

/// Decimating sampler: keeps every `rate`-th element before compression and
/// reconstructs by sample-and-hold. Deliberately *not* error bounded — it is
/// the glossary's analysis/preview tool.
pub struct Sample {
    rate: usize,
    child_name: String,
    child: Box<dyn Compressor>,
}

impl Sample {
    /// Sampler with rate 1 (pass-through) wrapping `noop`.
    pub fn new() -> Sample {
        Sample {
            rate: 1,
            child_name: "noop".to_string(),
            child: default_child(),
        }
    }
}

impl Default for Sample {
    fn default() -> Self {
        Sample::new()
    }
}

impl Compressor for Sample {
    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.merge(&self.child.get_configuration());
        o
    }

    fn name(&self) -> &str {
        "sample"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        self.child.thread_safety()
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new()
            .with("sample:rate", self.rate as u64)
            .with("sample:compressor", self.child_name.as_str());
        o.merge(&self.child.get_options());
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("sample:compressor")? {
            self.child = resolve_child(&name).map_err(|e| e.in_plugin("sample"))?;
            self.child_name = name;
        }
        if let Some(r) = options.get_as::<u64>("sample:rate")? {
            if r == 0 {
                return Err(Error::invalid_argument("sample:rate must be >= 1").in_plugin("sample"));
            }
            self.rate = r as usize;
        }
        self.child.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "sample",
                "keeps every rate-th element before compression; reconstructs by \
                 sample-and-hold (not error bounded)",
            )
            .with("sample:rate", "decimation factor (1 = pass-through)")
            .with("sample:compressor", "registry name of the child compressor")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let elem = input.dtype().size();
        let bytes = input.as_bytes();
        let n = input.num_elements();
        let kept: Vec<u8> = (0..n)
            .step_by(self.rate)
            .flat_map(|i| bytes[i * elem..(i + 1) * elem].iter().copied())
            .collect();
        let n_kept = kept.len() / elem;
        let mut staged = Data::owned(input.dtype(), vec![n_kept]);
        staged.as_bytes_mut().copy_from_slice(&kept);
        let inner = self.child.compress(&staged)?;
        let mut w = ByteWriter::with_capacity(inner.size_in_bytes() + 64);
        w.put_u32(SAMPLE_MAGIC);
        w.put_str(&self.child_name);
        w.put_dims(input.dims());
        w.put_u64(self.rate as u64);
        w.put_section(inner.as_bytes());
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != SAMPLE_MAGIC {
            return Err(Error::corrupt("bad sample magic").in_plugin("sample"));
        }
        let child_name = r.get_str()?.to_string();
        let orig_dims = r.get_dims_of(output.dtype()).map_err(|e| e.in_plugin("sample"))?;
        let rate = r.get_len()?;
        if rate == 0 {
            return Err(Error::corrupt("sample stream carries zero rate"));
        }
        let inner = r.get_section()?;
        if child_name != self.child_name {
            self.child = resolve_child(&child_name).map_err(|e| e.in_plugin("sample"))?;
            self.child_name = child_name;
        }
        let n: usize = orig_dims.iter().product();
        let n_kept = n.div_ceil(rate);
        let mut staged = Data::alloc_output(output.dtype(), vec![n_kept])
            .map_err(|e| e.in_plugin("sample"))?;
        self.child.decompress(&Data::from_bytes(inner), &mut staged)?;
        output.shape_to(staged.dtype(), &orig_dims).map_err(|e| e.in_plugin("sample"))?;
        let elem = staged.dtype().size();
        let src = staged.as_bytes().to_vec();
        let dst = output.as_bytes_mut();
        for i in 0..n {
            let s = (i / rate).min(n_kept - 1);
            dst[i * elem..(i + 1) * elem].copy_from_slice(&src[s * elem..(s + 1) * elem]);
        }
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(Sample {
            rate: self.rate,
            child_name: self.child_name.clone(),
            child: self.child.clone_compressor(),
        })
    }
}

/// Runtime switch between child compressors (`switch:active`) — the hook
/// LibPressio-Opt uses to search across compressor types.
pub struct Switch {
    active: String,
    child: Box<dyn Compressor>,
}

impl Switch {
    /// Switch initially pointing at `noop`.
    pub fn new() -> Switch {
        Switch {
            active: "noop".to_string(),
            child: default_child(),
        }
    }
}

impl Default for Switch {
    fn default() -> Self {
        Switch::new()
    }
}

const SWITCH_MAGIC: u32 = 0x5357_4348;

impl Compressor for Switch {
    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.merge(&self.child.get_configuration());
        o
    }

    fn name(&self) -> &str {
        "switch"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        self.child.thread_safety()
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new().with("switch:active", self.active.as_str());
        o.merge(&self.child.get_options());
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("switch:active")? {
            if !registry().has_compressor(&name) {
                return Err(
                    Error::not_found(format!("no compressor named {name:?}")).in_plugin("switch")
                );
            }
            self.child = resolve_child(&name)?;
            self.active = name;
        }
        self.child.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with("switch", "runtime-selectable child compressor")
            .with("switch:active", "registry name of the active child")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let inner = self.child.compress(input)?;
        let mut w = ByteWriter::with_capacity(inner.size_in_bytes() + 32);
        w.put_u32(SWITCH_MAGIC);
        w.put_str(&self.active);
        w.put_section(inner.as_bytes());
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != SWITCH_MAGIC {
            return Err(Error::corrupt("bad switch magic").in_plugin("switch"));
        }
        let name = r.get_str()?.to_string();
        let inner = r.get_section()?;
        if name != self.active {
            self.child = resolve_child(&name).map_err(|e| e.in_plugin("switch"))?;
            self.active = name;
        }
        self.child.decompress(&Data::from_bytes(inner), output)
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(Switch {
            active: self.active.clone(),
            child: self.child.clone_compressor(),
        })
    }
}
