//! Compressor-plugin wrappers around the codec substrates.
//!
//! Every codec in this crate is exposed through the generic
//! [`Compressor`] interface and registered under a stable name, giving the
//! registry its lossless plugin population: `noop`, `rle`, `lz`, `huffman`,
//! `rans`, `deflate`, `shuffle`, `bitshuffle`, `blosc`, `fpzip`, `delta`,
//! `bit_grooming`, `digit_rounding`, and `linear_quantizer`.
//!
//! All streams are self-describing: a small header records the codec id,
//! dtype, and dimensions, so `decompress` can validate and reshape its
//! output buffer.

use pressio_core::{
    registry, require_dtype, ByteReader, ByteWriter, Compressor, DType, Data, Error, ErrorBound,
    OptionKind, Options, Result, Stability, Version,
};

use crate::grooming::{self, GroomMode};
use crate::{deflate, float, huffman, lz77, quantize, rans, rle, shuffle, varint};

/// Magic prefix of every stream produced by this crate's plugins.
const MAGIC: u32 = 0x5052_4331; // "PRC1"

fn write_header(w: &mut ByteWriter, codec_id: u8, input: &Data) {
    w.put_u32(MAGIC);
    w.put_u8(codec_id);
    w.put_dtype(input.dtype());
    w.put_dims(input.dims());
}

fn read_header<'a>(
    compressed: &'a Data,
    codec_id: u8,
    plugin: &str,
) -> Result<(DType, Vec<usize>, ByteReader<'a>)> {
    let mut r = ByteReader::new(compressed.as_bytes());
    let magic = r.get_u32()?;
    if magic != MAGIC {
        return Err(Error::corrupt("bad stream magic").in_plugin(plugin));
    }
    let id = r.get_u8()?;
    if id != codec_id {
        return Err(
            Error::corrupt(format!("stream was produced by codec id {id}")).in_plugin(plugin),
        );
    }
    let (dtype, dims) = r.get_geometry().map_err(|e| e.in_plugin(plugin))?;
    Ok((dtype, dims, r))
}

// ====================================================================== byte

/// Which byte-oriented codec a [`ByteCodec`] plugin applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// Store verbatim (useful as a baseline and for testing).
    Noop,
    /// PackBits run-length coding.
    Rle,
    /// LZ77 (LZ4-flavored).
    Lz,
    /// Canonical Huffman over bytes.
    Huffman,
    /// LZ77 then Huffman.
    Deflate,
    /// Byte shuffle by element size then deflate.
    Shuffle,
    /// Bit shuffle by element size then deflate.
    BitShuffle,
    /// Static-table interleaved rANS over bytes (table-driven decode).
    Rans,
}

impl CodecKind {
    fn name(self) -> &'static str {
        match self {
            CodecKind::Noop => "noop",
            CodecKind::Rle => "rle",
            CodecKind::Lz => "lz",
            CodecKind::Huffman => "huffman",
            CodecKind::Deflate => "deflate",
            CodecKind::Shuffle => "shuffle",
            CodecKind::BitShuffle => "bitshuffle",
            CodecKind::Rans => "rans",
        }
    }

    fn id(self) -> u8 {
        match self {
            CodecKind::Noop => 0,
            CodecKind::Rle => 1,
            CodecKind::Lz => 2,
            CodecKind::Huffman => 3,
            CodecKind::Deflate => 4,
            CodecKind::Shuffle => 5,
            CodecKind::BitShuffle => 6,
            // 7..=11 are taken by the struct plugins below.
            CodecKind::Rans => 12,
        }
    }

    /// Whether this codec's entropy stage can run chunk-parallel on the
    /// shared execution engine.
    fn parallelizable(self) -> bool {
        matches!(
            self,
            CodecKind::Huffman
                | CodecKind::Deflate
                | CodecKind::Shuffle
                | CodecKind::BitShuffle
                | CodecKind::Rans
        )
    }
}

/// A lossless byte-codec plugin (see [`CodecKind`]).
#[derive(Debug, Clone)]
pub struct ByteCodec {
    kind: CodecKind,
    /// Independent input chunks for the parallelizable kinds (1 = serial).
    nthreads: u32,
}

impl ByteCodec {
    /// Create a plugin applying `kind`.
    pub fn new(kind: CodecKind) -> ByteCodec {
        ByteCodec { kind, nthreads: 1 }
    }
}

impl Compressor for ByteCodec {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new();
        if self.kind.parallelizable() {
            o.set(format!("{}:nthreads", self.name()), self.nthreads);
            o.declare(pressio_core::OPT_NTHREADS, pressio_core::OptionKind::U32);
        }
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if self.kind.parallelizable() {
            if let Some(n) = options
                .get_as::<u32>(&format!("{}:nthreads", self.name()))?
                .or(options.get_as::<u32>(pressio_core::OPT_NTHREADS)?)
            {
                if n == 0 {
                    return Err(
                        Error::invalid_argument("nthreads must be >= 1").in_plugin(self.name())
                    );
                }
                self.nthreads = n;
            }
        }
        Ok(())
    }

    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.set(format!("{}:pressio:lossless", self.name()), true);
        o
    }

    fn get_documentation(&self) -> Options {
        Options::new().with(
            self.name().to_string(),
            match self.kind {
                CodecKind::Noop => "stores the input verbatim",
                CodecKind::Rle => "PackBits-style run length coding",
                CodecKind::Lz => "LZ77 dictionary coding (LZ4-flavored)",
                CodecKind::Huffman => "canonical Huffman entropy coding",
                CodecKind::Deflate => "LZ77 followed by Huffman coding",
                CodecKind::Shuffle => "byte-shuffle by element size, then deflate",
                CodecKind::BitShuffle => "bit-shuffle by element size, then deflate",
                CodecKind::Rans => "static-table interleaved rANS entropy coding",
            },
        )
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let bytes = input.as_bytes();
        let pieces = self.nthreads.max(1) as usize;
        let payload = match self.kind {
            CodecKind::Noop => bytes.to_vec(),
            CodecKind::Rle => rle::compress(bytes),
            CodecKind::Lz => lz77::compress(bytes),
            CodecKind::Huffman => huffman::encode_bytes_par(bytes, pieces)?,
            CodecKind::Deflate => deflate::compress_par(bytes, pieces)?,
            CodecKind::Shuffle => {
                deflate::compress_par(&shuffle::shuffle(bytes, input.dtype().size()), pieces)?
            }
            CodecKind::BitShuffle => {
                deflate::compress_par(&shuffle::bitshuffle(bytes, input.dtype().size()), pieces)?
            }
            CodecKind::Rans => rans::compress_par(bytes, pieces)?,
        };
        let mut w = ByteWriter::with_capacity(payload.len() + 64);
        write_header(&mut w, self.kind.id(), input);
        w.put_section(&payload);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let (dtype, dims, mut r) = read_header(compressed, self.kind.id(), self.name())?;
        let payload = r.get_section()?;
        let bytes = match self.kind {
            CodecKind::Noop => payload.to_vec(),
            CodecKind::Rle => rle::decompress(payload)?,
            CodecKind::Lz => lz77::decompress(payload)?,
            CodecKind::Huffman => huffman::decode_bytes(payload)?,
            CodecKind::Deflate => deflate::decompress(payload)?,
            CodecKind::Shuffle => {
                shuffle::unshuffle(&deflate::decompress(payload)?, dtype.size())
            }
            CodecKind::BitShuffle => {
                shuffle::bitunshuffle(&deflate::decompress(payload)?, dtype.size())
            }
            CodecKind::Rans => rans::decompress(payload)?,
        };
        let n: usize = dims.iter().product();
        if bytes.len() != n * dtype.size() {
            return Err(Error::corrupt(format!(
                "decoded {} bytes, expected {}",
                bytes.len(),
                n * dtype.size()
            ))
            .in_plugin(self.name()));
        }
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin(self.name()))?;
        output.as_bytes_mut().copy_from_slice(&bytes);
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

// ===================================================================== blosc

/// BLOSC-like composition: optional (bit)shuffle then an LZ-family codec.
#[derive(Debug, Clone)]
pub struct Blosc {
    /// 0 = none, 1 = byte shuffle, 2 = bit shuffle.
    shuffle_mode: u8,
    /// "lz" or "deflate".
    codec: String,
}

impl Default for Blosc {
    fn default() -> Self {
        Blosc {
            shuffle_mode: 1,
            codec: "deflate".to_string(),
        }
    }
}

const BLOSC_ID: u8 = 7;

impl Compressor for Blosc {
    fn name(&self) -> &str {
        "blosc"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn get_options(&self) -> Options {
        Options::new()
            .with("blosc:shuffle", self.shuffle_mode)
            .with("blosc:codec", self.codec.as_str())
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(s) = options.get_as::<u8>("blosc:shuffle")? {
            if s > 2 {
                return Err(Error::invalid_argument(
                    "blosc:shuffle must be 0 (none), 1 (byte), or 2 (bit)",
                )
                .in_plugin("blosc"));
            }
            self.shuffle_mode = s;
        }
        if let Some(c) = options.get_as::<String>("blosc:codec")? {
            if c != "lz" && c != "deflate" {
                return Err(
                    Error::invalid_argument("blosc:codec must be 'lz' or 'deflate'")
                        .in_plugin("blosc"),
                );
            }
            self.codec = c;
        }
        Ok(())
    }

    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.set("blosc:pressio:lossless", true);
        o
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with("blosc", "shuffle + LZ family lossless compressor")
            .with("blosc:shuffle", "0 = none, 1 = byte shuffle, 2 = bit shuffle")
            .with("blosc:codec", "inner codec: 'lz' or 'deflate'")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let elem = input.dtype().size();
        let staged = match self.shuffle_mode {
            0 => input.as_bytes().to_vec(),
            1 => shuffle::shuffle(input.as_bytes(), elem),
            _ => shuffle::bitshuffle(input.as_bytes(), elem),
        };
        let payload = match self.codec.as_str() {
            "lz" => lz77::compress(&staged),
            _ => deflate::compress(&staged)?,
        };
        let mut w = ByteWriter::with_capacity(payload.len() + 64);
        write_header(&mut w, BLOSC_ID, input);
        w.put_u8(self.shuffle_mode);
        w.put_str(&self.codec);
        w.put_section(&payload);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let (dtype, dims, mut r) = read_header(compressed, BLOSC_ID, "blosc")?;
        let shuffle_mode = r.get_u8()?;
        let codec = r.get_str()?.to_string();
        let payload = r.get_section()?;
        let staged = match codec.as_str() {
            "lz" => lz77::decompress(payload)?,
            "deflate" => deflate::decompress(payload)?,
            other => {
                return Err(Error::corrupt(format!("unknown blosc codec {other:?}")))
            }
        };
        let bytes = match shuffle_mode {
            0 => staged,
            1 => shuffle::unshuffle(&staged, dtype.size()),
            2 => shuffle::bitunshuffle(&staged, dtype.size()),
            other => {
                return Err(Error::corrupt(format!("unknown blosc shuffle {other}")))
            }
        };
        let n: usize = dims.iter().product();
        if bytes.len() != n * dtype.size() {
            return Err(Error::corrupt("blosc payload size mismatch"));
        }
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin("blosc"))?;
        output.as_bytes_mut().copy_from_slice(&bytes);
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

// ===================================================================== fpzip

/// fpzip-style lossless floating-point plugin.
#[derive(Debug, Clone, Default)]
pub struct Fpzip;

const FPZIP_ID: u8 = 8;

impl Compressor for Fpzip {
    fn name(&self) -> &str {
        "fpzip"
    }

    fn version(&self) -> Version {
        Version::new(1, 1, 0)
    }

    fn get_options(&self) -> Options {
        Options::new()
    }

    fn set_options(&mut self, _: &Options) -> Result<()> {
        Ok(())
    }

    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.set("fpzip:pressio:lossless", true);
        o
    }

    fn get_documentation(&self) -> Options {
        Options::new().with(
            "fpzip",
            "specialized lossless compressor for IEEE floating point (predictive, bit-exact)",
        )
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        require_dtype("fpzip", input, &[DType::F32, DType::F64])?;
        let payload = match input.dtype() {
            DType::F32 => float::compress_f32(input.as_slice::<f32>()?)?,
            _ => float::compress_f64(input.as_slice::<f64>()?)?,
        };
        let mut w = ByteWriter::with_capacity(payload.len() + 64);
        write_header(&mut w, FPZIP_ID, input);
        w.put_section(&payload);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let (dtype, dims, mut r) = read_header(compressed, FPZIP_ID, "fpzip")?;
        let payload = r.get_section()?;
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin("fpzip"))?;
        match dtype {
            DType::F32 => output.fill_from(&float::decompress_f32(payload)?),
            DType::F64 => output.fill_from(&float::decompress_f64(payload)?),
            other => Err(Error::corrupt(format!("fpzip stream claims non-float dtype {other}"))),
        }
        .map_err(|e| e.in_plugin("fpzip"))
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

// ===================================================================== delta

/// Lossless delta filter over element bit patterns, then deflate.
#[derive(Debug, Clone, Default)]
pub struct Delta;

const DELTA_ID: u8 = 9;

fn delta_encode_lanes(bytes: &[u8], elem: usize) -> Vec<u8> {
    // Interpret elements as little-endian unsigned lanes and store wrapping
    // differences; exact for every dtype including floats (bit patterns).
    let mut out = Vec::with_capacity(bytes.len());
    let n = bytes.len() / elem;
    let mut prev: u64 = 0;
    for i in 0..n {
        let mut v: u64 = 0;
        for k in 0..elem {
            v |= (bytes[i * elem + k] as u64) << (8 * k);
        }
        let d = v.wrapping_sub(prev);
        for k in 0..elem {
            out.push((d >> (8 * k)) as u8);
        }
        prev = v;
    }
    out.extend_from_slice(&bytes[n * elem..]);
    out
}

fn delta_decode_lanes(bytes: &[u8], elem: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    let n = bytes.len() / elem;
    let mask: u64 = if elem == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * elem)) - 1
    };
    let mut prev: u64 = 0;
    for i in 0..n {
        let mut d: u64 = 0;
        for k in 0..elem {
            d |= (bytes[i * elem + k] as u64) << (8 * k);
        }
        let v = prev.wrapping_add(d) & mask;
        for k in 0..elem {
            out.push((v >> (8 * k)) as u8);
        }
        prev = v;
    }
    out.extend_from_slice(&bytes[n * elem..]);
    out
}

impl Compressor for Delta {
    fn name(&self) -> &str {
        "delta"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn get_options(&self) -> Options {
        Options::new()
    }

    fn set_options(&mut self, _: &Options) -> Result<()> {
        Ok(())
    }

    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.set("delta:pressio:lossless", true);
        o
    }

    fn get_documentation(&self) -> Options {
        Options::new().with("delta", "adjacent-difference filter over element bit patterns, then deflate")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let staged = delta_encode_lanes(input.as_bytes(), input.dtype().size());
        let payload = deflate::compress(&staged)?;
        let mut w = ByteWriter::with_capacity(payload.len() + 64);
        write_header(&mut w, DELTA_ID, input);
        w.put_section(&payload);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let (dtype, dims, mut r) = read_header(compressed, DELTA_ID, "delta")?;
        let payload = r.get_section()?;
        let bytes = delta_decode_lanes(&deflate::decompress(payload)?, dtype.size());
        let n: usize = dims.iter().product();
        if bytes.len() != n * dtype.size() {
            return Err(Error::corrupt("delta payload size mismatch"));
        }
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin("delta"))?;
        output.as_bytes_mut().copy_from_slice(&bytes);
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

// ============================================================ bit grooming

/// Bit Grooming / Digit Rounding plugin: keep `nsd` significant decimal
/// digits, then shuffle + deflate.
#[derive(Debug, Clone)]
pub struct BitGrooming {
    nsd: u32,
    mode: GroomMode,
    /// "bit_grooming" or "digit_rounding" (same machinery, different default
    /// mode, mirroring the two plugins in the paper's glossary).
    plugin_name: &'static str,
}

impl BitGrooming {
    /// The Bit Grooming plugin (alternating shave/set).
    pub fn grooming() -> BitGrooming {
        BitGrooming {
            nsd: 4,
            mode: GroomMode::Groom,
            plugin_name: "bit_grooming",
        }
    }

    /// The Digit Rounding plugin (round-to-nearest at kept precision).
    pub fn rounding() -> BitGrooming {
        BitGrooming {
            nsd: 4,
            mode: GroomMode::Round,
            plugin_name: "digit_rounding",
        }
    }
}

const GROOM_ID: u8 = 10;

impl Compressor for BitGrooming {
    fn get_configuration(&self) -> Options {
        pressio_core::base_configuration(self)
    }

    fn name(&self) -> &str {
        self.plugin_name
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn stability(&self) -> Stability {
        Stability::Stable
    }

    fn get_options(&self) -> Options {
        let p = self.plugin_name;
        Options::new()
            .with(format!("{p}:nsd"), self.nsd)
            .with(
                format!("{p}:mode"),
                match self.mode {
                    GroomMode::Shave => "shave",
                    GroomMode::Set => "set",
                    GroomMode::Groom => "groom",
                    GroomMode::Round => "round",
                },
            )
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        let p = self.plugin_name;
        if let Some(nsd) = options.get_as::<u32>(&format!("{p}:nsd"))? {
            if nsd == 0 {
                return Err(
                    Error::invalid_argument("nsd must be at least 1").in_plugin(p)
                );
            }
            self.nsd = nsd;
        }
        if let Some(mode) = options.get_as::<String>(&format!("{p}:mode"))? {
            self.mode = match mode.as_str() {
                "shave" => GroomMode::Shave,
                "set" => GroomMode::Set,
                "groom" => GroomMode::Groom,
                "round" => GroomMode::Round,
                other => {
                    return Err(Error::invalid_argument(format!(
                        "unknown grooming mode {other:?}"
                    ))
                    .in_plugin(p))
                }
            };
        }
        Ok(())
    }

    fn get_documentation(&self) -> Options {
        let p = self.plugin_name;
        Options::new()
            .with(
                p.to_string(),
                "mantissa manipulation keeping a number of significant decimal digits, then shuffle+deflate",
            )
            .with(format!("{p}:nsd"), "number of significant decimal digits to keep")
            .with(format!("{p}:mode"), "shave | set | groom | round")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        require_dtype(self.plugin_name, input, &[DType::F32, DType::F64])?;
        let mut staged = input.clone();
        match staged.dtype() {
            DType::F32 => grooming::groom_f32(staged.as_mut_slice()?, self.nsd, self.mode),
            _ => grooming::groom_f64(staged.as_mut_slice()?, self.nsd, self.mode),
        }
        let payload = deflate::compress(&shuffle::shuffle(
            staged.as_bytes(),
            staged.dtype().size(),
        ))?;
        let mut w = ByteWriter::with_capacity(payload.len() + 64);
        write_header(&mut w, GROOM_ID, input);
        w.put_section(&payload);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let (dtype, dims, mut r) = read_header(compressed, GROOM_ID, self.plugin_name)?;
        let payload = r.get_section()?;
        let bytes = shuffle::unshuffle(&deflate::decompress(payload)?, dtype.size());
        let n: usize = dims.iter().product();
        if bytes.len() != n * dtype.size() {
            return Err(Error::corrupt("grooming payload size mismatch"));
        }
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin(self.plugin_name))?;
        output.as_bytes_mut().copy_from_slice(&bytes);
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

// ====================================================== linear quantization

/// Error-bounded linear quantization plugin.
#[derive(Debug, Clone)]
pub struct LinearQuantizer {
    bound: ErrorBound,
}

impl Default for LinearQuantizer {
    fn default() -> Self {
        LinearQuantizer {
            bound: ErrorBound::Abs(1e-3),
        }
    }
}

const QUANT_ID: u8 = 11;

impl Compressor for LinearQuantizer {
    fn get_configuration(&self) -> Options {
        pressio_core::base_configuration(self)
    }

    fn name(&self) -> &str {
        "linear_quantizer"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new();
        match self.bound {
            ErrorBound::Abs(b) => {
                o.set("linear_quantizer:abs", b);
                o.declare("linear_quantizer:rel", OptionKind::F64);
            }
            ErrorBound::ValueRangeRel(r) => {
                o.set("linear_quantizer:rel", r);
                o.declare("linear_quantizer:abs", OptionKind::F64);
            }
        }
        // The generic bounds are accepted too (via from_common_options).
        o.declare(pressio_core::OPT_ABS, OptionKind::F64);
        o.declare(pressio_core::OPT_REL, OptionKind::F64);
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(b) = ErrorBound::from_common_options(options)? {
            b.validate()?;
            self.bound = b;
        }
        if let Some(b) = options.get_as::<f64>("linear_quantizer:abs")? {
            let b = ErrorBound::Abs(b);
            b.validate()?;
            self.bound = b;
        }
        if let Some(r) = options.get_as::<f64>("linear_quantizer:rel")? {
            let b = ErrorBound::ValueRangeRel(r);
            b.validate()?;
            self.bound = b;
        }
        Ok(())
    }

    fn check_options(&self, options: &Options) -> Result<()> {
        let mut probe = self.clone();
        probe.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with("linear_quantizer", "error-bounded uniform scalar quantization + entropy coding")
            .with("linear_quantizer:abs", "absolute error bound")
            .with("linear_quantizer:rel", "value-range relative error bound")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        require_dtype("linear_quantizer", input, &[DType::F32, DType::F64])?;
        let values = input.to_f64_vec()?;
        let (min, max) = pressio_core::value_min_max(&values);
        let abs = self.bound.resolve(max - min);
        if abs <= 0.0 {
            return Err(Error::invalid_argument(
                "resolved error bound is zero; use a lossless compressor instead",
            )
            .in_plugin("linear_quantizer"));
        }
        let delta = quantize::step_for_bound(abs);
        let codes = quantize::quantize(&values, min, delta)
            .map_err(|e| e.in_plugin("linear_quantizer"))?;
        let mut residuals = Vec::with_capacity(codes.len() * 2);
        for &c in &codes {
            varint::write_u64(&mut residuals, varint::zigzag(c));
        }
        let payload = deflate::compress(&residuals)?;
        let mut w = ByteWriter::with_capacity(payload.len() + 64);
        write_header(&mut w, QUANT_ID, input);
        w.put_f64(min);
        w.put_f64(delta);
        w.put_section(&payload);
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let (dtype, dims, mut r) = read_header(compressed, QUANT_ID, "linear_quantizer")?;
        let center = r.get_f64()?;
        let delta = r.get_f64()?;
        let payload = r.get_section()?;
        let residuals = deflate::decompress(payload)?;
        output.shape_to(dtype, &dims).map_err(|e| e.in_plugin("linear_quantizer"))?;
        let n = output.num_elements();
        let mut pos = 0usize;
        let mut codes = Vec::new();
        pressio_core::alloc::try_reserve(&mut codes, n)?;
        for _ in 0..n {
            codes.push(varint::unzigzag(varint::read_u64(&residuals, &mut pos)?));
        }
        output.fill_from(&quantize::dequantize(&codes, center, delta))
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

/// Register every codec plugin of this crate into the global registry.
pub fn register_builtins() {
    let reg = registry();
    for kind in [
        CodecKind::Noop,
        CodecKind::Rle,
        CodecKind::Lz,
        CodecKind::Huffman,
        CodecKind::Deflate,
        CodecKind::Shuffle,
        CodecKind::BitShuffle,
        CodecKind::Rans,
    ] {
        reg.register_compressor(kind.name(), move || Box::new(ByteCodec::new(kind)));
    }
    reg.register_compressor("blosc", || Box::new(Blosc::default()));
    reg.register_compressor("fpzip", || Box::new(Fpzip));
    reg.register_compressor("delta", || Box::new(Delta));
    reg.register_compressor("bit_grooming", || Box::new(BitGrooming::grooming()));
    reg.register_compressor("digit_rounding", || Box::new(BitGrooming::rounding()));
    reg.register_compressor("linear_quantizer", || Box::new(LinearQuantizer::default()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::{OPT_ABS, OPT_REL};

    fn field(n: usize) -> Data {
        let vals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin() * 100.0).collect();
        Data::from_vec(vals, vec![n]).unwrap()
    }

    fn roundtrip_lossless(c: &mut dyn Compressor, input: &Data) {
        let compressed = c.compress(input).unwrap();
        let mut out = Data::owned(input.dtype(), input.dims().to_vec());
        c.decompress(&compressed, &mut out).unwrap();
        assert_eq!(&out, input, "plugin {}", c.name());
    }

    #[test]
    fn all_byte_codecs_roundtrip() {
        let input = field(4096);
        for kind in [
            CodecKind::Noop,
            CodecKind::Rle,
            CodecKind::Lz,
            CodecKind::Huffman,
            CodecKind::Deflate,
            CodecKind::Shuffle,
            CodecKind::BitShuffle,
            CodecKind::Rans,
        ] {
            let mut c = ByteCodec::new(kind);
            roundtrip_lossless(&mut c, &input);
        }
    }

    #[test]
    fn byte_codecs_roundtrip_int_data() {
        let vals: Vec<i32> = (0..5000).map(|i| (i / 7) * 3).collect();
        let input = Data::from_vec(vals, vec![50, 100]).unwrap();
        for kind in [CodecKind::Deflate, CodecKind::Shuffle, CodecKind::Lz] {
            roundtrip_lossless(&mut ByteCodec::new(kind), &input);
        }
    }

    #[test]
    fn blosc_modes_roundtrip() {
        let input = field(2048);
        for shuffle_mode in [0u8, 1, 2] {
            for codec in ["lz", "deflate"] {
                let mut b = Blosc::default();
                b.set_options(
                    &Options::new()
                        .with("blosc:shuffle", shuffle_mode)
                        .with("blosc:codec", codec),
                )
                .unwrap();
                roundtrip_lossless(&mut b, &input);
            }
        }
    }

    #[test]
    fn blosc_rejects_bad_options() {
        let mut b = Blosc::default();
        assert!(b
            .set_options(&Options::new().with("blosc:shuffle", 9u8))
            .is_err());
        assert!(b
            .set_options(&Options::new().with("blosc:codec", "zstd"))
            .is_err());
    }

    #[test]
    fn fpzip_is_bit_exact_and_rejects_ints() {
        let input = field(1000);
        roundtrip_lossless(&mut Fpzip, &input);
        let ints = Data::from_vec(vec![1i32, 2, 3], vec![3]).unwrap();
        assert!(Fpzip.compress(&ints).is_err());
    }

    #[test]
    fn delta_roundtrips_every_dtype() {
        roundtrip_lossless(&mut Delta, &field(500));
        let u16s = Data::from_vec((0..300u16).collect::<Vec<_>>(), vec![300]).unwrap();
        roundtrip_lossless(&mut Delta, &u16s);
        let bytes = Data::from_bytes(&[5u8; 999]);
        roundtrip_lossless(&mut Delta, &bytes);
    }

    #[test]
    fn grooming_bounds_relative_error() {
        let input = field(5000);
        let mut g = BitGrooming::grooming();
        g.set_options(&Options::new().with("bit_grooming:nsd", 3u32))
            .unwrap();
        let compressed = g.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![5000]);
        g.decompress(&compressed, &mut out).unwrap();
        let orig = input.as_slice::<f64>().unwrap();
        let got = out.as_slice::<f64>().unwrap();
        for (a, b) in orig.iter().zip(got) {
            if a.abs() > 1e-6 {
                assert!(((a - b) / a).abs() < 5e-3, "{a} vs {b}");
            }
        }
        // Grooming at 3 digits must compress better than raw deflate.
        let raw = ByteCodec::new(CodecKind::Deflate).compress(&input).unwrap();
        assert!(compressed.size_in_bytes() < raw.size_in_bytes());
    }

    #[test]
    fn quantizer_respects_abs_bound() {
        let input = field(8000);
        let mut q = LinearQuantizer::default();
        for bound in [1.0, 1e-2, 1e-5] {
            q.set_options(&Options::new().with("linear_quantizer:abs", bound))
                .unwrap();
            let compressed = q.compress(&input).unwrap();
            let mut out = Data::owned(DType::F64, vec![8000]);
            q.decompress(&compressed, &mut out).unwrap();
            let orig = input.as_slice::<f64>().unwrap();
            let got = out.as_slice::<f64>().unwrap();
            let max_err = orig
                .iter()
                .zip(got)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(max_err <= bound * (1.0 + 1e-9), "bound {bound}: {max_err}");
        }
    }

    #[test]
    fn quantizer_honors_common_options() {
        let input = field(1000);
        let mut q = LinearQuantizer::default();
        q.set_options(&Options::new().with(OPT_REL, 1e-4f64)).unwrap();
        let compressed = q.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![1000]);
        q.decompress(&compressed, &mut out).unwrap();
        let orig = input.as_slice::<f64>().unwrap();
        let range = pressio_core::value_range(orig);
        let got = out.as_slice::<f64>().unwrap();
        let max_err = orig
            .iter()
            .zip(got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= 1e-4 * range * (1.0 + 1e-9));
        let _ = OPT_ABS; // silence unused import in non-test builds
    }

    #[test]
    fn quantizer_rejects_nan_input() {
        let input = Data::from_vec(vec![1.0f64, f64::NAN], vec![2]).unwrap();
        let mut q = LinearQuantizer::default();
        assert!(q.compress(&input).is_err());
    }

    #[test]
    fn wrong_codec_stream_rejected() {
        let input = field(100);
        let compressed = ByteCodec::new(CodecKind::Rle).compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![100]);
        let mut lz = ByteCodec::new(CodecKind::Lz);
        assert!(lz.decompress(&compressed, &mut out).is_err());
    }

    #[test]
    fn output_is_reshaped_from_stream_metadata() {
        let input = field(600);
        let mut input2 = input.clone();
        input2.reshape(vec![20, 30]).unwrap();
        let mut c = ByteCodec::new(CodecKind::Deflate);
        let compressed = c.compress(&input2).unwrap();
        // Hand a flat output buffer; the plugin reshapes it to [20, 30].
        let mut out = Data::owned(DType::F64, vec![600]);
        c.decompress(&compressed, &mut out).unwrap();
        assert_eq!(out.dims(), &[20, 30]);
    }

    #[test]
    fn registration_populates_registry() {
        register_builtins();
        let reg = registry();
        for name in [
            "noop",
            "rle",
            "lz",
            "huffman",
            "rans",
            "deflate",
            "shuffle",
            "bitshuffle",
            "blosc",
            "fpzip",
            "delta",
            "bit_grooming",
            "digit_rounding",
            "linear_quantizer",
        ] {
            assert!(reg.has_compressor(name), "{name} missing");
            let h = reg.compressor(name).unwrap();
            assert_eq!(h.name(), name);
        }
    }
}
