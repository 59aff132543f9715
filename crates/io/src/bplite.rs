//! `bplite`: a minimal timestep-stream IO engine (the ADIOS2 integration
//! analog).
//!
//! A writer appends `(step, variable, data)` records to one stream file,
//! optionally through a compression *operator* — which, as in the real
//! ADIOS2+LibPressio integration, is simply any registered compressor
//! configured through generic options. A reader scans the stream and
//! retrieves variables per step.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;

use pressio_core::{
    registry, ByteReader, ByteWriter, Data, Error, Options, Result,
};

const MAGIC: u32 = 0x4250_4C54; // "BPLT"

/// Writer for a bplite stream.
pub struct BpWriter {
    w: ByteWriter,
    step: u32,
    in_step: bool,
    operator: Option<(String, Options)>,
}

impl BpWriter {
    /// Start a new stream.
    pub fn new() -> BpWriter {
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        BpWriter {
            w,
            step: 0,
            in_step: false,
            operator: None,
        }
    }

    /// Attach a compression operator: every subsequent `put` compresses with
    /// this registered compressor and options.
    pub fn set_operator(&mut self, compressor: &str, options: Options) -> Result<()> {
        if !registry().has_compressor(compressor) {
            return Err(Error::not_found(format!(
                "no compressor named {compressor:?}"
            )));
        }
        self.operator = Some((compressor.to_string(), options));
        Ok(())
    }

    /// Begin the next time step.
    pub fn begin_step(&mut self) -> u32 {
        if self.in_step {
            self.step += 1;
        }
        self.in_step = true;
        self.step
    }

    /// Write one variable in the current step.
    pub fn put(&mut self, name: &str, data: &Data) -> Result<()> {
        if !self.in_step {
            return Err(Error::invalid_argument("put outside begin_step/end_step"));
        }
        self.w.put_u32(self.step);
        self.w.put_str(name);
        self.w.put_dtype(data.dtype());
        self.w.put_dims(data.dims());
        match &self.operator {
            Some((comp, opts)) => {
                let mut c = registry().compressor(comp)?;
                c.set_options(opts)?;
                let compressed = c.compress(data)?;
                self.w.put_u8(1);
                self.w.put_str(comp);
                self.w.put_section(compressed.as_bytes());
            }
            None => {
                self.w.put_u8(0);
                self.w.put_section(data.as_bytes());
            }
        }
        Ok(())
    }

    /// End the current time step.
    pub fn end_step(&mut self) {
        // Step boundaries are implicit in the records; bump on next begin.
    }

    /// Finish, returning the stream bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.w.into_vec()
    }

    /// Finish and write the stream to a file.
    pub fn save(self, path: impl AsRef<Path>) -> Result<()> {
        let bytes = self.into_bytes();
        let mut f = std::fs::File::create(path)?;
        f.write_all(&bytes)?;
        Ok(())
    }
}

impl Default for BpWriter {
    fn default() -> Self {
        BpWriter::new()
    }
}

/// Reader over a bplite stream.
pub struct BpReader {
    /// step -> variable -> data
    steps: BTreeMap<u32, BTreeMap<String, Data>>,
}

impl BpReader {
    /// Parse a stream from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<BpReader> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32()? != MAGIC {
            return Err(Error::corrupt("not a bplite stream (bad magic)"));
        }
        let mut steps: BTreeMap<u32, BTreeMap<String, Data>> = BTreeMap::new();
        while r.remaining() > 0 {
            let step = r.get_u32()?;
            let name = r.get_str()?.to_string();
            let dtype = r.get_dtype()?;
            let dims = r.get_dims()?;
            let geometry_bytes = pressio_core::checked_geometry(dtype, &dims)?;
            let compressed = r.get_u8()? != 0;
            let data = if compressed {
                let comp = r.get_str()?.to_string();
                let payload = r.get_section()?;
                let mut c = registry().compressor(&comp)?;
                // The geometry is the file's claim, not yet backed by a
                // payload of that size: a refused allocation is an error.
                let mut out = Data::alloc_output(dtype, dims)?;
                c.decompress(&Data::from_bytes(payload), &mut out)?;
                out
            } else {
                let payload = r.get_section()?;
                if geometry_bytes != payload.len() {
                    return Err(Error::corrupt("bplite record size mismatch"));
                }
                let mut out = Data::alloc_output(dtype, dims)?;
                out.as_bytes_mut().copy_from_slice(payload);
                out
            };
            steps.entry(step).or_default().insert(name, data);
        }
        Ok(BpReader { steps })
    }

    /// Open a stream file.
    pub fn open(path: impl AsRef<Path>) -> Result<BpReader> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        BpReader::from_bytes(&bytes)
    }

    /// Number of steps present.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Variable names present in a step.
    pub fn variables(&self, step: u32) -> Vec<String> {
        self.steps
            .get(&step)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Retrieve one variable of one step.
    pub fn get(&self, step: u32, name: &str) -> Result<&Data> {
        self.steps
            .get(&step)
            .and_then(|m| m.get(name))
            .ok_or_else(|| Error::not_found(format!("step {step} variable {name:?} not found")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init() {
        pressio_codecs::register_builtins();
    }

    fn step_field(step: usize) -> Data {
        let v: Vec<f64> = (0..256)
            .map(|i| (i as f64 * 0.1 + step as f64).sin())
            .collect();
        Data::from_vec(v, vec![16, 16]).unwrap()
    }

    #[test]
    fn multi_step_roundtrip_uncompressed() {
        init();
        let mut w = BpWriter::new();
        for s in 0..3 {
            w.begin_step();
            w.put("temperature", &step_field(s)).unwrap();
            w.put("pressure", &step_field(s + 10)).unwrap();
            w.end_step();
        }
        let bytes = w.into_bytes();
        let r = BpReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.num_steps(), 3);
        assert_eq!(
            r.variables(1),
            vec!["pressure".to_string(), "temperature".to_string()]
        );
        assert_eq!(r.get(2, "temperature").unwrap(), &step_field(2));
        assert!(r.get(9, "temperature").is_err());
    }

    #[test]
    fn operator_compresses_records() {
        init();
        let smooth: Vec<f64> = (0..40_000).map(|i| (i / 50) as f64).collect();
        let big = Data::from_vec(smooth, vec![200, 200]).unwrap();

        let mut plain = BpWriter::new();
        plain.begin_step();
        plain.put("x", &big).unwrap();
        let plain_len = plain.into_bytes().len();

        let mut comp = BpWriter::new();
        comp.set_operator("deflate", Options::new()).unwrap();
        comp.begin_step();
        comp.put("x", &big).unwrap();
        let bytes = comp.into_bytes();
        assert!(bytes.len() < plain_len / 2);
        let r = BpReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.get(0, "x").unwrap(), &big);
    }

    #[test]
    fn put_outside_step_errors() {
        init();
        let mut w = BpWriter::new();
        assert!(w.put("x", &Data::from_bytes(&[1])).is_err());
    }

    #[test]
    fn unknown_operator_rejected() {
        init();
        let mut w = BpWriter::new();
        assert!(w.set_operator("nope", Options::new()).is_err());
    }

    #[test]
    fn corrupt_stream_errors() {
        init();
        let mut w = BpWriter::new();
        w.begin_step();
        w.put("x", &step_field(0)).unwrap();
        let bytes = w.into_bytes();
        assert!(BpReader::from_bytes(&bytes[..bytes.len() - 10]).is_err());
        assert!(BpReader::from_bytes(b"junk").is_err());
    }

    #[test]
    fn file_roundtrip() {
        init();
        let dir = std::env::temp_dir().join("pressio-bplite-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.bp").to_string_lossy().into_owned();
        let mut w = BpWriter::new();
        w.set_operator("lz", Options::new()).unwrap();
        w.begin_step();
        w.put("v", &step_field(5)).unwrap();
        w.save(&path).unwrap();
        let r = BpReader::open(&path).unwrap();
        assert_eq!(r.get(0, "v").unwrap(), &step_field(5));
    }
}
