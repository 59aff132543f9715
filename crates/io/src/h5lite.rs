//! `h5lite`: a small single-file container with named typed n-d datasets and
//! per-dataset compression filters.
//!
//! Stands in for HDF5 + its filter plugins in this reproduction. The key
//! point the paper makes is architectural: with a generic compression
//! interface, *one* filter implementation serves every compressor — instead
//! of one HDF5 filter per compressor. Here any registered compressor name
//! can be a dataset's filter, configured through the same [`Options`] as
//! everywhere else.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;

use pressio_core::{
    registry, ByteReader, ByteWriter, DType, Data, Error, IoPlugin, OptionKind, Options, Result,
};

const MAGIC: u32 = 0x4835_4C54; // "H5LT"
const VERSION: u32 = 1;

#[derive(Debug, Clone)]
struct StoredDataset {
    dtype: DType,
    dims: Vec<usize>,
    /// Registered compressor used as the filter, if any.
    filter: Option<String>,
    /// Compressed (or raw) payload.
    payload: Vec<u8>,
}

/// An in-memory h5lite container, loadable from and savable to one file.
#[derive(Debug, Clone, Default)]
pub struct H5File {
    datasets: BTreeMap<String, StoredDataset>,
}

impl H5File {
    /// An empty container.
    pub fn new() -> H5File {
        H5File::default()
    }

    /// Dataset names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.datasets.keys().cloned().collect()
    }

    /// True when `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.datasets.contains_key(name)
    }

    /// Dataset geometry without decompressing: `(dtype, dims, filter)`.
    pub fn stat(&self, name: &str) -> Option<(DType, &[usize], Option<&str>)> {
        self.datasets
            .get(name)
            .map(|d| (d.dtype, d.dims.as_slice(), d.filter.as_deref()))
    }

    /// Store a dataset uncompressed.
    pub fn put(&mut self, name: impl Into<String>, data: &Data) -> Result<()> {
        self.datasets.insert(
            name.into(),
            StoredDataset {
                dtype: data.dtype(),
                dims: data.dims().to_vec(),
                filter: None,
                payload: data.as_bytes().to_vec(),
            },
        );
        Ok(())
    }

    /// Store a dataset through a compression filter — any registered
    /// compressor, configured by `options` (the generic HDF5-filter analog).
    pub fn put_filtered(
        &mut self,
        name: impl Into<String>,
        data: &Data,
        filter: &str,
        options: &Options,
    ) -> Result<()> {
        let mut c = registry().compressor(filter)?;
        c.set_options(options)?;
        let compressed = c.compress(data)?;
        self.datasets.insert(
            name.into(),
            StoredDataset {
                dtype: data.dtype(),
                dims: data.dims().to_vec(),
                filter: Some(filter.to_string()),
                payload: compressed.as_bytes().to_vec(),
            },
        );
        Ok(())
    }

    /// Read a dataset, applying the inverse filter if one was used.
    pub fn get(&self, name: &str) -> Result<Data> {
        let ds = self
            .datasets
            .get(name)
            .ok_or_else(|| Error::not_found(format!("no dataset named {name:?}")))?;
        let expect = pressio_core::checked_geometry(ds.dtype, &ds.dims)?;
        match &ds.filter {
            None => {
                if expect != ds.payload.len() {
                    return Err(Error::corrupt("dataset payload size mismatch"));
                }
                let mut out = Data::owned(ds.dtype, ds.dims.clone());
                out.as_bytes_mut().copy_from_slice(&ds.payload);
                Ok(out)
            }
            Some(filter) => {
                let mut c = registry().compressor(filter)?;
                // The geometry is the file's claim, not yet backed by a
                // payload of that size: a refused allocation is an error.
                let mut out = Data::alloc_output(ds.dtype, ds.dims.clone())?;
                c.decompress(&Data::from_bytes(&ds.payload), &mut out)?;
                Ok(out)
            }
        }
    }

    /// Remove a dataset.
    pub fn remove(&mut self, name: &str) -> bool {
        self.datasets.remove(name).is_some()
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u32(VERSION);
        w.put_u32(self.datasets.len() as u32);
        for (name, ds) in &self.datasets {
            w.put_str(name);
            w.put_dtype(ds.dtype);
            w.put_dims(&ds.dims);
            match &ds.filter {
                Some(f) => {
                    w.put_u8(1);
                    w.put_str(f);
                }
                None => w.put_u8(0),
            }
            w.put_section(&ds.payload);
        }
        w.into_vec()
    }

    /// Parse from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<H5File> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32()? != MAGIC {
            return Err(Error::corrupt("not an h5lite file (bad magic)"));
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(Error::unsupported(format!(
                "h5lite version {version} is not supported"
            )));
        }
        let n = r.get_u32()?;
        let mut datasets = BTreeMap::new();
        for _ in 0..n {
            let name = r.get_str()?.to_string();
            let dtype = r.get_dtype()?;
            let dims = r.get_dims()?;
            pressio_core::checked_geometry(dtype, &dims)?;
            let filter = if r.get_u8()? != 0 {
                Some(r.get_str()?.to_string())
            } else {
                None
            };
            let payload = r.get_section()?.to_vec();
            datasets.insert(
                name,
                StoredDataset {
                    dtype,
                    dims,
                    filter,
                    payload,
                },
            );
        }
        Ok(H5File { datasets })
    }

    /// Write the container to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Load a container from a file.
    pub fn open(path: impl AsRef<Path>) -> Result<H5File> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        H5File::from_bytes(&bytes)
    }
}

/// The `h5lite` IO plugin: reads/writes one dataset of a container file.
pub struct H5LiteIo {
    path: Option<String>,
    dataset: String,
    filter: Option<String>,
    filter_options: Options,
}

impl Default for H5LiteIo {
    fn default() -> Self {
        H5LiteIo {
            path: None,
            dataset: "data".to_string(),
            filter: None,
            filter_options: Options::new(),
        }
    }
}

impl IoPlugin for H5LiteIo {
    fn name(&self) -> &str {
        "h5lite"
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new().with("h5lite:dataset", self.dataset.as_str());
        match &self.path {
            Some(p) => o.set("io:path", p.as_str()),
            None => o.declare("io:path", OptionKind::Str),
        }
        match &self.filter {
            Some(f) => o.set("h5lite:filter", f.as_str()),
            None => o.declare("h5lite:filter", OptionKind::Str),
        }
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(p) = options.get_as::<String>("io:path")? {
            self.path = Some(p);
        }
        if let Some(d) = options.get_as::<String>("h5lite:dataset")? {
            self.dataset = d;
        }
        if let Some(f) = options.get_as::<String>("h5lite:filter")? {
            if f.is_empty() {
                self.filter = None;
            } else {
                if !registry().has_compressor(&f) {
                    return Err(Error::not_found(format!("no compressor named {f:?}"))
                        .in_plugin("h5lite"));
                }
                self.filter = Some(f);
            }
        }
        // Everything else is filter configuration, forwarded at write time.
        self.filter_options.merge(options);
        Ok(())
    }

    fn read(&mut self, _template: Option<&Data>) -> Result<Data> {
        let path = self
            .path
            .clone()
            .ok_or_else(|| Error::invalid_argument("io:path is not set").in_plugin("h5lite"))?;
        H5File::open(path)?.get(&self.dataset)
    }

    fn write(&mut self, data: &Data) -> Result<()> {
        let path = self
            .path
            .clone()
            .ok_or_else(|| Error::invalid_argument("io:path is not set").in_plugin("h5lite"))?;
        let mut file = if std::path::Path::new(&path).exists() {
            H5File::open(&path)?
        } else {
            H5File::new()
        };
        match &self.filter {
            Some(f) => file.put_filtered(&self.dataset, data, f, &self.filter_options)?,
            None => file.put(&self.dataset, data)?,
        }
        file.save(path)
    }

    fn clone_io(&self) -> Box<dyn IoPlugin> {
        Box::new(H5LiteIo {
            path: self.path.clone(),
            dataset: self.dataset.clone(),
            filter: self.filter.clone(),
            filter_options: self.filter_options.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init() {
        pressio_codecs::register_builtins();
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pressio-h5lite-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn container_roundtrip_multiple_datasets() {
        init();
        let mut f = H5File::new();
        let a = Data::from_vec((0..100i32).collect::<Vec<_>>(), vec![10, 10]).unwrap();
        let b = Data::from_vec(vec![1.5f64; 64], vec![4, 4, 4]).unwrap();
        f.put("grid/a", &a).unwrap();
        f.put_filtered("grid/b", &b, "deflate", &Options::new()).unwrap();
        assert_eq!(f.names(), vec!["grid/a".to_string(), "grid/b".to_string()]);
        let bytes = f.to_bytes();
        let g = H5File::from_bytes(&bytes).unwrap();
        assert_eq!(g.get("grid/a").unwrap(), a);
        assert_eq!(g.get("grid/b").unwrap(), b);
        assert!(g.get("missing").is_err());
        let (dt, dims, filter) = g.stat("grid/b").unwrap();
        assert_eq!(dt, DType::F64);
        assert_eq!(dims, &[4, 4, 4]);
        assert_eq!(filter, Some("deflate"));
    }

    #[test]
    fn filtered_dataset_is_smaller() {
        init();
        let smooth: Vec<f64> = (0..10_000).map(|i| (i / 100) as f64).collect();
        let d = Data::from_vec(smooth, vec![100, 100]).unwrap();
        let mut raw = H5File::new();
        raw.put("x", &d).unwrap();
        let mut filtered = H5File::new();
        filtered.put_filtered("x", &d, "shuffle", &Options::new()).unwrap();
        assert!(filtered.to_bytes().len() < raw.to_bytes().len() / 2);
        assert_eq!(filtered.get("x").unwrap(), d);
    }

    #[test]
    fn any_registered_compressor_is_a_filter() {
        init();
        // The architectural point: one generic filter serves all plugins.
        let d = Data::from_vec(vec![3.25f32; 256], vec![16, 16]).unwrap();
        for filter in ["rle", "lz", "deflate", "blosc", "fpzip"] {
            let mut f = H5File::new();
            f.put_filtered("x", &d, filter, &Options::new()).unwrap();
            let bytes = f.to_bytes();
            let g = H5File::from_bytes(&bytes).unwrap();
            assert_eq!(g.get("x").unwrap(), d, "filter {filter}");
        }
    }

    #[test]
    fn corrupt_container_errors() {
        init();
        let mut f = H5File::new();
        f.put("x", &Data::from_bytes(&[1, 2, 3])).unwrap();
        let bytes = f.to_bytes();
        assert!(H5File::from_bytes(&bytes[..5]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(H5File::from_bytes(&bad).is_err());
    }

    #[test]
    fn io_plugin_file_roundtrip_with_filter() {
        init();
        let path = tmp("c.h5l");
        let _ = std::fs::remove_file(&path);
        let d = Data::from_vec((0..4096).map(|i| i as f64).collect::<Vec<_>>(), vec![64, 64])
            .unwrap();
        let mut io = H5LiteIo::default();
        io.set_options(
            &Options::new()
                .with("io:path", path.as_str())
                .with("h5lite:dataset", "pressure")
                .with("h5lite:filter", "deflate"),
        )
        .unwrap();
        io.write(&d).unwrap();
        let back = io.read(None).unwrap();
        assert_eq!(back, d);
        // A second dataset appends without clobbering the first.
        let mut io2 = H5LiteIo::default();
        io2.set_options(
            &Options::new()
                .with("io:path", path.as_str())
                .with("h5lite:dataset", "velocity"),
        )
        .unwrap();
        io2.write(&Data::from_bytes(&[9, 9])).unwrap();
        let f = H5File::open(&path).unwrap();
        assert_eq!(f.names().len(), 2);
    }

    #[test]
    fn unknown_filter_rejected_at_configuration() {
        init();
        let mut io = H5LiteIo::default();
        assert!(io
            .set_options(&Options::new().with("h5lite:filter", "definitely_not_registered"))
            .is_err());
    }
}
