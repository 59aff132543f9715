//! `cast`: dtype-conversion meta-compressor.
//!
//! Converts the input to a different element type before the child
//! compressor and back after decompression — the "store doubles as floats"
//! preprocessing many applications apply by hand, made a composable plugin.
//! Narrowing casts are lossy (by at most the target type's representation
//! error); widening casts are exact.

use pressio_core::{
    ByteReader, ByteWriter, Compressor, DType, Data, Error, Options, Result, ThreadSafety,
    Version,
};

use crate::util::{default_child, resolve_child};

const CAST_MAGIC: u32 = 0x4341_5354;

/// The `cast` meta-compressor.
pub struct Cast {
    target: DType,
    child_name: String,
    child: Box<dyn Compressor>,
}

impl Cast {
    /// Cast to `f32` over `noop` until configured.
    pub fn new() -> Cast {
        Cast {
            target: DType::F32,
            child_name: "noop".to_string(),
            child: default_child(),
        }
    }
}

impl Default for Cast {
    fn default() -> Self {
        Cast::new()
    }
}

impl Compressor for Cast {
    fn get_configuration(&self) -> Options {
        let mut o = pressio_core::base_configuration(self);
        o.merge(&self.child.get_configuration());
        o
    }

    fn name(&self) -> &str {
        "cast"
    }

    fn version(&self) -> Version {
        Version::new(1, 0, 0)
    }

    fn thread_safety(&self) -> ThreadSafety {
        self.child.thread_safety()
    }

    fn get_options(&self) -> Options {
        let mut o = Options::new()
            .with("cast:dtype", self.target.name())
            .with("cast:compressor", self.child_name.as_str());
        o.merge(&self.child.get_options());
        o
    }

    fn set_options(&mut self, options: &Options) -> Result<()> {
        if let Some(name) = options.get_as::<String>("cast:compressor")? {
            self.child = resolve_child(&name).map_err(|e| e.in_plugin("cast"))?;
            self.child_name = name;
        }
        if let Some(t) = options.get_as::<String>("cast:dtype")? {
            let dtype = DType::from_name(&t).map_err(|e| e.in_plugin("cast"))?;
            if dtype == DType::Byte {
                return Err(
                    Error::invalid_argument("cannot cast to the opaque byte type").in_plugin("cast")
                );
            }
            self.target = dtype;
        }
        self.child.set_options(options)
    }

    fn get_documentation(&self) -> Options {
        Options::new()
            .with(
                "cast",
                "converts elements to another dtype before the child compressor and back \
                 after (narrowing casts are lossy)",
            )
            .with("cast:dtype", "target element type (e.g. 'float' to store doubles as f32)")
            .with("cast:compressor", "registry name of the child compressor")
    }

    fn compress(&mut self, input: &Data) -> Result<Data> {
        let staged = if input.dtype() == self.target {
            input.clone()
        } else {
            input.cast(self.target).map_err(|e| e.in_plugin("cast"))?
        };
        let inner = self.child.compress(&staged)?;
        let mut w = ByteWriter::with_capacity(inner.size_in_bytes() + 48);
        w.put_u32(CAST_MAGIC);
        w.put_str(&self.child_name);
        w.put_dtype(input.dtype());
        w.put_dtype(self.target);
        w.put_dims(input.dims());
        w.put_section(inner.as_bytes());
        Ok(Data::from_bytes(&w.into_vec()))
    }

    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != CAST_MAGIC {
            return Err(Error::corrupt("bad cast magic").in_plugin("cast"));
        }
        let child_name = r.get_str()?.to_string();
        let orig_dtype = r.get_dtype()?;
        let staged_dtype = r.get_dtype()?;
        let dims = r.get_dims_of(orig_dtype).map_err(|e| e.in_plugin("cast"))?;
        let inner = r.get_section()?;
        if child_name != self.child_name {
            self.child = resolve_child(&child_name).map_err(|e| e.in_plugin("cast"))?;
            self.child_name = child_name;
        }
        let mut staged =
            Data::alloc_output(staged_dtype, dims).map_err(|e| e.in_plugin("cast"))?;
        self.child.decompress(&Data::from_bytes(inner), &mut staged)?;
        let restored = if staged.dtype() == orig_dtype {
            staged
        } else {
            staged.cast(orig_dtype).map_err(|e| e.in_plugin("cast"))?
        };
        *output = restored;
        Ok(())
    }

    fn clone_compressor(&self) -> Box<dyn Compressor> {
        Box::new(Cast {
            target: self.target,
            child_name: self.child_name.clone(),
            child: self.child.clone_compressor(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init() {
        pressio_codecs::register_builtins();
        pressio_sz::register_builtins();
        crate::register_builtins();
    }

    #[test]
    fn f64_as_f32_halves_payload_with_bounded_error() {
        init();
        let vals: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin() * 100.0).collect();
        let input = Data::from_vec(vals.clone(), vec![64, 64]).unwrap();
        let mut c = Cast::new();
        c.set_options(
            &Options::new()
                .with("cast:dtype", "float")
                .with("cast:compressor", "noop"),
        )
        .unwrap();
        let compressed = c.compress(&input).unwrap();
        // noop stores the f32 payload: about half the f64 size.
        assert!(compressed.size_in_bytes() < input.size_in_bytes() * 6 / 10);
        let mut out = Data::owned(DType::F64, vec![64, 64]);
        c.decompress(&compressed, &mut out).unwrap();
        assert_eq!(out.dtype(), DType::F64);
        for (a, b) in vals.iter().zip(out.as_slice::<f64>().unwrap()) {
            // f32 relative representation error.
            assert!((a - b).abs() <= a.abs() * 1e-6 + 1e-6);
        }
    }

    #[test]
    fn composes_with_lossy_child() {
        init();
        let vals: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.02).cos() * 10.0).collect();
        let input = Data::from_vec(vals.clone(), vec![64, 64]).unwrap();
        let mut c = Cast::new();
        c.set_options(
            &Options::new()
                .with("cast:dtype", "float")
                .with("cast:compressor", "sz")
                .with(pressio_core::OPT_ABS, 1e-3f64),
        )
        .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F64, vec![64, 64]);
        c.decompress(&compressed, &mut out).unwrap();
        for (a, b) in vals.iter().zip(out.as_slice::<f64>().unwrap()) {
            // sz bound plus f32 representation error.
            assert!((a - b).abs() <= 1e-3 + a.abs() * 1e-6);
        }
    }

    #[test]
    fn widening_cast_is_exact() {
        init();
        let vals: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let input = Data::from_vec(vals.clone(), vec![100]).unwrap();
        let mut c = Cast::new();
        c.set_options(
            &Options::new()
                .with("cast:dtype", "double")
                .with("cast:compressor", "deflate"),
        )
        .unwrap();
        let compressed = c.compress(&input).unwrap();
        let mut out = Data::owned(DType::F32, vec![100]);
        c.decompress(&compressed, &mut out).unwrap();
        assert_eq!(out.as_slice::<f32>().unwrap(), &vals[..]);
    }

    #[test]
    fn byte_target_rejected() {
        init();
        let mut c = Cast::new();
        assert!(c
            .set_options(&Options::new().with("cast:dtype", "byte"))
            .is_err());
    }
}
