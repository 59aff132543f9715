//! Seeded-regression fixture for the taint analysis (not compiled, not
//! scanned by the workspace walk; `lint_fixtures.rs` feeds it to
//! `lint::scan_source`): the `sz` directory read as it stood before
//! `pressio_core::chunked`, verbatim. The count is guarded — against a
//! dimension read out of the same header. 22 bytes declaring `dims = [1 << 38]`
//! and a count of `0xFFFF_FFFF` passed it and reserved 64 GiB; the lint took
//! it for a dominating guard. Below it, the other sink: an output buffer
//! zero-filled at whatever size the header said.

impl Compressor for Sz {
    fn decompress(&mut self, compressed: &Data, output: &mut Data) -> Result<()> {
        // Same brief-lock parameter snapshot as `compress`.
        let me = {
            let _guard = (self.variant == SzVariant::Global).then(lock_store);
            self.clone()
        };
        let mut r = ByteReader::new(compressed.as_bytes());
        if r.get_u32()? != MAGIC {
            return Err(Error::corrupt("bad sz envelope magic").in_plugin(self.prefix()));
        }
        let dtype = r.get_dtype()?;
        let dims = r.get_dims()?;
        pressio_core::checked_geometry(dtype, &dims)
            .map_err(|e| e.in_plugin(self.prefix()))?;
        let mode_tag = r.get_u8()?;
        let pw_rel = match mode_tag {
            0 => None,
            1 => {
                let floor = r.get_f64()?;
                let signs = pressio_codecs::deflate::decompress(r.get_section()?)?;
                let exceptions = pressio_codecs::deflate::decompress(r.get_section()?)?;
                Some((floor, signs, exceptions))
            }
            other => {
                return Err(
                    Error::corrupt(format!("unknown sz mode tag {other}")).in_plugin(self.prefix())
                )
            }
        };
        let n_bodies = r.get_count()?;
        if n_bodies == 0 || n_bodies > dims.first().copied().unwrap_or(1).max(1) {
            return Err(Error::corrupt("sz chunk count out of range").in_plugin(self.prefix()));
        }
        let mut bodies = Vec::with_capacity(n_bodies);
        for _ in 0..n_bodies {
            bodies.push(r.get_section()?);
        }
        Ok(())
    }
}

fn decompress_unchecked_output(compressed: &Data, output: &mut Data) -> Result<()> {
    let mut r = ByteReader::new(compressed.as_bytes());
    let dtype = r.get_dtype()?;
    let dims = r.get_dims()?;
    *output = Data::owned(dtype, dims);
    Ok(())
}
