//! Well-formed hostile streams: valid magic and framing, a header declaring
//! sizes nothing behind it backs. The byte-level mutators
//! ([`meta::mutate_stream`](crate::meta::mutate_stream)) rarely get past a
//! decoder's first magic; these reach the line that sizes something, and each
//! aborted the process (`handle_alloc_error`, 64 GiB–1 TiB) when it was
//! written, because the decoder bounded one wire value by another, or by
//! nothing, and then reserved for it. `tests/hostile_streams.rs` holds every
//! decoder to a structured error on each; `pressio fuzz-decode` decodes them
//! as-is and then mutates them like any other seed.

use pressio_codecs::deflate;
use pressio_core::{ByteWriter, DType, Result};

/// One hostile stream and how to present it to a decoder.
pub struct HostileStream {
    /// What the stream lies about.
    pub name: &'static str,
    /// Registry name of the compressor that must refuse it.
    pub plugin: &'static str,
    /// Element type the header declares: decode into `Data::empty(dtype)`.
    pub dtype: DType,
    /// The stream.
    pub bytes: Vec<u8>,
}

/// The corpus, smallest first. Fails only as `deflate::compress` can: under
/// a tripped ambient [`CancelToken`](pressio_core::CancelToken).
pub fn streams() -> Result<Vec<HostileStream>> {
    use DType::{F32, F64};
    let empty = deflate::compress(&[])?;
    let mut corpus = Vec::new();
    // `magic · (child name) · dtype · dims`, then whatever `rest` appends.
    let mut add = |name, plugin, magic, dtype, dim: usize, rest: &dyn Fn(&mut ByteWriter)| {
        let mut w = ByteWriter::new();
        w.put_u32(magic);
        if plugin == "chunking" {
            w.put_str("noop");
        }
        w.put_dtype(dtype);
        w.put_dims(&[dim]);
        rest(&mut w);
        corpus.push(HostileStream { name, plugin, dtype, bytes: w.into_vec() });
    };
    // 22, 30, 33 bytes: four billion bodies / chunks, "at most one per row"
    // (per block) of a dimension out of the same header.
    add("sz_body_count", "sz", 0x535A_5253, F32, 1 << 38, &|w| {
        w.put_u8(0);
        w.put_u32(u32::MAX);
    });
    let zfp_mode = |w: &mut ByteWriter| {
        w.put_u8(2);
        w.put_f64(1e-3);
    };
    add("zfp_chunk_count", "zfp", 0x5A46_5052, F32, 1 << 38, &|w| {
        zfp_mode(w);
        w.put_u32(u32::MAX);
    });
    add("chunking_chunk_count", "chunking", 0x4348_4E4B, F32, 1 << 38, &|w| w.put_u32(u32::MAX));
    // 46: one chunk of zero bits — an honest directory — for 2^36 values
    // the kernel stages as f64 before decoding any.
    add("zfp_staging", "zfp", 0x5A46_5052, F32, 1 << 36, &|w| {
        zfp_mode(w);
        w.put_u32(1);
        w.put_u64(0);
        w.put_section(&[]);
    });
    // 75: rank 0 (a zero field is a legal stream) of a 2^18 x 2^18 matrix
    // that `reconstruct` zero-fills first.
    add("tthresh_matrix", "tthresh", 0x5454_4852, F64, 1 << 36, &|w| {
        w.put_u64(1 << 18);
        w.put_u64(1 << 18);
        w.put_u32(0);
        w.put_section(&empty);
    });
    // 120: rank 1 of a 2^37 x 1 matrix; the factor vector was reserved at its
    // declared length before its first value was read.
    let factor = deflate::compress(&[1.0f64.to_le_bytes(), 1.0f64.to_le_bytes()].concat())?;
    add("tthresh_factor", "tthresh", 0x5454_4852, F64, 1 << 37, &|w| {
        w.put_u64(1 << 37);
        w.put_u64(1);
        w.put_u32(1);
        w.put_section(&factor);
    });
    // 121: the level count 2^36 points imply and a code count to match, over
    // two empty sections.
    add("mgard_codes", "mgard", 0x4D47_5244, F64, 1 << 36, &|w| {
        let mut body = ByteWriter::new();
        body.put_f64(1e-3);
        body.put_u32(35);
        body.put_u64(1 << 36);
        body.put_section(&empty);
        body.put_section(&empty);
        w.put_section(body.as_slice());
    });
    Ok(corpus)
}
