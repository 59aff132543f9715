//! "deflate-lite": LZ77 followed by canonical Huffman over the LZ bytes.
//!
//! The general-purpose lossless backend used by the lossy compressors for
//! their entropy-coded sections (the role zlib/zstd play for SZ). Large
//! inputs can be compressed chunk-parallel on the shared execution engine
//! ([`compress_par`]); each chunk is a complete serial stream behind a chunk
//! directory, and [`decompress`] reads both formats transparently.

use pressio_core::{chunked, ByteReader, Result};

use crate::{huffman, lz77};

/// Leading word of a chunked stream. A serial stream always starts with the
/// byte-Huffman alphabet (256), so the two formats cannot collide.
const CHUNK_MAGIC: u32 = 0xDEF2_C4D1;
/// Minimum input bytes per chunk worth an independent dictionary + task.
const MIN_CHUNK_BYTES: usize = 64 * 1024;

/// Compress bytes: LZ77 then byte-Huffman. Fallible only through cooperative
/// cancellation (deadline, explicit cancel, or memory budget).
///
/// ```
/// let data = b"abcabcabcabcabc".repeat(100);
/// let packed = pressio_codecs::deflate::compress(&data).unwrap();
/// assert!(packed.len() < data.len() / 4);
/// assert_eq!(pressio_codecs::deflate::decompress(&packed).unwrap(), data);
/// ```
pub fn compress(data: &[u8]) -> Result<Vec<u8>> {
    pressio_core::cancel::checkpoint()?;
    let staged = lz77::compress(data);
    pressio_core::cancel::checkpoint()?;
    huffman::encode_bytes(&staged)
}

/// Compress in up to `pieces` independent chunks in parallel. Chunking costs
/// some ratio (dictionaries reset at boundaries) and is skipped for inputs
/// too small to split. The split depends only on `pieces` and the input
/// length, so streams are machine-independent.
pub fn compress_par(data: &[u8], pieces: usize) -> Result<Vec<u8>> {
    // Plan with deflate's own 64 KiB floor (not the engine default): chunk
    // boundaries reset the LZ dictionary, so the ratio cost of a split is
    // paid back sooner than for the pure entropy coders.
    let ranges = pressio_core::plan_chunks_min(data.len(), 1, pieces, MIN_CHUNK_BYTES);
    chunked::encode(
        CHUNK_MAGIC,
        "deflate:compress_chunk",
        &ranges,
        |range| compress(&data[range]),
        || compress(data),
    )
}

/// Inverse of [`compress`] / [`compress_par`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    if !data.starts_with(&CHUNK_MAGIC.to_le_bytes()) {
        return lz77::decompress(&huffman::decode_bytes(data)?);
    }
    let mut r = ByteReader::new(&data[4..]);
    let sections = chunked::get_directory(&mut r, usize::MAX)?;
    chunked::decode(&sections, CHUNK_MAGIC, "deflate:decompress_chunk", |_, section| {
        lz77::decompress(&huffman::decode_bytes(section)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various() {
        for data in [
            vec![],
            vec![0u8; 1],
            vec![1u8; 50_000],
            (0..10_000u32).flat_map(|i| (i % 251).to_le_bytes()).collect::<Vec<_>>(),
            b"the quick brown fox jumps over the lazy dog".repeat(500),
        ] {
            let c = compress(&data).unwrap();
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn compresses_structured_data() {
        let data: Vec<u8> = (0..100_000u32).flat_map(|i| ((i / 64) as u16).to_le_bytes()).collect();
        let c = compress(&data).unwrap();
        assert!(
            c.len() * 4 < data.len(),
            "deflate-lite should achieve >4x on slowly varying data: {} vs {}",
            c.len(),
            data.len()
        );
    }

    #[test]
    fn corrupt_stream_errors() {
        let c = compress(b"some data some data some data").unwrap();
        for cut in [0, 1, c.len() / 2] {
            assert!(decompress(&c[..cut]).is_err());
        }
    }

    /// The codec's row of the container table (`pressio_core::chunked` has
    /// the malformed-directory cases): wired to it with this magic.
    #[test]
    fn par_roundtrip_chunked() {
        let data: Vec<u8> = (0..3 * MIN_CHUNK_BYTES + 13)
            .map(|i| ((i / 64) % 251) as u8)
            .collect();
        for pieces in [2usize, 3, 7] {
            let c = compress_par(&data, pieces).unwrap();
            assert_eq!(&c[..4], &CHUNK_MAGIC.to_le_bytes());
            assert_eq!(decompress(&c).unwrap(), data, "pieces {pieces}");
            assert!(decompress(&chunked::frame(CHUNK_MAGIC, &[c])).is_err(), "nested");
        }
        // Too small to split: the serial format, byte for byte.
        assert_eq!(compress_par(&data[..270], 8).unwrap(), compress(&data[..270]).unwrap());
    }
}
