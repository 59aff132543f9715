//! The one chunked-stream container: a `u32` count, then that many
//! length-prefixed sections. `huffman`, `deflate` and `rans` put it behind a
//! magic of their own, `sz_omp` and `chunking` inside their headers; the
//! magics and every byte on disk predate this module and are its parameters.
//! `zfp_omp` is the stated exception: its entries are `u64 bit length ·
//! section`, so it takes [`get_chunk_count`] and keeps its own entry loop.
//!
//! Nothing declared is trusted: a count is bounded by the bytes present (a
//! section costs its 8-byte length prefix, so `count <= remaining / 8` is
//! exact and needs no second wire value) before anything is reserved for it,
//! zero chunks is corrupt, and a chunk that is itself a chunked stream is
//! refused, so a crafted stream cannot recurse.

use std::ops::Range;

use crate::error::{Error, ErrorCode, Result};
use crate::wire::{ByteReader, ByteWriter};

/// Append the directory for `chunks`: the count, then each as a section.
pub fn put_directory<C: AsRef<[u8]>>(w: &mut ByteWriter, chunks: &[C]) {
    w.put_u32(chunks.len() as u32);
    for c in chunks {
        w.put_section(c.as_ref());
    }
}

/// A whole chunked stream: `magic`, then the directory for `chunks`.
pub fn frame<C: AsRef<[u8]>>(magic: u32, chunks: &[C]) -> Vec<u8> {
    let total: usize = chunks.iter().map(|c| c.as_ref().len()).sum();
    let mut w = ByteWriter::with_capacity(total + 8 + 8 * chunks.len());
    w.put_u32(magic);
    put_directory(&mut w, chunks);
    w.into_vec()
}

/// Read a chunk count: at least 1, at most `max` (the format's own limit,
/// `usize::MAX` for none) and no more than the bytes left in `r` can hold.
pub fn get_chunk_count(r: &mut ByteReader<'_>, max: usize) -> Result<usize> {
    let n = r.get_count()?;
    if n == 0 || n > max || n > r.remaining() / 8 {
        return Err(Error::corrupt(format!(
            "directory of {n} chunks: the format allows 1..={max}, {} bytes remain",
            r.remaining()
        )));
    }
    Ok(n)
}

/// Read a directory written by [`put_directory`] as borrowed sections.
pub fn get_directory<'a>(r: &mut ByteReader<'a>, max: usize) -> Result<Vec<&'a [u8]>> {
    let n = get_chunk_count(r, max)?;
    let mut sections = Vec::with_capacity(n);
    for _ in 0..n {
        sections.push(r.get_section()?);
    }
    Ok(sections)
}

/// Encode `ranges` of an input as chunks on the execution engine, each under
/// a trace span named `span`, and frame them behind `magic`. Fewer than two
/// ranges means the input was too small to split: `serial`, the plain
/// format, is the answer. A stop (deadline, cancellation, budget) is returned
/// — retrying would burn the time the caller asked to reclaim; a dead worker
/// falls back to `serial`.
pub fn encode(
    magic: u32,
    span: &'static str,
    ranges: &[Range<usize>],
    chunk: impl Fn(Range<usize>) -> Result<Vec<u8>> + Sync,
    serial: impl FnOnce() -> Result<Vec<u8>>,
) -> Result<Vec<u8>> {
    if ranges.len() <= 1 {
        return serial();
    }
    let chunks = crate::par_map_indexed(ranges.len(), |i| {
        let _s = crate::trace::span_labeled(span, || format!("chunk {i}"));
        chunk(ranges[i].clone())
    });
    match chunks {
        Ok(chunks) => Ok(frame(magic, &chunks)),
        Err(e) if matches!(e.code(), ErrorCode::Timeout | ErrorCode::Cancelled) => Err(e),
        Err(_) => serial(),
    }
}

/// Decode `sections` on the execution engine, each under a trace span named
/// `span`, and concatenate the results. A section starting with `nested`,
/// its container's magic, is refused.
pub fn decode<T: Copy + Send + 'static>(
    sections: &[&[u8]],
    nested: u32,
    span: &'static str,
    chunk: impl Fn(usize, &[u8]) -> Result<Vec<T>> + Sync,
) -> Result<Vec<T>> {
    let decoded = crate::par_map_indexed(sections.len(), |i| {
        let _s = crate::trace::span_labeled(span, || format!("chunk {i}"));
        if sections[i].starts_with(&nested.to_le_bytes()) {
            return Err(Error::corrupt(format!("chunk {i} is itself a chunked stream")));
        }
        chunk(i, sections[i])
    })?;
    Ok(decoded.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity chunks: a framed stream decodes to their concatenation.
    fn read(magic: u32, stream: &[u8], max: usize) -> Result<Vec<u8>> {
        let mut r = ByteReader::new(stream);
        if r.get_u32()? != magic {
            return Err(Error::corrupt("bad magic"));
        }
        decode(&get_directory(&mut r, max)?, magic, "test:chunk", |_, s| Ok(s.to_vec()))
    }

    fn corrupt(r: Result<Vec<u8>>) -> bool {
        r.is_err_and(|e| e.code() == ErrorCode::CorruptStream)
    }

    #[test]
    fn every_malformed_directory_is_refused_for_every_magic() {
        let chunks: [&[u8]; 3] = [b"alpha", b"", b"gamma-gamma"];
        // huffman, deflate, rans, sz's envelope, chunking.
        for magic in [0xDEF1_A7E5, 0xDEF2_C4D1, 0x524E_53C4, 0x535A_5253, 0x4348_4E4B] {
            let stream = frame(magic, &chunks);
            assert_eq!(stream.len(), 4 + 4 + 3 * 8 + 16, "exact capacity arithmetic");
            assert_eq!(read(magic, &stream, 3).unwrap(), b"alphagamma-gamma");
            assert!(corrupt(read(magic, &stream, 2)), "over the format's limit");
            assert!(corrupt(read(magic, &frame::<&[u8]>(magic, &[]), usize::MAX)), "zero chunks");
            // 12 bytes present hold one entry; the stream claims two, then
            // four billion (refused before the directory vector exists: it
            // would be 64 GiB).
            for n in [2u32, u32::MAX] {
                let mut w = ByteWriter::new();
                w.put_u32(magic);
                w.put_u32(n);
                w.put_section(b"four");
                assert!(corrupt(read(magic, &w.into_vec(), usize::MAX)), "count {n}");
            }
            for at in [0, 2] {
                let mut nested = chunks;
                nested[at] = &stream;
                assert!(corrupt(read(magic, &frame(magic, &nested), usize::MAX)), "nested {at}");
            }
            for cut in 0..stream.len() {
                assert!(corrupt(read(magic, &stream[..cut], usize::MAX)), "cut {cut}");
            }
            for i in 0..stream.len() {
                let mut bad = stream.clone();
                bad[i] ^= 0xFF;
                let _ = read(magic, &bad, usize::MAX); // an error or other bytes, no panic
            }
        }
    }

    #[test]
    fn encode_splits_falls_back_and_lets_a_stop_win() {
        let data: Vec<u8> = (0..=255).collect();
        let halves = [0..100, 100..256];
        let encode = |ranges, chunk: &(dyn Fn(Range<usize>) -> Result<Vec<u8>> + Sync)| {
            encode(7, "test:chunk", ranges, chunk, || Ok(b"serial".to_vec()))
        };
        let chunk = |r: Range<usize>| Ok(data[r].to_vec());
        assert_eq!(encode(&halves[..1], &chunk).unwrap(), b"serial", "too small to split");
        assert_eq!(read(7, &encode(&halves, &chunk).unwrap(), 2).unwrap(), data);
        // A dead worker surfaces as `Internal`: the serial stream still serves.
        assert_eq!(encode(&halves, &|_| Err(Error::internal("worker died"))).unwrap(), b"serial");
        for stop in [ErrorCode::Timeout, ErrorCode::Cancelled] {
            let stopped = encode(&halves, &move |_| Err(Error::new(stop, "stop")));
            assert_eq!(stopped.unwrap_err().code(), stop);
        }
    }
}
