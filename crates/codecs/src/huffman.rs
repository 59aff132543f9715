//! Canonical Huffman coding over a `u32` symbol alphabet.
//!
//! Used both as a generic byte entropy coder (alphabet 256) and as the
//! quantization-code coder of the SZ-style compressor (alphabet up to
//! 2·radius+2). Codes are canonical, so the table serializes as just the
//! per-symbol code lengths of the present symbols.

use std::collections::BinaryHeap;

use pressio_core::{chunked, ByteReader, ByteWriter, Error, Result};

use crate::bitstream::{BitReader, BitWriter};

/// Longest permitted code, in bits.
const MAX_CODE_LEN: u8 = 32;
/// Largest permitted alphabet (guards allocations on corrupt streams).
const MAX_ALPHABET: u32 = 1 << 22;
/// Leading word of a chunked stream. Deliberately above [`MAX_ALPHABET`], so
/// the decoder can tell the two formats apart from the first word alone and
/// serial streams stay readable byte-for-byte.
const CHUNK_MAGIC: u32 = 0xDEF1_A7E5;
/// Bytes each staged symbol occupies for chunk-planning purposes.
const SYMBOL_BYTES: usize = std::mem::size_of::<u32>();
/// Minimum symbols per chunk worth an independent table and worker task —
/// the engine's byte floor expressed in symbols, so the chunk geometry (and
/// therefore the stream bytes) is identical to planning by bytes.
const MIN_CHUNK_SYMBOLS: usize = pressio_core::MIN_CHUNK_BYTES / SYMBOL_BYTES;
/// Largest alphabet whose frequency table lives in the per-worker scratch
/// arena. Bigger alphabets (up to [`MAX_ALPHABET`] = 2^22) allocate fresh:
/// pinning a 32 MiB table per worker forever is worse than the malloc.
const SCRATCH_ALPHABET: u32 = 1 << 17;
/// Width of the single-level decode table: one peek resolves any code of at
/// most this many bits. Longer codes (rare tails of deep trees) fall back to
/// the bit-at-a-time reference decoder.
const LUT_BITS: u32 = 12;
/// Streams shorter than this decode bit-at-a-time: filling the 4096-entry
/// table costs more than it saves on tiny inputs.
const LUT_MIN_SYMBOLS: usize = 1024;

/// Compute canonical code lengths for `freq` (0 entries absent), limiting the
/// maximum length by frequency rescaling (the zlib trick).
fn code_lengths(freq: &[u64]) -> Vec<u8> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        // Tie-break on id for determinism.
        id: u32,
        kind: NodeKind,
    }
    #[derive(PartialEq, Eq)]
    enum NodeKind {
        Leaf(u32),
        Internal(Box<Node>, Box<Node>),
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap.
            other
                .weight
                .cmp(&self.weight)
                .then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    fn assign(node: &Node, depth: u8, lens: &mut [u8]) {
        match &node.kind {
            NodeKind::Leaf(s) => lens[*s as usize] = depth.max(1),
            NodeKind::Internal(a, b) => {
                assign(a, depth + 1, lens);
                assign(b, depth + 1, lens);
            }
        }
    }

    // Borrow `freq` for the common first pass; copy only if a depth overflow
    // forces rescaling (rare — needs pathological, Fibonacci-like counts).
    let mut scaled: Option<Vec<u64>> = None;
    loop {
        let weights: &[u64] = scaled.as_deref().unwrap_or(freq);
        let mut heap: BinaryHeap<Node> = weights
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, &f)| Node {
                weight: f,
                id: s as u32,
                kind: NodeKind::Leaf(s as u32),
            })
            .collect();
        let mut lens = vec![0u8; freq.len()];
        if heap.is_empty() {
            return lens;
        }
        if heap.len() == 1 {
            if let Some(Node {
                kind: NodeKind::Leaf(s),
                ..
            }) = heap.pop()
            {
                lens[s as usize] = 1;
            }
            return lens;
        }
        let mut next_id = freq.len() as u32;
        while heap.len() > 1 {
            let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else {
                break;
            };
            let w = a.weight + b.weight;
            heap.push(Node {
                weight: w,
                id: next_id,
                kind: NodeKind::Internal(Box::new(a), Box::new(b)),
            });
            next_id += 1;
        }
        if let Some(root) = heap.pop() {
            assign(&root, 0, &mut lens);
        }
        if lens.iter().all(|&l| l <= MAX_CODE_LEN) {
            return lens;
        }
        // Depth overflow: flatten the distribution and rebuild.
        let rescaled = scaled.get_or_insert_with(|| freq.to_vec());
        for f in rescaled.iter_mut() {
            if *f > 0 {
                *f = (*f >> 1) + 1;
            }
        }
    }
}

/// Canonical code assignment from lengths: returns `(code, len)` per symbol,
/// with `code` stored bit-reversed so it can be emitted LSB-first while
/// decoding MSB-first.
struct Codebook {
    rev_codes: Vec<u32>,
}

fn build_codebook(lens: &[u8]) -> Codebook {
    let mut order: Vec<u32> = (0..lens.len() as u32)
        .filter(|&s| lens[s as usize] > 0)
        .collect();
    order.sort_by_key(|&s| (lens[s as usize], s));
    let mut rev_codes = vec![0u32; lens.len()];
    let mut code: u32 = 0;
    let mut prev_len: u8 = 0;
    for &s in &order {
        let l = lens[s as usize];
        if prev_len != 0 {
            code = (code + 1) << (l - prev_len);
        }
        prev_len = l;
        rev_codes[s as usize] = code.reverse_bits() >> (32 - l as u32);
    }
    Codebook { rev_codes }
}

/// Canonical decoder state built from lengths.
struct Decoder {
    /// first canonical code per length (index 1..=MAX).
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// number of codes per length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// start offset into `symbols` per length.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// symbols sorted by (len, symbol).
    symbols: Vec<u32>,
}

fn build_decoder(lens: &[u8]) -> Result<Decoder> {
    let mut count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lens {
        if l as usize > MAX_CODE_LEN as usize {
            return Err(Error::corrupt("huffman code length exceeds maximum"));
        }
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut symbols: Vec<u32> = (0..lens.len() as u32)
        .filter(|&s| lens[s as usize] > 0)
        .collect();
    symbols.sort_by_key(|&s| (lens[s as usize], s));
    let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
    let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
    let mut code: u32 = 0;
    let mut total: u32 = 0;
    for l in 1..=MAX_CODE_LEN as usize {
        first_code[l] = code;
        offset[l] = total;
        // Kraft check: codes must fit in l bits.
        if count[l] > 0 && (code as u64 + count[l] as u64 - 1) >> l != 0 {
            return Err(Error::corrupt("huffman table violates Kraft inequality"));
        }
        code = (code + count[l]) << 1;
        total += count[l];
    }
    Ok(Decoder {
        first_code,
        count,
        offset,
        symbols,
    })
}

impl Decoder {
    fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let mut code: u32 = 0;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | r.read_bit()? as u32;
            let c = self.count[l];
            if c > 0 && code >= self.first_code[l] && code < self.first_code[l] + c {
                let idx = self.offset[l] + (code - self.first_code[l]);
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(Error::corrupt("invalid huffman code"))
    }
}

fn count_freq(symbols: &[u32], alphabet: u32, freq: &mut [u64]) -> Result<()> {
    for &s in symbols {
        let f = freq.get_mut(s as usize).ok_or_else(|| {
            Error::invalid_argument(format!("symbol {s} outside alphabet {alphabet}"))
        })?;
        *f += 1;
    }
    Ok(())
}

/// Encode `symbols` (each `< alphabet`) into a self-contained byte stream.
pub fn encode(symbols: &[u32], alphabet: u32) -> Result<Vec<u8>> {
    if alphabet == 0 || alphabet > MAX_ALPHABET {
        return Err(Error::invalid_argument(format!(
            "huffman alphabet size {alphabet} out of range"
        )));
    }
    let lens = if alphabet <= SCRATCH_ALPHABET {
        pressio_core::with_scratch(|s| -> Result<Vec<u8>> {
            let freq = s.u64_slice(alphabet as usize);
            count_freq(symbols, alphabet, freq)?;
            Ok(code_lengths(freq))
        })?
    } else {
        let mut freq = vec![0u64; alphabet as usize];
        count_freq(symbols, alphabet, &mut freq)?;
        code_lengths(&freq)
    };
    let book = build_codebook(&lens);

    let mut w = ByteWriter::new();
    w.put_u32(alphabet);
    w.put_u64(symbols.len() as u64);
    let present: Vec<u32> = (0..alphabet).filter(|&s| lens[s as usize] > 0).collect();
    w.put_u32(present.len() as u32);
    for &s in &present {
        w.put_u32(s);
        w.put_u8(lens[s as usize]);
    }
    // The bit buffer cycles through the worker's arena: taken here, handed
    // back (cleared, capacity intact) once the payload bytes are out. An
    // early cancellation drops it, which only costs the capacity.
    let words = pressio_core::with_scratch(|s| std::mem::take(&mut s.u64s));
    let mut bits = BitWriter::with_buffer(words);
    let mut cp = pressio_core::cancel::Checkpointer::new(64 * 1024);
    for &s in symbols {
        cp.tick()?;
        bits.write_bits(book.rev_codes[s as usize] as u64, lens[s as usize] as u32);
    }
    let (payload, words) = bits.into_bytes_and_buffer();
    pressio_core::with_scratch(|s| s.u64s = words);
    w.put_section(&payload);
    Ok(w.into_vec())
}

/// Encode `symbols` in up to `pieces` independent chunks on the shared
/// execution engine, each with its own table, framed behind a chunk
/// directory. Inputs too small to split (or `pieces <= 1`) fall through to
/// the plain serial format; [`decode`] reads both transparently. The split
/// depends only on `pieces` and the input length, never on the host.
pub fn encode_par(symbols: &[u32], alphabet: u32, pieces: usize) -> Result<Vec<u8>> {
    // Planning by staged-symbol bytes keeps the historical geometry exactly:
    // the engine's 256 KiB floor over 4-byte symbols is the old 64 Ki-symbol
    // floor, so streams stay byte-identical across the refactor.
    debug_assert_eq!(MIN_CHUNK_SYMBOLS, pressio_core::MIN_CHUNK_BYTES / SYMBOL_BYTES);
    let ranges = pressio_core::plan_chunks(symbols.len(), SYMBOL_BYTES, pieces);
    chunked::encode(
        CHUNK_MAGIC,
        "huffman:encode_chunk",
        &ranges,
        |range| encode(&symbols[range], alphabet),
        || encode(symbols, alphabet),
    )
}

/// Decode a stream produced by [`encode`] or [`encode_par`].
pub fn decode(bytes: &[u8]) -> Result<Vec<u32>> {
    let mut r = ByteReader::new(bytes);
    let alphabet = r.get_u32()?;
    if alphabet != CHUNK_MAGIC {
        return decode_serial(alphabet, r);
    }
    let sections = chunked::get_directory(&mut r, usize::MAX)?;
    chunked::decode(&sections, CHUNK_MAGIC, "huffman:decode_chunk", |_, section| {
        let mut cr = ByteReader::new(section);
        decode_serial(cr.get_u32()?, cr)
    })
}

fn decode_serial(alphabet: u32, mut r: ByteReader<'_>) -> Result<Vec<u32>> {
    if alphabet == 0 || alphabet > MAX_ALPHABET {
        return Err(Error::corrupt(format!(
            "huffman alphabet size {alphabet} out of range"
        )));
    }
    let n = r.get_len()?;
    let n_present = r.get_u32()?;
    if n_present > alphabet {
        return Err(Error::corrupt("more huffman symbols than alphabet"));
    }
    let mut lens = vec![0u8; alphabet as usize];
    for _ in 0..n_present {
        let s = r.get_u32()?;
        let l = r.get_u8()?;
        if s >= alphabet || l == 0 || l > MAX_CODE_LEN {
            return Err(Error::corrupt("invalid huffman table entry"));
        }
        lens[s as usize] = l;
    }
    let payload = r.get_section()?;
    if n == 0 {
        return Ok(Vec::new());
    }
    if n_present == 0 {
        return Err(Error::corrupt("symbols present but table empty"));
    }
    // Every present symbol codes to at least one bit, so a declared count
    // beyond the payload's bit capacity is corrupt — reject it before sizing
    // the output rather than capping the allocation at an arbitrary bound.
    if n > payload.len().saturating_mul(8) {
        return Err(Error::corrupt(format!(
            "huffman stream declares {n} symbols but carries only {} payload bits",
            payload.len() * 8
        )));
    }
    let dec = build_decoder(&lens)?;
    let mut bits = BitReader::new(payload);
    let mut out = Vec::new();
    pressio_core::alloc::try_reserve(&mut out, n)?;
    let mut cp = pressio_core::cancel::Checkpointer::new(64 * 1024);
    if n >= LUT_MIN_SYMBOLS {
        let mut lut = pressio_core::with_scratch(|s| std::mem::take(&mut s.u32s));
        lut.clear();
        lut.resize(1 << LUT_BITS, 0);
        fill_decode_lut(&lens, &mut lut);
        for _ in 0..n {
            cp.tick()?;
            // Fast path: one table hit replaces up to LUT_BITS read_bit
            // calls. The stream tail (fewer than LUT_BITS bits left, where a
            // zero-padded peek could false-match garbage) and codes longer
            // than LUT_BITS take the reference decoder, which also preserves
            // the exact corrupt-stream error behavior.
            if bits.remaining_bits() >= LUT_BITS as u64 {
                let e = lut[bits.peek_bits(LUT_BITS) as usize];
                if e != 0 {
                    bits.skip((e & 63) as u64)?;
                    out.push(e >> 6);
                    continue;
                }
            }
            out.push(dec.decode_symbol(&mut bits)?);
        }
        pressio_core::with_scratch(|s| {
            lut.clear();
            s.u32s = lut;
        });
    } else {
        for _ in 0..n {
            cp.tick()?;
            out.push(dec.decode_symbol(&mut bits)?);
        }
    }
    Ok(out)
}

/// Populate `lut` (length `1 << LUT_BITS`) so that indexing with the next
/// `LUT_BITS` stream bits yields `(symbol << 6) | code_len` for every code of
/// at most `LUT_BITS` bits, and 0 where only a longer code (or none) can
/// match. Valid entries are never 0 because `code_len >= 1`, and the packing
/// fits: symbols stay below 2^22 and lengths below 2^6.
fn fill_decode_lut(lens: &[u8], lut: &mut [u32]) {
    debug_assert_eq!(lut.len(), 1 << LUT_BITS);
    let book = build_codebook(lens);
    for (s, &l) in lens.iter().enumerate() {
        if l == 0 || l as u32 > LUT_BITS {
            continue;
        }
        // Codes are emitted LSB-first from the bit-reversed pattern, so a
        // peeked window matches when its low `l` bits equal `rev_codes[s]`;
        // every setting of the remaining high bits maps to this symbol.
        let entry = ((s as u32) << 6) | l as u32;
        let step = 1usize << l;
        let mut idx = book.rev_codes[s] as usize;
        while idx < lut.len() {
            lut[idx] = entry;
            idx += step;
        }
    }
}

/// Huffman-encode raw bytes (alphabet 256) — the entropy stage of
/// deflate-lite. Fallible only through cooperative cancellation (the byte
/// alphabet itself is always valid).
pub fn encode_bytes(data: &[u8]) -> Result<Vec<u8>> {
    let mut symbols = stage_byte_symbols(data);
    let out = encode(&symbols, 256);
    pressio_core::with_scratch(|s| {
        symbols.clear();
        s.u32s = symbols;
    });
    out
}

/// Chunk-parallel [`encode_bytes`]; [`decode_bytes`] reads either format.
pub fn encode_bytes_par(data: &[u8], pieces: usize) -> Result<Vec<u8>> {
    let mut symbols = stage_byte_symbols(data);
    let out = encode_par(&symbols, 256, pieces);
    pressio_core::with_scratch(|s| {
        symbols.clear();
        s.u32s = symbols;
    });
    out
}

/// Widen bytes to `u32` symbols in a buffer borrowed from the worker's
/// arena; callers hand it back via `Scratch::u32s` when done.
fn stage_byte_symbols(data: &[u8]) -> Vec<u32> {
    let mut symbols = pressio_core::with_scratch(|s| std::mem::take(&mut s.u32s));
    symbols.clear();
    symbols.extend(data.iter().map(|&b| b as u32));
    symbols
}

/// Decode a stream produced by [`encode_bytes`].
pub fn decode_bytes(bytes: &[u8]) -> Result<Vec<u8>> {
    let symbols = decode(bytes)?;
    symbols
        .into_iter()
        .map(|s| {
            u8::try_from(s).map_err(|_| Error::corrupt("byte-huffman symbol out of range"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let enc = encode(&[], 256).unwrap();
        assert_eq!(decode(&enc).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn single_symbol_roundtrip() {
        let syms = vec![7u32; 1000];
        let enc = encode(&syms, 16).unwrap();
        // 1000 repeated symbols cost ~1 bit each plus the header.
        assert!(enc.len() < 200);
        assert_eq!(decode(&enc).unwrap(), syms);
    }

    #[test]
    fn skewed_distribution_roundtrip_and_compresses() {
        // Zipf-ish: symbol s appears ~ 2^(10-s) times.
        let mut syms = vec![];
        for s in 0..10u32 {
            for _ in 0..(1 << (10 - s)) {
                syms.push(s);
            }
        }
        let enc = encode(&syms, 1024).unwrap();
        assert_eq!(decode(&enc).unwrap(), syms);
        // Entropy ~2 bits/symbol vs. 10-bit alphabet: must beat 4 bits/sym.
        assert!(enc.len() * 8 < syms.len() * 4);
    }

    #[test]
    fn uniform_bytes_roundtrip() {
        let data: Vec<u8> = (0..=255).cycle().take(4096).collect();
        let enc = encode_bytes(&data).unwrap();
        assert_eq!(decode_bytes(&enc).unwrap(), data);
    }

    #[test]
    fn wide_alphabet_roundtrip() {
        // SZ-like: alphabet 65538, most mass near the center.
        let center = 32769u32;
        let mut state = 1u64;
        let mut syms = vec![];
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let spread = ((state >> 33) % 64) as i64 - 32;
            syms.push((center as i64 + spread) as u32);
        }
        let enc = encode(&syms, 65538).unwrap();
        assert_eq!(decode(&enc).unwrap(), syms);
    }

    #[test]
    fn out_of_alphabet_symbol_rejected() {
        assert!(encode(&[300], 256).is_err());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let enc = encode(&[1, 2, 3, 1, 2, 1], 16).unwrap();
        // Truncations anywhere must error (or decode fewer symbols), not panic.
        for cut in 0..enc.len() {
            let _ = decode(&enc[..cut]);
        }
        // Flipped bytes must error or produce garbage, not panic.
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0xFF;
            let _ = decode(&bad);
        }
    }

    /// The codec's row of the container table (`pressio_core::chunked` has
    /// the malformed-directory cases): wired to it with this magic.
    #[test]
    fn par_roundtrip_chunked() {
        let n = 3 * MIN_CHUNK_SYMBOLS + 17; // non-divisible chunk boundaries
        let syms: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(i) % 97).collect();
        for pieces in [2usize, 3, 7] {
            let enc = encode_par(&syms, 128, pieces).unwrap();
            // Big enough to actually chunk: leading word is the magic.
            assert_eq!(&enc[..4], &CHUNK_MAGIC.to_le_bytes());
            assert_eq!(decode(&enc).unwrap(), syms, "pieces {pieces}");
            assert!(decode(&chunked::frame(CHUNK_MAGIC, &[enc])).is_err(), "nested");
        }
        // Too small to split: the serial format, byte for byte.
        assert_eq!(encode_par(&syms[..1000], 128, 8).unwrap(), encode(&syms[..1000], 128).unwrap());
    }

    #[test]
    fn overdeclared_symbol_count_rejected() {
        let mut enc = encode(&[1u32, 2, 3, 1, 2, 1], 16).unwrap();
        // Symbol count lives right after the u32 alphabet; claim 2^40 symbols.
        enc[4..12].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = decode(&enc).unwrap_err();
        assert_eq!(err.code(), pressio_core::ErrorCode::CorruptStream);
    }

    /// Reference decoder: re-parses the serial stream and decodes every
    /// symbol bit-at-a-time, never touching the LUT fast path.
    fn decode_bit_at_a_time(bytes: &[u8]) -> Vec<u32> {
        let mut r = ByteReader::new(bytes);
        let alphabet = r.get_u32().unwrap();
        assert_ne!(alphabet, CHUNK_MAGIC, "reference handles serial streams");
        let n = r.get_len().unwrap();
        let n_present = r.get_u32().unwrap();
        let mut lens = vec![0u8; alphabet as usize];
        for _ in 0..n_present {
            let s = r.get_u32().unwrap();
            let l = r.get_u8().unwrap();
            lens[s as usize] = l;
        }
        let payload = r.get_section().unwrap();
        let dec = build_decoder(&lens).unwrap();
        let mut bits = BitReader::new(payload);
        (0..n).map(|_| dec.decode_symbol(&mut bits).unwrap()).collect()
    }

    #[test]
    fn lut_decode_matches_bit_at_a_time_reference() {
        // 8192 once-seen symbols force code lengths past LUT_BITS while
        // symbol 9000 dominates with a short code, so the production decode
        // loop must mix LUT hits with slow-path fallbacks; both must agree
        // with the pure bit-at-a-time reference.
        let mut syms = Vec::new();
        let mut rare = 0u32;
        while syms.len() < 120_000 {
            if syms.len() % 13 == 0 && rare < 8192 {
                syms.push(rare);
                rare += 1;
            } else {
                syms.push(9000);
            }
        }
        assert_eq!(rare, 8192);
        let mut freq = vec![0u64; 9001];
        for &s in &syms {
            freq[s as usize] += 1;
        }
        let lens = code_lengths(&freq);
        assert!(
            lens.iter().any(|&l| l > 0 && (l as u32) <= LUT_BITS),
            "want at least one LUT-resolvable code"
        );
        assert!(
            lens.iter().any(|&l| (l as u32) > LUT_BITS),
            "want at least one slow-path code"
        );
        let enc = encode(&syms, 9001).unwrap();
        assert!(syms.len() >= LUT_MIN_SYMBOLS);
        assert_eq!(decode(&enc).unwrap(), syms);
        assert_eq!(decode_bit_at_a_time(&enc), syms);
    }

    #[test]
    fn two_symbols_equal_freq() {
        let syms: Vec<u32> = (0..100).map(|i| i % 2).collect();
        let enc = encode(&syms, 2).unwrap();
        assert_eq!(decode(&enc).unwrap(), syms);
    }

    #[test]
    fn deep_tree_rescaling() {
        // Fibonacci-like frequencies force deep trees; lengths must be capped.
        let mut syms = vec![];
        let mut a: u64 = 1;
        let mut b: u64 = 1;
        for s in 0..40u32 {
            let reps = (a % 500 + 1) as usize;
            syms.extend(std::iter::repeat_n(s, reps));
            let c = a + b;
            a = b;
            b = c;
        }
        let enc = encode(&syms, 64).unwrap();
        assert_eq!(decode(&enc).unwrap(), syms);
    }
}
