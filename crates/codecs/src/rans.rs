//! Static-table interleaved rANS entropy coding over bytes.
//!
//! The modern table-driven alternative to byte-Huffman for the lossless
//! tail of the lossy pipelines (selectable via `sz:lossless=rans`): a
//! per-block byte histogram is normalized to a 12-bit total with the
//! classic lowest-freq-nonzero guarantee, serialized as a compact varint
//! frequency header, and coded with two interleaved 32-bit rANS states
//! renormalizing byte-wise. Decoding is table-driven: one 4096-entry
//! slot→(symbol, start, freq) LUT staged from the worker's scratch arena
//! resolves every symbol with a single lookup — no bit-at-a-time walks,
//! which is where the decode-speed win over deflate-lite comes from.
//!
//! Large inputs can be compressed chunk-parallel on the shared execution
//! engine ([`compress_par`]); each chunk is a complete serial stream
//! behind a chunk directory, and [`decompress`] reads both formats
//! transparently.

use pressio_core::{chunked, ByteReader, ByteWriter, Error, Result};

use crate::varint;

/// Precision of the normalized frequency table, in bits.
const PROB_BITS: u32 = 12;
/// Normalized total every frequency table sums to (4096).
const PROB_SCALE: u32 = 1 << PROB_BITS;
/// Lower renormalization bound of each coder state: the invariant is
/// `RANS_L <= state < RANS_L << 8` between symbols, so states always fit
/// in a `u32` and renormalization moves whole bytes.
const RANS_L: u32 = 1 << 23;
/// Leading word of a serial stream ("RNS1").
const SERIAL_MAGIC: u32 = 0x524E_5331;
/// Leading word of a chunked stream; distinct from [`SERIAL_MAGIC`], so
/// the decoder tells the two formats apart from the first word alone.
const CHUNK_MAGIC: u32 = 0x524E_53C4;
/// Hard cap on the decoded size a stream may declare (the wire-level
/// decode cap): anything larger is structurally corrupt, not merely big.
const MAX_DECLARED_BYTES: u64 = 1 << 40;

/// Per-symbol frequencies (one slot per byte value) summing to
/// [`PROB_SCALE`], plus the cumulative starts.
struct FreqTable {
    freqs: [u32; 256],
    /// `cum[s]` = sum of `freqs[0..s]`; `cum[256] == PROB_SCALE`.
    cum: [u32; 257],
}

impl FreqTable {
    fn from_freqs(freqs: [u32; 256]) -> FreqTable {
        let mut cum = [0u32; 257];
        for s in 0..256 {
            cum[s + 1] = cum[s] + freqs[s];
        }
        debug_assert_eq!(cum[256], PROB_SCALE);
        FreqTable { freqs, cum }
    }
}

/// Histogram `data` and normalize the counts to sum exactly
/// [`PROB_SCALE`], guaranteeing every present symbol a frequency of at
/// least 1 (the lowest-freq-nonzero guarantee: a symbol that occurs must
/// remain codable no matter how rare it is). Deterministic: the rounding
/// remainder is settled against the most frequent symbol(s) only.
fn normalized_histogram(data: &[u8]) -> FreqTable {
    debug_assert!(!data.is_empty());
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let total = data.len() as u64;
    let mut freqs = [0u32; 256];
    let mut sum: i64 = 0;
    for s in 0..256 {
        if counts[s] == 0 {
            continue;
        }
        // Round-to-nearest scaling, clamped up to 1 for present symbols.
        let scaled = (counts[s] * PROB_SCALE as u64 + total / 2) / total;
        freqs[s] = scaled.clamp(1, PROB_SCALE as u64) as u32;
        sum += freqs[s] as i64;
    }
    // Settle the rounding remainder on the largest frequencies: adding
    // there distorts the distribution least, and taking from them can
    // never drive a present symbol back to zero (they stay >= 1 because
    // at most 255 other symbols each hold >= 1 of the 4096 total).
    while sum != PROB_SCALE as i64 {
        let Some(heaviest) = (0..256)
            .filter(|&s| freqs[s] > 1 || (sum < PROB_SCALE as i64 && freqs[s] >= 1))
            .max_by_key(|&s| (freqs[s], std::cmp::Reverse(s)))
        else {
            // Unreachable: a non-empty input has a present symbol with
            // freq >= 1, and when sum exceeds the scale some symbol must
            // hold > 1 (256 ones sum to at most 256 < PROB_SCALE). Bail
            // rather than spin if the invariant is ever broken.
            break;
        };
        if sum < PROB_SCALE as i64 {
            let add = (PROB_SCALE as i64 - sum).min(PROB_SCALE as i64 - freqs[heaviest] as i64);
            freqs[heaviest] += add as u32;
            sum += add;
        } else {
            let take = (sum - PROB_SCALE as i64).min(freqs[heaviest] as i64 - 1);
            freqs[heaviest] -= take as u32;
            sum -= take;
        }
    }
    FreqTable::from_freqs(freqs)
}

/// Compress bytes with a static-table 2-way interleaved rANS coder.
/// Fallible only through cooperative cancellation (deadline, explicit
/// cancel, or memory budget).
///
/// ```
/// let data = b"ababababcc".repeat(400);
/// let packed = pressio_codecs::rans::compress(&data).unwrap();
/// assert!(packed.len() < data.len() / 2);
/// assert_eq!(pressio_codecs::rans::decompress(&packed).unwrap(), data);
/// ```
pub fn compress(data: &[u8]) -> Result<Vec<u8>> {
    pressio_core::cancel::checkpoint()?;
    let mut w = ByteWriter::with_capacity(data.len() / 2 + 64);
    w.put_u32(SERIAL_MAGIC);
    let mut header = Vec::with_capacity(64);
    varint::write_u64(&mut header, data.len() as u64);
    if data.is_empty() {
        w.put_section(&header);
        return Ok(w.into_vec());
    }
    let table = normalized_histogram(data);
    let present = table.freqs.iter().filter(|&&f| f > 0).count();
    varint::write_u64(&mut header, present as u64);
    for s in 0..256 {
        if table.freqs[s] > 0 {
            header.push(s as u8);
            varint::write_u64(&mut header, table.freqs[s] as u64);
        }
    }
    w.put_section(&header);

    // The payload buffer cycles through the worker's arena: taken here,
    // handed back (cleared, capacity intact) once the bytes are copied
    // out. An early cancellation drops it, which only costs the capacity.
    let mut payload = pressio_core::with_scratch(|s| std::mem::take(&mut s.bytes));
    payload.clear();
    // Two interleaved states, both starting at the base: symbols encode
    // in reverse (rANS is LIFO) alternating states by index parity, so
    // the forward-walking decoder alternates the same way.
    let mut x = [RANS_L, RANS_L];
    let mut cp = pressio_core::cancel::Checkpointer::new(64 * 1024);
    for i in (0..data.len()).rev() {
        cp.tick()?;
        let s = data[i] as usize;
        let f = table.freqs[s];
        let st = &mut x[i & 1];
        // Renormalize before the state update so the result stays below
        // `RANS_L << 8`; with `f == PROB_SCALE` the bound is unreachable
        // and a single-symbol stream emits no payload bytes at all.
        let x_max = ((RANS_L >> PROB_BITS) << 8) * f;
        while *st >= x_max {
            payload.push((*st & 0xFF) as u8);
            *st >>= 8;
        }
        *st = ((*st / f) << PROB_BITS) + (*st % f) + table.cum[s];
    }
    // Bytes were emitted last-first; reverse so the decoder reads forward.
    payload.reverse();
    w.put_u32(x[0]);
    w.put_u32(x[1]);
    w.put_section(&payload);
    pressio_core::with_scratch(|s| {
        payload.clear();
        s.bytes = payload;
    });
    Ok(w.into_vec())
}

/// Compress in up to `pieces` independent chunks in parallel. Chunking
/// costs a frequency table per chunk and is skipped for inputs too small
/// to split. The split depends only on `pieces` and the input length, so
/// streams are machine-independent.
pub fn compress_par(data: &[u8], pieces: usize) -> Result<Vec<u8>> {
    let ranges = pressio_core::plan_chunks(data.len(), 1, pieces);
    chunked::encode(
        CHUNK_MAGIC,
        "rans:compress_chunk",
        &ranges,
        |range| compress(&data[range]),
        || compress(data),
    )
}

/// Inverse of [`compress`] / [`compress_par`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut r = ByteReader::new(data);
    match r.get_u32()? {
        SERIAL_MAGIC => decompress_serial(r),
        CHUNK_MAGIC => {
            let sections = chunked::get_directory(&mut r, usize::MAX)?;
            chunked::decode(&sections, CHUNK_MAGIC, "rans:decompress_chunk", |_, section| {
                let mut cr = ByteReader::new(section);
                if cr.get_u32()? != SERIAL_MAGIC {
                    return Err(Error::corrupt("bad rans chunk magic"));
                }
                decompress_serial(cr)
            })
        }
        _ => Err(Error::corrupt("bad rans stream magic")),
    }
}

/// Parse and validate the frequency header: returns `(n, freqs)` where
/// every declared frequency is in `1..=PROB_SCALE`, symbols are strictly
/// increasing, and the sum is exactly [`PROB_SCALE`]. The whole header
/// must be consumed — trailing bytes are corrupt, not ignorable.
fn read_freq_header(header: &[u8]) -> Result<(usize, [u32; 256])> {
    let mut pos = 0usize;
    let n = varint::read_u64(header, &mut pos)?;
    if n > MAX_DECLARED_BYTES {
        return Err(Error::corrupt(format!(
            "rans stream declares {n} decoded bytes, beyond the {MAX_DECLARED_BYTES} cap"
        )));
    }
    let n = n as usize;
    let mut freqs = [0u32; 256];
    if n == 0 {
        if pos != header.len() {
            return Err(Error::corrupt("trailing bytes in empty rans header"));
        }
        return Ok((0, freqs));
    }
    let present = varint::read_u64(header, &mut pos)?;
    if present == 0 || present > 256 {
        return Err(Error::corrupt(format!(
            "rans header declares {present} present symbols"
        )));
    }
    let mut prev: i32 = -1;
    let mut sum: u64 = 0;
    for _ in 0..present {
        let sym = *header
            .get(pos)
            .ok_or_else(|| Error::corrupt("rans frequency header truncated"))?;
        pos += 1;
        if i32::from(sym) <= prev {
            return Err(Error::corrupt("rans header symbols not strictly increasing"));
        }
        prev = i32::from(sym);
        let f = varint::read_u64(header, &mut pos)?;
        if f == 0 {
            // The lowest-freq-nonzero guarantee is load-bearing: a present
            // symbol with frequency zero would own no decode slots.
            return Err(Error::corrupt("rans header assigns zero frequency to a present symbol"));
        }
        if f > PROB_SCALE as u64 {
            return Err(Error::corrupt("rans frequency exceeds the 12-bit scale"));
        }
        freqs[sym as usize] = f as u32;
        sum += f;
    }
    if sum != PROB_SCALE as u64 {
        return Err(Error::corrupt(format!(
            "rans frequencies sum to {sum}, expected {PROB_SCALE}"
        )));
    }
    if pos != header.len() {
        return Err(Error::corrupt("trailing bytes in rans frequency header"));
    }
    Ok((n, freqs))
}

/// Reject a declared symbol count the payload cannot possibly carry.
///
/// Every symbol costs at least `PROB_BITS - ceil(log2(max_freq))` bits of
/// coder-state growth, so a stream declaring far more symbols than the
/// payload plus the 64 bits of final-state capacity can hold is corrupt —
/// reject it before sizing the output. The `n / 512` term covers the
/// sub-2e-3-bit-per-symbol rounding slack of integer-division rANS, so an
/// honest stream can never trip this. When one symbol holds (nearly) the
/// whole scale the bound degenerates to zero bits and the check is moot;
/// the output is then reserved through `alloc::try_reserve`, so the memory
/// budget and a fallible allocation remain the backstop.
fn check_declared_count(n: usize, payload_len: usize, freqs: &[u32; 256]) -> Result<()> {
    let max_f = freqs.iter().copied().fold(0u32, u32::max);
    let ceil_log2 = 32 - max_f.leading_zeros() - u32::from(max_f.is_power_of_two());
    let min_bits = (PROB_BITS.saturating_sub(ceil_log2)) as usize;
    if min_bits > 0
        && n.saturating_mul(min_bits) > payload_len.saturating_mul(8) + 64 + n / 512
    {
        return Err(Error::corrupt(format!(
            "rans stream declares {n} symbols but carries only {} payload bits",
            payload_len * 8
        )));
    }
    Ok(())
}

/// Unpack one slot→symbol LUT entry (see [`fill_decode_lut`]).
#[inline]
fn unpack_lut(e: u32) -> (u8, u32, u32) {
    ((e & 0xFF) as u8, (e >> 8) & 0xFFF, ((e >> 20) & 0xFFF) + 1)
}

/// Populate `lut` (length [`PROB_SCALE`]) so that indexing with a state's
/// low 12 bits yields the owning symbol packed with its start and
/// frequency: `sym | (start << 8) | ((freq - 1) << 20)`. The packing
/// fits exactly: 8 + 12 + 12 bits, with `freq - 1` in `0..PROB_SCALE`.
fn fill_decode_lut(table: &FreqTable, lut: &mut [u32]) {
    debug_assert_eq!(lut.len(), PROB_SCALE as usize);
    let mut slot = 0usize;
    for s in 0..256usize {
        let f = table.freqs[s];
        if f == 0 {
            continue;
        }
        let entry = s as u32 | (table.cum[s] << 8) | ((f - 1) << 20);
        for _ in 0..f {
            lut[slot] = entry;
            slot += 1;
        }
    }
    debug_assert_eq!(slot, PROB_SCALE as usize);
}

fn decompress_serial(mut r: ByteReader<'_>) -> Result<Vec<u8>> {
    let (n, freqs) = read_freq_header(r.get_section()?)?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let x0 = r.get_u32()?;
    let x1 = r.get_u32()?;
    for st in [x0, x1] {
        // The encoder's invariant: RANS_L <= state < RANS_L << 8. A state
        // outside it cannot come from an honest encoder, and the upper
        // bound keeps all decode arithmetic inside u32.
        if !(RANS_L..RANS_L << 8).contains(&st) {
            return Err(Error::corrupt("rans state outside the renormalization interval"));
        }
    }
    let payload = r.get_section()?;
    check_declared_count(n, payload.len(), &freqs)?;
    let table = FreqTable::from_freqs(freqs);
    let mut out = Vec::new();
    pressio_core::alloc::try_reserve(&mut out, n)?;
    // The decode LUT cycles through the worker's arena like the Huffman
    // decoder's: taken, sized, used, handed back cleared.
    let mut lut = pressio_core::with_scratch(|s| std::mem::take(&mut s.u32s));
    lut.clear();
    lut.resize(PROB_SCALE as usize, 0);
    fill_decode_lut(&table, &mut lut);
    let mut x = [x0, x1];
    let mut cursor = 0usize;
    let mut cp = pressio_core::cancel::Checkpointer::new(64 * 1024);
    let mut result = Ok(());
    for i in 0..n {
        if let Err(e) = cp.tick() {
            result = Err(e);
            break;
        }
        let st = &mut x[i & 1];
        let slot = *st & (PROB_SCALE - 1);
        let (sym, start, f) = unpack_lut(lut[slot as usize]);
        // `st < RANS_L << 8` (renorm invariant) and `f <= PROB_SCALE`
        // (validated table) keep this in u32 range for honest streams; a
        // state that would overflow is corrupt, not wrapped.
        let Some(next) = f
            .checked_mul(*st >> PROB_BITS)
            .and_then(|v| v.checked_add(slot - start))
        else {
            result = Err(Error::corrupt("rans decoder state overflow"));
            break;
        };
        *st = next;
        while *st < RANS_L {
            let Some(&b) = payload.get(cursor) else {
                result = Err(Error::corrupt("rans payload exhausted mid-stream"));
                break;
            };
            cursor += 1;
            // The loop condition bounds `st` below RANS_L = 2^23, so an
            // 8-bit shift cannot discard set bits.
            *st = (*st).checked_shl(8).unwrap_or(0) | u32::from(b);
        }
        if result.is_err() {
            break;
        }
        out.push(sym);
    }
    pressio_core::with_scratch(|s| {
        lut.clear();
        s.u32s = lut;
    });
    result?;
    // Both sanity anchors must close: the payload fully consumed, and the
    // states back at the base they started from. Either mismatch means
    // the stream does not describe the symbols it claims.
    if cursor != payload.len() {
        return Err(Error::corrupt("trailing rans payload bytes"));
    }
    if x != [RANS_L, RANS_L] {
        return Err(Error::corrupt("rans states did not return to base"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference decoder: re-parses the serial stream and resolves every
    /// slot by scanning the cumulative table linearly, never touching the
    /// packed LUT fast path.
    fn decode_reference(bytes: &[u8]) -> Vec<u8> {
        let mut r = ByteReader::new(bytes);
        assert_eq!(r.get_u32().unwrap(), SERIAL_MAGIC, "reference handles serial streams");
        let (n, freqs) = read_freq_header(r.get_section().unwrap()).unwrap();
        if n == 0 {
            return Vec::new();
        }
        let table = FreqTable::from_freqs(freqs);
        let mut x = [r.get_u32().unwrap(), r.get_u32().unwrap()];
        let payload = r.get_section().unwrap();
        let mut cursor = 0usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let st = &mut x[i & 1];
            let slot = *st & (PROB_SCALE - 1);
            let sym = (0..256).find(|&s| table.cum[s] <= slot && slot < table.cum[s + 1]).unwrap();
            *st = table.freqs[sym] * (*st >> PROB_BITS) + slot - table.cum[sym];
            while *st < RANS_L {
                *st = (*st << 8) | u32::from(payload[cursor]);
                cursor += 1;
            }
            out.push(sym as u8);
        }
        assert_eq!(cursor, payload.len());
        assert_eq!(x, [RANS_L, RANS_L]);
        out
    }

    #[test]
    fn empty_roundtrip() {
        let enc = compress(&[]).unwrap();
        assert_eq!(decompress(&enc).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_symbol_roundtrip_and_degenerate_table() {
        let data = vec![42u8; 10_000];
        let enc = compress(&data).unwrap();
        // freq 4096 never renormalizes: the payload section is empty and
        // the whole stream is header-sized.
        assert!(enc.len() < 64, "single-symbol stream should be tiny: {}", enc.len());
        assert_eq!(decompress(&enc).unwrap(), data);
        assert_eq!(decode_reference(&enc), data);
    }

    #[test]
    fn skewed_two_symbol_roundtrip_and_compresses() {
        let data: Vec<u8> = (0..50_000).map(|i| if i % 17 == 0 { b'b' } else { b'a' }).collect();
        let enc = compress(&data).unwrap();
        assert_eq!(decompress(&enc).unwrap(), data);
        // Entropy ~0.32 bits/byte: must beat 1 bit/byte comfortably.
        assert!(enc.len() * 8 < data.len(), "{} bytes for {} input", enc.len(), data.len());
    }

    #[test]
    fn uniform_all_256_roundtrip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(65_536).collect();
        let enc = compress(&data).unwrap();
        assert_eq!(decompress(&enc).unwrap(), data);
        assert_eq!(decode_reference(&enc), data);
    }

    #[test]
    fn lut_decode_matches_reference_on_ragged_distribution() {
        // A distribution mixing very frequent, mid, and once-seen symbols
        // exercises every LUT-entry shape against the scan reference.
        let mut data = Vec::new();
        let mut state = 7u64;
        for i in 0..120_000usize {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.push(match i % 23 {
                0..=15 => 200,
                16..=20 => (state >> 33) as u8 % 8,
                _ => (state >> 17) as u8,
            });
        }
        let enc = compress(&data).unwrap();
        assert_eq!(decompress(&enc).unwrap(), data);
        assert_eq!(decode_reference(&enc), data);
    }

    #[test]
    fn normalization_invariants_hold() {
        for data in [
            vec![9u8; 5],
            (0..=255u8).collect::<Vec<_>>(),
            (0..10_000).map(|i| if i % 4096 == 0 { 1u8 } else { 0 }).collect(),
            (0..=1u8).cycle().take(4096).collect(),
        ] {
            let t = normalized_histogram(&data);
            assert_eq!(t.freqs.iter().sum::<u32>(), PROB_SCALE);
            for s in 0..256usize {
                let present = data.contains(&(s as u8));
                assert_eq!(t.freqs[s] > 0, present, "symbol {s}");
            }
        }
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let enc = compress(b"some data some data some data!").unwrap();
        for cut in 0..enc.len() {
            let _ = decompress(&enc[..cut]);
        }
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0xFF;
            let _ = decompress(&bad);
        }
    }

    #[test]
    fn freq_header_truncation_at_every_prefix_rejected() {
        // Dissect the stream: magic (4), section length (8), then the
        // frequency header. Truncating the stream inside the header at
        // every prefix must produce a structured corrupt error.
        let enc = compress(&(0..64u8).cycle().take(4096).collect::<Vec<_>>()).unwrap();
        for cut in 0..enc.len() {
            let err = decompress(&enc[..cut]).unwrap_err();
            assert_eq!(err.code(), pressio_core::ErrorCode::CorruptStream, "cut {cut}");
        }
    }

    #[test]
    fn zero_frequency_for_present_symbol_rejected() {
        // Hand-build a header that declares a symbol with frequency 0.
        let mut header = Vec::new();
        varint::write_u64(&mut header, 100); // n
        varint::write_u64(&mut header, 2); // present
        header.push(0);
        varint::write_u64(&mut header, 0); // the poisoned entry
        header.push(1);
        varint::write_u64(&mut header, PROB_SCALE as u64);
        let err = read_freq_header(&header).unwrap_err();
        assert_eq!(err.code(), pressio_core::ErrorCode::CorruptStream);
    }

    #[test]
    fn bad_frequency_sum_rejected() {
        let mut header = Vec::new();
        varint::write_u64(&mut header, 100);
        varint::write_u64(&mut header, 2);
        header.push(0);
        varint::write_u64(&mut header, 1000);
        header.push(1);
        varint::write_u64(&mut header, 1000);
        let err = read_freq_header(&header).unwrap_err();
        assert_eq!(err.code(), pressio_core::ErrorCode::CorruptStream);
    }

    #[test]
    fn overdeclared_symbol_count_rejected() {
        // A near-uniform stream's payload carries ~8 bits per symbol;
        // patching the declared count to 2^39 must be rejected from the
        // header alone, before any allocation.
        let data: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        let enc = compress(&data).unwrap();
        // The count varint sits at the start of the header section
        // (offset 12): rewrite the section with a huge count instead of
        // patching bytes, keeping the rest of the stream intact.
        let mut r = ByteReader::new(&enc);
        r.get_u32().unwrap();
        let header = r.get_section().unwrap();
        let mut pos = 0usize;
        varint::read_u64(header, &mut pos).unwrap(); // skip honest n
        let mut evil_header = Vec::new();
        varint::write_u64(&mut evil_header, 1u64 << 39);
        evil_header.extend_from_slice(&header[pos..]);
        let x0 = r.get_u32().unwrap();
        let x1 = r.get_u32().unwrap();
        let payload = r.get_section().unwrap();
        let mut w = ByteWriter::new();
        w.put_u32(SERIAL_MAGIC);
        w.put_section(&evil_header);
        w.put_u32(x0);
        w.put_u32(x1);
        w.put_section(payload);
        let err = decompress(&w.into_vec()).unwrap_err();
        assert_eq!(err.code(), pressio_core::ErrorCode::CorruptStream);
    }

    #[test]
    fn states_outside_interval_rejected() {
        let enc = compress(&(0..100u8).collect::<Vec<_>>()).unwrap();
        let mut r = ByteReader::new(&enc);
        r.get_u32().unwrap();
        let header = r.get_section().unwrap().to_vec();
        r.get_u32().unwrap();
        let x1 = r.get_u32().unwrap();
        let payload = r.get_section().unwrap().to_vec();
        for bad_state in [0u32, RANS_L - 1, RANS_L << 8, u32::MAX] {
            let mut w = ByteWriter::new();
            w.put_u32(SERIAL_MAGIC);
            w.put_section(&header);
            w.put_u32(bad_state);
            w.put_u32(x1);
            w.put_section(&payload);
            let err = decompress(&w.into_vec()).unwrap_err();
            assert_eq!(err.code(), pressio_core::ErrorCode::CorruptStream, "state {bad_state}");
        }
    }

    /// The codec's row of the container table (`pressio_core::chunked` has
    /// the malformed-directory cases): wired to it with this magic.
    #[test]
    fn par_roundtrip_chunked() {
        let data: Vec<u8> = (0..3 * pressio_core::MIN_CHUNK_BYTES + 13)
            .map(|i| ((i / 64) % 251) as u8)
            .collect();
        for pieces in [2usize, 3, 7] {
            let c = compress_par(&data, pieces).unwrap();
            assert_eq!(&c[..4], &CHUNK_MAGIC.to_le_bytes());
            assert_eq!(decompress(&c).unwrap(), data, "pieces {pieces}");
            assert!(decompress(&chunked::frame(CHUNK_MAGIC, &[c])).is_err(), "nested");
        }
        // Too small to split: the serial format, byte for byte.
        assert_eq!(compress_par(&data[..540], 8).unwrap(), compress(&data[..540]).unwrap());
    }

    #[test]
    fn beats_or_matches_deflate_on_entropy_dense_bytes() {
        // On already-LZ-resistant data (high-entropy-ish but skewed), the
        // static model should land close to the source entropy.
        let mut state = 3u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Geometric-ish skew over 32 symbols.
                let r = (state >> 33) as u32;
                (r.trailing_zeros().min(31)) as u8
            })
            .collect();
        let r = compress(&data).unwrap();
        assert_eq!(decompress(&r).unwrap(), data);
        assert!(r.len() < data.len() / 2, "rans should halve skewed data: {}", r.len());
    }
}
