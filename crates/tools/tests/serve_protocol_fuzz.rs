//! Fuzz-hardening for the `pressio serve` frame parser, in the style of
//! `pressio fuzz-decode`: a deterministic adversarial corpus of hand-built
//! hostile frames, plus `mutate_stream` sweeps (bit flips, truncation,
//! extension, zeroed regions) over valid frames. The contract under test:
//!
//! - the parser NEVER panics, hangs, or over-allocates — a frame's
//!   declared body length is validated against the cap *before* any
//!   buffer is allocated, so a 4 GiB lie costs 17 header bytes, not 4 GiB;
//! - every rejection is a structured [`Error`] (almost always
//!   `CorruptStream`), never a silent truncation or a wrong-but-parsed
//!   frame;
//! - garbage profile names are rejected by charset/length validation
//!   before any registry lookup could run.
//!
//! The daemon reads with the *streaming* reader, `read_request`, which
//! lands a payload in its final buffer without ever holding the whole body.
//! It is held to the buffered route (`read_frame` + `parse_request` + the
//! daemon's old decompress-output cap) as its specification: same parsed
//! request or same `ErrorCode`, frame for frame, on every stream below — and
//! to what a streaming reader owes on top: nothing sized by a peer is
//! allocated before every check has passed (a counting allocator local to
//! this binary watches), and a bad body is consumed to its frame boundary so
//! the next frame still parses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, IoSlice, Read, Write};

use libpressio::core::{checked_geometry, ByteWriter};
use libpressio::meta::{mutate_stream, ALL_FAULT_MODES};
use libpressio::{DType, ErrorCode};
use pressio_tools::serve::protocol::{
    encode_bodyless, encode_request, encode_response, parse_header, parse_request, read_frame,
    read_frame_stall, read_request, read_response, validate_profile_name, write_ok, write_request,
    write_response, FrameHeader, FrameKind, ReadOutcome, RequestBody, RequestRead, Response,
    ResponseRead, DEFAULT_MAX_BODY, FRAME_MAGIC, HEADER_LEN, MAX_PRELUDE_LEN,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bytes requested from the allocator by the calling thread. Per thread, so
/// tests running side by side do not see each other.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor registers anything.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = REQUESTED.try_with(|r| r.set(r.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns its result unchanged; the
// counting touches one const-initialised thread-local cell and cannot
// allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `f`'s result and the bytes this thread requested while it ran.
fn requested_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = REQUESTED.get();
    let result = f();
    (result, REQUESTED.get() - before)
}

fn header_bytes(magic: u32, kind: u8, request_id: u64, body_len: u32) -> [u8; HEADER_LEN] {
    let mut raw = [0u8; HEADER_LEN];
    raw[0..4].copy_from_slice(&magic.to_le_bytes());
    raw[4] = kind;
    raw[5..13].copy_from_slice(&request_id.to_le_bytes());
    raw[13..17].copy_from_slice(&body_len.to_le_bytes());
    raw
}

fn sample_payload(n: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|i| ((i as f32 * 0.5).cos() * 3.0).to_le_bytes())
        .collect()
}

/// Run a whole byte stream through the reader loop the daemon uses,
/// parsing every frame body that survives the header. Returns
/// (frames_parsed, structured_rejections). Panics and hangs fail the
/// test by themselves; anything else must come back as a `Result`.
fn drive_parser(bytes: &[u8]) -> (usize, usize) {
    let mut cursor = Cursor::new(bytes.to_vec());
    let mut parsed = 0;
    let mut rejected = 0;
    loop {
        match read_frame(&mut cursor, DEFAULT_MAX_BODY) {
            Ok(ReadOutcome::Eof) => break,
            Ok(ReadOutcome::Idle) => break, // a Cursor never idles; treat as end
            Ok(ReadOutcome::Frame(header, body)) => {
                match parse_request(header.kind, &body) {
                    Ok(_) => parsed += 1,
                    Err(e) => {
                        assert!(!e.to_string().is_empty(), "rejections carry a message");
                        rejected += 1;
                    }
                }
            }
            Err(e) => {
                // Structured framing rejection: the stream is unusable past
                // this point, exactly like the daemon's reader loop.
                assert!(!e.to_string().is_empty(), "rejections carry a message");
                rejected += 1;
                break;
            }
        }
    }
    (parsed, rejected)
}

#[test]
fn adversarial_corpus_is_rejected_structurally() {
    // --- truncated headers: every prefix of a valid header short of
    // HEADER_LEN is mid-frame EOF -> CorruptStream, not a hang or panic.
    let valid = encode_request(
        FrameKind::Compress,
        7,
        "raw",
        DType::F32,
        &[4],
        &sample_payload(4),
    );
    for cut in 1..HEADER_LEN {
        let mut c = Cursor::new(valid[..cut].to_vec());
        let err = read_frame(&mut c, DEFAULT_MAX_BODY).expect_err("truncated header");
        assert_eq!(err.code(), ErrorCode::CorruptStream, "cut at {cut}");
    }
    // A clean EOF at a frame boundary is NOT an error.
    let mut empty = Cursor::new(Vec::new());
    assert!(matches!(
        read_frame(&mut empty, DEFAULT_MAX_BODY),
        Ok(ReadOutcome::Eof)
    ));

    // --- truncated bodies: header promises more than the stream holds.
    for cut in HEADER_LEN..valid.len() - 1 {
        let mut c = Cursor::new(valid[..cut].to_vec());
        let err = read_frame(&mut c, DEFAULT_MAX_BODY).expect_err("truncated body");
        assert_eq!(err.code(), ErrorCode::CorruptStream, "cut at {cut}");
    }

    // --- oversized declared lengths: rejected against the cap at header
    // validation, before any body buffer exists. A stream holding only
    // the 17 header bytes suffices to prove no read of the declared size
    // was attempted.
    for lie in [u32::MAX, (DEFAULT_MAX_BODY as u32) + 1, 1 << 30] {
        let raw = header_bytes(FRAME_MAGIC, FrameKind::Compress as u8, 1, lie);
        let err = parse_header(&raw, DEFAULT_MAX_BODY).expect_err("oversized declaration");
        assert_eq!(err.code(), ErrorCode::CorruptStream);
        let mut c = Cursor::new(raw.to_vec());
        let err = read_frame(&mut c, DEFAULT_MAX_BODY).expect_err("oversized via reader");
        assert_eq!(err.code(), ErrorCode::CorruptStream);
    }

    // --- wrong magic and unknown kinds.
    for raw in [
        header_bytes(0xDEAD_BEEF, FrameKind::Compress as u8, 1, 0),
        header_bytes(FRAME_MAGIC, 0, 1, 0),
        header_bytes(FRAME_MAGIC, 99, 1, 0),
        header_bytes(FRAME_MAGIC, 255, 1, 0),
    ] {
        let err = parse_header(&raw, DEFAULT_MAX_BODY).expect_err("bad magic/kind");
        assert_eq!(err.code(), ErrorCode::CorruptStream);
    }

    // --- garbage profile names: charset/length validation fires before
    // any lookup. Path traversal, NUL, unicode, oversized, empty.
    for name in [
        "",
        "../../../etc/passwd",
        "pro file",
        "name\0hidden",
        "ünïcode",
        "exactly#bad",
    ] {
        assert!(validate_profile_name(name).is_err(), "name {name:?}");
    }
    assert!(validate_profile_name(&"x".repeat(129)).is_err(), "too long");
    assert!(validate_profile_name(&"x".repeat(128)).is_ok(), "at the cap");
    assert!(validate_profile_name("sz_abs.v2:tuned-1").is_ok());

    // --- response kinds arriving as requests are rejected.
    let resp = encode_response(3, &Response::Ok(vec![1, 2, 3]));
    let mut c = Cursor::new(resp);
    let Ok(ReadOutcome::Frame(header, body)) = read_frame(&mut c, DEFAULT_MAX_BODY) else {
        panic!("response frame reads fine");
    };
    let err = parse_request(header.kind, &body).expect_err("response is not a request");
    assert_eq!(err.code(), ErrorCode::CorruptStream);

    // --- a garbage profile name inside an otherwise valid Compress body.
    let evil = encode_request(
        FrameKind::Compress,
        9,
        "ok_name",
        DType::F32,
        &[4],
        &sample_payload(4),
    );
    let mut swapped = evil.clone();
    // "ok_name" sits after the header + u64 name length; corrupt a byte
    // of the name to a forbidden character.
    let name_pos = HEADER_LEN + 8;
    assert_eq!(&swapped[name_pos..name_pos + 7], b"ok_name");
    swapped[name_pos + 2] = b'/';
    let mut c = Cursor::new(swapped);
    let Ok(ReadOutcome::Frame(header, body)) = read_frame(&mut c, DEFAULT_MAX_BODY) else {
        panic!("frame boundary is intact");
    };
    let err = parse_request(header.kind, &body).expect_err("bad name byte");
    assert_eq!(err.code(), ErrorCode::CorruptStream);
}

#[test]
fn mutate_stream_sweeps_never_break_the_parser() {
    // A realistic multi-frame conversation to mutate.
    let mut conversation = Vec::new();
    conversation.extend_from_slice(&encode_request(
        FrameKind::Compress,
        1,
        "lossless",
        DType::F32,
        &[16, 4],
        &sample_payload(64),
    ));
    conversation.extend_from_slice(&encode_bodyless(FrameKind::Health, 2));
    conversation.extend_from_slice(&encode_request(
        FrameKind::Decompress,
        3,
        "sz_abs_1e3",
        DType::F64,
        &[32],
        &sample_payload(10),
    ));
    conversation.extend_from_slice(&encode_bodyless(FrameKind::Shutdown, 4));

    // The pristine conversation parses completely.
    let (parsed, rejected) = drive_parser(&conversation);
    assert_eq!((parsed, rejected), (4, 0), "pristine conversation parses");

    let mut total_rejections = 0usize;
    for mode in ALL_FAULT_MODES {
        for intensity in [1u32, 4, 16, 64] {
            for seed in 0..16u64 {
                let mut rng = StdRng::seed_from_u64(
                    seed ^ (intensity as u64) << 8 ^ (mode as u64) << 32,
                );
                let damaged = mutate_stream(&conversation, mode, intensity, &mut rng);
                // The only requirement: structured outcomes, no panic, no
                // hang, no runaway allocation. Damage may still parse
                // (e.g. a bit flip inside payload bytes) — that's fine,
                // payload integrity is the guard/codec layer's job.
                let (_parsed, rejected) = drive_parser(&damaged);
                total_rejections += rejected;
            }
        }
    }
    // Sanity: the sweep actually exercised the rejection paths.
    assert!(
        total_rejections > 100,
        "sweep looks inert: {total_rejections} rejections"
    );
}

#[test]
fn header_garbage_sweep_is_structural() {
    // Exhaustive-ish single-byte corruptions of a valid header: every
    // outcome is Ok(frame) or a structured error — byte position by byte
    // position, all 255 wrong values for the kind/magic bytes, sampled
    // values elsewhere.
    let body = [0u8; 8];
    let mut frame = header_bytes(FRAME_MAGIC, FrameKind::Health as u8, 5, body.len() as u32)
        .to_vec();
    frame.extend_from_slice(&body);
    for pos in 0..HEADER_LEN {
        for delta in 1..=255u8 {
            let mut damaged = frame.clone();
            damaged[pos] = damaged[pos].wrapping_add(delta);
            let mut c = Cursor::new(damaged);
            if let Ok(ReadOutcome::Frame(h, b)) = read_frame(&mut c, DEFAULT_MAX_BODY) {
                // Frame still parsed (id/body-len bytes moved): the body
                // handed over must match the declared length.
                assert_eq!(h.body_len, b.len());
            }
        }
    }
}

// ------------------------------------------------- the streaming reader

/// What one frame of a stream came to, as either route reports it.
#[derive(Debug, PartialEq)]
enum Seen {
    Request {
        header: FrameHeader,
        profile: String,
        dtype: DType,
        dims: Vec<usize>,
        payload: Vec<u8>,
    },
    Bodyless(FrameHeader),
    /// Answerable in-protocol; the stream goes on.
    Rejected(FrameHeader, ErrorCode),
    /// The framing broke; nothing after this can be trusted.
    Broken(ErrorCode),
}

/// The specification: whole frames into memory, `parse_request`, then the
/// cap the daemon used to apply to a decompress's declared output.
fn buffered_route(bytes: &[u8], max_body: usize) -> Vec<Seen> {
    let mut cursor = Cursor::new(bytes);
    let mut seen = Vec::new();
    loop {
        let (header, body) = match read_frame(&mut cursor, max_body) {
            Ok(ReadOutcome::Frame(header, body)) => (header, body),
            Ok(ReadOutcome::Eof | ReadOutcome::Idle) => return seen,
            Err(e) => {
                seen.push(Seen::Broken(e.code()));
                return seen;
            }
        };
        seen.push(match parse_request(header.kind, &body) {
            Ok(RequestBody::Health | RequestBody::Shutdown) => Seen::Bodyless(header),
            Ok(RequestBody::Decompress { dtype, dims, .. })
                if checked_geometry(dtype, &dims).expect("parse_request checked it") > max_body =>
            {
                Seen::Rejected(header, ErrorCode::InvalidArgument)
            }
            Ok(
                RequestBody::Compress {
                    profile,
                    dtype,
                    dims,
                    payload,
                }
                | RequestBody::Decompress {
                    profile,
                    dtype,
                    dims,
                    payload,
                },
            ) => Seen::Request {
                header,
                profile: profile.to_string(),
                dtype,
                dims,
                payload: payload.to_vec(),
            },
            Err(e) => Seen::Rejected(header, e.code()),
        });
    }
}

/// The route the daemon takes.
fn streaming_route(bytes: &[u8], max_body: usize) -> Vec<Seen> {
    let mut cursor = Cursor::new(bytes);
    let mut seen = Vec::new();
    loop {
        seen.push(match read_request(&mut cursor, max_body, 5_000) {
            Ok(RequestRead::Eof | RequestRead::Idle) => return seen,
            Ok(RequestRead::Bodyless(header)) => Seen::Bodyless(header),
            Ok(RequestRead::Rejected(header, e)) => Seen::Rejected(header, e.code()),
            Ok(RequestRead::Data(header, request)) => {
                // The payload arrives in the shape the codec reads it in.
                if header.kind == FrameKind::Compress {
                    assert_eq!(request.payload.dtype(), request.dtype);
                    assert_eq!(request.payload.dims(), request.dims);
                } else {
                    assert_eq!(request.payload.dtype(), DType::Byte);
                    assert_eq!(request.payload.num_dims(), 1);
                }
                Seen::Request {
                    header,
                    profile: request.profile,
                    dtype: request.dtype,
                    dims: request.dims,
                    payload: request.payload.as_bytes().to_vec(),
                }
            }
            Err(e) => {
                seen.push(Seen::Broken(e.code()));
                return seen;
            }
        });
    }
}

/// A data-request frame built field by field, so that any field can lie;
/// always well framed (the header declares the body's true length).
struct RawRequest<'a> {
    kind: u8,
    /// End the body after this many bytes.
    cut_body_at: Option<usize>,
    profile: &'a [u8],
    dtype_tag: u8,
    dims: &'a [u64],
    declared_payload: u64,
    payload: &'a [u8],
}

impl RawRequest<'_> {
    /// A well-formed compress of four f32 under profile `raw`.
    fn valid() -> RawRequest<'static> {
        RawRequest {
            kind: FrameKind::Compress as u8,
            cut_body_at: None,
            profile: b"raw",
            dtype_tag: DType::F32.tag(),
            dims: &[4],
            declared_payload: 16,
            payload: &[7u8; 16],
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut body = ByteWriter::new();
        body.put_section(self.profile);
        body.put_u8(self.dtype_tag);
        body.put_u32(self.dims.len() as u32);
        for &d in self.dims {
            body.put_u64(d);
        }
        body.put_u64(self.declared_payload);
        body.put_bytes(self.payload);
        let mut body = body.into_vec();
        body.truncate(self.cut_body_at.unwrap_or(body.len()));
        let mut frame = header_bytes(FRAME_MAGIC, self.kind, 11, body.len() as u32).to_vec();
        frame.extend_from_slice(&body);
        frame
    }
}

/// A realistic multi-frame conversation to truncate and mutate.
fn conversation() -> Vec<u8> {
    let mut conversation = encode_request(
        FrameKind::Compress,
        1,
        "lossless",
        DType::F32,
        &[16, 4],
        &sample_payload(64),
    );
    conversation.extend_from_slice(&encode_bodyless(FrameKind::Health, 2));
    conversation.extend_from_slice(&encode_request(
        FrameKind::Decompress,
        3,
        "sz_abs_1e3",
        DType::F64,
        &[32],
        &sample_payload(10),
    ));
    conversation.extend_from_slice(&encode_bodyless(FrameKind::Shutdown, 4));
    conversation
}

/// Every hostile stream of `adversarial_corpus_is_rejected_structurally`,
/// and the body-level lies a streaming reader has to see through.
fn adversarial_corpus() -> Vec<(String, Vec<u8>)> {
    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();
    let valid = RawRequest::valid().bytes();
    for cut in 0..valid.len() {
        corpus.push((format!("valid request cut at {cut}"), valid[..cut].to_vec()));
    }
    for lie in [u32::MAX, (DEFAULT_MAX_BODY as u32) + 1, 1 << 30] {
        let header = header_bytes(FRAME_MAGIC, FrameKind::Compress as u8, 1, lie);
        corpus.push((format!("header declaring {lie} bytes"), header.to_vec()));
    }
    for (magic, kind) in [(0xDEAD_BEEF, 1), (FRAME_MAGIC, 0), (FRAME_MAGIC, 99), (FRAME_MAGIC, 255)] {
        let header = header_bytes(magic, kind, 1, 0);
        corpus.push((format!("magic {magic:#x} kind {kind}"), header.to_vec()));
    }
    let then_valid = |mut frame: Vec<u8>| {
        frame.extend_from_slice(&valid);
        frame
    };
    for (name, resp) in [
        ("ok", Response::Ok(vec![1, 2, 3])),
        ("health", Response::Health("{}".into())),
    ] {
        let frame = then_valid(encode_response(3, &resp));
        corpus.push((format!("{name} response sent as a request"), frame));
    }
    for kind in [FrameKind::Health, FrameKind::Shutdown] {
        let mut frame = header_bytes(FRAME_MAGIC, kind as u8, 5, 300).to_vec();
        frame.extend_from_slice(&[0xAB; 300]);
        corpus.push((format!("{kind:?} with a body"), then_valid(frame)));
    }
    let long_name = [b'x'; 129];
    let lies: Vec<(&str, RawRequest)> = vec![
        ("forbidden byte in the profile", RawRequest { profile: b"ok/name", ..RawRequest::valid() }),
        ("empty profile", RawRequest { profile: b"", ..RawRequest::valid() }),
        ("profile past the cap", RawRequest { profile: &long_name, ..RawRequest::valid() }),
        ("profile is not UTF-8", RawRequest { profile: &[0xFF, 0xFE], ..RawRequest::valid() }),
        ("unknown dtype tag", RawRequest { dtype_tag: 200, ..RawRequest::valid() }),
        ("no dimensions", RawRequest { dims: &[], declared_payload: 4, payload: &[0; 4], ..RawRequest::valid() }),
        ("nine dimensions", RawRequest { dims: &[1; 9], declared_payload: 4, payload: &[0; 4], ..RawRequest::valid() }),
        ("geometry overflows", RawRequest { dims: &[1 << 39, 1 << 39], ..RawRequest::valid() }),
        ("geometry past the decode cap", RawRequest { dims: &[1 << 39], ..RawRequest::valid() }),
        ("payload shorter than the geometry", RawRequest { dims: &[5], ..RawRequest::valid() }),
        ("payload longer than the geometry", RawRequest { dims: &[3], ..RawRequest::valid() }),
        ("payload declares more than the body holds", RawRequest { declared_payload: 17, ..RawRequest::valid() }),
        ("payload declares less: trailing bytes", RawRequest { declared_payload: 15, ..RawRequest::valid() }),
        (
            "payload declares 256 MiB in a 100-byte body",
            RawRequest {
                dims: &[1 << 26],
                declared_payload: 256 << 20,
                payload: &[0; 100 - 40],
                ..RawRequest::valid()
            },
        ),
        (
            "decompress into more than a frame can carry",
            RawRequest {
                kind: FrameKind::Decompress as u8,
                dims: &[1 << 30],
                ..RawRequest::valid()
            },
        ),
        (
            "decompress of an empty stream",
            RawRequest {
                kind: FrameKind::Decompress as u8,
                declared_payload: 0,
                payload: &[],
                ..RawRequest::valid()
            },
        ),
        ("body shorter than a prelude", RawRequest { cut_body_at: Some(5), ..RawRequest::valid() }),
        ("body ends inside the dims", RawRequest { cut_body_at: Some(20), ..RawRequest::valid() }),
    ];
    for (name, lie) in lies {
        corpus.push((name.to_string(), then_valid(lie.bytes())));
    }
    // A bad prelude in front of a body far larger than any scratch buffer.
    let mut big = header_bytes(FRAME_MAGIC, FrameKind::Compress as u8, 8, 100_000).to_vec();
    big.extend_from_slice(&[0x5A; 100_000]);
    corpus.push(("100 kB of garbage, well framed".to_string(), then_valid(big)));
    corpus
}

#[test]
fn streaming_reader_agrees_with_the_buffered_route() {
    let agree = |what: &str, bytes: &[u8], max_body: usize| {
        let expected = buffered_route(bytes, max_body);
        assert_eq!(streaming_route(bytes, max_body), expected, "{what} (cap {max_body})");
        expected
    };
    let mut frames = 0;
    let mut rejected = 0;
    let mut broken = 0;
    let mut tally = |seen: Vec<Seen>| {
        frames += seen.len();
        rejected += seen.iter().filter(|s| matches!(s, Seen::Rejected(..))).count();
        broken += seen.iter().filter(|s| matches!(s, Seen::Broken(_))).count();
    };

    for (name, bytes) in adversarial_corpus() {
        tally(agree(&name, &bytes, DEFAULT_MAX_BODY));
    }
    // Every-prefix truncation of a whole conversation.
    let conversation = conversation();
    assert_eq!(buffered_route(&conversation, DEFAULT_MAX_BODY).len(), 4);
    for cut in 0..=conversation.len() {
        tally(agree(&format!("conversation cut at {cut}"), &conversation[..cut], DEFAULT_MAX_BODY));
    }
    // The mutate_stream sweeps, under the default cap and under one small
    // enough that a flipped dimension bit trips the decompress-output cap.
    for mode in ALL_FAULT_MODES {
        for intensity in [1u32, 4, 16, 64] {
            for seed in 0..32u64 {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (intensity as u64) << 8 ^ (mode as u64) << 32);
                let damaged = mutate_stream(&conversation, mode, intensity, &mut rng);
                let what = format!("{} x{intensity} seed {seed}", mode.name());
                tally(agree(&what, &damaged, DEFAULT_MAX_BODY));
                tally(agree(&what, &damaged, 4096));
            }
        }
    }
    // Sanity: the comparison saw all three kinds of outcome, often.
    assert!(frames > 2_000 && rejected > 100 && broken > 100, "{frames} {rejected} {broken}");
}

/// Every check the buffered route made, made by the streaming reader
/// *before* it allocates anything a peer sized — each with the outcome it
/// must produce, so that removing the check fails here even though both
/// routes share one grammar.
#[test]
fn every_check_runs_before_the_payload_allocation() {
    const MAX_BODY: usize = 1 << 20;
    // What the reader must say: answer in-protocol with this code, or
    // (`None`) give the stream up as corrupt.
    let broken = None;
    let corrupt = Some(ErrorCode::CorruptStream);
    let corpus = adversarial_corpus();
    let entry = |name: &str| -> Vec<u8> {
        let (_, bytes) = corpus.iter().find(|(n, _)| n == name).expect(name);
        bytes.clone()
    };
    let over_cap = RawRequest {
        dims: &[(MAX_BODY as u64) / 4 + 1],
        ..RawRequest::valid()
    };
    let over_cap_header = header_bytes(FRAME_MAGIC, 1, 1, MAX_BODY as u32 + 1);
    let cases: Vec<(&str, Option<ErrorCode>, Vec<u8>)> = vec![
        ("the header's magic", broken, entry("magic 0xdeadbeef kind 1")),
        ("the header's kind", broken, entry("magic 0x50535631 kind 99")),
        ("body_len against max_body", broken, over_cap_header.to_vec()),
        ("the profile's charset", corrupt, entry("forbidden byte in the profile")),
        ("the profile's length", corrupt, entry("profile past the cap")),
        ("the dimension count", corrupt, entry("nine dimensions")),
        ("checked_geometry: overflow", corrupt, entry("geometry overflows")),
        ("checked_geometry: decode cap", corrupt, entry("geometry past the decode cap")),
        ("payload == geometry on compress", corrupt, entry("payload shorter than the geometry")),
        ("payload == geometry on compress, past the cap", corrupt, over_cap.bytes()),
        ("prelude + payload == body_len: short", corrupt, entry("payload declares more than the body holds")),
        ("prelude + payload == body_len: trailing", corrupt, entry("payload declares less: trailing bytes")),
        ("prelude + payload == body_len: 256 MiB", corrupt, entry("payload declares 256 MiB in a 100-byte body")),
        (
            "the decompress-output cap",
            Some(ErrorCode::InvalidArgument),
            entry("decompress into more than a frame can carry"),
        ),
        ("bodyless kinds carry no body", corrupt, entry("Health with a body")),
        ("response kinds are not requests", corrupt, entry("ok response sent as a request")),
    ];
    for (check, expected, bytes) in cases {
        let (said, requested) = requested_by(|| {
            match read_request(&mut Cursor::new(&bytes[..]), MAX_BODY, 5_000) {
                Ok(RequestRead::Rejected(_, e)) => Some(e.code()),
                Err(e) => {
                    assert_eq!(e.code(), ErrorCode::CorruptStream, "{check}: {e}");
                    None
                }
                Ok(other) => panic!("{check}: accepted as {other:?}"),
            }
        });
        assert_eq!(said, expected, "{check}");
        assert!(requested < 4096, "{check}: {requested} bytes allocated on the way");
    }
}

#[test]
fn a_bad_prelude_is_drained_and_the_next_frame_parses() {
    let corpus = adversarial_corpus();
    for (name, bytes) in &corpus {
        let seen = streaming_route(bytes, DEFAULT_MAX_BODY);
        if let [Seen::Rejected(..), rest @ ..] = &seen[..] {
            assert!(
                matches!(rest, [Seen::Request { profile, payload, .. }] if profile == "raw" && payload == &[7u8; 16]),
                "{name}: the frame after the rejected one came to {rest:?}"
            );
        }
    }
    // The drain itself holds nothing: 100 kB pass through a fixed buffer.
    let (_, big) = corpus.iter().find(|(n, _)| n.starts_with("100 kB")).expect("entry");
    let mut cursor = Cursor::new(&big[..]);
    let (read, requested) = requested_by(|| read_request(&mut cursor, DEFAULT_MAX_BODY, 5_000));
    assert!(matches!(read, Ok(RequestRead::Rejected(..))), "{read:?}");
    assert!(requested < 4096, "draining allocated {requested} bytes");
    assert_eq!(cursor.position() as usize, HEADER_LEN + 100_000, "drained to the boundary");
}

/// Yields `feed` in `step`-byte reads, then `WouldBlock` forever: a peer
/// that goes silent.
struct StallingStream {
    feed: Vec<u8>,
    pos: usize,
    step: usize,
}

impl Read for StallingStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.feed.len() - self.pos);
        if n == 0 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        buf[..n].copy_from_slice(&self.feed[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn a_peer_that_stops_mid_frame_is_abandoned_at_the_stall_deadline() {
    let payload = sample_payload(2048);
    let frame = encode_request(FrameKind::Compress, 2, "raw", DType::F32, &[2048], &payload);
    let bad_prelude = RawRequest {
        profile: b"no/such",
        dims: &[2048],
        declared_payload: 8192,
        payload: &payload,
        ..RawRequest::valid()
    }
    .bytes();
    let cuts = [
        ("inside the header", &frame, 5),
        ("inside the prelude", &frame, HEADER_LEN + 10),
        ("inside the payload, past the prelude buffer", &frame, HEADER_LEN + MAX_PRELUDE_LEN + 1000),
        ("inside the drain of a rejected body", &bad_prelude, HEADER_LEN + MAX_PRELUDE_LEN + 1000),
    ];
    for (place, frame, cut) in cuts {
        let mut stream = StallingStream {
            feed: frame[..cut].to_vec(),
            pos: 0,
            step: 7,
        };
        let started = std::time::Instant::now();
        let err = read_request(&mut stream, DEFAULT_MAX_BODY, 20).expect_err(place);
        assert_eq!(err.code(), ErrorCode::CorruptStream, "{place}: {err}");
        assert!(err.to_string().contains("stalled mid-frame"), "{place}: {err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(2), "{place}");
    }
    // The same peer sending everything, seven bytes at a time, is served.
    let mut slow = StallingStream {
        feed: frame.clone(),
        pos: 0,
        step: 7,
    };
    let Ok(RequestRead::Data(_, request)) = read_request(&mut slow, DEFAULT_MAX_BODY, 20) else {
        panic!("a slow but live peer is not a stalled one");
    };
    assert_eq!(request.payload.as_bytes(), &payload[..]);
    // And silence *between* frames is idleness, not a stall.
    assert!(matches!(
        read_request(&mut slow, DEFAULT_MAX_BODY, 20),
        Ok(RequestRead::Idle)
    ));
}

#[test]
fn streamed_responses_match_the_buffered_parse() {
    let responses = [
        Response::Ok(sample_payload(1000)),
        Response::Ok(Vec::new()),
        Response::Error {
            code: ErrorCode::Timeout,
            message: "too slow".into(),
        },
        Response::Busy {
            retry_after_ms: 25,
            depth: 4,
            message: "queue full".into(),
        },
        Response::Health("{\"ok\":true}".into()),
    ];
    let mut stream = Vec::new();
    for (id, response) in responses.iter().enumerate() {
        stream.extend_from_slice(&encode_response(id as u64, response));
    }
    let mut cursor = Cursor::new(&stream[..]);
    for (id, response) in responses.iter().enumerate() {
        let Ok(ResponseRead::Response(header, read)) = read_response(&mut cursor, DEFAULT_MAX_BODY, 5_000)
        else {
            panic!("response {id} did not read back");
        };
        assert_eq!((header.request_id, &read), (id as u64, response));
    }
    assert!(matches!(
        read_response(&mut cursor, DEFAULT_MAX_BODY, 5_000),
        Ok(ResponseRead::Eof)
    ));

    // A RespOk whose declared payload disagrees with its frame, either way,
    // is refused before the payload is allocated; a truncated one is a
    // truncation.
    let ok = encode_response(1, &Response::Ok(vec![9; 64]));
    for (what, delta) in [("more", 1i64), ("less", -1), ("256 MiB", 256 << 20)] {
        let mut lying = ok.clone();
        let declared = (64 + delta) as u64;
        lying[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&declared.to_le_bytes());
        let (read, requested) =
            requested_by(|| read_response(&mut Cursor::new(&lying[..]), DEFAULT_MAX_BODY, 5_000));
        assert_eq!(read.expect_err(what).code(), ErrorCode::CorruptStream, "{what}");
        assert!(requested < 4096, "{what}: {requested} bytes allocated");
    }
    for cut in 1..ok.len() {
        let err = read_response(&mut Cursor::new(&ok[..cut]), DEFAULT_MAX_BODY, 5_000)
            .expect_err("truncated response");
        assert_eq!(err.code(), ErrorCode::CorruptStream, "cut at {cut}");
    }
}

// ------------------------------------------------------------ PSV1 pins

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Takes at most `budget` bytes per call and only through `write_vectored`
/// across buffer boundaries, like a socket with a nearly full send buffer.
struct TrickleWriter {
    taken: Vec<u8>,
    budget: usize,
}

impl Write for TrickleWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let mut left = self.budget;
        for buf in bufs {
            let n = left.min(buf.len());
            self.taken.extend_from_slice(&buf[..n]);
            left -= n;
        }
        Ok(self.budget - left)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// PSV1 is a wire contract: these are the bytes the commit before the
/// streaming writers (`c098457`) put on the wire for the same inputs.
#[test]
fn psv1_frames_are_byte_identical_to_the_previous_encoder() {
    let payload: Vec<u8> = (0..24u8).collect();
    let id = 0x1122_3344_5566_7788;
    let compress = unhex(
        "315653500108070605040302014000000003000000000000007261770802000000020000000000000003\
         000000000000001800000000000000000102030405060708090a0b0c0d0e0f1011121314151617",
    );
    let decompress = unhex(
        "31565350020900000000000000330000001100000000000000737a5f6162732e76323a74756e65642d31\
         0901000000040000000000000005000000000000000001020304",
    );
    let responses = [
        (
            Response::Ok(payload.clone()),
            "31565350818877665544332211200000001800000000000000000102030405060708090a0b0c0d0e0f10\
             11121314151617",
        ),
        (
            Response::Error {
                code: ErrorCode::Timeout,
                message: "too slow".into(),
            },
            "3156535082887766554433221111000000080800000000000000746f6f20736c6f77",
        ),
        (
            Response::Busy {
                retry_after_ms: 25,
                depth: 4,
                message: "queue full".into(),
            },
            "315653508388776655443322111a00000019000000040000000a0000000000000071756575652066756c\
             6c",
        ),
        (
            Response::Health("{\"ok\":true}".into()),
            "31565350848877665544332211130000000b000000000000007b226f6b223a747275657d",
        ),
    ];
    let trickle = || TrickleWriter {
        taken: Vec::new(),
        budget: 5,
    };

    let request = |kind, id, profile, dtype, dims: &[usize], payload: &[u8]| {
        let encoded = encode_request(kind, id, profile, dtype, dims, payload);
        let mut streamed = trickle();
        write_request(&mut streamed, kind, id, profile, dtype, dims, payload).expect("write");
        assert_eq!(streamed.taken, encoded, "the streaming writer emits the encoder's bytes");
        encoded
    };
    assert_eq!(
        request(FrameKind::Compress, 0x0102_0304_0506_0708, "raw", DType::F32, &[2, 3], &payload),
        compress
    );
    assert_eq!(
        request(FrameKind::Decompress, 9, "sz_abs.v2:tuned-1", DType::F64, &[4], &payload[..5]),
        decompress
    );
    for (response, pinned) in &responses {
        let encoded = encode_response(id, response);
        assert_eq!(encoded, unhex(&pinned.replace(char::is_whitespace, "")), "{response:?}");
        let mut streamed = trickle();
        write_response(&mut streamed, id, response).expect("write");
        assert_eq!(streamed.taken, encoded, "{response:?}");
    }
    // The daemon's result path: a payload written from where it lies.
    let mut streamed = trickle();
    write_ok(&mut streamed, id, &payload).expect("write");
    assert_eq!(streamed.taken, encode_response(id, &Response::Ok(payload.clone())));
    // And the frames still read back through the buffered reader.
    let Ok(ReadOutcome::Frame(header, body)) = read_frame_stall(&mut &compress[..], DEFAULT_MAX_BODY, 0)
    else {
        panic!("the pinned request frame reads");
    };
    assert!(matches!(
        parse_request(header.kind, &body),
        Ok(RequestBody::Compress { profile: "raw", dims, .. }) if dims == [2, 3]
    ));
}
