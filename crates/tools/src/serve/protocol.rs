//! The `pressio serve` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response, over TCP or a Unix socket — is one
//! frame:
//!
//! ```text
//! magic      u32le  0x50535631 ("PSV1")
//! kind       u8     frame kind (request 1..=4, response 129..=132)
//! request_id u64le  client-chosen correlation id, echoed in the response
//! body_len   u32le  byte length of the body that follows
//! body       [u8; body_len]   kind-specific, see below
//! ```
//!
//! The 17-byte header is fixed-size and is parsed *before any allocation*:
//! [`parse_header`] works on a stack array, validates the magic, the kind,
//! and `body_len` against the connection's cap. A hostile peer declaring a
//! 1 TiB body costs 17 bytes of reads and a structured
//! [`CorruptStream`](ErrorCode::CorruptStream) — never an allocation.
//!
//! A request body is a short **prelude** (profile, dtype, dims, payload
//! length; at most [`MAX_PRELUDE_LEN`] bytes) followed by the payload. One
//! function, `parse_prelude`, is the grammar of that prelude, and it has
//! two byte sources: [`parse_request`] applies it to a body already in
//! memory, and [`read_request`] — what the daemon runs — applies it to the
//! first bytes off the socket, held in a stack buffer, and only then reads
//! the payload, **once, straight into the aligned [`Data`] the codec will
//! read**. Every length the prelude declares is checked against the frame's
//! `body_len` and the geometry against [`checked_geometry`] before that
//! buffer exists, and the buffer itself comes from [`Data::alloc_output`].
//!
//! **Drain to the boundary.** Having validated the header, a streaming
//! reader owes the connection exactly `body_len` bytes of consumption,
//! whatever it thinks of them: when the prelude is bad, [`read_request`]
//! still reads the rest of the body — through a fixed scratch buffer,
//! allocating nothing — and reports [`RequestRead::Rejected`], so the error
//! is answered in-protocol and the next frame on the stream parses. Only a
//! broken *frame* (bad header, EOF or stall mid-body) ends the connection.
//!
//! Writing mirrors reading: [`write_request`], [`write_response`] and
//! [`write_ok`] put the header and the few prelude bytes in a small buffer
//! and hand them to the stream *beside* the caller's payload slice in one
//! vectored write, so a payload is never copied behind its header.
//! [`encode_request`] and [`encode_response`] are those same writers pointed
//! at a `Vec`.
//!
//! Request bodies:
//! - `Compress` / `Decompress`: profile name (section), dtype tag (u8),
//!   dims (u32 count + u64 each), payload (section). For `Compress` the
//!   payload is the raw typed buffer and must match the declared geometry
//!   exactly; for `Decompress` it is a compressed stream and the geometry
//!   declares the output buffer.
//! - `Health`, `Shutdown`: empty body.
//!
//! Response bodies:
//! - `RespOk`: payload (section) — compressed or decompressed bytes.
//! - `RespError`: numeric [`ErrorCode`] (u8) + message (section).
//! - `RespBusy`: retry-after hint in ms (u32), queue depth (u32),
//!   message (section). Maps to [`ErrorCode::Busy`].
//! - `RespHealth`: UTF-8 JSON stats document (section).

use std::io::{IoSlice, Read, Write};

use libpressio::core::{checked_geometry, trace, ByteReader, ByteWriter};
use libpressio::{DType, Data, Error, ErrorCode, Result};

/// Frame magic: "PSV1" as a little-endian u32.
pub const FRAME_MAGIC: u32 = 0x5053_5631;

/// Fixed frame-header size: magic + kind + request_id + body_len.
pub const HEADER_LEN: usize = 4 + 1 + 8 + 4;

/// Default per-connection cap on a frame body. Requests past this are
/// rejected structurally before allocation.
pub const DEFAULT_MAX_BODY: usize = 256 << 20;

/// The wire format's hard body ceiling: `body_len` is a `u32`, so no frame
/// body can exceed this many bytes. The frame writers refuse it; servers
/// answer a structured error instead of building such a frame.
pub const MAX_WIRE_BODY: usize = u32::MAX as usize;

/// Default mid-frame stall deadline: once a frame's first byte has
/// arrived, the peer must keep making progress — this many milliseconds
/// with no new bytes is a [`CorruptStream`](ErrorCode::CorruptStream)
/// abandonment, never an indefinitely parked reader thread.
pub const MID_FRAME_STALL_MS: u64 = 5_000;

/// Longest accepted profile name.
pub const MAX_PROFILE_NAME: usize = 128;

/// Most dimensions a request may declare.
pub const MAX_REQUEST_DIMS: usize = 8;

/// Most bytes of a request body that can precede its payload: the profile
/// section, the dtype tag, the dimension list and the payload's length.
pub const MAX_PRELUDE_LEN: usize = 8 + MAX_PROFILE_NAME + 1 + 4 + 8 * MAX_REQUEST_DIMS + 8;

/// Frame kinds. Requests have the high bit clear, responses set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Compress `payload` (raw typed buffer) under a named profile.
    Compress = 1,
    /// Decompress `payload` into the declared geometry under a profile.
    Decompress = 2,
    /// Queue depth, shed counts, per-profile latency percentiles.
    Health = 3,
    /// Ask the daemon to drain gracefully and exit.
    Shutdown = 4,
    /// Success; body is the result payload.
    RespOk = 129,
    /// Structured failure; body is code + message.
    RespError = 130,
    /// Load-shed; body is retry-after + depth + message.
    RespBusy = 131,
    /// Health report; body is a JSON document.
    RespHealth = 132,
}

impl FrameKind {
    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Result<FrameKind> {
        Ok(match tag {
            1 => FrameKind::Compress,
            2 => FrameKind::Decompress,
            3 => FrameKind::Health,
            4 => FrameKind::Shutdown,
            129 => FrameKind::RespOk,
            130 => FrameKind::RespError,
            131 => FrameKind::RespBusy,
            132 => FrameKind::RespHealth,
            other => {
                return Err(Error::corrupt(format!("unknown frame kind {other}"))
                    .in_plugin("serve"))
            }
        })
    }
}

/// A validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the body means.
    pub kind: FrameKind,
    /// Client correlation id, echoed back in the response.
    pub request_id: u64,
    /// Validated body length (`<= max_body`).
    pub body_len: usize,
}

/// Parse and validate the fixed-size header. Pure stack math — nothing is
/// allocated, so oversized or garbage headers are rejected for free.
pub fn parse_header(raw: &[u8; HEADER_LEN], max_body: usize) -> Result<FrameHeader> {
    let mut r = ByteReader::new(raw);
    let magic = r.get_u32()?;
    if magic != FRAME_MAGIC {
        return Err(Error::corrupt(format!(
            "bad frame magic {magic:#010x} (expected {FRAME_MAGIC:#010x})"
        ))
        .in_plugin("serve"));
    }
    let kind = FrameKind::from_tag(r.get_u8()?)?;
    let request_id = r.get_u64()?;
    let body_len = r.get_count()?;
    if body_len > max_body {
        return Err(Error::corrupt(format!(
            "declared body length {body_len} exceeds the {max_body}-byte frame cap"
        ))
        .in_plugin("serve"));
    }
    Ok(FrameHeader {
        kind,
        request_id,
        body_len,
    })
}

/// A parsed request body, payload borrowed from the frame buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum RequestBody<'a> {
    /// Compress a raw typed buffer.
    Compress {
        /// Named profile to dispatch to.
        profile: &'a str,
        /// Element type of `payload`.
        dtype: DType,
        /// Geometry of `payload`.
        dims: Vec<usize>,
        /// The raw typed buffer; length must equal the geometry's bytes.
        payload: &'a [u8],
    },
    /// Decompress a stream into a declared geometry.
    Decompress {
        /// Named profile to dispatch to.
        profile: &'a str,
        /// Element type of the output buffer.
        dtype: DType,
        /// Geometry of the output buffer.
        dims: Vec<usize>,
        /// The compressed stream.
        payload: &'a [u8],
    },
    /// Stats request (empty body).
    Health,
    /// Graceful-drain request (empty body).
    Shutdown,
}

/// Reject profile names that cannot possibly be registry names before any
/// lookup: empty, oversized, or containing bytes outside `[A-Za-z0-9_:.-]`.
pub fn validate_profile_name(name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(Error::corrupt("empty profile name").in_plugin("serve"));
    }
    if name.len() > MAX_PROFILE_NAME {
        return Err(Error::corrupt(format!(
            "profile name of {} bytes exceeds the {MAX_PROFILE_NAME}-byte cap",
            name.len()
        ))
        .in_plugin("serve"));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | ':' | '.' | '-')))
    {
        return Err(Error::corrupt(format!(
            "profile name contains forbidden character {bad:?}"
        ))
        .in_plugin("serve"));
    }
    Ok(())
}

/// What precedes the payload in a compress / decompress request body.
struct Prelude<'a> {
    /// Named profile to dispatch to (charset- and length-checked).
    profile: &'a str,
    /// Element type of the input (compress) or of the output (decompress).
    dtype: DType,
    /// Geometry of the input (compress) or of the output (decompress).
    dims: Vec<usize>,
    /// Bytes that geometry occupies, by [`checked_geometry`].
    geometry_bytes: usize,
    /// Offset of the payload's first byte in the body: the prelude's length.
    payload_at: usize,
    /// The payload's length; `payload_at + payload_len` is the body's.
    payload_len: usize,
}

/// The request grammar up to the payload, for a validated header. `head`
/// is the first `min(body_len, MAX_PRELUDE_LEN)` bytes of a body of
/// `body_len` bytes; `None` is a well-formed bodyless request
/// ([`FrameKind::Health`] / [`FrameKind::Shutdown`]). Every declared length
/// is checked against the bytes actually there, the profile name is
/// sanity-checked, the geometry must pass [`checked_geometry`], the payload
/// must end exactly where the body does, and a compress payload must be
/// exactly its geometry — so by the time this returns `Ok`, every size a
/// caller might allocate for has been bounded by `body_len`.
fn parse_prelude(kind: FrameKind, head: &[u8], body_len: usize) -> Result<Option<Prelude<'_>>> {
    let corrupt = |msg: String| Error::corrupt(msg).in_plugin("serve");
    match kind {
        FrameKind::Health | FrameKind::Shutdown => {
            if body_len != 0 {
                return Err(corrupt(format!("{kind:?} request body must be empty")));
            }
            return Ok(None);
        }
        FrameKind::Compress | FrameKind::Decompress => {}
        FrameKind::RespOk | FrameKind::RespError | FrameKind::RespBusy | FrameKind::RespHealth => {
            return Err(corrupt("response frame sent to the server".to_string()));
        }
    }
    let mut r = ByteReader::new(head);
    let profile = r.get_str()?;
    validate_profile_name(profile)?;
    let dtype = r.get_dtype()?;
    let dims = r.get_dims()?;
    if dims.is_empty() || dims.len() > MAX_REQUEST_DIMS {
        return Err(corrupt(format!(
            "request declares {} dimensions (accepted: 1..={MAX_REQUEST_DIMS})",
            dims.len()
        )));
    }
    let geometry_bytes = checked_geometry(dtype, &dims)?;
    let declared = r.get_u64()?;
    let payload_at = r.position();
    let payload_len = body_len - payload_at;
    if declared != payload_len as u64 {
        return Err(corrupt(format!(
            "payload declares {declared} bytes but {payload_len} remain in the request body"
        )));
    }
    if kind == FrameKind::Compress && payload_len != geometry_bytes {
        return Err(corrupt(format!(
            "payload is {payload_len} bytes but the declared geometry needs {geometry_bytes}"
        )));
    }
    Ok(Some(Prelude {
        profile,
        dtype,
        dims,
        geometry_bytes,
        payload_at,
        payload_len,
    }))
}

/// Parse a request body held in memory: the prelude grammar over its first
/// bytes, the payload borrowed from the rest. Every declared length is
/// checked against the actual slice, the profile name is sanity-checked,
/// and the geometry must pass [`checked_geometry`] — so a garbage body can
/// never size an allocation.
pub fn parse_request<'a>(kind: FrameKind, body: &'a [u8]) -> Result<RequestBody<'a>> {
    let head = &body[..body.len().min(MAX_PRELUDE_LEN)];
    let Some(prelude) = parse_prelude(kind, head, body.len())? else {
        return Ok(match kind {
            FrameKind::Health => RequestBody::Health,
            _ => RequestBody::Shutdown,
        });
    };
    let Prelude {
        profile,
        dtype,
        dims,
        payload_at,
        ..
    } = prelude;
    let payload = &body[payload_at..];
    Ok(if kind == FrameKind::Compress {
        RequestBody::Compress {
            profile,
            dtype,
            dims,
            payload,
        }
    } else {
        RequestBody::Decompress {
            profile,
            dtype,
            dims,
            payload,
        }
    })
}

/// A parsed response body (client side), payloads owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the compressed / decompressed bytes.
    Ok(Vec<u8>),
    /// Structured failure.
    Error {
        /// The failure's [`ErrorCode`], numeric on the wire.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
    /// The request was shed (admission queue full or daemon draining).
    Busy {
        /// Suggested client backoff before retrying.
        retry_after_ms: u32,
        /// Queue depth observed at shed time.
        depth: u32,
        /// Human-readable reason.
        message: String,
    },
    /// Health report (JSON document).
    Health(String),
}

fn io_error(e: std::io::Error) -> Error {
    Error::new(ErrorCode::Io, e.to_string()).in_plugin("serve")
}

/// Write one frame whose body is `head` then `payload`: the 17 header
/// bytes, the few body bytes built for this frame and the caller's payload
/// slice go to the stream as one vectored write — a large payload is never
/// copied behind its header, and under `TCP_NODELAY` the header does not
/// leave in a segment of its own.
fn write_frame_parts(
    w: &mut impl Write,
    kind: FrameKind,
    request_id: u64,
    head: &[u8],
    payload: &[u8],
) -> Result<()> {
    // A body past u32::MAX would silently truncate the length field and
    // desynchronize the stream; callers bound payloads well below this
    // (requests by max_body, responses by the server's size guard).
    let body_len = u32::try_from(head.len() + payload.len()).map_err(|_| {
        Error::invalid_argument(format!(
            "frame body of {} bytes exceeds the u32 wire limit",
            head.len() + payload.len()
        ))
        .in_plugin("serve")
    })?;
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4] = kind as u8;
    header[5..13].copy_from_slice(&request_id.to_le_bytes());
    header[13..17].copy_from_slice(&body_len.to_le_bytes());
    let mut parts = [IoSlice::new(&header), IoSlice::new(head), IoSlice::new(payload)];
    let mut parts = &mut parts[..];
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io_error(std::io::ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    w.flush().map_err(io_error)
}

/// Write a compress / decompress request frame, `payload` straight from the
/// caller's slice.
pub fn write_request(
    w: &mut impl Write,
    kind: FrameKind,
    request_id: u64,
    profile: &str,
    dtype: DType,
    dims: &[usize],
    payload: &[u8],
) -> Result<()> {
    let mut prelude = ByteWriter::with_capacity(MAX_PRELUDE_LEN);
    prelude.put_str(profile);
    prelude.put_dtype(dtype);
    prelude.put_dims(dims);
    prelude.put_u64(payload.len() as u64);
    write_frame_parts(w, kind, request_id, prelude.as_slice(), payload)
}

/// Write a [`FrameKind::RespOk`] frame, `payload` straight from wherever
/// the result lives.
pub fn write_ok(w: &mut impl Write, request_id: u64, payload: &[u8]) -> Result<()> {
    let len = (payload.len() as u64).to_le_bytes();
    write_frame_parts(w, FrameKind::RespOk, request_id, &len, payload)
}

/// Write a response frame.
pub fn write_response(w: &mut impl Write, request_id: u64, resp: &Response) -> Result<()> {
    let (kind, body) = match resp {
        Response::Ok(payload) => return write_ok(w, request_id, payload),
        Response::Error { code, message } => {
            let mut b = ByteWriter::with_capacity(message.len() + 16);
            // Codes are 1..=10 today; u8 leaves headroom for 255 more.
            b.put_u8(code.code().clamp(0, 255) as u8);
            b.put_section(message.as_bytes());
            (FrameKind::RespError, b)
        }
        Response::Busy {
            retry_after_ms,
            depth,
            message,
        } => {
            let mut b = ByteWriter::with_capacity(message.len() + 16);
            b.put_u32(*retry_after_ms);
            b.put_u32(*depth);
            b.put_section(message.as_bytes());
            (FrameKind::RespBusy, b)
        }
        Response::Health(json) => {
            let mut b = ByteWriter::with_capacity(json.len() + 16);
            b.put_section(json.as_bytes());
            (FrameKind::RespHealth, b)
        }
    };
    write_frame_parts(w, kind, request_id, body.as_slice(), &[])
}

/// A frame writer pointed at a `Vec`. One vectored write into an empty `Vec`
/// reserves the frame's exact size, so this is one allocation and one copy.
///
/// # Panics
///
/// When the body would pass [`MAX_WIRE_BODY`].
fn encoded(write: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Vec<u8> {
    let mut frame = Vec::new();
    write(&mut frame).expect("a Vec takes every byte and the body fits the u32 length field");
    frame
}

/// Encode a compress / decompress request frame: [`write_request`] into a
/// `Vec`. Panics when the body would pass [`MAX_WIRE_BODY`].
pub fn encode_request(
    kind: FrameKind,
    request_id: u64,
    profile: &str,
    dtype: DType,
    dims: &[usize],
    payload: &[u8],
) -> Vec<u8> {
    encoded(|frame| write_request(frame, kind, request_id, profile, dtype, dims, payload))
}

/// Encode a bodyless request frame ([`FrameKind::Health`] /
/// [`FrameKind::Shutdown`]).
pub fn encode_bodyless(kind: FrameKind, request_id: u64) -> Vec<u8> {
    encoded(|frame| write_frame_parts(frame, kind, request_id, &[], &[]))
}

/// Encode a response frame: [`write_response`] into a `Vec`. Panics when
/// the body would pass [`MAX_WIRE_BODY`].
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    encoded(|frame| write_response(frame, request_id, resp))
}

/// Map a wire error code back to an [`ErrorCode`], exhaustively over
/// [`ErrorCode::ALL`] — an unknown number is itself a corrupt stream, so
/// new codes can never silently collapse into `Internal`.
pub fn error_code_from_wire(n: u8) -> Result<ErrorCode> {
    ErrorCode::ALL
        .iter()
        .copied()
        .find(|c| c.code() == i32::from(n))
        .ok_or_else(|| Error::corrupt(format!("unknown error code {n} on the wire")).in_plugin("serve"))
}

/// Bytes of a [`FrameKind::RespOk`] body before its payload: the length.
const OK_HEAD_LEN: usize = 8;

/// The [`FrameKind::RespOk`] grammar up to the payload: `head` is the first
/// `min(body_len, OK_HEAD_LEN)` bytes of a body of `body_len` bytes, and the
/// payload it declares must end exactly where the body does.
fn ok_payload_len(head: &[u8], body_len: usize) -> Result<usize> {
    let declared = ByteReader::new(head).get_u64()?;
    let payload_len = body_len - OK_HEAD_LEN;
    if declared != payload_len as u64 {
        return Err(Error::corrupt(format!(
            "payload declares {declared} bytes but {payload_len} remain in the response body"
        ))
        .in_plugin("serve"));
    }
    Ok(payload_len)
}

/// Parse a response body (client side).
pub fn parse_response(kind: FrameKind, body: &[u8]) -> Result<Response> {
    let mut r = ByteReader::new(body);
    let resp = match kind {
        FrameKind::RespOk => {
            let head = r.get_bytes(OK_HEAD_LEN.min(body.len()))?;
            Response::Ok(r.get_bytes(ok_payload_len(head, body.len())?)?.to_vec())
        }
        FrameKind::RespError => {
            let code = error_code_from_wire(r.get_u8()?)?;
            let message = std::str::from_utf8(r.get_section()?)
                .map_err(|_| Error::corrupt("error message is not UTF-8").in_plugin("serve"))?
                .to_string();
            Response::Error { code, message }
        }
        FrameKind::RespBusy => {
            let retry_after_ms = r.get_u32()?;
            let depth = r.get_u32()?;
            let message = std::str::from_utf8(r.get_section()?)
                .map_err(|_| Error::corrupt("busy message is not UTF-8").in_plugin("serve"))?
                .to_string();
            Response::Busy {
                retry_after_ms,
                depth,
                message,
            }
        }
        FrameKind::RespHealth => Response::Health(
            std::str::from_utf8(r.get_section()?)
                .map_err(|_| Error::corrupt("health body is not UTF-8").in_plugin("serve"))?
                .to_string(),
        ),
        _ => return Err(Error::corrupt("request frame sent to the client").in_plugin("serve")),
    };
    if r.remaining() != 0 {
        return Err(Error::corrupt(format!(
            "{} trailing bytes after the response body",
            r.remaining()
        ))
        .in_plugin("serve"));
    }
    Ok(resp)
}

/// What one blocking frame read produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame.
    Frame(FrameHeader, Vec<u8>),
    /// Clean EOF at a frame boundary (peer closed).
    Eof,
    /// The socket's read timeout elapsed with *no* bytes of a new frame
    /// read — the connection is idle, the caller re-checks its flags.
    Idle,
}

/// Read one whole frame into memory, using the default
/// [`MID_FRAME_STALL_MS`] stall deadline. The daemon and the client read
/// with [`read_request`] and [`read_response`] instead, which never hold a
/// body and its payload at once; this is the buffered reader tests compare
/// them against.
///
/// The 17-byte header is read into a stack buffer and validated before the
/// body allocation. Timeouts *between* frames surface as
/// [`ReadOutcome::Idle`]; EOF inside a frame is a [`CorruptStream`]
/// truncation error; a peer that starts a frame and then stops sending is
/// abandoned as [`CorruptStream`] once no bytes arrive for the stall
/// deadline — a half-written frame can never park the reader forever.
pub fn read_frame(stream: &mut impl Read, max_body: usize) -> Result<ReadOutcome> {
    read_frame_stall(stream, max_body, MID_FRAME_STALL_MS)
}

/// [`read_frame`] with an explicit mid-frame stall deadline in
/// milliseconds (`0` means a single timeout tick is already a stall).
pub fn read_frame_stall(
    stream: &mut impl Read,
    max_body: usize,
    stall_ms: u64,
) -> Result<ReadOutcome> {
    let header = match read_header(stream, max_body, stall_ms)? {
        HeaderRead::Header(header) => header,
        HeaderRead::Eof => return Ok(ReadOutcome::Eof),
        HeaderRead::Idle => return Ok(ReadOutcome::Idle),
    };
    // Allocation happens only here, after the length passed validation.
    let mut body = vec![0u8; header.body_len];
    read_body(stream, &mut body, stall_ms)?;
    Ok(ReadOutcome::Frame(header, body))
}

/// A compress / decompress request read off a stream, its payload already
/// in the [`Data`] the codec will read.
#[derive(Debug)]
pub struct StreamedRequest {
    /// Named profile to dispatch to.
    pub profile: String,
    /// Element type of `payload` (compress) or of the output (decompress).
    pub dtype: DType,
    /// Geometry of `payload` (compress) or of the output (decompress).
    pub dims: Vec<usize>,
    /// Compress: the typed input buffer, `dtype` x `dims`. Decompress: the
    /// compressed stream, 1-d `Byte`.
    pub payload: Data,
}

/// What one blocking [`read_request`] produced.
#[derive(Debug)]
pub enum RequestRead {
    /// A compress / decompress request.
    Data(FrameHeader, StreamedRequest),
    /// A [`FrameKind::Health`] / [`FrameKind::Shutdown`] request.
    Bodyless(FrameHeader),
    /// A well-framed body that is not a valid request. The body has been
    /// consumed to the frame boundary, so the error can be answered
    /// in-protocol and the next frame on the stream still parses.
    Rejected(FrameHeader, Error),
    /// Clean EOF at a frame boundary (peer closed).
    Eof,
    /// The read timeout elapsed with no byte of a new frame.
    Idle,
}

/// Read one request the way the daemon does: header and prelude through
/// stack buffers, then the payload from the stream **once, into the
/// [`Data`] the request carries** (see the module docs). Everything
/// [`read_frame`] + [`parse_request`] would refuse is refused here, before
/// that `Data` is allocated; on top of the prelude grammar, a decompress
/// whose declared output geometry exceeds `max_body` is an
/// [`InvalidArgument`](ErrorCode::InvalidArgument) — a tiny request must
/// not make a worker allocate (and frame) an arbitrarily large response.
/// `Err` means the *framing* broke (bad header, EOF or a `stall_ms` stall
/// mid-frame): the stream is out of sync and must be closed.
pub fn read_request(stream: &mut impl Read, max_body: usize, stall_ms: u64) -> Result<RequestRead> {
    let header = match read_header(stream, max_body, stall_ms)? {
        HeaderRead::Header(header) => header,
        HeaderRead::Eof => return Ok(RequestRead::Eof),
        HeaderRead::Idle => return Ok(RequestRead::Idle),
    };
    let mut head = [0u8; MAX_PRELUDE_LEN];
    let head = &mut head[..header.body_len.min(MAX_PRELUDE_LEN)];
    read_body(stream, head, stall_ms)?;
    let staged = parse_prelude(header.kind, head, header.body_len).and_then(|prelude| {
        let Some(prelude) = prelude else {
            return Ok(None);
        };
        let payload = if header.kind == FrameKind::Compress {
            Data::alloc_output(prelude.dtype, prelude.dims.as_slice())?
        } else if prelude.geometry_bytes > max_body {
            return Err(Error::invalid_argument(format!(
                "declared output geometry of {} bytes exceeds the {max_body}-byte frame cap",
                prelude.geometry_bytes
            ))
            .in_plugin("serve"));
        } else {
            Data::alloc_output(DType::Byte, [prelude.payload_len])?
        };
        Ok(Some((prelude, payload)))
    });
    match staged {
        Ok(None) => Ok(RequestRead::Bodyless(header)),
        Ok(Some((prelude, mut payload))) => {
            // The stack buffer may hold the payload's first bytes; the rest
            // goes from the socket to where the codec reads it.
            let (buffered, rest) = payload
                .as_bytes_mut()
                .split_at_mut(head.len() - prelude.payload_at);
            buffered.copy_from_slice(&head[prelude.payload_at..]);
            read_body(stream, rest, stall_ms)?;
            let request = StreamedRequest {
                profile: prelude.profile.to_string(),
                dtype: prelude.dtype,
                dims: prelude.dims,
                payload,
            };
            Ok(RequestRead::Data(header, request))
        }
        Err(e) => {
            let mut left = header.body_len - head.len();
            let mut scratch = [0u8; 8192];
            while left > 0 {
                let n = left.min(scratch.len());
                read_body(stream, &mut scratch[..n], stall_ms)?;
                left -= n;
            }
            Ok(RequestRead::Rejected(header, e))
        }
    }
}

/// What one blocking [`read_response`] produced.
#[derive(Debug)]
pub enum ResponseRead {
    /// A complete response.
    Response(FrameHeader, Response),
    /// Clean EOF at a frame boundary (peer closed).
    Eof,
    /// The read timeout elapsed with no byte of a new frame.
    Idle,
}

/// Read one response the way the client does: a [`FrameKind::RespOk`]
/// payload goes from the stream straight into the `Vec` the caller gets,
/// after its declared length has been checked against the frame's; the
/// other kinds are small and go through [`parse_response`]. Any `Err`
/// leaves the stream unusable.
pub fn read_response(
    stream: &mut impl Read,
    max_body: usize,
    stall_ms: u64,
) -> Result<ResponseRead> {
    let header = match read_header(stream, max_body, stall_ms)? {
        HeaderRead::Header(header) => header,
        HeaderRead::Eof => return Ok(ResponseRead::Eof),
        HeaderRead::Idle => return Ok(ResponseRead::Idle),
    };
    let response = if header.kind == FrameKind::RespOk {
        let mut head = [0u8; OK_HEAD_LEN];
        let head = &mut head[..header.body_len.min(OK_HEAD_LEN)];
        read_body(stream, head, stall_ms)?;
        let mut payload = vec![0u8; ok_payload_len(head, header.body_len)?];
        read_body(stream, &mut payload, stall_ms)?;
        Response::Ok(payload)
    } else {
        let mut body = vec![0u8; header.body_len];
        read_body(stream, &mut body, stall_ms)?;
        parse_response(header.kind, &body)?
    };
    Ok(ResponseRead::Response(header, response))
}

enum HeaderRead {
    Header(FrameHeader),
    Eof,
    Idle,
}

/// Read and validate the next frame's header through a stack buffer.
fn read_header(stream: &mut impl Read, max_body: usize, stall_ms: u64) -> Result<HeaderRead> {
    let mut header = [0u8; HEADER_LEN];
    Ok(match read_fully(stream, &mut header, true, stall_ms)? {
        FillOutcome::Filled => HeaderRead::Header(parse_header(&header, max_body)?),
        FillOutcome::CleanEof => HeaderRead::Eof,
        FillOutcome::Idle => HeaderRead::Idle,
    })
}

/// Fill `buf` with bytes of a frame body: the frame is in flight, so EOF
/// and a stall are both truncations.
fn read_body(stream: &mut impl Read, buf: &mut [u8], stall_ms: u64) -> Result<()> {
    match read_fully(stream, buf, false, stall_ms)? {
        FillOutcome::Filled => Ok(()),
        FillOutcome::CleanEof | FillOutcome::Idle => {
            Err(Error::corrupt("stream truncated inside a frame body").in_plugin("serve"))
        }
    }
}

enum FillOutcome {
    Filled,
    CleanEof,
    Idle,
}

/// Fill `buf` from the stream. With `idle_ok`, a timeout before the first
/// byte reports [`FillOutcome::Idle`]; once any byte has arrived the frame
/// is in flight and timeouts retry only while the peer keeps making
/// progress — `stall_ms` without a single new byte abandons the frame as
/// [`CorruptStream`], so a half-written header or body can never pin the
/// reading thread indefinitely (a mid-frame EOF is an error handled by the
/// caller via [`FillOutcome::CleanEof`] + `got > 0`).
fn read_fully(
    stream: &mut impl Read,
    buf: &mut [u8],
    idle_ok: bool,
    stall_ms: u64,
) -> Result<FillOutcome> {
    let mut got = 0usize;
    let stall_ns = stall_ms.saturating_mul(1_000_000);
    let mut stall_deadline = trace::monotonic_ns().saturating_add(stall_ns);
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && idle_ok {
                    return Ok(FillOutcome::CleanEof);
                }
                return Err(Error::corrupt(format!(
                    "peer closed mid-frame after {got} bytes"
                ))
                .in_plugin("serve"));
            }
            Ok(n) => {
                got += n;
                stall_deadline = trace::monotonic_ns().saturating_add(stall_ns);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 && idle_ok {
                    return Ok(FillOutcome::Idle);
                }
                // Mid-frame: tolerate a slow peer, but only one that is
                // still making progress.
                if trace::monotonic_ns() >= stall_deadline {
                    return Err(Error::corrupt(format!(
                        "peer stalled mid-frame for {stall_ms} ms after {got} bytes"
                    ))
                    .in_plugin("serve"));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::new(ErrorCode::Io, e.to_string()).in_plugin("serve")),
        }
    }
    Ok(FillOutcome::Filled)
}

/// Write an already encoded frame to a blocking stream.
pub fn write_frame(stream: &mut impl Write, bytes: &[u8]) -> Result<()> {
    stream
        .write_all(bytes)
        .and_then(|()| stream.flush())
        .map_err(io_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let f = encode_bodyless(FrameKind::Health, 7);
        assert_eq!(f.len(), HEADER_LEN);
        let mut raw = [0u8; HEADER_LEN];
        raw.copy_from_slice(&f);
        let h = parse_header(&raw, DEFAULT_MAX_BODY).expect("valid header");
        assert_eq!(h.kind, FrameKind::Health);
        assert_eq!(h.request_id, 7);
        assert_eq!(h.body_len, 0);
    }

    #[test]
    fn request_roundtrip() {
        let payload: Vec<u8> = (0..32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let f = encode_request(FrameKind::Compress, 3, "fast", DType::F32, &[8, 4], &payload);
        let mut raw = [0u8; HEADER_LEN];
        raw.copy_from_slice(&f[..HEADER_LEN]);
        let h = parse_header(&raw, DEFAULT_MAX_BODY).expect("valid header");
        assert_eq!(h.body_len, f.len() - HEADER_LEN);
        match parse_request(h.kind, &f[HEADER_LEN..]).expect("valid body") {
            RequestBody::Compress {
                profile,
                dtype,
                dims,
                payload: p,
            } => {
                assert_eq!(profile, "fast");
                assert_eq!(dtype, DType::F32);
                assert_eq!(dims, vec![8, 4]);
                assert_eq!(p, &payload[..]);
            }
            other => panic!("wrong body {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_without_allocation() {
        // A header declaring a body over the cap must fail in parse_header
        // (which allocates nothing), not at the allocation site.
        let mut w = ByteWriter::with_capacity(HEADER_LEN);
        w.put_u32(FRAME_MAGIC);
        w.put_u8(FrameKind::Compress as u8);
        w.put_u64(1);
        w.put_u32(u32::MAX);
        let mut raw = [0u8; HEADER_LEN];
        raw.copy_from_slice(w.as_slice());
        let err = parse_header(&raw, DEFAULT_MAX_BODY).expect_err("must reject");
        assert_eq!(err.code(), ErrorCode::CorruptStream);
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Ok(vec![1, 2, 3]),
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
        ] {
            let f = encode_response(9, &resp);
            let mut raw = [0u8; HEADER_LEN];
            raw.copy_from_slice(&f[..HEADER_LEN]);
            let h = parse_header(&raw, DEFAULT_MAX_BODY).expect("valid header");
            assert_eq!(h.request_id, 9);
            let parsed = parse_response(h.kind, &f[HEADER_LEN..]).expect("valid body");
            assert_eq!(parsed, resp);
        }
    }

    #[test]
    fn every_error_code_survives_the_wire() {
        for code in ErrorCode::ALL {
            let f = encode_response(
                1,
                &Response::Error {
                    code: *code,
                    message: "x".into(),
                },
            );
            match parse_response(FrameKind::RespError, &f[HEADER_LEN..]).expect("valid") {
                Response::Error { code: back, .. } => assert_eq!(back, *code),
                other => panic!("wrong body {other:?}"),
            }
        }
        assert!(error_code_from_wire(0).is_err());
        assert!(error_code_from_wire(200).is_err());
    }

    /// Yields `feed` one byte per read, then reports `WouldBlock` forever —
    /// a peer that starts a frame and goes silent.
    struct StallingStream {
        feed: Vec<u8>,
        pos: usize,
    }

    impl std::io::Read for StallingStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos < self.feed.len() && !buf.is_empty() {
                buf[0] = self.feed[self.pos];
                self.pos += 1;
                Ok(1)
            } else {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
    }

    #[test]
    fn mid_frame_stall_is_abandoned_not_retried_forever() {
        // A partial header followed by silence must end in CorruptStream
        // once the stall deadline passes — never an infinite retry loop.
        let mut partial = StallingStream {
            feed: encode_bodyless(FrameKind::Health, 1)[..5].to_vec(),
            pos: 0,
        };
        let err = read_frame_stall(&mut partial, DEFAULT_MAX_BODY, 20).expect_err("must abandon");
        assert_eq!(err.code(), ErrorCode::CorruptStream);
        assert!(err.to_string().contains("stalled mid-frame"), "{err}");

        // Same for a complete header whose promised body never arrives.
        let mut bodyless = StallingStream {
            feed: encode_request(FrameKind::Compress, 2, "p", DType::U8, &[4], &[0u8; 4])
                [..HEADER_LEN]
                .to_vec(),
            pos: 0,
        };
        let err = read_frame_stall(&mut bodyless, DEFAULT_MAX_BODY, 20).expect_err("must abandon");
        assert_eq!(err.code(), ErrorCode::CorruptStream);

        // A timeout before any byte is still a plain Idle, not an error.
        let mut idle = StallingStream {
            feed: Vec::new(),
            pos: 0,
        };
        assert!(matches!(
            read_frame_stall(&mut idle, DEFAULT_MAX_BODY, 20),
            Ok(ReadOutcome::Idle)
        ));
    }

    #[test]
    fn garbage_profile_names_are_rejected() {
        for name in ["", "a b", "p\u{1F980}", "../../etc/passwd\0"] {
            let mut b = ByteWriter::new();
            b.put_str(name);
            b.put_u8(DType::F32.tag());
            b.put_dims(&[4]);
            b.put_section(&[0u8; 16]);
            let err = parse_request(FrameKind::Compress, b.as_slice()).expect_err(name);
            assert_eq!(err.code(), ErrorCode::CorruptStream, "{name:?}");
        }
        // Too-long name.
        let long = "x".repeat(MAX_PROFILE_NAME + 1);
        let mut b = ByteWriter::new();
        b.put_str(&long);
        b.put_u8(DType::F32.tag());
        b.put_dims(&[4]);
        b.put_section(&[0u8; 16]);
        let err = parse_request(FrameKind::Compress, b.as_slice()).expect_err("too long");
        assert_eq!(err.code(), ErrorCode::CorruptStream);
    }
}
