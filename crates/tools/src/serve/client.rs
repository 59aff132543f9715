//! A small synchronous client for the `pressio serve` frame protocol.
//!
//! One [`Client`] wraps one connection and issues one request at a time
//! (the daemon itself multiplexes many clients). `Busy` responses are
//! surfaced as a distinct [`ServeOutcome`] variant rather than an error so
//! load harnesses can count sheds without string-matching; server-side
//! failures arrive as structured [`Error`]s with the original
//! [`ErrorCode`](libpressio::ErrorCode) reconstructed from the wire.

use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use libpressio::core::trace;
use libpressio::{DType, Error, ErrorCode, Result};

use super::protocol::{
    encode_bodyless, read_response, write_frame, write_request, FrameKind, Response, ResponseRead,
    DEFAULT_MAX_BODY, MID_FRAME_STALL_MS,
};
use super::Stream;

/// How often a waiting client re-checks its overall response deadline.
const CLIENT_POLL_MS: u64 = 50;

/// What one request produced: a payload, or a structured shed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The request executed; compressed or decompressed bytes.
    Ok(Vec<u8>),
    /// The daemon shed the request; back off `retry_after_ms`.
    Busy {
        /// Server's retry hint in milliseconds.
        retry_after_ms: u32,
        /// Queue depth the shed request observed.
        depth: u32,
    },
}

/// One connection to a `pressio serve` daemon.
pub struct Client {
    stream: Stream,
    next_id: u64,
    /// Overall per-request response deadline.
    timeout_ms: u64,
}

impl Client {
    /// Connect over TCP, e.g. `127.0.0.1:7335`.
    pub fn connect_tcp(addr: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::new(ErrorCode::Io, format!("connect {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_millis(CLIENT_POLL_MS))))
            .map_err(|e| Error::new(ErrorCode::Io, e.to_string()))?;
        Ok(Client {
            stream: Stream::Tcp(stream),
            next_id: 1,
            timeout_ms: 60_000,
        })
    }

    /// Connect over a Unix socket.
    pub fn connect_unix(path: &Path) -> Result<Client> {
        let stream = UnixStream::connect(path)
            .map_err(|e| Error::new(ErrorCode::Io, format!("connect {}: {e}", path.display())))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(CLIENT_POLL_MS)))
            .map_err(|e| Error::new(ErrorCode::Io, e.to_string()))?;
        Ok(Client {
            stream: Stream::Unix(stream),
            next_id: 1,
            timeout_ms: 60_000,
        })
    }

    /// Override the per-request response deadline (default 60 s).
    pub fn set_timeout_ms(&mut self, ms: u64) {
        self.timeout_ms = ms.max(1);
    }

    /// Compress `payload` (raw bytes of a `dtype`/`dims` tensor) under the
    /// named profile.
    pub fn compress(
        &mut self,
        profile: &str,
        dtype: DType,
        dims: &[usize],
        payload: &[u8],
    ) -> Result<ServeOutcome> {
        self.data_request(FrameKind::Compress, profile, dtype, dims, payload)
    }

    /// Decompress a stream back into a `dtype`/`dims` tensor under the
    /// named profile.
    pub fn decompress(
        &mut self,
        profile: &str,
        dtype: DType,
        dims: &[usize],
        stream: &[u8],
    ) -> Result<ServeOutcome> {
        self.data_request(FrameKind::Decompress, profile, dtype, dims, stream)
    }

    /// Fetch the daemon's health/stats document (JSON).
    pub fn health(&mut self) -> Result<String> {
        match self.control_request(FrameKind::Health)? {
            Response::Health(json) => Ok(json),
            other => Err(Error::new(
                ErrorCode::CorruptStream,
                format!("expected a health response, got {other:?}"),
            )),
        }
    }

    /// Ask the daemon to begin a graceful drain.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.control_request(FrameKind::Shutdown)? {
            Response::Ok(_) => Ok(()),
            Response::Error { code, message } => Err(Error::new(code, message)),
            other => Err(Error::new(
                ErrorCode::CorruptStream,
                format!("expected an ack, got {other:?}"),
            )),
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn control_request(&mut self, kind: FrameKind) -> Result<Response> {
        let id = self.next_id();
        write_frame(&mut self.stream, &encode_bodyless(kind, id))?;
        self.await_response(id)
    }

    /// One compress / decompress round trip. The payload goes to the socket
    /// from the caller's slice and the result comes off it into the `Vec`
    /// the caller gets: neither is copied into a frame on this side.
    fn data_request(
        &mut self,
        kind: FrameKind,
        profile: &str,
        dtype: DType,
        dims: &[usize],
        payload: &[u8],
    ) -> Result<ServeOutcome> {
        let id = self.next_id();
        write_request(&mut self.stream, kind, id, profile, dtype, dims, payload)?;
        match self.await_response(id)? {
            Response::Ok(bytes) => Ok(ServeOutcome::Ok(bytes)),
            Response::Busy {
                retry_after_ms,
                depth,
                ..
            } => Ok(ServeOutcome::Busy {
                retry_after_ms,
                depth,
            }),
            Response::Error { code, message } => Err(Error::new(code, message)),
            Response::Health(_) => Err(Error::new(
                ErrorCode::CorruptStream,
                "unexpected health response to a data request",
            )),
        }
    }

    fn await_response(&mut self, id: u64) -> Result<Response> {
        let deadline =
            trace::monotonic_ns().saturating_add(self.timeout_ms.saturating_mul(1_000_000));
        loop {
            match read_response(&mut self.stream, DEFAULT_MAX_BODY, MID_FRAME_STALL_MS)? {
                ResponseRead::Idle => {
                    if trace::monotonic_ns() >= deadline {
                        return Err(Error::timeout(format!(
                            "no response to request {id} within {} ms",
                            self.timeout_ms
                        )));
                    }
                }
                ResponseRead::Eof => {
                    return Err(Error::new(
                        ErrorCode::Io,
                        "server closed the connection before responding",
                    ));
                }
                ResponseRead::Response(header, response) => {
                    // id 0 marks a connection-level error (framing desync);
                    // anything else must match the outstanding request.
                    if header.request_id == id || header.request_id == 0 {
                        return match response {
                            Response::Error { code, message } if header.request_id == 0 => {
                                Err(Error::new(code, message))
                            }
                            r => Ok(r),
                        };
                    }
                    // A stale response (e.g. from a forfeited slow read)
                    // is discarded; keep waiting for ours.
                }
            }
        }
    }
}
