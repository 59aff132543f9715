//! Smoke tier for `pressio serve`: the exact checks ci.sh's `--serve`
//! tier performs. Starts real daemons on loopback TCP and a Unix socket,
//! round-trips every default profile, pushes an overload burst past
//! capacity (sheds must be structured `Busy`, never aborts), exercises
//! malformed-frame rejection on a live socket, and asserts the graceful
//! drain leaves zero in-flight requests and no leaked watchdog workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use libpressio::DType;
use pressio_tools::serve::client::{Client, ServeOutcome};
use pressio_tools::serve::{ServeConfig, Server};

fn f32_payload(n: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|i| ((i as f32 * 0.25).sin() * 100.0).to_le_bytes())
        .collect()
}

fn start_tcp(cfg: ServeConfig) -> (Server, String) {
    let mut cfg = cfg;
    cfg.tcp_addr = Some("127.0.0.1:0".to_string());
    let server = Server::start(cfg).expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    (server, addr)
}

#[test]
fn round_trips_every_default_profile_over_tcp() {
    let (server, addr) = start_tcp(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let dims = vec![256usize];
    let payload = f32_payload(256);
    for profile in ["raw", "lossless", "sz_abs_1e3", "zfp_default"] {
        let compressed = match client
            .compress(profile, DType::F32, &dims, &payload)
            .unwrap_or_else(|e| panic!("{profile}: compress failed: {e}"))
        {
            ServeOutcome::Ok(bytes) => bytes,
            ServeOutcome::Busy { .. } => panic!("{profile}: shed with an idle daemon"),
        };
        let restored = match client
            .decompress(profile, DType::F32, &dims, &compressed)
            .unwrap_or_else(|e| panic!("{profile}: decompress failed: {e}"))
        {
            ServeOutcome::Ok(bytes) => bytes,
            ServeOutcome::Busy { .. } => panic!("{profile}: shed with an idle daemon"),
        };
        assert_eq!(restored.len(), payload.len(), "{profile}: geometry survives");
        if profile == "raw" || profile == "lossless" {
            assert_eq!(restored, payload, "{profile}: lossless profiles are exact");
        } else {
            // Lossy profiles honor their bound; spot-check it loosely.
            for (a, b) in payload.chunks(4).zip(restored.chunks(4)) {
                let x = f32::from_le_bytes([a[0], a[1], a[2], a[3]]);
                let y = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                assert!((x - y).abs() < 1.0, "{profile}: error bound blown: {x} vs {y}");
            }
        }
    }

    let health = client.health().expect("health frame");
    assert!(health.contains("\"schema\":\"pressio-serve/health-v1\""));
    assert!(health.contains("\"profiles\""));

    let report = server.shutdown();
    assert!(report.drained_clean, "idle daemon drains clean: {report:?}");
    assert_eq!(report.stuck_inflight, 0);
    assert_eq!(
        report.watchdog.0, report.watchdog.1,
        "no leaked watchdog workers: {report:?}"
    );
}

#[test]
fn unknown_profile_and_malformed_frames_are_structured() {
    let (server, addr) = start_tcp(ServeConfig::default());

    // Unknown profile: a structured NotFound, connection stays usable.
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let err = client
        .compress("no_such_profile", DType::F32, &[4], &f32_payload(4))
        .expect_err("unknown profile is an error");
    assert_eq!(err.code(), libpressio::ErrorCode::NotFound);
    assert!(matches!(
        client.compress("raw", DType::F32, &[4], &f32_payload(4)),
        Ok(ServeOutcome::Ok(_))
    ));

    // Garbage bytes on a raw socket: the daemon answers a structured
    // CorruptStream error (id 0) and closes; it must not abort.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write garbage");
        raw.flush().ok();
        let mut buf = Vec::new();
        use std::io::Read;
        raw.set_read_timeout(Some(std::time::Duration::from_secs(5))).ok();
        let _ = raw.read_to_end(&mut buf);
        // 17-byte response header + body; kind RespError = 130 at offset 4.
        assert!(buf.len() >= 17, "a structured rejection came back: {buf:?}");
        assert_eq!(buf[4], 130, "rejection is a RespError frame");
    }

    // Daemon survived the garbage: fresh connections still work.
    let mut after = Client::connect_tcp(&addr).expect("connect after garbage");
    assert!(matches!(
        after.compress("raw", DType::F32, &[4], &f32_payload(4)),
        Ok(ServeOutcome::Ok(_))
    ));

    let report = server.shutdown();
    assert_eq!(report.stuck_inflight, 0);
}

/// The 51-byte guard frame that used to abort the process: every field
/// well-formed, a checksum anyone can compute, and a geometry echo claiming
/// its four payload bytes decode to half a terabyte of f32.
fn hostile_guard_frame(version: u16) -> Vec<u8> {
    use libpressio::core::{xxh64, ByteWriter, Fnv1a64};
    let (name, dim, payload) = ("noop", 1usize << 37, b"tiny");
    let mut frame = ByteWriter::new();
    frame.put_bytes(b"1DRG");
    frame.put_u16(version);
    frame.put_str(name);
    frame.put_dtype(DType::F32);
    frame.put_dims(&[dim]);
    frame.put_section(payload);
    let checksum = if version == 1 {
        let mut h = Fnv1a64::new();
        h.update(name.as_bytes());
        h.update(&[DType::F32.tag()]);
        h.update_u64(dim as u64);
        h.update_u64(payload.len() as u64);
        h.update(payload);
        h.finish()
    } else {
        xxh64(frame.as_slice())
    };
    frame.put_u64(checksum);
    assert_eq!(frame.len(), 51);
    frame.into_vec()
}

#[test]
fn hostile_guard_frame_is_refused_and_the_connection_serves_on() {
    // Every profile is a guard stack, so this frame reaches the guard on
    // any of them. The request declares a small output (well under the
    // cap); the frame inside disagrees — and must lose, as a structured
    // error, before anything is allocated for its claim.
    let (server, addr) = start_tcp(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for version in [1, 2] {
        for profile in ["raw", "sz_abs_1e3"] {
            let err = client
                .decompress(profile, DType::F32, &[4], &hostile_guard_frame(version))
                .expect_err("the hostile frame is refused");
            assert_eq!(err.code(), libpressio::ErrorCode::InvalidArgument, "v{version} {profile}: {err}");
            // Same connection, next request: answered.
            assert!(matches!(
                client.compress(profile, DType::F32, &[4], &f32_payload(4)),
                Ok(ServeOutcome::Ok(_))
            ));
        }
    }
    let report = server.shutdown();
    assert!(report.drained_clean, "{report:?}");
    assert_eq!(report.stuck_inflight, 0);
    assert_eq!(report.watchdog.0, report.watchdog.1, "{report:?}");
}

#[test]
fn overload_burst_sheds_structurally_and_drains_clean() {
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let (server, addr) = start_tcp(cfg);

    // 8 clients, each firing a burst of compress requests at a 1-worker,
    // 1-slot daemon: far past 2x capacity, so sheds are guaranteed.
    let busies = Arc::new(AtomicU64::new(0));
    let oks = Arc::new(AtomicU64::new(0));
    let dims = vec![64 * 1024usize];
    let payload = Arc::new(f32_payload(64 * 1024));
    let mut joins = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        let busies = Arc::clone(&busies);
        let oks = Arc::clone(&oks);
        let dims = dims.clone();
        let payload = Arc::clone(&payload);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("connect");
            for _ in 0..6 {
                match client.compress("lossless", DType::F32, &dims, &payload) {
                    Ok(ServeOutcome::Ok(_)) => {
                        oks.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(ServeOutcome::Busy { retry_after_ms, .. }) => {
                        busies.fetch_add(1, Ordering::Relaxed);
                        assert!(retry_after_ms >= 5, "retry hint is populated");
                        std::thread::sleep(std::time::Duration::from_millis(
                            retry_after_ms as u64,
                        ));
                    }
                    Err(e) => panic!("overload produced a non-Busy failure: {e}"),
                }
            }
        }));
    }
    for j in joins {
        j.join().expect("no client thread panicked");
    }

    let sheds = busies.load(Ordering::Relaxed);
    let served = oks.load(Ordering::Relaxed);
    assert!(sheds > 0, "a 1-slot daemon under 8x burst must shed");
    assert!(served > 0, "accepted requests still complete under overload");
    assert_eq!(served + sheds, 8 * 6, "every request is answered exactly once");

    let report = server.shutdown();
    assert!(report.drained_clean, "drain after burst: {report:?}");
    assert_eq!(report.stuck_inflight, 0);
    assert!(report.busy_responses >= sheds);
    assert_eq!(
        report.queue.accepted,
        report.queue.popped + report.queue.depth as u64,
        "admission conservation holds end-to-end"
    );
    assert_eq!(
        report.watchdog.0, report.watchdog.1,
        "no leaked watchdog workers: {report:?}"
    );
}

#[test]
fn remote_shutdown_is_refused_unless_opted_in() {
    // Default: a TCP peer cannot terminate the daemon with a Shutdown
    // frame — it gets a structured refusal and the connection stays
    // usable for data requests.
    let (server, addr) = start_tcp(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let err = client.shutdown().expect_err("remote shutdown must be refused");
    assert_eq!(err.code(), libpressio::ErrorCode::Unsupported);
    assert!(
        !server.shutdown_requested(),
        "a refused shutdown must not arm the drain"
    );
    assert!(matches!(
        client.compress("raw", DType::F32, &[4], &f32_payload(4)),
        Ok(ServeOutcome::Ok(_))
    ));
    let report = server.shutdown();
    assert_eq!(report.stuck_inflight, 0);

    // Opt-in: --allow-remote-shutdown restores the old behavior.
    let (server, addr) = start_tcp(ServeConfig {
        allow_remote_shutdown: true,
        ..ServeConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.shutdown().expect("opted-in remote shutdown is acked");
    assert!(server.shutdown_requested());
    let report = server.shutdown();
    assert_eq!(report.stuck_inflight, 0);
}

#[test]
fn half_written_frame_cannot_wedge_the_drain() {
    // A client that sends a partial header and then stalls used to pin
    // its reader thread forever, hanging shutdown's joins. Now the drain
    // force-closes stragglers after a bounded grace window.
    let (server, addr) = start_tcp(ServeConfig::default());
    use std::io::Write;
    let mut stalled = std::net::TcpStream::connect(&addr).expect("raw connect");
    stalled.write_all(&[0x31, 0x56, 0x53, 0x50, 1]).expect("partial header");
    stalled.flush().ok();
    // Give the daemon time to accept and start reading the torso.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let t0 = std::time::Instant::now();
    let report = server.shutdown();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(4),
        "drain must not wait out a stalled peer: took {:?}",
        t0.elapsed()
    );
    assert_eq!(report.stuck_inflight, 0);
    assert!(report.drained_clean, "nothing was in flight: {report:?}");
    drop(stalled);
}

#[test]
fn connection_cap_rejects_with_busy() {
    let (server, addr) = start_tcp(ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    });
    // First connection occupies the only slot.
    let mut first = Client::connect_tcp(&addr).expect("connect");
    assert!(matches!(
        first.compress("raw", DType::F32, &[4], &f32_payload(4)),
        Ok(ServeOutcome::Ok(_))
    ));
    // Second connection is answered with one Busy frame and closed at
    // accept — read it without writing anything (a write could race the
    // server-side close).
    {
        use std::io::Read;
        let mut second = std::net::TcpStream::connect(&addr).expect("tcp connect succeeds");
        second
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .ok();
        let mut buf = Vec::new();
        let _ = second.read_to_end(&mut buf);
        assert!(buf.len() >= 17, "a rejection frame came back: {buf:?}");
        assert_eq!(buf[4], 131, "rejection is a RespBusy frame, got kind {}", buf[4]);
    }
    // The occupied slot keeps working.
    assert!(matches!(
        first.compress("raw", DType::F32, &[4], &f32_payload(4)),
        Ok(ServeOutcome::Ok(_))
    ));
    // Freeing the slot lets a later connection in (after the accept-time
    // reap notices the finished threads).
    drop(first);
    let admitted = (0..50).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let Ok(mut c) = Client::connect_tcp(&addr) else {
            return false;
        };
        matches!(
            c.compress("raw", DType::F32, &[4], &f32_payload(4)),
            Ok(ServeOutcome::Ok(_))
        )
    });
    assert!(admitted, "a freed slot must be reusable");

    let report = server.shutdown();
    assert_eq!(report.stuck_inflight, 0);
    assert!(report.busy_responses > 0, "the rejection was counted");
}

#[test]
fn slow_reader_forfeits_responses_and_loses_the_connection() {
    // The documented contract: a client that stops draining its socket
    // past slow_writer_give_up_ms gets the connection poisoned and
    // closed — never an open connection silently missing a response.
    let (server, addr) = start_tcp(ServeConfig {
        workers: 2,
        write_buffer_frames: 1,
        slow_writer_give_up_ms: 100,
        ..ServeConfig::default()
    });
    use pressio_tools::serve::protocol::{encode_request, FrameKind};
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    // Pipeline several large requests and never read a byte: responses
    // stuff the kernel buffers and the bounded write buffer, the worker's
    // patience runs out, and the connection is condemned. Six requests are
    // what two workers and their queue admit; at 4 MiB apiece the responses
    // are several times what loopback socket buffers absorb (about 4 MiB
    // here — at 1 MiB apiece the kernel sometimes took all six and nobody
    // ever had to wait).
    const ELEMENTS: usize = 1 << 20;
    let payload = f32_payload(ELEMENTS);
    for id in 1..=6u64 {
        let frame = encode_request(FrameKind::Compress, id, "raw", DType::F32, &[ELEMENTS], &payload);
        if raw.write_all(&frame).is_err() {
            break; // already closed on us — that is the contract working
        }
    }
    raw.flush().ok();
    std::thread::sleep(std::time::Duration::from_millis(300));
    // The socket must reach EOF (close) rather than staying open forever:
    // read_to_end only returns Ok once the peer has actually closed.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).ok();
    let mut sink = Vec::new();
    raw.read_to_end(&mut sink)
        .expect("connection must be closed, not left open with a dropped response");

    let report = server.shutdown();
    assert_eq!(report.stuck_inflight, 0);
    assert_eq!(
        report.watchdog.0, report.watchdog.1,
        "no leaked watchdog workers: {report:?}"
    );
}

#[test]
fn unix_socket_round_trip_and_client_initiated_drain() {
    let dir = std::env::temp_dir().join(format!("pressio-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let sock = dir.join("serve.sock");
    let cfg = ServeConfig {
        unix_path: Some(sock.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("server starts");

    let mut client = Client::connect_unix(&sock).expect("connect unix");
    let payload = f32_payload(128);
    let compressed = match client
        .compress("lossless", DType::F32, &[128], &payload)
        .expect("compress over unix")
    {
        ServeOutcome::Ok(bytes) => bytes,
        ServeOutcome::Busy { .. } => panic!("idle daemon shed"),
    };
    match client
        .decompress("lossless", DType::F32, &[128], &compressed)
        .expect("decompress over unix")
    {
        ServeOutcome::Ok(restored) => assert_eq!(restored, payload),
        ServeOutcome::Busy { .. } => panic!("idle daemon shed"),
    }

    // A client-initiated drain: the Shutdown frame is acked, the server
    // notices, and a graceful shutdown cleans up the socket file.
    client.shutdown().expect("shutdown frame acked");
    assert!(server.shutdown_requested());
    let report = server.shutdown();
    assert!(report.drained_clean, "{report:?}");
    assert!(!sock.exists(), "socket file removed on drain");
    std::fs::remove_dir_all(&dir).ok();
}
