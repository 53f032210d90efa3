//! The control socket faces whatever bytes a client throws at it. This
//! suite pins the protocol layer from both sides: every verb round-trips
//! bit-exactly through the framing, and every malformed input — truncated
//! length prefix, oversized frame, garbage bytes, a connection dropped
//! mid-frame — is a typed error on the client side and a survivable
//! non-event for a live daemon (it answers the next well-formed request;
//! it never panics).

use pegasus_ctl::artifact::{ArtifactError, ArtifactFile, ARTIFACT_FORMAT_VERSION, ARTIFACT_MAGIC};
use pegasus_ctl::daemon::{Daemon, DaemonConfig};
use pegasus_ctl::protocol::{
    read_frame, write_frame, ArtifactInfo, DegradedReason, ErrorKind, ErrorReply, FrameError,
    ListReply, Request, Response, TenantInfo, TenantState, WireTenantConfig, WireTenantReport,
    MAX_FRAME_BYTES,
};
use pegasus_net::{RoutePredicate, RouteSummary};
use std::io::Cursor;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Framing: clean paths.
// ---------------------------------------------------------------------------

#[test]
fn frames_round_trip() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello").expect("write");
    write_frame(&mut wire, b"").expect("write empty");
    write_frame(&mut wire, &[0xAB; 1000]).expect("write big");

    let mut cursor = Cursor::new(wire);
    assert_eq!(read_frame(&mut cursor).expect("frame 1"), Some(b"hello".to_vec()));
    assert_eq!(read_frame(&mut cursor).expect("frame 2"), Some(Vec::new()));
    assert_eq!(read_frame(&mut cursor).expect("frame 3"), Some(vec![0xAB; 1000]));
    // Clean EOF between frames is a normal hangup, not an error.
    assert_eq!(read_frame(&mut cursor).expect("eof"), None);
}

// ---------------------------------------------------------------------------
// Framing: every hostile shape is a typed error.
// ---------------------------------------------------------------------------

#[test]
fn truncated_length_prefix_is_typed() {
    for keep in 1..4usize {
        let mut cursor = Cursor::new(vec![0x05; keep]);
        match read_frame(&mut cursor) {
            Err(FrameError::TruncatedPrefix { got }) => assert_eq!(got, keep),
            other => panic!("{keep}-byte prefix: expected TruncatedPrefix, got {other:?}"),
        }
    }
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    // A hostile length prefix claiming ~4 GiB must be refused outright.
    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    wire.extend_from_slice(b"whatever");
    match read_frame(&mut Cursor::new(wire)) {
        Err(FrameError::Oversized { len }) => assert_eq!(len, u32::MAX as usize),
        other => panic!("expected Oversized, got {other:?}"),
    }
    // One past the cap: rejected. At the cap with no body: truncation.
    let over = (MAX_FRAME_BYTES + 1) as u32;
    let mut wire = over.to_le_bytes().to_vec();
    wire.push(0);
    assert!(matches!(
        read_frame(&mut Cursor::new(wire)),
        Err(FrameError::Oversized { len }) if len == MAX_FRAME_BYTES + 1
    ));
}

#[test]
fn connection_dropped_mid_body_is_typed() {
    let mut wire = Vec::new();
    write_frame(&mut wire, &[7u8; 100]).expect("write");
    wire.truncate(4 + 60); // peer died 60 bytes into a 100-byte body
    match read_frame(&mut Cursor::new(wire)) {
        Err(FrameError::TruncatedBody { needed: 100, got: 60 }) => {}
        other => panic!("expected TruncatedBody, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Every verb and reply round-trips bit-exactly.
// ---------------------------------------------------------------------------

fn roundtrip_request(req: &Request) {
    let bytes = serde::to_bytes(req);
    let back: Request = serde::from_bytes(&bytes).expect("request decodes");
    assert_eq!(&back, req);
    // And the re-encoding is bit-identical (canonical form).
    assert_eq!(serde::to_bytes(&back), bytes);
}

#[test]
fn every_request_verb_round_trips() {
    let requests = [
        Request::Ping,
        Request::Load { name: "mlp".into(), artifact: vec![0xDE, 0xAD, 0xBE, 0xEF] },
        Request::Attach {
            tenant: "t0".into(),
            artifact: "mlp".into(),
            config: WireTenantConfig {
                route: RoutePredicate::AllOf(vec![
                    RoutePredicate::DstPortRange { lo: 440, hi: 450 },
                    RoutePredicate::Not(Box::new(RoutePredicate::Protocol(17))),
                ]),
                record_predictions: true,
                flow_capacity: Some(4096),
                idle_timeout_packets: Some(10_000),
            },
        },
        Request::Swap { tenant: "t0".into(), artifact: "mlp-v2".into() },
        Request::Detach { tenant: "t0".into() },
        Request::List,
        Request::Stats,
        Request::IngestPcap { path: "/tmp/golden.pcap".into() },
        Request::Shutdown,
    ];
    for req in &requests {
        roundtrip_request(req);
    }
}

#[test]
fn responses_round_trip() {
    // Response carries live stats types without PartialEq; pin the
    // interesting variants field-by-field through a re-decode.
    let loaded = Response::Loaded(ArtifactInfo {
        name: "mlp".into(),
        version: 3,
        net: "mlp_b".into(),
        kind: "stateless".into(),
        bytes: 123_456,
    });
    match serde::from_bytes::<Response>(&serde::to_bytes(&loaded)).expect("decodes") {
        Response::Loaded(a) => {
            assert_eq!((a.name.as_str(), a.version, a.bytes), ("mlp", 3, 123_456));
        }
        other => panic!("expected Loaded, got {other:?}"),
    }

    let err = Response::Error(ErrorReply {
        kind: ErrorKind::UnknownTenant,
        message: "no tenant named 't9'".into(),
    });
    match serde::from_bytes::<Response>(&serde::to_bytes(&err)).expect("decodes") {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::UnknownTenant);
            assert_eq!(e.message, "no tenant named 't9'");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    let swapped = Response::Swapped {
        tenant: "vpn".into(),
        epoch: 4,
        state_retained: true,
        apply_micros: 87,
    };
    match serde::from_bytes::<Response>(&serde::to_bytes(&swapped)).expect("decodes") {
        Response::Swapped { tenant, epoch, state_retained, apply_micros } => {
            assert_eq!(
                (tenant.as_str(), epoch, state_retained, apply_micros),
                ("vpn", 4, true, 87)
            );
        }
        other => panic!("expected Swapped, got {other:?}"),
    }

    let listing = Response::Listing(ListReply {
        artifacts: vec![],
        tenants: vec![TenantInfo {
            name: "t0".into(),
            artifact: "mlp".into(),
            state: TenantState::Degraded { reason: DegradedReason::Verify { errors: 2 } },
            route: RouteSummary::of(&RoutePredicate::AnyOf(vec![
                RoutePredicate::DstPort(443),
                RoutePredicate::DstPortRange { lo: 8080, hi: 8081 },
            ])),
        }],
    });
    match serde::from_bytes::<Response>(&serde::to_bytes(&listing)).expect("decodes") {
        Response::Listing(l) => {
            match &l.tenants[0].state {
                TenantState::Degraded { reason: DegradedReason::Verify { errors: 2 } } => {}
                other => panic!("expected degraded/verify state, got {other:?}"),
            }
            assert_eq!(l.tenants[0].route.lut_ports, 3, "compiled route summary survives the wire");
        }
        other => panic!("expected Listing, got {other:?}"),
    }

    let detached = Response::Detached(Box::new(WireTenantReport {
        token: 4,
        name: "t0".into(),
        epoch: 2,
        routed_packets: 338,
        report: None,
        error: Some("flow state overflow".into()),
    }));
    match serde::from_bytes::<Response>(&serde::to_bytes(&detached)).expect("decodes") {
        Response::Detached(r) => {
            assert_eq!((r.token, r.epoch, r.routed_packets), (4, 2, 338));
            assert_eq!(r.error.as_deref(), Some("flow state overflow"));
        }
        other => panic!("expected Detached, got {other:?}"),
    }
}

#[test]
fn garbage_bytes_never_decode_to_a_request() {
    // A deterministic xorshift sweep: none of these blobs may panic the
    // decoder; they either decode (possible for tiny valid prefixes) or
    // fail with a typed error.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for len in 0..200usize {
        let mut blob = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            blob.push(state as u8);
        }
        let _ = serde::from_bytes::<Request>(&blob);
        let _ = serde::from_bytes::<Response>(&blob);
    }
    // A frame with a bad verb tag is a BadTag, specifically.
    match serde::from_bytes::<Request>(&[0xFF]) {
        Err(serde::DecodeError::BadTag { what: "Request", tag: 0xFF }) => {}
        other => panic!("expected BadTag, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Artifact file header (the `PEGA` magic + format version).
// ---------------------------------------------------------------------------

#[test]
fn artifact_header_mismatches_are_typed() {
    match ArtifactFile::from_bytes(b"PEG") {
        Err(ArtifactError::Truncated { len: 3 }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    match ArtifactFile::from_bytes(b"NOPE\x01\x00\x00\x00rest") {
        Err(ArtifactError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    let mut future = Vec::new();
    future.extend_from_slice(&ARTIFACT_MAGIC);
    future.extend_from_slice(&(ARTIFACT_FORMAT_VERSION + 1).to_le_bytes());
    match ArtifactFile::from_bytes(&future) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, ARTIFACT_FORMAT_VERSION + 1);
            assert_eq!(supported, ARTIFACT_FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // A format-1 file (register cells on disk) is refused by its header,
    // never decoded as if it were program-only.
    let v1 = [&ARTIFACT_MAGIC[..], &1u32.to_le_bytes()].concat();
    assert_eq!(
        ArtifactFile::from_bytes(&v1).unwrap_err(),
        ArtifactError::UnsupportedVersion { found: 1, supported: 2 }
    );
    // Right header, garbage body: the serde layer's typed rejection.
    let mut garbage = Vec::new();
    garbage.extend_from_slice(&ARTIFACT_MAGIC);
    garbage.extend_from_slice(&ARTIFACT_FORMAT_VERSION.to_le_bytes());
    garbage.extend_from_slice(&[0xFF; 32]);
    assert!(matches!(ArtifactFile::from_bytes(&garbage), Err(ArtifactError::Decode(_))));
}

/// A program-only file declares its registers instead of shipping them,
/// and supplies the `SwitchConfig` budget they are checked against — so a
/// tiny file could ask for a terabyte-scale register file. The declaration
/// is refused at decode, long before `deploy` could size a `RegFile`.
#[test]
fn hostile_register_declaration_is_a_typed_decode_error() {
    use pegasus_core::compile::{CompileReport, CompiledPipeline};
    use pegasus_core::numformat::NumFormat;
    use pegasus_ctl::artifact::ArtifactPayload;
    use pegasus_switch::{PhvLayout, RegisterArray, SwitchConfig, SwitchProgram};

    let mut program = SwitchProgram::new("", PhvLayout::new());
    program.registers.push(RegisterArray { name: String::new(), width_bits: 32, size: 1 << 40 });
    let switch = SwitchConfig {
        name: String::new(),
        register_bits_total: u64::MAX,
        ..SwitchConfig::tofino2()
    };
    let pipeline = CompiledPipeline {
        program: program.into(),
        input_fields: vec![],
        score_fields: vec![],
        score_format: NumFormat::code8(),
        predicted_field: None,
        report: CompileReport::default(),
    };
    let payload =
        ArtifactPayload::Stateless { features: pegasus_core::StreamFeatures::Stat, pipeline };
    let bytes = ArtifactFile { switch, payload }.to_bytes();
    assert!(bytes.len() < 200, "{} bytes declare 2^40 32-bit slots", bytes.len());
    assert_eq!(
        ArtifactFile::from_bytes(&bytes).unwrap_err(),
        ArtifactError::Decode(serde::DecodeError::OutOfRange {
            what: "declared register bits",
            value: 32 << 40
        })
    );
}

// ---------------------------------------------------------------------------
// A live daemon survives all of it.
// ---------------------------------------------------------------------------

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pegasus-wire-{tag}-{}", std::process::id()))
}

fn call(stream: &mut UnixStream, req: &Request) -> Response {
    write_frame(stream, &serde::to_bytes(req)).expect("send");
    let body = read_frame(stream).expect("reply frame").expect("reply present");
    serde::from_bytes(&body).expect("reply decodes")
}

#[test]
fn daemon_survives_hostile_connections() {
    let state_dir = temp_path("state");
    let socket = temp_path("sock");
    let _ = std::fs::remove_dir_all(&state_dir);
    let _ = std::fs::remove_file(&socket);

    let config =
        DaemonConfig { state_dir: state_dir.clone(), socket: socket.clone(), shards: 1, batch: 16 };
    let (daemon, recovery) = Daemon::start(&config).expect("daemon starts");
    assert!(recovery.serving.is_empty() && recovery.degraded.is_empty());
    let worker = std::thread::spawn(move || daemon.run());

    // Wait for the socket to come up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("daemon never bound {}: {e}", socket.display()),
        }
    };
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // 1. Garbage bytes inside a well-formed frame: typed bad-request
    //    reply, connection stays usable.
    write_frame(&mut stream, &[0xFF, 0x00, 0xAA, 0x55]).expect("send garbage");
    let body = read_frame(&mut stream).expect("reply").expect("present");
    match serde::from_bytes::<Response>(&body).expect("decodes") {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::BadRequest),
        other => panic!("expected BadRequest error, got {other:?}"),
    }
    assert!(matches!(call(&mut stream, &Request::Ping), Response::Pong));

    // 2. Oversized length prefix: the daemon answers with a typed error
    //    and drops the connection (framing sync is unrecoverable).
    let huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
    stream.write_all(&huge).expect("send hostile prefix");
    stream.flush().expect("flush");
    let body = read_frame(&mut stream).expect("reply").expect("present");
    match serde::from_bytes::<Response>(&body).expect("decodes") {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::BadRequest),
        other => panic!("expected BadRequest error, got {other:?}"),
    }

    // 3. Mid-frame connection drop: promise 100 bytes, send 10, hang up.
    {
        let mut dropper = UnixStream::connect(&socket).expect("connect");
        dropper.write_all(&100u32.to_le_bytes()).expect("prefix");
        dropper.write_all(&[0u8; 10]).expect("partial body");
        // dropper falls out of scope: connection dies mid-frame.
    }

    // 4. Truncated prefix then drop.
    {
        let mut dropper = UnixStream::connect(&socket).expect("connect");
        dropper.write_all(&[0x01, 0x02]).expect("half a prefix");
    }

    // After all of that the daemon still serves a fresh connection.
    let mut fresh = UnixStream::connect(&socket).expect("daemon still accepting");
    fresh.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    assert!(matches!(call(&mut fresh, &Request::Ping), Response::Pong));
    match call(&mut fresh, &Request::List) {
        Response::Listing(l) => {
            assert!(l.artifacts.is_empty());
            assert!(l.tenants.is_empty());
        }
        other => panic!("expected Listing, got {other:?}"),
    }
    assert!(matches!(call(&mut fresh, &Request::Shutdown), Response::ShuttingDown));

    worker.join().expect("daemon thread").expect("clean daemon exit");
    let _ = std::fs::remove_dir_all(&state_dir);
}
