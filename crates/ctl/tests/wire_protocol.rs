//! The control socket faces whatever bytes a client throws at it. This
//! suite pins the protocol layer from both sides: every verb round-trips
//! bit-exactly through the framing, and every malformed input — truncated
//! length prefix, oversized frame, garbage bytes, a connection dropped
//! mid-frame — is a typed error on the client side and a survivable
//! non-event for a live daemon (it answers the next well-formed request;
//! it never panics).

use pegasus_core::engine::{LatencyHistogram, ShardStats};
use pegasus_core::{
    EngineStats, FlowTableCounters, StreamReport, SwapCounters, TenantStats, TenantToken,
};
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

/// Holds a value's encoding against a golden literal captured from the
/// pre-`impl_serde_enum!` encoders (spaces mark field boundaries): a round
/// trip cannot see a swapped tag or field order, the bytes can.
fn assert_wire(bytes: &[u8], expected: &str) {
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, expected.replace(' ', ""));
}

fn roundtrip_request(req: &Request, expected: &str) {
    let bytes = serde::to_bytes(req);
    assert_wire(&bytes, expected);
    let back: Request = serde::from_bytes(&bytes).expect("request decodes");
    assert_eq!(&back, req);
    // And the re-encoding is bit-identical (canonical form).
    assert_eq!(serde::to_bytes(&back), bytes);
}

#[test]
fn every_request_verb_round_trips() {
    let requests = [
        (Request::Ping, "00"),
        (
            Request::Load { name: "mlp".into(), artifact: vec![0xDE, 0xAD, 0xBE, 0xEF] },
            "01 03000000 6d6c70 04000000 deadbeef",
        ),
        (
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
            "02 02000000 7430 03000000 6d6c70 \
             07 02000000 02 b801 c201 09 06 11 \
             01 01 0010000000000000 01 1027000000000000",
        ),
        (
            Request::Swap { tenant: "t0".into(), artifact: "mlp-v2".into() },
            "03 02000000 7430 06000000 6d6c702d7632",
        ),
        (Request::Detach { tenant: "t0".into() }, "04 02000000 7430"),
        (Request::List, "05"),
        (Request::Stats, "06"),
        (
            Request::IngestPcap { path: "/tmp/golden.pcap".into() },
            "07 10000000 2f746d702f676f6c64656e2e70636170",
        ),
        (Request::Shutdown, "08"),
    ];
    for (req, expected) in &requests {
        roundtrip_request(req, expected);
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
    assert_wire(
        &serde::to_bytes(&loaded),
        "02 03000000 6d6c70 03000000 05000000 6d6c705f62 09000000 73746174656c657373 \
         40e2010000000000",
    );
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
    assert_wire(&serde::to_bytes(&err), "01 01 14000000 6e6f2074656e616e74206e616d65642027743927");
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
    assert_wire(
        &serde::to_bytes(&swapped),
        "04 03000000 76706e 0400000000000000 01 5700000000000000",
    );
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
    assert_wire(
        &serde::to_bytes(&listing),
        "06 00000000 01000000 02000000 7430 03000000 6d6c70 01 03 0200000000000000 \
         03000000 00000000 00000000 00 00000000",
    );
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
    assert_wire(
        &serde::to_bytes(&detached),
        "05 04000000 02000000 7430 0200000000000000 5201000000000000 00 \
         01 13000000 666c6f77207374617465206f766572666c6f77",
    );
    match serde::from_bytes::<Response>(&serde::to_bytes(&detached)).expect("decodes") {
        Response::Detached(r) => {
            assert_eq!((r.token, r.epoch, r.routed_packets), (4, 2, 338));
            assert_eq!(r.error.as_deref(), Some("flow state overflow"));
        }
        other => panic!("expected Detached, got {other:?}"),
    }

    // A served tenant's report: one shard whose counters are the merged
    // ones, a two-sample latency histogram (700 ns in bucket 9, 1 500 ns in
    // bucket 10), no recorded predictions.
    let mut latency = LatencyHistogram::default();
    latency.record(700);
    latency.record(1500);
    let table = FlowTableCounters {
        occupancy: 1,
        capacity: 4096,
        evictions_idle: 0,
        evictions_capacity: 0,
        alias_collisions: 0,
        state_bytes: 884_736,
    };
    let swap = SwapCounters { applied_epoch: 2, swaps_applied: 2, last_apply_nanos: 900 };
    let shard = ShardStats {
        shard: 0,
        packets: 3,
        classified: 2,
        warmup: 1,
        flows: 1,
        busy_nanos: 2200,
        latency: latency.clone(),
        table,
        swap: swap.clone(),
    };
    let served = Response::Detached(Box::new(WireTenantReport {
        token: 4,
        name: "t0".into(),
        epoch: 2,
        routed_packets: 3,
        report: Some(StreamReport {
            shards: vec![shard],
            packets: 3,
            classified: 2,
            warmup: 1,
            flows: 1,
            elapsed_nanos: 5000,
            latency,
            table,
            swap,
            predictions: None,
        }),
        error: None,
    }));
    let hist = format!(
        "{} 0100000000000000 0100000000000000 {} \
         0200000000000000 9808000000000000 dc05000000000000",
        "00".repeat(9 * 8),
        "00".repeat(53 * 8),
    );
    let table = "0100000000000000 0010000000000000 0000000000000000 0000000000000000 \
                 0000000000000000 00800d0000000000";
    let swap = "0200000000000000 0200000000000000 8403000000000000";
    let counters = "0300000000000000 0200000000000000 0100000000000000 0100000000000000";
    let bytes = serde::to_bytes(&served);
    assert_wire(
        &bytes,
        &format!(
            "05 04000000 02000000 7430 0200000000000000 0300000000000000 01 \
             01000000 0000000000000000 {counters} 9808000000000000 {hist} {table} {swap} \
             {counters} 8813000000000000 {hist} {table} {swap} 00 \
             00"
        ),
    );
    let back: Response = serde::from_bytes(&bytes).expect("decodes");
    assert_eq!(serde::to_bytes(&back), bytes);
    match back {
        Response::Detached(r) => {
            let report = r.report.expect("served tenant carries its report");
            assert_eq!((report.packets, report.classified, report.elapsed_nanos), (3, 2, 5000));
            assert_eq!(report.shards[0].busy_nanos, 2200);
            assert_eq!((report.latency.count(), report.latency.max_nanos()), (2, 1500));
            assert_eq!(report.table, report.shards[0].table);
            assert_eq!(report.swap.last_apply_nanos, 900);
            assert!(report.predictions.is_none() && r.error.is_none());
        }
        other => panic!("expected Detached, got {other:?}"),
    }

    // The variants with nothing to inspect but their bytes. `Stats` is an
    // empty snapshot: no tenants, `unrouted`, then 4 + 9 + 4 zero counters.
    let stats = EngineStats {
        tenants: vec![],
        unrouted: 1,
        parse_errors: Default::default(),
        routing: Default::default(),
        artifacts: Default::default(),
    };
    for (response, expected) in [
        (Response::Pong, "00".to_string()),
        (
            Response::Attached { tenant: "t0".into(), token: 5, epoch: 6 },
            "03 02000000 7430 05000000 0600000000000000".to_string(),
        ),
        (Response::Stats(stats), format!("07 00000000 0100000000000000 {}", "00".repeat(17 * 8))),
        (Response::Ingested { frames: 7 }, "08 0700000000000000".to_string()),
        (Response::ShuttingDown, "09".to_string()),
    ] {
        let bytes = serde::to_bytes(&response);
        assert_wire(&bytes, &expected);
        let back: Response = serde::from_bytes(&bytes).expect("decodes");
        assert_eq!(serde::to_bytes(&back), bytes, "{response:?}");
    }

    // The enums inside replies: every tag, in the order the wire has them.
    let kinds = [
        ErrorKind::BadRequest,
        ErrorKind::UnknownTenant,
        ErrorKind::UnknownArtifact,
        ErrorKind::DuplicateTenant,
        ErrorKind::ArtifactFormat,
        ErrorKind::Verify,
        ErrorKind::StateBudget,
        ErrorKind::NotAClassifier,
        ErrorKind::Degraded,
        ErrorKind::Engine,
        ErrorKind::Io,
    ];
    for (tag, kind) in kinds.into_iter().enumerate() {
        assert_eq!(serde::to_bytes(&kind), [tag as u8]);
        assert_eq!(serde::from_bytes::<ErrorKind>(&[tag as u8]), Ok(kind));
    }
    assert_eq!(
        serde::from_bytes::<ErrorKind>(&[11]),
        Err(serde::DecodeError::BadTag { what: "ErrorKind", tag: 11 })
    );
    for (state, expected) in [
        (TenantState::Serving { token: 3, epoch: 4 }, "00 03000000 0400000000000000"),
        (
            TenantState::Degraded {
                reason: DegradedReason::MissingArtifact { artifact: "a".into() },
            },
            "01 00 01000000 61",
        ),
        (
            TenantState::Degraded { reason: DegradedReason::Io { message: "b".into() } },
            "01 01 01000000 62",
        ),
        (
            TenantState::Degraded { reason: DegradedReason::Format { message: "c".into() } },
            "01 02 01000000 63",
        ),
        (
            TenantState::Degraded { reason: DegradedReason::Verify { errors: 2 } },
            "01 03 0200000000000000",
        ),
        (
            TenantState::Degraded { reason: DegradedReason::Attach { message: "d".into() } },
            "01 04 01000000 64",
        ),
    ] {
        assert_wire(&serde::to_bytes(&state), expected);
        assert_eq!(serde::from_bytes::<TenantState>(&serde::to_bytes(&state)), Ok(state));
    }

    // A one-tenant snapshot: every `TenantStats` field in wire order —
    // token, name, epoch, routed packets, the failed flag, then the merged
    // report (no shards; the histogram's 64 buckets, count, sum and max,
    // then the 6 table and 3 swap counters, all zero; no predictions) —
    // and the engine-wide counters after it.
    let tenant = TenantStats {
        token: serde::from_bytes(&[5, 0, 0, 0]).expect("decodes"),
        name: "t0".into(),
        epoch: 2,
        routed_packets: 9,
        failed: true,
        report: StreamReport {
            shards: vec![],
            packets: 3,
            classified: 2,
            warmup: 1,
            flows: 1,
            elapsed_nanos: 5000,
            latency: LatencyHistogram::default(),
            table: FlowTableCounters::default(),
            swap: SwapCounters::default(),
            predictions: None,
        },
    };
    let stats = Response::Stats(EngineStats {
        tenants: vec![tenant],
        unrouted: 1,
        parse_errors: Default::default(),
        routing: Default::default(),
        artifacts: Default::default(),
    });
    let bytes = serde::to_bytes(&stats);
    assert_wire(
        &bytes,
        &format!(
            "07 01000000 05000000 02000000 7430 0200000000000000 0900000000000000 01 \
             00000000 {counters} 8813000000000000 {} 00 0100000000000000 {}",
            "00".repeat((67 + 6 + 3) * 8),
            "00".repeat(17 * 8),
        ),
    );
    match serde::from_bytes::<Response>(&bytes).expect("decodes") {
        Response::Stats(s) => {
            let t = &s.tenants[0];
            assert_eq!((t.token.id(), t.name.as_str(), t.epoch, t.routed_packets), (5, "t0", 2, 9));
            assert!(t.failed && t.report.predictions.is_none());
            assert_eq!((t.report.packets, t.report.elapsed_nanos), (3, 5000));
            assert_eq!(s.unrouted, 1);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // A tenant token travels as its bare id.
    let token: TenantToken = serde::from_bytes(&[7, 0, 0, 0]).expect("decodes");
    assert_eq!((token.id(), serde::to_bytes(&token)), (7, vec![7, 0, 0, 0]));
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

/// One hand-built file of each payload kind, byte for byte: header, switch
/// model, payload tag, `StreamFeatures` tag, program, pipeline fields.
#[test]
fn artifact_file_bytes_are_pinned() {
    use pegasus_core::compile::{CompileReport, CompiledPipeline};
    use pegasus_core::flowpipe::FlowPipeline;
    use pegasus_core::numformat::NumFormat;
    use pegasus_core::StreamFeatures;
    use pegasus_ctl::artifact::ArtifactPayload;
    use pegasus_switch::{FieldId, PhvLayout, RegisterArray, SwitchConfig, SwitchProgram};

    let switch = SwitchConfig {
        name: "s".into(),
        stages: 1,
        sram_bits_per_stage: 2,
        tcam_bits_per_stage: 3,
        action_bus_bits_per_stage: 4,
        phv_bits: 5,
        register_bits_total: 6,
        register_widths: vec![7],
        line_rate_bps: 1.0,
        pipeline_latency_ns: 2.0,
    };
    let mut layout = PhvLayout::new();
    layout.add_signed_field("f", 8);
    let mut program = SwitchProgram::new("p", layout);
    program.registers.push(RegisterArray { name: "r".into(), width_bits: 16, size: 9 });
    program.extra_stages = 10;
    program.stateful_bits_per_flow = 11;
    program.keep_alive = vec![FieldId(12)];
    let program = std::sync::Arc::new(program);
    let report = CompileReport {
        tables: 13,
        fuzzy_tables: 14,
        exact_tables: 15,
        entries: 16,
        lookups_per_input: 17,
    };
    let score_format = NumFormat { step: 0.5, bias: -18, bits: 19 };

    let header_and_switch = "50454741 02000000 \
         01000000 73 0100000000000000 0200000000000000 0300000000000000 0400000000000000 \
         0500000000000000 0600000000000000 01000000 07 000000000000f03f 0000000000000040";
    // name, one field (name, bits, signed), one register declaration (name,
    // width, size), no tables, extra stages, stateful bits, keep-alive.
    let program_bytes = "01000000 70 01000000 01000000 66 08 01 01000000 01000000 72 10 \
         0900000000000000 00000000 0a00000000000000 0b00000000000000 \
         01000000 0c00000000000000";
    let format_bytes = "0000003f eeffffffffffffff 13";
    let report_bytes = "0d00000000000000 0e00000000000000 0f00000000000000 \
         1000000000000000 1100000000000000";

    let stateless = ArtifactFile {
        switch: switch.clone(),
        payload: ArtifactPayload::Stateless {
            features: StreamFeatures::Seq,
            pipeline: CompiledPipeline {
                program: program.clone(),
                input_fields: vec![FieldId(20)],
                score_fields: vec![FieldId(21)],
                score_format,
                predicted_field: Some(FieldId(22)),
                report,
            },
        },
    };
    assert_wire(
        &stateless.to_bytes(),
        &format!(
            "{header_and_switch} 00 01 {program_bytes} 01000000 1400000000000000 \
             01000000 1500000000000000 {format_bytes} 01 1600000000000000 {report_bytes}"
        ),
    );
    assert_eq!(serde::to_bytes(&StreamFeatures::Stat), [0]);

    let flow = ArtifactFile {
        switch,
        payload: ArtifactPayload::Flow {
            pipeline: FlowPipeline {
                program,
                len_field: FieldId(20),
                ts_field: FieldId(21),
                hash_field: FieldId(22),
                extractor_fields: vec![FieldId(23)],
                predicted_field: None,
                score_fields: vec![FieldId(24)],
                score_format,
                valid_field: FieldId(25),
                stateful_bits_per_flow: 26,
                report,
            },
        },
    };
    assert_wire(
        &flow.to_bytes(),
        &format!(
            "{header_and_switch} 01 {program_bytes} 1400000000000000 1500000000000000 \
             1600000000000000 01000000 1700000000000000 00 01000000 1800000000000000 \
             {format_bytes} 1900000000000000 1a00000000000000 {report_bytes}"
        ),
    );

    for file in [stateless, flow] {
        let back = ArtifactFile::from_bytes(&file.to_bytes()).expect("decodes");
        assert_eq!(back.to_bytes(), file.to_bytes());
    }
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

    // 5. A well-formed `attach` whose route is 10 000 `Not`s deep — 10 KB,
    //    far under the frame cap. Decoding it used to overflow the stack
    //    and abort the whole daemon; now it is a typed bad-request and the
    //    same connection keeps answering.
    let mut deep = serde::to_bytes(&Request::Attach {
        tenant: "t".into(),
        artifact: "a".into(),
        config: WireTenantConfig::default(),
    });
    let route_at = 1 + (4 + 1) + (4 + 1); // verb tag, "t", "a"
    assert_eq!(deep[route_at], 0, "the default route is `Any`");
    deep.splice(route_at..route_at, [9u8; 10_000]);
    write_frame(&mut fresh, &deep).expect("send deep attach");
    let body = read_frame(&mut fresh).expect("reply").expect("present");
    match serde::from_bytes::<Response>(&body).expect("decodes") {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::BadRequest);
            assert!(e.message.contains("deep"), "{}", e.message);
        }
        other => panic!("expected BadRequest error, got {other:?}"),
    }
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
