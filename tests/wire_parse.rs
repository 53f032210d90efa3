//! The wire parser's safety contract: `parse_frame` never panics and every
//! rejection is a typed `ParseError`.
//!
//! Three layers of assault:
//!
//! 1. a seeded corpus of *valid* frames (IPv4/IPv6 × TCP/UDP × VLAN ×
//!    payload sizes) that must parse and round-trip their flow identity;
//! 2. deterministic fuzz: every prefix truncation, seeded byte flips and
//!    pure garbage over the corpus — the parser must return `Ok` or a
//!    typed error, never panic (a panic aborts the test process);
//! 3. a table of hand-built malformations, each pinned to its *exact*
//!    `ParseError` variant, and the engine-level proof that rejected
//!    frames land in the dispatcher's parse-error buckets instead of
//!    reaching any tenant.

use pegasus::core::compile::CompileOptions;
use pegasus::core::models::mlp_b::MlpB;
use pegasus::core::models::{ModelData, TrainSettings};
use pegasus::core::{
    Deployment, EngineBuilder, FramePush, ParseErrorCounters, Pegasus, TenantConfig,
};
use pegasus::datasets::{extract_views, generate_trace, peerrush, GenConfig};
use pegasus::net::packet::{ParseError, PROTO_TCP};
use pegasus::net::wire::{
    build_frame, parse_frame, FrameSpec, IpAddrs, ETHERTYPE_QINQ, ETHERTYPE_VLAN,
};
use pegasus::net::RawFrame;
use pegasus::switch::SwitchConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded corpus of structurally valid frames covering the parse graph.
fn corpus(seed: u64, count: usize) -> Vec<(FrameSpec, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let payload_len = rng.gen_range(0usize..120);
        let payload: Vec<u8> = (0..payload_len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        let (sp, dp) = (rng.gen_range(1u16..u16::MAX), rng.gen_range(1u16..u16::MAX));
        let tcp = i % 2 == 0;
        let mut spec = if i % 3 == 0 {
            let mut src = [0u8; 16];
            let mut dst = [0u8; 16];
            for b in src.iter_mut().chain(dst.iter_mut()) {
                *b = rng.gen_range(0u64..256) as u8;
            }
            if tcp {
                FrameSpec::v6_tcp(src, dst, sp, dp, payload)
            } else {
                FrameSpec::v6_udp(src, dst, sp, dp, payload)
            }
        } else {
            let (src, dst) = (rng.gen_range(1u32..u32::MAX), rng.gen_range(1u32..u32::MAX));
            if tcp {
                FrameSpec::v4_tcp(src, dst, sp, dp, payload)
            } else {
                FrameSpec::v4_udp(src, dst, sp, dp, payload)
            }
        };
        if i % 5 == 0 {
            spec = spec.with_vlan(rng.gen_range(1u16..4095));
        }
        spec.ttl = rng.gen_range(1u64..256) as u8;
        if tcp {
            spec.tcp_flags = rng.gen_range(0u64..256) as u8;
        }
        let frame = build_frame(&spec);
        out.push((spec, frame));
    }
    out
}

#[test]
fn valid_corpus_parses_and_round_trips() {
    for (spec, frame) in corpus(0xc0ffee, 200) {
        let p = parse_frame(&frame)
            .unwrap_or_else(|e| panic!("valid frame rejected: {e} (spec {spec:?})"));
        assert_eq!(p.flow.src_port, spec.src_port);
        assert_eq!(p.flow.dst_port, spec.dst_port);
        assert_eq!(p.flow.protocol, spec.protocol);
        assert_eq!(p.ttl, spec.ttl);
        assert_eq!(p.vlan, spec.vlan.map(|v| v & 0x0fff));
        assert_eq!(p.payload, &spec.payload[..], "payload must be the exact sub-slice");
        if spec.protocol == PROTO_TCP {
            assert_eq!(p.tcp_flags, spec.tcp_flags);
        }
        match (&spec.ip, &p.ip) {
            (IpAddrs::V4 { src, dst }, IpAddrs::V4 { src: ps, dst: pd }) => {
                assert_eq!((src, dst), (ps, pd));
                assert_eq!(p.flow.src_ip, *src);
            }
            (IpAddrs::V6 { src, dst }, IpAddrs::V6 { src: ps, dst: pd }) => {
                assert_eq!((src, dst), (ps, pd));
            }
            (a, b) => panic!("IP version changed in flight: {a:?} vs {b:?}"),
        }
    }
}

/// Every truncation of every corpus frame: `Ok` (payload-only cut) or a
/// typed error — never a panic, and cuts inside the headers must be typed.
#[test]
fn every_prefix_truncation_is_total() {
    for (_, frame) in corpus(0x7a04c4, 60) {
        for cut in 0..frame.len() {
            let _ = parse_frame(&frame[..cut]);
        }
        // The full frame still parses after the sweep (no interior
        // mutation happened).
        assert!(parse_frame(&frame).is_ok());
    }
}

/// Seeded byte-flip fuzzing: flip 1–4 bytes anywhere and parse. The result
/// is either Ok (a don't-care byte) or a typed error.
#[test]
fn seeded_byte_flips_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xf1b);
    let mut oks = 0u64;
    let mut errs = 0u64;
    for (_, frame) in corpus(0xbadc0de, 120) {
        for _ in 0..40 {
            let mut mutant = frame.clone();
            for _ in 0..rng.gen_range(1usize..=4) {
                let at = rng.gen_range(0usize..mutant.len());
                mutant[at] ^= rng.gen_range(1u64..256) as u8;
            }
            match parse_frame(&mutant) {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
    }
    // Both outcomes must actually occur, or the harness is vacuous.
    assert!(oks > 0, "no mutant parsed — mutation harness too destructive");
    assert!(errs > 0, "no mutant rejected — checksum/structure checks dead");
}

/// Random garbage of every small size parses to a typed result.
#[test]
fn pure_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x6a5ba6e);
    for len in 0..200 {
        for _ in 0..20 {
            let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
            let _ = parse_frame(&junk);
        }
    }
}

/// Hand-built malformations, each mapped to its exact variant.
#[test]
fn malformed_inputs_map_to_exact_variants() {
    let base_udp = build_frame(&FrameSpec::v4_udp(0x0a000001, 0x0a000002, 4000, 53, vec![9; 20]));
    let base_tcp = build_frame(&FrameSpec::v4_tcp(0x0a000001, 0x0a000002, 4000, 443, vec![9; 20]));

    // Truncated IPv4 header: cut 10 bytes into the IP header.
    assert_eq!(
        parse_frame(&base_udp[..14 + 10]),
        Err(ParseError::Truncated { layer: "ipv4", needed: 20, got: 10 })
    );

    // Bad IHL: claim a 16-byte header (IHL 4 < 5). Checked before the
    // checksum, so no fix-up needed.
    let mut bad_ihl = base_udp.clone();
    bad_ihl[14] = 0x44;
    assert_eq!(parse_frame(&bad_ihl), Err(ParseError::Malformed("ihl")));

    // Bad IP version nibble.
    let mut bad_ver = base_udp.clone();
    bad_ver[14] = 0x55;
    assert_eq!(parse_frame(&bad_ver), Err(ParseError::Malformed("ip version")));

    // VLAN-in-VLAN: wrap a tagged frame in a second 802.1Q tag.
    let tagged = build_frame(&FrameSpec::v4_udp(1, 2, 3, 4, vec![]).with_vlan(10));
    let mut qinq = tagged[..12].to_vec();
    qinq.extend_from_slice(&ETHERTYPE_VLAN.to_be_bytes());
    qinq.extend_from_slice(&20u16.to_be_bytes());
    qinq.extend_from_slice(&tagged[12..]);
    assert_eq!(parse_frame(&qinq), Err(ParseError::NestedVlan));

    // Provider tag (802.1ad) outer: also nested-VLAN territory.
    let mut stag = tagged.clone();
    stag[12..14].copy_from_slice(&ETHERTYPE_QINQ.to_be_bytes());
    assert_eq!(parse_frame(&stag), Err(ParseError::NestedVlan));

    // Snaplen-cut TCP header: 8 of 20 TCP bytes captured.
    assert_eq!(
        parse_frame(&base_tcp[..14 + 20 + 8]),
        Err(ParseError::Truncated { layer: "tcp", needed: 20, got: 8 })
    );

    // Snaplen cut inside claimed TCP options.
    let mut opts = base_tcp.clone();
    opts[14 + 20 + 12] = 0xa0; // data offset 10 words = 40 bytes
    let cut = &opts[..14 + 20 + 24];
    assert_eq!(
        parse_frame(cut),
        Err(ParseError::Truncated { layer: "tcp options", needed: 40, got: 24 })
    );

    // Corrupted IPv4 checksum.
    let mut bad_csum = base_udp.clone();
    bad_csum[14 + 8] ^= 0xff; // flip TTL without recomputing
    assert_eq!(parse_frame(&bad_csum), Err(ParseError::BadChecksum));

    // ARP is unsupported, typed.
    let mut arp = base_udp.clone();
    arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
    assert_eq!(parse_frame(&arp), Err(ParseError::UnsupportedEtherType(0x0806)));

    // ICMP is unsupported, typed (recompute the checksum so the protocol
    // field is the only lie).
    let mut icmp = base_udp.clone();
    icmp[14 + 9] = 1;
    icmp[14 + 10..14 + 12].copy_from_slice(&[0, 0]);
    let csum = pegasus::net::packet::internet_checksum(&icmp[14..14 + 20]);
    icmp[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
    assert_eq!(parse_frame(&icmp), Err(ParseError::UnsupportedProtocol(1)));

    // UDP length field below the header size.
    let mut short_udp = base_udp.clone();
    short_udp[14 + 20 + 4..14 + 20 + 6].copy_from_slice(&4u16.to_be_bytes());
    assert_eq!(parse_frame(&short_udp), Err(ParseError::Malformed("udp length")));
}

/// Batched-ingress fuzz: a repeating corpus stream with seeded byte-flips
/// and truncations injected *mid-batch* must (a) never panic, (b) land
/// every rejected frame in exactly the parse-error bucket a direct
/// `parse_frame` predicts, and (c) give every surviving frame the same
/// verdict — and the engine the same counters — as single-frame batches
/// over the identical stream.
#[test]
fn batched_ingress_survives_mutants_and_matches_per_frame() {
    // A small flow population repeated enough rounds that surviving flows
    // warm up past WINDOW and actually classify (mutants only corrupt
    // their own slot, not the flow's later packets).
    let specs = corpus(0x8a7c4, 24);
    let mut rng = StdRng::seed_from_u64(0xba7c);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for round in 0..14 {
        for (i, (_, frame)) in specs.iter().enumerate() {
            let idx = round * specs.len() + i;
            if idx.is_multiple_of(3) {
                let mut mutant = frame.clone();
                if idx.is_multiple_of(2) {
                    for _ in 0..rng.gen_range(1usize..=3) {
                        let at = rng.gen_range(0usize..mutant.len());
                        mutant[at] ^= rng.gen_range(1u64..256) as u8;
                    }
                } else {
                    mutant.truncate(rng.gen_range(0usize..mutant.len()));
                }
                frames.push(mutant);
            } else {
                frames.push(frame.clone());
            }
        }
    }

    // What a direct parse predicts for every frame: the per-kind buckets
    // both batch sizes must reproduce exactly.
    let mut expected = ParseErrorCounters::default();
    let mut survivors = 0u64;
    for f in &frames {
        match parse_frame(f) {
            Ok(_) => survivors += 1,
            Err(e) => expected.record(e.kind()),
        }
    }
    assert!(expected.total() > 0, "mutation harness produced no rejects — vacuous");
    assert!(survivors > 0, "mutation harness killed every frame — vacuous");

    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 12, seed: 21 });
    let views = extract_views(&trace);
    let data = ModelData::new().with_stat(&views.stat);
    let deployment: Deployment<MlpB> = Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys");

    // `batch(1)` hands every surviving frame to the shard alone (the
    // frame-at-a-time reference); under `batch(64)` rejects land mid-batch
    // without consuming a slot, so batches straddle mutants in every
    // alignment.
    let serve = |batch: usize| {
        let server = EngineBuilder::new().batch(batch).build().expect("builds");
        let token = server
            .control()
            .attach(
                deployment.engine_artifact().expect("artifact"),
                TenantConfig::new().record_predictions(true),
            )
            .expect("attaches");
        let ingress = server.ingress();
        for (i, f) in frames.iter().enumerate() {
            ingress.push_frame(RawFrame::new(i as u64 * 37, f)).expect("pushes");
        }
        let mut report = server.shutdown().expect("shuts down");
        let tenant = report.take_tenant(token).expect("tenant report");
        (tenant.result.expect("tenant served cleanly"), report.parse_errors)
    };
    let (a, a_parse) = serve(1);
    let (b, b_parse) = serve(64);

    assert_eq!(a_parse, expected, "per-frame buckets diverged from direct parses");
    assert_eq!(b_parse, expected, "batched buckets diverged from direct parses");
    assert_eq!(a.packets, survivors, "every surviving frame is processed");
    assert_eq!(b.packets, a.packets);
    assert_eq!(b.classified, a.classified);
    assert_eq!(b.warmup, a.warmup);
    assert_eq!(b.flows, a.flows);
    assert_eq!(b.table, a.table, "flow-table counters diverged under batching");
    assert!(a.classified > 0, "no surviving flow classified — fuzz stream too short");
    assert_eq!(b.predictions, a.predictions, "surviving frames' verdicts diverged under batching");
}

/// Rejected frames surface in the engine's parse-error buckets — per
/// error kind, without reaching any tenant (no tenants are even attached).
#[test]
fn engine_counts_rejected_frames_by_kind() {
    let server = EngineBuilder::new().build().expect("builds");
    let ingress = server.ingress();
    let control = server.control();

    let good = build_frame(&FrameSpec::v4_udp(1, 2, 3, 4, vec![1, 2, 3]));
    // A parseable frame with no tenants is Unrouted, not a parse error.
    assert_eq!(ingress.push_frame(RawFrame::new(0, &good)).expect("push"), FramePush::Unrouted);

    let mut truncated = good.clone();
    truncated.truncate(14 + 6);
    let mut bad_csum = good.clone();
    bad_csum[14 + 8] ^= 0xff;
    let mut arp = good.clone();
    arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
    let mut bad_ihl = good.clone();
    bad_ihl[14] = 0x42;
    for (frame, expect_kind) in [
        (&truncated, "truncated"),
        (&bad_csum, "checksum"),
        (&arp, "unsupported"),
        (&bad_ihl, "malformed"),
    ] {
        match ingress.push_frame(RawFrame::new(1, frame)).expect("push") {
            FramePush::Rejected(_) => {}
            other => panic!("{expect_kind}: expected rejection, got {other:?}"),
        }
    }

    let stats = control.stats().expect("stats");
    assert_eq!(stats.parse_errors.truncated, 1);
    assert_eq!(stats.parse_errors.checksum, 1);
    assert_eq!(stats.parse_errors.unsupported, 1);
    assert_eq!(stats.parse_errors.malformed, 1);
    assert_eq!(stats.parse_errors.total(), 4);
    assert_eq!(stats.unrouted, 1);

    let report = server.shutdown().expect("shuts down");
    assert_eq!(report.parse_errors.total(), 4, "terminal report keeps the counters");
    assert_eq!(report.unrouted, 1);
}
