//! The bytes-to-verdict path is the sequential replay, bit for bit.
//!
//! Raw wire frames (`push_frame`) are the engine's one input, appended to
//! one column batch served by one `process_batch`. This suite holds every
//! batch size (a batch of one is the scalar schedule) and every tenant
//! interleave against an independent sequential replay of the
//! [`TracePacket`]s the frames parse to — identical per-flow verdict
//! sequences and packet counters, and flow-table counters that no batch
//! shape moves, at 1/2/4 shards, for a stateless pipeline (MLP-B) and the
//! per-flow register pipeline (CNN-L) — and pins the checked-in golden
//! capture: byte-exact round trips through the pcap writer and a frozen
//! per-class verdict census.

mod common;

use common::{sequential_reference, serve_one};
use pegasus::core::compile::CompileOptions;
use pegasus::core::models::cnn_l::{CnnL, CnnLVariant};
use pegasus::core::models::mlp_b::MlpB;
use pegasus::core::models::{DataplaneNet, ModelData, TrainSettings};
use pegasus::core::{
    Deployment, EngineArtifact, EngineBuilder, ParseErrorCounters, Pegasus, StreamReport,
    TenantConfig,
};
use pegasus::datasets::{
    extract_views, generate_trace, iscxvpn, peerrush, synthesize_pcap, GenConfig, SyntheticConfig,
};
use pegasus::net::wire::{build_frame, encode_trace_packet, parse_frame};
use pegasus::net::{
    FiveTuple, FlowTableConfig, FrameSpec, PcapReader, PcapSource, PcapWriter, RoutePredicate,
    Trace, TracePacket, DEFAULT_SNAPLEN,
};
use pegasus::switch::SwitchConfig;
use std::collections::HashMap;

const FIXTURE_PATH: &str = "tests/fixtures/golden.pcap";
/// The fixture's snaplen: small enough that long frames are genuinely
/// snapped (exercising truncated-capture handling end to end), large
/// enough that every header survives.
const FIXTURE_SNAPLEN: u32 = 96;

fn train_mlp(trace: &pegasus::net::Trace) -> Deployment<MlpB> {
    let views = extract_views(trace);
    let data = ModelData::new().with_stat(&views.stat);
    Pegasus::<MlpB>::train(&data, &TrainSettings::quick())
        .expect("trains")
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys")
}

fn train_cnn(trace: &pegasus::net::Trace) -> Deployment<CnnL> {
    let views = extract_views(trace);
    let data = ModelData::new().with_raw(&views.raw).with_seq(&views.seq);
    Pegasus::new(CnnL::fit(&views.raw, &views.seq, CnnLVariant::v44(), &TrainSettings::quick()))
        .options(CompileOptions { clustering_depth: 5, ..Default::default() })
        .compile(&data)
        .expect("compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("deploys")
}

/// The packets the capture's frames parse to, in capture order — what the
/// engine serves (a snapped record keeps its captured payload and its
/// original length).
fn parsed(pcap: &[u8]) -> Vec<TracePacket> {
    let mut reader = PcapReader::new(pcap).expect("header");
    std::iter::from_fn(|| reader.next_record())
        .map(|rec| {
            let rec = rec.expect("well-formed record");
            let wire_len = rec.orig_len.min(u32::from(u16::MAX)) as u16;
            parse_frame(rec.data)
                .expect("every frame parses")
                .to_trace_packet(rec.ts_micros, wire_len)
        })
        .collect()
}

/// Sequential replay of `trace` through the switch simulator on a
/// `shards`-shard layout: [`sequential_reference`] for a stateless
/// pipeline; for a per-flow one, one fresh register-file fork per shard fed
/// its flows' packets in order (verdicts depend on which flows share a
/// shard's hash slots).
fn replay<M: DataplaneNet>(
    deployment: &Deployment<M>,
    trace: &Trace,
    shards: usize,
) -> HashMap<FiveTuple, Vec<usize>> {
    let Some(fc) = deployment.flow() else { return sequential_reference(deployment, trace) };
    let arity = fc.pipeline().extractor_fields.len();
    let mut forks: Vec<_> = (0..shards).map(|_| fc.fork()).collect();
    let mut out: HashMap<FiveTuple, Vec<usize>> = HashMap::new();
    for pkt in &trace.packets {
        let mut codes = vec![0.0f32; arity];
        codes.iter_mut().zip(&pkt.payload_head).for_each(|(c, &b)| *c = f32::from(b));
        let verdict = forks[pkt.flow.shard_of(shards)]
            .on_packet_mut(pkt.flow.dataplane_hash(), pkt.ts_micros, pkt.wire_len, &codes)
            .expect("packet");
        if let Some(class) = verdict.predicted {
            out.entry(pkt.flow).or_default().push(class);
        }
    }
    out
}

/// Streams the capture through a `shards`-shard [`EngineServer`] handing
/// `batch_frames` frames to a shard at a time, with `tenants` attached in
/// order, and returns each tenant's terminal report — per-flow verdict
/// sequences recorded — and the engine's parse rejections.
///
/// [`EngineServer`]: pegasus::core::EngineServer
fn run_batched(
    tenants: Vec<(EngineArtifact, TenantConfig)>,
    pcap: &[u8],
    shards: usize,
    batch_frames: usize,
) -> (Vec<StreamReport>, ParseErrorCounters) {
    let server = EngineBuilder::new().shards(shards).batch(batch_frames).build().expect("builds");
    let control = server.control();
    let tokens: Vec<_> = tenants
        .into_iter()
        .map(|(artifact, cfg)| {
            control.attach(artifact, cfg.record_predictions(true)).expect("attaches")
        })
        .collect();
    let mut src = PcapSource::from_bytes(pcap.to_vec()).expect("capture");
    server.ingress().push_frame_source(&mut src).expect("pushes");
    let mut report = server.shutdown().expect("shuts down");
    let runs = tokens
        .into_iter()
        .map(|token| report.take_tenant(token).expect("tenant report"))
        .map(|tenant| tenant.result.expect("tenant served cleanly"))
        .collect();
    (runs, report.parse_errors)
}

/// The capture's frames through a `shards`-shard engine in `batch_frames`
/// batches, `deployment` its one tenant under `tenant` (predictions
/// recorded).
fn run_one<M: DataplaneNet>(
    deployment: &Deployment<M>,
    tenant: TenantConfig,
    pcap: &[u8],
    shards: usize,
    batch_frames: usize,
) -> (StreamReport, ParseErrorCounters) {
    let mut src = PcapSource::from_bytes(pcap.to_vec()).expect("capture");
    serve_one(
        deployment,
        EngineBuilder::new().shards(shards).batch(batch_frames),
        tenant.record_predictions(true),
        &mut src,
    )
}

/// Streams the capture at every shard count and batch shape and holds
/// each run against the sequential replay of the packets its frames parse
/// to, and its flow-table counters against the default-batch run's.
fn assert_raw_matches_reference<M: DataplaneNet>(deployment: &Deployment<M>, pcap: &[u8]) {
    let trace = Trace { packets: parsed(pcap), labels: Vec::new() };
    let n = trace.packets.len();
    for shards in [1usize, 2, 4] {
        let reference = replay(deployment, &trace, shards);
        let classified: u64 = reference.values().map(|v| v.len() as u64).sum();
        assert!(classified > 0, "{shards} shards: capture too small to classify anything");

        // The hand-off at pathological and friendly batch shapes:
        // single-frame batches (every packet a run of one — the scalar
        // schedule), a prime that forces misaligned partial flushes (7), an
        // exact divisor of the packet count (the final batch is full — no
        // partial-flush epilogue at 1 shard), 64 (a partial last batch) and
        // the default 256. Every shape must reproduce the replay's
        // counters and every flow's verdict sequence, and the same flow
        // table.
        let exact = (2..=n.min(96)).rev().find(|d| n.is_multiple_of(*d)).unwrap_or(1);
        let mut base = None;
        for batch_frames in [256usize, 1, 7, exact, 64] {
            let (b, rejected) =
                run_one(deployment, TenantConfig::new(), pcap, shards, batch_frames);
            let (flows, table) = *base.get_or_insert((b.flows, b.table));
            let tag = format!("{shards} shards, batch {batch_frames}");
            assert_eq!(b.packets, n as u64, "{tag}: packets");
            assert_eq!(b.classified, classified, "{tag}: classified");
            assert_eq!(b.warmup, b.packets - classified, "{tag}: warmup");
            assert_eq!(b.flows, flows, "{tag}: flows");
            assert_eq!(b.table, table, "{tag}: flow-table counters");
            assert_eq!(rejected.total(), 0, "{tag}: nothing rejected");
            let preds = b.predictions.expect("recording requested");
            assert_eq!(preds.len(), reference.len(), "{tag}: flow sets differ");
            for (flow, seq) in &reference {
                assert_eq!(
                    preds.get(flow),
                    Some(seq),
                    "{tag}: flow {flow:?} diverged from the sequential replay"
                );
            }
        }
    }
}

/// The structured path is the sequential replay of the [`TracePacket`]s the
/// served frames parse to.
#[test]
fn raw_path_matches_structured_path_mlp_b() {
    let spec = peerrush();
    let cfg = SyntheticConfig {
        flows_per_class: 8,
        seed: 0xd1ff,
        payload_bytes: 8,
        ..SyntheticConfig::default()
    };
    let pcap = synthesize_pcap(&spec, &cfg, DEFAULT_SNAPLEN);
    let trace = generate_trace(&spec, &GenConfig { flows_per_class: 12, seed: 21 });
    let deployment = train_mlp(&trace);
    assert_raw_matches_reference(&deployment, &pcap);
}

#[test]
fn raw_path_matches_structured_path_cnn_l() {
    // The per-flow register pipeline consumes raw payload bytes, so the
    // frames carry full class-signature payloads; verdicts additionally
    // depend on hash-slot aliasing, which the engine must reproduce
    // exactly as the per-shard replay does at each shard count.
    let spec = iscxvpn();
    let stream_cfg = SyntheticConfig {
        flows_per_class: 3,
        seed: 0xcafe,
        payload_bytes: 60,
        ..SyntheticConfig::default()
    };
    let pcap = synthesize_pcap(&spec, &stream_cfg, DEFAULT_SNAPLEN);

    let deployment = train_cnn(&generate_trace(&spec, &GenConfig { flows_per_class: 4, seed: 41 }));
    assert_raw_matches_reference(&deployment, &pcap);
}

/// Run splitting, the one thing the column hand-off adds: the golden
/// capture (MLP-B, dst port 443) and a second tenant's flows (CNN-L, dst
/// port 8443) interleaved frame by frame, so every multi-frame batch is cut
/// into runs of one, the partial-flush tails aside. Batch size and shard
/// count may change the schedule, never a tenant's verdicts or counters —
/// and the MLP-B tenant must still equal the independent sequential replay
/// through the switch simulator.
#[test]
fn interleaved_tenants_split_into_runs_without_moving_a_verdict() {
    let mlp = train_mlp(&generate_trace(&peerrush(), &GenConfig { flows_per_class: 12, seed: 21 }));
    let cnn = train_cnn(&generate_trace(&iscxvpn(), &GenConfig { flows_per_class: 4, seed: 41 }));

    // Each capture as the packets its frames parse to, steered to one port.
    let steered = |pcap: Vec<u8>, port: u16| -> Vec<TracePacket> {
        parsed(&pcap)
            .into_iter()
            .map(|mut pkt| {
                pkt.flow.dst_port = port;
                pkt
            })
            .collect()
    };
    let golden = steered(std::fs::read(FIXTURE_PATH).expect("golden capture is checked in"), 443);
    let vpn_cfg = SyntheticConfig {
        flows_per_class: 3,
        seed: 0xcafe,
        payload_bytes: 60,
        ..SyntheticConfig::default()
    };
    let vpn = steered(synthesize_pcap(&iscxvpn(), &vpn_cfg, DEFAULT_SNAPLEN), 8443);
    let mut writer = PcapWriter::with_snaplen(DEFAULT_SNAPLEN);
    let mut frame = Vec::new();
    for i in 0..golden.len().max(vpn.len()) {
        for pkt in [golden.get(i), vpn.get(i)].into_iter().flatten() {
            encode_trace_packet(pkt, &mut frame);
            writer.record(pkt.ts_micros, &frame);
        }
    }
    let pcap = writer.into_bytes();

    // The MLP-B tenant's packets exactly as the engine will parse them.
    let packets: Vec<TracePacket> =
        parsed(&pcap).into_iter().filter(|p| p.flow.dst_port == 443).collect();
    assert_eq!(packets.len(), golden.len());
    let reference = sequential_reference(&mlp, &Trace { packets, labels: Vec::new() });
    assert!(!reference.is_empty(), "golden capture classifies nothing");

    for shards in [1usize, 2, 4] {
        let mut scalar: Option<Vec<StreamReport>> = None;
        for batch_frames in [1usize, 7, 64] {
            let tag = format!("{shards} shards, batch {batch_frames}");
            let tenants = vec![
                (
                    mlp.engine_artifact().expect("artifact"),
                    TenantConfig::new().route(RoutePredicate::DstPort(443)),
                ),
                (
                    cnn.engine_artifact().expect("artifact"),
                    TenantConfig::new().route(RoutePredicate::DstPort(8443)),
                ),
            ];
            let (runs, rejected) = run_batched(tenants, &pcap, shards, batch_frames);
            assert_eq!(runs[0].packets, golden.len() as u64, "{tag}: MLP-B packets");
            assert_eq!(runs[1].packets, vpn.len() as u64, "{tag}: CNN-L packets");
            assert_eq!(runs[0].predictions.as_ref(), Some(&reference), "{tag}: MLP-B vs replay");
            assert!(runs[1].classified > 0, "{tag}: CNN-L classified nothing");
            let scalar = scalar.get_or_insert_with(|| runs.clone());
            for (name, run, one) in
                [("MLP-B", &runs[0], &scalar[0]), ("CNN-L", &runs[1], &scalar[1])]
            {
                assert_eq!(
                    (run.packets, run.classified, run.warmup, run.flows),
                    (one.packets, one.classified, one.warmup, one.flows),
                    "{tag}: {name} counters moved with the batch size"
                );
                assert_eq!(run.table, one.table, "{tag}: {name} flow-table counters");
                assert_eq!(rejected.total(), 0, "{tag}: nothing rejected");
                assert_eq!(run.predictions, one.predictions, "{tag}: {name} verdict sequences");
            }
        }
    }
}

/// The checked-in golden capture: generator-stable, byte-exact through
/// the writer, and with a frozen verdict census under the deterministic
/// quick-trained MLP-B.
///
/// Regenerate after intentional generator changes with
/// `PEGASUS_REGEN_FIXTURES=1 cargo test --test raw_path golden` (then
/// update the pinned numbers below if they shifted).
#[test]
fn golden_fixture_round_trips_and_pins_verdicts() {
    let expected = synthesize_pcap(&peerrush(), &SyntheticConfig::fixture(), FIXTURE_SNAPLEN);
    if std::env::var_os("PEGASUS_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all("tests/fixtures").expect("mkdir fixtures");
        std::fs::write(FIXTURE_PATH, &expected).expect("write fixture");
    }
    let bytes = std::fs::read(FIXTURE_PATH)
        .expect("tests/fixtures/golden.pcap is checked in (PEGASUS_REGEN_FIXTURES=1 to create)");
    assert_eq!(
        bytes, expected,
        "fixture no longer matches the generator — regenerate deliberately, not accidentally"
    );

    // Structural pins.
    let mut reader = PcapReader::new(&bytes).expect("header");
    assert!(!reader.is_big_endian());
    assert_eq!(reader.snaplen(), FIXTURE_SNAPLEN);
    let mut records = 0u64;
    let mut snapped = 0u64;
    let mut flows: Vec<FiveTuple> = Vec::new();
    while let Some(rec) = reader.next_record() {
        let rec = rec.expect("well-formed record");
        let frame = parse_frame(rec.data).expect("every fixture frame parses");
        flows.push(frame.flow);
        if (rec.orig_len as usize) > rec.data.len() {
            snapped += 1;
        }
        records += 1;
    }
    flows.sort_unstable();
    flows.dedup();
    assert_eq!(records, PINNED_PACKETS, "fixture packet count");
    assert_eq!(flows.len() as u64, PINNED_FLOWS, "fixture flow count");
    assert!(snapped > 0, "fixture must exercise snaplen truncation");

    // Byte-exact rewrite (little-endian, the fixture's own layout).
    let mut reader = PcapReader::new(&bytes).expect("header");
    let mut writer = PcapWriter::with_snaplen(FIXTURE_SNAPLEN);
    while let Some(rec) = reader.next_record() {
        let rec = rec.expect("record");
        writer.record_with_orig_len(rec.ts_micros, rec.data, rec.orig_len);
    }
    assert_eq!(writer.into_bytes(), bytes, "read→write round trip is byte-identical");

    // Cross-endian round trip: rewrite big-endian, read back, compare
    // record contents (the swapped file differs byte-wise by design).
    let mut reader = PcapReader::new(&bytes).expect("header");
    let mut be_writer = PcapWriter::big_endian(FIXTURE_SNAPLEN);
    let mut originals = Vec::new();
    while let Some(rec) = reader.next_record() {
        let rec = rec.expect("record");
        be_writer.record_with_orig_len(rec.ts_micros, rec.data, rec.orig_len);
        originals.push((rec.ts_micros, rec.orig_len, rec.data.to_vec()));
    }
    let be_bytes = be_writer.into_bytes();
    assert_ne!(be_bytes, bytes);
    let mut be_reader = PcapReader::new(&be_bytes).expect("BE header parses");
    assert!(be_reader.is_big_endian());
    for (ts, orig, data) in &originals {
        let rec = be_reader.next_record().expect("record").expect("ok");
        assert_eq!((rec.ts_micros, rec.orig_len), (*ts, *orig));
        assert_eq!(rec.data, &data[..]);
    }
    assert!(be_reader.next_record().is_none());

    // Verdict census under the deterministic quick-trained model.
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 12, seed: 21 });
    let deployment = train_mlp(&trace);
    let (report, rejected) = run_one(&deployment, TenantConfig::new(), &bytes, 1, 256);
    assert_eq!(report.packets, PINNED_PACKETS);
    assert_eq!(rejected.total(), 0);
    let verdicts = report.flow_verdicts().expect("recording requested");
    let mut census = [0u64; 3];
    for class in verdicts.values() {
        census[*class] += 1;
    }
    assert_eq!(census, PINNED_CLASS_CENSUS, "per-class verdict counts drifted");
}

/// The golden capture through 32-frame batches must reproduce the same
/// frozen census the default-batch run above pins: 338 packets, 12 flows,
/// [4, 4, 4] majority-verdict classes. This is the end-to-end witness that
/// batching changes the schedule, not the semantics.
#[test]
fn golden_fixture_census_survives_the_fused_batched_path() {
    let bytes = std::fs::read(FIXTURE_PATH)
        .expect("tests/fixtures/golden.pcap is checked in (PEGASUS_REGEN_FIXTURES=1 to create)");
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 12, seed: 21 });
    let deployment = train_mlp(&trace);

    let (run, rejected) = run_one(&deployment, TenantConfig::new(), &bytes, 1, 32);
    assert_eq!(run.packets, PINNED_PACKETS, "fixture packet count through batches");
    assert_eq!(rejected.total(), 0, "every fixture frame parses");
    assert_eq!(run.flows, PINNED_FLOWS, "fixture flow count through batches");

    let mut census = [0u64; 3];
    for class in run.flow_verdicts().expect("recording requested").values() {
        census[*class] += 1;
    }
    assert_eq!(census, PINNED_CLASS_CENSUS, "per-class verdict census drifted under batching");
}

/// Regression: several packets of the *same brand-new flow* inside one
/// batch must admit the flow's slot exactly once and reuse it — a batched
/// slot-resolution that probed every frame against the pre-batch table
/// state would admit the flow once per packet, double-counting admissions
/// and (on a tight table) evicting an innocent neighbor under phantom
/// capacity pressure. Pinned against single-frame batches on a 2-slot table.
#[test]
fn repeated_new_flow_in_one_batch_admits_a_slot_once() {
    let trace = generate_trace(&peerrush(), &GenConfig { flows_per_class: 12, seed: 21 });
    let deployment = train_mlp(&trace);
    let table = FlowTableConfig { capacity: 2, idle_timeout_packets: 0, alias: false };

    // One resident flow to make spurious evictions observable, then five
    // packets of a brand-new flow in the same batch, then the resident
    // again — on a 2-slot table a double-admission of the new flow would
    // have to evict the resident.
    let resident = build_frame(&FrameSpec::v4_udp(0x0a000001, 0x0a000002, 1111, 2222, vec![7; 12]));
    let newcomer = build_frame(&FrameSpec::v4_udp(0x0a000003, 0x0a000004, 3333, 4444, vec![9; 12]));
    let mut writer = PcapWriter::with_snaplen(DEFAULT_SNAPLEN);
    for (i, f) in [&resident, &newcomer, &newcomer, &newcomer, &newcomer, &newcomer, &resident]
        .iter()
        .enumerate()
    {
        parse_frame(f).expect("hand-built frame parses");
        writer.record(i as u64 * 100, f);
    }
    let pcap = writer.into_bytes();
    let serve = |batch_frames| {
        run_one(&deployment, TenantConfig::new().flow_table(table), &pcap, 1, batch_frames).0
    };

    let b = serve(64);
    let p = serve(1);
    assert_eq!(b.table, p.table, "batched admission diverged from single-frame batches");
    assert_eq!(b.table.occupancy, 2, "two distinct flows, two resident slots");
    assert_eq!(
        b.table.evictions_capacity, 0,
        "a repeated new flow double-admitted and evicted its neighbor"
    );
    assert_eq!(b.table.evictions_idle, 0, "no aging configured, none may fire");
    assert_eq!((b.packets, b.classified, b.warmup), (p.packets, p.classified, p.warmup));
    assert_eq!(b.packets, 7);
}

/// Pinned facts about `tests/fixtures/golden.pcap` (see the regen note on
/// the golden test).
const PINNED_PACKETS: u64 = 338;
const PINNED_FLOWS: u64 = 12;
/// Flows whose majority verdict landed in class 0/1/2 under the seed-21
/// quick-trained MLP-B.
const PINNED_CLASS_CENSUS: [u64; 3] = [4, 4, 4];
