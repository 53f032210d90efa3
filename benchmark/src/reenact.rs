//! The engine's two threads, re-enacted as two single-threaded loops over
//! each layer's public functions.
//!
//! *Ingress loop* (what `IngressHandle::push_frame` does per frame): pcap
//! record → `parse_frame` → `to_trace_packet` → `CompiledRouter::route`.
//! It runs stage by stage over 64-frame batches, so each layer's span is a
//! real interval around 64 calls into that layer (`PcapReader::next_record`
//! is the body of `PcapSource::next_frame`; the reader is used because its
//! records can be held for a whole batch).
//!
//! *Worker loop* (what the shard worker does per routed packet):
//! `FlowTracker::observe_admit` → feature extraction →
//! `FlatProgram::classify`, or `FlowTable::admit` +
//! `FlowClassifier::on_packet_mut` on a fork. Admission hands back a borrow
//! of the flow's state that extraction must consume before the next
//! admission, so these layers cannot be run stage by stage; instead the
//! clock is read at each layer boundary of each packet and the intervals
//! are *folded*: per 64-packet batch one span per layer whose duration is
//! the sum of that layer's intervals, laid end to end inside the batch
//! span. Durations are measured; positions within the batch are not. A
//! clock read perturbs the pipeline it times, so only one worker batch in
//! [`WORKER_SAMPLE_EVERY`](crate::trace::WORKER_SAMPLE_EVERY) is timed;
//! the probe counts the packets of the timed batches beside their spans.
//!
//! Run with [`NoProbe`](crate::trace::NoProbe) the same loops read no
//! clock at all: that is the correctness oracle the served engine is
//! checked against, and the baseline for `trace.overhead_share`.

use crate::artifacts::NetExec;
use crate::capture::{REJECTED, UNROUTED};
use crate::trace::{NoProbe, Probe};
use crate::workload::TenantPlan;
use pegasus_core::engine::{FlatProgram, FlatScratch};
use pegasus_core::flowpipe::FlowClassifier;
use pegasus_core::StreamFeatures;
use pegasus_net::wire::parse_frame;
use pegasus_net::{
    quantize_ipd, quantize_len, CompiledRouter, FiveTuple, FlowState, FlowTable, FlowTableConfig,
    FlowTracker, PacketObs, ParseErrorKind, PcapReader, RoutePredicate, StatFeatures, TracePacket,
    WINDOW,
};
use std::collections::HashMap;

/// Frames (ingress) and packets (worker) per traced batch.
pub const BATCH: usize = 64;
/// Ingress batches run before the worker loop takes over their packets.
const CHUNK_BATCHES: usize = 64;
/// Feature rows kept from a recording pass for the `classify_batch` sweep.
const ROWS_KEPT: usize = 1 << 16;

/// What one tenant was served.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantOutcome {
    /// Packets processed.
    pub packets: u64,
    /// Packets that produced a verdict (full window).
    pub classified: u64,
    /// Per-flow verdict sequences (recording passes only).
    pub predictions: HashMap<FiveTuple, Vec<usize>>,
}

/// Everything a re-enacted (or served) run of the capture produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Frames read from the capture.
    pub frames: u64,
    /// Parser rejects: truncated, checksum, malformed, unsupported.
    pub rejects: [u64; 4],
    /// Frames no tenant matched.
    pub unrouted: u64,
    /// Per tenant, in plan order.
    pub tenants: Vec<TenantOutcome>,
    /// Per-frame disposition (recording passes only).
    pub disposition: Vec<i16>,
    /// Residual predicates evaluated by the router.
    pub residual_scanned: u64,
    /// Admissions that started from zeroed state.
    pub fresh_admissions: u64,
    /// Admissions that took another flow's slot.
    pub evictions: u64,
    /// Feature rows of net 0's classified packets (recording passes only,
    /// capped), row-major, [`row_arity`](Outcome::row_arity) codes each.
    pub rows: Vec<f32>,
    /// Codes per feature row.
    pub row_arity: usize,
}

impl Outcome {
    /// Packets routed to any tenant.
    pub fn routed(&self) -> u64 {
        self.tenants.iter().map(|t| t.packets).sum()
    }

    /// Packets that produced a verdict.
    pub fn classified(&self) -> u64 {
        self.tenants.iter().map(|t| t.classified).sum()
    }

    /// Total parser rejects.
    pub fn rejected(&self) -> u64 {
        self.rejects.iter().sum()
    }
}

/// The bucket of [`Outcome::rejects`] a parse error lands in.
pub fn reject_bucket(kind: ParseErrorKind) -> usize {
    match kind {
        ParseErrorKind::Truncated => 0,
        ParseErrorKind::Checksum => 1,
        ParseErrorKind::Malformed => 2,
        ParseErrorKind::Unsupported => 3,
    }
}

enum TenantState {
    Stateless { net: usize, tracker: FlowTracker, scratch: FlatScratch, codes: Vec<f32> },
    Flow { fc: Box<FlowClassifier>, slots: FlowTable<()>, arity: usize, codes: Vec<f32> },
}

struct Routed {
    tenant: u32,
    pkt: TracePacket,
}

/// The re-enacted engine: a compiled router over the plan plus one
/// execution state per tenant. State persists across [`pass`](Self::pass)
/// calls, the way a long-lived engine's does across capture loops.
pub struct Reenactor<'a> {
    nets: &'a [NetExec],
    router: CompiledRouter,
    tenants: Vec<TenantState>,
}

/// The worker's feature layout (`StatelessShard::extend_codes`).
fn extend_codes(
    features: StreamFeatures,
    state: &FlowState,
    obs: &PacketObs,
    pkt: &TracePacket,
    out: &mut Vec<f32>,
) {
    match features {
        StreamFeatures::Stat => {
            let stat = StatFeatures::extract(
                state,
                obs,
                pkt.flow.protocol,
                pkt.tcp_flags,
                pkt.flow.src_port,
                pkt.flow.dst_port,
                pkt.ttl,
                pkt.payload_head.len() as u16,
            );
            out.extend(stat.0.iter().map(|&b| f32::from(b)));
        }
        StreamFeatures::Seq => {
            for o in &state.window[state.window.len() - WINDOW..] {
                out.push(f32::from(quantize_len(o.wire_len)));
                out.push(f32::from(quantize_ipd(o.ipd_micros)));
            }
        }
    }
}

fn flat_of(nets: &[NetExec], net: usize) -> (&FlatProgram, StreamFeatures) {
    match &nets[net] {
        NetExec::Stateless(dp, features) => (dp.flat().expect("benchmark nets flatten"), *features),
        NetExec::Flow(_) => unreachable!("stateless tenant over a flow net"),
    }
}

/// The plan's rule list, as the engine compiles it: attach order, payload
/// = tenant index.
pub fn route_rules(plan: &[TenantPlan]) -> Vec<(u32, RoutePredicate)> {
    plan.iter().enumerate().map(|(i, t)| (i as u32, t.route.clone())).collect()
}

impl<'a> Reenactor<'a> {
    /// Fresh state for `plan` over deployed `nets`.
    pub fn new(plan: &[TenantPlan], nets: &'a [NetExec]) -> Self {
        let tenants = plan
            .iter()
            .map(|t| match &nets[t.net] {
                NetExec::Stateless(dp, _) => {
                    let mut table = FlowTableConfig::default();
                    if let Some((slots, idle)) = t.table {
                        table.capacity = slots;
                        table.idle_timeout_packets = idle;
                    }
                    TenantState::Stateless {
                        net: t.net,
                        tracker: FlowTracker::bounded(WINDOW, table),
                        scratch: dp.flat().expect("benchmark nets flatten").scratch(),
                        codes: Vec::with_capacity(2 * WINDOW),
                    }
                }
                NetExec::Flow(fc) => {
                    let fc = Box::new(fc.fork());
                    let arity = fc.pipeline().extractor_fields.len();
                    let slots = FlowTable::new(FlowTableConfig::aliased(fc.flow_slots()));
                    TenantState::Flow { fc, slots, arity, codes: Vec::with_capacity(arity) }
                }
            })
            .collect();
        Reenactor { nets, router: CompiledRouter::build(&route_rules(plan)), tenants }
    }

    /// One pass of the capture through both loops, accumulating into
    /// `out`. `record` keeps per-frame dispositions, per-flow verdict
    /// sequences and feature rows (the check pass); traced and timed
    /// passes leave it off, as the engine's timed passes do.
    pub fn pass<P: Probe>(
        &mut self,
        capture: &[u8],
        probe: &mut P,
        record: bool,
        out: &mut Outcome,
    ) {
        if out.tenants.is_empty() {
            out.tenants = vec![TenantOutcome::default(); self.tenants.len()];
        }
        let mut reader = PcapReader::new(capture).expect("benchmark capture has a valid header");
        let mut routed: Vec<Routed> = Vec::with_capacity(CHUNK_BATCHES * BATCH);
        let (mut ingress_batch, mut worker_batch) = (0u32, 0u32);
        // Chunked, so the hand-off buffer stays small however long the
        // capture is (and the worker finds its packets in cache, as the
        // engine's does).
        loop {
            routed.clear();
            let more =
                self.ingress(&mut reader, &mut ingress_batch, &mut routed, probe, record, out);
            self.worker(&routed, &mut worker_batch, probe, record, out);
            if !more {
                break;
            }
        }
    }

    /// Up to [`CHUNK_BATCHES`] ingress batches; false once the capture ends.
    fn ingress<'c, P: Probe>(
        &mut self,
        reader: &mut PcapReader<'c>,
        next_batch: &mut u32,
        routed: &mut Vec<Routed>,
        probe: &mut P,
        record: bool,
        out: &mut Outcome,
    ) -> bool {
        let mut recs = Vec::with_capacity(BATCH);
        let mut parsed = Vec::with_capacity(BATCH);
        let mut pkts: Vec<TracePacket> = Vec::with_capacity(BATCH);
        let mut decisions: Vec<Option<u32>> = Vec::with_capacity(BATCH);
        let mut disposition = [REJECTED; BATCH];
        for _ in 0..CHUNK_BATCHES {
            let batch_id = *next_batch;
            *next_batch += 1;
            let span = probe.open("bench.ingress_batch", None, batch_id);
            let t0 = probe.now();
            recs.clear();
            while recs.len() < BATCH {
                match reader.next_record() {
                    Some(Ok(rec)) => recs.push(rec),
                    _ => break,
                }
            }
            let t1 = probe.now();
            probe.leaf("pcap.next_frame", span, batch_id, t0, t1);

            parsed.clear();
            for (slot, rec) in recs.iter().enumerate() {
                match parse_frame(rec.data) {
                    Ok(frame) => parsed.push((slot, rec.ts_micros, rec.orig_len, frame)),
                    Err(e) => {
                        out.rejects[reject_bucket(e.kind())] += 1;
                        disposition[slot] = REJECTED;
                    }
                }
            }
            let t2 = probe.now();
            probe.leaf("wire.parse", span, batch_id, t1, t2);

            pkts.clear();
            for (_, ts, orig_len, frame) in &parsed {
                pkts.push(frame.to_trace_packet(*ts, (*orig_len).min(u32::from(u16::MAX)) as u16));
            }
            let t3 = probe.now();
            probe.leaf("wire.to_trace_packet", span, batch_id, t2, t3);

            decisions.clear();
            for pkt in &pkts {
                let decision = self.router.route(&pkt.flow);
                out.residual_scanned += u64::from(decision.residual_scanned);
                decisions.push(decision.payload);
            }
            let t4 = probe.now();
            probe.leaf("router.route", span, batch_id, t3, t4);

            // The hand-off: what `push` does with a routed packet.
            for ((pkt, decision), (slot, ..)) in pkts.drain(..).zip(&decisions).zip(&parsed) {
                match decision {
                    Some(tenant) => {
                        disposition[*slot] = *tenant as i16;
                        routed.push(Routed { tenant: *tenant, pkt });
                    }
                    None => {
                        disposition[*slot] = UNROUTED;
                        out.unrouted += 1;
                    }
                }
            }
            if record {
                out.disposition.extend_from_slice(&disposition[..recs.len()]);
            }
            out.frames += recs.len() as u64;
            probe.close(span);
            if recs.len() < BATCH {
                return false;
            }
        }
        true
    }

    fn worker<P: Probe>(
        &mut self,
        routed: &[Routed],
        next_batch: &mut u32,
        probe: &mut P,
        record: bool,
        out: &mut Outcome,
    ) {
        for batch in routed.chunks(BATCH) {
            let batch_id = *next_batch;
            *next_batch += 1;
            if probe.samples(batch_id) {
                self.worker_batch(batch, batch_id, probe, record, out);
            } else {
                self.worker_batch(batch, batch_id, &mut NoProbe, record, out);
            }
        }
    }

    fn worker_batch<P: Probe>(
        &mut self,
        batch: &[Routed],
        batch_id: u32,
        probe: &mut P,
        record: bool,
        out: &mut Outcome,
    ) {
        let nets = self.nets;
        let Outcome { tenants: served_all, fresh_admissions, evictions, rows, row_arity, .. } = out;
        let span = probe.open("bench.worker_batch", None, batch_id);
        let (mut admit, mut extract, mut classify, mut flowpipe) = (0u64, 0u64, 0u64, 0u64);
        let mut verdicts = 0u64;
        let start = probe.now();
        let mut t = start;
        for Routed { tenant, pkt } in batch {
            let served = &mut served_all[*tenant as usize];
            served.packets += 1;
            let verdict = match &mut self.tenants[*tenant as usize] {
                TenantState::Stateless { net, tracker, scratch, codes } => {
                    let (flat, features) = flat_of(nets, *net);
                    let (obs, admission, state) =
                        tracker.observe_admit(pkt.flow, pkt.ts_micros, pkt.wire_len);
                    *fresh_admissions += u64::from(admission.fresh_state());
                    *evictions += u64::from(admission.evicted_other());
                    let t1 = probe.now();
                    admit += t1 - t;
                    t = t1;
                    if !state.window_full() {
                        continue;
                    }
                    codes.clear();
                    extend_codes(features, state, &obs, pkt, codes);
                    let t2 = probe.now();
                    extract += t2 - t;
                    let class = flat.classify(codes, scratch).expect("classifies");
                    t = probe.now();
                    classify += t - t2;
                    if record && *net == 0 && rows.len() < ROWS_KEPT * codes.len() {
                        rows.extend_from_slice(codes);
                        *row_arity = codes.len();
                    }
                    Some(class)
                }
                TenantState::Flow { fc, slots, arity, codes } => {
                    let (admission, _) = slots.admit(pkt.flow, || ());
                    *fresh_admissions += u64::from(admission.fresh_state());
                    let t1 = probe.now();
                    admit += t1 - t;
                    codes.clear();
                    codes.extend(
                        pkt.payload_head
                            .iter()
                            .map(|&b| f32::from(b))
                            .chain(std::iter::repeat(0.0))
                            .take(*arity),
                    );
                    let verdict = fc
                        .on_packet_mut(
                            pkt.flow.dataplane_hash(),
                            pkt.ts_micros,
                            pkt.wire_len,
                            codes,
                        )
                        .expect("flow pipeline runs");
                    t = probe.now();
                    flowpipe += t - t1;
                    verdict.predicted
                }
            };
            if let Some(class) = verdict {
                served.classified += 1;
                verdicts += 1;
                if record {
                    served.predictions.entry(pkt.flow).or_default().push(class);
                }
            }
        }
        let mut at = start;
        for (name, ns) in [
            ("flow.admit", admit),
            ("features.extract", extract),
            ("flat.classify", classify),
            ("flowpipe.on_packet", flowpipe),
        ] {
            if ns > 0 {
                probe.leaf(name, span, batch_id, at, at + ns);
                at += ns;
            }
        }
        probe.count("worker.packets", batch.len() as u64);
        probe.count("worker.classified", verdicts);
        probe.close(span);
    }
}
