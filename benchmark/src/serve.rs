//! Driving the real engine: a 1-shard `EngineServer` built exactly as
//! `Daemon::start` builds it, fed with exactly the calls
//! `Daemon::ingest_pcap` makes, by one client thread.

use crate::artifacts::deploy;
use crate::capture::{Capture, REJECTED, UNROUTED};
use crate::reenact::{reject_bucket, Outcome, TenantOutcome};
use crate::workload::TenantPlan;
use pegasus_core::engine::server::TenantReport;
use pegasus_core::{
    ControlHandle, EngineBuilder, EngineReport, EngineServer, EngineStats, IngressHandle,
    ParseErrorCounters, TenantConfig, TenantToken,
};
use pegasus_ctl::artifact::ArtifactFile;
use pegasus_net::{FrameSource, ParseErrorKind, PcapReader, PcapSource, RawFrame, RoutePredicate};
use std::time::Instant;

/// The daemon's engine shape (`DaemonConfig::default().batch`, one shard).
const SHARDS: usize = 1;
const BATCH: usize = 64;
/// `mice_fleet` swaps one tenant's artifact for an identical one this often.
pub const SWAP_EVERY_FRAMES: u64 = 65_536;
/// The tenant `mice_fleet` swaps and the quiesced control calls swap (an
/// MLP-B one on every workload).
const SWAP_TENANT: usize = 0;
/// Route of the scratch tenant the control-call phase attaches and
/// detaches: a port no capture uses and no plan claims.
const SCRATCH_ROUTE: RoutePredicate = RoutePredicate::DstPort(9);

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// A running engine with the workload's tenants attached.
pub struct Fleet {
    server: EngineServer,
    /// Control handle.
    pub control: ControlHandle,
    /// Ingress handle.
    pub ingress: IngressHandle,
    /// Tenant tokens, in plan order.
    pub tokens: Vec<TenantToken>,
}

impl Fleet {
    /// Builds the engine and attaches every tenant of `plan`, each from a
    /// fresh `deploy` of its artifact file — the daemon's attach path.
    /// `queue_batches` overrides the engine default (the ingress-only
    /// measurement needs a queue that never fills).
    pub fn start(
        plan: &[TenantPlan],
        files: &[ArtifactFile],
        record: bool,
        queue_batches: Option<usize>,
    ) -> Fleet {
        let mut builder = EngineBuilder::new().shards(SHARDS).batch(BATCH);
        if let Some(depth) = queue_batches {
            builder = builder.queue_batches(depth);
        }
        let server = builder.build().expect("engine builds");
        let control = server.control();
        let ingress = server.ingress();
        let tokens = plan
            .iter()
            .map(|tenant| {
                control
                    .attach(deploy(&files[tenant.net]), tenant.config(record))
                    .expect("tenant attaches")
            })
            .collect();
        Fleet { server, control, ingress, tokens }
    }

    /// Drains and joins the engine.
    pub fn shutdown(self) -> EngineReport {
        self.server.shutdown().expect("engine shuts down")
    }

    /// Spins until the worker has processed everything pushed so far:
    /// `done(&stats)` is polled on live snapshots, which an idle worker
    /// publishes exactly.
    pub fn wait_until(&self, mut done: impl FnMut(&EngineStats) -> bool) -> EngineStats {
        loop {
            let stats = self.control.stats().expect("engine is running");
            if done(&stats) {
                return stats;
            }
            std::thread::yield_now();
        }
    }
}

fn rejects_of(p: &ParseErrorCounters) -> [u64; 4] {
    let mut out = [0u64; 4];
    out[reject_bucket(ParseErrorKind::Truncated)] = p.truncated;
    out[reject_bucket(ParseErrorKind::Checksum)] = p.checksum;
    out[reject_bucket(ParseErrorKind::Malformed)] = p.malformed;
    out[reject_bucket(ParseErrorKind::Unsupported)] = p.unsupported;
    out
}

/// What a served run produced, in the re-enactment's terms, plus what
/// only the engine knows.
pub struct Served {
    /// Dispositions and verdicts.
    pub outcome: Outcome,
    /// Tenants whose terminal report is an error.
    pub failed_tenants: u64,
    /// Worker time inside `exec.process`, summed over tenants (ns).
    pub busy_ns: u64,
    /// Flow-state bytes held at shutdown, summed over tenants.
    pub state_bytes: u64,
}

/// Folds a terminal engine report into a [`Served`].
pub fn served_of(report: EngineReport, tokens: &[TenantToken], frames: u64) -> Served {
    let mut report = report;
    let mut served = Served {
        outcome: Outcome {
            frames,
            rejects: rejects_of(&report.parse_errors),
            unrouted: report.unrouted,
            ..Outcome::default()
        },
        failed_tenants: 0,
        busy_ns: 0,
        state_bytes: 0,
    };
    for token in tokens {
        let tenant: Option<TenantReport> = report.take_tenant(*token);
        match tenant.map(|t| t.result) {
            Some(Ok(r)) => {
                served.busy_ns += r.shards.iter().map(|s| s.busy_nanos).sum::<u64>();
                served.state_bytes += r.table.state_bytes;
                served.outcome.tenants.push(TenantOutcome {
                    packets: r.packets,
                    classified: r.classified,
                    predictions: r.predictions.unwrap_or_default(),
                });
            }
            _ => {
                served.failed_tenants += 1;
                served.outcome.tenants.push(TenantOutcome::default());
            }
        }
    }
    served
}

/// One timed pass of a fresh engine.
pub struct PassTiming {
    /// First push → `shutdown` returned (ns).
    pub wall_ns: u64,
    /// First push → `flush` returned (ns).
    pub push_ns: u64,
}

/// Serves the whole capture through a fresh engine: `push_frame_source` →
/// `flush` → `shutdown`, timed from the first push to the drain's return.
pub fn serve_fresh(
    plan: &[TenantPlan],
    files: &[ArtifactFile],
    source: &mut PcapSource,
    record: bool,
) -> (Served, PassTiming) {
    let fleet = Fleet::start(plan, files, record, None);
    let tokens = fleet.tokens.clone();
    source.rewind();
    let t0 = Instant::now();
    fleet.ingress.push_frame_source(source).expect("engine accepts frames");
    fleet.ingress.flush().expect("engine flushes");
    let push_ns = t0.elapsed().as_nanos() as u64;
    let report = fleet.shutdown();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    (served_of(report, &tokens, source.records()), PassTiming { wall_ns, push_ns })
}

/// Per-frame cost of `push_frame` when the shard queue never fills: the
/// first `frames` frames pushed into an engine whose queue holds them all.
pub fn ingress_only_ns(
    plan: &[TenantPlan],
    files: &[ArtifactFile],
    source: &mut PcapSource,
    frames: u64,
) -> f64 {
    let fleet = Fleet::start(plan, files, false, Some(frames as usize / BATCH + 2));
    source.rewind();
    let mut pushed = 0u64;
    let t0 = Instant::now();
    while pushed < frames {
        let Some(frame) = source.next_frame() else { break };
        fleet.ingress.push_frame(frame).expect("engine accepts frames");
        pushed += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    fleet.shutdown();
    ns / pushed.max(1) as f64
}

/// One loop of the capture through the long-lived `mice_fleet` engine.
pub struct LoopSample {
    /// First push → worker quiescent (ns).
    pub wall_ns: u64,
    /// First push → `flush` returned (ns).
    pub push_ns: u64,
    /// Worker `busy_nanos` accrued over the loop.
    pub busy_ns: u64,
    /// Wall of each under-load `ControlHandle::swap` (µs).
    pub swap_call_us: Vec<f64>,
    /// Engine-reported commit window of each swap (µs).
    pub swap_apply_us: Vec<f64>,
    /// Frames whose disposition differs from the capture's expectation.
    pub mismatched: u64,
}

/// Lifetime totals a loop's deltas are taken against.
pub struct Totals {
    served: Vec<u64>,
    unrouted: u64,
    rejected: u64,
    busy_ns: u64,
}

impl Totals {
    /// The totals in a live snapshot.
    pub fn of(stats: &EngineStats) -> Totals {
        Totals {
            served: stats.tenants.iter().map(|t| t.report.packets).collect(),
            unrouted: stats.unrouted,
            rejected: stats.parse_errors.total(),
            busy_ns: stats
                .tenants
                .iter()
                .flat_map(|t| &t.report.shards)
                .map(|s| s.busy_nanos)
                .sum(),
        }
    }

    /// Packets served so far, per tenant.
    pub fn served(&self) -> &[u64] {
        &self.served
    }

    /// Worker `busy_nanos` accrued so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// Loops the capture once through a running fleet: `next_frame` →
/// `push_frame` (the body of `push_frame_source`), a same-content swap of
/// one tenant every [`SWAP_EVERY_FRAMES`], `flush`, then wait for the
/// worker to go quiescent. Dispositions (per-tenant served, unrouted,
/// rejected) are held against the capture's expectation on every loop;
/// verdicts are the check pass's business.
pub fn fleet_loop(
    fleet: &Fleet,
    plan: &[TenantPlan],
    files: &[ArtifactFile],
    source: &mut PcapSource,
    capture: &Capture,
    before: &mut Totals,
) -> LoopSample {
    // A swap consumes a deployed artifact; deploy them before the clock starts.
    let mut artifacts: Vec<_> = (0..capture.frames() / SWAP_EVERY_FRAMES)
        .map(|_| deploy(&files[plan[SWAP_TENANT].net]))
        .collect();
    let (mut swap_call_us, mut swap_apply_us) = (Vec::new(), Vec::new());
    source.rewind();
    let mut pushed = 0u64;
    let t0 = Instant::now();
    while let Some(frame) = source.next_frame() {
        fleet.ingress.push_frame(frame).expect("engine accepts frames");
        pushed += 1;
        if pushed.is_multiple_of(SWAP_EVERY_FRAMES) {
            if let Some(artifact) = artifacts.pop() {
                let t = Instant::now();
                let swap =
                    fleet.control.swap(fleet.tokens[SWAP_TENANT], artifact).expect("swap commits");
                swap_call_us.push(micros(t));
                swap_apply_us.push(swap.apply_micros as f64);
            }
        }
    }
    fleet.ingress.flush().expect("engine flushes");
    let push_ns = t0.elapsed().as_nanos() as u64;
    // This thread is the only pusher, so after `flush` the dispatcher's
    // routed counts are final: quiescent means the worker caught up to them.
    let stats = fleet
        .wait_until(|s| s.tenants.iter().all(|t| t.failed || t.report.packets == t.routed_packets));
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let after = Totals::of(&stats);
    let expect = capture.routed_per_tenant(plan.len());
    let mut mismatched = stats.tenants.iter().filter(|t| t.failed).count() as u64;
    for ((now, was), want) in after.served.iter().zip(&before.served).zip(&expect) {
        mismatched += (now - was).abs_diff(*want);
    }
    mismatched += (after.unrouted - before.unrouted).abs_diff(capture.count(UNROUTED));
    mismatched += (after.rejected - before.rejected).abs_diff(capture.count(REJECTED));
    let busy_ns = after.busy_ns - before.busy_ns;
    *before = after;
    LoopSample { wall_ns, push_ns, busy_ns, swap_call_us, swap_apply_us, mismatched }
}

/// Routed frames of a capture, held as borrows of its bytes (a
/// `FrameSource` hands out one frame at a time): what the burst driver
/// pushes from, each with the tenant it is for.
pub struct FrameIndex<'a> {
    frames: Vec<(RawFrame<'a>, usize)>,
}

impl<'a> FrameIndex<'a> {
    /// Indexes the first `limit` routed frames of `capture`.
    pub fn routed(capture: &'a Capture, limit: usize) -> Self {
        let mut reader = PcapReader::new(&capture.bytes).expect("valid capture");
        let mut frames = Vec::new();
        for &d in &capture.disposition {
            let Some(Ok(rec)) = reader.next_record() else { break };
            if d >= 0 && frames.len() < limit {
                let frame =
                    RawFrame { ts_micros: rec.ts_micros, wire_len: rec.orig_len, bytes: rec.data };
                frames.push((frame, d as usize));
            }
        }
        FrameIndex { frames }
    }
}

/// A closed-loop burst client over a quiescent fleet: `push_frame` × B →
/// `flush` → spin on `tenant_stats` until processed == pushed.
pub struct BurstDriver<'a> {
    fleet: &'a Fleet,
    index: &'a FrameIndex<'a>,
    next: usize,
    pushed: Vec<u64>,
    single_core: bool,
}

impl<'a> BurstDriver<'a> {
    /// A driver starting at the index's first frame. The fleet must be
    /// quiescent, with `served` packets already processed per tenant.
    pub fn new(fleet: &'a Fleet, index: &'a FrameIndex<'a>, served: Vec<u64>) -> Self {
        let single_core = std::thread::available_parallelism().map_or(true, |n| n.get() == 1);
        BurstDriver { fleet, index, next: 0, pushed: served, single_core }
    }

    /// Frames pushed so far by this driver.
    pub fn frames_pushed(&self) -> usize {
        self.next
    }

    /// One burst of `size` frames; returns its round trip in µs.
    pub fn burst(&mut self, size: usize) -> f64 {
        let mut last_tenant = 0;
        let t0 = Instant::now();
        for _ in 0..size {
            let (frame, tenant) = self.index.frames[self.next % self.index.frames.len()];
            self.next += 1;
            self.pushed[tenant] += 1;
            last_tenant = tenant;
            self.fleet.ingress.push_frame(frame).expect("engine accepts frames");
        }
        self.fleet.ingress.flush().expect("engine flushes");
        // One shard, one FIFO: the last frame's tenant finishes last.
        let (token, want) = (self.fleet.tokens[last_tenant], self.pushed[last_tenant]);
        while self.fleet.control.tenant_stats(token).expect("tenant is attached").report.packets
            < want
        {
            // With a core of its own the client spins (yielding there
            // doubled the measured round trip); with a single core the
            // worker runs only when this thread gives way.
            if self.single_core {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        micros(t0)
    }
}

/// Walls of quiesced control-plane calls, as the operator sees them (µs).
#[derive(Default)]
pub struct ControlSamples {
    /// `attach` of a scratch tenant.
    pub attach_us: Vec<f64>,
    /// `detach` of that tenant.
    pub detach_us: Vec<f64>,
    /// `stats`.
    pub stats_us: Vec<f64>,
    /// `swap` to an identical artifact.
    pub swap_call_us: Vec<f64>,
    /// The commit window each swap reported about itself.
    pub swap_apply_us: Vec<f64>,
}

/// One round of quiesced control calls: attach a scratch tenant, `stats`,
/// swap a serving tenant to an identical artifact, detach the scratch
/// tenant. Artifacts are deployed outside the timed calls.
pub fn control_round(
    fleet: &Fleet,
    plan: &[TenantPlan],
    files: &[ArtifactFile],
    out: &mut ControlSamples,
) {
    let scratch = deploy(&files[plan[0].net]);
    let replacement = deploy(&files[plan[SWAP_TENANT].net]);
    let cfg = TenantConfig::new().name("scratch").route(SCRATCH_ROUTE);

    let t = Instant::now();
    let token = fleet.control.attach(scratch, cfg).expect("scratch tenant attaches");
    out.attach_us.push(micros(t));

    let t = Instant::now();
    let stats = fleet.control.stats().expect("engine is running");
    out.stats_us.push(micros(t));
    std::hint::black_box(stats);

    let t = Instant::now();
    let swap = fleet.control.swap(fleet.tokens[SWAP_TENANT], replacement).expect("swap commits");
    out.swap_call_us.push(micros(t));
    out.swap_apply_us.push(swap.apply_micros as f64);

    let t = Instant::now();
    let report = fleet.control.detach(token).expect("scratch tenant detaches");
    out.detach_us.push(micros(t));
    std::hint::black_box(report);
}
