//! One workload run: set-up, check pass, timed phases, and — when tracing —
//! the re-enactment's per-layer table.

use crate::artifacts::{self, Built, NetExec};
use crate::capture::{self, Capture};
use crate::check::{disposition_mismatches, outcome_mismatches, verdicts_recorded};
use crate::daemon;
use crate::reenact::{route_rules, Outcome, Reenactor, TenantOutcome};
use crate::serve::{
    control_round, fleet_loop, ingress_only_ns, serve_fresh, served_of, BurstDriver,
    ControlSamples, Fleet, FrameIndex, Served, Totals,
};
use crate::stats::{median, percentile};
use crate::trace::{self_times, to_json, NoProbe, Tracer};
use crate::workload::{TenantPlan, Workload};
use pegasus_core::engine::FlatProgram;
use pegasus_ctl::artifact::ArtifactFile;
use pegasus_net::{CompiledRouter, PcapSource};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is run this many times per untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// `burst_rtt`'s closed-loop burst size, and bursts per timed pass.
const BURST: usize = 32;
const BURSTS_PER_PASS: usize = 256;
/// Bursts of 32 sampled on the other workloads (for `server.burst32_*`).
const BURST32_SAMPLES: usize = 300;
/// Routed frames the 1-frame burst phase may draw (one cycle at most, so
/// no flow comes round twice and window state never accumulates).
const BURST1_FRAMES: usize = 40_000;
/// Frames the ingress-only measurement pushes into a never-full queue.
const INGRESS_ONLY_FRAMES: u64 = 100_000;
/// Lanes of the `classify_batch` sweep.
const BATCH_LANES: usize = 32;

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Traffic seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Per-layer (traced) run instead of an end-to-end one.
    pub trace: bool,
    /// Where the trace file and the daemon's scratch state go.
    pub out_dir: PathBuf,
}

/// What a run measured.
#[derive(Default)]
pub struct RunResult {
    /// Frames offered to an engine, over all passes.
    pub attempted: u64,
    /// Frames (and failed tenants) that did not end up as expected.
    pub failed: u64,
    /// Verdicts the check pass compared position by position.
    pub verdicts_checked: u64,
    /// Raw samples worth a line of their own in the output, for reading a
    /// noisy run: `(label, values)`.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Every metric the run measured, by manifest name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Everything set-up produces: nets as the daemon would hold them, and
/// the capture.
struct World {
    builds: Vec<Built>,
    files: Vec<ArtifactFile>,
    capture: Capture,
    load_ms: f64,
    verify_ms: f64,
    synth_s: f64,
}

/// Train + compile + artifact round-trip + verify + capture synthesis +
/// engine build + attach: what stands between a seed and a serving engine.
fn set_up(workload: Workload, seed: u64, plan: &[TenantPlan]) -> World {
    let builds: Vec<Built> = workload.nets().iter().map(|n| artifacts::build(*n)).collect();
    let (mut load_ms, mut verify_ms) = (0.0, 0.0);
    let files: Vec<ArtifactFile> = builds
        .iter()
        .map(|b| {
            let t = Instant::now();
            let file = artifacts::load(&b.bytes);
            let artifact = artifacts::deploy(&file);
            load_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            assert!(!artifact.verify_report().has_errors());
            verify_ms += t.elapsed().as_secs_f64() * 1e3;
            file
        })
        .collect();
    let t = Instant::now();
    let capture = capture::build(workload, seed);
    let synth_s = t.elapsed().as_secs_f64();
    Fleet::start(plan, &files, false, None).shutdown();
    World { builds, files, capture, load_ms, verify_ms, synth_s }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median, or 0 for a metric this workload does not exercise.
fn med(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    median(&mut samples.to_vec())
}

/// Percentile, or 0 for a metric this workload does not exercise.
fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Verdict-free totals of an outcome, for holding timed (non-recording)
/// passes against the check pass's expectation.
fn totals_only(o: &Outcome) -> Outcome {
    let tenants = o
        .tenants
        .iter()
        .map(|t| TenantOutcome {
            packets: t.packets,
            classified: t.classified,
            ..Default::default()
        })
        .collect();
    Outcome {
        frames: o.frames,
        rejects: o.rejects,
        unrouted: o.unrouted,
        tenants,
        ..Outcome::default()
    }
}

fn source_of(capture: &Capture) -> PcapSource {
    PcapSource::from_bytes(capture.bytes.clone()).expect("benchmark capture is a valid pcap")
}

/// `FlatProgram::classify_batch` over the check pass's feature rows, 32
/// lanes at a time: ns per row (median of 5 sweeps), and how many verdicts
/// differ from scalar `classify`'s.
fn classify_batch_sweep(flat: &FlatProgram, rows: &[f32], arity: usize) -> (f64, u64) {
    let lanes = rows.len() / arity;
    let mut scalar = flat.scratch();
    let want: Vec<usize> = rows
        .chunks_exact(arity)
        .map(|r| flat.classify(r, &mut scalar).expect("classifies"))
        .collect();
    let mut scratch = flat.batch_scratch(BATCH_LANES);
    let (mut got, mut classes) = (Vec::with_capacity(lanes), Vec::new());
    let mut sweeps = Vec::new();
    for _ in 0..5 {
        got.clear();
        let t0 = Instant::now();
        for chunk in rows.chunks(BATCH_LANES * arity) {
            flat.classify_batch(chunk, chunk.len() / arity, &mut scratch, &mut classes)
                .expect("classifies");
            got.extend_from_slice(&classes);
        }
        sweeps.push(t0.elapsed().as_nanos() as f64 / lanes as f64);
    }
    (med(&sweeps), want.iter().zip(&got).filter(|(a, b)| a != b).count() as u64)
}

/// Samples the timed phases collect.
#[derive(Default)]
struct Samples {
    kpps: Vec<f64>,
    push_share: Vec<f64>,
    busy_share: Vec<f64>,
    busy_ns_per_pkt: Vec<f64>,
    rtt1_us: Vec<f64>,
    rtt32_us: Vec<f64>,
    swap_under_load_us: Vec<f64>,
    control: ControlSamples,
    state_bytes: u64,
}

struct Run<'a> {
    opts: &'a Options,
    plan: &'a [TenantPlan],
    world: &'a World,
    result: RunResult,
    samples: Samples,
}

impl<'a> Run<'a> {
    fn new(opts: &'a Options, plan: &'a [TenantPlan], world: &'a World) -> Self {
        Run { opts, plan, world, result: RunResult::default(), samples: Samples::default() }
    }

    fn share(&self, of_seconds: f64) -> Duration {
        Duration::from_secs_f64(self.opts.seconds * of_seconds)
    }

    /// The check pass: serve the capture with predictions recorded and hold
    /// dispositions, totals and per-flow verdict sequences against the
    /// re-enactment. Returns the re-enactment's one-loop outcome and what
    /// the engine served.
    fn check(&mut self, nets: &[NetExec]) -> (Outcome, Served) {
        let (plan, files, capture) = (self.plan, &self.world.files, &self.world.capture);
        let loops = if self.opts.workload == Workload::MiceFleet { 2 } else { 1 };
        let mut reenactor = Reenactor::new(plan, nets);
        let mut expected = Outcome::default();
        reenactor.pass(&capture.bytes, &mut NoProbe, true, &mut expected);
        self.result.failed += disposition_mismatches(capture, &expected);
        let one_loop = expected.clone();
        for _ in 1..loops {
            reenactor.pass(&capture.bytes, &mut NoProbe, true, &mut expected);
        }

        let mut source = source_of(capture);
        let served = if loops == 1 {
            serve_fresh(plan, files, &mut source, true).0
        } else {
            // The long-lived shape: loops and swaps on one engine.
            let fleet = Fleet::start(plan, files, true, None);
            let mut totals = Totals::of(&fleet.control.stats().expect("engine is running"));
            for _ in 0..loops {
                let s = fleet_loop(&fleet, plan, files, &mut source, capture, &mut totals);
                self.result.failed += s.mismatched;
            }
            let tokens = fleet.tokens.clone();
            served_of(fleet.shutdown(), &tokens, capture.frames() * loops)
        };
        self.result.attempted += capture.frames() * loops;
        self.result.failed +=
            outcome_mismatches(&expected, &served.outcome) + served.failed_tenants;
        self.result.verdicts_checked = verdicts_recorded(&expected);
        self.samples.state_bytes = served.state_bytes;
        (one_loop, served)
    }

    /// Timed throughput passes, each on a fresh engine (`mlp_steady`,
    /// `cnn_flowreg`). The first pass is a warm-up.
    fn fresh_passes(&mut self, expected: &Outcome, budget: Duration) {
        let expect = totals_only(expected);
        let mut source = source_of(&self.world.capture);
        let deadline = Instant::now() + budget;
        let mut warm = false;
        while !warm || self.samples.kpps.len() < 3 || Instant::now() < deadline {
            let (served, timing) = serve_fresh(self.plan, &self.world.files, &mut source, false);
            self.result.attempted += served.outcome.frames;
            self.result.failed +=
                outcome_mismatches(&expect, &served.outcome) + served.failed_tenants;
            if !warm {
                warm = true;
                continue;
            }
            let wall = timing.wall_ns as f64;
            self.samples.kpps.push(served.outcome.frames as f64 / wall * 1e6);
            self.samples.push_share.push(timing.push_ns as f64 / wall);
            self.samples.busy_share.push(served.busy_ns as f64 / wall);
            self.samples
                .busy_ns_per_pkt
                .push(served.busy_ns as f64 / served.outcome.routed().max(1) as f64);
        }
    }

    /// Timed loops of the capture through one long-lived engine
    /// (`mice_fleet`). The first loop is a warm-up.
    fn fleet_loops(&mut self, fleet: &Fleet, totals: &mut Totals, budget: Duration) {
        let (plan, files, capture) = (self.plan, &self.world.files, &self.world.capture);
        let routed: u64 = capture.routed_per_tenant(plan.len()).iter().sum();
        let mut source = source_of(capture);
        let deadline = Instant::now() + budget;
        let mut warm = false;
        while !warm || self.samples.kpps.len() < 3 || Instant::now() < deadline {
            let s = fleet_loop(fleet, plan, files, &mut source, capture, totals);
            self.result.attempted += capture.frames();
            self.result.failed += s.mismatched;
            if !warm {
                warm = true;
                continue;
            }
            let wall = s.wall_ns as f64;
            self.samples.kpps.push(capture.frames() as f64 / wall * 1e6);
            self.samples.push_share.push(s.push_ns as f64 / wall);
            self.samples.busy_share.push(s.busy_ns as f64 / wall);
            self.samples.busy_ns_per_pkt.push(s.busy_ns as f64 / routed.max(1) as f64);
            self.samples.swap_under_load_us.extend(s.swap_call_us);
            self.samples.control.swap_apply_us.extend(s.swap_apply_us);
        }
    }

    /// Timed passes of closed-loop 32-frame bursts (`burst_rtt`). The
    /// first pass is a warm-up.
    fn burst_passes(&mut self, fleet: &Fleet, driver: &mut BurstDriver<'_>, budget: Duration) {
        for _ in 0..BURSTS_PER_PASS {
            driver.burst(BURST);
        }
        let mut totals = Totals::of(&fleet.control.stats().expect("engine is running"));
        let deadline = Instant::now() + budget;
        while self.samples.kpps.len() < 3 || Instant::now() < deadline {
            let t0 = Instant::now();
            for _ in 0..BURSTS_PER_PASS {
                let rtt = driver.burst(BURST);
                self.samples.rtt32_us.push(rtt);
            }
            let wall = t0.elapsed().as_nanos() as f64;
            let frames = (BURST * BURSTS_PER_PASS) as f64;
            let after = Totals::of(&fleet.control.stats().expect("engine is running"));
            let busy = (after.busy_ns() - totals.busy_ns()) as f64;
            totals = after;
            self.samples.kpps.push(frames / wall * 1e6);
            self.samples.busy_share.push(busy / wall);
            self.samples.busy_ns_per_pkt.push(busy / frames);
        }
    }

    /// 1-frame bursts, a few 32-frame bursts where the workload has not
    /// already run them, then rounds of quiesced control calls.
    fn latency_phase(
        &mut self,
        fleet: &Fleet,
        driver: &mut BurstDriver<'_>,
        frames_left: usize,
        burst1: Duration,
        control: Duration,
    ) {
        let start = driver.frames_pushed();
        let deadline = Instant::now() + burst1;
        while self.samples.rtt1_us.len() < 100
            || (Instant::now() < deadline && driver.frames_pushed() - start < frames_left)
        {
            let rtt = driver.burst(1);
            self.samples.rtt1_us.push(rtt);
        }
        if self.samples.rtt32_us.is_empty() {
            for _ in 0..BURST32_SAMPLES {
                let rtt = driver.burst(BURST);
                self.samples.rtt32_us.push(rtt);
            }
        }
        let deadline = Instant::now() + control;
        while self.samples.control.attach_us.len() < 5 || Instant::now() < deadline {
            control_round(fleet, self.plan, &self.world.files, &mut self.samples.control);
        }
    }

    /// All timed engine phases for the workload.
    fn timed_phases(&mut self, expected: &Outcome) {
        let workload = self.opts.workload;
        // (throughput, 1-frame bursts, control calls) shares of `--seconds`;
        // a traced run leaves half to the re-enactment.
        let (c, d1, d2) = match (workload, self.opts.trace) {
            (Workload::BurstRtt, false) => (0.60, 0.25, 0.15),
            (_, false) => (0.78, 0.10, 0.12),
            (_, true) => (0.25, 0.10, 0.10),
        };
        let (c, d1, d2) = (self.share(c), self.share(d1), self.share(d2));
        let (plan, files, capture) = (self.plan, &self.world.files, &self.world.capture);
        let cycle = BURST1_FRAMES + BURST32_SAMPLES * BURST;
        let index = FrameIndex::routed(
            capture,
            if workload == Workload::BurstRtt { usize::MAX } else { cycle },
        );
        let fleet;
        let (mut driver, before, burst1_frames);
        match workload {
            Workload::MlpSteady | Workload::CnnFlowreg => {
                self.fresh_passes(expected, c);
                fleet = Fleet::start(plan, files, false, None);
                driver = BurstDriver::new(&fleet, &index, vec![0; plan.len()]);
                (before, burst1_frames) = (0, BURST1_FRAMES);
            }
            Workload::MiceFleet => {
                fleet = Fleet::start(plan, files, false, None);
                let mut totals = Totals::of(&fleet.control.stats().expect("engine is running"));
                self.fleet_loops(&fleet, &mut totals, c);
                before = totals.served().iter().sum();
                driver = BurstDriver::new(&fleet, &index, totals.served().to_vec());
                burst1_frames = BURST1_FRAMES;
            }
            Workload::BurstRtt => {
                fleet = Fleet::start(plan, files, false, None);
                driver = BurstDriver::new(&fleet, &index, vec![0; plan.len()]);
                self.burst_passes(&fleet, &mut driver, c);
                (before, burst1_frames) = (0, usize::MAX);
            }
        }
        self.latency_phase(&fleet, &mut driver, burst1_frames, d1, d2);
        // Shut the engine down and hold what it served against what went in.
        let pushed = driver.frames_pushed() as u64;
        let tokens = fleet.tokens.clone();
        let served = served_of(fleet.shutdown(), &tokens, before + pushed);
        self.result.attempted += pushed;
        self.result.failed +=
            served.outcome.routed().abs_diff(before + pushed) + served.failed_tenants;
        if workload == Workload::MiceFleet {
            self.samples.state_bytes = served.state_bytes;
        }
    }

    /// The traced re-enactment and the outside-in measurements that ride
    /// with it: the per-layer metrics only a `--trace 1` run has.
    fn per_layer(&mut self, nets: &[NetExec], expected: &Outcome, checked: &Served) {
        let (plan, files, capture) = (self.plan, &self.world.files, &self.world.capture);
        let workload = self.opts.workload;
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

        let mut source = source_of(capture);
        let frames = capture.frames().min(INGRESS_ONLY_FRAMES);
        let ingress: Vec<f64> =
            (0..3).map(|_| ingress_only_ns(plan, files, &mut source, frames)).collect();
        m.insert("server.ingress_ns", med(&ingress));
        drop(source);

        // Alternate untraced and traced passes of the same loops. The
        // long-lived workload keeps one warmed re-enactor per mode, so its
        // flow tables are in their steady state; the others start fresh
        // each pass, as their engines do.
        let persistent = workload == Workload::MiceFleet;
        let mut plain = Reenactor::new(plan, nets);
        let mut traced = Reenactor::new(plan, nets);
        if persistent {
            plain.pass(&capture.bytes, &mut NoProbe, false, &mut Outcome::default());
            traced.pass(&capture.bytes, &mut NoProbe, false, &mut Outcome::default());
        }
        let expect = totals_only(expected);
        let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut last_spans = Vec::new();
        let deadline = Instant::now() + self.share(0.5);
        while plain_ns.len() < 2 || (Instant::now() < deadline && plain_ns.len() < 15) {
            if !persistent {
                plain = Reenactor::new(plan, nets);
                traced = Reenactor::new(plan, nets);
            }
            let mut out = Outcome::default();
            let t0 = Instant::now();
            plain.pass(&capture.bytes, &mut NoProbe, false, &mut out);
            plain_ns.push(t0.elapsed().as_nanos() as f64);
            if !persistent {
                self.result.failed += outcome_mismatches(&expect, &totals_only(&out));
            }

            let mut out = Outcome::default();
            let mut tracer = Tracer::default();
            let t0 = Instant::now();
            traced.pass(&capture.bytes, &mut tracer, false, &mut out);
            traced_ns.push(t0.elapsed().as_nanos() as f64);

            let selfs = self_times(tracer.spans());
            let get = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
            let frames = out.frames.max(1) as f64;
            let parsed = (out.frames - out.rejected()).max(1) as f64;
            let routed = out.routed().max(1) as f64;
            // Worker layers are timed on sampled batches only: their
            // denominators are the packets the tracer counted there.
            let timed = tracer.counted("worker.packets").max(1) as f64;
            let classified = tracer.counted("worker.classified").max(1) as f64;
            let mut put = |name: &'static str, v: f64| layers.entry(name).or_default().push(v);
            put("pcap.next_frame_ns", get("pcap.next_frame") / frames);
            put("wire.parse_ns", get("wire.parse") / frames);
            put("wire.to_trace_packet_ns", get("wire.to_trace_packet") / parsed);
            put("router.route_ns", get("router.route") / parsed);
            put("flow.admit_ns", get("flow.admit") / timed);
            put("features.extract_ns", get("features.extract") / classified);
            put("flat.classify_ns", get("flat.classify") / classified);
            put("flowpipe.on_packet_ns", get("flowpipe.on_packet") / timed);
            let worker = get("flow.admit")
                + get("features.extract")
                + get("flat.classify")
                + get("flowpipe.on_packet")
                + get("bench.worker_batch");
            put("worker.flow_self_share", get("flow.admit") / worker);
            put("worker.features_self_share", get("features.extract") / worker);
            put("worker.flat_self_share", get("flat.classify") / worker);
            put("worker.flowpipe_self_share", get("flowpipe.on_packet") / worker);
            let total: f64 = selfs.values().map(|&v| v as f64).sum();
            let bench = get("bench.worker_batch") + get("bench.ingress_batch");
            put("trace.coverage_share", (total - bench) / total);
            put("trace.spans", tracer.spans().len() as f64);
            put("router.residual_scanned_per_pkt", out.residual_scanned as f64 / parsed);
            put("wire.reject_share", out.rejected() as f64 / frames);
            put("flow.new_flow_share", out.fresh_admissions as f64 / routed);
            put("flow.evictions_per_kpkt", out.evictions as f64 * 1e3 / routed);
            put("flat.classified_share", out.classified() as f64 / routed);
            last_spans = tracer.spans().to_vec();
        }
        for (name, samples) in &layers {
            m.insert(name, med(samples));
        }
        m.insert("trace.overhead_share", med(&traced_ns) / med(&plain_ns) - 1.0);
        std::fs::create_dir_all(&self.opts.out_dir).expect("out dir is creatable");
        let path = self.opts.out_dir.join(format!("{}.trace.json", workload.name()));
        std::fs::write(&path, to_json(&last_spans)).expect("trace file is writable");

        let mut batch_ns = 0.0;
        if let (NetExec::Stateless(dp, _), true) = (&nets[0], expected.row_arity > 0) {
            let flat = dp.flat().expect("benchmark nets flatten");
            let (ns, mismatched) = classify_batch_sweep(flat, &expected.rows, expected.row_arity);
            self.result.failed += mismatched;
            batch_ns = ns;
        }
        m.insert("flat.classify_batch_ns", batch_ns);

        let rules = route_rules(plan);
        let builds: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(CompiledRouter::build(&rules));
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        m.insert("router.build_us", med(&builds));
        m.insert("router.heap_kb", CompiledRouter::build(&rules).heap_bytes() as f64 / 1024.0);

        // Daemon parity rides on the one-tenant MLP-B workload.
        let mut parity_kpps = 0.0;
        if workload == Workload::MlpSteady {
            let dir = self.opts.out_dir.join(format!("d{}", std::process::id()));
            let parity = daemon::parity(&self.world.builds[0].bytes, capture, &dir);
            self.result.failed += outcome_mismatches(&checked.outcome, &parity.outcome);
            self.result.attempted += capture.frames();
            parity_kpps = parity.ingest_pcap_kpps;
        }
        m.insert("ctl.ingest_pcap_kpps", parity_kpps);
        self.result.metrics.extend(m);
    }

    fn publish(&mut self, setup_s: &[f64]) {
        let deciles = (1..10).map(|d| pct(&self.samples.rtt1_us, f64::from(d) / 10.0)).collect();
        self.result.samples = vec![
            ("served_kpps per pass", self.samples.kpps.clone()),
            ("setup_s per set-up", setup_s.to_vec()),
            ("burst1_rtt_us deciles", deciles),
        ];
        let failed_share = self.result.failed as f64 / self.result.attempted.max(1) as f64;
        let (s, w) = (&self.samples, self.world);
        let m = &mut self.result.metrics;
        m.insert("served_kpps", med(&s.kpps));
        m.insert("swap_call_p50_us", pct(&s.control.swap_call_us, 0.50));
        m.insert("server.swap_under_load_p50_us", pct(&s.swap_under_load_us, 0.50));
        m.insert("setup_s", med(setup_s));
        m.insert("server.worker_busy_ns", med(&s.busy_ns_per_pkt));
        m.insert("server.worker_busy_share", med(&s.busy_share));
        let push_share = med(&s.push_share);
        m.insert("server.push_wall_share", push_share);
        m.insert(
            "server.drain_share",
            if s.push_share.is_empty() { 0.0 } else { 1.0 - push_share },
        );
        m.insert("server.burst1_rtt_p50_us", pct(&s.rtt1_us, 0.50));
        m.insert("server.burst32_rtt_p50_us", pct(&s.rtt32_us, 0.50));
        m.insert("server.burst1_rtt_p99_us", pct(&s.rtt1_us, 0.99));
        m.insert("server.burst1_samples", s.rtt1_us.len() as f64);
        m.insert("server.attach_us", med(&s.control.attach_us));
        m.insert("server.detach_us", med(&s.control.detach_us));
        m.insert("server.stats_call_us", med(&s.control.stats_us));
        m.insert("server.swap_apply_us", med(&s.control.swap_apply_us));
        m.insert("flow.state_kb", s.state_bytes as f64 / 1024.0);
        m.insert("ctl.artifact_load_ms", w.load_ms);
        let artifact_bytes: usize = w.builds.iter().map(|b| b.bytes.len()).sum();
        m.insert("ctl.artifact_kb", artifact_bytes as f64 / 1024.0);
        m.insert("compile.train_s", w.builds.iter().map(|b| b.train_s).sum());
        m.insert("compile.compile_s", w.builds.iter().map(|b| b.compile_s).sum());
        m.insert("verify.report_ms", w.verify_ms);
        m.insert("datasets.synth_s", w.synth_s);
        m.insert("check.failed_share", failed_share);
        // Last, so it covers everything the run held in memory.
        m.insert("peak_rss_mb", peak_rss_mb());
    }
}

/// Set-up and the check pass only (`--check`).
pub fn check_only(opts: &Options) -> RunResult {
    let plan = opts.workload.plan();
    let world = set_up(opts.workload, opts.seed, &plan);
    let nets: Vec<NetExec> = world.files.iter().map(NetExec::of).collect();
    let mut run = Run::new(opts, &plan, &world);
    run.check(&nets);
    run.result
}

/// The daemon parity pass only (`--parity`): `mlp_steady`'s net and
/// capture through a real `Daemon`, held against the direct engine pass.
pub fn parity_only(opts: &Options) -> RunResult {
    let plan = Workload::MlpSteady.plan();
    let world = set_up(Workload::MlpSteady, opts.seed, &plan);
    let direct = serve_fresh(&plan, &world.files, &mut source_of(&world.capture), true).0;
    let dir = opts.out_dir.join(format!("d{}", std::process::id()));
    let parity = daemon::parity(&world.builds[0].bytes, &world.capture, &dir);
    let mut result = RunResult {
        attempted: 2 * world.capture.frames(),
        failed: outcome_mismatches(&direct.outcome, &parity.outcome) + direct.failed_tenants,
        verdicts_checked: verdicts_recorded(&direct.outcome),
        ..RunResult::default()
    };
    result.metrics.insert("ctl.ingest_pcap_kpps", parity.ingest_pcap_kpps);
    result
}

/// A full run of one workload.
pub fn run(opts: &Options) -> RunResult {
    let plan = opts.workload.plan();
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut world = None;
    for _ in 0..reps {
        // One world at a time: the last set-up's is the one the run uses.
        drop(world.take());
        let t0 = Instant::now();
        world = Some(set_up(opts.workload, opts.seed, &plan));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let world = world.expect("set-up ran");
    // The re-enactment's executables are the benchmark's, not the system's:
    // deployed outside `setup_s`.
    let nets: Vec<NetExec> = world.files.iter().map(NetExec::of).collect();
    let mut run = Run::new(opts, &plan, &world);

    let (expected, checked) = run.check(&nets);
    if run.result.failed > 0 {
        // Timed phases wait on counters the check just showed to be off.
        return run.result;
    }
    run.timed_phases(&expected);
    if opts.trace {
        run.per_layer(&nets, &expected, &checked);
    }
    run.publish(&setup_s);
    run.result
}
