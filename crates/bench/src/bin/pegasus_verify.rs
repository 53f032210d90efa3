//! `pegasus-verify` — static artifact verification over all nine nets.
//!
//! Trains and compiles every model of the evaluation (the six Pegasus
//! nets plus the three baselines), runs the three-layer static verifier
//! (see `pegasus_core::verify`) over each compiled artifact, and prints
//! one line per (net, analysis) pair:
//!
//! * **compile-time** — structural + interval + semantic layers, no
//!   switch model. Every net must verify with zero `Error` diagnostics:
//!   the compiler emitting a corrupt artifact is a bug, full stop.
//! * **tofino2** — the same plus the resource-accounting layer (`V204`).
//!   Every net except N3IC must fit; N3IC must *fail* with `V204`
//!   (the paper's §2 stage-wall result as a falsifiable check).
//! * **verify µs** — the wall time of that tofino2 verification, the
//!   median of five calls, flattening included: what deploying the net
//!   costs the verifier (an artifact's first admission by attach or swap
//!   verifies its flat program, so it pays all of it but the flattening;
//!   a byte-identical copy of a resident artifact pays none of it).
//!   Printed for reading, never asserted.
//!
//! * **flat vs simulator** — every net that deploys on the Tofino-2
//!   model must flatten and agree with the switch simulator on at least
//!   500 rows: a stateless net on its training rows, once through the
//!   one-lane `FlatProgram::classify`/`scores` and once — the path a
//!   stateless shard serves — through `classify_batch` in runs of 64 lanes
//!   and a ragged tail, against the simulator oracle
//!   `DataplaneModel::simulate_classify`/`simulate_scores`; a
//!   per-flow net (CNN-L) through `FlowClassifier::process_batch` — runs
//!   of 64 training-trace packets swept against one register file —
//!   against `on_packet_mut` on a second fork, packet by packet. The
//!   column also carries the matcher census — `dense/indexed` table
//!   counts and the keys split into limbs; there is no scan fallback to
//!   count — the column census — tables a multi-lane sweep runs by
//!   columns / register tables it walks lane by lane — and the longest
//!   fused action run. Every net that deploys has a flattened program (the
//!   verifier rejects whatever would not flatten), so every one of them
//!   is compared.
//!
//! Exit status is non-zero on any deviation, so CI can gate on it.
//! Standard flags apply (`--quick`, `--seed N`, `--flows N`).

use pegasus_baselines::{Bos, Leo, N3ic};
use pegasus_bench::harness::prepare;
use pegasus_bench::parse_args;
use pegasus_core::compile::CompileOptions;
use pegasus_core::engine::FlatProgram;
use pegasus_core::flowpipe::FlowClassifier;
use pegasus_core::models::autoencoder::AutoEncoder;
use pegasus_core::models::cnn_b::CnnB;
use pegasus_core::models::cnn_l::CnnL;
use pegasus_core::models::cnn_m::CnnM;
use pegasus_core::models::mlp_b::MlpB;
use pegasus_core::models::rnn_b::RnnB;
use pegasus_core::models::{DataplaneNet, ModelData, StreamFeatures};
use pegasus_core::pipeline::{Artifact, Pegasus};
use pegasus_core::runtime::DataplaneModel;
use pegasus_core::verify::VerifyReport;
use pegasus_datasets::peerrush;
use pegasus_net::{FrameBatch, Trace};
use pegasus_switch::SwitchConfig;
use std::time::Instant;

/// Verification outcome for one net.
struct NetResult {
    name: &'static str,
    compile_time: VerifyReport,
    on_switch: VerifyReport,
    /// Median wall time of the tofino2 verification, µs.
    verify_us: u128,
    flat: FlatCheck,
}

/// The flat-vs-simulator differential of one net.
enum FlatCheck {
    /// The net does not deploy on the switch model (why).
    Undeployable(String),
    /// Rows compared, rows that differed, and the program's shape.
    Compared {
        rows: usize,
        mismatches: usize,
        dense: usize,
        indexed: usize,
        columns: usize,
        walked: usize,
        limb_keys: usize,
        longest_run: usize,
    },
}

impl FlatCheck {
    fn compared(flat: &FlatProgram, rows: usize, mismatches: usize) -> FlatCheck {
        FlatCheck::Compared {
            rows,
            mismatches,
            dense: flat.dense_tables(),
            indexed: flat.indexed_tables(),
            columns: flat.column_tables(),
            walked: flat.register_tables(),
            limb_keys: flat.limb_keys(),
            longest_run: flat.longest_run(),
        }
    }
}

/// Rows the differential must cover for a net that flattens.
const MIN_DIFF_ROWS: usize = 500;
/// Rows it stops at (the simulator side costs tens of µs per row).
const MAX_DIFF_ROWS: usize = 4000;
/// Lanes per served run: a stateless net's rows per `classify_batch`, a
/// per-flow net's packets per `process_batch`.
const RUN: usize = 64;

/// Holds the flattened program to the simulator: on the training rows of
/// the feature family a stateless net is served with, on the training
/// trace's packets for a per-flow one.
fn differential<M: DataplaneNet>(
    name: &'static str,
    model: &M,
    artifact: &Artifact,
    data: &ModelData<'_>,
    trace: &Trace,
    switch: &SwitchConfig,
) -> FlatCheck {
    let pipeline = match artifact {
        Artifact::Single(pipeline) => pipeline,
        Artifact::Flow(pipeline) => return flow_differential(pipeline, trace, switch),
    };
    let dp = match DataplaneModel::deploy((**pipeline).clone(), switch) {
        Ok(dp) => dp,
        Err(e) => return FlatCheck::Undeployable(e.to_string()),
    };
    let flat = dp.flat().expect("a deployed pipeline is flattened");
    let view = match model.stream_features() {
        StreamFeatures::Stat => data.stat(name),
        StreamFeatures::Seq => data.seq(name),
    }
    .unwrap_or_else(|e| panic!("{name} has its serving view: {e}"));
    let rows = view.len().min(MAX_DIFF_ROWS);
    let mut scratch = flat.scratch();
    // A net is a classifier, a scorer, or both; each side must agree,
    // errors included.
    let mut mismatches = (0..rows)
        .filter(|&r| {
            let row = view.x.row(r);
            flat.classify(row, &mut scratch) != dp.simulate_classify(row)
                || flat.scores(row, &mut scratch) != dp.simulate_scores(row)
        })
        .count();
    // The served path: the same rows through `classify_batch`, `RUN` lanes
    // at a time and a ragged tail (a scorer's typed error must agree too).
    let (mut batch, mut classes) = (flat.batch_scratch(RUN), Vec::new());
    for start in (0..rows).step_by(RUN) {
        let run = start..rows.min(start + RUN);
        let codes: Vec<f32> = run.clone().flat_map(|r| view.x.row(r).iter().copied()).collect();
        let got = flat.classify_batch(&codes, run.len(), &mut batch, &mut classes);
        mismatches += run
            .enumerate()
            .filter(|&(j, r)| {
                got.clone().map(|()| classes[j]) != dp.simulate_classify(view.x.row(r))
            })
            .count();
    }
    FlatCheck::compared(flat, rows, mismatches)
}

/// The per-flow differential: two forks of one deployed classifier, each
/// with its own register file — one served runs of [`RUN`] packets through
/// the flattened program, the other the same packets one at a time through
/// the simulator — must hand every packet the same verdict.
fn flow_differential(
    pipeline: &pegasus_core::flowpipe::FlowPipeline,
    trace: &Trace,
    switch: &SwitchConfig,
) -> FlatCheck {
    let fc = match FlowClassifier::deploy(pipeline.clone(), switch) {
        Ok(fc) => fc,
        Err(e) => return FlatCheck::Undeployable(e.to_string()),
    };
    let flat = fc.flat();
    let (mut served, mut oracle) = (fc.fork(), fc.fork());
    let packets = &trace.packets[..trace.packets.len().min(MAX_DIFF_ROWS)];
    let mut batch = FrameBatch::with_capacity(RUN);
    let (mut verdicts, mut codes) = (Vec::new(), vec![0.0f32; pipeline.extractor_fields.len()]);
    let mut mismatches = 0;
    for run in packets.chunks(RUN) {
        batch.clear();
        for p in run {
            batch.append(p.flow, p.ts_micros, p.wire_len, p.tcp_flags, p.ttl, &p.payload_head);
        }
        served.process_batch(&batch, 0..run.len(), &mut verdicts).expect("a run is served");
        for (p, got) in run.iter().zip(&verdicts) {
            codes.fill(0.0);
            codes.iter_mut().zip(&p.payload_head).for_each(|(c, &b)| *c = f32::from(b));
            let want = oracle
                .on_packet_mut(p.flow.dataplane_hash(), p.ts_micros, p.wire_len, &codes)
                .expect("arity matches");
            mismatches += usize::from(*got != want.predicted);
        }
    }
    FlatCheck::compared(flat, packets.len(), mismatches)
}

fn check<M: DataplaneNet>(
    name: &'static str,
    data: &ModelData<'_>,
    trace: &Trace,
    opts: &CompileOptions,
    epochs: usize,
    seed: u64,
    switch: &SwitchConfig,
) -> NetResult {
    let settings = pegasus_core::models::TrainSettings { epochs, batch: 64, lr: 0.01, seed };
    let compiled = Pegasus::<M>::train(data, &settings)
        .unwrap_or_else(|e| panic!("{name} trains: {e}"))
        .options(opts.clone())
        .compile(data)
        .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
    let mut verify_us: Vec<u128> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(compiled.artifact().verify(Some(switch)));
            t.elapsed().as_micros()
        })
        .collect();
    verify_us.sort_unstable();
    NetResult {
        name,
        compile_time: compiled.artifact().verify(None),
        on_switch: compiled.artifact().verify(Some(switch)),
        verify_us: verify_us[2],
        flat: differential(name, compiled.model(), compiled.artifact(), data, trace, switch),
    }
}

fn summarize(r: &VerifyReport) -> String {
    let (e, w) = (r.errors().count(), r.warnings().count());
    let codes: Vec<&str> = {
        let mut c: Vec<&str> = r.diagnostics.iter().map(|d| d.code).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    if codes.is_empty() {
        "clean".to_string()
    } else {
        format!("{e} error(s), {w} warning(s) [{}]", codes.join(", "))
    }
}

fn main() -> std::process::ExitCode {
    let cfg = parse_args();
    let switch = SwitchConfig::tofino2();
    let opts =
        CompileOptions { clustering_depth: if cfg.quick { 5 } else { 6 }, ..Default::default() };
    let p = prepare(&peerrush(), &cfg);
    let bundle = ModelData::new()
        .with_stat(&p.train.stat)
        .with_seq(&p.train.seq)
        .with_raw(&p.train.raw)
        .with_validation(&p.val.stat, &p.val.seq);
    let epochs = cfg.train_settings().epochs;
    let seed = cfg.seed;

    let results = [
        check::<MlpB>("MLP-B", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
        check::<RnnB>("RNN-B", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
        check::<CnnB>("CNN-B", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
        check::<CnnM>("CNN-M", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
        check::<CnnL>("CNN-L", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
        check::<AutoEncoder>("AutoEncoder", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
        check::<Leo>("Leo", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
        check::<Bos>("BoS", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
        check::<N3ic>("N3IC", &bundle, &p.train_trace, &opts, epochs, seed, &switch),
    ];

    println!(
        "{:<12} {:<40} {:<40} {:>9} flat vs simulator (dense/indexed tables, column/lane-walked \
         tables, limb-split keys)",
        "net", "compile-time", "tofino2", "verify µs"
    );
    let mut failed = false;
    for r in &results {
        let flat = match &r.flat {
            FlatCheck::Undeployable(why) => format!("- (does not deploy: {why})"),
            FlatCheck::Compared {
                rows,
                mismatches,
                dense,
                indexed,
                columns,
                walked,
                limb_keys,
                longest_run,
            } => format!(
                "{mismatches} mismatch(es) on {rows} rows; {dense}/{indexed} tables, \
                 {columns}/{walked} column/walked, {limb_keys} limb key(s), longest run \
                 {longest_run}"
            ),
        };
        println!(
            "{:<12} {:<40} {:<40} {:>9} {flat}",
            r.name,
            summarize(&r.compile_time),
            summarize(&r.on_switch),
            r.verify_us
        );
        match &r.flat {
            FlatCheck::Compared { rows, mismatches, .. }
                if *mismatches > 0 || *rows < MIN_DIFF_ROWS =>
            {
                eprintln!(
                    "FAIL: {} flat vs simulator: {mismatches} mismatch(es) on {rows} rows \
                     (need 0 on at least {MIN_DIFF_ROWS})",
                    r.name
                );
                failed = true;
            }
            _ => {}
        }
        if r.compile_time.has_errors() {
            eprintln!("FAIL: {} has compile-time verifier errors:\n{}", r.name, r.compile_time);
            failed = true;
        }
        if r.name == "N3IC" {
            // The paper's stage-wall result: N3IC must be rejected by the
            // resource layer, and by exactly that layer.
            if !r.on_switch.has_code("V204") {
                eprintln!("FAIL: N3IC was expected to overflow tofino2 (V204):\n{}", r.on_switch);
                failed = true;
            }
        } else if r.on_switch.has_errors() {
            eprintln!("FAIL: {} does not verify on tofino2:\n{}", r.name, r.on_switch);
            failed = true;
        }
    }
    if failed {
        return std::process::ExitCode::FAILURE;
    }
    println!(
        "all nets verified: 8/8 clean on tofino2, N3IC rejected by V204 as expected, \
         0 flat-vs-simulator mismatches"
    );
    std::process::ExitCode::SUCCESS
}
