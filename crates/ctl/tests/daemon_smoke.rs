//! End-to-end daemon smoke: the full `pegasusd`/`pegasusctl` lifecycle
//! over a real Unix socket, with a real `kill -9` in the middle.
//!
//! The script mirrors an operator session:
//!
//! 1. compile MLP-B (in this test process) into an artifact file;
//! 2. start `pegasusd` on a fresh state dir; `pegasusctl load` +
//!    `attach`;
//! 3. `ingest-pcap` the golden capture; stats must show all 338 frames
//!    routed with zero parse rejections;
//! 4. `load` a retrained artifact and `swap` the tenant onto it;
//! 5. **kill -9** the daemon, restart it on the same state dir, and
//!    check the tenant came back serving the swapped artifact;
//! 6. ingest the capture again and detach: the recovered tenant's
//!    per-flow verdict sequences must be **bit-identical** to a fresh
//!    in-process engine serving the same artifact bytes.

use pegasus_core::{EngineBuilder, TenantConfig};
use pegasus_ctl::artifact::ArtifactFile;
use pegasus_ctl::build::compile_mlp_b;
use pegasus_ctl::client::CtlClient;
use pegasus_ctl::protocol::{Request, Response, TenantState};
use pegasus_net::{FiveTuple, PcapSource, RoutePredicate};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn golden_pcap() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden.pcap")
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pegasus-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn spawn_daemon(state: &Path, socket: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_pegasusd"))
        .arg("--state-dir")
        .arg(state)
        .arg("--socket")
        .arg(socket)
        .arg("--shards")
        .arg("2")
        .stdout(Stdio::null())
        .spawn()
        .expect("pegasusd spawns")
}

fn wait_for_socket(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut client) = CtlClient::connect(socket) {
            if matches!(client.call(&Request::Ping), Ok(Response::Pong)) {
                return;
            }
        }
        assert!(Instant::now() < deadline, "daemon never answered on {}", socket.display());
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs one `pegasusctl` invocation, asserting exit success, and returns
/// its stdout.
fn ctl(socket: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_pegasusctl"))
        .arg("--socket")
        .arg(socket)
        .args(args)
        .output()
        .expect("pegasusctl runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "pegasusctl {args:?} failed\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// One short-lived stats call — the daemon serves connections one at a
/// time, so pollers must not hold theirs open.
fn stats_snapshot(socket: &Path) -> pegasus_core::EngineStats {
    let mut client = CtlClient::connect(socket).expect("connect for stats");
    match client.call(&Request::Stats).expect("stats call") {
        Response::Stats(stats) => stats,
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// Polls until the named tenant's worker-side packet counter reaches
/// `packets` (stats publish on a cadence and on queue drain).
fn await_tenant_packets(socket: &Path, tenant: &str, packets: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = stats_snapshot(socket);
        if let Some(t) = stats.tenants.iter().find(|t| t.name == tenant) {
            if t.report.packets >= packets {
                assert_eq!(t.report.packets, packets, "tenant saw more packets than ingested");
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "tenant '{tenant}' never reached {packets} packets; stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The reference: a fresh in-process engine serving the same artifact
/// bytes over the same capture, predictions recorded.
fn reference_predictions(artifact_path: &Path) -> HashMap<FiveTuple, Vec<usize>> {
    let bytes = std::fs::read(artifact_path).expect("artifact file reads");
    let file = ArtifactFile::from_bytes(&bytes).expect("artifact file decodes");
    let server = EngineBuilder::new().shards(2).build().expect("engine starts");
    let control = server.control();
    let token = control
        .attach(
            file.deploy().expect("artifact deploys"),
            TenantConfig::new()
                .name("reference")
                .route(RoutePredicate::Any)
                .record_predictions(true),
        )
        .expect("reference attaches");
    let ingress = server.ingress();
    let mut source = PcapSource::open(golden_pcap()).expect("golden capture opens");
    ingress.push_frame_source(&mut source).expect("frames push");
    ingress.flush().expect("flush");
    let report = control.detach(token).expect("reference detaches");
    let stream = report.result.expect("reference tenant healthy");
    server.shutdown().expect("reference engine stops");
    stream.predictions.expect("reference recorded predictions")
}

#[test]
fn full_lifecycle_with_kill_9_recovery() {
    let dir = temp_dir();
    let state = dir.join("state");
    let socket = dir.join("ctl.sock");
    let golden = golden_pcap();
    assert!(golden.exists(), "golden fixture missing: {}", golden.display());

    // Two artifacts from different training runs: the original and the
    // "retrained" swap target. Compiled here (test profile) rather than
    // via `pegasusctl load --net`, which would train inside the
    // lightly-optimized CLI binary.
    let art1_path = dir.join("mlp-seed7.pa");
    let art2_path = dir.join("mlp-seed8.pa");
    std::fs::write(&art1_path, compile_mlp_b(7).expect("seed-7 compiles").to_bytes())
        .expect("write artifact 1");
    std::fs::write(&art2_path, compile_mlp_b(8).expect("seed-8 compiles").to_bytes())
        .expect("write artifact 2");

    // --- First daemon life: load, attach, ingest, stats, swap. ---
    let mut daemon = spawn_daemon(&state, &socket);
    wait_for_socket(&socket);

    let out = ctl(&socket, &["load", "mlp", "--file", art1_path.to_str().expect("utf8 path")]);
    assert!(out.contains("loaded mlp v1"), "unexpected load output: {out}");

    let out = ctl(&socket, &["attach", "t0", "mlp", "--record"]);
    assert!(out.contains("attached t0"), "unexpected attach output: {out}");

    let out = ctl(&socket, &["ingest-pcap", golden.to_str().expect("utf8 path")]);
    assert!(out.contains("ingested 338 frames"), "unexpected ingest output: {out}");

    // All 338 golden frames parse, route to t0, and get processed.
    await_tenant_packets(&socket, "t0", 338);
    let stats = stats_snapshot(&socket);
    assert_eq!(stats.parse_errors.total(), 0, "golden capture must parse cleanly");
    assert_eq!(stats.unrouted, 0, "catch-all tenant must receive every frame");
    let t0 = stats.tenants.iter().find(|t| t.name == "t0").expect("t0 listed");
    assert_eq!(t0.routed_packets, 338);
    assert_eq!(t0.epoch, 0);
    assert!(!t0.failed);
    // The stats verb carries the fleet routing counters: every golden
    // frame hit the compiled catch-all slot, never the residual scan.
    assert_eq!(stats.routing.catchall_hits, 338);
    assert_eq!(stats.routing.residual_hits, 0);
    assert!(stats.routing.rebuilds >= 1, "attach must rebuild the router");
    assert_eq!(stats.artifacts.tenants, 1);
    assert_eq!(stats.artifacts.unique_artifacts, 1);

    let out = ctl(&socket, &["load", "mlp2", "--file", art2_path.to_str().expect("utf8 path")]);
    assert!(out.contains("loaded mlp2 v1"), "unexpected load output: {out}");
    let out = ctl(&socket, &["swap", "t0", "mlp2"]);
    assert!(out.contains("swapped t0 to epoch 1"), "unexpected swap output: {out}");

    // --- kill -9: no drain, no goodbye. ---
    daemon.kill().expect("SIGKILL delivered");
    daemon.wait().expect("daemon reaped");

    // --- Second daemon life: recovery from the registry alone. ---
    let mut daemon = spawn_daemon(&state, &socket);
    wait_for_socket(&socket);

    {
        let mut client = CtlClient::connect(&socket).expect("connect for list");
        match client.call(&Request::List).expect("list call") {
            Response::Listing(listing) => {
                let names: Vec<&str> = listing.artifacts.iter().map(|a| a.name.as_str()).collect();
                assert_eq!(names, ["mlp", "mlp2"], "both artifacts survive the crash");
                assert_eq!(listing.tenants.len(), 1);
                let tenant = &listing.tenants[0];
                assert_eq!(tenant.name, "t0");
                assert_eq!(tenant.artifact, "mlp2", "recovery honors the pre-crash swap");
                assert!(
                    matches!(tenant.state, TenantState::Serving { .. }),
                    "t0 must come back serving, got {:?}",
                    tenant.state
                );
                // The compiled route summary is derived from the recovered
                // registry record: the catch-all predicate survived kill -9.
                assert!(tenant.route.catch_all, "route summary lost in recovery");
                assert_eq!(tenant.route.residual, 0);
            }
            other => panic!("expected Listing, got {other:?}"),
        }
    }

    // The recovered tenant serves again...
    {
        let mut client = CtlClient::connect(&socket).expect("connect for ingest");
        match client
            .call(&Request::IngestPcap { path: golden.display().to_string() })
            .expect("ingest call")
        {
            Response::Ingested { frames } => assert_eq!(frames, 338),
            other => panic!("expected Ingested, got {other:?}"),
        }
    }
    await_tenant_packets(&socket, "t0", 338);

    // ...and its verdicts are bit-identical to a fresh engine serving
    // the same artifact bytes (the swapped-in mlp2).
    let recovered = {
        let mut client = CtlClient::connect(&socket).expect("connect for detach");
        match client.call(&Request::Detach { tenant: "t0".into() }).expect("detach call") {
            Response::Detached(report) => {
                assert!(report.error.is_none(), "recovered tenant failed: {:?}", report.error);
                let stream = report.report.expect("detach returns the final report");
                assert_eq!(stream.packets, 338);
                stream.predictions.expect("record_predictions survived recovery")
            }
            other => panic!("expected Detached, got {other:?}"),
        }
    };
    let reference = reference_predictions(&art2_path);
    assert_eq!(
        recovered, reference,
        "recovered daemon's per-flow verdict sequences diverge from the reference engine"
    );

    let out = ctl(&socket, &["shutdown"]);
    assert!(out.contains("daemon shutting down"), "unexpected shutdown output: {out}");
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
