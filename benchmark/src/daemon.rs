//! Daemon parity: the same capture through a real `Daemon` over its Unix
//! socket — `load` → `attach` → `ingest-pcap` → `detach` via `CtlClient` —
//! must serve exactly what the direct engine pass serves.

use crate::capture::Capture;
use crate::reenact::{Outcome, TenantOutcome};
use pegasus_ctl::client::{expect_ok, CtlClient};
use pegasus_ctl::daemon::{Daemon, DaemonConfig};
use pegasus_ctl::protocol::{Request, Response, WireTenantConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// What the daemon served, and how fast.
pub struct Parity {
    /// The detach report's totals and verdicts, as a one-tenant outcome.
    /// Unrouted and reject totals stay zero: the detach report carries
    /// none, and the parity capture has neither.
    pub outcome: Outcome,
    /// Frames ÷ wall from the `ingest-pcap` request to the `detach` reply.
    pub ingest_pcap_kpps: f64,
}

fn call(client: &mut CtlClient, request: &Request) -> Response {
    let reply = client.call(request).expect("daemon replies");
    expect_ok(reply).unwrap_or_else(|e| panic!("daemon refused {request:?}: {e}"))
}

/// Runs the parity pass under `dir` (created, then removed). The daemon's
/// accept loop runs on a thread of its own for the duration; it is shut
/// down and joined before this returns.
pub fn parity(artifact: &[u8], capture: &Capture, dir: &Path) -> Parity {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("parity directory is creatable");
    let pcap = dir.join("capture.pcap");
    std::fs::write(&pcap, &capture.bytes).expect("capture is writable");
    let config =
        DaemonConfig { state_dir: dir.join("state"), socket: dir.join("s"), shards: 1, batch: 64 };
    let (daemon, _) = Daemon::start(&config).expect("daemon starts");
    let server = std::thread::spawn(move || daemon.run());

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut client = loop {
        match CtlClient::connect(&config.socket) {
            Ok(client) => break client,
            Err(e) => assert!(Instant::now() < deadline, "daemon never listened: {e}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    call(&mut client, &Request::Load { name: "net".to_string(), artifact: artifact.to_vec() });
    let config_wire = WireTenantConfig { record_predictions: true, ..WireTenantConfig::default() };
    call(
        &mut client,
        &Request::Attach {
            tenant: "t0".to_string(),
            artifact: "net".to_string(),
            config: config_wire,
        },
    );
    let t0 = Instant::now();
    let ingested =
        call(&mut client, &Request::IngestPcap { path: pcap.to_string_lossy().into_owned() });
    let detached = call(&mut client, &Request::Detach { tenant: "t0".to_string() });
    let wall = t0.elapsed().as_secs_f64();
    call(&mut client, &Request::Shutdown);
    server.join().expect("daemon thread joins").expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(dir);

    let frames = match ingested {
        Response::Ingested { frames } => frames,
        other => panic!("ingest-pcap answered {other:?}"),
    };
    let report = match detached {
        Response::Detached(report) => report.report.expect("tenant served without error"),
        other => panic!("detach answered {other:?}"),
    };
    Parity {
        outcome: Outcome {
            frames,
            tenants: vec![TenantOutcome {
                packets: report.packets,
                classified: report.classified,
                predictions: report.predictions.unwrap_or_default(),
            }],
            ..Outcome::default()
        },
        ingest_pcap_kpps: frames as f64 / wall / 1e3,
    }
}
