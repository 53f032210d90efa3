//! `pegasusd`: the daemon that owns the engine.
//!
//! One daemon process owns one [`EngineServer`] plus one state directory
//! (see [`registry`](crate::registry)) and serves the
//! [`protocol`](crate::protocol) verbs over a Unix domain socket,
//! **sequentially** — one connection, one request at a time. Control
//! verbs are rare and already serialized inside the engine's dispatcher
//! lock, so a single-threaded accept loop buys freedom from daemon-side
//! locking at zero practical cost; the dataplane parallelism lives in
//! the engine's shard threads, not here.
//!
//! # Crash recovery
//!
//! Every verb persists its effect to the registry **before** it is
//! acknowledged, so the registry always describes what the operator was
//! last told. On start the daemon replays it: for each tenant record (in
//! attach order) it re-reads the artifact file, re-checks the `PEGA`
//! header, re-deploys against the embedded switch model — which re-runs
//! static verification over the program it is about to serve — and
//! re-attaches under the recorded route and flow-table config. A tenant whose artifact fails any of those steps
//! comes back [`Degraded`](TenantRuntime::Degraded) with a typed
//! [`DegradedReason`] — visible in `list`, refusing `swap`, and
//! clearable with `detach` — instead of silently disappearing from the
//! serving set.
//!
//! Engine tenant tokens are process-local and **renumber across
//! restarts**; the durable tenant identity is its name.

use crate::artifact::ArtifactFile;
use crate::protocol::{
    read_frame, write_frame, ArtifactInfo, DegradedReason, ErrorKind, ErrorReply, FrameError,
    ListReply, Request, Response, TenantInfo, TenantState, WireTenantConfig, WireTenantReport,
};
use crate::registry::{ArtifactRecord, Registry, RegistryError, TenantRecord};
use pegasus_core::engine::server::TenantReport;
use pegasus_core::{
    ControlHandle, EngineBuilder, EngineServer, IngressHandle, PegasusError, TenantConfig,
    TenantToken,
};
use pegasus_net::{PcapSource, RouteSummary};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// How long a connected client may sit silent before the daemon drops
/// the connection and serves the next one. The accept loop is
/// sequential; this bounds how long a wedged client can monopolize it.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Daemon startup configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// State directory (registry + artifact files). Created if missing.
    pub state_dir: PathBuf,
    /// Unix-socket path to listen on. A stale socket file is unlinked.
    pub socket: PathBuf,
    /// Engine shard threads.
    pub shards: usize,
    /// Engine batch size (packets per shard hand-off).
    pub batch: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            state_dir: PathBuf::from("pegasus-state"),
            socket: PathBuf::from("pegasusd.sock"),
            shards: 2,
            batch: 64,
        }
    }
}

/// Why the daemon could not start.
#[derive(Debug)]
pub enum DaemonError {
    /// The state directory is unusable.
    Registry(RegistryError),
    /// The engine failed to start.
    Engine(PegasusError),
    /// The socket could not be bound.
    Bind {
        /// Socket path.
        path: PathBuf,
        /// Bind failure.
        error: std::io::Error,
    },
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Registry(e) => write!(f, "state directory: {e}"),
            DaemonError::Engine(e) => write!(f, "engine: {e}"),
            DaemonError::Bind { path, error } => {
                write!(f, "cannot bind {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for DaemonError {}

/// A registered tenant's in-process state.
#[derive(Debug)]
pub enum TenantRuntime {
    /// Attached to the engine and routing packets (the engine knows the
    /// rest — epoch, counters — under this token).
    Serving {
        /// Engine token (process-local).
        token: TenantToken,
    },
    /// Registered on disk but refused at recovery.
    Degraded {
        /// The typed refusal.
        reason: DegradedReason,
    },
}

/// What recovery did, for the startup banner and tests.
#[derive(Debug, Default)]
pub struct RecoverySummary {
    /// Tenants re-attached and serving.
    pub serving: Vec<String>,
    /// Tenants that came back degraded, with reasons.
    pub degraded: Vec<(String, DegradedReason)>,
}

/// The daemon: engine + registry + runtime tenant states.
pub struct Daemon {
    registry: Registry,
    server: Option<EngineServer>,
    control: ControlHandle,
    ingress: IngressHandle,
    tenants: HashMap<String, TenantRuntime>,
    socket: PathBuf,
}

fn engine_error_kind(e: &PegasusError) -> ErrorKind {
    match e {
        PegasusError::UnknownTenant { .. } => ErrorKind::UnknownTenant,
        PegasusError::Verify { .. } => ErrorKind::Verify,
        PegasusError::StateBudget { .. } => ErrorKind::StateBudget,
        PegasusError::NotAClassifier { .. } => ErrorKind::NotAClassifier,
        PegasusError::InvalidConfig { .. } => ErrorKind::BadRequest,
        _ => ErrorKind::Engine,
    }
}

fn engine_error(e: PegasusError) -> ErrorReply {
    ErrorReply { kind: engine_error_kind(&e), message: e.to_string() }
}

fn registry_error(e: RegistryError) -> ErrorReply {
    ErrorReply { kind: ErrorKind::Io, message: format!("registry: {e}") }
}

fn wire_tenant_report(t: TenantReport) -> WireTenantReport {
    let (report, error) = match t.result {
        Ok(r) => (Some(r), None),
        Err(e) => (None, Some(e.to_string())),
    };
    WireTenantReport {
        token: t.token.id(),
        name: t.name,
        epoch: t.epoch,
        routed_packets: t.routed_packets,
        report,
        error,
    }
}

fn artifact_info(r: &ArtifactRecord) -> ArtifactInfo {
    ArtifactInfo {
        name: r.name.clone(),
        version: r.version,
        net: r.net.clone(),
        kind: r.kind.clone(),
        bytes: r.bytes,
    }
}

fn tenant_config(record: &TenantRecord) -> TenantConfig {
    let mut cfg = TenantConfig::new()
        .name(&record.name)
        .route(record.route.clone())
        .record_predictions(record.record_predictions);
    if let Some(slots) = record.flow_capacity {
        cfg = cfg.flow_capacity(slots);
    }
    if let Some(packets) = record.idle_timeout_packets {
        cfg = cfg.idle_timeout_packets(packets);
    }
    cfg
}

impl Daemon {
    /// Opens the state directory, starts the engine, and replays the
    /// registry (see the module docs for the recovery contract).
    pub fn start(config: &DaemonConfig) -> Result<(Daemon, RecoverySummary), DaemonError> {
        let registry = Registry::open(&config.state_dir).map_err(DaemonError::Registry)?;
        let server = EngineBuilder::new()
            .shards(config.shards)
            .batch(config.batch)
            .build()
            .map_err(DaemonError::Engine)?;
        let control = server.control();
        let ingress = server.ingress();
        let mut daemon = Daemon {
            registry,
            server: Some(server),
            control,
            ingress,
            tenants: HashMap::new(),
            socket: config.socket.clone(),
        };
        let summary = daemon.recover();
        Ok((daemon, summary))
    }

    /// Replays the registry's tenants in attach order. Failures degrade
    /// the tenant; they never abort daemon startup — an operator with
    /// one bad artifact still gets every other tenant back.
    fn recover(&mut self) -> RecoverySummary {
        let mut summary = RecoverySummary::default();
        let records = self.registry.state().tenants.clone();
        for record in records {
            match self.reattach(&record) {
                Ok(token) => {
                    summary.serving.push(record.name.clone());
                    self.tenants.insert(record.name, TenantRuntime::Serving { token });
                }
                Err(reason) => {
                    summary.degraded.push((record.name.clone(), reason.clone()));
                    self.tenants.insert(record.name, TenantRuntime::Degraded { reason });
                }
            }
        }
        summary
    }

    /// One tenant's recovery: every step that can reject gets its own
    /// typed reason.
    fn reattach(&self, record: &TenantRecord) -> Result<TenantToken, DegradedReason> {
        let Some(art) = self.registry.find_artifact(&record.artifact) else {
            return Err(DegradedReason::MissingArtifact { artifact: record.artifact.clone() });
        };
        let path = self.registry.artifact_path(art);
        let bytes = fs::read(&path)
            .map_err(|e| DegradedReason::Io { message: format!("{}: {e}", path.display()) })?;
        let file = ArtifactFile::from_bytes(&bytes)
            .map_err(|e| DegradedReason::Format { message: e.to_string() })?;
        let attached = file.deploy().and_then(|a| self.control.attach(a, tenant_config(record)));
        // `attach` verifies the content at its first admission; its typed
        // refusal is the reason.
        attached.map_err(|e| match e {
            PegasusError::Verify { report } => {
                DegradedReason::Verify { errors: report.errors().count() as u64 }
            }
            e => DegradedReason::Attach { message: e.to_string() },
        })
    }

    /// Binds the socket and serves requests until a `shutdown` verb,
    /// then drains the engine. Consumes the daemon.
    pub fn run(mut self) -> Result<(), DaemonError> {
        // A previous daemon that died hard (kill -9) leaves its socket
        // file behind; it is address, not state — safe to unlink.
        let _ = fs::remove_file(&self.socket);
        let listener = UnixListener::bind(&self.socket)
            .map_err(|error| DaemonError::Bind { path: self.socket.clone(), error })?;
        let mut quit = false;
        while !quit {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => continue,
            };
            let _ = stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT));
            quit = self.serve_connection(stream);
        }
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        let _ = fs::remove_file(&self.socket);
        Ok(())
    }

    /// Serves one connection until the peer hangs up or a frame goes
    /// bad. Returns true when a `shutdown` verb was served.
    ///
    /// Hostile input lands here, and the contract is: **never panic,
    /// never wedge**. Garbage inside an intact frame gets a typed
    /// `bad-request` reply and the connection lives on; a broken frame
    /// layer (truncated prefix/body, oversized length, timeout) gets a
    /// best-effort error reply and the connection is dropped, because
    /// framing sync is gone.
    fn serve_connection(&mut self, mut stream: UnixStream) -> bool {
        loop {
            let body = match read_frame(&mut stream) {
                Ok(Some(body)) => body,
                Ok(None) => return false,
                Err(e) => {
                    let reply = Response::Error(ErrorReply {
                        kind: ErrorKind::BadRequest,
                        message: frame_error_message(&e),
                    });
                    let _ = write_frame(&mut stream, &serde::to_bytes(&reply));
                    return false;
                }
            };
            let request = match serde::from_bytes::<Request>(&body) {
                Ok(request) => request,
                Err(e) => {
                    let reply = Response::Error(ErrorReply {
                        kind: ErrorKind::BadRequest,
                        message: format!("undecodable request: {e}"),
                    });
                    if write_frame(&mut stream, &serde::to_bytes(&reply)).is_err() {
                        return false;
                    }
                    continue;
                }
            };
            let (response, quit) = self.handle(request);
            if write_frame(&mut stream, &serde::to_bytes(&response)).is_err() {
                return quit;
            }
            if quit {
                return true;
            }
        }
    }

    /// Dispatches one verb. The bool asks the accept loop to exit.
    fn handle(&mut self, request: Request) -> (Response, bool) {
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Load { name, artifact } => self.load(&name, &artifact),
            Request::Attach { tenant, artifact, config } => self.attach(&tenant, &artifact, config),
            Request::Swap { tenant, artifact } => self.swap(&tenant, &artifact),
            Request::Detach { tenant } => self.detach(&tenant),
            Request::List => self.list(),
            Request::Stats => match self.control.stats() {
                Ok(stats) => Response::Stats(stats),
                Err(e) => Response::Error(engine_error(e)),
            },
            Request::IngestPcap { path } => self.ingest_pcap(&path),
            Request::Shutdown => return (Response::ShuttingDown, true),
        };
        (response, false)
    }

    fn load(&mut self, name: &str, bytes: &[u8]) -> Response {
        let file = match ArtifactFile::from_bytes(bytes) {
            Ok(file) => file,
            Err(e) => {
                return Response::Error(ErrorReply {
                    kind: ErrorKind::ArtifactFormat,
                    message: e.to_string(),
                })
            }
        };
        let errors = file.verify_errors();
        if errors > 0 {
            return Response::Error(ErrorReply {
                kind: ErrorKind::Verify,
                message: format!("artifact failed verification with {errors} error(s)"),
            });
        }
        match self.registry.store_artifact(name, bytes, &file) {
            Ok(record) => Response::Loaded(artifact_info(&record)),
            Err(e) => Response::Error(registry_error(e)),
        }
    }

    /// Reads a loaded artifact back off disk and deploys it, classifying
    /// each failure. Shared by attach and swap.
    fn deploy_named(&self, artifact: &str) -> Result<pegasus_core::EngineArtifact, ErrorReply> {
        let Some(record) = self.registry.find_artifact(artifact) else {
            return Err(ErrorReply {
                kind: ErrorKind::UnknownArtifact,
                message: format!("no loaded artifact named '{artifact}'"),
            });
        };
        let path = self.registry.artifact_path(record);
        let bytes = fs::read(&path).map_err(|e| ErrorReply {
            kind: ErrorKind::Io,
            message: format!("{}: {e}", path.display()),
        })?;
        let file = ArtifactFile::from_bytes(&bytes)
            .map_err(|e| ErrorReply { kind: ErrorKind::ArtifactFormat, message: e.to_string() })?;
        file.deploy().map_err(engine_error)
    }

    fn attach(&mut self, tenant: &str, artifact: &str, config: WireTenantConfig) -> Response {
        if self.tenants.contains_key(tenant) {
            return Response::Error(ErrorReply {
                kind: ErrorKind::DuplicateTenant,
                message: format!("tenant '{tenant}' already exists (detach it first)"),
            });
        }
        let engine_artifact = match self.deploy_named(artifact) {
            Ok(a) => a,
            Err(e) => return Response::Error(e),
        };
        let record = TenantRecord {
            name: tenant.to_string(),
            artifact: artifact.to_string(),
            route: config.route,
            record_predictions: config.record_predictions,
            flow_capacity: config.flow_capacity,
            idle_timeout_packets: config.idle_timeout_packets,
        };
        let token = match self.control.attach(engine_artifact, tenant_config(&record)) {
            Ok(token) => token,
            Err(e) => return Response::Error(engine_error(e)),
        };
        // Persist only after the engine accepted: the registry must
        // never promise recovery of a tenant that was never serving.
        if let Err(e) = self.registry.record_attach(record) {
            let _ = self.control.detach(token);
            return Response::Error(registry_error(e));
        }
        self.tenants.insert(tenant.to_string(), TenantRuntime::Serving { token });
        Response::Attached { tenant: tenant.to_string(), token: token.id(), epoch: 0 }
    }

    fn swap(&mut self, tenant: &str, artifact: &str) -> Response {
        let token = match self.tenants.get(tenant) {
            Some(TenantRuntime::Serving { token }) => *token,
            Some(TenantRuntime::Degraded { reason }) => {
                return Response::Error(ErrorReply {
                    kind: ErrorKind::Degraded,
                    message: format!(
                        "tenant '{tenant}' is degraded ({reason}); detach and re-attach it"
                    ),
                })
            }
            None => {
                return Response::Error(ErrorReply {
                    kind: ErrorKind::UnknownTenant,
                    message: format!("no tenant named '{tenant}'"),
                })
            }
        };
        let engine_artifact = match self.deploy_named(artifact) {
            Ok(a) => a,
            Err(e) => return Response::Error(e),
        };
        let swap = match self.control.swap(token, engine_artifact) {
            Ok(swap) => swap,
            Err(e) => return Response::Error(engine_error(e)),
        };
        if let Err(e) = self.registry.record_swap(tenant, artifact) {
            return Response::Error(registry_error(e));
        }
        Response::Swapped {
            tenant: tenant.to_string(),
            epoch: swap.epoch,
            state_retained: swap.state_retained,
            apply_micros: swap.apply_micros,
        }
    }

    fn detach(&mut self, tenant: &str) -> Response {
        match self.tenants.get(tenant) {
            Some(TenantRuntime::Serving { token }) => {
                let token = *token;
                let report = match self.control.detach(token) {
                    Ok(report) => report,
                    Err(e) => return Response::Error(engine_error(e)),
                };
                if let Err(e) = self.registry.record_detach(tenant) {
                    return Response::Error(registry_error(e));
                }
                self.tenants.remove(tenant);
                Response::Detached(Box::new(wire_tenant_report(report)))
            }
            // Detaching a degraded tenant clears its registration — the
            // operator's path out of the degraded state.
            Some(TenantRuntime::Degraded { reason }) => {
                let error = Some(reason.to_string());
                if let Err(e) = self.registry.record_detach(tenant) {
                    return Response::Error(registry_error(e));
                }
                self.tenants.remove(tenant);
                Response::Detached(Box::new(WireTenantReport {
                    token: 0,
                    name: tenant.to_string(),
                    epoch: 0,
                    routed_packets: 0,
                    report: None,
                    error,
                }))
            }
            None => Response::Error(ErrorReply {
                kind: ErrorKind::UnknownTenant,
                message: format!("no tenant named '{tenant}'"),
            }),
        }
    }

    fn list(&self) -> Response {
        let state = self.registry.state();
        let artifacts = state.artifacts.iter().map(artifact_info).collect();
        let tenants = state
            .tenants
            .iter()
            .map(|record| {
                let state = match self.tenants.get(&record.name) {
                    Some(TenantRuntime::Serving { token }) => {
                        match self.control.tenant_stats(*token) {
                            Ok(live) => {
                                TenantState::Serving { token: token.id(), epoch: live.epoch }
                            }
                            Err(e) => TenantState::Degraded {
                                reason: DegradedReason::Attach { message: e.to_string() },
                            },
                        }
                    }
                    Some(TenantRuntime::Degraded { reason }) => {
                        TenantState::Degraded { reason: reason.clone() }
                    }
                    // Registered but unknown to the runtime: recovery
                    // never saw it, which cannot happen short of a bug —
                    // surface it as degraded rather than hide it.
                    None => TenantState::Degraded {
                        reason: DegradedReason::Attach {
                            message: "tenant missing from runtime".to_string(),
                        },
                    },
                };
                TenantInfo {
                    name: record.name.clone(),
                    artifact: record.artifact.clone(),
                    state,
                    route: RouteSummary::of(&record.route),
                }
            })
            .collect();
        Response::Listing(ListReply { artifacts, tenants })
    }

    fn ingest_pcap(&mut self, path: &str) -> Response {
        let mut source = match PcapSource::open(path) {
            Ok(source) => source,
            Err(e) => {
                return Response::Error(ErrorReply {
                    kind: ErrorKind::Io,
                    message: format!("{path}: {e}"),
                })
            }
        };
        if let Err(e) = self.ingress.push_frame_source(&mut source) {
            return Response::Error(engine_error(e));
        }
        if let Err(e) = self.ingress.flush() {
            return Response::Error(engine_error(e));
        }
        Response::Ingested { frames: source.records() }
    }
}

fn frame_error_message(e: &FrameError) -> String {
    format!("unreadable frame: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactPayload;
    use std::sync::Arc;

    /// Recovery deploys each recorded artifact exactly once, and a file that
    /// decodes but no longer verifies degrades its tenant with the typed
    /// `Verify` reason `deploy` itself reports — no separate verifier pass.
    #[test]
    fn corrupt_artifact_file_recovers_degraded_with_the_verify_reason() {
        let dir = std::env::temp_dir().join(format!("pegasus-recover-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = DaemonConfig {
            state_dir: dir.join("state"),
            socket: dir.join("ctl.sock"),
            shards: 1,
            batch: 16,
        };
        let mut file = crate::build::compile_mlp_b(7).expect("compiles");

        let (mut daemon, _) = Daemon::start(&config).expect("daemon starts");
        assert!(matches!(daemon.load("mlp", &file.to_bytes()), Response::Loaded(_)));
        let attached = daemon.attach("t0", "mlp", WireTenantConfig::default());
        assert!(matches!(attached, Response::Attached { .. }), "{attached:?}");
        let record = daemon.registry.find_artifact("mlp").expect("recorded");
        let path = daemon.registry.artifact_path(record);
        daemon.server.take().expect("running").shutdown().expect("drains");

        // Bit rot that still decodes: an entry naming a nonexistent action.
        let ArtifactPayload::Stateless { pipeline, .. } = &mut file.payload else {
            panic!("MLP-B is stateless")
        };
        let tables = &mut Arc::make_mut(&mut pipeline.program).tables;
        tables.iter_mut().find(|t| !t.entries.is_empty()).expect("entries").entries[0].action_idx =
            999;
        let errors = file.verify_errors();
        assert!(errors > 0);
        fs::write(&path, file.to_bytes()).expect("overwrite artifact");

        let (mut daemon, summary) = Daemon::start(&config).expect("daemon restarts");
        assert!(summary.serving.is_empty());
        assert_eq!(summary.degraded, [("t0".to_string(), DegradedReason::Verify { errors })]);
        daemon.server.take().expect("running").shutdown().expect("drains");
        let _ = fs::remove_dir_all(&dir);
    }
}
