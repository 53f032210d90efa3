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
//! # One admission per content
//!
//! `load` decodes the file and has the engine admit its content — the
//! one verifier run, the flatten inside it — before it stores the file,
//! so a refused artifact leaves nothing on disk. The daemon then pins
//! the admitted content under the name ([`Admission`]): `attach` and
//! `swap` hand the engine a clone, served by the resident, and read no
//! file, run no verifier, encode nothing and compare no bytes: the clone
//! shares the content bytes the resident was admitted on.
//!
//! # Crash recovery
//!
//! Every verb persists its effect to the registry **before** it is
//! acknowledged, so the registry always describes what the operator was
//! last told — across a process crash (`kill -9`), an OS crash or a power
//! loss: each registry and artifact write is synced, file and directory,
//! before it returns (see [`registry`](crate::registry)). On start the
//! daemon replays it, tenant records in attach order: each artifact
//! name's first use reads, decodes and admits its file once, against the
//! embedded switch model, and every tenant re-attaches under its recorded
//! route and flow-table config. A tenant whose artifact fails any of
//! those steps comes back [`Degraded`](TenantRuntime::Degraded) with a
//! typed [`DegradedReason`] — visible in `list`, refusing `swap`, and
//! clearable with `detach` — instead of silently disappearing from the
//! serving set.
//!
//! # Order and undo
//!
//! Each mutating verb orders its engine call and its registry write so
//! that a failed write leaves the engine where the registry is:
//!
//! * `attach` and `swap` go to the engine first, then persist. On a failed
//!   write `attach` detaches the new tenant again, and `swap` swaps the
//!   tenant back to its recorded artifact (pinned, so no verifier runs);
//!   the `io` reply names the undo's epoch, or says the undo failed too.
//! * `detach` persists first, then goes to the engine: a failed write
//!   changes nothing, and the tenant serves on under the same token.
//!
//! So after a failed write the reply (`io`), `list` and the engine agree,
//! and a restart brings back the same tenants on the same artifacts.
//!
//! Engine tenant tokens are process-local and **renumber across
//! restarts**; the durable tenant identity is its name.

use crate::artifact::ArtifactFile;
use crate::protocol::{
    read_frame, write_frame, ArtifactInfo, DegradedReason, ErrorKind, ErrorReply, ListReply,
    Request, Response, TenantInfo, TenantState, WireTenantConfig, WireTenantReport,
};
use crate::registry::{ArtifactRecord, Registry, RegistryError, TenantRecord};
use pegasus_core::engine::server::TenantReport;
use pegasus_core::{
    Admission, ControlHandle, EngineArtifact, EngineBuilder, EngineServer, IngressHandle,
    PegasusError, TenantConfig, TenantToken,
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
    /// Each loaded artifact name's content, pinned resident in the engine.
    pinned: HashMap<String, (EngineArtifact, Admission)>,
    socket: PathBuf,
}

/// Why an artifact name did not resolve to admitted content.
enum Unresolved {
    /// Not loaded, or its file is unreadable or undecodable.
    File(DegradedReason),
    /// The engine refused the content.
    Engine(PegasusError),
}

fn engine_error(e: PegasusError) -> ErrorReply {
    let kind = match &e {
        PegasusError::UnknownTenant { .. } => ErrorKind::UnknownTenant,
        PegasusError::Verify { .. } => ErrorKind::Verify,
        PegasusError::StateBudget { .. } => ErrorKind::StateBudget,
        PegasusError::NotAClassifier { .. } => ErrorKind::NotAClassifier,
        PegasusError::InvalidConfig { .. } => ErrorKind::BadRequest,
        _ => ErrorKind::Engine,
    };
    ErrorReply { kind, message: e.to_string() }
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

/// The reason a tenant comes back degraded when the engine refuses it.
fn degraded(e: PegasusError) -> DegradedReason {
    match e {
        PegasusError::Verify { report } => {
            DegradedReason::Verify { errors: report.errors().count() as u64 }
        }
        e => DegradedReason::Attach { message: e.to_string() },
    }
}

/// The reply to an attach or swap naming an artifact that did not resolve.
fn unresolved_reply(name: &str, unresolved: Unresolved) -> ErrorReply {
    let (kind, message) = match unresolved {
        Unresolved::Engine(e) => return engine_error(e),
        Unresolved::File(DegradedReason::MissingArtifact { .. }) => {
            (ErrorKind::UnknownArtifact, format!("no loaded artifact named '{name}'"))
        }
        Unresolved::File(DegradedReason::Io { message }) => (ErrorKind::Io, message),
        Unresolved::File(reason) => (ErrorKind::ArtifactFormat, reason.to_string()),
    };
    ErrorReply { kind, message }
}

fn tenant_config(name: &str, wire: &WireTenantConfig) -> TenantConfig {
    let mut cfg = TenantConfig::new()
        .name(name)
        .route(wire.route.clone())
        .record_predictions(wire.record_predictions);
    if let Some(slots) = wire.flow_capacity {
        cfg = cfg.flow_capacity(slots);
    }
    if let Some(packets) = wire.idle_timeout_packets {
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
            pinned: HashMap::new(),
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
    fn reattach(&mut self, record: &TenantRecord) -> Result<TenantToken, DegradedReason> {
        let artifact = self.resolve(&record.artifact).map_err(|u| match u {
            Unresolved::File(reason) => reason,
            Unresolved::Engine(e) => degraded(e),
        })?;
        self.control.attach(artifact, tenant_config(&record.name, &record.config)).map_err(degraded)
    }

    /// The content loaded under `name`, pinned resident: attach, swap and
    /// recovery resolve a name only here. A miss — the name's first use
    /// since this daemon started — reads, decodes and admits its file once
    /// and pins the result; every other call is a clone of the pin.
    fn resolve(&mut self, name: &str) -> Result<EngineArtifact, Unresolved> {
        if let Some((artifact, _)) = self.pinned.get(name) {
            return Ok(artifact.clone());
        }
        let Some(record) = self.registry.find_artifact(name) else {
            let artifact = name.to_string();
            return Err(Unresolved::File(DegradedReason::MissingArtifact { artifact }));
        };
        let path = self.registry.artifact_path(record);
        let bytes = fs::read(&path).map_err(|e| {
            Unresolved::File(DegradedReason::Io { message: format!("{}: {e}", path.display()) })
        })?;
        let file = ArtifactFile::from_bytes(&bytes)
            .map_err(|e| Unresolved::File(DegradedReason::Format { message: e.to_string() }))?;
        let artifact = file.deploy().map_err(Unresolved::Engine)?;
        let admission = self.control.admit(artifact.clone()).map_err(Unresolved::Engine)?;
        self.pinned.insert(name.to_string(), (artifact.clone(), admission));
        Ok(artifact)
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
                        message: format!("unreadable frame: {e}"),
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

    /// Decodes and admits the artifact, then stores its file: a refused
    /// artifact leaves no file and no record.
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
        let pin = match file.deploy().and_then(|a| Ok((a.clone(), self.control.admit(a)?))) {
            Ok(pin) => pin,
            Err(e) => return Response::Error(engine_error(e)),
        };
        match self.registry.store_artifact(name, bytes, &file) {
            Ok(record) => {
                self.pinned.insert(name.to_string(), pin);
                Response::Loaded(artifact_info(&record))
            }
            Err(e) => Response::Error(registry_error(e)),
        }
    }

    fn attach(&mut self, tenant: &str, artifact: &str, config: WireTenantConfig) -> Response {
        if self.tenants.contains_key(tenant) {
            return Response::Error(ErrorReply {
                kind: ErrorKind::DuplicateTenant,
                message: format!("tenant '{tenant}' already exists (detach it first)"),
            });
        }
        let engine_artifact = match self.resolve(artifact) {
            Ok(a) => a,
            Err(e) => return Response::Error(unresolved_reply(artifact, e)),
        };
        let token = match self.control.attach(engine_artifact, tenant_config(tenant, &config)) {
            Ok(token) => token,
            Err(e) => return Response::Error(engine_error(e)),
        };
        // Persist only after the engine accepted: the registry must
        // never promise recovery of a tenant that was never serving.
        let record =
            TenantRecord { name: tenant.to_string(), artifact: artifact.to_string(), config };
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
        let engine_artifact = match self.resolve(artifact) {
            Ok(a) => a,
            Err(e) => return Response::Error(unresolved_reply(artifact, e)),
        };
        let swap = match self.control.swap(token, engine_artifact) {
            Ok(swap) => swap,
            Err(e) => return Response::Error(engine_error(e)),
        };
        if let Err(e) = self.registry.record_swap(tenant, artifact) {
            return Response::Error(self.undo_swap(tenant, artifact, token, e));
        }
        Response::Swapped {
            tenant: tenant.to_string(),
            epoch: swap.epoch,
            state_retained: swap.state_retained,
            apply_micros: swap.apply_micros,
        }
    }

    /// Swaps `tenant` back from `artifact` to the artifact the registry
    /// still records for it, after the write that would have recorded the
    /// swap failed. The recorded artifact is pinned, so the swap back runs
    /// no verifier. The reply is `io` either way; its message names the
    /// undo's epoch, or says that the undo failed too.
    fn undo_swap(
        &mut self,
        tenant: &str,
        artifact: &str,
        token: TenantToken,
        e: RegistryError,
    ) -> ErrorReply {
        let recorded = self.registry.state().tenants.iter().find(|t| t.name == tenant);
        let recorded = recorded.map(|t| t.artifact.clone()).unwrap_or_default();
        let undo = match self.resolve(&recorded) {
            Ok(back) => self.control.swap(token, back).map_err(|e| e.to_string()),
            Err(unresolved) => Err(unresolved_reply(&recorded, unresolved).message),
        };
        let undone = match undo {
            Ok(back) => {
                format!("swap undone: '{tenant}' serves '{recorded}' at epoch {}", back.epoch)
            }
            Err(why) => {
                format!(
                    "the undo failed too ({why}): '{tenant}' serves '{artifact}' until a restart"
                )
            }
        };
        ErrorReply { kind: ErrorKind::Io, message: format!("registry: {e}; {undone}") }
    }

    fn detach(&mut self, tenant: &str) -> Response {
        match self.tenants.get(tenant) {
            // Persisted first: a failed write leaves the tenant serving.
            Some(TenantRuntime::Serving { token }) => {
                let token = *token;
                if let Err(e) = self.registry.record_detach(tenant) {
                    return Response::Error(registry_error(e));
                }
                self.tenants.remove(tenant);
                match self.control.detach(token) {
                    Ok(report) => Response::Detached(Box::new(wire_tenant_report(report))),
                    Err(e) => Response::Error(engine_error(e)),
                }
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
                    route: RouteSummary::of(&record.config.route),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactPayload;
    use std::sync::Arc;

    /// A fresh directory under the system temp dir, and a one-shard daemon
    /// configuration whose state and socket live in it.
    fn temp_daemon(tag: &str) -> (PathBuf, DaemonConfig) {
        let dir = std::env::temp_dir().join(format!("pegasus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = DaemonConfig {
            state_dir: dir.join("state"),
            socket: dir.join("ctl.sock"),
            shards: 1,
            batch: 16,
        };
        (dir, config)
    }

    /// The files under the state directory's `artifacts/`.
    fn stored_files(config: &DaemonConfig) -> usize {
        fs::read_dir(config.state_dir.join("artifacts")).expect("lists").count()
    }

    /// Recovery deploys each recorded artifact exactly once, and a file that
    /// decodes but no longer verifies degrades its tenant with the typed
    /// `Verify` reason `deploy` itself reports — no separate verifier pass.
    #[test]
    fn corrupt_artifact_file_recovers_degraded_with_the_verify_reason() {
        let (dir, config) = temp_daemon("recover");
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

    /// `load` admits the content and the daemon keeps it: attach and swap by
    /// the name read no file, so they serve even after the stored file has
    /// rotted. Only a restart, the name's first use in a new process, reads
    /// the file again — and degrades the tenant with the typed format reason.
    #[test]
    fn a_loaded_artifact_serves_without_rereading_its_file() {
        let (dir, config) = temp_daemon("pinned");
        let file = crate::build::compile_mlp_b(7).expect("compiles");
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/golden.pcap");

        let (mut daemon, _) = Daemon::start(&config).expect("daemon starts");
        assert!(matches!(daemon.load("mlp", &file.to_bytes()), Response::Loaded(_)));
        let record = daemon.registry.find_artifact("mlp").expect("recorded");
        fs::write(daemon.registry.artifact_path(record), b"junk").expect("overwrite artifact");
        let attached = daemon.attach("t0", "mlp", WireTenantConfig::default());
        assert!(matches!(attached, Response::Attached { .. }), "{attached:?}");
        let swapped = daemon.swap("t0", "mlp");
        assert!(matches!(swapped, Response::Swapped { epoch: 1, .. }), "{swapped:?}");
        let ingested = daemon.ingest_pcap(golden);
        assert!(matches!(ingested, Response::Ingested { frames: 338 }), "{ingested:?}");
        let report = daemon.server.take().expect("running").shutdown().expect("drains");
        let served = report.tenants[0].result.as_ref().expect("served cleanly");
        assert_eq!(served.packets, 338);

        let (mut daemon, summary) = Daemon::start(&config).expect("daemon restarts");
        assert!(summary.serving.is_empty());
        match summary.degraded.as_slice() {
            [(name, DegradedReason::Format { .. })] => assert_eq!(name, "t0"),
            other => panic!("expected t0 degraded with a format reason, got {other:?}"),
        }
        daemon.server.take().expect("running").shutdown().expect("drains");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every refusal `load` can give is typed, and leaves no artifact file
    /// and no registry record behind.
    #[test]
    fn refused_loads_leave_no_file_and_no_record() {
        let (dir, config) = temp_daemon("refused");
        let file = crate::build::compile_mlp_b(7).expect("compiles");
        let with_pipeline = |edit: fn(&mut pegasus_core::compile::CompiledPipeline)| {
            let mut file = file.clone();
            let ArtifactPayload::Stateless { pipeline, .. } = &mut file.payload else {
                panic!("MLP-B is stateless")
            };
            edit(pipeline);
            file.to_bytes()
        };
        // Decodes, but an entry names a nonexistent action.
        let corrupt = with_pipeline(|p| {
            let tables = &mut Arc::make_mut(&mut p.program).tables;
            let table = tables.iter_mut().find(|t| !t.entries.is_empty()).expect("entries");
            table.entries[0].action_idx = 999;
        });
        let score_only = with_pipeline(|p| p.predicted_field = None);

        let (mut daemon, _) = Daemon::start(&config).expect("daemon starts");
        for (bytes, kind) in [
            (corrupt, ErrorKind::Verify),
            (score_only, ErrorKind::NotAClassifier),
            (b"junk".to_vec(), ErrorKind::ArtifactFormat),
        ] {
            match daemon.load("mlp", &bytes) {
                Response::Error(e) => assert_eq!(e.kind, kind, "{}", e.message),
                other => panic!("expected a {kind} refusal, got {other:?}"),
            }
            assert_eq!(stored_files(&config), 0, "a refused {kind} load stored its file");
            assert!(daemon.registry.state().artifacts.is_empty());
        }
        daemon.server.take().expect("running").shutdown().expect("drains");
        let _ = fs::remove_dir_all(&dir);
    }

    /// `list`'s tenants as `(name, artifact, state)`.
    fn listed(daemon: &Daemon) -> Vec<(String, String, TenantState)> {
        match daemon.list() {
            Response::Listing(listing) => {
                listing.tenants.into_iter().map(|t| (t.name, t.artifact, t.state)).collect()
            }
            other => panic!("expected a listing, got {other:?}"),
        }
    }

    /// The engine token a serving tenant runs under.
    fn serving_token(daemon: &Daemon, tenant: &str) -> TenantToken {
        match daemon.tenants.get(tenant) {
            Some(TenantRuntime::Serving { token }) => *token,
            other => panic!("expected {tenant} serving, got {other:?}"),
        }
    }

    /// A swap whose registry write fails is swapped back: the reply is `io`
    /// and names the undo's epoch, and `list`, the engine and a restart all
    /// agree that `t0` serves `a`. The sibling `t1` on `a` shows which
    /// content the engine serves: the two share one resident artifact again.
    #[test]
    fn a_failed_registry_write_undoes_the_swap() {
        let (dir, config) = temp_daemon("unswappable");
        let a = crate::build::compile_mlp_b(7).expect("compiles");
        let b = crate::build::compile_mlp_b(8).expect("compiles");

        let (mut daemon, _) = Daemon::start(&config).expect("daemon starts");
        assert!(matches!(daemon.load("a", &a.to_bytes()), Response::Loaded(_)));
        assert!(matches!(daemon.load("b", &b.to_bytes()), Response::Loaded(_)));
        for tenant in ["t0", "t1"] {
            let attached = daemon.attach(tenant, "a", WireTenantConfig::default());
            assert!(matches!(attached, Response::Attached { .. }), "{attached:?}");
        }
        let token = serving_token(&daemon, "t0");
        let blocker = config.state_dir.join("registry.bin.tmp");
        fs::create_dir(&blocker).expect("block the registry write");
        match daemon.swap("t0", "b") {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Io, "{}", e.message);
                assert!(e.message.contains("serves 'a' at epoch 2"), "{}", e.message);
            }
            other => panic!("expected an io refusal, got {other:?}"),
        }
        let serving = TenantState::Serving { token: token.id(), epoch: 2 };
        assert_eq!(listed(&daemon)[0], ("t0".into(), "a".into(), serving));
        let stats = daemon.control.stats().expect("stats");
        assert_eq!(stats.tenant(token).expect("attached").epoch, 2);
        assert_eq!(stats.artifacts.unique_artifacts, 1, "t0 and t1 share a's content");
        fs::remove_dir(&blocker).expect("unblock");
        daemon.server.take().expect("running").shutdown().expect("drains");

        let (mut daemon, summary) = Daemon::start(&config).expect("daemon restarts");
        assert_eq!(summary.serving, ["t0", "t1"]);
        assert_eq!(listed(&daemon)[0].1, "a");
        assert_eq!(daemon.control.stats().expect("stats").artifacts.unique_artifacts, 1);
        daemon.server.take().expect("running").shutdown().expect("drains");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A detach whose registry write fails changes nothing: the reply is
    /// `io`, and the tenant serves on under the same token in `list` and
    /// `stats`. Once the write can land, the detach returns the tenant's
    /// report with every packet it served.
    #[test]
    fn a_failed_registry_write_keeps_the_detaching_tenant_serving() {
        let (dir, config) = temp_daemon("undetachable");
        let file = crate::build::compile_mlp_b(7).expect("compiles");
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/golden.pcap");

        let (mut daemon, _) = Daemon::start(&config).expect("daemon starts");
        assert!(matches!(daemon.load("mlp", &file.to_bytes()), Response::Loaded(_)));
        let attached = daemon.attach("t0", "mlp", WireTenantConfig::default());
        assert!(matches!(attached, Response::Attached { .. }), "{attached:?}");
        let token = serving_token(&daemon, "t0");
        let ingested = daemon.ingest_pcap(golden);
        assert!(matches!(ingested, Response::Ingested { frames: 338 }), "{ingested:?}");
        let blocker = config.state_dir.join("registry.bin.tmp");
        fs::create_dir(&blocker).expect("block the registry write");
        match daemon.detach("t0") {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::Io, "{}", e.message),
            other => panic!("expected an io refusal, got {other:?}"),
        }
        let serving = TenantState::Serving { token: token.id(), epoch: 0 };
        assert_eq!(listed(&daemon), [("t0".into(), "mlp".into(), serving)]);
        assert!(daemon.control.stats().expect("stats").tenant(token).is_some());

        fs::remove_dir(&blocker).expect("unblock");
        match daemon.detach("t0") {
            Response::Detached(r) => {
                assert_eq!((r.token, r.error.as_deref()), (token.id(), None));
                assert_eq!(r.report.expect("served").packets, 338);
            }
            other => panic!("expected the final report, got {other:?}"),
        }
        assert!(listed(&daemon).is_empty());
        daemon.server.take().expect("running").shutdown().expect("drains");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A verb whose registry write fails is refused and leaves nothing
    /// behind: `list` does not show the tenant, and a restart does not
    /// bring it back. A directory where the registry's temp file goes makes
    /// the write fail for any user, root included.
    #[test]
    fn a_failed_registry_write_leaves_no_tenant() {
        let (dir, config) = temp_daemon("unwritable");
        let file = crate::build::compile_mlp_b(7).expect("compiles");

        let (mut daemon, _) = Daemon::start(&config).expect("daemon starts");
        assert!(matches!(daemon.load("mlp", &file.to_bytes()), Response::Loaded(_)));
        let blocker = config.state_dir.join("registry.bin.tmp");
        fs::create_dir(&blocker).expect("block the registry write");
        match daemon.attach("t0", "mlp", WireTenantConfig::default()) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::Io, "{}", e.message),
            other => panic!("expected an io refusal, got {other:?}"),
        }
        match daemon.list() {
            Response::Listing(listing) => assert!(listing.tenants.is_empty(), "{listing:?}"),
            other => panic!("expected a listing, got {other:?}"),
        }
        fs::remove_dir(&blocker).expect("unblock");
        assert!(matches!(daemon.load("other", &file.to_bytes()), Response::Loaded(_)));
        daemon.server.take().expect("running").shutdown().expect("drains");

        let (mut daemon, summary) = Daemon::start(&config).expect("daemon restarts");
        assert!(summary.serving.is_empty() && summary.degraded.is_empty(), "{summary:?}");
        daemon.server.take().expect("running").shutdown().expect("drains");
        let _ = fs::remove_dir_all(&dir);
    }
}
