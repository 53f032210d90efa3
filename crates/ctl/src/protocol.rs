//! Wire protocol between `pegasusctl` and `pegasusd`.
//!
//! A connection carries a sequence of frames in each direction; each
//! frame is a `u32` little-endian byte length followed by exactly that
//! many body bytes, the body being one [`serde`]-encoded [`Request`] or
//! [`Response`]. One request frame yields exactly one response frame;
//! clients may pipeline several requests per connection.
//!
//! The framing layer is deliberately paranoid — it faces whatever bytes
//! land on the socket:
//!
//! * a length prefix larger than [`MAX_FRAME_BYTES`] is rejected
//!   **before** any allocation ([`FrameError::Oversized`]);
//! * a connection that ends inside the prefix or the body is a typed
//!   truncation error, not a hang or a panic;
//! * garbage body bytes fail [`serde`] decoding with a typed
//!   [`DecodeError`](serde::DecodeError), which the daemon answers with
//!   an [`ErrorReply`] (kind [`ErrorKind::BadRequest`]) when it can
//!   still write, or by closing the connection.
//!
//! `tests/wire_protocol.rs` fuzzes exactly these paths, mirroring the
//! repo's `tests/wire_parse.rs` style for packet parsing.

use pegasus_net::{RoutePredicate, RouteSummary};
use std::fmt;
use std::io::{self, Read, Write};

use pegasus_core::{EngineStats, StreamReport};

/// Hard ceiling on one frame's body size (64 MiB). Compiled artifact
/// files are a few MiB; anything near the cap is hostile or corrupt.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Why a frame could not be read off the socket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed mid-way through the 4-byte length prefix.
    TruncatedPrefix {
        /// Prefix bytes that did arrive.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The claimed body length.
        len: usize,
    },
    /// The peer closed before the promised body arrived.
    TruncatedBody {
        /// Body bytes promised by the prefix.
        needed: usize,
        /// Body bytes that did arrive.
        got: usize,
    },
    /// An I/O error underneath the framing.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TruncatedPrefix { got } => {
                write!(f, "connection closed inside the length prefix ({got}/4 bytes)")
            }
            FrameError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            FrameError::TruncatedBody { needed, got } => {
                write!(f, "connection closed inside the frame body ({got}/{needed} bytes)")
            }
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one length-prefixed frame.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean close (the
/// peer hung up **between** frames); every other shortfall is typed.
pub fn read_frame(stream: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match stream.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::TruncatedPrefix { got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { len });
    }
    let mut body = vec![0u8; len];
    let mut have = 0;
    while have < len {
        match stream.read(&mut body[have..]) {
            Ok(0) => return Err(FrameError::TruncatedBody { needed: len, got: have }),
            Ok(n) => have += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(Some(body))
}

/// Tenant configuration as it travels on the wire; the daemon lowers it
/// onto [`TenantConfig`](pegasus_core::TenantConfig) at attach time.
/// `None` options keep the engine's defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct WireTenantConfig {
    /// Packets matching this predicate route to the tenant.
    pub route: RoutePredicate,
    /// Record every per-flow classification (returned on detach).
    pub record_predictions: bool,
    /// Host flow-table slots per shard.
    pub flow_capacity: Option<usize>,
    /// Idle-timeout aging, in table packets.
    pub idle_timeout_packets: Option<u64>,
}

impl Default for WireTenantConfig {
    fn default() -> Self {
        WireTenantConfig {
            route: RoutePredicate::Any,
            record_predictions: false,
            flow_capacity: None,
            idle_timeout_packets: None,
        }
    }
}

serde::impl_serde_struct!(WireTenantConfig {
    route,
    record_predictions,
    flow_capacity,
    idle_timeout_packets,
});

/// One verb, client → daemon.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Store an artifact file (full bytes, header included) under `name`.
    /// The engine admits it — verifies it against the embedded switch
    /// model — before the daemon stores it; versions bump on re-load.
    Load {
        /// Registry name for the artifact.
        name: String,
        /// The artifact-file bytes (`PEGA` header + payload).
        artifact: Vec<u8>,
    },
    /// Attach a loaded artifact as a serving tenant.
    Attach {
        /// Tenant name (unique among live tenants).
        tenant: String,
        /// Name of a previously loaded artifact.
        artifact: String,
        /// Routing + flow-table configuration.
        config: WireTenantConfig,
    },
    /// Hot-swap a serving tenant onto another loaded artifact.
    Swap {
        /// Tenant name.
        tenant: String,
        /// Name of the replacement artifact.
        artifact: String,
    },
    /// Detach a tenant, returning its terminal report.
    Detach {
        /// Tenant name.
        tenant: String,
    },
    /// Enumerate loaded artifacts and tenants (serving and degraded).
    List,
    /// Snapshot live engine statistics.
    Stats,
    /// Replay a pcap file (daemon-side path) through the raw-frame
    /// ingress: parse, route, classify.
    IngestPcap {
        /// Path to the capture, resolved by the daemon.
        path: String,
    },
    /// Drain and stop the daemon.
    Shutdown,
}

serde::impl_serde_enum!(Request {
    0 => Ping,
    1 => Load { name, artifact },
    2 => Attach { tenant, artifact, config },
    3 => Swap { tenant, artifact },
    4 => Detach { tenant },
    5 => List,
    6 => Stats,
    7 => IngestPcap { path },
    8 => Shutdown,
});

/// Classifies an [`ErrorReply`] so clients can react without parsing the
/// message text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request could not be decoded or is semantically invalid.
    BadRequest,
    /// No live tenant has that name (or the engine token went stale —
    /// both surface as [`PegasusError::UnknownTenant`] internally).
    ///
    /// [`PegasusError::UnknownTenant`]: pegasus_core::PegasusError::UnknownTenant
    UnknownTenant,
    /// No loaded artifact has that name.
    UnknownArtifact,
    /// A live tenant with that name already exists.
    DuplicateTenant,
    /// The artifact file's magic or format version is wrong, or its
    /// payload does not decode.
    ArtifactFormat,
    /// The artifact decoded but failed static verification.
    Verify,
    /// The tenant's flow-state budget exceeds the switch SRAM model.
    StateBudget,
    /// The artifact is score-only; the engine serves classifiers.
    NotAClassifier,
    /// The tenant is attached but degraded (recovery failed); the verb
    /// needs a serving tenant.
    Degraded,
    /// Any other engine-side failure.
    Engine,
    /// A filesystem error (state dir, artifact file, pcap path).
    Io,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::UnknownTenant => "unknown-tenant",
            ErrorKind::UnknownArtifact => "unknown-artifact",
            ErrorKind::DuplicateTenant => "duplicate-tenant",
            ErrorKind::ArtifactFormat => "artifact-format",
            ErrorKind::Verify => "verify",
            ErrorKind::StateBudget => "state-budget",
            ErrorKind::NotAClassifier => "not-a-classifier",
            ErrorKind::Degraded => "degraded",
            ErrorKind::Engine => "engine",
            ErrorKind::Io => "io",
        };
        f.write_str(s)
    }
}

serde::impl_serde_enum!(ErrorKind {
    0 => BadRequest,
    1 => UnknownTenant,
    2 => UnknownArtifact,
    3 => DuplicateTenant,
    4 => ArtifactFormat,
    5 => Verify,
    6 => StateBudget,
    7 => NotAClassifier,
    8 => Degraded,
    9 => Engine,
    10 => Io,
});

/// A typed error reply: every failed verb answers with one of these
/// rather than closing the connection or inventing per-verb shapes.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorReply {
    /// Machine-readable classification.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

serde::impl_serde_struct!(ErrorReply { kind, message });

impl fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// A loaded artifact as the registry sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactInfo {
    /// Registry name.
    pub name: String,
    /// Version, bumped on each re-load of the name.
    pub version: u32,
    /// The compiled program's name (e.g. `mlp_b`).
    pub net: String,
    /// `"stateless"` or `"flow"`.
    pub kind: String,
    /// Artifact-file size in bytes.
    pub bytes: u64,
}

serde::impl_serde_struct!(ArtifactInfo { name, version, net, kind, bytes });

/// Why a recovered tenant is degraded instead of serving. Typed so
/// operators (and tests) can distinguish a missing file from a
/// verification failure without string matching.
#[derive(Clone, Debug, PartialEq)]
pub enum DegradedReason {
    /// The registry references an artifact name that no longer exists.
    MissingArtifact {
        /// The dangling artifact name.
        artifact: String,
    },
    /// The artifact file is unreadable.
    Io {
        /// Filesystem detail.
        message: String,
    },
    /// The artifact file has a bad magic/version or an undecodable body.
    Format {
        /// Format detail.
        message: String,
    },
    /// The artifact decoded but static verification found errors.
    Verify {
        /// Number of error-severity diagnostics.
        errors: u64,
    },
    /// The artifact verified but deploy or attach failed.
    Attach {
        /// Engine detail.
        message: String,
    },
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::MissingArtifact { artifact } => {
                write!(f, "artifact '{artifact}' is gone from the registry")
            }
            DegradedReason::Io { message } => write!(f, "artifact file unreadable: {message}"),
            DegradedReason::Format { message } => write!(f, "artifact file rejected: {message}"),
            DegradedReason::Verify { errors } => {
                write!(f, "artifact failed re-verification with {errors} error(s)")
            }
            DegradedReason::Attach { message } => write!(f, "re-attach failed: {message}"),
        }
    }
}

serde::impl_serde_enum!(DegradedReason {
    0 => MissingArtifact { artifact },
    1 => Io { message },
    2 => Format { message },
    3 => Verify { errors },
    4 => Attach { message },
});

/// A tenant's lifecycle state as `list` reports it.
#[derive(Clone, Debug, PartialEq)]
pub enum TenantState {
    /// Attached and routing packets.
    Serving {
        /// Engine tenant id (valid for this daemon process's lifetime).
        token: u32,
        /// Artifact epoch (swaps applied).
        epoch: u64,
    },
    /// Registered on disk but not serving: recovery rejected its
    /// artifact. Carries the typed reason.
    Degraded {
        /// Why recovery refused to serve it.
        reason: DegradedReason,
    },
}

serde::impl_serde_enum!(TenantState { 0 => Serving { token, epoch }, 1 => Degraded { reason } });

/// One tenant in a `list` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantInfo {
    /// Tenant name.
    pub name: String,
    /// The artifact it serves (registry name).
    pub artifact: String,
    /// Serving or degraded.
    pub state: TenantState,
    /// How the tenant's route predicate compiles into the routing plane
    /// (LUT ports / subnet tries / residual scan list).
    pub route: RouteSummary,
}

serde::impl_serde_struct!(TenantInfo { name, artifact, state, route });

/// The `list` reply.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ListReply {
    /// Loaded artifacts.
    pub artifacts: Vec<ArtifactInfo>,
    /// Registered tenants, attach order.
    pub tenants: Vec<TenantInfo>,
}

serde::impl_serde_struct!(ListReply { artifacts, tenants });

/// A tenant's terminal report on the wire (the serde mirror of
/// [`TenantReport`](pegasus_core::engine::server::TenantReport), with the
/// result flattened into report/error halves).
#[derive(Clone, Debug)]
pub struct WireTenantReport {
    /// Engine tenant id (0 for tenants that never served this run).
    pub token: u32,
    /// Tenant name.
    pub name: String,
    /// Final artifact epoch.
    pub epoch: u64,
    /// Packets routed over its lifetime.
    pub routed_packets: u64,
    /// The final merged report — including recorded predictions when the
    /// tenant was attached with `record_predictions`.
    pub report: Option<StreamReport>,
    /// The first fatal per-packet error, if the tenant failed.
    pub error: Option<String>,
}

serde::impl_serde_struct!(WireTenantReport { token, name, epoch, routed_packets, report, error });

/// One verb's reply, daemon → client.
#[derive(Clone, Debug)]
pub enum Response {
    /// Liveness ack.
    Pong,
    /// The verb failed; typed reason inside.
    Error(ErrorReply),
    /// `load` accepted the artifact.
    Loaded(ArtifactInfo),
    /// `attach` registered the tenant.
    Attached {
        /// Tenant name.
        tenant: String,
        /// Engine tenant id.
        token: u32,
        /// Starting epoch (0).
        epoch: u64,
    },
    /// `swap` published the new artifact (shards adopt it at their next
    /// packet boundary — epoch/RCU, no drain).
    Swapped {
        /// Tenant name.
        tenant: String,
        /// Published epoch after the swap.
        epoch: u64,
        /// Whether per-flow state carries into the new artifact
        /// (kept in place on every shard).
        state_retained: bool,
        /// Dataplane-visible apply latency in microseconds: the
        /// dispatcher-lock commit window (budget gates + epoch/RCU
        /// publication; no queue drain — verification runs outside it).
        apply_micros: u64,
    },
    /// `detach` drained the tenant.
    Detached(Box<WireTenantReport>),
    /// `list`.
    Listing(ListReply),
    /// `stats`: the engine's live snapshot, as
    /// [`ControlHandle::stats`](pegasus_core::ControlHandle::stats)
    /// returns it.
    Stats(EngineStats),
    /// `ingest-pcap` pushed the capture.
    Ingested {
        /// Frames consumed from the file (parse rejects included — they
        /// land in `stats().parse_errors`).
        frames: u64,
    },
    /// `shutdown` acknowledged; the daemon exits after this reply.
    ShuttingDown,
}

serde::impl_serde_enum!(Response {
    0 => Pong,
    1 => Error(reply),
    2 => Loaded(info),
    3 => Attached { tenant, token, epoch },
    4 => Swapped { tenant, epoch, state_retained, apply_micros },
    5 => Detached(report),
    6 => Listing(listing),
    7 => Stats(stats),
    8 => Ingested { frames },
    9 => ShuttingDown,
});
