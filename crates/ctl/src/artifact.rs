//! The on-disk artifact file format (`.pa`).
//!
//! An artifact file is everything `pegasusd` needs to re-deploy a tenant
//! after a crash: the compiled pipeline itself, the stream-feature kind
//! it consumes, and the switch resource model it was verified against.
//! Program only: registers travel as declarations, never as cells.
//! The body is [`serde`]-encoded and prefixed with a 4-byte magic plus a
//! `u32` format version, so a daemon pointed at a stale or foreign state
//! directory rejects the file with a typed error instead of
//! deserializing garbage into a pipeline.

use pegasus_core::compile::CompiledPipeline;
use pegasus_core::flowpipe::FlowPipeline;
use pegasus_core::verify::{verify_flow, verify_pipeline};
use pegasus_core::{EngineArtifact, PegasusError, StreamFeatures};
use pegasus_switch::SwitchConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// First four bytes of every artifact file.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"PEGA";

/// Current format version. Bump on any encoding change; old daemons
/// reject newer files (and vice versa) instead of misreading them.
/// (v1 shipped every register array's zeroed cells.)
pub const ARTIFACT_FORMAT_VERSION: u32 = 2;

/// Why bytes are not a file of the format they claim. Both on-disk files
/// — an artifact file and `registry.bin` — are one framing: a 4-byte
/// magic, a `u32` format version, then the serde body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// Shorter than the magic + version header.
    Truncated {
        /// Bytes present.
        len: usize,
    },
    /// The first four bytes are not the format's magic.
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The header version is not the one this build writes.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The body failed serde decoding.
    Decode(serde::DecodeError),
}

/// Why a byte blob is not an artifact file.
pub type ArtifactError = FormatError;

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Truncated { len } => write!(f, "too short for a header ({len} bytes)"),
            FormatError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            FormatError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} unsupported (this build reads {supported})")
            }
            FormatError::Decode(e) => write!(f, "body undecodable: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Encodes `body` as a file of the format `magic` names: magic, version,
/// serde body.
pub(crate) fn encode_file<T: Serialize>(magic: [u8; 4], version: u32, body: &T) -> Vec<u8> {
    serde::to_bytes(&(magic, version, body))
}

/// Decodes a file [`encode_file`] wrote, checking the header before
/// touching the body.
pub(crate) fn decode_file<'de, T: Deserialize<'de>>(
    magic: [u8; 4],
    version: u32,
    bytes: &'de [u8],
) -> Result<T, FormatError> {
    let Some((header, body)) = bytes.split_first_chunk::<8>() else {
        return Err(FormatError::Truncated { len: bytes.len() });
    };
    let [a, b, c, d, stamped @ ..] = *header;
    if [a, b, c, d] != magic {
        return Err(FormatError::BadMagic { found: [a, b, c, d] });
    }
    let found = u32::from_le_bytes(stamped);
    if found != version {
        return Err(FormatError::UnsupportedVersion { found, supported: version });
    }
    serde::from_bytes(body).map_err(FormatError::Decode)
}

/// The pipeline half of an artifact file.
#[derive(Clone)]
pub enum ArtifactPayload {
    /// A per-packet classifier plus the feature kind it consumes.
    Stateless {
        /// Stat-vector or sequence features.
        features: StreamFeatures,
        /// The compiled pipeline.
        pipeline: CompiledPipeline,
    },
    /// A flow-aware pipeline (features are implied by the extractor).
    Flow {
        /// The compiled flow pipeline.
        pipeline: FlowPipeline,
    },
}

serde::impl_serde_enum!(ArtifactPayload {
    0 => Stateless { features, pipeline },
    1 => Flow { pipeline },
});

/// A complete artifact file: the pipeline plus the switch model it must
/// verify against.
#[derive(Clone)]
pub struct ArtifactFile {
    /// Resource model the pipeline was compiled and verified for.
    pub switch: SwitchConfig,
    /// The pipeline.
    pub payload: ArtifactPayload,
}

serde::impl_serde_struct!(ArtifactFile { switch, payload });

// The pipelines inside are huge table dumps; debug-print a summary, not
// the entries. (FlowPipeline has no Debug of its own for the same
// reason.)
impl fmt::Debug for ArtifactFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ArtifactFile({} {}, switch {})",
            self.kind(),
            self.program_name(),
            self.switch.name
        )
    }
}

impl ArtifactFile {
    /// Encodes the file: magic, version, serde body.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_file(ARTIFACT_MAGIC, ARTIFACT_FORMAT_VERSION, self)
    }

    /// Decodes a file, checking the header before touching the body.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        decode_file(ARTIFACT_MAGIC, ARTIFACT_FORMAT_VERSION, bytes)
    }

    /// The compiled program's name.
    pub fn program_name(&self) -> &str {
        match &self.payload {
            ArtifactPayload::Stateless { pipeline, .. } => &pipeline.program.name,
            ArtifactPayload::Flow { pipeline } => &pipeline.program.name,
        }
    }

    /// `"stateless"` or `"flow"`.
    pub fn kind(&self) -> &'static str {
        match &self.payload {
            ArtifactPayload::Stateless { .. } => "stateless",
            ArtifactPayload::Flow { .. } => "flow",
        }
    }

    /// Runs static verification against the embedded switch model and
    /// returns the number of error-severity diagnostics (0 = clean).
    pub fn verify_errors(&self) -> u64 {
        let report = match &self.payload {
            ArtifactPayload::Stateless { pipeline, .. } => {
                verify_pipeline(pipeline, Some(&self.switch))
            }
            ArtifactPayload::Flow { pipeline } => verify_flow(pipeline, Some(&self.switch)),
        };
        report.errors().count() as u64
    }

    /// The payload as an engine-servable artifact (tables shared), undeployed:
    /// its content is encoded here, once, and the engine verifies, flattens
    /// and loads it at its first admission.
    pub fn deploy(&self) -> Result<EngineArtifact, PegasusError> {
        match &self.payload {
            ArtifactPayload::Stateless { features, pipeline } => {
                EngineArtifact::from_compiled_pipeline(pipeline.clone(), *features, &self.switch)
            }
            ArtifactPayload::Flow { pipeline } => {
                EngineArtifact::from_flow_pipeline(pipeline.clone(), &self.switch)
            }
        }
    }
}
