//! The daemon's persistent state directory.
//!
//! Layout:
//!
//! ```text
//! <state-dir>/
//!   registry.bin            # magic + version + serde RegistryFile
//!   artifacts/
//!     <name>-v<version>.pa  # artifact files (see `artifact`)
//! ```
//!
//! `registry.bin` is the single source of truth for what should be
//! serving: every `load`, `attach`, `swap`, and `detach` rewrites it
//! **atomically and durably** before the verb is acknowledged. The bytes
//! go to a temp file in the same directory, which is `sync_all`ed and
//! renamed over the old file, and then the directory is `sync_all`ed. A
//! crash at any instant — a process crash (`kill -9`), an OS crash or a
//! power cut — leaves the old file or the new one, never a torn file, and
//! once the write has returned it leaves the new one. A `.pa` file is
//! written the same way into `artifacts/` before the registry names it. Artifact files themselves are immutable
//! once written; re-loading a name writes a new version rather than
//! overwriting.

use crate::artifact::{decode_file, encode_file, ArtifactFile, FormatError};
use crate::protocol::WireTenantConfig;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// First four bytes of `registry.bin`.
pub const REGISTRY_MAGIC: [u8; 4] = *b"PGRG";

/// Registry format version.
pub const REGISTRY_FORMAT_VERSION: u32 = 1;

/// A registry load/store failure.
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem failure, with the path involved.
    Io {
        /// What was being touched.
        path: PathBuf,
        /// The underlying error.
        error: io::Error,
    },
    /// `registry.bin` is not a registry of this build's format.
    Format(FormatError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            RegistryError::Format(e) => write!(f, "registry.bin: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One loaded artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactRecord {
    /// Registry name (the `load` name).
    pub name: String,
    /// Version, starting at 1 and bumped on each re-load of the name.
    pub version: u32,
    /// File name under `artifacts/` (not a full path — the state dir may
    /// move between boots).
    pub file: String,
    /// Compiled program name, for display.
    pub net: String,
    /// `"stateless"` or `"flow"`.
    pub kind: String,
    /// Artifact-file size in bytes.
    pub bytes: u64,
}

serde::impl_serde_struct!(ArtifactRecord { name, version, file, net, kind, bytes });

/// One attached tenant — its name, the artifact it serves and the
/// configuration it was attached with, which recovery attaches it under
/// again.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantRecord {
    /// Tenant name.
    pub name: String,
    /// Artifact it serves (registry name; resolved to the current
    /// version at attach/recovery time).
    pub artifact: String,
    /// Routing and flow-table configuration, as attach received it.
    pub config: WireTenantConfig,
}

serde::impl_serde_struct!(TenantRecord { name, artifact, config });

/// The serialized registry body.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistryFile {
    /// Loaded artifacts, load order.
    pub artifacts: Vec<ArtifactRecord>,
    /// Attached tenants, attach order (recovery replays in this order).
    pub tenants: Vec<TenantRecord>,
}

serde::impl_serde_struct!(RegistryFile { artifacts, tenants });

/// The state directory, opened.
#[derive(Debug)]
pub struct Registry {
    dir: PathBuf,
    state: RegistryFile,
}

fn io_err(path: &Path, error: io::Error) -> RegistryError {
    RegistryError::Io { path: path.to_path_buf(), error }
}

/// Replaces `dir/name` with `bytes` so that the new file survives a power
/// cut once this returns: the bytes go to `name.tmp`, which is synced and
/// renamed over `name`, and then `dir` is synced so the rename is on disk.
/// A write that fails before the rename removes its temp file and leaves
/// `name` as it was.
fn write_durably(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), RegistryError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    let written = fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .map_err(|e| io_err(&tmp, e))
        .and_then(|()| fs::rename(&tmp, &path).map_err(|e| io_err(&path, e)));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written?;
    fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_err(dir, e))
}

impl Registry {
    /// Opens (or initializes) a state directory. A missing directory or
    /// missing `registry.bin` means a fresh, empty registry; a present
    /// but malformed `registry.bin` is a typed error — the daemon
    /// refuses to serve over state it cannot read.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let dir = dir.into();
        let artifacts = dir.join("artifacts");
        fs::create_dir_all(&artifacts).map_err(|e| io_err(&artifacts, e))?;
        let path = dir.join("registry.bin");
        let state = match fs::read(&path) {
            Ok(bytes) => decode_file(REGISTRY_MAGIC, REGISTRY_FORMAT_VERSION, &bytes)
                .map_err(RegistryError::Format)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => RegistryFile::default(),
            Err(e) => return Err(io_err(&path, e)),
        };
        Ok(Registry { dir, state })
    }

    /// The current registry contents.
    pub fn state(&self) -> &RegistryFile {
        &self.state
    }

    /// Full path of an artifact record's file.
    pub fn artifact_path(&self, record: &ArtifactRecord) -> PathBuf {
        self.dir.join("artifacts").join(&record.file)
    }

    /// Looks up an artifact record by registry name.
    pub fn find_artifact(&self, name: &str) -> Option<&ArtifactRecord> {
        self.state.artifacts.iter().find(|a| a.name == name)
    }

    /// Applies `change` to a copy of the registry and persists the copy
    /// ([`write_durably`]). Memory takes the change only once the write
    /// has landed: a write that fails before its rename leaves memory and
    /// disk on the same, old state.
    fn update(&mut self, change: impl FnOnce(&mut RegistryFile)) -> Result<(), RegistryError> {
        let mut next = self.state.clone();
        change(&mut next);
        let bytes = encode_file(REGISTRY_MAGIC, REGISTRY_FORMAT_VERSION, &next);
        write_durably(&self.dir, "registry.bin", &bytes)?;
        self.state = next;
        Ok(())
    }

    /// Stores an artifact file under `name`, bumping the version if the
    /// name already exists, and persists the registry. The raw bytes are
    /// written as-is (header included), so a restarted daemon decodes
    /// exactly what `load` decoded. A file whose registry write fails is
    /// removed again.
    pub fn store_artifact(
        &mut self,
        name: &str,
        bytes: &[u8],
        parsed: &ArtifactFile,
    ) -> Result<ArtifactRecord, RegistryError> {
        let version = self.find_artifact(name).map_or(1, |a| a.version + 1);
        let file = format!("{name}-v{version}.pa");
        let artifacts = self.dir.join("artifacts");
        write_durably(&artifacts, &file, bytes)?;
        let path = artifacts.join(&file);
        let record = ArtifactRecord {
            name: name.to_string(),
            version,
            file,
            net: parsed.program_name().to_string(),
            kind: parsed.kind().to_string(),
            bytes: bytes.len() as u64,
        };
        self.update(|state| match state.artifacts.iter_mut().find(|a| a.name == name) {
            Some(slot) => *slot = record.clone(),
            None => state.artifacts.push(record.clone()),
        })
        .inspect_err(|_| {
            let _ = fs::remove_file(&path);
        })?;
        Ok(record)
    }

    /// Records a tenant attach and persists.
    pub fn record_attach(&mut self, record: TenantRecord) -> Result<(), RegistryError> {
        self.update(|state| {
            state.tenants.retain(|t| t.name != record.name);
            state.tenants.push(record);
        })
    }

    /// Repoints a tenant at another artifact (swap) and persists.
    pub fn record_swap(&mut self, tenant: &str, artifact: &str) -> Result<(), RegistryError> {
        self.update(|state| {
            if let Some(t) = state.tenants.iter_mut().find(|t| t.name == tenant) {
                t.artifact = artifact.to_string();
            }
        })
    }

    /// Removes a tenant (detach) and persists.
    pub fn record_detach(&mut self, tenant: &str) -> Result<(), RegistryError> {
        self.update(|state| state.tenants.retain(|t| t.name != tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_net::RoutePredicate;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pegasus-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_directory_starts_empty_and_round_trips() {
        let dir = tmpdir("fresh");
        let mut reg = Registry::open(&dir).expect("open fresh");
        assert!(reg.state().artifacts.is_empty());
        assert!(reg.state().tenants.is_empty());

        reg.record_attach(TenantRecord {
            name: "t0".into(),
            artifact: "mlp".into(),
            config: WireTenantConfig {
                route: RoutePredicate::DstPort(443),
                record_predictions: true,
                flow_capacity: Some(1024),
                idle_timeout_packets: None,
            },
        })
        .expect("attach persists");

        let reopened = Registry::open(&dir).expect("reopen");
        assert_eq!(reopened.state().tenants.len(), 1);
        assert_eq!(reopened.state().tenants[0].name, "t0");
        assert_eq!(reopened.state().tenants[0].config.route, RoutePredicate::DstPort(443));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_registry_is_a_typed_error() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("registry.bin"), b"not a registry at all").expect("write junk");
        match Registry::open(&dir) {
            Err(RegistryError::Format(FormatError::BadMagic { .. })) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        fs::write(dir.join("registry.bin"), b"PG").expect("write short");
        match Registry::open(&dir) {
            Err(RegistryError::Format(FormatError::Truncated { len: 2 })) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        let mut versioned = Vec::new();
        versioned.extend_from_slice(&REGISTRY_MAGIC);
        versioned.extend_from_slice(&99u32.to_le_bytes());
        fs::write(dir.join("registry.bin"), &versioned).expect("write future version");
        match Registry::open(&dir) {
            Err(RegistryError::Format(FormatError::UnsupportedVersion { found: 99, .. })) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn detach_then_reattach_keeps_latest_config() {
        let dir = tmpdir("reattach");
        let mut reg = Registry::open(&dir).expect("open");
        let mk = |cap: Option<usize>| TenantRecord {
            name: "t".into(),
            artifact: "a".into(),
            config: WireTenantConfig { flow_capacity: cap, ..WireTenantConfig::default() },
        };
        reg.record_attach(mk(Some(64))).expect("attach");
        reg.record_attach(mk(Some(128))).expect("re-attach replaces");
        assert_eq!(reg.state().tenants.len(), 1);
        assert_eq!(reg.state().tenants[0].config.flow_capacity, Some(128));
        reg.record_detach("t").expect("detach");
        assert!(reg.state().tenants.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// `registry.bin` holding one artifact and one tenant, byte for byte:
    /// the header, then every field in declaration order. Opening the file
    /// and rewriting it unchanged must give back the same bytes.
    #[test]
    fn registry_file_bytes_are_pinned() {
        let string = |s: &str| [&(s.len() as u32).to_le_bytes()[..], s.as_bytes()].concat();
        let golden = [
            &b"PGRG"[..],
            &1u32.to_le_bytes(),
            // artifacts: one record.
            &1u32.to_le_bytes(),
            &string("mlp"),
            &2u32.to_le_bytes(),
            &string("mlp-v2.pa"),
            &string("mlp_b"),
            &string("stateless"),
            &4096u64.to_le_bytes(),
            // tenants: one record.
            &1u32.to_le_bytes(),
            &string("t0"),
            &string("mlp"),
            &[1, 0xbb, 0x01], // route: DstPort(443)
            &[1],             // record_predictions: true
            &[1],             // flow_capacity: Some(1024)
            &1024u64.to_le_bytes(),
            &[0], // idle_timeout_packets: None
        ]
        .concat();
        let dir = tmpdir("golden");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("registry.bin"), &golden).expect("write golden");
        let mut reg = Registry::open(&dir).expect("golden registry opens");
        let artifact = &reg.state().artifacts[0];
        assert_eq!(
            (artifact.name.as_str(), artifact.version, artifact.file.as_str()),
            ("mlp", 2, "mlp-v2.pa")
        );
        assert_eq!((artifact.net.as_str(), artifact.kind.as_str()), ("mlp_b", "stateless"));
        assert_eq!(artifact.bytes, 4096);
        let tenant = &reg.state().tenants[0];
        assert_eq!((tenant.name.as_str(), tenant.artifact.as_str()), ("t0", "mlp"));
        reg.record_swap("t0", "mlp").expect("rewrites");
        assert_eq!(fs::read(dir.join("registry.bin")).expect("reads back"), golden);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A registry write that fails changes nothing: not the file, and not
    /// the state in memory, which would otherwise be persisted by the next
    /// write that succeeds. A directory where the temp file goes makes the
    /// write fail for any user, root included.
    #[test]
    fn a_failed_write_leaves_memory_on_the_persisted_state() {
        use pegasus_core::compile::{CompileReport, CompiledPipeline};
        use pegasus_core::numformat::NumFormat;
        use pegasus_switch::{PhvLayout, SwitchConfig, SwitchProgram};

        let dir = tmpdir("failed-write");
        let mut reg = Registry::open(&dir).expect("open");
        let tenant = |name: &str| TenantRecord {
            name: name.into(),
            artifact: "a".into(),
            config: WireTenantConfig::default(),
        };
        reg.record_attach(tenant("t0")).expect("attach persists");
        let persisted = reg.state().clone();
        fs::create_dir(dir.join("registry.bin.tmp")).expect("block the temp file");

        let pipeline = CompiledPipeline {
            program: SwitchProgram::new("p", PhvLayout::new()).into(),
            input_fields: vec![],
            score_fields: vec![],
            score_format: NumFormat::code8(),
            predicted_field: None,
            report: CompileReport::default(),
        };
        let payload = crate::artifact::ArtifactPayload::Stateless {
            features: pegasus_core::StreamFeatures::Stat,
            pipeline,
        };
        let file = ArtifactFile { switch: SwitchConfig::tofino2(), payload };
        assert!(reg.store_artifact("a", &file.to_bytes(), &file).is_err());
        assert!(reg.record_attach(tenant("t1")).is_err());
        assert!(reg.record_swap("t0", "b").is_err());
        assert!(reg.record_detach("t0").is_err());
        assert_eq!(reg.state(), &persisted);
        let stored = fs::read_dir(dir.join("artifacts")).expect("lists").count();
        assert_eq!(stored, 0, "a refused store left its file behind");

        fs::remove_dir(dir.join("registry.bin.tmp")).expect("unblock");
        reg.record_detach("nobody").expect("the next write succeeds");
        assert_eq!(Registry::open(&dir).expect("reopen").state(), &persisted);
        let _ = fs::remove_dir_all(&dir);
    }
}
