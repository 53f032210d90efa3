//! # pegasus-datasets — synthetic evaluation workloads
//!
//! Seeded, reproducible stand-ins for the paper's three public traffic-
//! classification datasets (§7.1) and the attack traffic of §7.4:
//!
//! * [`catalog`]: PeerRush-like (3 P2P apps), CICIOT-like (3 IoT device
//!   states) and ISCXVPN-like (7 VPN service classes) dataset specs, tuned
//!   so the *relative* difficulty across feature families matches the
//!   paper's results (see each spec's docs);
//! * [`profile`]: the generative model behind every class — Markov packet-
//!   length states, log-normal IPDs, noisy payload signatures;
//! * [`generate`]: labeled trace synthesis;
//! * [`split`]: the paper's 75/10/15 flow-level train/val/test split;
//! * [`samples`]: aligned per-packet feature views (statistical / sequence /
//!   raw-byte) so every model sees identical sample points;
//! * [`attacks`]: the six Figure 8 attack families and 1:4 test-set
//!   injection;
//! * [`stream`]: pcap-style streaming synthesis — the same generative
//!   profiles emitting wire frames on demand through
//!   [`FrameSource`](pegasus_net::FrameSource), for throughput runs that
//!   should not materialize millions of packets first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod catalog;
pub mod generate;
pub mod profile;
pub mod samples;
pub mod split;
pub mod stream;

pub use attacks::{generate_attack_trace, inject_attack, AttackKind, ATTACK_LABEL};
pub use catalog::{all_datasets, ciciot, iscxvpn, peerrush, DatasetSpec};
pub use generate::{generate_trace, GenConfig};
pub use samples::{extract_views, SampleViews};
pub use split::split_by_flow;
pub use stream::{synthesize_pcap, FrameSynthSource, SyntheticConfig};
