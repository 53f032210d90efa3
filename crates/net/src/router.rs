//! Five-tuple match predicates for control-plane packet routing.
//!
//! A multi-tenant serving engine steers each packet to one of several
//! deployed models the way FENIX-style dataplanes select a model behind one
//! switch pipeline: by matching header fields. [`RoutePredicate`] is the
//! match language — destination-port sets and ranges, source/destination
//! subnets, protocol, and boolean combinators — evaluated against a
//! [`FiveTuple`] on the hot ingress path (no allocation, short-circuiting).

use crate::flow::FiveTuple;

/// A boolean predicate over a flow's five-tuple.
///
/// Built once at tenant-attach time, evaluated per packet. The variants
/// mirror what a switch's model-selection table can key on: L4 ports
/// (exact or range), IPv4 prefixes, and the protocol byte.
///
/// ```
/// use pegasus_net::{FiveTuple, RoutePredicate};
///
/// // "TCP traffic to 10.0.0.0/8, port 443"
/// let p = RoutePredicate::all_of(vec![
///     RoutePredicate::Protocol(6),
///     RoutePredicate::DstSubnet { addr: 0x0a00_0000, prefix: 8 },
///     RoutePredicate::DstPort(443),
/// ]);
/// assert!(p.matches(&FiveTuple::new(0x01020304, 0x0a141e28, 50000, 443, 6)));
/// assert!(!p.matches(&FiveTuple::new(0x01020304, 0x0b141e28, 50000, 443, 6)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutePredicate {
    /// Matches every packet (catch-all tenants).
    Any,
    /// Exact destination port.
    DstPort(u16),
    /// Inclusive destination-port range.
    DstPortRange {
        /// Lowest matching port.
        lo: u16,
        /// Highest matching port (inclusive).
        hi: u16,
    },
    /// Exact source port.
    SrcPort(u16),
    /// Destination IPv4 subnet in CIDR terms.
    DstSubnet {
        /// Network address (host byte order).
        addr: u32,
        /// Prefix length, `0..=32`; 0 matches everything.
        prefix: u8,
    },
    /// Source IPv4 subnet in CIDR terms.
    SrcSubnet {
        /// Network address (host byte order).
        addr: u32,
        /// Prefix length, `0..=32`; 0 matches everything.
        prefix: u8,
    },
    /// IP protocol number (6 = TCP, 17 = UDP).
    Protocol(u8),
    /// True when every child matches (empty = true).
    AllOf(Vec<RoutePredicate>),
    /// True when at least one child matches (empty = false).
    AnyOf(Vec<RoutePredicate>),
    /// Negation.
    Not(Box<RoutePredicate>),
}

/// `addr` masked to `prefix` leading bits.
fn subnet_matches(addr: u32, net: u32, prefix: u8) -> bool {
    if prefix == 0 {
        return true;
    }
    let mask = u32::MAX << (32 - prefix.min(32) as u32);
    addr & mask == net & mask
}

impl RoutePredicate {
    /// Conjunction helper (reads better than the enum literal).
    pub fn all_of(children: Vec<RoutePredicate>) -> Self {
        RoutePredicate::AllOf(children)
    }

    /// Disjunction helper.
    pub fn any_of(children: Vec<RoutePredicate>) -> Self {
        RoutePredicate::AnyOf(children)
    }

    /// Evaluates the predicate against one flow identity.
    pub fn matches(&self, ft: &FiveTuple) -> bool {
        match self {
            RoutePredicate::Any => true,
            RoutePredicate::DstPort(p) => ft.dst_port == *p,
            RoutePredicate::DstPortRange { lo, hi } => (*lo..=*hi).contains(&ft.dst_port),
            RoutePredicate::SrcPort(p) => ft.src_port == *p,
            RoutePredicate::DstSubnet { addr, prefix } => subnet_matches(ft.dst_ip, *addr, *prefix),
            RoutePredicate::SrcSubnet { addr, prefix } => subnet_matches(ft.src_ip, *addr, *prefix),
            RoutePredicate::Protocol(p) => ft.protocol == *p,
            RoutePredicate::AllOf(cs) => cs.iter().all(|c| c.matches(ft)),
            RoutePredicate::AnyOf(cs) => cs.iter().any(|c| c.matches(ft)),
            RoutePredicate::Not(c) => !c.matches(ft),
        }
    }
}

// --- serde (control-daemon wire format) --------------------------------
//
// Recursive enum: one tag byte per node, children as length-prefixed
// vectors. Nesting is bounded by the decoder `impl_serde_enum!` generates,
// not by the 64 MiB frame cap: a predicate more than
// `serde::MAX_DECODE_DEPTH` nodes deep — off the socket or out of a rotted
// `registry.bin` — is `DecodeError::TooDeep`, not a stack overflow.

serde::impl_serde_enum!(RoutePredicate {
    0 => Any,
    1 => DstPort(port),
    2 => DstPortRange { lo, hi },
    3 => SrcPort(port),
    4 => DstSubnet { addr, prefix },
    5 => SrcSubnet { addr, prefix },
    6 => Protocol(proto),
    7 => AllOf(children),
    8 => AnyOf(children),
    9 => Not(inner),
});

// --- compiled routing plane ---------------------------------------------
//
// A linear first-match scan over predicate trees is O(tenants) per packet —
// fine for two tenants, hopeless for ten thousand. `CompiledRouter` compiles
// a rule list once (at attach/swap/detach time) into constant-time lookup
// structures, preserving the scan's first-match semantics exactly: every
// structure stores the *minimum rule index* that could match, the lookup
// takes the minimum across structures, and only residual predicates with a
// smaller index than the current best are ever evaluated.

/// Sentinel rule index meaning "no rule".
const NO_RULE: u32 = u32::MAX;

/// Sentinel trie-node index meaning "no child".
const NO_NODE: u32 = u32::MAX;

/// Sentinel packed entry meaning "no match" — compares greater than every
/// real [`pack`]ed entry because `build` rejects rule index `u32::MAX`.
const NO_MATCH: u64 = u64::MAX;

/// Packs a rule index (priority, high bits) with its payload (low bits)
/// into one word. The structures store packed entries so the per-packet
/// min-chain resolves priority *and* payload in a single load — a separate
/// `payloads[idx]` lookup would put a second data-dependent (and, at fleet
/// scale, cache-missing) load on the hot path.
#[inline]
const fn pack(idx: u32, payload: u32) -> u64 {
    ((idx as u64) << 32) | payload as u64
}

/// Rule index of a packed entry (`NO_RULE` for [`NO_MATCH`]).
#[inline]
const fn packed_idx(entry: u64) -> u32 {
    (entry >> 32) as u32
}

/// Which compiled structure resolved a packet. Feeds the engine's routing
/// counters so operators can see whether their predicates actually compile
/// into the fast structures or fall back to the residual scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteHit {
    /// Dense destination-port lookup table.
    Lut,
    /// Source/destination LPM trie.
    Trie,
    /// Protocol filter array.
    Proto,
    /// A catch-all ([`RoutePredicate::Any`] or empty `AllOf`) rule.
    CatchAll,
    /// The residual first-match predicate scan.
    Residual,
}

/// Outcome of one [`CompiledRouter::route`] lookup.
#[derive(Clone, Copy, Debug)]
pub struct RouteDecision {
    /// Payload of the winning rule, or `None` when nothing matched.
    pub payload: Option<u32>,
    /// Structure that produced the winner (only meaningful on a match).
    pub hit: RouteHit,
    /// Residual predicates evaluated during this lookup.
    pub residual_scanned: u32,
}

/// Fixed-depth binary trie over IPv4 prefixes storing, per node, the
/// smallest rule index whose subnet terminates there. Lookup walks the
/// address's bit path and takes the minimum rule index along it — not the
/// longest prefix, because rule priority here is attach order, exactly as
/// the naive scan resolves overlapping subnets.
#[derive(Clone, Debug, Default)]
struct PrefixTrie {
    nodes: Vec<TrieNode>,
}

#[derive(Clone, Copy, Debug)]
struct TrieNode {
    child: [u32; 2],
    best: u64,
}

impl PrefixTrie {
    fn insert(&mut self, addr: u32, prefix: u8, rule: u64) {
        if self.nodes.is_empty() {
            self.nodes.push(TrieNode { child: [NO_NODE; 2], best: NO_MATCH });
        }
        let mut node = 0usize;
        for depth in 0..u32::from(prefix.min(32)) {
            let bit = ((addr >> (31 - depth)) & 1) as usize;
            let next = match self.nodes[node].child[bit] {
                NO_NODE => {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(TrieNode { child: [NO_NODE; 2], best: NO_MATCH });
                    self.nodes[node].child[bit] = idx;
                    idx
                }
                idx => idx,
            };
            node = next as usize;
        }
        let best = &mut self.nodes[node].best;
        *best = (*best).min(rule);
    }

    #[inline]
    fn lookup(&self, addr: u32) -> u64 {
        let Some(root) = self.nodes.first() else { return NO_MATCH };
        let mut best = root.best;
        let mut node = root;
        for depth in 0..32 {
            let bit = ((addr >> (31 - depth)) & 1) as usize;
            match node.child[bit] {
                NO_NODE => break,
                next => {
                    node = &self.nodes[next as usize];
                    best = best.min(node.best);
                }
            }
        }
        best
    }

    fn heap_bytes(&self) -> u64 {
        (self.nodes.len() * std::mem::size_of::<TrieNode>()) as u64
    }
}

/// How one predicate compiles: which structure absorbs it, or residual.
enum RuleShape {
    /// Pure destination-port rule: the union of these inclusive ranges.
    Ports(Vec<(u16, u16)>),
    SrcNet {
        addr: u32,
        prefix: u8,
    },
    DstNet {
        addr: u32,
        prefix: u8,
    },
    Proto(u8),
    CatchAll,
    Residual,
}

/// True when `p` is expressible as a union of destination-port ranges
/// (exact ports, ranges, and `AnyOf` nests thereof), pushing the ranges
/// into `out`. An empty `AnyOf` qualifies vacuously — zero ranges, which
/// matches nothing, exactly like the scan's empty-disjunction semantics.
fn collect_port_ranges(p: &RoutePredicate, out: &mut Vec<(u16, u16)>) -> bool {
    match p {
        RoutePredicate::DstPort(port) => {
            out.push((*port, *port));
            true
        }
        RoutePredicate::DstPortRange { lo, hi } => {
            out.push((*lo, *hi));
            true
        }
        RoutePredicate::AnyOf(cs) => cs.iter().all(|c| collect_port_ranges(c, out)),
        _ => false,
    }
}

fn shape_of(p: &RoutePredicate) -> RuleShape {
    match p {
        RoutePredicate::Any => RuleShape::CatchAll,
        RoutePredicate::DstPort(port) => RuleShape::Ports(vec![(*port, *port)]),
        RoutePredicate::DstPortRange { lo, hi } => RuleShape::Ports(vec![(*lo, *hi)]),
        RoutePredicate::SrcSubnet { addr, prefix } => {
            RuleShape::SrcNet { addr: *addr, prefix: *prefix }
        }
        RoutePredicate::DstSubnet { addr, prefix } => {
            RuleShape::DstNet { addr: *addr, prefix: *prefix }
        }
        RoutePredicate::Protocol(proto) => RuleShape::Proto(*proto),
        RoutePredicate::AllOf(cs) => match cs.len() {
            0 => RuleShape::CatchAll, // empty conjunction is true
            1 => shape_of(&cs[0]),
            _ => RuleShape::Residual,
        },
        RoutePredicate::AnyOf(cs) => {
            let mut ranges = Vec::new();
            if collect_port_ranges(p, &mut ranges) {
                RuleShape::Ports(ranges)
            } else if cs.len() == 1 {
                shape_of(&cs[0])
            } else {
                RuleShape::Residual
            }
        }
        RoutePredicate::SrcPort(_) | RoutePredicate::Not(_) => RuleShape::Residual,
    }
}

/// An immutable compiled routing table over a prioritized rule list.
///
/// Built once from `(payload, predicate)` pairs whose position is their
/// priority (first match wins, like the attach-order scan it replaces).
/// Destination-port rules land in a dense 65536-entry LUT, subnet rules in
/// two prefix tries, protocol rules in a 256-entry array, catch-alls in
/// a single register; everything else goes to a residual scan list that is
/// only consulted up to the best structural match's priority. Per-packet
/// cost is therefore independent of the rule count for compiled shapes and
/// bounded by the residual count otherwise.
///
/// ```
/// use pegasus_net::{CompiledRouter, FiveTuple, RoutePredicate};
///
/// let router = CompiledRouter::build(&[
///     (7, RoutePredicate::DstPort(443)),
///     (9, RoutePredicate::Any),
/// ]);
/// let https = router.route(&FiveTuple::new(1, 2, 4000, 443, 6));
/// assert_eq!(https.payload, Some(7));
/// let rest = router.route(&FiveTuple::new(1, 2, 4000, 80, 6));
/// assert_eq!(rest.payload, Some(9));
/// ```
#[derive(Clone, Debug)]
pub struct CompiledRouter {
    lut: Box<[u64]>,
    src_trie: PrefixTrie,
    dst_trie: PrefixTrie,
    proto: Box<[u64]>,
    catch_all: u64,
    residual: Vec<(u32, RoutePredicate)>,
    payloads: Vec<u32>,
}

impl Default for CompiledRouter {
    fn default() -> Self {
        CompiledRouter::build(&[])
    }
}

impl CompiledRouter {
    /// Compiles a prioritized rule list. Position in the slice is the
    /// priority: the compiled router resolves overlaps to the lowest
    /// index, matching a first-match scan over the same list.
    pub fn build(rules: &[(u32, RoutePredicate)]) -> Self {
        assert!(rules.len() < NO_RULE as usize, "rule list too large");
        let mut lut = vec![NO_MATCH; 1 << 16].into_boxed_slice();
        let mut src_trie = PrefixTrie::default();
        let mut dst_trie = PrefixTrie::default();
        let mut proto = vec![NO_MATCH; 1 << 8].into_boxed_slice();
        let mut catch_all = NO_MATCH;
        let mut residual = Vec::new();
        let mut payloads = Vec::with_capacity(rules.len());
        for (idx, (payload, pred)) in rules.iter().enumerate() {
            let entry = pack(idx as u32, *payload);
            payloads.push(*payload);
            match shape_of(pred) {
                RuleShape::Ports(ranges) => {
                    for (lo, hi) in ranges {
                        for port in lo..=hi {
                            let slot = &mut lut[port as usize];
                            *slot = (*slot).min(entry);
                        }
                    }
                }
                RuleShape::SrcNet { addr, prefix } => src_trie.insert(addr, prefix, entry),
                RuleShape::DstNet { addr, prefix } => dst_trie.insert(addr, prefix, entry),
                RuleShape::Proto(p) => {
                    let slot = &mut proto[p as usize];
                    *slot = (*slot).min(entry);
                }
                RuleShape::CatchAll => catch_all = catch_all.min(entry),
                RuleShape::Residual => residual.push((idx as u32, pred.clone())),
            }
        }
        CompiledRouter { lut, src_trie, dst_trie, proto, catch_all, residual, payloads }
    }

    /// Routes one five-tuple: the payload of the lowest-index matching
    /// rule, which structure produced it, and how many residual predicates
    /// had to be evaluated.
    #[inline]
    pub fn route(&self, ft: &FiveTuple) -> RouteDecision {
        // Branchless min over the structural lattice (`u64::min` lowers to
        // cmov): which structure matched is data-dependent per packet, so
        // picking the winner with compare-and-branch would eat a
        // misprediction on every mixed-hit workload. Every entry packs
        // (rule index, payload), so the min resolves priority and payload
        // in one go. Ties resolve exactly as the old strict-`<` chain did:
        // equal packed entries are the same rule, and the hit label below
        // tests the structures in the same order.
        let lut = self.lut[ft.dst_port as usize];
        let dst = self.dst_trie.lookup(ft.dst_ip);
        let src = self.src_trie.lookup(ft.src_ip);
        let proto = self.proto[ft.protocol as usize];
        let mut best = lut.min(dst).min(src).min(proto).min(self.catch_all);

        // Only residual rules that would *outrank* the structural winner
        // can change the outcome; the list is index-sorted, so stop at the
        // first entry at or past `best`'s rule index.
        let mut scanned = 0u32;
        let mut residual_hit = false;
        for (idx, pred) in &self.residual {
            if *idx >= packed_idx(best) {
                break;
            }
            scanned += 1;
            if pred.matches(ft) {
                best = pack(*idx, self.payloads[*idx as usize]);
                residual_hit = true;
                break;
            }
        }
        let hit = if residual_hit {
            RouteHit::Residual
        } else if best == lut {
            RouteHit::Lut
        } else if best == dst || best == src {
            RouteHit::Trie
        } else if best == proto {
            RouteHit::Proto
        } else {
            RouteHit::CatchAll
        };
        let payload = if best == NO_MATCH { None } else { Some(best as u32) };
        RouteDecision { payload, hit, residual_scanned: scanned }
    }

    /// Rules compiled into this router.
    pub fn rules(&self) -> usize {
        self.payloads.len()
    }

    /// Rules that fell back to the residual scan list.
    pub fn residual_rules(&self) -> usize {
        self.residual.len()
    }

    /// Approximate heap footprint of the compiled structures in bytes
    /// (LUT + tries + protocol array + payload/residual lists). The LUT
    /// dominates at 512 KiB and is independent of the rule count.
    pub fn heap_bytes(&self) -> u64 {
        let fixed = (self.lut.len() + self.proto.len()) * std::mem::size_of::<u64>()
            + self.payloads.len() * std::mem::size_of::<u32>();
        let residual = self.residual.len() * std::mem::size_of::<(u32, RoutePredicate)>();
        fixed as u64 + residual as u64 + self.src_trie.heap_bytes() + self.dst_trie.heap_bytes()
    }
}

/// How one tenant's predicate compiles, for operator-facing summaries
/// (`pegasusctl list`): which structures absorb it and how much falls to
/// the residual scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteSummary {
    /// Destination ports covered by the dense LUT (union of ranges).
    pub lut_ports: u32,
    /// IPv4 prefixes inserted into the src/dst tries.
    pub subnets: u32,
    /// Protocol-filter entries.
    pub protocols: u32,
    /// Whether the predicate compiles to a catch-all.
    pub catch_all: bool,
    /// Predicates left to the residual first-match scan.
    pub residual: u32,
}

impl RouteSummary {
    /// Classifies one tenant predicate the way [`CompiledRouter::build`]
    /// would compile it.
    pub fn of(pred: &RoutePredicate) -> Self {
        let mut s = RouteSummary::default();
        match shape_of(pred) {
            RuleShape::Ports(mut ranges) => {
                // Count distinct covered ports via interval merge — no
                // 65536-slot scratch needed for a summary line.
                ranges.retain(|(lo, hi)| lo <= hi);
                ranges.sort_unstable();
                let mut covered = 0u32;
                let mut end: Option<u32> = None;
                for (lo, hi) in ranges {
                    let (lo, hi) = (u32::from(lo), u32::from(hi));
                    match end {
                        Some(e) if lo <= e => {
                            if hi > e {
                                covered += hi - e;
                                end = Some(hi);
                            }
                        }
                        _ => {
                            covered += hi - lo + 1;
                            end = Some(hi);
                        }
                    }
                }
                s.lut_ports = covered;
            }
            RuleShape::SrcNet { .. } | RuleShape::DstNet { .. } => s.subnets = 1,
            RuleShape::Proto(_) => s.protocols = 1,
            RuleShape::CatchAll => s.catch_all = true,
            RuleShape::Residual => s.residual = 1,
        }
        s
    }
}

serde::impl_serde_struct!(RouteSummary { lut_ports, subnets, protocols, catch_all, residual });

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(dst_ip: u32, dst_port: u16) -> FiveTuple {
        FiveTuple::new(0x0a000001, dst_ip, 40000, dst_port, 6)
    }

    #[test]
    fn any_matches_everything() {
        assert!(RoutePredicate::Any.matches(&ft(1, 1)));
    }

    #[test]
    fn port_exact_and_range() {
        assert!(RoutePredicate::DstPort(443).matches(&ft(9, 443)));
        assert!(!RoutePredicate::DstPort(443).matches(&ft(9, 80)));
        let r = RoutePredicate::DstPortRange { lo: 8000, hi: 8999 };
        assert!(r.matches(&ft(9, 8500)));
        assert!(r.matches(&ft(9, 8000)) && r.matches(&ft(9, 8999)));
        assert!(!r.matches(&ft(9, 9000)));
    }

    #[test]
    fn subnets_mask_correctly() {
        let p = RoutePredicate::DstSubnet { addr: 0xc0a8_0100, prefix: 24 }; // 192.168.1.0/24
        assert!(p.matches(&ft(0xc0a8_0105, 1)));
        assert!(!p.matches(&ft(0xc0a8_0205, 1)));
        // /0 matches everything.
        assert!(RoutePredicate::DstSubnet { addr: 0, prefix: 0 }.matches(&ft(0xffff_ffff, 1)));
        // /32 is an exact host.
        let host = RoutePredicate::DstSubnet { addr: 7, prefix: 32 };
        assert!(host.matches(&ft(7, 1)) && !host.matches(&ft(8, 1)));
    }

    #[test]
    fn combinators_short_circuit_semantics() {
        let p = RoutePredicate::all_of(vec![
            RoutePredicate::Protocol(6),
            RoutePredicate::any_of(vec![RoutePredicate::DstPort(80), RoutePredicate::DstPort(443)]),
        ]);
        assert!(p.matches(&ft(1, 443)));
        assert!(!p.matches(&ft(1, 22)));
        assert!(RoutePredicate::AllOf(vec![]).matches(&ft(1, 1)));
        assert!(!RoutePredicate::AnyOf(vec![]).matches(&ft(1, 1)));
        assert!(!RoutePredicate::Not(Box::new(RoutePredicate::Any)).matches(&ft(1, 1)));
    }

    /// The oracle the compiled router must reproduce: first match wins.
    fn scan(rules: &[(u32, RoutePredicate)], ft: &FiveTuple) -> Option<u32> {
        rules.iter().find(|(_, p)| p.matches(ft)).map(|(t, _)| *t)
    }

    #[test]
    fn compiled_first_match_beats_later_rules() {
        let rules = vec![
            (10, RoutePredicate::DstPort(443)),
            (20, RoutePredicate::Any),
            (30, RoutePredicate::DstPort(443)), // shadowed by both earlier rules
        ];
        let r = CompiledRouter::build(&rules);
        let https = ft(1, 443);
        assert_eq!(r.route(&https).payload, Some(10));
        assert_eq!(r.route(&https).payload, scan(&rules, &https));
        let other = ft(1, 80);
        assert_eq!(r.route(&other).payload, Some(20));
        assert_eq!(r.route(&other).hit, RouteHit::CatchAll);
    }

    #[test]
    fn compiled_residual_only_wins_when_it_outranks_structures() {
        let rules = vec![
            (1, RoutePredicate::SrcPort(40000)), // residual, highest priority
            (2, RoutePredicate::DstPort(443)),
        ];
        let r = CompiledRouter::build(&rules);
        assert_eq!(r.residual_rules(), 1);
        let d = r.route(&ft(1, 443));
        assert_eq!(d.payload, Some(1));
        assert_eq!(d.hit, RouteHit::Residual);
        // When the structural winner outranks every residual, none are
        // evaluated at all.
        let swapped = vec![(2, RoutePredicate::DstPort(443)), (1, RoutePredicate::SrcPort(40000))];
        let r = CompiledRouter::build(&swapped);
        let d = r.route(&ft(1, 443));
        assert_eq!(d.payload, Some(2));
        assert_eq!(d.residual_scanned, 0);
    }

    #[test]
    fn compiled_subnets_resolve_overlap_by_priority_not_length() {
        // Naive scan gives the /8 (listed first) priority over the more
        // specific /24; the trie must agree even though LPM would not.
        let rules = vec![
            (1, RoutePredicate::DstSubnet { addr: 0x0a00_0000, prefix: 8 }),
            (2, RoutePredicate::DstSubnet { addr: 0x0a0a_0a00, prefix: 24 }),
        ];
        let r = CompiledRouter::build(&rules);
        let inner = ft(0x0a0a_0a05, 1);
        assert_eq!(r.route(&inner).payload, Some(1));
        assert_eq!(r.route(&inner).payload, scan(&rules, &inner));
        assert_eq!(r.route(&ft(0x0b00_0001, 1)).payload, None);
    }

    #[test]
    fn compiled_handles_empty_and_degenerate_combinators() {
        let rules = vec![
            (1, RoutePredicate::AnyOf(vec![])), // never matches
            (2, RoutePredicate::AllOf(vec![])), // catch-all
            (3, RoutePredicate::DstPortRange { lo: 100, hi: 50 }), // empty range
        ];
        let r = CompiledRouter::build(&rules);
        for probe in [ft(1, 1), ft(9, 75), ft(0xffff_ffff, 50)] {
            assert_eq!(r.route(&probe).payload, scan(&rules, &probe));
            assert_eq!(r.route(&probe).payload, Some(2));
        }
    }

    #[test]
    fn compiled_flattens_anyof_port_unions_into_lut() {
        let rules = vec![(
            5,
            RoutePredicate::any_of(vec![
                RoutePredicate::DstPort(80),
                RoutePredicate::DstPortRange { lo: 8000, hi: 8010 },
            ]),
        )];
        let r = CompiledRouter::build(&rules);
        assert_eq!(r.residual_rules(), 0);
        assert_eq!(r.route(&ft(1, 80)).hit, RouteHit::Lut);
        assert_eq!(r.route(&ft(1, 8005)).payload, Some(5));
        assert_eq!(r.route(&ft(1, 79)).payload, None);
    }

    #[test]
    fn ten_thousand_structural_rules_do_no_residual_work() {
        // A 10 000-tenant rule list in the shape fleets attach: mostly
        // exact dst-ports (LUT), every 10th a /24 dst subnet (trie), every
        // 10th a protocol rule. Dispatch cost is flat in the rule count
        // because no rule lands on the residual list and no lookup scans
        // it — held here as work done, not as nanoseconds.
        let rules: Vec<(u32, RoutePredicate)> = (0..10_000u32)
            .map(|i| {
                let p = match i % 10 {
                    1 => RoutePredicate::DstSubnet { addr: 0x0a00_0000 | (i << 8), prefix: 24 },
                    9 => RoutePredicate::Protocol(1),
                    _ => RoutePredicate::DstPort((1024 + (i * 37) % 60_000) as u16),
                };
                (i, p)
            })
            .collect();
        let r = CompiledRouter::build(&rules);
        assert_eq!(r.rules(), 10_000);
        assert_eq!(r.residual_rules(), 0);

        let mut outcomes = Vec::new();
        for k in 0..2_000u32 {
            let dst_ip = if k % 3 == 0 { 0x0a00_0007 | (k << 8) } else { 0xc0a8_0000 | k };
            let dst_port = (1024 + (k * 111) % 62_000) as u16;
            let probe =
                FiveTuple::new(0xc0a8_0101, dst_ip, 40_000, dst_port, [6, 17, 1][k as usize % 3]);
            let d = r.route(&probe);
            assert_eq!(d.residual_scanned, 0, "{probe:?}");
            assert_eq!(d.payload, scan(&rules, &probe), "{probe:?}");
            outcomes.push(d.payload.map(|_| d.hit));
        }
        // The probe set reaches every structure the rules compile into,
        // and misses them all at least once.
        for want in [Some(RouteHit::Lut), Some(RouteHit::Trie), Some(RouteHit::Proto), None] {
            assert!(outcomes.contains(&want), "no probe ended in {want:?}");
        }
    }

    #[test]
    fn empty_router_routes_nothing() {
        let r = CompiledRouter::default();
        let d = r.route(&ft(1, 1));
        assert_eq!(d.payload, None);
        assert_eq!(d.residual_scanned, 0);
        assert_eq!(r.rules(), 0);
        assert!(r.heap_bytes() >= (1 << 16) * 4);
    }

    #[test]
    fn route_summary_classifies_and_merges_port_intervals() {
        let ports = RoutePredicate::any_of(vec![
            RoutePredicate::DstPortRange { lo: 10, hi: 20 },
            RoutePredicate::DstPortRange { lo: 15, hi: 25 }, // overlaps
            RoutePredicate::DstPort(25),                     // contained
            RoutePredicate::DstPort(40),
        ]);
        let s = RouteSummary::of(&ports);
        assert_eq!(s.lut_ports, 17); // 10..=25 plus 40
        assert_eq!(s.residual, 0);
        assert!(RouteSummary::of(&RoutePredicate::Any).catch_all);
        assert_eq!(RouteSummary::of(&RoutePredicate::SrcSubnet { addr: 0, prefix: 8 }).subnets, 1);
        assert_eq!(RouteSummary::of(&RoutePredicate::Protocol(6)).protocols, 1);
        let residual =
            RoutePredicate::all_of(vec![RoutePredicate::Protocol(6), RoutePredicate::DstPort(443)]);
        assert_eq!(RouteSummary::of(&residual).residual, 1);
        // Summary round-trips through the daemon wire format.
        let bytes = serde::to_bytes(&s);
        assert_eq!(serde::from_bytes::<RouteSummary>(&bytes).unwrap(), s);
    }

    /// Pins the wire bytes of a predicate tree using all ten variants
    /// (tags and field order), which a round trip cannot see.
    #[test]
    fn predicate_wire_bytes_are_pinned() {
        let tree = RoutePredicate::AllOf(vec![
            RoutePredicate::Any,
            RoutePredicate::DstPort(0x0102),
            RoutePredicate::DstPortRange { lo: 0x0304, hi: 0x0506 },
            RoutePredicate::SrcPort(0x0708),
            RoutePredicate::DstSubnet { addr: 0x090a_0b0c, prefix: 13 },
            RoutePredicate::SrcSubnet { addr: 0x0e0f_1011, prefix: 18 },
            RoutePredicate::AnyOf(vec![RoutePredicate::Not(Box::new(RoutePredicate::Protocol(
                19,
            )))]),
        ]);
        let hex: String = serde::to_bytes(&tree).iter().map(|b| format!("{b:02x}")).collect();
        let expected = concat!(
            "07 07000000",    // AllOf, seven children
            "00",             // Any
            "01 0201",        // DstPort
            "02 0403 0605",   // DstPortRange { lo, hi }
            "03 0807",        // SrcPort
            "04 0c0b0a09 0d", // DstSubnet { addr, prefix }
            "05 11100f0e 12", // SrcSubnet { addr, prefix }
            "08 01000000",    // AnyOf, one child
            "09 06 13",       // Not(Protocol(19))
        );
        assert_eq!(hex, expected.replace(' ', ""));
        assert_eq!(
            serde::from_bytes::<RoutePredicate>(&serde::to_bytes(&tree)).expect("decodes"),
            tree
        );
    }

    /// Depth is bounded by the decoder, not by the 64 MiB frame cap: either
    /// 10 000-deep chain overflowed the stack and aborted the process
    /// before `impl_serde_enum!` counted nesting.
    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        let too_deep =
            serde::DecodeError::TooDeep { what: "RoutePredicate", limit: serde::MAX_DECODE_DEPTH };
        let mut nots = vec![9u8; 10_000];
        nots.push(0);
        assert_eq!(serde::from_bytes::<RoutePredicate>(&nots), Err(too_deep.clone()));
        let mut all_of_one = [7u8, 1, 0, 0, 0].repeat(10_000);
        all_of_one.push(0);
        assert_eq!(serde::from_bytes::<RoutePredicate>(&all_of_one), Err(too_deep));
        // What real predicates look like is nowhere near the limit.
        let mut nested = vec![9u8; 7];
        nested.push(0);
        assert!(serde::from_bytes::<RoutePredicate>(&nested).is_ok());
    }
}
