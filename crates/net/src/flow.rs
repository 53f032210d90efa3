//! Five-tuple flow identification and per-flow state tracking.
//!
//! The paper identifies flows by five-tuple (§7.1) and keeps a small amount
//! of per-flow state on the switch: the previous packet timestamp (for IPD)
//! and a window of extracted per-packet features (§7.3). [`FlowTracker`] is
//! the host-side mirror of that state used by dataset construction and by
//! the classifier runtimes.
//!
//! Per-flow state on the switch lives in *fixed-size* register arrays — the
//! scarce resource behind the paper's Figure 7 — so the host-side mirror is
//! bounded too: [`FlowTable`] is a fixed-capacity, hash-indexed,
//! open-addressed slot array with idle-timeout aging (on a packet-count
//! clock, no wall time), capacity-pressure replacement, and a
//! hardware-faithful *alias* mode in which colliding flows share one slot
//! exactly like the switch's hash-indexed register files. Memory is flat in
//! the flow count by construction: the slab is preallocated at the
//! configured capacity and never grows, and a flow's window is a
//! fixed-width [`FlowWindow`] held inside its slot — the host form of the
//! switch's `WINDOW × 16`-bit register row — so admitting, re-warming or
//! evicting a flow never touches the allocator.

use crate::features::WINDOW;

/// A flow's five-tuple identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
}

impl FiveTuple {
    /// A compact test/dataset constructor.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, protocol: u8) -> Self {
        FiveTuple { src_ip, dst_ip, src_port, dst_port, protocol }
    }

    /// The reverse-direction tuple (server-to-client half of a connection).
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A direction-agnostic key: both halves of a connection map to the
    /// same value (canonical ordering of endpoints).
    pub fn bidirectional_key(&self) -> FiveTuple {
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port) {
            *self
        } else {
            self.reversed()
        }
    }

    /// RSS-style shard assignment: which of `shards` workers owns this
    /// flow's state.
    ///
    /// Hashes the [`bidirectional_key`](FiveTuple::bidirectional_key) so
    /// both directions of a connection land on the same shard — the same
    /// trick receive-side scaling uses to keep a TCP connection on one
    /// core. All per-flow state (windows, registers) of a flow therefore
    /// lives in exactly one shard and needs no cross-shard locking.
    pub fn shard_of(&self, shards: usize) -> usize {
        assert!(shards >= 1, "need at least one shard");
        self.bidirectional_key().dataplane_hash() as usize % shards
    }

    /// A 32-bit hash for register indexing on the dataplane (CRC-like fold).
    pub fn dataplane_hash(&self) -> u32 {
        let mut h: u32 = 0x811c_9dc5;
        let mut mix = |b: u32| {
            h ^= b;
            h = h.wrapping_mul(0x0100_0193);
        };
        mix(self.src_ip);
        mix(self.dst_ip);
        mix(u32::from(self.src_port) << 16 | u32::from(self.dst_port));
        mix(u32::from(self.protocol));
        h
    }
}

/// One packet observation within a flow, as
/// [`FlowTracker::observe_admit`] returns it (the window keeps only its
/// [`WindowObs`] part).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketObs {
    /// Wire length in bytes.
    pub wire_len: u16,
    /// Inter-packet delay from the previous packet of this flow, in
    /// microseconds (0 for the first packet).
    pub ipd_micros: u64,
    /// Arrival timestamp in microseconds.
    pub ts_micros: u64,
}

/// One windowed packet: the two quantities a feature window reads (16 B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowObs {
    /// Wire length in bytes.
    pub wire_len: u16,
    /// Inter-packet delay from the previous packet of this flow, in
    /// microseconds (0 for the first packet).
    pub ipd_micros: u64,
}

/// A flow's most recent observations, oldest first — a fixed
/// `[WindowObs; WINDOW]` row plus its fill, held inline in the flow's slot
/// (no heap). Derefs to the filled prefix, so it reads like a slice:
/// `window.len()`, `window[a..]`, `window.last()`.
#[derive(Clone, Copy, Debug)]
pub struct FlowWindow {
    obs: [WindowObs; WINDOW],
    len: u8,
    cap: u8,
}

impl FlowWindow {
    /// An empty window of `cap` packets (`1..=WINDOW`, checked by
    /// [`FlowTracker::bounded`]).
    fn new(cap: usize) -> Self {
        FlowWindow { obs: [WindowObs::default(); WINDOW], len: 0, cap: cap as u8 }
    }

    /// Appends `obs`; a full window drops its oldest entry first.
    fn push(&mut self, obs: WindowObs) {
        let len = usize::from(self.len);
        if len == usize::from(self.cap) {
            self.obs.copy_within(1..len, 0);
            self.obs[len - 1] = obs;
        } else {
            self.obs[len] = obs;
            self.len += 1;
        }
    }
}

impl std::ops::Deref for FlowWindow {
    type Target = [WindowObs];

    fn deref(&self) -> &[WindowObs] {
        &self.obs[..usize::from(self.len)]
    }
}

/// Running per-flow statistics and the recent-packet window — plain data
/// (`Copy`, so it owns no heap), stored in place in its table slot.
#[derive(Clone, Copy, Debug)]
pub struct FlowState {
    /// Packets seen.
    pub packets: u64,
    /// Timestamp of the previous packet (for IPD computation).
    pub last_ts_micros: u64,
    /// Minimum wire length seen.
    pub min_len: u16,
    /// Maximum wire length seen.
    pub max_len: u16,
    /// Minimum IPD seen (packets ≥ 2), microseconds.
    pub min_ipd: u64,
    /// Maximum IPD seen (packets ≥ 2), microseconds.
    pub max_ipd: u64,
    /// Most recent observations, oldest first, bounded by the window size.
    pub window: FlowWindow,
}

impl FlowState {
    fn new(window_cap: usize) -> Self {
        FlowState {
            packets: 0,
            last_ts_micros: 0,
            min_len: u16::MAX,
            max_len: 0,
            min_ipd: u64::MAX,
            max_ipd: 0,
            window: FlowWindow::new(window_cap),
        }
    }

    fn observe(&mut self, ts_micros: u64, wire_len: u16) -> PacketObs {
        let ipd = if self.packets == 0 { 0 } else { ts_micros.saturating_sub(self.last_ts_micros) };
        self.packets += 1;
        self.last_ts_micros = ts_micros;
        self.min_len = self.min_len.min(wire_len);
        self.max_len = self.max_len.max(wire_len);
        if self.packets >= 2 {
            self.min_ipd = self.min_ipd.min(ipd);
            self.max_ipd = self.max_ipd.max(ipd);
        }
        self.window.push(WindowObs { wire_len, ipd_micros: ipd });
        PacketObs { wire_len, ipd_micros: ipd, ts_micros }
    }

    /// True once the window holds `window_cap` packets.
    pub fn window_full(&self) -> bool {
        self.window.len == self.window.cap
    }
}

/// Default slot count of a [`FlowTable`] (and of every tracker built
/// through [`FlowTracker::new`]): 4096 slots, the scale of the paper's
/// per-flow register files (`flow_slots_log2` of 10–12). Any workload whose
/// distinct live flows fit the capacity behaves bit-identically to an
/// unbounded map.
pub const DEFAULT_FLOW_SLOTS: usize = 4096;

/// The victim window: a non-resident flow looks for an entry to reclaim
/// only among the first this-many positions of its probe chain (the first
/// idle-expired one; on a full table, else the least-recently-seen) — the
/// fixed handful of candidates a pipeline stage compares per lookup, and
/// the bounded-candidate approximation of LRU that real flow tables
/// (conntrack-style) use.
const EVICT_WINDOW: usize = 8;

/// Configuration of a [`FlowTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowTableConfig {
    /// Slot count — the hard capacity. The slab is preallocated at this
    /// size and never grows. Must be ≥ 1.
    pub capacity: usize,
    /// Idle-timeout aging on the table's packet-count clock (the clock
    /// ticks once per [`admit`](FlowTable::admit)): an entry not touched
    /// for more than this many table packets is considered dead — it is
    /// reclaimed by a new flow that finds it within its first 8 probe
    /// positions, and re-warms from scratch if its own flow returns. `0`
    /// disables aging.
    /// Ignored in alias mode (hash-indexed registers never age).
    pub idle_timeout_packets: u64,
    /// Hardware-faithful aliasing: no probing, no eviction — a flow's slot
    /// is exactly `hash % capacity`, and colliding flows *share* the slot's
    /// state, just like the switch's hash-indexed register files (§7.3).
    pub alias: bool,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig { capacity: DEFAULT_FLOW_SLOTS, idle_timeout_packets: 0, alias: false }
    }
}

impl FlowTableConfig {
    /// An evicting table of `capacity` slots (no aging).
    pub fn with_capacity(capacity: usize) -> Self {
        FlowTableConfig { capacity, ..FlowTableConfig::default() }
    }

    /// An alias-mode table of `capacity` slots.
    pub fn aliased(capacity: usize) -> Self {
        FlowTableConfig { capacity, idle_timeout_packets: 0, alias: true }
    }
}

/// What [`FlowTable::admit`] did with the packet's flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The flow was already resident; its state was found and touched.
    Existing,
    /// A new flow took an empty slot.
    Fresh,
    /// The flow was resident but idle past the timeout: its state was
    /// reset in place and it re-warms from scratch.
    Rewarmed,
    /// A new flow reclaimed the first idle-expired entry among its first 8
    /// probe positions (aging).
    EvictedIdle,
    /// The table was full and none of the new flow's first 8 probe
    /// positions was idle: it replaced the least-recently-seen of them
    /// (capacity pressure).
    EvictedCapacity,
    /// Alias mode: the flow's slot was owned by a different flow; the slot
    /// changed owners and the *state carried over*, exactly like colliding
    /// flows sharing a register-file slot on the switch.
    Aliased,
}

impl Admission {
    /// True when the flow starts (or restarts) from zeroed state — every
    /// outcome except [`Existing`](Admission::Existing) and
    /// [`Aliased`](Admission::Aliased) (aliased flows inherit the previous
    /// owner's state, as the hardware would).
    pub fn fresh_state(&self) -> bool {
        !matches!(self, Admission::Existing | Admission::Aliased)
    }

    /// True when another flow lost its state to this packet.
    pub fn evicted_other(&self) -> bool {
        matches!(self, Admission::EvictedIdle | Admission::EvictedCapacity)
    }
}

/// Cumulative counters of a [`FlowTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Entries reclaimed by idle-timeout aging (including in-place
    /// re-warms of a returning idle flow).
    pub evicted_idle: u64,
    /// Entries replaced under capacity pressure (table full).
    pub evicted_capacity: u64,
    /// Alias-mode slot-ownership changes (colliding flows).
    pub alias_collisions: u64,
    /// Highest occupancy ever reached.
    pub peak_occupancy: u64,
}

#[derive(Clone, Debug)]
struct Slot<V> {
    key: FiveTuple,
    last_seen: u64,
    value: V,
}

enum Probe {
    /// Key found at index; flag says it sat idle past the timeout.
    Hit(usize, bool),
    /// Key absent, nothing idle in the window: the chain's first empty slot.
    Empty(usize),
    /// Key absent: the first idle-expired slot of the window.
    Idle(usize),
    /// Key absent, table full, nothing idle in the window: the
    /// least-recently-seen slot of the window.
    Lru(usize),
}

/// A fixed-capacity, hash-indexed flow table — the bounded replacement for
/// `HashMap<FiveTuple, V>` in every serving layer.
///
/// Lookup and insertion probe linearly from `hash % capacity`. Occupied
/// slots are never emptied (entries are only ever *replaced*, in place),
/// so a resident key is always found before the first empty slot of its
/// chain — at load factors below ~0.9 the expected probe length is a small
/// constant, and memory is exactly `capacity` slots forever. A miss is
/// bounded per home slot, not by the table's fill history: each home
/// records its *reach* (the largest displacement of a resident hashed
/// there), so a key not found within its home's reach is absent. A
/// non-resident flow then reclaims only inside its first 8 probe positions
/// — the first idle-expired entry there if aging is configured, else (only
/// once the table is completely full) the least-recently-seen entry there;
/// while the table still has room and the window holds nothing idle, it
/// takes the first empty slot of its chain instead. Every entry placed by
/// reclaim therefore sits within 8 of its home: once the fill-phase
/// stragglers are churned out, a full table's miss examines 8 slots.
///
/// With `capacity ≥` the number of distinct live flows and aging disabled,
/// no eviction ever fires and the table is observationally identical to an
/// unbounded map.
///
/// In [alias mode](FlowTableConfig::alias) there is no probing at all:
/// `hash % capacity` *is* the slot, and colliding flows share its state —
/// the exact behavior of the switch's per-flow register files, which is
/// what makes the mode useful for hardware-faithful occupancy accounting.
#[derive(Clone, Debug)]
pub struct FlowTable<V> {
    slots: Vec<Option<Slot<V>>>,
    occupied: usize,
    clock: u64,
    cfg: FlowTableConfig,
    stats: FlowTableStats,
    /// Per home slot, the largest home→slot displacement of any resident
    /// hashed there (0 when none) — the exact miss bound: a key not found
    /// within `reach[home]` slots of its home is not resident. Raised on
    /// placement, re-tightened when a home's farthest entry is replaced.
    /// `u32` cannot truncate (capacity ≤ 2³²); empty in alias mode.
    reach: Vec<u32>,
    probe_steps: u64,
}

impl<V> FlowTable<V> {
    /// Preallocates a table per `cfg` (panics on zero capacity — reject
    /// that earlier with a proper error where user input reaches this).
    pub fn new(cfg: FlowTableConfig) -> Self {
        assert!(cfg.capacity >= 1, "flow table needs at least one slot");
        assert!(cfg.capacity as u64 <= 1 << 32, "homes are 32-bit hashes: at most 2^32 slots");
        let mut slots = Vec::new();
        slots.resize_with(cfg.capacity, || None);
        let reach = if cfg.alias { Vec::new() } else { vec![0; cfg.capacity] };
        let stats = FlowTableStats::default();
        FlowTable { slots, occupied: 0, clock: 0, cfg, stats, reach, probe_steps: 0 }
    }

    fn home(&self, key: &FiveTuple) -> usize {
        key.dataplane_hash() as usize % self.slots.len()
    }

    fn probe(&mut self, key: &FiveTuple, home: usize) -> Probe {
        let cap = self.slots.len();
        let (timeout, clock) = (self.cfg.idle_timeout_packets, self.clock);
        let is_idle = |s: &Slot<V>| timeout > 0 && clock - s.last_seen > timeout;
        let mut first_idle: Option<usize> = None;
        let mut lru = (home, u64::MAX);
        let mut limit = EVICT_WINDOW.min(cap);
        // `d` slots examined so far; `next` is the slot after them.
        let (mut d, mut next) = (0, home);
        let found = loop {
            if d == limit {
                // The window has settled the victim. Past it, a reclaiming
                // miss only proves the key absent (its home's reach); with
                // room and nothing idle it walks on to the first empty slot.
                let reclaims = first_idle.is_some() || self.occupied == cap;
                limit = if reclaims { self.reach[home] as usize + 1 } else { cap };
                if d >= limit {
                    break first_idle.map_or(Probe::Lru(lru.0), Probe::Idle);
                }
            }
            let i = next;
            next = if i + 1 == cap { 0 } else { i + 1 };
            d += 1;
            match &self.slots[i] {
                None => break first_idle.map_or(Probe::Empty(i), Probe::Idle),
                Some(s) if s.key == *key => break Probe::Hit(i, is_idle(s)),
                Some(s) if d <= EVICT_WINDOW => {
                    if first_idle.is_none() && is_idle(s) {
                        first_idle = Some(i);
                    }
                    if s.last_seen < lru.1 {
                        lru = (i, s.last_seen);
                    }
                }
                Some(_) => {}
            }
        };
        self.probe_steps += d as u64;
        found
    }

    /// Hands the occupied slot `idx` to `key`. When the victim was its own
    /// home's farthest entry, that home's reach drops to its farthest
    /// survivor — a rescan bounded by the old reach.
    fn reclaim(&mut self, idx: usize, key: FiveTuple, value: V) {
        let cap = self.slots.len();
        let s = self.slots[idx].as_mut().expect("victim slot occupied");
        let old = std::mem::replace(&mut s.key, key);
        s.value = value;
        let old_home = self.home(&old);
        let mut d = (idx + cap - old_home) % cap;
        if d < self.reach[old_home] as usize {
            return;
        }
        while d > 0 {
            d -= 1;
            self.probe_steps += 1;
            if matches!(&self.slots[(old_home + d) % cap], Some(s) if self.home(&s.key) == old_home)
            {
                break;
            }
        }
        self.reach[old_home] = d as u32;
    }

    /// Admits one packet of `key`'s flow: finds (or creates, via `new`) its
    /// slot, advances the packet-count clock, applies aging/eviction, and
    /// returns what happened plus the flow's state.
    #[inline]
    pub fn admit(&mut self, key: FiveTuple, new: impl FnOnce() -> V) -> (Admission, &mut V) {
        let (admission, _, value) = self.admit_indexed(key, new);
        (admission, value)
    }

    /// [`admit`](FlowTable::admit)'s body, which also reports the resolved
    /// slot index (the reference-model tests check it).
    // Inlined, with `admit`, into both shards' packet loops: left to the
    // inliner, it has been an out-of-line call per served packet.
    #[inline]
    fn admit_indexed(
        &mut self,
        key: FiveTuple,
        new: impl FnOnce() -> V,
    ) -> (Admission, usize, &mut V) {
        self.clock += 1;
        let cap = self.slots.len();
        let home = self.home(&key);

        let (idx, admission) = if self.cfg.alias {
            let admission = match &mut self.slots[home] {
                Some(s) if s.key == key => Admission::Existing,
                Some(s) => {
                    // State intentionally carried over: on the switch the
                    // register contents do not know the owner changed.
                    s.key = key;
                    self.stats.alias_collisions += 1;
                    Admission::Aliased
                }
                empty => {
                    *empty = Some(Slot { key, last_seen: self.clock, value: new() });
                    self.occupied += 1;
                    Admission::Fresh
                }
            };
            (home, admission)
        } else {
            let (idx, admission) = match self.probe(&key, home) {
                Probe::Hit(i, false) => (i, Admission::Existing),
                Probe::Hit(i, true) => {
                    // The flow's own entry aged out: re-warm from scratch.
                    self.stats.evicted_idle += 1;
                    self.slots[i].as_mut().expect("hit slot occupied").value = new();
                    (i, Admission::Rewarmed)
                }
                Probe::Empty(empty) => {
                    self.slots[empty] = Some(Slot { key, last_seen: self.clock, value: new() });
                    self.occupied += 1;
                    (empty, Admission::Fresh)
                }
                Probe::Idle(idle) => {
                    self.stats.evicted_idle += 1;
                    self.reclaim(idle, key, new());
                    (idle, Admission::EvictedIdle)
                }
                Probe::Lru(lru) => {
                    self.stats.evicted_capacity += 1;
                    self.reclaim(lru, key, new());
                    (lru, Admission::EvictedCapacity)
                }
            };
            if matches!(
                admission,
                Admission::Fresh | Admission::EvictedIdle | Admission::EvictedCapacity
            ) {
                let d = (idx + cap - home) % cap;
                self.reach[home] = self.reach[home].max(d as u32);
            }
            (idx, admission)
        };
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupied as u64);
        let slot = self.slots[idx].as_mut().expect("admitted slot occupied");
        slot.last_seen = self.clock;
        (admission, idx, &mut slot.value)
    }

    /// Looks up a resident flow's state (aging applies at
    /// [`admit`](FlowTable::admit) time only; an idle entry still reads).
    pub fn get(&self, key: &FiveTuple) -> Option<&V> {
        let home = self.home(key);
        if self.cfg.alias {
            return self.slots[home].as_ref().filter(|s| s.key == *key).map(|s| &s.value);
        }
        for d in 0..=self.reach[home] as usize {
            match &self.slots[(home + d) % self.slots.len()] {
                None => return None,
                Some(s) if s.key == *key => return Some(&s.value),
                Some(_) => {}
            }
        }
        None
    }

    /// Occupied slots (resident flows; in alias mode, slots with at least
    /// one owner ever).
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Cumulative eviction/collision counters.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }

    /// Slots examined by admission over the table's lifetime: probe walks
    /// plus reach rescans (alias mode examines none here).
    /// The exact, deterministic witness of admission cost — a count, not a
    /// duration.
    pub fn probe_steps(&self) -> u64 {
        self.probe_steps
    }

    /// Bytes of the preallocated slab and its reach side array — flat in
    /// the flow count by construction. Heap a value `V` owns is not
    /// counted; [`FlowState`] owns none.
    pub fn slab_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Option<Slot<V>>>()
            + self.reach.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Iterates resident flows **sorted by five-tuple**, so downstream
    /// reports and examples are reproducible run to run (slot order is an
    /// artifact of hashing and probe history).
    pub fn iter(&self) -> impl Iterator<Item = (&FiveTuple, &V)> {
        let mut entries: Vec<(&FiveTuple, &V)> =
            self.slots.iter().flatten().map(|s| (&s.key, &s.value)).collect();
        entries.sort_by_key(|(k, _)| **k);
        entries.into_iter()
    }
}

/// Host-side flow table: five-tuple → [`FlowState`], bounded by a
/// [`FlowTable`] slab.
#[derive(Clone, Debug)]
pub struct FlowTracker {
    table: FlowTable<FlowState>,
    window_cap: usize,
}

impl FlowTracker {
    /// Creates a tracker keeping per-flow windows of `window_cap` packets,
    /// with the default table shape ([`DEFAULT_FLOW_SLOTS`] slots, no
    /// aging) — behaviorally identical to the old unbounded tracker for
    /// any workload under that many concurrent flows.
    pub fn new(window_cap: usize) -> Self {
        FlowTracker::bounded(window_cap, FlowTableConfig::default())
    }

    /// Creates a tracker over an explicitly configured [`FlowTable`].
    /// Panics unless `1 ≤ window_cap ≤ WINDOW` (the inline window's width).
    pub fn bounded(window_cap: usize, table: FlowTableConfig) -> Self {
        assert!(
            (1..=WINDOW).contains(&window_cap),
            "window of {window_cap} packets: must be 1..={WINDOW}"
        );
        FlowTracker { table: FlowTable::new(table), window_cap }
    }

    /// Records a packet of `flow`: admits it to the table, returning the
    /// observation (with computed IPD), what the table did with the flow
    /// (evictions, aliasing, re-warms — the serving engine's counters come
    /// from here) and the updated flow state.
    // Inlined into the stateless shard's packet loop, across the crate
    // boundary, as `FlowTable::admit` is.
    #[inline]
    pub fn observe_admit(
        &mut self,
        flow: FiveTuple,
        ts_micros: u64,
        wire_len: u16,
    ) -> (PacketObs, Admission, &FlowState) {
        let window_cap = self.window_cap;
        let (admission, state) = self.table.admit(flow, || FlowState::new(window_cap));
        let obs = state.observe(ts_micros, wire_len);
        (obs, admission, &*state)
    }

    /// Looks up a flow's state.
    pub fn get(&self, flow: &FiveTuple) -> Option<&FlowState> {
        self.table.get(flow)
    }

    /// Number of tracked flows (occupied slots).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The table's fixed slot count.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Cumulative eviction/collision counters of the underlying table.
    pub fn table_stats(&self) -> FlowTableStats {
        self.table.stats()
    }

    /// Flow-state bytes: exactly the table's slab — every window lives
    /// inline in its slot, so this is fixed at construction and never
    /// grows, unlike a `HashMap` under churn.
    pub fn state_bytes(&self) -> u64 {
        self.table.slab_bytes()
    }

    /// Iterates tracked flows, sorted by five-tuple (reproducible order).
    pub fn iter(&self) -> impl Iterator<Item = (&FiveTuple, &FlowState)> {
        self.table.iter()
    }
}

// --- serde (control-daemon wire format) --------------------------------

serde::impl_serde_struct!(FiveTuple { src_ip, dst_ip, src_port, dst_port, protocol });
serde::impl_serde_struct!(FlowTableConfig { capacity, idle_timeout_packets, alias });

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(n: u32) -> FiveTuple {
        FiveTuple::new(n, 99, 1000, 80, 6)
    }

    #[test]
    fn ipd_computed_between_packets() {
        let mut t = FlowTracker::new(4);
        let (o1, _, _) = t.observe_admit(ft(1), 1000, 100);
        assert_eq!(o1.ipd_micros, 0);
        let (o2, _, _) = t.observe_admit(ft(1), 1500, 200);
        assert_eq!(o2.ipd_micros, 500);
    }

    #[test]
    fn min_max_stats_track() {
        let mut t = FlowTracker::new(4);
        t.observe_admit(ft(1), 0, 100);
        t.observe_admit(ft(1), 10, 1500);
        t.observe_admit(ft(1), 1000, 40);
        let s = t.get(&ft(1)).unwrap();
        assert_eq!(s.min_len, 40);
        assert_eq!(s.max_len, 1500);
        assert_eq!(s.min_ipd, 10);
        assert_eq!(s.max_ipd, 990);
        assert_eq!(s.packets, 3);
    }

    #[test]
    fn window_is_bounded_and_ordered() {
        let mut t = FlowTracker::new(2);
        t.observe_admit(ft(1), 0, 1);
        t.observe_admit(ft(1), 1, 2);
        t.observe_admit(ft(1), 2, 3);
        let s = t.get(&ft(1)).unwrap();
        assert_eq!(s.window.len(), 2);
        assert_eq!(s.window[0].wire_len, 2);
        assert_eq!(s.window[1].wire_len, 3);
        assert!(s.window_full());
    }

    #[test]
    fn flows_are_independent() {
        let mut t = FlowTracker::new(4);
        t.observe_admit(ft(1), 0, 100);
        t.observe_admit(ft(2), 5, 200);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&ft(1)).unwrap().packets, 1);
        assert_eq!(t.get(&ft(2)).unwrap().max_len, 200);
    }

    #[test]
    fn bidirectional_key_is_symmetric() {
        let a = FiveTuple::new(10, 20, 1000, 80, 6);
        assert_eq!(a.bidirectional_key(), a.reversed().bidirectional_key());
    }

    #[test]
    fn dataplane_hash_differs_across_flows() {
        assert_ne!(ft(1).dataplane_hash(), ft(2).dataplane_hash());
    }

    #[test]
    fn shard_of_is_direction_agnostic_and_covers_shards() {
        let a = FiveTuple::new(10, 20, 1000, 80, 6);
        for shards in [1usize, 2, 4, 7] {
            assert_eq!(a.shard_of(shards), a.reversed().shard_of(shards));
            assert!(a.shard_of(shards) < shards);
        }
        // Many flows spread over all shards.
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[ft(i).shard_of(4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn iter_is_sorted_by_five_tuple() {
        let mut t = FlowTracker::new(2);
        // Insertion order deliberately scrambled relative to tuple order.
        for n in [9u32, 1, 7, 3, 5] {
            t.observe_admit(ft(n), 0, 10);
        }
        let keys: Vec<u32> = t.iter().map(|(f, _)| f.src_ip).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn bounded_matches_unbounded_semantics_when_capacity_suffices() {
        // A 4-slot table over 3 flows behaves exactly like the old
        // unbounded map: every flow keeps its own state, no evictions.
        let mut t = FlowTracker::bounded(2, FlowTableConfig::with_capacity(4));
        for i in 0..6u64 {
            for n in 1..=3u32 {
                t.observe_admit(ft(n), i * 100, 100 + n as u16);
            }
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.table_stats(), FlowTableStats { peak_occupancy: 3, ..Default::default() });
        for n in 1..=3u32 {
            assert_eq!(t.get(&ft(n)).unwrap().packets, 6);
        }
    }

    #[test]
    fn full_table_evicts_lru_and_victim_rewarms_on_return() {
        // Capacity 2: flows A and B fill the table; C must evict the
        // least-recently-seen (A). When A returns it re-warms from scratch.
        let mut t = FlowTracker::bounded(4, FlowTableConfig::with_capacity(2));
        t.observe_admit(ft(1), 0, 10); // A
        t.observe_admit(ft(2), 1, 10); // B
        t.observe_admit(ft(2), 2, 10); // B again: A is now LRU
        let (_, adm, _) = t.observe_admit(ft(3), 3, 10); // C evicts A
        assert_eq!(adm, Admission::EvictedCapacity);
        assert_eq!(t.len(), 2);
        assert!(t.get(&ft(1)).is_none(), "A's state must be gone");
        assert_eq!(t.get(&ft(2)).unwrap().packets, 2, "B untouched");
        let (_, adm, state) = t.observe_admit(ft(1), 4, 10);
        assert!(adm.fresh_state(), "returning evicted flow starts over, got {adm:?}");
        assert_eq!(state.packets, 1);
        assert_eq!(t.table_stats().evicted_capacity, 2, "A's return evicted someone else");
    }

    #[test]
    fn idle_flows_age_out_on_the_packet_clock() {
        let cfg = FlowTableConfig { capacity: 8, idle_timeout_packets: 3, alias: false };
        let mut t = FlowTracker::bounded(4, cfg);
        t.observe_admit(ft(1), 0, 10);
        // Two packets of other flows: at flow 1's next admission the clock
        // has advanced 3 ticks since it was last seen (its own admission
        // ticks too) — exactly the timeout, not yet expired (strict
        // inequality).
        t.observe_admit(ft(2), 1, 10);
        t.observe_admit(ft(2), 2, 10);
        let (_, adm, _) = t.observe_admit(ft(1), 4, 10);
        assert_eq!(adm, Admission::Existing, "at the boundary the flow is still live");
        // Now push it past the timeout and watch it re-warm in place.
        for i in 0..4u64 {
            t.observe_admit(ft(2), 5 + i, 10);
        }
        let (_, adm, state) = t.observe_admit(ft(1), 20, 10);
        assert_eq!(adm, Admission::Rewarmed);
        assert_eq!(state.packets, 1, "aged-out flow restarts from scratch");
        assert_eq!(t.table_stats().evicted_idle, 1);
    }

    #[test]
    fn new_flow_reclaims_idle_slot_on_its_probe_path() {
        // A recently-active flow is protected: with every slot live, a new
        // flow falls back to capacity-pressure replacement...
        let cfg = FlowTableConfig { capacity: 1, idle_timeout_packets: 2, alias: false };
        let mut t = FlowTracker::bounded(4, cfg);
        t.observe_admit(ft(1), 0, 10);
        let (_, adm, _) = t.observe_admit(ft(2), 10, 10);
        assert_eq!(adm, Admission::EvictedCapacity);
        // ...but an idle-expired resident is reclaimed as EvictedIdle.
        let cfg2 = FlowTableConfig { capacity: 2, idle_timeout_packets: 2, alias: false };
        let mut t2 = FlowTracker::bounded(4, cfg2);
        t2.observe_admit(ft(1), 0, 10);
        for i in 1..=4u64 {
            t2.observe_admit(ft(2), i, 10); // ticks the clock; flow 1 goes idle
        }
        let (_, adm, _) = t2.observe_admit(ft(3), 5, 10);
        assert_eq!(adm, Admission::EvictedIdle);
        assert_eq!(t2.table_stats().evicted_idle, 1);
        assert!(t2.get(&ft(1)).is_none(), "the idle flow lost its slot");
        assert!(t2.get(&ft(2)).is_some(), "the live flow kept its slot");
    }

    #[test]
    fn alias_mode_shares_slot_state_like_register_files() {
        // Capacity 1 forces every flow onto one slot — the degenerate
        // register file. The second flow must CONTINUE the first flow's
        // state (window, counters), exactly like the switch's hash-indexed
        // registers, not reset it.
        let mut t = FlowTracker::bounded(2, FlowTableConfig::aliased(1));
        t.observe_admit(ft(1), 0, 10);
        let (_, adm, state) = t.observe_admit(ft(2), 1, 20);
        assert_eq!(adm, Admission::Aliased);
        assert_eq!(state.packets, 2, "aliased flow inherits the resident state");
        assert!(state.window_full(), "two packets fill the shared 2-window");
        assert_eq!(t.len(), 1);
        assert_eq!(t.table_stats().alias_collisions, 1);
        // The slot's owner is now flow 2; flow 1 is no longer resident.
        assert!(t.get(&ft(1)).is_none());
        assert!(t.get(&ft(2)).is_some());
    }

    #[test]
    fn alias_slot_indexing_matches_register_semantics() {
        // An alias table of 2^k slots and a RegisterArray of the same size
        // agree on which flows share state: slot = dataplane_hash % size.
        let slots = 16usize;
        let mut table = FlowTable::<u32>::new(FlowTableConfig::aliased(slots));
        let mut reg = vec![0u32; slots]; // a register array's counter bank
        for n in 0..64u32 {
            let flow = ft(n);
            reg[flow.dataplane_hash() as usize % slots] += 1;
            let (_, count) = table.admit(flow, || 0);
            *count += 1;
        }
        // Every resident entry's counter equals the register slot value.
        for (flow, &count) in table.iter() {
            assert_eq!(count, reg[flow.dataplane_hash() as usize % slots]);
        }
        assert_eq!(table.len(), reg.iter().filter(|&&c| c > 0).count());
    }

    #[test]
    fn residents_stay_findable_through_full_table_churn() {
        // The displacement-bounded miss scan must never lose a resident:
        // after every admit — across fill-up, saturation, and heavy
        // eviction churn — the admitted flow is immediately resident and
        // a re-admit is a plain hit.
        let mut t = FlowTable::<u32>::new(FlowTableConfig::with_capacity(32));
        for n in 0..500u32 {
            let flow = ft(n % 97); // revisits mix with new flows
            t.admit(flow, || n);
            assert!(t.get(&flow).is_some(), "flow {n} vanished right after admit");
            let (adm, _) = t.admit(flow, || u32::MAX);
            assert_eq!(adm, Admission::Existing, "flow {n} re-admit must hit its slot");
        }
        assert_eq!(t.len(), 32, "churn saturates the table");
    }

    /// Flow `n` with well-mixed address bits: `ft(n)`'s hash is a bijection
    /// on `n`'s low bits, so sequential `ft`s never collide in a
    /// power-of-two table — these cluster like real traffic.
    fn scattered(n: u32) -> FiveTuple {
        let z = u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        FiveTuple::new((z >> 32) as u32, (z >> 16) as u32, 1000, 80, 6)
    }

    /// The seeded generator the churn tests draw from.
    fn lcg(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        }
    }

    /// The stated admission policy, deliberately naive: a plain `Vec` of
    /// `(key, last_seen)` scanned end to end — no reach, no early exit.
    struct Model {
        slots: Vec<Option<(FiveTuple, u64)>>,
        clock: u64,
        timeout: u64,
        stats: FlowTableStats,
    }

    impl Model {
        fn admit(&mut self, key: FiveTuple) -> (Admission, usize) {
            self.clock += 1;
            let cap = self.slots.len();
            let (clock, timeout) = (self.clock, self.timeout);
            let idle = |seen: u64| timeout > 0 && clock - seen > timeout;
            let resident = self.slots.iter().position(|s| matches!(s, Some((k, _)) if *k == key));
            let (adm, idx) = if let Some(i) = resident {
                let (_, seen) = self.slots[i].expect("resident");
                (if idle(seen) { Admission::Rewarmed } else { Admission::Existing }, i)
            } else {
                let home = key.dataplane_hash() as usize % cap;
                let chain: Vec<usize> = (0..cap).map(|d| (home + d) % cap).collect();
                let first_empty = chain.iter().copied().find(|&i| self.slots[i].is_none());
                // The window: the chain's first EVICT_WINDOW positions, cut
                // at its first empty slot.
                let window: Vec<(usize, u64)> = chain
                    .iter()
                    .take(EVICT_WINDOW)
                    .map_while(|&i| self.slots[i].map(|(_, seen)| (i, seen)))
                    .collect();
                if let Some(&(i, _)) = window.iter().find(|(_, seen)| idle(*seen)) {
                    (Admission::EvictedIdle, i)
                } else if let Some(i) = first_empty {
                    (Admission::Fresh, i)
                } else {
                    let &(i, _) = window.iter().min_by_key(|(_, seen)| *seen).expect("full");
                    (Admission::EvictedCapacity, i)
                }
            };
            match adm {
                Admission::Rewarmed | Admission::EvictedIdle => self.stats.evicted_idle += 1,
                Admission::EvictedCapacity => self.stats.evicted_capacity += 1,
                _ => {}
            }
            self.slots[idx] = Some((key, clock));
            let occupied = self.slots.iter().flatten().count() as u64;
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(occupied);
            (adm, idx)
        }
    }

    /// Window-bounded reclaim and the per-home reach are held, step by
    /// step, against the naive model: same admission, same slot, same
    /// counters, every resident findable after every admit, and the reach
    /// array exact at the end.
    #[test]
    fn admission_matches_the_naive_reference_model() {
        let mut next = lcg(0x9e37_79b9);
        for capacity in [1usize, 2, 8, 32, 1024] {
            for idle_timeout_packets in [0u64, 6, 5000] {
                for flows in [24u64, 400, 4000] {
                    let cfg = FlowTableConfig { capacity, idle_timeout_packets, alias: false };
                    let mut table = FlowTable::<u64>::new(cfg);
                    let mut model = Model {
                        slots: vec![None; capacity],
                        clock: 0,
                        timeout: idle_timeout_packets,
                        stats: FlowTableStats::default(),
                    };
                    let mut flow = scattered(0);
                    for step in 0..3000u64 {
                        // One packet in four repeats the previous flow.
                        if step == 0 || next() & 3 != 0 {
                            flow = scattered((next() % flows) as u32);
                        }
                        let (adm, idx, _) = table.admit_indexed(flow, || step);
                        let at = (capacity, idle_timeout_packets, flows, step);
                        assert_eq!((adm, idx), model.admit(flow), "{at:?}");
                        assert_eq!(table.stats(), model.stats, "{at:?}");
                        assert_eq!(table.len(), model.slots.iter().flatten().count(), "{at:?}");
                        for (key, _) in model.slots.iter().flatten() {
                            assert!(table.get(key).is_some(), "{at:?}: resident {key:?} lost");
                        }
                    }
                    let mut reach = vec![0u32; capacity];
                    for (i, slot) in model.slots.iter().enumerate() {
                        let Some((key, _)) = slot else { continue };
                        let home = key.dataplane_hash() as usize % capacity;
                        reach[home] = reach[home].max(((i + capacity - home) % capacity) as u32);
                    }
                    assert_eq!(table.reach, reach, "cap {capacity}: reach must stay exact");
                }
            }
        }
    }

    #[test]
    fn tight_table_never_evicts_however_far_late_inserts_land() {
        // Capacity = distinct flows, aging off: the last inserts of a
        // filling table sit far from home (beyond the window), yet nothing
        // is evicted and every flow stays resident.
        for capacity in 1..=64usize {
            let mut t = FlowTable::<u32>::new(FlowTableConfig::with_capacity(capacity));
            for round in 0..3 {
                for n in 0..capacity as u32 {
                    let (adm, _) = t.admit(scattered(n), || n);
                    let want = if round == 0 { Admission::Fresh } else { Admission::Existing };
                    assert_eq!(adm, want, "capacity {capacity} round {round} flow {n}");
                }
            }
            assert_eq!(t.len(), capacity);
            assert_eq!(
                t.stats(),
                FlowTableStats { peak_occupancy: capacity as u64, ..Default::default() }
            );
            assert!((0..capacity as u32).all(|n| t.get(&scattered(n)) == Some(&n)));
        }
    }

    /// The `nth` test flow whose home slot in a `cap`-slot table is `home`.
    fn homed(cap: usize, home: usize, nth: usize) -> FiveTuple {
        let at_home = |f: &FiveTuple| f.dataplane_hash() as usize % cap == home % cap;
        (0..).map(ft).filter(at_home).nth(nth).expect("unbounded search")
    }

    #[test]
    fn replacing_a_homes_farthest_entry_brings_its_misses_back_inside_the_window() {
        const CAP: usize = 64;
        let h = 5;
        let mut t = FlowTable::<&str>::new(FlowTableConfig::with_capacity(CAP));
        let steps_of = |t: &mut FlowTable<&str>, key, tag| {
            let before = t.probe_steps();
            let (adm, idx, _) = t.admit_indexed(key, || tag);
            (adm, idx, t.probe_steps() - before)
        };
        // Slots h+1..h+39 taken by flows homed there; A homed at h sits at
        // h; B, also homed at h, lands 40 away; the rest fills up.
        for d in 1..40 {
            t.admit(homed(CAP, h + d, 0), || "filler");
        }
        let (a, b) = (homed(CAP, h, 0), homed(CAP, h, 1));
        t.admit(a, || "a");
        assert_eq!(steps_of(&mut t, b, "b"), (Admission::Fresh, h + 40, 41));
        for d in 41..CAP {
            t.admit(homed(CAP, h + d, 0), || "filler");
        }
        assert_eq!(t.len(), CAP);
        // A miss homed at h walks B's whole reach before it may evict (the
        // window's least-recently-seen: the filler at h+1).
        let c = homed(CAP, h, 2);
        assert_eq!(steps_of(&mut t, c, "c"), (Admission::EvictedCapacity, h + 1, 41));
        // B is the oldest entry of the window that starts at its slot: a
        // newcomer homed there replaces it, and home h's reach drops to C.
        let (adm, idx, _) = steps_of(&mut t, homed(CAP, h + 40, 1), "d");
        assert_eq!((adm, idx), (Admission::EvictedCapacity, h + 40));
        assert_eq!(t.reach[h], 1);
        assert!(t.get(&b).is_none());
        assert_eq!((t.get(&a), t.get(&c)), (Some(&"a"), Some(&"c")));
        // The next miss homed at h examines the window and nothing more.
        let (adm, _, steps) = steps_of(&mut t, homed(CAP, h, 3), "e");
        assert_eq!((adm, steps), (Admission::EvictedCapacity, EVICT_WINDOW as u64));
    }

    /// Admission cost is held by a count: on a full, churning table a miss
    /// examines a window's worth of slots, not the table's fill history.
    /// (The scan this replaced, bounded by a global displacement high-water
    /// mark, read 915 steps per miss on this input — CHANGES.md, PR 24.)
    #[test]
    fn a_full_tables_miss_examines_a_window_not_its_fill_history() {
        let cfg = FlowTableConfig { capacity: 1024, idle_timeout_packets: 5000, alias: false };
        let mut t = FlowTable::<u32>::new(cfg);
        let mut next = lcg(0x2545_f491);
        const ADMITS: u32 = 24_000;
        let (mut born, mut misses, mut miss_steps) = (0u32, 0u64, 0u64);
        for step in 0..ADMITS {
            // Mice churn: ~30 % of packets open a new flow, the rest
            // revisit one of the 64 most recently born.
            let flow = if born == 0 || next() % 10 < 3 {
                born += 1;
                scattered(born)
            } else {
                scattered(born - (next() % 64).min(u64::from(born) - 1) as u32)
            };
            let before = t.probe_steps();
            let (adm, _) = t.admit(flow, || step);
            if step >= ADMITS / 2 && (adm == Admission::Fresh || adm.evicted_other()) {
                misses += 1;
                miss_steps += t.probe_steps() - before;
            }
        }
        assert_eq!(t.len(), 1024, "the churn keeps the table full");
        assert!(misses > 3000, "~30 % of the second half must be new flows, got {misses}");
        assert!(
            miss_steps <= 16 * misses,
            "{miss_steps} slots examined over {misses} misses ({:.1} per miss)",
            miss_steps as f64 / misses as f64
        );
    }

    #[test]
    fn slab_bytes_is_flat_under_churn() {
        let mut t = FlowTracker::bounded(4, FlowTableConfig::with_capacity(64));
        let before = t.state_bytes();
        for n in 0..10_000u32 {
            t.observe_admit(ft(n), u64::from(n), 100);
        }
        assert_eq!(t.len(), 64);
        // Windows live in the slots: the state is the slab, before and after.
        assert_eq!(t.state_bytes(), before);
        assert_eq!(before, t.table.slab_bytes());
    }

    /// The inline window against a `VecDeque` reference at every packet:
    /// the last `window_cap` (wire_len, IPD) pairs of the slot's current
    /// life, oldest first. It restarts empty on every fresh-state admission
    /// (new, re-warmed, idle- or capacity-evicted) and carries over on an
    /// alias takeover, IPD included.
    /// The slot a resident `key` occupies.
    fn slot_of<V>(table: &FlowTable<V>, key: &FiveTuple) -> usize {
        table.slots.iter().position(|s| matches!(s, Some(s) if s.key == *key)).expect("resident")
    }

    #[test]
    fn inline_window_is_the_tail_of_a_vecdeque_model() {
        use std::collections::VecDeque;
        let mut next = lcg(0x5eed_f10e);
        let configs = [
            FlowTableConfig { capacity: 8, idle_timeout_packets: 6, alias: false },
            FlowTableConfig::with_capacity(4),
            FlowTableConfig::aliased(4),
        ];
        let mut kinds: Vec<Admission> = Vec::new();
        for window_cap in [1usize, 2, 4, 8] {
            let mut shifted = false;
            for cfg in configs {
                let mut t = FlowTracker::bounded(window_cap, cfg);
                // Per slot: the expected window and the previous timestamp
                // of the slot's current life (`None`: no packet yet).
                let mut model: Vec<(VecDeque<WindowObs>, Option<u64>)> =
                    vec![(VecDeque::new(), None); cfg.capacity];
                let mut ts = 0u64;
                for step in 0..3000 {
                    ts += next() % 5000;
                    // Three hot flows (long-lived, they fill windows) and
                    // thirteen mice (they churn the table).
                    let n = if next() & 3 != 0 { next() % 3 } else { 3 + next() % 13 };
                    let wire_len = 40 + (next() % 1460) as u16;
                    let flow = scattered(n as u32);
                    let (obs, adm, &state) = t.observe_admit(flow, ts, wire_len);
                    let (want, prev) = &mut model[slot_of(&t.table, &flow)];
                    if adm.fresh_state() {
                        want.clear();
                        *prev = None;
                    }
                    let ipd_micros = prev.map_or(0, |p| ts - p);
                    *prev = Some(ts);
                    want.push_back(WindowObs { wire_len, ipd_micros });
                    if want.len() > window_cap {
                        want.pop_front();
                    }
                    let at = (window_cap, cfg, step, adm);
                    assert_eq!(obs, PacketObs { wire_len, ipd_micros, ts_micros: ts }, "{at:?}");
                    assert!(state.window.iter().eq(want.iter()), "{at:?}: {:?}", &state.window[..]);
                    assert_eq!(state.window_full(), want.len() == window_cap, "{at:?}");
                    shifted |= state.packets > window_cap as u64;
                    if !kinds.contains(&adm) {
                        kinds.push(adm);
                    }
                }
            }
            assert!(shifted, "window {window_cap} never dropped its oldest entry");
        }
        kinds.sort_by_key(|k| format!("{k:?}"));
        use Admission::*;
        assert_eq!(kinds, [Aliased, EvictedCapacity, EvictedIdle, Existing, Fresh, Rewarmed]);
    }

    #[test]
    #[should_panic(expected = "must be 1..=8")]
    fn a_window_wider_than_the_inline_row_is_refused() {
        FlowTracker::bounded(WINDOW + 1, FlowTableConfig::default());
    }

    /// `FlowState` is `Copy`, and a `Copy` type cannot own heap memory: no
    /// admission, re-warm or eviction calls the allocator. (A counting
    /// allocator would need `unsafe`, which the crate forbids.)
    #[test]
    fn flow_state_is_plain_data() {
        fn copy<T: Copy>() {}
        copy::<FlowState>();
        assert!(std::mem::size_of::<WindowObs>() <= 16);
    }

    /// The host flow slot's size, pinned: a field added to the slot every
    /// packet touches is a visible, reviewed change (and `flow.state_kb`
    /// moves with it).
    #[test]
    fn a_flow_slot_is_208_bytes() {
        assert_eq!(std::mem::size_of::<Option<Slot<FlowState>>>(), 208);
    }
}
