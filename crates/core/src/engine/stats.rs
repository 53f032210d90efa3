//! Per-shard and aggregate streaming statistics.
//!
//! The engine reports throughput the way a packet benchmark does: aggregate
//! packets/s over wall-clock time, plus per-shard busy time and a
//! log₂-bucketed per-packet latency histogram (constant memory, mergeable
//! across shards, good enough for mean/p50/p99 reporting without storing
//! per-packet samples).
//!
//! # Counter families
//!
//! Each counter family is one `counter_family!` declaration that names
//! every field once, with its doc and its merge rule. The struct, its
//! `merge` and `fold`, its wire codec (declaration order is the wire
//! order) and, for the two families ingress writes lock-free, its atomic
//! twin all follow from that list. Adding a counter is one line in its
//! family's declaration plus the statement that increments it.

use crate::engine::server::{EngineStats, TenantStats, TenantToken};
use pegasus_net::{FiveTuple, ParseErrorKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Declares one counter family from one field list of `name: type => rule`.
/// The rule is how two values merge: `sum` adds, `min` and `max` keep the
/// extreme, `last` takes the incoming value (a gauge), `merge` folds a
/// nested family or a [`LatencyHistogram`], and `first` keeps the value the
/// fold started from (an index, not a count).
///
/// It emits the struct (attributes as written, every field `pub`), `merge`,
/// `fold` and the `impl_serde_struct!` codec. `pub struct Name atomic Twin`
/// also emits the crate-private `Twin`: an `AtomicU64` per field, a `merge`
/// that applies the `sum` and `last` rules with relaxed atomics, and
/// `snapshot`.
macro_rules! counter_family {
    (
        $(#[$attr:meta])*
        pub struct $name:ident atomic $twin:ident { $($body:tt)* }
    ) => {
        counter_family! { $(#[$attr])* pub struct $name { $($body)* } }
        counter_family! { @atomic $name $twin { $($body)* } }
    };
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $( $(#[$doc:meta])* $field:ident: $ty:ty => $rule:ident, )+
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $( $(#[$doc])* pub $field: $ty, )+
        }

        impl $name {
            /// Every field zero (histograms empty, nested families zeroed).
            fn zero() -> Self {
                Self { $( $field: Default::default(), )+ }
            }

            /// Folds `other` into `self`, each field by its declared rule.
            pub fn merge(&mut self, other: &Self) {
                $( counter_family!(@merge $rule, self.$field, other.$field); )+
            }

            /// `items` merged into the first of them, so a `min` or `first`
            /// field is taken over real items; no items give all zeros.
            pub fn fold<'a>(items: impl IntoIterator<Item = &'a Self>) -> Self {
                let mut items = items.into_iter();
                let mut acc = items.next().cloned().unwrap_or_else(Self::zero);
                items.for_each(|item| acc.merge(item));
                acc
            }
        }

        serde::impl_serde_struct!($name { $($field),+ });
    };
    (@atomic $name:ident $twin:ident {
        $( $(#[$doc:meta])* $field:ident: $ty:ty => $rule:ident, )+
    }) => {
        #[doc = concat!("[`", stringify!($name), "`] as atomics that ingress bumps and")]
        /// `stats` reads, both without a lock.
        #[derive(Default)]
        pub(crate) struct $twin {
            $( pub(crate) $field: AtomicU64, )+
        }

        impl $twin {
            /// Merges `delta` in, each field by its declared rule.
            pub(crate) fn merge(&self, delta: &$name) {
                $( counter_family!(@atomic_merge $rule, self.$field, delta.$field); )+
            }

            /// The counters as of now.
            pub(crate) fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.load(Relaxed), )+ }
            }
        }
    };
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge min, $a:expr, $b:expr) => { $a = $a.min($b) };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge last, $a:expr, $b:expr) => { $a = $b };
    (@merge merge, $a:expr, $b:expr) => { $a.merge(&$b) };
    (@merge first, $a:expr, $b:expr) => {};
    (@atomic_merge sum, $a:expr, $b:expr) => { $a.fetch_add($b, Relaxed) };
    (@atomic_merge last, $a:expr, $b:expr) => { $a.store($b, Relaxed) };
}

counter_family! {
    /// Counters of wire-format frames the raw ingress rejected, bucketed by
    /// [`ParseErrorKind`]. Mergeable across shards / the dispatcher by
    /// field-wise summation. A frame that fails to parse never reaches a
    /// tenant: it is counted here and dropped, the way a switch parser's
    /// no-match verdict sends a packet down the default path.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ParseErrorCounters atomic AtomicParseErrorCounters {
        /// Headers (or required options) ran past the end of the capture.
        truncated: u64 => sum,
        /// IPv4 header checksum mismatches.
        checksum: u64 => sum,
        /// Structurally invalid fields (bad IHL, bad version, nested VLAN…).
        malformed: u64 => sum,
        /// Layers the parser does not speak (ARP, ICMP, QinQ-free exotica).
        unsupported: u64 => sum,
    }
}

impl ParseErrorCounters {
    /// Counts one rejected frame.
    pub fn record(&mut self, kind: ParseErrorKind) {
        match kind {
            ParseErrorKind::Truncated => self.truncated += 1,
            ParseErrorKind::Checksum => self.checksum += 1,
            ParseErrorKind::Malformed => self.malformed += 1,
            ParseErrorKind::Unsupported => self.unsupported += 1,
        }
    }

    /// All rejected frames.
    pub fn total(&self) -> u64 {
        self.truncated + self.checksum + self.malformed + self.unsupported
    }
}

counter_family! {
    /// Counters of the engine's compiled routing plane: which structure
    /// resolved each packet, residual-scan work, and rebuild activity.
    /// Mergeable by field-wise summation except `last_rebuild_micros`, which
    /// is a gauge (most recent compile time).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RoutingCounters atomic AtomicRoutingCounters {
        /// Packets resolved by the dense destination-port LUT.
        lut_hits: u64 => sum,
        /// Packets resolved by the src/dst prefix tries.
        trie_hits: u64 => sum,
        /// Packets resolved by the protocol filter.
        proto_hits: u64 => sum,
        /// Packets resolved by a catch-all rule.
        catchall_hits: u64 => sum,
        /// Packets resolved by the residual predicate scan.
        residual_hits: u64 => sum,
        /// Total residual predicates evaluated across all lookups (scan work
        /// actually done — stays near zero when every rule compiles).
        residual_scans: u64 => sum,
        /// Packets no tenant rule matched.
        unrouted: u64 => sum,
        /// Compiled-router rebuilds (attach/swap/detach recompiles).
        rebuilds: u64 => sum,
        /// Wall-clock microseconds the most recent rebuild took.
        last_rebuild_micros: u64 => last,
    }
}

counter_family! {
    /// Fleet-wide compiled-artifact accounting: how many tenants share how
    /// many distinct artifacts, and what content-hash dedup saves. Counted
    /// from what the tenants actually hold — two tenants share an artifact
    /// exactly when they hold the same `Arc` — not from what equal content
    /// should have been deduplicated to.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ArtifactCounters {
        /// Tenants currently attached.
        tenants: u64 => sum,
        /// Distinct compiled artifacts among them (by `Arc` identity).
        unique_artifacts: u64 => sum,
        /// Content bytes actually resident: each distinct artifact (one shared
        /// `SwitchProgram`, no register cells) keeps the encoded content it
        /// was admitted on for the dedup compare, counted once however many
        /// tenants and shards hold it.
        resident_bytes: u64 => sum,
        /// Bytes that would be resident without dedup (each tenant's artifact
        /// counted separately).
        naive_bytes: u64 => sum,
    }
}

/// A log₂-bucketed latency histogram over nanoseconds.
///
/// Bucket `i` holds samples whose value has its highest set bit at
/// position `i` (i.e. `[2^i, 2^(i+1))`); quantiles are resolved to the
/// bucket's *geometric midpoint* (`2^i·√2`), the minimum-relative-error
/// point estimate for a log-bucketed sample, so reported p50/p99 carry at
/// most √2 relative error instead of the up-to-2× bias of reporting the
/// bucket's upper bound.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0, sum_nanos: 0, max_nanos: 0 }
    }
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&mut self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `n` samples of one value — what `n` calls to
    /// [`record`](LatencyHistogram::record) leave behind, in one update
    /// (a run's service time, shared evenly by its frames).
    pub fn record_n(&mut self, nanos: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = 63 - (nanos | 1).leading_zeros() as usize;
        self.buckets[bucket] += n;
        self.count += n;
        self.sum_nanos += nanos * n;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Largest sample seen.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// The `q`-quantile (`0.0..=1.0`) as the geometric midpoint of the
    /// log₂ bucket the rank falls in (`2^i·√2` for bucket `[2^i, 2^(i+1))`),
    /// clamped to the largest sample actually recorded.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                let midpoint = ((1u64 << i) as f64 * std::f64::consts::SQRT_2).round() as u64;
                return midpoint.min(self.max_nanos.max(1));
            }
        }
        self.max_nanos
    }
}

counter_family! {
    /// Occupancy and eviction counters of one bounded flow table (a shard's
    /// host tracker, or the hardware-faithful alias view of a per-flow
    /// register file). Mergeable across shards by field-wise summation —
    /// capacity sums too, because every shard owns its own table (the forked
    /// register-file model).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct FlowTableCounters {
        /// Slots currently occupied (the shard's resident flows).
        occupancy: u64 => sum,
        /// Fixed slot capacity.
        capacity: u64 => sum,
        /// Entries reclaimed by idle-timeout aging (incl. in-place re-warms).
        evictions_idle: u64 => sum,
        /// Entries replaced under capacity pressure (table full).
        evictions_capacity: u64 => sum,
        /// Alias-mode slot-ownership changes — packets of a flow whose
        /// register slot was owned by a different flow (hash collisions).
        alias_collisions: u64 => sum,
        /// Flow-state bytes: the preallocated slab, windows inline (host
        /// tables), or the register SRAM the slots model (alias views). Flat
        /// in the flow count by construction.
        state_bytes: u64 => sum,
    }
}

impl FlowTableCounters {
    /// All evictions (idle + capacity).
    pub fn evictions(&self) -> u64 {
        self.evictions_idle + self.evictions_capacity
    }
}

counter_family! {
    /// Hot-swap application progress for one shard (or, merged, a whole
    /// tenant).
    ///
    /// Swaps are published epoch/RCU-style: the control plane stores the new
    /// artifact in the tenant record and each shard picks it up at its next
    /// run boundary, so these counters are how an operator watches an apply
    /// land — `applied_epoch` catching up to the control plane's epoch. There
    /// is nothing to watch after that: a state-compatible swap leaves each
    /// shard's flow state in place, so the apply *is* the whole swap.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct SwapCounters {
        /// Artifact epoch this shard last applied. In a merged report this is
        /// the *minimum* across shards — the epoch every shard has reached —
        /// so one lagging shard keeps the tenant's reported epoch honest.
        applied_epoch: u64 => min,
        /// Swap publications this shard picked up at a packet/batch boundary.
        swaps_applied: u64 => sum,
        /// An upper bound on the nanoseconds the most recent apply took on
        /// this shard — re-pointing the executor at the published artifact (an
        /// `Arc` clone; a state-incompatible per-flow swap also zeroes a
        /// register file). The shard reads its clock per batch, not per apply,
        /// so this is the length of the clock interval the apply landed in: the
        /// batch whose run adopted it, or the last batch and the idle pass
        /// after it (0 if no interval was open). Merged reports keep the max
        /// across shards.
        last_apply_nanos: u64 => max,
    }
}

counter_family! {
    /// One shard worker's counters.
    #[derive(Clone, Debug)]
    pub struct ShardStats {
        /// Shard index (`0..shards`).
        shard: usize => first,
        /// Packets this shard consumed.
        packets: u64 => sum,
        /// Packets that produced a classification (flow window full).
        classified: u64 => sum,
        /// Packets swallowed by per-flow warm-up (window not yet full).
        warmup: u64 => sum,
        /// Flows resident on this shard — occupied flow-table slots. For
        /// per-flow register pipelines this is the hardware-faithful count
        /// (hash-colliding flows share a slot and count once).
        flows: u64 => sum,
        /// Nanoseconds spent serving packets (excludes queue waits and stats
        /// publication). The worker reads its clock once per batch; each
        /// batch's service time is split over its packets evenly, and this is
        /// the sum of this tenant's packets' shares.
        busy_nanos: u64 => sum,
        /// Per-packet processing latency: each packet records its batch's
        /// service time divided by the batch's served packets, so
        /// `latency.count() == packets`.
        latency: LatencyHistogram => merge,
        /// Occupancy/eviction/collision counters of this shard's flow table.
        table: FlowTableCounters => merge,
        /// Hot-swap apply counters.
        swap: SwapCounters => merge,
    }
}

impl ShardStats {
    pub(crate) fn new(shard: usize) -> Self {
        ShardStats { shard, ..ShardStats::zero() }
    }
}

/// What one tenant served, merged across shards: aggregate counters,
/// per-shard stats, and (when requested) every per-flow classification.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Packets the tenant's shards served.
    pub packets: u64,
    /// Packets that produced a classification.
    pub classified: u64,
    /// Packets consumed during per-flow warm-up.
    pub warmup: u64,
    /// Distinct flows across shards.
    pub flows: u64,
    /// Wall-clock nanoseconds since the tenant was attached, as of the
    /// snapshot, detach or shutdown that produced this report.
    pub elapsed_nanos: u64,
    /// Merged per-packet latency across shards.
    pub latency: LatencyHistogram,
    /// Merged flow-table counters across shards (capacity sums: each
    /// shard owns a full table, the forked register-file model).
    pub table: FlowTableCounters,
    /// Merged hot-swap apply counters (`applied_epoch` is the
    /// minimum across shards, counts sum, `last_apply_nanos` is the max).
    pub swap: SwapCounters,
    /// Per-flow classification sequences, in per-flow packet order (`Some`
    /// only in terminal reports of a tenant attached with
    /// [`TenantConfig::record_predictions`](crate::engine::TenantConfig::record_predictions)).
    /// Frames rejected at parse time never reach a tenant, so they are not
    /// here: they are the engine's
    /// [`EngineReport::parse_errors`](crate::engine::EngineReport::parse_errors).
    pub predictions: Option<HashMap<FiveTuple, Vec<usize>>>,
}

impl StreamReport {
    /// Aggregate wall-clock throughput in packets per second.
    pub fn pps(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.packets as f64 * 1e9 / self.elapsed_nanos as f64
        }
    }

    /// Majority-vote class per flow (ties to the smaller class id), when
    /// predictions were recorded.
    pub fn flow_verdicts(&self) -> Option<HashMap<FiveTuple, usize>> {
        let preds = self.predictions.as_ref()?;
        let mut out = HashMap::with_capacity(preds.len());
        for (flow, seq) in preds {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for &c in seq {
                *counts.entry(c).or_insert(0) += 1;
            }
            if let Some((&class, _)) =
                counts.iter().max_by_key(|(&class, &n)| (n, std::cmp::Reverse(class)))
            {
                out.insert(*flow, class);
            }
        }
        Some(out)
    }
}

// --- serde (control-daemon wire format) --------------------------------
//
// The counter families carry their codecs in their declarations. The
// histogram's buckets are private, so its impl lives here with the
// rest of the stats family; everything round-trips bit-exactly so the
// daemon's `stats` verb reports the same numbers an in-process
// `ControlHandle::stats` call would. The live snapshots themselves
// (`EngineStats`, `TenantStats`) travel as they are, a token as its id.

serde::impl_serde_struct!(LatencyHistogram { buckets, count, sum_nanos, max_nanos });
serde::impl_serde_struct!(StreamReport {
    shards,
    packets,
    classified,
    warmup,
    flows,
    elapsed_nanos,
    latency,
    table,
    swap,
    predictions,
});

serde::impl_serde_struct!(TenantToken(id));

serde::impl_serde_struct!(TenantStats { token, name, epoch, routed_packets, failed, report });
serde::impl_serde_struct!(EngineStats { tenants, unrouted, parse_errors, routing, artifacts });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_quantiles_bracket_samples() {
        let mut h = LatencyHistogram::default();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean_nanos() - 20_300.0).abs() < 1.0);
        assert_eq!(h.max_nanos(), 100_000);
        // p50 rank lands on the 400 ns sample, whose bucket is [256, 512):
        // the geometric midpoint is 256·√2 ≈ 362 — inside the bucket, not
        // the old upper bound of 512.
        assert_eq!(h.quantile_nanos(0.5), 362);
        assert!(h.quantile_nanos(0.5) >= 256 && h.quantile_nanos(0.5) < 512);
        // p100 lands in the 100_000 bucket [65536, 131072); the midpoint
        // ≈ 92682 stays within that bucket and below the recorded max.
        let p100 = h.quantile_nanos(1.0);
        assert!(p100 >= 65_536 && p100 <= h.max_nanos(), "{p100}");
    }

    #[test]
    fn quantile_midpoint_clamps_to_max_sample() {
        // One sample: every quantile must report a value no larger than it.
        let mut h = LatencyHistogram::default();
        h.record(1000); // bucket [512, 1024), midpoint ≈ 724
        assert_eq!(h.quantile_nanos(0.5), 724);
        let mut tiny = LatencyHistogram::default();
        tiny.record(520); // midpoint 724 exceeds the max sample -> clamp
        assert_eq!(tiny.quantile_nanos(0.99), 520);
    }

    #[test]
    fn record_n_is_n_records() {
        let (mut weighted, mut looped) = (LatencyHistogram::default(), LatencyHistogram::default());
        for (nanos, n) in [(0u64, 3u64), (1, 1), (777, 64), (1 << 40, 2), (5, 0)] {
            weighted.record_n(nanos, n);
            (0..n).for_each(|_| looped.record(nanos));
        }
        assert_eq!(weighted.buckets, looped.buckets);
        assert_eq!(
            (weighted.count, weighted.sum_nanos, weighted.max_nanos),
            (looped.count, looped.sum_nanos, looped.max_nanos)
        );
        assert_eq!((weighted.count(), weighted.max_nanos()), (70, 1 << 40));
    }

    #[test]
    fn histogram_merge_sums_counts() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(10);
        b.record(1000);
        b.record(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_nanos(), 2000);
    }

    /// One shard's counters, every field distinct per shard; `applied_epoch`
    /// is lowest on shard 1 and `last_apply_nanos` highest there.
    fn shard(i: usize) -> ShardStats {
        let k = i as u64;
        let mut s = ShardStats::new(i);
        (s.packets, s.classified, s.warmup, s.flows, s.busy_nanos) =
            (100 + k, 60 + k, 40, 5 + k, 1_000 * (k + 1));
        s.latency.record_n(250 << k, k + 1);
        s.table = FlowTableCounters {
            occupancy: 5 + k,
            capacity: 1024,
            evictions_idle: k,
            evictions_capacity: 2 * k,
            alias_collisions: 3 * k,
            state_bytes: 4096,
        };
        s.swap = SwapCounters {
            applied_epoch: [5, 3, 4][i],
            swaps_applied: k,
            last_apply_nanos: [70, 900, 40][i],
        };
        s
    }

    #[test]
    fn shard_stats_fold_applies_each_declared_rule() {
        let shards: Vec<ShardStats> = (0..3).map(shard).collect();
        let all = ShardStats::fold(&shards);
        assert_eq!(all.shard, 0, "the index is the first shard's, not a sum");
        assert_eq!((all.packets, all.classified, all.warmup, all.flows), (303, 183, 120, 18));
        assert_eq!(all.busy_nanos, 6_000);
        assert_eq!(
            all.table,
            FlowTableCounters {
                occupancy: 18,
                capacity: 3 * 1024,
                evictions_idle: 3,
                evictions_capacity: 6,
                alias_collisions: 9,
                state_bytes: 3 * 4096,
            }
        );
        assert_eq!(
            all.swap,
            SwapCounters { applied_epoch: 3, swaps_applied: 3, last_apply_nanos: 900 }
        );
        assert_eq!((all.latency.count(), all.latency.max_nanos()), (6, 1_000));

        // One shard folds to itself; none folds to zeros — epoch 0, not MAX.
        assert_eq!(serde::to_bytes(&ShardStats::fold([&shards[2]])), serde::to_bytes(&shards[2]));
        let none = ShardStats::fold([]);
        assert_eq!(serde::to_bytes(&none), serde::to_bytes(&ShardStats::new(0)));
        assert_eq!((none.swap.applied_epoch, none.latency.count()), (0, 0));
    }

    #[test]
    fn atomic_twins_snapshot_what_the_plain_counters_count() {
        let deltas = [
            RoutingCounters { lut_hits: 3, unrouted: 1, ..Default::default() },
            RoutingCounters { residual_scans: 7, residual_hits: 2, ..Default::default() },
            RoutingCounters { rebuilds: 1, last_rebuild_micros: 40, ..Default::default() },
            RoutingCounters { rebuilds: 1, last_rebuild_micros: 25, ..Default::default() },
        ];
        let (twin, mut plain) = (AtomicRoutingCounters::default(), RoutingCounters::default());
        for delta in &deltas {
            twin.merge(delta);
            plain.merge(delta);
        }
        // The ingress path bumps one field directly.
        twin.trie_hits.fetch_add(1, Relaxed);
        plain.trie_hits += 1;
        assert_eq!(twin.snapshot(), plain);
        assert_eq!((plain.rebuilds, plain.last_rebuild_micros), (2, 25), "a gauge keeps the last");

        let (twin, mut plain) =
            (AtomicParseErrorCounters::default(), ParseErrorCounters::default());
        for kind in [ParseErrorKind::Truncated, ParseErrorKind::Checksum, ParseErrorKind::Truncated]
        {
            let mut one = ParseErrorCounters::default();
            one.record(kind);
            twin.merge(&one);
            plain.record(kind);
        }
        assert_eq!(twin.snapshot(), plain);
        assert_eq!((plain.truncated, plain.checksum, plain.total()), (2, 1, 3));
    }

    #[test]
    fn flow_verdicts_majority_votes() {
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        let mut preds = HashMap::new();
        preds.insert(flow, vec![0, 1, 1, 2, 1]);
        let report = StreamReport {
            shards: vec![],
            packets: 5,
            classified: 5,
            warmup: 0,
            flows: 1,
            elapsed_nanos: 1,
            latency: LatencyHistogram::default(),
            table: FlowTableCounters::default(),
            swap: SwapCounters::default(),
            predictions: Some(preds),
        };
        assert_eq!(report.flow_verdicts().unwrap()[&flow], 1);
    }
}
