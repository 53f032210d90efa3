//! The flattened-LUT inference path: a compiled pipeline specialised at
//! deploy time into contiguous arrays for the streaming hot loop.
//!
//! The switch simulator ([`LoadedProgram`](pegasus_switch::LoadedProgram))
//! is built for *fidelity*: per packet it instantiates a fresh PHV (cloning
//! the named layout), walks heap-allocated table objects and dispatches
//! boxed match kinds — exactly what you want for resource modeling, and
//! exactly what you do not want between two packets of a 10 Gb/s stream.
//!
//! [`FlatProgram`] is the same pipeline specialised once, when it is
//! deployed:
//!
//! * the PHV becomes a plain `i64` scratch row per sample — no names, no
//!   per-packet allocation;
//! * **match**: every keyed table gets a per-key *bit-vector index*.
//!   Entries are sorted by (priority desc, index asc); per key, the
//!   entries' `Exact`/`Range` bounds cut the key's domain into elementary
//!   intervals (a ternary part cuts at every value), a `raw → interval`
//!   array of 2^bits `u16`s names the interval a value falls in, and each
//!   interval carries one `⌈entries/64⌉`-word bitset of the entries that
//!   match there. A lookup is one load pair per key, an AND, and
//!   `trailing_zeros` of the first non-zero word mapped back through the
//!   order array — the simulator's highest-priority-earliest-entry rule,
//!   the way a TCAM tests every range at once, at a cost independent of
//!   the entry count. Memory is `Σ_keys (2^bits × 2 B + intervals ×
//!   ⌈entries/64⌉ × 8 B)`. A table whose whole key domain is small
//!   (≤ 2¹⁶ points — the input-segment and index tables fuzzy matching
//!   produces) is materialised through its index into a **dense LUT**: one
//!   `Vec<u32>` indexed by the packed key codes, one load per lookup;
//! * **act**: each action's micro-ops are regrouped into *runs* — `n` ops
//!   of one shape whose dst/field/param indices step by one and whose dst
//!   fields share a width — by a greedy scheduler that hoists an op into
//!   the current run only when it has no RAW/WAR/WAW hazard on a scratch
//!   field with any op it jumps over. A run carries its truncation as a
//!   precomputed shift pair; its shape is matched once and its body is a
//!   slice loop executed in index order (a SumReduce row of adds is one
//!   run, as the action bus does it in one stage). A lone op is a run of
//!   one.
//!
//! The flattening is **semantics-preserving by construction**: entries,
//! match order, priority resolution, ALU wrapping and field truncation are
//! reproduced bit for bit; property tests hold the index to
//! [`Table::lookup`] and the scheduler to in-order interpretation, and the
//! engine's determinism tests and `pegasus-verify`'s zoo differential
//! assert equality against the simulator over whole traces. Programs with
//! stateful registers do not flatten (their per-flow state lives in the
//! register file), nor does a table matching a key wider than 16 bits (the
//! index's `raw → interval` array would not be cache-sized; no shipped net
//! has one); [`FlatProgram::from_pipeline`] returns a typed
//! [`FlattenSkip`] reason and the engine falls back to the simulator path.

use crate::compile::CompiledPipeline;
use crate::error::PegasusError;
use crate::numformat::NumFormat;
use pegasus_switch::{mask_of, AluOp, KeyPart, Operand, Table};
use std::fmt;

/// Largest key domain (in points) enumerated into a dense LUT. 2¹⁶ `u32`
/// slots = 256 KiB per table, comfortably cache-resident.
const DENSE_MAX_POINTS: u64 = 1 << 16;

/// Widest key the bit-vector index covers: its `raw → interval` array has
/// 2^bits `u16` slots (128 KiB at 16 bits), and interval ids fit a `u16`.
const INDEX_MAX_KEY_BITS: u8 = 16;

/// Why a compiled pipeline could not be flattened into a [`FlatProgram`].
///
/// Not an error: pipelines that do not flatten serve through the simulator
/// path instead. The reason is surfaced as a `V301` `Info` diagnostic in
/// [`VerifyReport`](crate::verify::VerifyReport)s and in per-tenant engine
/// stats ([`TenantStats::flatten_skip`](crate::engine::server::TenantStats::flatten_skip)),
/// so an operator can see *why* a tenant is on the slow path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlattenSkip {
    /// The program declares stateful register arrays; per-flow state
    /// cannot be baked into a stateless LUT.
    StatefulRegisters {
        /// Number of register arrays the program keeps.
        registers: usize,
    },
    /// An action of the named table performs a stateful (register) op.
    StatefulOp {
        /// The table whose action touches registers.
        table: String,
    },
    /// The named table matches a key too wide for the bit-vector index.
    WideKey {
        /// The table with the wide key.
        table: String,
        /// The key field's width in bits.
        bits: u8,
    },
}

impl fmt::Display for FlattenSkip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlattenSkip::StatefulRegisters { registers } => {
                write!(f, "{registers} stateful register array(s) keep per-flow state")
            }
            FlattenSkip::StatefulOp { table } => {
                write!(f, "table '{table}' has an action with a stateful register op")
            }
            FlattenSkip::WideKey { table, bits } => write!(
                f,
                "table '{table}' matches a {bits}-bit key (the index covers up to \
                 {INDEX_MAX_KEY_BITS})"
            ),
        }
    }
}

#[derive(Clone, Copy)]
struct FieldMeta {
    bits: u8,
    signed: bool,
}

/// Truncation to one field width as a precomputed shift pair:
/// `((v << shift) >> shift) & mask` sign-extends from the field's top bit,
/// then an unsigned field's mask clears the extension — bit-identical to
/// [`pegasus_switch::truncate`] with no branch on width or signedness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Trunc {
    shift: u32,
    mask: i64,
}

impl Trunc {
    fn of(m: FieldMeta) -> Trunc {
        Trunc {
            shift: 64u32.saturating_sub(u32::from(m.bits)).min(63),
            mask: if m.signed { -1 } else { mask_of(m.bits) as i64 },
        }
    }

    #[inline]
    fn apply(self, v: i64) -> i64 {
        ((v << self.shift) >> self.shift) & self.mask
    }

    /// The field width this truncates to.
    pub(crate) fn bits(self) -> u32 {
        64 - self.shift
    }

    /// The inclusive value range that survives truncation unchanged.
    pub(crate) fn range(self) -> (i64, i64) {
        if self.mask < 0 {
            (i64::MIN >> self.shift, i64::MAX >> self.shift)
        } else {
            (0, self.mask)
        }
    }
}

/// A flattened ALU operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    Field(usize),
    Const(i64),
    Param(usize),
}

impl Src {
    /// The operand `i` ops further along a run: indices step, constants
    /// repeat.
    pub(crate) fn step(self, i: usize) -> Src {
        match self {
            Src::Field(f) => Src::Field(f + i),
            Src::Const(c) => Src::Const(c),
            Src::Param(p) => Src::Param(p + i),
        }
    }
}

/// What a flattened ALU op computes (stateless subset of [`AluOp`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    Set,
    Add,
    Sub,
    Shl(u8),
    Shr(u8),
    Min,
    Max,
    And,
    Or,
    Xor,
    Popcnt,
}

impl OpKind {
    #[inline]
    fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            OpKind::Set => a,
            OpKind::Add => a.wrapping_add(b),
            OpKind::Sub => a.wrapping_sub(b),
            OpKind::Shl(amount) => a << amount,
            OpKind::Shr(amount) => a >> amount,
            OpKind::Min => a.min(b),
            OpKind::Max => a.max(b),
            OpKind::And => a & b,
            OpKind::Or => a | b,
            OpKind::Xor => a ^ b,
            OpKind::Popcnt => i64::from((a as u64).count_ones()),
        }
    }
}

/// A flattened ALU op over scratch indices: `dst ← kind(a, b)`, truncated
/// to `dst`'s width. Unary kinds carry `Src::Const(0)` as `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FlatOp {
    pub(crate) kind: OpKind,
    pub(crate) dst: usize,
    pub(crate) a: Src,
    pub(crate) b: Src,
}

impl FlatOp {
    /// The op `i` places further along a run.
    pub(crate) fn step(self, i: usize) -> FlatOp {
        FlatOp { kind: self.kind, dst: self.dst + i, a: self.a.step(i), b: self.b.step(i) }
    }
}

/// `len` ops of one shape: op `i` is `first.step(i)`, all truncating to
/// one width. Executed in index order, so a run is the sequential
/// semantics of the ops it groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) first: FlatOp,
    pub(crate) len: usize,
    pub(crate) trunc: Trunc,
}

impl Run {
    fn exec(&self, params: &[i64], vals: &mut [i64]) {
        let Run { first: FlatOp { kind, dst, a, b }, len, trunc } = *self;
        // Verifier invariants, once per run — V001: every scratch index in
        // bounds; V003: every param slot inside the entry data.
        let fits = |s: Src| match s {
            Src::Field(f) => f + len <= vals.len(),
            Src::Param(p) => p + len <= params.len(),
            Src::Const(_) => true,
        };
        debug_assert!(dst + len <= vals.len(), "V001: dst scratch run {dst}+{len} out of bounds");
        debug_assert!(fits(a) && fits(b), "V001/V003: run source {a:?}/{b:?}+{len} out of bounds");
        match (kind, a, b) {
            (OpKind::Set, Src::Param(p), _) => {
                for (v, &x) in vals[dst..dst + len].iter_mut().zip(&params[p..p + len]) {
                    *v = trunc.apply(x);
                }
            }
            (OpKind::Add, Src::Field(x), Src::Field(y)) => {
                for i in 0..len {
                    vals[dst + i] = trunc.apply(vals[x + i].wrapping_add(vals[y + i]));
                }
            }
            _ => {
                for i in 0..len {
                    let read = |s: Src| match s.step(i) {
                        Src::Field(f) => vals[f],
                        Src::Const(c) => c,
                        Src::Param(p) => params[p],
                    };
                    vals[dst + i] = trunc.apply(kind.eval(read(a), read(b)));
                }
            }
        }
    }
}

/// Regroups one action's ops into runs. Greedy: a run opens at the first
/// op not yet scheduled and takes every later op that continues it —
/// same shape, indices one further, same dst width — provided the op has
/// no hazard with an op it is hoisted over: it reads no field one of them
/// writes (RAW) and writes no field one of them reads or writes (WAR,
/// WAW). `read`/`written` mark the jumped-over ops' fields, so the check
/// is O(1) per candidate and allocates nothing.
fn schedule(ops: &[FlatOp], fields: &[FieldMeta]) -> Vec<Run> {
    let mut taken = vec![false; ops.len()];
    let (mut read, mut written) = (vec![false; fields.len()], vec![false; fields.len()]);
    let mut runs = Vec::new();
    for start in 0..ops.len() {
        if taken[start] {
            continue;
        }
        let mut run = Run { first: ops[start], len: 1, trunc: Trunc::of(fields[ops[start].dst]) };
        read.fill(false);
        written.fill(false);
        for j in start + 1..ops.len() {
            if taken[j] {
                continue;
            }
            let op = ops[j];
            let srcs = [op.a, op.b].map(|s| if let Src::Field(f) = s { Some(f) } else { None });
            let hazard =
                || srcs.iter().flatten().any(|&f| written[f]) || read[op.dst] || written[op.dst];
            if op == run.first.step(run.len) && Trunc::of(fields[op.dst]) == run.trunc && !hazard()
            {
                taken[j] = true;
                run.len += 1;
            } else {
                srcs.iter().flatten().for_each(|&f| read[f] = true);
                written[op.dst] = true;
            }
        }
        runs.push(run);
    }
    runs
}

/// The bit-vector index of one keyed table (see the module docs).
pub(crate) struct BitIndex {
    /// Entry indices by (priority desc, index asc): bit `b` of a bitset is
    /// entry `order[b]`, so the lowest set bit is the winner.
    pub(crate) order: Vec<u32>,
    /// Bitset words per interval, `⌈entries/64⌉`.
    pub(crate) words: usize,
    pub(crate) keys: Vec<KeyIndex>,
}

/// One key's share of a [`BitIndex`].
pub(crate) struct KeyIndex {
    /// Raw key value → elementary interval id (2^bits slots).
    pub(crate) interval_of: Vec<u16>,
    /// Interval-major bitsets (`intervals × words`) of the entries whose
    /// part on this key matches anywhere in — hence everywhere in — the
    /// interval.
    pub(crate) bitsets: Vec<u64>,
}

impl BitIndex {
    /// Builds the index of `t` over keys of the given widths (each at
    /// most [`INDEX_MAX_KEY_BITS`]).
    fn build(t: &Table, key_bits: impl Iterator<Item = u8>) -> BitIndex {
        let mut order: Vec<u32> = (0..t.entries.len() as u32).collect();
        // Stable: entries of equal priority stay in index order.
        order.sort_by_key(|&e| std::cmp::Reverse(t.entries[e as usize].priority));
        let words = t.entries.len().div_ceil(64);
        let keys = key_bits
            .enumerate()
            .map(|(j, bits)| {
                let domain = 1usize << bits;
                // The inclusive `[lo, hi]` an Exact/Range part matches,
                // clipped to the domain; `None` for a part that matches
                // nothing (inverted or out-of-width — the verifier's V004/
                // V005) and for a ternary part (enumerated below).
                let span = |p: &KeyPart| {
                    match *p {
                        KeyPart::Exact(v) => Some((v, v)),
                        KeyPart::Range { lo, hi } => Some((lo, hi.min(domain as u64 - 1))),
                        KeyPart::Ternary(_) => None,
                    }
                    .filter(|&(lo, hi)| lo <= hi && hi < domain as u64)
                    .map(|(lo, hi)| (lo as usize, hi as usize))
                };
                // Every value is its own interval under a ternary part;
                // otherwise intervals start at 0 and at each span's `lo`
                // and `hi + 1`.
                let interval_of: Vec<u16> =
                    if t.entries.iter().any(|e| matches!(e.keys[j], KeyPart::Ternary(_))) {
                        (0..domain).map(|v| v as u16).collect()
                    } else {
                        let mut cuts = Vec::with_capacity(2 + 2 * t.entries.len());
                        cuts.extend([0, domain]);
                        for (lo, hi) in t.entries.iter().filter_map(|e| span(&e.keys[j])) {
                            cuts.extend([lo, hi + 1]);
                        }
                        cuts.sort_unstable();
                        cuts.dedup();
                        let mut interval_of = Vec::with_capacity(domain);
                        for (iv, w) in cuts.windows(2).enumerate() {
                            interval_of.resize(w[1], iv as u16);
                        }
                        interval_of
                    };
                let intervals = usize::from(interval_of[domain - 1]) + 1;
                let mut bitsets = vec![0u64; intervals * words];
                for (b, &e) in order.iter().enumerate() {
                    let mut set = |iv: usize| bitsets[iv * words + b / 64] |= 1 << (b % 64);
                    match &t.entries[e as usize].keys[j] {
                        KeyPart::Ternary(k) => {
                            (0..domain).filter(|&v| k.matches(v as u64)).for_each(&mut set)
                        }
                        part => {
                            if let Some((lo, hi)) = span(part) {
                                (usize::from(interval_of[lo])..=usize::from(interval_of[hi]))
                                    .for_each(&mut set)
                            }
                        }
                    }
                }
                KeyIndex { interval_of, bitsets }
            })
            .collect();
        BitIndex { order, words, keys }
    }

    /// The winning entry for the key whose `j`-th raw value is `raw(j)`
    /// (masked to the key's width here).
    #[inline]
    fn lookup(&self, raw: impl Fn(usize) -> usize) -> Option<usize> {
        for w in 0..self.words {
            let mut acc = u64::MAX;
            for (j, k) in self.keys.iter().enumerate() {
                let iv = k.interval_of[raw(j) & (k.interval_of.len() - 1)];
                acc &= k.bitsets[usize::from(iv) * self.words + w];
            }
            if acc != 0 {
                return Some(self.order[w * 64 + acc.trailing_zeros() as usize] as usize);
            }
        }
        None
    }
}

/// How a flattened table finds its winning entry.
pub(crate) enum Matcher {
    /// No keys or no entries: the default action always runs.
    Always,
    /// Dense LUT over the packed key codes; slot = entry index + 1, 0 = no
    /// entry (default).
    Dense(Vec<u32>),
    /// Bit-vector index over a key domain too large to enumerate.
    Indexed(BitIndex),
}

pub(crate) struct FlatTable {
    /// Key fields as `(scratch index, bits)`.
    pub(crate) keys: Vec<(usize, u8)>,
    pub(crate) matcher: Matcher,
    /// Per-entry action index / slice into `data`.
    pub(crate) entry_action: Vec<u32>,
    pub(crate) entry_data: Vec<(u32, u32)>, // (offset, len)
    /// Contiguous action-data pool (entries first, then the default's).
    pub(crate) data: Vec<i64>,
    pub(crate) default_entry: Option<(u32, (u32, u32))>,
    /// Scheduled runs per action.
    pub(crate) actions: Vec<Vec<Run>>,
}

impl FlatTable {
    /// Resolves the winning entry over one scratch row.
    #[inline]
    fn match_entry(&self, vals: &[i64]) -> Option<usize> {
        // Verifier invariant V001: every key scratch index in bounds.
        debug_assert!(self.keys.iter().all(|&(f, _)| f < vals.len()), "V001: key out of bounds");
        match &self.matcher {
            Matcher::Always => None,
            Matcher::Dense(lut) => {
                let idx = self.keys.iter().fold(0usize, |idx, &(f, bits)| {
                    (idx << bits) | (vals[f] as u64 & mask_of(bits)) as usize
                });
                // Verifier invariant V101: the packed key code lands inside
                // the LUT (proved statically by interval analysis).
                debug_assert!(idx < lut.len(), "V101: packed LUT key {idx} >= {}", lut.len());
                // Slot encoding is entry index + 1.
                (lut[idx] as usize).checked_sub(1)
            }
            Matcher::Indexed(ix) => ix.lookup(|j| vals[self.keys[j].0] as usize),
        }
    }

    /// Matches one scratch row and runs the winning (or default) entry's
    /// action over it.
    fn exec(&self, vals: &mut [i64]) {
        let hit = self.match_entry(vals);
        // Verifier invariant V002: a hit names a real entry.
        debug_assert!(hit.is_none_or(|e| e < self.entry_action.len()), "V002: dangling {hit:?}");
        let (action, (off, len)) = match hit {
            Some(e) => (self.entry_action[e], self.entry_data[e]),
            None => match self.default_entry {
                Some(d) => d,
                None => return,
            },
        };
        // Verifier invariant V003: action index and data slice in bounds.
        debug_assert!(
            (action as usize) < self.actions.len(),
            "V003: action index {action} out of bounds"
        );
        debug_assert!(
            (off as usize + len as usize) <= self.data.len(),
            "V003: entry data [{off}, +{len}) outside pool of {}",
            self.data.len()
        );
        let params = &self.data[off as usize..(off + len) as usize];
        for run in &self.actions[action as usize] {
            run.exec(params, vals);
        }
    }
}

/// Reusable per-worker scratch for one-sample [`FlatProgram`] execution
/// ([`classify`](FlatProgram::classify) / [`scores`](FlatProgram::scores)):
/// a one-lane [`FlatBatchScratch`].
pub struct FlatScratch(FlatBatchScratch);

/// Reusable scratch for [`FlatProgram`] execution
/// ([`classify_batch`](FlatProgram::classify_batch)): every lane's field
/// row lives in one contiguous lane-major matrix. Grows to the largest
/// batch ever executed and is reused thereafter — the steady-state hot
/// loop performs no allocation.
pub struct FlatBatchScratch {
    /// Lane-major scratch rows (`lanes × fields`).
    vals: Vec<i64>,
}

/// A stateless compiled pipeline flattened for the streaming hot path.
///
/// Built by [`FlatProgram::from_pipeline`] (the runtime does this at deploy
/// time); executed via [`classify_batch`](FlatProgram::classify_batch), or
/// one sample at a time via [`classify`](FlatProgram::classify) /
/// [`scores`](FlatProgram::scores) with a caller-owned [`FlatScratch`].
pub struct FlatProgram {
    name: String,
    /// Scratch fields per lane.
    nfields: usize,
    tables: Vec<FlatTable>,
    /// Scratch index and truncation of each input feature code.
    inputs: Vec<(usize, Trunc)>,
    predicted_field: Option<usize>,
    score_fields: Vec<usize>,
    score_format: NumFormat,
}

#[cfg(test)]
thread_local! {
    /// [`FlatProgram::from_pipeline`] calls made on this thread (tests
    /// hold deploy to one and attach/swap to none).
    pub(crate) static FLATTENS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl FlatProgram {
    /// Flattens a compiled pipeline that passed the verifier's structural
    /// layer (field indices are trusted). Returns a typed [`FlattenSkip`]
    /// reason when the program keeps stateful registers (per-flow state
    /// cannot be baked into a LUT) or matches a key too wide to index —
    /// callers fall back to the simulator runtime and surface the reason
    /// in stats and verify reports.
    pub fn from_pipeline(p: &CompiledPipeline) -> Result<FlatProgram, FlattenSkip> {
        #[cfg(test)]
        FLATTENS.with(|n| n.set(n.get() + 1));
        if !p.program.registers.is_empty() {
            return Err(FlattenSkip::StatefulRegisters { registers: p.program.registers.len() });
        }
        let fields: Vec<FieldMeta> = p
            .program
            .layout
            .iter()
            .map(|(_, d)| FieldMeta { bits: d.bits, signed: d.signed })
            .collect();
        let tables =
            p.program.tables.iter().map(|t| flatten_table(t, &fields)).collect::<Result<_, _>>()?;
        Ok(FlatProgram {
            name: p.program.name.clone(),
            nfields: fields.len(),
            tables,
            inputs: p.input_fields.iter().map(|f| (f.0, Trunc::of(fields[f.0]))).collect(),
            predicted_field: p.predicted_field.map(|f| f.0),
            score_fields: p.score_fields.iter().map(|f| f.0).collect(),
            score_format: p.score_format,
        })
    }

    /// A zeroed one-sample scratch sized for this program.
    pub fn scratch(&self) -> FlatScratch {
        FlatScratch(self.batch_scratch(1))
    }

    /// A zeroed batch scratch pre-sized for `lanes` samples (it grows on
    /// demand if a larger batch is ever executed).
    pub fn batch_scratch(&self, lanes: usize) -> FlatBatchScratch {
        FlatBatchScratch { vals: vec![0; lanes * self.nfields] }
    }

    fn count_tables(&self, is: impl Fn(&Matcher) -> bool) -> usize {
        self.tables.iter().filter(|t| is(&t.matcher)).count()
    }

    /// Tables enumerated into dense LUTs.
    pub fn dense_tables(&self) -> usize {
        self.count_tables(|m| matches!(m, Matcher::Dense(_)))
    }

    /// Tables matched through a bit-vector index.
    pub fn indexed_tables(&self) -> usize {
        self.count_tables(|m| matches!(m, Matcher::Indexed(_)))
    }

    /// Ops in the longest scheduled run of any action.
    pub fn longest_run(&self) -> usize {
        let runs = self.tables.iter().flat_map(|t| t.actions.iter().flatten());
        runs.map(|r| r.len).max().unwrap_or(0)
    }

    /// Scratch fields per lane (verifier introspection).
    pub(crate) fn scratch_len(&self) -> usize {
        self.nfields
    }

    /// The flattened tables, in execution order (verifier introspection).
    pub(crate) fn flat_tables(&self) -> &[FlatTable] {
        &self.tables
    }

    /// Scratch index and truncation of each input feature code (verifier
    /// introspection: these seed the `[0, 255]` input intervals).
    pub(crate) fn inputs(&self) -> &[(usize, Trunc)] {
        &self.inputs
    }

    /// Classifies one sample of feature codes (each in `[0, 255]`),
    /// bit-identical to [`DataplaneModel::classify`](crate::runtime::DataplaneModel::classify).
    pub fn classify(&self, codes: &[f32], s: &mut FlatScratch) -> Result<usize, PegasusError> {
        let pf = self
            .predicted_field
            .ok_or_else(|| PegasusError::NotAClassifier { pipeline: self.name.clone() })?;
        self.run_batch(codes, 1, &mut s.0)?;
        Ok(s.0.vals[pf] as usize)
    }

    /// Classifies `lanes` samples in one table-major sweep, bit-identical
    /// to calling [`classify`](FlatProgram::classify) on each row of
    /// `codes` (row-major, `lanes × arity`) in order — `classify` *is*
    /// this sweep over one lane.
    ///
    /// Each table matches and acts on every lane before the next table is
    /// touched, so one table's index or LUT and its action data stay
    /// cache-hot while they are swept `lanes` times.
    pub fn classify_batch(
        &self,
        codes: &[f32],
        lanes: usize,
        s: &mut FlatBatchScratch,
        out: &mut Vec<usize>,
    ) -> Result<(), PegasusError> {
        let pf = self
            .predicted_field
            .ok_or_else(|| PegasusError::NotAClassifier { pipeline: self.name.clone() })?;
        self.run_batch(codes, lanes, s)?;
        out.clear();
        out.extend(
            s.vals.chunks_exact(self.nfields.max(1)).take(lanes).map(|row| row[pf] as usize),
        );
        Ok(())
    }

    /// Decoded output scores of one sample.
    pub fn scores(&self, codes: &[f32], s: &mut FlatScratch) -> Result<Vec<f32>, PegasusError> {
        if self.score_fields.is_empty() {
            return Err(PegasusError::NoScores { pipeline: self.name.clone() });
        }
        self.run_batch(codes, 1, &mut s.0)?;
        Ok(self.score_fields.iter().map(|&f| self.score_format.to_real(s.0.vals[f])).collect())
    }

    /// The one executor: stores every lane's input codes, then sweeps the
    /// tables over the lanes.
    fn run_batch(
        &self,
        codes: &[f32],
        lanes: usize,
        s: &mut FlatBatchScratch,
    ) -> Result<(), PegasusError> {
        let arity = self.inputs.len();
        if codes.len() != lanes * arity {
            return Err(PegasusError::FeatureCount { expected: lanes * arity, got: codes.len() });
        }
        // `max(1)`: a field- or input-less program has no rows to chunk.
        let nf = self.nfields.max(1);
        if s.vals.len() < lanes * nf {
            s.vals.resize(lanes * nf, 0);
        }
        let vals = &mut s.vals[..lanes * self.nfields];
        vals.fill(0);
        for (row, lane) in vals.chunks_exact_mut(nf).zip(codes.chunks_exact(arity.max(1))) {
            for (&(f, trunc), &v) in self.inputs.iter().zip(lane) {
                // Verifier invariant V001: input scratch index in bounds.
                debug_assert!(f < row.len(), "V001: input scratch index {f} out of bounds");
                row[f] = trunc.apply(round_code(v));
            }
        }
        for t in &self.tables {
            for row in vals.chunks_exact_mut(nf) {
                t.exec(row);
            }
        }
        Ok(())
    }
}

/// `v.round().clamp(0.0, 255.0) as i64` — the simulator's input
/// quantisation — without the libm `roundf` call: clamping first leaves a
/// value whose truncation is its floor and whose fraction is exact, and
/// rounding half away from zero is then one compare (NaN clamps to NaN
/// and casts to 0 either way).
#[inline]
fn round_code(v: f32) -> i64 {
    let c = v.clamp(0.0, 255.0);
    let floor = c as i64;
    floor + i64::from(c - floor as f32 >= 0.5)
}

fn flatten_src(op: &Operand) -> Src {
    match op {
        Operand::Field(f) => Src::Field(f.0),
        Operand::Const(c) => Src::Const(*c),
        Operand::Param(i) => Src::Param(*i),
    }
}

/// Flattens one action; `None` when it touches registers (stateful).
fn flatten_action(ops: &[AluOp]) -> Option<Vec<FlatOp>> {
    let unary = Operand::Const(0);
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let (kind, dst, a, b) = match op {
            AluOp::Set { dst, a } => (OpKind::Set, dst, a, &unary),
            AluOp::Add { dst, a, b } => (OpKind::Add, dst, a, b),
            AluOp::Sub { dst, a, b } => (OpKind::Sub, dst, a, b),
            AluOp::Shl { dst, a, amount } => (OpKind::Shl(*amount), dst, a, &unary),
            AluOp::Shr { dst, a, amount } => (OpKind::Shr(*amount), dst, a, &unary),
            AluOp::Min { dst, a, b } => (OpKind::Min, dst, a, b),
            AluOp::Max { dst, a, b } => (OpKind::Max, dst, a, b),
            AluOp::And { dst, a, b } => (OpKind::And, dst, a, b),
            AluOp::Or { dst, a, b } => (OpKind::Or, dst, a, b),
            AluOp::Xor { dst, a, b } => (OpKind::Xor, dst, a, b),
            AluOp::Popcnt { dst, a } => (OpKind::Popcnt, dst, a, &unary),
            AluOp::RegRead { .. }
            | AluOp::RegWrite { .. }
            | AluOp::RegReadWrite { .. }
            | AluOp::RegIncrSat { .. }
            | AluOp::RegShiftInsert { .. } => return None,
        };
        out.push(FlatOp { kind, dst: dst.0, a: flatten_src(a), b: flatten_src(b) });
    }
    Some(out)
}

fn flatten_table(t: &Table, fields: &[FieldMeta]) -> Result<FlatTable, FlattenSkip> {
    let keys: Vec<(usize, u8)> = t.keys.iter().map(|&(f, _)| (f.0, fields[f.0].bits)).collect();
    let actions: Vec<Vec<Run>> = t
        .actions
        .iter()
        .map(|a| flatten_action(&a.ops).map(|ops| schedule(&ops, fields)))
        .collect::<Option<_>>()
        .ok_or_else(|| FlattenSkip::StatefulOp { table: t.name.clone() })?;

    let mut data: Vec<i64> = Vec::new();
    let mut entry_action = Vec::with_capacity(t.entries.len());
    let mut entry_data = Vec::with_capacity(t.entries.len());
    for e in &t.entries {
        entry_action.push(e.action_idx as u32);
        entry_data.push((data.len() as u32, e.action_data.len() as u32));
        data.extend_from_slice(&e.action_data);
    }
    let default_entry = t.default_action.as_ref().map(|(idx, d)| {
        let off = data.len() as u32;
        data.extend_from_slice(d);
        (*idx as u32, (off, d.len() as u32))
    });

    let matcher = if keys.is_empty() || t.entries.is_empty() {
        Matcher::Always
    } else if let Some(&(_, bits)) = keys.iter().find(|k| k.1 > INDEX_MAX_KEY_BITS) {
        return Err(FlattenSkip::WideKey { table: t.name.clone(), bits });
    } else {
        let index = BitIndex::build(t, keys.iter().map(|k| k.1));
        let domain_bits: u32 = keys.iter().map(|k| u32::from(k.1)).sum();
        if 1u64 << domain_bits.min(63) <= DENSE_MAX_POINTS {
            // Materialise the whole key domain through the index: slot
            // `s` packs the keys first-key-highest, as `match_entry` does.
            let mut shift = domain_bits;
            let shifts: Vec<u32> = keys
                .iter()
                .map(|k| {
                    shift -= u32::from(k.1);
                    shift
                })
                .collect();
            let lut = (0..1usize << domain_bits)
                .map(|slot| index.lookup(|j| slot >> shifts[j]).map_or(0, |e| e as u32 + 1))
                .collect();
            Matcher::Dense(lut)
        } else {
            Matcher::Indexed(index)
        }
    };

    Ok(FlatTable { keys, matcher, entry_action, entry_data, data, default_entry, actions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, CompileTarget};
    use crate::fusion::fuse_basic;
    use crate::primitives::{MapFn, PrimitiveProgram};
    use crate::runtime::DataplaneModel;
    use pegasus_nn::Tensor;
    use pegasus_switch::{
        Action, FieldId, MatchKind, PhvLayout, SwitchConfig, TableEntry, TernaryKey,
    };
    use rand::Rng;
    use rand::SeedableRng;

    fn scorer() -> PrimitiveProgram {
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let w0 = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[2, 2]);
        let w1 = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0], &[2, 2]);
        let m0 = p.map(segs[0], MapFn::MatVec { weight: w0, bias: vec![0.0, 0.0] });
        let m1 = p.map(segs[1], MapFn::MatVec { weight: w1, bias: vec![0.0, 0.0] });
        let out = p.sum_reduce(&[m0, m1]);
        p.set_output(out);
        p
    }

    fn inputs(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..4).map(|_| rng.gen_range(0..256) as f32).collect()).collect()
    }

    #[test]
    fn flat_classify_matches_simulator_exhaustively() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(1500, 11),
            &CompileOptions { clustering_depth: 6, ..Default::default() },
            CompileTarget::Classify,
            "flat",
        )
        .expect("compiles");
        let dp = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        let flat = FlatProgram::from_pipeline(dp.pipeline()).expect("stateless flattens");
        let mut s = flat.scratch();
        for row in inputs(500, 12) {
            assert_eq!(
                flat.classify(&row, &mut s).unwrap(),
                dp.classify(&row).unwrap(),
                "row {row:?}"
            );
        }
        // Segment tables over 2x8-bit codes must have become dense LUTs.
        assert!(flat.dense_tables() >= 2, "dense {}", flat.dense_tables());
    }

    #[test]
    fn flat_scores_match_simulator() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(1000, 13),
            &CompileOptions::default(),
            CompileTarget::Scores,
            "flat_s",
        )
        .expect("compiles");
        let dp = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        let flat = FlatProgram::from_pipeline(dp.pipeline()).expect("flattens");
        let mut s = flat.scratch();
        for row in inputs(200, 14) {
            assert_eq!(flat.scores(&row, &mut s).unwrap(), dp.scores(&row).unwrap());
        }
        // Classify on a Scores pipeline is the same typed error.
        assert!(matches!(
            flat.classify(&[0.0; 4], &mut s),
            Err(PegasusError::NotAClassifier { .. })
        ));
    }

    #[test]
    fn batched_classify_matches_per_sample_classify() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(1500, 11),
            &CompileOptions { clustering_depth: 6, ..Default::default() },
            CompileTarget::Classify,
            "flat_b",
        )
        .expect("compiles");
        let dp = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        let flat = FlatProgram::from_pipeline(dp.pipeline()).expect("flattens");
        let mut scalar = flat.scratch();
        let mut batch = flat.batch_scratch(8);
        let mut out = Vec::new();
        let rows = inputs(509, 16); // deliberately not a multiple of any batch
        for lanes in [1usize, 7, 8, 64, 509] {
            for chunk in rows.chunks(lanes) {
                let codes: Vec<f32> = chunk.iter().flatten().copied().collect();
                // Ragged final chunk exercises partial batches (and scratch
                // growth past the 8 lanes it was presized for).
                flat.classify_batch(&codes, chunk.len(), &mut batch, &mut out).unwrap();
                assert_eq!(out.len(), chunk.len());
                for (row, &got) in chunk.iter().zip(&out) {
                    assert_eq!(
                        got,
                        flat.classify(row, &mut scalar).unwrap(),
                        "lanes {lanes}, row {row:?}"
                    );
                }
            }
        }
        // Empty batch is a no-op, not an error.
        flat.classify_batch(&[], 0, &mut batch, &mut out).unwrap();
        assert!(out.is_empty());
        // Ragged code slab is the same typed error as the scalar path.
        assert_eq!(
            flat.classify_batch(&[1.0; 7], 2, &mut batch, &mut out).unwrap_err(),
            PegasusError::FeatureCount { expected: 8, got: 7 }
        );
    }

    #[test]
    fn deploy_flattens_once_and_attach_and_swap_never() {
        use crate::engine::server::{EngineArtifact, EngineBuilder, TenantConfig};
        use crate::models::StreamFeatures;
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(800, 17),
            &CompileOptions::default(),
            CompileTarget::Classify,
            "flat_once",
        )
        .expect("compiles");
        let flattens = || FLATTENS.with(|n| n.get());
        let cfg = SwitchConfig::tofino2();
        let deployed = |c| EngineArtifact::from_compiled_pipeline(c, StreamFeatures::Stat, &cfg);
        let before = flattens();
        let first = deployed(c.clone()).expect("deploys");
        assert_eq!(flattens() - before, 1, "deploy verifies the FlatProgram it keeps");
        let second = deployed(c).expect("deploys");
        // Attach and swap verify on the calling thread, over the resident
        // FlatProgram: nothing is flattened again.
        let server = EngineBuilder::new().build().expect("builds");
        let control = server.control();
        let token = control.attach(first, TenantConfig::new()).expect("attaches");
        control.swap(token, second).expect("swaps");
        assert_eq!(flattens() - before, 2, "attach/swap re-flattened");
        server.shutdown().expect("shuts down");
    }

    #[test]
    fn flat_rejects_wrong_arity_like_runtime() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(500, 15),
            &CompileOptions::default(),
            CompileTarget::Classify,
            "flat_e",
        )
        .expect("compiles");
        let dp = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        let flat = FlatProgram::from_pipeline(dp.pipeline()).expect("flattens");
        let mut s = flat.scratch();
        assert_eq!(
            flat.classify(&[1.0, 2.0], &mut s).unwrap_err(),
            PegasusError::FeatureCount { expected: 4, got: 2 }
        );
    }

    // ---- property tests: index vs simulator lookup, runs vs in-order ----

    /// A seeded random table over `nkeys` key fields (1–16 bits, mixed
    /// Exact/Ternary/Range columns, overlapping entries, tied and distinct
    /// priorities). Entry `e` carries `[e]` as action data and the default
    /// `[-1]`, so the oracle's answer names its winner.
    fn random_table(
        rng: &mut rand::rngs::StdRng,
        entries: usize,
        nkeys: usize,
    ) -> (PhvLayout, Table, Vec<u8>) {
        let mut layout = PhvLayout::new();
        let widths: Vec<u8> = (0..nkeys).map(|_| rng.gen_range(1..=16)).collect();
        let keys: Vec<(FieldId, MatchKind)> = widths
            .iter()
            .enumerate()
            .map(|(j, &bits)| {
                let f = if rng.gen_bool(0.3) {
                    layout.add_signed_field(&format!("k{j}"), bits)
                } else {
                    layout.add_field(&format!("k{j}"), bits)
                };
                (f, [MatchKind::Exact, MatchKind::Ternary, MatchKind::Range][rng.gen_range(0..3)])
            })
            .collect();
        let out = layout.add_field("out", 32);
        let mut t = Table::new("prop", keys.clone());
        let a =
            t.add_action(Action::new("set").with(AluOp::Set { dst: out, a: Operand::Param(0) }));
        let uniform = rng.gen_bool(0.3);
        for e in 0..entries {
            let parts = keys
                .iter()
                .zip(&widths)
                .map(|(&(_, kind), &bits)| {
                    let top = mask_of(bits);
                    match kind {
                        // Exact values are expressible in every column kind.
                        MatchKind::Ternary if rng.gen_bool(0.8) => {
                            let mask = rng.gen_range(0..=top);
                            KeyPart::Ternary(TernaryKey {
                                value: rng.gen_range(0..=top) & mask,
                                mask,
                            })
                        }
                        MatchKind::Range if rng.gen_bool(0.8) => {
                            let lo = rng.gen_range(0..=top);
                            // Mostly wide boxes, so entries overlap.
                            let hi = if rng.gen_bool(0.5) { top } else { rng.gen_range(lo..=top) };
                            KeyPart::Range { lo, hi }
                        }
                        _ => KeyPart::Exact(rng.gen_range(0..=top)),
                    }
                })
                .collect();
            t.add_entry(TableEntry {
                keys: parts,
                priority: if uniform { 0 } else { rng.gen_range(0..4) },
                action_idx: a,
                action_data: vec![e as i64],
            });
        }
        if rng.gen_bool(0.5) {
            t.default_action = Some((a, vec![-1]));
        }
        (layout, t, widths)
    }

    #[test]
    fn indexed_winner_matches_simulator_lookup() {
        let (mut indexed, mut dense, mut missed) = (0, 0, 0);
        for (entries, seeds) in [(1, 8), (63, 6), (64, 6), (65, 6), (448, 2)] {
            for seed in 0..seeds {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1000 * entries as u64 + seed);
                let nkeys = rng.gen_range(1..=6);
                let (layout, t, widths) = random_table(&mut rng, entries, nkeys);
                let fields: Vec<FieldMeta> = layout
                    .iter()
                    .map(|(_, d)| FieldMeta { bits: d.bits, signed: d.signed })
                    .collect();
                let flat = flatten_table(&t, &fields).expect("keys are at most 16 bits");
                match flat.matcher {
                    Matcher::Indexed(_) => indexed += 1,
                    Matcher::Dense(_) => dense += 1,
                    Matcher::Always => unreachable!("keyed table with entries"),
                }
                // Probes: random points, and for (up to 64) entries every
                // part bound ± 1 on one key with the other keys held
                // inside that entry's box.
                let mut probes: Vec<Vec<u64>> = (0..300)
                    .map(|_| widths.iter().map(|&b| rng.gen_range(0..=mask_of(b))).collect())
                    .collect();
                for e in t.entries.iter().take(64) {
                    let bounds: Vec<(u64, u64)> = e
                        .keys
                        .iter()
                        .map(|p| match p {
                            KeyPart::Exact(v) => (*v, *v),
                            KeyPart::Ternary(k) => (k.value, k.value),
                            KeyPart::Range { lo, hi } => (*lo, *hi),
                        })
                        .collect();
                    let inside: Vec<u64> = bounds.iter().map(|b| b.0).collect();
                    for (j, &(lo, hi)) in bounds.iter().enumerate() {
                        for cut in [lo.wrapping_sub(1), lo, lo + 1, hi.wrapping_sub(1), hi, hi + 1]
                        {
                            let mut p = inside.clone();
                            p[j] = cut & mask_of(widths[j]);
                            probes.push(p);
                        }
                    }
                }
                let mut row = vec![0i64; fields.len()];
                for probe in probes {
                    let mut phv = layout.instantiate();
                    for (j, &raw) in probe.iter().enumerate() {
                        // Signed key fields hold the sign-extended value;
                        // the match sees the same raw bits either way.
                        phv.set(FieldId(j), raw as i64);
                        row[j] = phv.get(FieldId(j));
                    }
                    let want = t.lookup(&phv).map(|(_, data)| data[0]);
                    let got = flat.match_entry(&row);
                    let got = match got {
                        Some(e) => Some(e as i64),
                        None => flat.default_entry.map(|(_, (off, _))| flat.data[off as usize]),
                    };
                    missed += usize::from(want.is_none_or(|w| w < 0));
                    assert_eq!(got, want, "{entries} entries, seed {seed}, key {probe:?}");
                }
            }
        }
        // The sweep exercised both matchers and keys that match no entry.
        assert!(indexed >= 8 && dense >= 2 && missed >= 100, "{indexed} {dense} {missed}");
    }

    #[test]
    fn scheduled_runs_match_in_order_interpretation() {
        let (mut ops_total, mut runs_total, mut longest) = (0, 0, 0);
        for seed in 0..200u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Mixed widths/signedness in blocks, so some neighbouring dst
            // fields share a truncation and some do not.
            let mut fields = Vec::new();
            while fields.len() < 24 {
                // (63 is left out: the reference `truncate` overflows on it
                // in debug builds.)
                let widths = [1, 2, 7, 8, 13, 16, 31, 32, 33, 48, 62, 64];
                let m = FieldMeta {
                    bits: widths[rng.gen_range(0..widths.len())],
                    signed: rng.gen_bool(0.5),
                };
                fields.extend(std::iter::repeat_n(m, rng.gen_range(1..=8)));
            }
            let nf = fields.len();
            // A few stepped fragments over deliberately overlapping field
            // windows, randomly interleaved (order within one kept).
            let src = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..4) {
                0 => Src::Const(rng.gen_range(-300..300)),
                1 => Src::Param(rng.gen_range(0..8)),
                _ => Src::Field(rng.gen_range(0..8)),
            };
            let kinds = [
                OpKind::Set,
                OpKind::Add,
                OpKind::Sub,
                OpKind::Shl(rng.gen_range(0..64)),
                OpKind::Shr(rng.gen_range(0..64)),
                OpKind::Min,
                OpKind::Max,
                OpKind::And,
                OpKind::Or,
                OpKind::Xor,
                OpKind::Popcnt,
            ];
            let mut fragments: Vec<std::collections::VecDeque<FlatOp>> = (0..rng.gen_range(1..=4))
                .map(|_| {
                    let first = FlatOp {
                        kind: kinds[rng.gen_range(0..kinds.len())],
                        dst: rng.gen_range(0..8),
                        a: src(&mut rng),
                        b: src(&mut rng),
                    };
                    (0..rng.gen_range(1..=12)).map(|i| first.step(i)).collect()
                })
                .collect();
            let mut ops = Vec::new();
            while !fragments.is_empty() {
                let pick = rng.gen_range(0..fragments.len());
                ops.push(fragments[pick].pop_front().expect("non-empty"));
                if fragments[pick].is_empty() {
                    fragments.swap_remove(pick);
                }
            }
            let params: Vec<i64> = (0..20).map(|_| rng.gen::<u64>() as i64).collect();
            let start: Vec<i64> = fields
                .iter()
                .map(|m| pegasus_switch::truncate(rng.gen::<u64>() as i64, m.bits, m.signed))
                .collect();
            assert!(nf >= 20, "stepped indices stay inside the scratch");

            let mut want = start.clone();
            for op in &ops {
                let read = |s: Src, vals: &[i64]| match s {
                    Src::Field(f) => vals[f],
                    Src::Const(c) => c,
                    Src::Param(p) => params[p],
                };
                let v = op.kind.eval(read(op.a, &want), read(op.b, &want));
                want[op.dst] =
                    pegasus_switch::truncate(v, fields[op.dst].bits, fields[op.dst].signed);
            }
            let runs = schedule(&ops, &fields);
            let mut got = start;
            for run in &runs {
                run.exec(&params, &mut got);
            }
            assert_eq!(got, want, "seed {seed}: {ops:?} scheduled as {runs:?}");
            assert_eq!(runs.iter().map(|r| r.len).sum::<usize>(), ops.len());
            ops_total += ops.len();
            runs_total += runs.len();
            longest = longest.max(runs.iter().map(|r| r.len).max().unwrap_or(0));
        }
        // The scheduler did fuse (and hazards and width changes did split).
        assert!(runs_total * 2 < ops_total && longest >= 8, "{runs_total}/{ops_total}, {longest}");
    }

    #[test]
    fn interleaved_sum_reduce_rows_become_one_run_each() {
        // MLP-B's SumReduce shape: `d[i] ← x[i] + y[i]` interleaved with
        // `d[i] ← d[i] + z[i]`.
        let fields = vec![FieldMeta { bits: 16, signed: true }; 16];
        let add = |dst, a, b| FlatOp { kind: OpKind::Add, dst, a: Src::Field(a), b: Src::Field(b) };
        let ops: Vec<FlatOp> =
            (0..4).flat_map(|i| [add(12 + i, i, 4 + i), add(12 + i, 12 + i, 8 + i)]).collect();
        let runs = schedule(&ops, &fields);
        assert_eq!(runs.len(), 2, "{runs:?}");
        assert_eq!((runs[0].first, runs[0].len), (ops[0], 4));
        assert_eq!((runs[1].first, runs[1].len), (ops[1], 4));
        // `t[i] ← x[i] + y[i]` interleaved with `x[i+1] ← t[i] + t[i]`:
        // each add reads the field the op before it wrote, so the RAW
        // hazard keeps every op in place.
        let chained: Vec<FlatOp> =
            (0..4).flat_map(|i| [add(12 + i, i, 4 + i), add(i + 1, 12 + i, 12 + i)]).collect();
        assert_eq!(schedule(&chained, &fields).len(), chained.len());
    }

    #[test]
    fn round_code_is_round_then_clamp() {
        let mut probes = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, -0.5, 1e30, -1e30];
        for k in -2..=258 {
            for frac in [0.0f32, 0.25, 0.5, 0.75] {
                let v = k as f32 + frac;
                // The value and its two neighbours in f32.
                probes.extend([
                    v,
                    f32::from_bits(v.to_bits() + 1),
                    f32::from_bits(v.to_bits().wrapping_sub(1)),
                ]);
            }
        }
        for v in probes {
            assert_eq!(round_code(v), v.round().clamp(0.0, 255.0) as i64, "{v:?}");
        }
    }

    #[test]
    fn wide_key_table_falls_back_to_the_simulator() {
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 8);
        let wide = layout.add_field("wide", 20);
        let mut prog = pegasus_switch::SwitchProgram::new("wide", layout);
        let mut widen = Table::new("widen", vec![]);
        let shl = widen.add_action(Action::new("shl").with(AluOp::Shl {
            dst: wide,
            a: Operand::Field(x),
            amount: 8,
        }));
        widen.default_action = Some((shl, vec![]));
        prog.tables.push(widen);
        let mut t = Table::new("match_wide", vec![(wide, MatchKind::Range)]);
        let set =
            t.add_action(Action::new("set").with(AluOp::Set { dst: x, a: Operand::Param(0) }));
        t.param_widths = vec![8];
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 0, hi: 0x7fff }],
            priority: 0,
            action_idx: set,
            action_data: vec![1],
        });
        t.default_action = Some((set, vec![2]));
        prog.tables.push(t);
        let p = CompiledPipeline {
            program: prog,
            input_fields: vec![x],
            score_fields: vec![],
            score_format: NumFormat::code8(),
            predicted_field: Some(x),
            report: Default::default(),
        };
        assert_eq!(
            FlatProgram::from_pipeline(&p).err(),
            Some(FlattenSkip::WideKey { table: "match_wide".into(), bits: 20 })
        );
        let dp = DataplaneModel::deploy(p, &SwitchConfig::tofino2()).expect("deploys unflattened");
        assert!(dp.flat().is_none());
        assert_eq!(dp.classify(&[100.0]).unwrap(), 1);
        assert_eq!(dp.classify(&[200.0]).unwrap(), 2);
    }
}
