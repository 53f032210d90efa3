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
//! * the PHV becomes a plain `i64` field per sample — no names, no
//!   per-packet allocation — laid out field-major across a batch's lanes,
//!   so one field of every lane is one contiguous column;
//! * **match**: every keyed table gets a per-key *bit-vector index*.
//!   Entries are sorted by (priority desc, index asc); per key, the
//!   entries' parts cut the key's domain into *intervals* — sets of values
//!   no part tells apart: contiguous spans between the `Exact`/`Range`
//!   bounds, or, once a ternary part is involved, the classes left by
//!   refining the domain part by part — a `raw → interval` array of 2^bits
//!   `u16`s names the interval a value falls in, and each interval carries
//!   one `⌈entries/64⌉`-word bitset of the entries that match there. A
//!   lookup is one load pair per key, an AND, and `trailing_zeros` of the
//!   first non-zero word mapped back through the order array — the
//!   simulator's highest-priority-earliest-entry rule, the way a TCAM tests
//!   every range at once, at a cost independent of the entry count. Memory
//!   is `Σ_keys (2^bits × 2 B + intervals × ⌈rows/64⌉ × 8 B)`, a *row*
//!   being one entry's bit (see below). A **key wider than 16 bits** is
//!   indexed as 16-bit *limbs*: an exact or ternary part is a conjunction
//!   of bit tests, hence of its limbs' bit tests, so each limb gets a key
//!   index of its own and ANDs into the same bitset (CNN-L's 32-bit
//!   leading-bit IPD quantizer is two limbs of 17 intervals each). A range
//!   part on such a key is no conjunction: it becomes up to
//!   `2 × limbs − 1` *rows* of its entry — a partial lowest top-limb
//!   value, the whole top-limb values between, a partial highest one —
//!   each a conjunction of per-limb spans. An entry's rows are adjacent
//!   in the bitset, so the lowest set bit still names the winner; every
//!   other entry is one row. A table whose whole key domain is small (≤ 2¹⁶
//!   points — the input-segment and index tables fuzzy matching produces)
//!   is materialised through its index into a **dense LUT**: one `Vec<u32>`
//!   indexed by the packed key codes, one load per lookup;
//! * **act**: each action's micro-ops are regrouped into *runs* — `n` ops
//!   of one shape whose dst/field/param indices step by one and whose dst
//!   fields share a width — by a greedy scheduler that hoists an op into
//!   the current run only when it has no RAW/WAR/WAW hazard on a scratch
//!   field with any op it jumps over. A run carries its truncation as a
//!   precomputed shift pair; its shape is matched once and its ops execute
//!   in index order (a SumReduce row of adds is one run, as the action bus
//!   does it in one stage). A lone op is a run of one;
//! * **state**: the five register ops (`RegRead`, `RegWrite`,
//!   `RegReadWrite`, `RegIncrSat`, `RegShiftInsert`) flatten into `RegOp`s
//!   executed against a caller-owned [`RegFile`] — the file is *state* and
//!   belongs to whoever serves the flows, never to the program. A register
//!   op is a barrier to the scheduler: runs are formed on either side of
//!   it, none across. The executor is generic over the file (`Regs`): a
//!   register-free program is swept with `()`, and that instantiation
//!   contains no register code.
//!
//! # The executor
//!
//! One sweep serves both shard kinds, table-major: each table is done with
//! every lane of a batch before the next is touched. A register-free table
//! — Pegasus's Map conquering many vectors in parallel — runs in two
//! phases: **match** every lane first (a one-word index ANDs one bitset
//! column per key into every lane's word; other matchers resolve lane by
//! lane), then **act**: when every lane picked the same action, each run
//! executes op by op down the lanes' columns (a Set from params gathers
//! from the data pool by each lane's offset); otherwise the table runs
//! lane by lane. A table carrying register ops walks the lanes in arrival
//! order, each lane's whole action before the next. A one-lane sweep walks
//! every table, since its column is its row.
//!
//! # The ordering rule
//!
//! Register tables are lane-walked in arrival order; register-free tables
//! run op-major across lanes, legal because lanes share nothing outside
//! register arrays. Packet-at-a-time execution orders two register
//! accesses by (packet, table); the sweep orders them by (table, packet).
//! The two agree on the accesses *to one array* exactly when a single
//! table makes all of them — then both orders are "by packet" — and an
//! access only observes earlier accesses to its own array, so **a sweep is
//! bit-identical to packet-at-a-time execution iff every register array
//! is touched by exactly one table**. That is the PISA constraint anyway
//! (an array lives in one stage's stateful ALU) and holds for everything
//! `build_flow_pipeline` emits; the verifier rejects any other program
//! (`V010`) before it is flattened.
//!
//! The flattening is **semantics-preserving by construction**: entries,
//! match order, priority resolution, ALU wrapping, field truncation and
//! register index wrapping are reproduced bit for bit; property tests hold
//! the index to [`Table::lookup`], the scheduler to in-order
//! interpretation, random register-free programs swept by columns to the
//! one-lane walk lane by lane, and random register programs — every
//! lane's fields and the final register file — to the simulator under
//! heavy slot aliasing, and the engine's determinism tests and
//! `pegasus-verify`'s zoo differential (one-lane and batched) assert
//! equality against the simulator over whole traces. Every program the
//! verifier accepts flattens: the two shapes a sweep could not reproduce —
//! an array shared by two tables, and a *stateless* pipeline that declares
//! registers (its samples each start from a zeroed file) — are verifier
//! errors (`V010`, `V011`), so the engine has one executor and the
//! simulator serves only as the oracle.

use crate::compile::CompiledPipeline;
use crate::error::PegasusError;
use crate::numformat::NumFormat;
use pegasus_switch::{
    mask_of, AluOp, FieldId, KeyPart, Operand, RegFile, RegId, SwitchProgram, Table, TableEntry,
};
use std::ops::Range;

/// Largest key domain (in points) enumerated into a dense LUT. 2¹⁶ `u32`
/// slots = 256 KiB per table, comfortably cache-resident.
const DENSE_MAX_POINTS: u64 = 1 << 16;

/// Widest key slice one `raw → interval` array covers: 2^bits `u16` slots
/// (128 KiB at 16 bits), interval ids fitting a `u16`. A wider key is
/// matched limb by limb.
const INDEX_MAX_KEY_BITS: u8 = 16;

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
    pub(crate) fn apply(self, v: i64) -> i64 {
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
    // `inline(always)`, here and on `FlatTable::{match_entry, pick, act,
    // exec}`: the executor is instantiated once per register-file kind and
    // calls these from the one-lane walk, the register walk and the column
    // sweep — and a one-lane walk addresses its row as cheaply as before
    // columns existed only when `Lane::ONE` is folded into every index.
    #[inline(always)]
    fn exec(&self, params: &[i64], vals: &mut [i64], lane: Lane) {
        let Run { first: FlatOp { kind, dst, a, b }, len, trunc } = *self;
        let at = |f: usize| lane.at(f);
        // Verifier invariants, once per run — V001: every scratch index in
        // bounds; V003: every param slot inside the entry data.
        let fits = |s: Src| match s {
            Src::Field(f) => at(f + len - 1) < vals.len(),
            Src::Param(p) => p + len <= params.len(),
            Src::Const(_) => true,
        };
        debug_assert!(fits(Src::Field(dst)), "V001: dst scratch run {dst}+{len} out of bounds");
        debug_assert!(fits(a) && fits(b), "V001/V003: run source {a:?}/{b:?}+{len} out of bounds");
        match (kind, a, b) {
            (OpKind::Set, Src::Param(p), _) => {
                let out = vals[at(dst)..=at(dst + len - 1)].chunks_mut(lane.lanes);
                for (v, &x) in out.zip(&params[p..p + len]) {
                    v[0] = trunc.apply(x);
                }
            }
            (OpKind::Add, Src::Field(x), Src::Field(y)) => {
                for i in 0..len {
                    vals[at(dst + i)] = trunc.apply(vals[at(x + i)].wrapping_add(vals[at(y + i)]));
                }
            }
            _ => {
                for i in 0..len {
                    let read = |s: Src| match s.step(i) {
                        Src::Field(f) => vals[at(f)],
                        Src::Const(c) => c,
                        Src::Param(p) => params[p],
                    };
                    vals[at(dst + i)] = trunc.apply(kind.eval(read(a), read(b)));
                }
            }
        }
    }

    /// Runs the ops op by op, each down every lane's column, for `lanes`
    /// lanes that all picked this run's action; `picks` holds each lane's
    /// slice of `data`, the shortest of which is `shortest` long.
    fn exec_columns(
        &self,
        vals: &mut [i64],
        lanes: usize,
        data: &[i64],
        picks: &[Pick],
        shortest: usize,
    ) {
        let Run { first: FlatOp { kind, dst, a, b }, len, trunc } = *self;
        // V003, for real: a gather indexes the whole pool, so a run reading
        // past the shortest selected slice would read the next entry's data
        // where a lane walk's slice panics.
        let fits = |s: Src| !matches!(s, Src::Param(p) if p + len > shortest);
        assert!(fits(a) && fits(b), "V003: run params {a:?}/{b:?}+{len} past entry data");
        // Cells: a column op may read the column it writes, lane for lane.
        let cells = std::cell::Cell::from_mut(vals).as_slice_of_cells();
        let col = |f: usize| &cells[f * lanes..][..lanes];
        for i in 0..len {
            let out = col(dst + i);
            match (kind, a.step(i), b.step(i)) {
                (OpKind::Set, Src::Param(p), _) => {
                    for (v, pick) in out.iter().zip(picks) {
                        v.set(trunc.apply(data[pick.off as usize + p]));
                    }
                }
                (OpKind::Add, Src::Field(x), Src::Field(y)) => {
                    for ((v, x), y) in out.iter().zip(col(x)).zip(col(y)) {
                        v.set(trunc.apply(x.get().wrapping_add(y.get())));
                    }
                }
                (kind, Src::Field(x), Src::Const(c)) => {
                    for (v, x) in out.iter().zip(col(x)) {
                        v.set(trunc.apply(kind.eval(x.get(), c)));
                    }
                }
                (kind, a, b) => {
                    for (l, (v, pick)) in out.iter().zip(picks).enumerate() {
                        let read = |s: Src| match s {
                            Src::Field(f) => col(f)[l].get(),
                            Src::Const(c) => c,
                            Src::Param(p) => data[pick.off as usize + p],
                        };
                        v.set(trunc.apply(kind.eval(read(a), read(b))));
                    }
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

/// What a flattened register op does to `reg[index]` after reading it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RegKind {
    /// Nothing (`RegRead`).
    Read,
    /// `reg[index] ← a`, the old value going nowhere (`RegWrite`).
    Write,
    /// `reg[index] ← a` (`RegReadWrite`).
    ReadWrite,
    /// `reg[index] ← min(old + by, max)` (`RegIncrSat`).
    IncrSat { by: i64, max: i64 },
    /// `reg[index] ← ((old << shift) | a) & mask` (`RegShiftInsert`).
    ShiftInsert { shift: u8, mask: u64 },
}

/// A flattened stateful op over scratch indices: `dst ← reg[index]`
/// (truncated to `dst`'s width), then `kind`'s update of the slot. The
/// array wraps the index modulo its size and truncates what it stores,
/// exactly as under the simulator — both go through [`RegFile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RegOp {
    pub(crate) kind: RegKind,
    pub(crate) reg: usize,
    pub(crate) index: Src,
    /// The inserted value (`Src::Const(0)` for kinds that take none).
    pub(crate) a: Src,
    /// `None` for `Write`, the one kind that reads nothing back.
    pub(crate) dst: Option<(usize, Trunc)>,
}

/// One lane of field-major scratch columns: field `f` of lane `l` is
/// `vals[f * lanes + l]`.
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    lanes: usize,
    l: usize,
}

impl Lane {
    /// The only lane of a one-lane sweep, whose column is its row.
    const ONE: Lane = Lane { lanes: 1, l: 0 };

    #[inline(always)]
    fn at(self, f: usize) -> usize {
        f * self.lanes + self.l
    }
}

/// The register file a sweep executes against: `()` for a register-free
/// program — whose instantiation of the executor contains no register code
/// at all — and the caller's [`RegFile`] for a per-flow one.
pub(crate) trait Regs {
    /// Whether actions can carry [`RegOp`]s under this file.
    const STATEFUL: bool;
    /// Executes one register op for `lane` of the scratch columns `vals`.
    fn apply(&mut self, op: &RegOp, params: &[i64], vals: &mut [i64], lane: Lane);
}

impl Regs for () {
    const STATEFUL: bool = false;
    fn apply(&mut self, _: &RegOp, _: &[i64], _: &mut [i64], _: Lane) {}
}

impl Regs for RegFile {
    const STATEFUL: bool = true;
    fn apply(&mut self, op: &RegOp, params: &[i64], vals: &mut [i64], lane: Lane) {
        let read = |s: Src| match s {
            Src::Field(f) => vals[lane.at(f)],
            Src::Const(c) => c,
            Src::Param(p) => params[p],
        };
        let (reg, idx, a) = (RegId(op.reg), read(op.index) as usize, read(op.a));
        let old = self.read(reg, idx);
        match op.kind {
            RegKind::Read => {}
            RegKind::Write | RegKind::ReadWrite => self.write(reg, idx, a),
            RegKind::IncrSat { by, max } => self.write(reg, idx, old.wrapping_add(by).min(max)),
            RegKind::ShiftInsert { shift, mask } => {
                self.write(reg, idx, (((old << shift) | a) as u64 & mask) as i64)
            }
        }
        if let Some((dst, trunc)) = op.dst {
            vals[lane.at(dst)] = trunc.apply(old);
        }
    }
}

/// One flattened action: its ALU ops as scheduled runs, and its register
/// ops, each a barrier pinned before run `at`. Runs are scheduled
/// separately on either side of a register op, so none is ever hoisted
/// over one and register ops keep their program order.
#[derive(Debug, Default)]
pub(crate) struct FlatAction {
    pub(crate) runs: Vec<Run>,
    /// `(at, op)`: `op` executes after `runs[..at]`, in list order.
    pub(crate) regs: Vec<(usize, RegOp)>,
}

/// One step of an action in execution order.
pub(crate) enum Step<'a> {
    Run(&'a Run),
    Reg(&'a RegOp),
}

impl FlatAction {
    /// The action's runs and register ops merged back into program order.
    pub(crate) fn steps(&self) -> impl Iterator<Item = Step<'_>> {
        let mut regs = self.regs.iter().peekable();
        let mut at = 0;
        std::iter::from_fn(move || {
            if let Some((_, op)) = regs.next_if(|(before, _)| *before == at) {
                return Some(Step::Reg(op));
            }
            at += 1;
            self.runs.get(at - 1).map(Step::Run)
        })
    }
}

/// One ≤ [`INDEX_MAX_KEY_BITS`]-bit slice of a key: bits
/// `shift..shift + width` of table key `key`, which lives in scratch
/// field `field`.
pub(crate) struct Limb {
    pub(crate) key: usize,
    pub(crate) field: usize,
    pub(crate) shift: u8,
    pub(crate) width: u8,
}

/// The slices `keys` (`(scratch index, bits)` each) are indexed by,
/// key-major, low bits first: a key itself when it is narrow enough,
/// 16-bit limbs otherwise.
pub(crate) fn limbs(keys: &[(usize, u8)]) -> impl Iterator<Item = Limb> + '_ {
    keys.iter().enumerate().flat_map(|(key, &(field, bits))| {
        (0..bits).step_by(usize::from(INDEX_MAX_KEY_BITS)).map(move |shift| Limb {
            key,
            field,
            shift,
            width: (bits - shift).min(INDEX_MAX_KEY_BITS),
        })
    })
}

/// What [`BitIndex::limbs`] holds for `keys`: every limb's
/// `(scratch field, shift)` when some key is split, nothing otherwise.
pub(crate) fn split_limbs(keys: &[(usize, u8)]) -> Vec<(usize, u32)> {
    let split = keys.iter().any(|k| k.1 > INDEX_MAX_KEY_BITS);
    limbs(keys).filter(|_| split).map(|l| (l.field, l.shift.into())).collect()
}

/// The bit-vector index of one keyed table (see the module docs).
pub(crate) struct BitIndex {
    /// The entry of each row, rows by (priority desc, index asc) and each
    /// entry's rows adjacent: bit `b` of a bitset is row `b`, of entry
    /// `order[b]`, so the lowest set bit names the winner.
    pub(crate) order: Vec<u32>,
    /// Bitset words per interval, `⌈rows/64⌉`.
    pub(crate) words: usize,
    /// One index per key limb, key-major (see [`limbs`]): a row matches a
    /// key iff it matches every limb of it, so limbs AND into the lookup
    /// like keys do.
    pub(crate) keys: Vec<KeyIndex>,
    /// `(scratch field, shift)` of each limb — filled only when some key
    /// is split ([`split_limbs`]). Left empty, limb `i` is the table's key
    /// `i`, whole, and a lookup is the loop it was before limbs existed.
    pub(crate) limbs: Vec<(usize, u32)>,
}

/// One key limb's share of a [`BitIndex`].
pub(crate) struct KeyIndex {
    /// Raw limb value → interval id (2^width slots).
    pub(crate) interval_of: Vec<u16>,
    /// Interval-major bitsets (`intervals × words`) of the rows whose test
    /// on this limb passes anywhere in — hence everywhere in — the
    /// interval.
    pub(crate) bitsets: Vec<u64>,
}

/// What one row asks of one limb's value `v`.
#[derive(Clone, Copy, PartialEq)]
enum LimbTest {
    /// `v & mask == value`: a ternary part (an exact one is all care
    /// bits) is a conjunction of bit tests, hence of its limbs' tests.
    Masked { mask: u64, value: u64 },
    /// `lo <= v <= hi`: a range part on a one-limb key, whose limb value
    /// is the key, or one limb's span of a [`range_rows`] row.
    Range { lo: u64, hi: u64 },
}

impl LimbTest {
    /// The test every value passes.
    const ANY: LimbTest = LimbTest::Masked { mask: 0, value: 0 };

    /// The test `part`, declared over a `bits`-wide key, puts to `limb`
    /// (the rows of a range part on a split key replace it: [`range_rows`]).
    fn of(part: &KeyPart, bits: u8, limb: &Limb) -> LimbTest {
        let (value, mask) = match *part {
            KeyPart::Range { lo, hi } => return LimbTest::Range { lo, hi },
            KeyPart::Exact(x) => (x, u64::MAX),
            KeyPart::Ternary(k) => (k.value, k.mask),
        };
        let lmask = mask_of(limb.width);
        match value & !mask_of(bits) {
            0 => LimbTest::Masked {
                mask: (mask >> limb.shift) & lmask,
                value: (value >> limb.shift) & lmask,
            },
            // A value with bits past the key's width matches nothing (V005).
            _ => LimbTest::Masked { mask: 0, value: 1 },
        }
    }

    #[inline]
    fn hit(self, v: usize) -> bool {
        match self {
            LimbTest::Masked { mask, value } => v as u64 & mask == value,
            LimbTest::Range { lo, hi } => (lo..=hi).contains(&(v as u64)),
        }
    }
}

/// A range part `lo..=hi` on a key split into `limbs` (that key's, low
/// first) as rows of per-limb tests whose union is the range: the top limb
/// at `lo`'s value over the rest from `lo`'s, the top-limb values between
/// over anything, the top limb at `hi`'s value over the rest up to `hi`'s
/// (a side whose rest is whole joins the middle) — at most
/// `2 × limbs − 1` rows, each a conjunction. A bound past the key's width
/// is cut to it (V005 rejects one); an inverted range has no rows.
fn range_rows(lo: u64, hi: u64, limbs: &[Limb]) -> Vec<Vec<LimbTest>> {
    let Some((top, rest)) = limbs.split_last() else { return vec![Vec::new()] };
    let hi = hi.min(mask_of(top.shift + top.width));
    if lo > hi {
        return Vec::new();
    }
    let rest_max = mask_of(top.shift);
    let (lt, ht, lr, hr) = (lo >> top.shift, hi >> top.shift, lo & rest_max, hi & rest_max);
    let on_top = |rows: Vec<Vec<LimbTest>>, lo, hi| {
        rows.into_iter().map(move |mut row| {
            row.push(LimbTest::Range { lo, hi });
            row
        })
    };
    if lt == ht {
        return on_top(range_rows(lr, hr, rest), lt, lt).collect();
    }
    let mut rows = Vec::new();
    if lr != 0 {
        rows.extend(on_top(range_rows(lr, rest_max, rest), lt, lt));
    }
    let (first, last) = (lt + u64::from(lr != 0), ht - u64::from(hr != rest_max));
    if first <= last {
        rows.extend(on_top(vec![vec![LimbTest::ANY; rest.len()]], first, last));
    }
    if hr != rest_max {
        rows.extend(on_top(range_rows(0, hr, rest), ht, ht));
    }
    rows
}

/// The rows a range `part` on a split `bits`-wide key, whose limbs are
/// `limbs`, takes in an index ([`range_rows`]); `None` for any other part,
/// which is one row.
fn part_rows(part: &KeyPart, bits: u8, limbs: &[Limb]) -> Option<Vec<Vec<LimbTest>>> {
    match *part {
        KeyPart::Range { lo, hi } if bits > INDEX_MAX_KEY_BITS => Some(range_rows(lo, hi, limbs)),
        _ => None,
    }
}

/// Where key `j`'s limbs sit among a table's (they are key-major).
fn key_limbs(limbs: &[Limb], j: usize) -> Range<usize> {
    limbs.partition_point(|l| l.key < j)..limbs.partition_point(|l| l.key <= j)
}

/// How many rows a bit-vector index over `keys` gives `entries`, counted
/// from their parts alone (the verifier's shape check).
pub(crate) fn index_rows(entries: &[TableEntry], keys: &[(usize, u8)]) -> usize {
    let limbs: Vec<Limb> = limbs(keys).collect();
    let rows = |parts: &[KeyPart]| -> usize {
        let split =
            parts.iter().zip(keys).enumerate().filter_map(|(j, (part, key))| {
                part_rows(part, key.1, &limbs[key_limbs(&limbs, j)])
            });
        split.map(|rows| rows.len()).product()
    };
    entries.iter().map(|e| rows(&e.keys)).sum()
}

impl BitIndex {
    /// Builds the index of `t` over `keys` (`(scratch index, bits)` each).
    fn build(t: &Table, keys: &[(usize, u8)]) -> BitIndex {
        let mut by_rank: Vec<u32> = (0..t.entries.len() as u32).collect();
        // Stable: entries of equal priority stay in index order.
        by_rank.sort_by_key(|&e| std::cmp::Reverse(t.entries[e as usize].priority));
        let limbs: Vec<Limb> = limbs(keys).collect();
        // `tests[i][b]` is what row `b` asks of limb `i`. An entry starts
        // as one row; each of its range parts on a split key multiplies its
        // rows by that part's.
        let at: Vec<Range<usize>> = (0..keys.len()).map(|j| key_limbs(&limbs, j)).collect();
        let mut tests: Vec<Vec<LimbTest>> =
            limbs.iter().map(|_| Vec::with_capacity(t.entries.len())).collect();
        let mut order = Vec::with_capacity(t.entries.len());
        for &e in &by_rank {
            let parts = &t.entries[e as usize].keys;
            let first = order.len();
            for (column, l) in tests.iter_mut().zip(&limbs) {
                column.push(LimbTest::of(&parts[l.key], keys[l.key].1, l));
            }
            let mut rows = 1;
            for (j, part) in parts.iter().enumerate() {
                let Some(spans) = part_rows(part, keys[j].1, &limbs[at[j].clone()]) else {
                    continue;
                };
                let key = &at[j];
                for (i, column) in tests.iter_mut().enumerate() {
                    for test in column.split_off(first) {
                        // Key `j`'s limbs take each span's test; others keep the row's.
                        let pick = |span: &Vec<LimbTest>| {
                            if key.contains(&i) {
                                span[i - key.start]
                            } else {
                                test
                            }
                        };
                        column.extend(spans.iter().map(pick));
                    }
                }
                rows *= spans.len();
            }
            order.resize(first + rows, e);
        }
        let words = order.len().div_ceil(64);
        let index = limbs
            .iter()
            .enumerate()
            .map(|(i, limb)| {
                let (j, bits, domain) = (limb.key, keys[limb.key].1, 1usize << limb.width);
                let column = || tests[i].iter();
                // Intervals are sets of limb values no test tells apart;
                // bit `b` of an interval's row says row `b` passes there.
                let mut interval_of = Vec::with_capacity(domain);
                let mut bitsets;
                let ternary = t.entries.iter().any(|e| matches!(e.keys[j], KeyPart::Ternary(_)));
                if bits > limb.width || ternary {
                    // A ternary part (or a limb's slice of any part)
                    // matches scattered values: refine one class of all
                    // values test by test, so values with equal rows share
                    // an interval — what keeps a 16-bit limb at a handful
                    // of rows instead of 2¹⁶. A test already refined by, or
                    // one every value answers alike, splits nothing.
                    interval_of.resize(domain, 0u16);
                    let mut classes = 1usize;
                    let (mut split, mut done) = (Vec::new(), Vec::new());
                    for &test in column() {
                        let uniform = matches!(test, LimbTest::Masked { mask: 0, .. });
                        if uniform || done.contains(&test) {
                            continue;
                        }
                        done.push(test);
                        // (class, hit) → class after this test.
                        split.clear();
                        split.resize(2 * classes, u32::MAX);
                        classes = 0;
                        for (v, iv) in interval_of.iter_mut().enumerate() {
                            let slot = &mut split[2 * usize::from(*iv) + usize::from(test.hit(v))];
                            if *slot == u32::MAX {
                                *slot = classes as u32;
                                classes += 1;
                            }
                            *iv = *slot as u16;
                        }
                    }
                    // Any one value of a class decides its row.
                    let mut rep = vec![0usize; classes];
                    for (v, &iv) in interval_of.iter().enumerate() {
                        rep[usize::from(iv)] = v;
                    }
                    bitsets = vec![0u64; classes * words];
                    for (b, test) in column().enumerate() {
                        for iv in (0..classes).filter(|&iv| test.hit(rep[iv])) {
                            bitsets[iv * words + b / 64] |= 1 << (b % 64);
                        }
                    }
                } else {
                    // Whole exact/range parts match contiguous spans: intervals
                    // start at 0 and at each span's `lo` and `hi + 1`. An
                    // inverted or out-of-width part matches nothing (the
                    // verifier's V004/V005) and cuts nothing.
                    let span = |test: &LimbTest| {
                        match *test {
                            LimbTest::Range { lo, hi } => Some((lo, hi.min(domain as u64 - 1))),
                            LimbTest::Masked { mask: 0, .. } => None,
                            LimbTest::Masked { value, .. } => Some((value, value)),
                        }
                        .filter(|&(lo, hi)| lo <= hi && hi < domain as u64)
                        .map(|(lo, hi)| (lo as usize, hi as usize))
                    };
                    let mut cuts = Vec::with_capacity(2 + 2 * order.len());
                    cuts.extend([0, domain]);
                    for (lo, hi) in column().filter_map(span) {
                        cuts.extend([lo, hi + 1]);
                    }
                    cuts.sort_unstable();
                    cuts.dedup();
                    for (iv, w) in cuts.windows(2).enumerate() {
                        interval_of.resize(w[1], iv as u16);
                    }
                    bitsets = vec![0u64; (cuts.len() - 1) * words];
                    for (b, test) in column().enumerate() {
                        if let Some((lo, hi)) = span(test) {
                            for iv in usize::from(interval_of[lo])..=usize::from(interval_of[hi]) {
                                bitsets[iv * words + b / 64] |= 1 << (b % 64);
                            }
                        }
                    }
                }
                KeyIndex { interval_of, bitsets }
            })
            .collect();
        BitIndex { order, words, keys: index, limbs: split_limbs(keys) }
    }

    /// The winning entry for the key whose `i`-th limb has the raw value
    /// `raw(i)` (masked to the limb's width here).
    #[inline]
    fn lookup(&self, raw: impl Fn(usize) -> usize) -> Option<usize> {
        for w in 0..self.words {
            let mut acc = u64::MAX;
            for (i, k) in self.keys.iter().enumerate() {
                let iv = k.interval_of[raw(i) & (k.interval_of.len() - 1)];
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
    pub(crate) actions: Vec<FlatAction>,
}

/// What one lane picked in the table being swept: the action it runs
/// ([`Pick::NONE`] when no entry matched and there is no default) and the
/// slice of the table's data it runs with.
#[derive(Clone, Copy)]
pub(crate) struct Pick {
    action: u32,
    off: u32,
    len: u32,
}

impl Pick {
    const NONE: Pick = Pick { action: u32::MAX, off: 0, len: 0 };
}

impl FlatTable {
    /// Resolves the winning entry for one lane.
    #[inline(always)]
    fn match_entry(&self, vals: &[i64], lane: Lane) -> Option<usize> {
        // Verifier invariant V001: every key scratch index in bounds.
        debug_assert!(
            self.keys.iter().all(|&(f, _)| lane.at(f) < vals.len()),
            "V001: key out of bounds"
        );
        let val = |f: usize| vals[lane.at(f)];
        match &self.matcher {
            Matcher::Always => None,
            Matcher::Dense(lut) => {
                let idx = self.keys.iter().fold(0usize, |idx, &(f, bits)| {
                    (idx << bits) | (val(f) as u64 & mask_of(bits)) as usize
                });
                // Verifier invariant V101: the packed key code lands inside
                // the LUT (proved statically by interval analysis).
                debug_assert!(idx < lut.len(), "V101: packed LUT key {idx} >= {}", lut.len());
                // Slot encoding is entry index + 1.
                (lut[idx] as usize).checked_sub(1)
            }
            Matcher::Indexed(ix) if ix.limbs.is_empty() => {
                ix.lookup(|j| val(self.keys[j].0) as usize)
            }
            Matcher::Indexed(ix) => ix.lookup(|i| val(ix.limbs[i].0) as usize >> ix.limbs[i].1),
        }
    }

    /// The action and data slice a lane whose winning entry is `hit` runs.
    #[inline(always)]
    fn pick(&self, hit: Option<usize>) -> Pick {
        // Verifier invariant V002: a hit names a real entry.
        debug_assert!(hit.is_none_or(|e| e < self.entry_action.len()), "V002: dangling {hit:?}");
        let (action, (off, len)) = match hit {
            Some(e) => (self.entry_action[e], self.entry_data[e]),
            None => match self.default_entry {
                Some(d) => d,
                None => return Pick::NONE,
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
        Pick { action, off, len }
    }

    /// Runs `pick`'s action over one lane, register ops against `regs`.
    #[inline(always)]
    fn act<R: Regs>(&self, pick: Pick, vals: &mut [i64], lane: Lane, regs: &mut R) {
        if pick.action == Pick::NONE.action {
            return;
        }
        let action = &self.actions[pick.action as usize];
        let params = &self.data[pick.off as usize..(pick.off + pick.len) as usize];
        if !R::STATEFUL || action.regs.is_empty() {
            for run in &action.runs {
                run.exec(params, vals, lane);
            }
        } else {
            for step in action.steps() {
                match step {
                    Step::Run(run) => run.exec(params, vals, lane),
                    Step::Reg(op) => regs.apply(op, params, vals, lane),
                }
            }
        }
    }

    /// Matches one lane and runs the winning (or default) entry's action
    /// over it.
    #[inline(always)]
    fn exec<R: Regs>(&self, vals: &mut [i64], lane: Lane, regs: &mut R) {
        self.act(self.pick(self.match_entry(vals, lane)), vals, lane, regs);
    }

    /// Whether some action carries register ops — a table a sweep walks
    /// lane by lane instead of by columns.
    fn has_regs(&self) -> bool {
        self.actions.iter().any(|a| !a.regs.is_empty())
    }

    /// Sweeps a register-free table over `lanes` columns: matches every
    /// lane into `picks`, then runs the action op-major across the lanes
    /// when they all picked the same one, lane by lane otherwise.
    fn exec_columns(
        &self,
        vals: &mut [i64],
        lanes: usize,
        picks: &mut Vec<Pick>,
        acc: &mut Vec<u64>,
    ) {
        picks.clear();
        match &self.matcher {
            // One bitset word: AND one column per limb into every lane's
            // word, limb-major.
            Matcher::Indexed(ix) if ix.words == 1 => {
                acc.clear();
                acc.resize(lanes, u64::MAX);
                for (i, k) in ix.keys.iter().enumerate() {
                    let (f, shift) =
                        ix.limbs.get(i).copied().unwrap_or_else(|| (self.keys[i].0, 0));
                    let mask = k.interval_of.len() - 1;
                    for (w, &v) in acc.iter_mut().zip(&vals[f * lanes..][..lanes]) {
                        *w &= k.bitsets[usize::from(k.interval_of[(v as usize >> shift) & mask])];
                    }
                }
                let winner =
                    |w: u64| (w != 0).then(|| ix.order[w.trailing_zeros() as usize] as usize);
                picks.extend(acc.iter().map(|&w| self.pick(winner(w))));
            }
            Matcher::Always => picks.resize(lanes, self.pick(None)),
            _ => picks
                .extend((0..lanes).map(|l| self.pick(self.match_entry(vals, Lane { lanes, l })))),
        }
        let action = picks[0].action;
        if picks.iter().all(|p| p.action == action) {
            if action != Pick::NONE.action {
                let shortest = picks.iter().map(|p| p.len as usize).min().unwrap_or(0);
                for run in &self.actions[action as usize].runs {
                    run.exec_columns(vals, lanes, &self.data, picks, shortest);
                }
            }
        } else {
            for (l, &pick) in picks.iter().enumerate() {
                self.act(pick, vals, Lane { lanes, l }, &mut ());
            }
        }
    }
}

/// Reusable per-worker scratch for one-sample [`FlatProgram`] execution
/// ([`classify`](FlatProgram::classify) / [`scores`](FlatProgram::scores)):
/// a one-lane [`FlatBatchScratch`].
pub struct FlatScratch(FlatBatchScratch);

/// Reusable scratch for [`FlatProgram`] execution
/// ([`classify_batch`](FlatProgram::classify_batch)): the lanes' fields as
/// field-major columns — one field of every lane side by side, so an op
/// runs down a column — and the per-lane match results of the table being
/// swept. Grows to the largest batch ever executed and is reused
/// thereafter — the steady-state hot loop performs no allocation.
#[derive(Default)]
pub struct FlatBatchScratch {
    /// Field-major columns: field `f` of lane `l` is `vals[f * lanes + l]`.
    vals: Vec<i64>,
    /// Each lane's [`Pick`] in the table being swept.
    picks: Vec<Pick>,
    /// Each lane's bitset word while a one-word index is matched.
    acc: Vec<u64>,
}

impl FlatBatchScratch {
    /// Field `f` of every lane, as the last `lanes`-lane sweep over this
    /// scratch left it.
    pub(crate) fn column(&self, lanes: usize, f: usize) -> &[i64] {
        &self.vals[f * lanes..][..lanes]
    }
}

/// A compiled pipeline flattened for the streaming hot path.
///
/// Built at deploy time, inside the verifier run, from a stateless
/// pipeline ([`DataplaneModel`](crate::runtime::DataplaneModel)) or a
/// per-flow pipeline's program
/// ([`FlowClassifier`](crate::flowpipe::FlowClassifier)); a
/// stateless one is executed via
/// [`classify_batch`](FlatProgram::classify_batch), or one sample at a time
/// via [`classify`](FlatProgram::classify) / [`scores`](FlatProgram::scores)
/// with a caller-owned [`FlatScratch`], a per-flow one by the classifier
/// that owns its register file.
pub struct FlatProgram {
    name: String,
    /// Scratch fields per lane.
    nfields: usize,
    tables: Vec<FlatTable>,
    /// Scratch index and truncation of each input.
    inputs: Vec<(usize, Trunc)>,
    /// `(element bits, slots)` of each register array the ops address.
    registers: Vec<(u8, usize)>,
    predicted_field: Option<usize>,
    score_fields: Vec<usize>,
    score_format: NumFormat,
}

#[cfg(test)]
thread_local! {
    /// Programs flattened on this thread (tests hold deploy to one and
    /// attach/swap to none).
    pub(crate) static FLATTENS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl FlatProgram {
    /// Flattens a stateless compiled pipeline the verifier accepted (field
    /// indices are trusted, and it declares no registers: `V011`).
    pub(crate) fn from_pipeline(p: &CompiledPipeline) -> FlatProgram {
        FlatProgram::from_program(
            &p.program,
            &p.input_fields,
            p.predicted_field,
            &p.score_fields,
            p.score_format,
        )
    }

    /// Flattens `prog` with the given input and output fields. Register
    /// ops flatten too: the verifier holds every array to one table
    /// (`V010`), and the executor sweeps table-major, walking a register
    /// table's lanes in arrival order, so an array's accesses keep their
    /// packet-at-a-time order.
    pub(crate) fn from_program(
        prog: &SwitchProgram,
        inputs: &[FieldId],
        predicted_field: Option<FieldId>,
        score_fields: &[FieldId],
        score_format: NumFormat,
    ) -> FlatProgram {
        #[cfg(test)]
        FLATTENS.with(|n| n.set(n.get() + 1));
        let fields: Vec<FieldMeta> =
            prog.layout.iter().map(|(_, d)| FieldMeta { bits: d.bits, signed: d.signed }).collect();
        FlatProgram {
            name: prog.name.clone(),
            nfields: fields.len(),
            tables: prog.tables.iter().map(|t| flatten_table(t, &fields)).collect(),
            inputs: inputs.iter().map(|f| (f.0, Trunc::of(fields[f.0]))).collect(),
            registers: prog.registers.iter().map(|a| (a.width_bits, a.size)).collect(),
            predicted_field: predicted_field.map(|f| f.0),
            score_fields: score_fields.iter().map(|f| f.0).collect(),
            score_format,
        }
    }

    /// A zeroed one-sample scratch sized for this program.
    pub fn scratch(&self) -> FlatScratch {
        FlatScratch(self.batch_scratch(1))
    }

    /// A zeroed batch scratch pre-sized for `lanes` samples (it grows on
    /// demand if a larger batch is ever executed).
    pub fn batch_scratch(&self, lanes: usize) -> FlatBatchScratch {
        FlatBatchScratch { vals: vec![0; lanes * self.nfields], ..Default::default() }
    }

    fn count_tables(&self, is: impl Fn(&FlatTable) -> bool) -> usize {
        self.tables.iter().filter(|t| is(t)).count()
    }

    /// Tables enumerated into dense LUTs.
    pub fn dense_tables(&self) -> usize {
        self.count_tables(|t| matches!(t.matcher, Matcher::Dense(_)))
    }

    /// Tables matched through a bit-vector index.
    pub fn indexed_tables(&self) -> usize {
        self.count_tables(|t| matches!(t.matcher, Matcher::Indexed(_)))
    }

    /// Tables a sweep of more than one lane runs by columns: every table
    /// without register ops.
    pub fn column_tables(&self) -> usize {
        self.count_tables(|t| !t.has_regs())
    }

    /// Tables carrying register ops, which every sweep walks lane by lane
    /// in arrival order.
    pub fn register_tables(&self) -> usize {
        self.count_tables(FlatTable::has_regs)
    }

    /// Indexed keys too wide for one `raw → interval` array, matched limb
    /// by limb.
    pub fn limb_keys(&self) -> usize {
        let indexed = self.tables.iter().filter(|t| matches!(t.matcher, Matcher::Indexed(_)));
        indexed.flat_map(|t| &t.keys).filter(|k| k.1 > INDEX_MAX_KEY_BITS).count()
    }

    /// Ops in the longest scheduled run of any action.
    pub fn longest_run(&self) -> usize {
        let runs = self.tables.iter().flat_map(|t| t.actions.iter().flat_map(|a| &a.runs));
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

    /// Scratch index and truncation of each input, in the order the
    /// program was flattened with (these seed the verifier's input
    /// intervals, and the lanes of a [`sweep`](FlatProgram::sweep)).
    pub(crate) fn inputs(&self) -> &[(usize, Trunc)] {
        &self.inputs
    }

    /// `(element bits, slots)` of each register array (verifier
    /// introspection).
    pub(crate) fn registers(&self) -> &[(u8, usize)] {
        &self.registers
    }

    /// Classifies one sample of feature codes (each in `[0, 255]`),
    /// bit-identical to [`DataplaneModel::simulate_classify`](crate::runtime::DataplaneModel::simulate_classify).
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
    /// Each table matches every lane, then acts on every lane, before the
    /// next table is touched: its index is read once per key column, and
    /// when all lanes picked one action each fused run executes op by op
    /// down the lanes' columns (see the module docs' executor section).
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
        out.extend(s.column(lanes, pf).iter().map(|&v| v as usize));
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

    /// The stateless entry to the executor: every lane's input fields are
    /// its feature codes, rounded and clamped to `[0, 255]`.
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
        self.sweep(lanes, s, &mut (), |vals| {
            for (l, lane) in codes.chunks_exact(arity.max(1)).enumerate() {
                for (&(f, trunc), &v) in self.inputs.iter().zip(lane) {
                    // Verifier invariant V001: input scratch index in bounds.
                    debug_assert!(f < self.nfields, "V001: input scratch index {f} out of bounds");
                    vals[f * lanes + l] = trunc.apply(round_code(v));
                }
            }
        });
        Ok(())
    }

    /// The one executor: zeroes `lanes` lanes of field-major scratch
    /// columns (field `f` of lane `l` at `vals[f * lanes + l]`), hands them
    /// to `seed` to store each lane's [`inputs`](FlatProgram::inputs), then
    /// sweeps the tables over the lanes, table-major. A table carrying
    /// register ops walks the lanes in arrival order, each lane's whole
    /// action before the next, against `regs`; any other table matches
    /// every lane, then runs its action op-major across the lanes
    /// ([`FlatTable::exec_columns`]). A one-lane sweep walks every table:
    /// its column is its row.
    pub(crate) fn sweep<R: Regs>(
        &self,
        lanes: usize,
        s: &mut FlatBatchScratch,
        regs: &mut R,
        seed: impl FnOnce(&mut [i64]),
    ) {
        let n = lanes * self.nfields;
        if s.vals.len() < n {
            s.vals.resize(n, 0);
        }
        let vals = &mut s.vals[..n];
        vals.fill(0);
        seed(vals);
        for t in &self.tables {
            if lanes == 1 {
                t.exec(vals, Lane::ONE, regs);
            } else if R::STATEFUL && t.has_regs() {
                for l in 0..lanes {
                    t.exec(vals, Lane { lanes, l }, regs);
                }
            } else if lanes > 1 {
                t.exec_columns(vals, lanes, &mut s.picks, &mut s.acc);
            }
        }
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

/// Flattens one action: ALU ops are scheduled into runs segment by
/// segment, each register op closing a segment — a barrier no run is
/// hoisted over.
fn flatten_action(ops: &[AluOp], fields: &[FieldMeta]) -> FlatAction {
    let unary = Operand::Const(0);
    let mut action = FlatAction::default();
    let mut segment: Vec<FlatOp> = Vec::new();
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
            stateful => {
                let (kind, reg, index, a, dst) = match stateful {
                    AluOp::RegRead { dst, reg, index } => {
                        (RegKind::Read, reg, index, &unary, Some(dst))
                    }
                    AluOp::RegWrite { reg, index, a } => (RegKind::Write, reg, index, a, None),
                    AluOp::RegReadWrite { dst, reg, index, a } => {
                        (RegKind::ReadWrite, reg, index, a, Some(dst))
                    }
                    AluOp::RegIncrSat { dst, reg, index, by, max } => {
                        (RegKind::IncrSat { by: *by, max: *max }, reg, index, &unary, Some(dst))
                    }
                    AluOp::RegShiftInsert { dst, reg, index, a, shift, mask } => (
                        RegKind::ShiftInsert { shift: *shift, mask: *mask },
                        reg,
                        index,
                        a,
                        Some(dst),
                    ),
                    _ => unreachable!("every ALU op is matched above"),
                };
                action.runs.extend(schedule(&segment, fields));
                segment.clear();
                let op = RegOp {
                    kind,
                    reg: reg.0,
                    index: flatten_src(index),
                    a: flatten_src(a),
                    dst: dst.map(|f| (f.0, Trunc::of(fields[f.0]))),
                };
                action.regs.push((action.runs.len(), op));
                continue;
            }
        };
        segment.push(FlatOp { kind, dst: dst.0, a: flatten_src(a), b: flatten_src(b) });
    }
    action.runs.extend(schedule(&segment, fields));
    action
}

fn flatten_table(t: &Table, fields: &[FieldMeta]) -> FlatTable {
    let keys: Vec<(usize, u8)> = t.keys.iter().map(|&(f, _)| (f.0, fields[f.0].bits)).collect();
    let actions = t.actions.iter().map(|a| flatten_action(&a.ops, fields)).collect();

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
    } else {
        let index = BitIndex::build(t, &keys);
        let domain_bits: u32 = keys.iter().map(|k| u32::from(k.1)).sum();
        if 1u64 << domain_bits.min(63) <= DENSE_MAX_POINTS {
            // Materialise the whole key domain through the index (one limb
            // per key at these widths): slot `s` packs the keys
            // first-key-highest, as `match_entry` does.
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

    FlatTable { keys, matcher, entry_action, entry_data, data, default_entry, actions }
}

#[cfg(test)]
pub(crate) use tests::past_entry_data_program;

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
    use std::sync::Arc;

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
        let flat = FlatProgram::from_pipeline(dp.pipeline());
        let mut s = flat.scratch();
        for row in inputs(500, 12) {
            assert_eq!(
                flat.classify(&row, &mut s).unwrap(),
                dp.simulate_classify(&row).unwrap(),
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
        let flat = FlatProgram::from_pipeline(dp.pipeline());
        let mut s = flat.scratch();
        for row in inputs(200, 14) {
            assert_eq!(flat.scores(&row, &mut s).unwrap(), dp.simulate_scores(&row).unwrap());
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
        let flat = FlatProgram::from_pipeline(dp.pipeline());
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
    fn one_content_flattens_and_verifies_once_across_deploys_attaches_and_a_swap() {
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
        let counts =
            || (FLATTENS.with(|n| n.get()), crate::verify::VERIFIER_RUNS.with(|n| n.get()));
        let cfg = SwitchConfig::tofino2();
        let before = counts();
        // Sixteen artifacts for sixteen attaches and one for the swap, built
        // as the daemon's `ArtifactFile::deploy` builds them: no verifier
        // run, no flatten.
        let mut copies: Vec<EngineArtifact> = (0..17)
            .map(|_| EngineArtifact::from_compiled_pipeline(c.clone(), StreamFeatures::Stat, &cfg))
            .collect::<Result<_, _>>()
            .expect("classifies");
        assert_eq!(counts(), before, "building an artifact deployed it");
        let same = copies.pop().expect("seventeen");
        let server = EngineBuilder::new().build().expect("builds");
        let control = server.control();
        let tokens: Vec<_> = copies
            .into_iter()
            .map(|a| control.attach(a, TenantConfig::new()).expect("attaches"))
            .collect();
        control.swap(tokens[0], same).expect("swaps");
        // The first admission's one verifier run, with the flatten inside
        // it; every later copy is a hit.
        let (flattens, runs) = counts();
        assert_eq!((flattens - before.0, runs - before.1), (1, 1), "flattens, verifier runs");
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
        let flat = FlatProgram::from_pipeline(dp.pipeline());
        let mut s = flat.scratch();
        assert_eq!(
            flat.classify(&[1.0, 2.0], &mut s).unwrap_err(),
            PegasusError::FeatureCount { expected: 4, got: 2 }
        );
    }

    // ---- property tests: index vs simulator lookup, runs vs in-order ----

    /// A seeded random table over `nkeys` key fields (1–16 bits, one in
    /// four widened to 17–32; mixed Exact/Ternary/Range columns, overlapping
    /// entries, tied and distinct priorities). Entry `e` carries `[e]` as
    /// action data and the default `[-1]`, so the oracle's answer names its
    /// winner.
    fn random_table(
        rng: &mut rand::rngs::StdRng,
        entries: usize,
        nkeys: usize,
    ) -> (PhvLayout, Table, Vec<u8>) {
        let mut layout = PhvLayout::new();
        let widths: Vec<u8> = (0..nkeys)
            .map(
                |_| if rng.gen_bool(0.25) { rng.gen_range(17..=32) } else { rng.gen_range(1..=16) },
            )
            .collect();
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
        let (mut indexed, mut dense, mut limbed, mut missed) = (0, 0, 0, 0);
        let (mut wide_exact, mut wide_range) = (0, 0);
        for (entries, seeds) in [(1, 12), (63, 8), (64, 8), (65, 8), (448, 3)] {
            for seed in 0..seeds {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1000 * entries as u64 + seed);
                let nkeys = rng.gen_range(1..=6);
                let (layout, t, widths) = random_table(&mut rng, entries, nkeys);
                let fields: Vec<FieldMeta> = layout
                    .iter()
                    .map(|(_, d)| FieldMeta { bits: d.bits, signed: d.signed })
                    .collect();
                let flat = flatten_table(&t, &fields);
                let wide = |kind| {
                    let mut columns = t.keys.iter().zip(&widths);
                    usize::from(columns.any(|(k, &bits)| k.1 == kind && bits > INDEX_MAX_KEY_BITS))
                };
                wide_exact += wide(MatchKind::Exact);
                wide_range += wide(MatchKind::Range);
                limbed += usize::from(widths.iter().any(|&b| b > INDEX_MAX_KEY_BITS));
                match flat.matcher {
                    Matcher::Indexed(_) => indexed += 1,
                    Matcher::Dense(_) => dense += 1,
                    Matcher::Always => unreachable!("keyed table with entries"),
                }
                // Probes: random points, and for (up to 64) entries a random
                // point inside the entry's box plus every part bound ± 1 —
                // and the edges of the bounds' 16-bit limbs, where a wide
                // range's rows meet — on one key with the other keys held
                // inside the box.
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
                    let within = e.keys.iter().zip(&widths).map(|(p, &bits)| match p {
                        KeyPart::Exact(v) => *v,
                        // Any setting of the don't-care bits matches.
                        KeyPart::Ternary(k) => k.value | rng.gen::<u64>() & !k.mask & mask_of(bits),
                        KeyPart::Range { lo, hi } => rng.gen_range(*lo..=*hi),
                    });
                    probes.push(within.collect());
                    for (j, &(lo, hi)) in bounds.iter().enumerate() {
                        let (lo_top, hi_low) = (lo | 0xffff, hi & !0xffff);
                        for cut in [lo.wrapping_sub(1), lo, lo + 1, hi.wrapping_sub(1), hi, hi + 1]
                            .into_iter()
                            .chain([lo_top, lo_top + 1, hi_low.wrapping_sub(1), hi_low])
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
                    let got = flat.match_entry(&row, Lane::ONE);
                    let got = match got {
                        Some(e) => Some(e as i64),
                        None => flat.default_entry.map(|(_, (off, _))| flat.data[off as usize]),
                    };
                    missed += usize::from(want.is_none_or(|w| w < 0));
                    assert_eq!(got, want, "{entries} entries, seed {seed}, key {probe:?}");
                }
            }
        }
        // The sweep exercised both matchers, limb-split keys — wide exact
        // and wide range columns among them — and keys that match no entry.
        assert!(
            indexed >= 8
                && dense >= 2
                && limbed >= 5
                && wide_exact >= 5
                && wide_range >= 5
                && missed >= 100,
            "{indexed} {dense} {limbed} {wide_exact} {wide_range} {missed}"
        );
    }

    #[test]
    fn range_rows_cover_exactly_the_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for bits in [17u8, 20, 31, 32, 33, 47, 48] {
            let key: Vec<Limb> = limbs(&[(0, bits)]).collect();
            let top = mask_of(bits);
            for _ in 0..200 {
                let (a, b) = (rng.gen_range(0..=top), rng.gen_range(0..=top));
                // Narrow ranges too, and ones that share a top limb.
                let (lo, hi) = match rng.gen_range(0..3) {
                    0 => (a.min(b), a.max(b)),
                    1 => (a, (a + rng.gen_range(0..0x300)).min(top)),
                    _ => (a & !0xffff, a | 0xffff),
                };
                let rows = range_rows(lo, hi, &key);
                assert!(
                    rows.len() < 2 * key.len(),
                    "{bits} bits [{lo:#x}, {hi:#x}]: {}",
                    rows.len()
                );
                let limb_edges =
                    [lo | 0xffff, (lo | 0xffff) + 1, hi & !0xffff, (hi & !0xffff).wrapping_sub(1)];
                let probes =
                    [lo.wrapping_sub(1), lo, lo + 1, hi.wrapping_sub(1), hi, hi + 1, 0, top]
                        .into_iter()
                        .chain(limb_edges)
                        .chain((0..16).map(|_| rng.gen_range(0..=top)))
                        .map(|v| v & top);
                for v in probes {
                    let passes = |row: &Vec<LimbTest>| {
                        row.iter().zip(&key).all(|(t, l)| {
                            t.hit((v >> l.shift) as usize & mask_of(l.width) as usize)
                        })
                    };
                    assert_eq!(
                        rows.iter().any(passes),
                        (lo..=hi).contains(&v),
                        "{bits} bits [{lo:#x}, {hi:#x}] at {v:#x}"
                    );
                }
            }
        }
        // An inverted range has no rows; a whole one is one row.
        let key: Vec<Limb> = limbs(&[(0, 32)]).collect();
        assert!(range_rows(9, 3, &key).is_empty());
        assert_eq!(range_rows(0, u64::MAX, &key).len(), 1);
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
                run.exec(&params, &mut got, Lane::ONE);
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

    // ---- property test: register programs vs the simulator ----

    /// A seeded random stateful program: three register arrays (8/16/32
    /// bits, 1–16 slots), three to six tables — keyed or default-only —
    /// whose actions mix ALU ops with all five register ops, each array
    /// touched by `owners[array]` alone. Inputs are field 0 (the slot
    /// index most register ops use) and fields 1–4.
    fn random_register_program(
        rng: &mut rand::rngs::StdRng,
        owners: [usize; 3],
    ) -> pegasus_switch::SwitchProgram {
        use pegasus_switch::{RegId, RegisterArray, SwitchProgram};
        let mut layout = PhvLayout::new();
        let slot = layout.add_field("slot", 4);
        let widths = [1u8, 4, 8, 13, 16, 32, 33, 64];
        let fields: Vec<FieldId> = (0..11)
            .map(|i| {
                let bits = widths[rng.gen_range(0..widths.len())];
                if rng.gen_bool(0.3) {
                    layout.add_signed_field(&format!("f{i}"), bits)
                } else {
                    layout.add_field(&format!("f{i}"), bits)
                }
            })
            .collect();
        let key = layout.add_field("key", 6);
        let mut prog = SwitchProgram::new("regs", layout);
        for (i, bits) in [8u8, 16, 32].into_iter().enumerate() {
            prog.registers.push(RegisterArray::new(&format!("r{i}"), bits, rng.gen_range(1..=16)));
        }
        let ntables = rng.gen_range(3..=6).max(owners.iter().max().unwrap() + 1);
        for ti in 0..ntables {
            let keyed = rng.gen_bool(0.5);
            let mut t = Table::new(
                &format!("t{ti}"),
                if keyed { vec![(key, MatchKind::Range)] } else { vec![] },
            );
            let mine: Vec<usize> = (0..3).filter(|&r| owners[r] == ti).collect();
            for ai in 0..rng.gen_range(1..=3) {
                let mut act = Action::new(&format!("a{ai}"));
                for _ in 0..rng.gen_range(1..=8) {
                    let field =
                        |rng: &mut rand::rngs::StdRng| fields[rng.gen_range(0..fields.len())];
                    let src = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..4) {
                        0 => Operand::Const(rng.gen_range(-300..300)),
                        1 => Operand::Param(rng.gen_range(0..3)),
                        _ => Operand::Field(field(rng)),
                    };
                    let (dst, a, b) = (field(rng), src(rng), src(rng));
                    // Mostly the slot field; sometimes any operand at all,
                    // which the array wraps modulo its size.
                    let index = if rng.gen_bool(0.8) { Operand::Field(slot) } else { src(rng) };
                    act.ops.push(match (mine.is_empty(), rng.gen_range(0..12)) {
                        (false, 0) | (false, 1) => AluOp::RegShiftInsert {
                            dst,
                            reg: RegId(mine[rng.gen_range(0..mine.len())]),
                            index,
                            a,
                            shift: rng.gen_range(0..=8),
                            mask: rng.gen::<u64>() >> rng.gen_range(0..64),
                        },
                        (false, 2) => AluOp::RegIncrSat {
                            dst,
                            reg: RegId(mine[rng.gen_range(0..mine.len())]),
                            index,
                            by: rng.gen_range(1..5),
                            max: rng.gen_range(0..300),
                        },
                        (false, 3) => AluOp::RegReadWrite {
                            dst,
                            reg: RegId(mine[rng.gen_range(0..mine.len())]),
                            index,
                            a,
                        },
                        (false, 4) => AluOp::RegRead {
                            dst,
                            reg: RegId(mine[rng.gen_range(0..mine.len())]),
                            index,
                        },
                        (false, 5) => AluOp::RegWrite {
                            reg: RegId(mine[rng.gen_range(0..mine.len())]),
                            index,
                            a,
                        },
                        (_, 6) => AluOp::Set { dst, a },
                        (_, 7) => AluOp::Sub { dst, a, b },
                        (_, 8) => AluOp::Shr { dst, a, amount: rng.gen_range(0..40) },
                        (_, 9) => AluOp::And { dst, a, b },
                        (_, 10) => AluOp::Max { dst, a, b },
                        _ => AluOp::Add { dst, a, b },
                    });
                }
                t.add_action(act);
            }
            let data =
                |rng: &mut rand::rngs::StdRng| (0..3).map(|_| rng.gen_range(-99..99)).collect();
            if keyed {
                for _ in 0..rng.gen_range(1..=5) {
                    let lo = rng.gen_range(0..64);
                    t.add_entry(TableEntry {
                        keys: vec![KeyPart::Range { lo, hi: rng.gen_range(lo..64) }],
                        priority: rng.gen_range(0..3),
                        action_idx: rng.gen_range(0..t.actions.len()),
                        action_data: data(rng),
                    });
                }
            }
            if !keyed || rng.gen_bool(0.7) {
                t.default_action = Some((rng.gen_range(0..t.actions.len()), data(rng)));
            }
            prog.tables.push(t);
        }
        prog
    }

    #[test]
    fn register_sweeps_match_the_simulator_packet_by_packet() {
        const PACKETS: usize = 150;
        let (mut reg_ops, mut aliased) = (0, 0);
        for seed in 0..60u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let owners = [0, 1, 2].map(|_| rng.gen_range(0..3));
            let prog = random_register_program(&mut rng, owners);
            let inputs: Vec<FieldId> = (0..5).map(FieldId).chain([FieldId(12)]).collect();
            let flat = FlatProgram::from_program(&prog, &inputs, None, &[], NumFormat::code8());
            reg_ops +=
                flat.tables.iter().flat_map(|t| &t.actions).map(|a| a.regs.len()).sum::<usize>();
            // Heavy aliasing: every lane on one slot, on two, or anywhere.
            let slots = [1, 2, 16][rng.gen_range(0..3)];
            aliased += usize::from(slots < 16);
            let packets: Vec<Vec<i64>> = (0..PACKETS)
                .map(|_| {
                    let mut p = vec![rng.gen_range(0..slots)];
                    p.extend((0..4).map(|_| rng.gen::<u64>() as i64));
                    p.push(rng.gen_range(0..64));
                    p
                })
                .collect();
            // The oracle: the simulator, one packet at a time, one file.
            let prog = Arc::new(prog);
            let loaded = Arc::clone(&prog).deploy(&SwitchConfig::tofino2()).expect("deploys");
            let mut want_regs = RegFile::new(&prog.registers);
            let want: Vec<Vec<i64>> = packets
                .iter()
                .map(|p| {
                    let fed: Vec<(FieldId, i64)> =
                        inputs.iter().copied().zip(p.iter().copied()).collect();
                    let phv = loaded.process(&fed, &mut want_regs);
                    (0..flat.nfields).map(|f| phv.get(FieldId(f))).collect()
                })
                .collect();
            for lanes in [1usize, 7, 64] {
                let mut regs = RegFile::new(&prog.registers);
                let mut scratch = FlatBatchScratch::default();
                for (chunk, rows) in packets.chunks(lanes).zip(want.chunks(lanes)) {
                    let got = sweep_lanes(&flat, chunk, &mut scratch, &mut regs);
                    assert_eq!(got, rows, "seed {seed}, runs of {lanes}");
                }
                assert!(regs == want_regs, "seed {seed}, runs of {lanes}: register files");
            }
        }
        // The programs did carry state, and most packet streams shared slots.
        assert!(reg_ops >= 200 && aliased >= 20, "{reg_ops} register ops, {aliased} aliased");
    }

    /// Sweeps one lane per entry of `lanes` (its inputs' values, in
    /// [`FlatProgram::inputs`] order) and returns every lane's fields.
    fn sweep_lanes<R: Regs>(
        flat: &FlatProgram,
        lanes: &[Vec<i64>],
        scratch: &mut FlatBatchScratch,
        regs: &mut R,
    ) -> Vec<Vec<i64>> {
        let n = lanes.len();
        flat.sweep(n, scratch, regs, |vals| {
            for (l, p) in lanes.iter().enumerate() {
                for (&(f, trunc), &v) in flat.inputs.iter().zip(p) {
                    vals[f * n + l] = trunc.apply(v);
                }
            }
        });
        (0..n).map(|l| (0..flat.nfields).map(|f| scratch.column(n, f)[l]).collect()).collect()
    }

    /// A seeded random register-free program over five key fields — `f0`
    /// (4 bits), `f1`/`f2` (12), `f3` (24), `f4` (8), inputs no action
    /// writes — and 24 value fields in blocks of one width. Two to six
    /// tables, each of one matcher shape: default-only, a dense `f0` LUT,
    /// a one-word or a multi-word index over `f1`/`f2`, or `f3` as a
    /// ternary key split into limbs. One to four actions of stepped ALU
    /// fragments with Param, Const and Field operands, some of which read
    /// the field the op before them wrote; every entry carries four params,
    /// and half the tables have no default.
    fn random_stateless_program(rng: &mut rand::rngs::StdRng) -> pegasus_switch::SwitchProgram {
        let mut layout = PhvLayout::new();
        let keys: Vec<FieldId> = [4u8, 12, 12, 24, 8]
            .iter()
            .enumerate()
            .map(|(i, &bits)| layout.add_field(&format!("f{i}"), bits))
            .collect();
        while layout.len() < 29 {
            let bits = [1u8, 4, 8, 13, 16, 32, 33, 64][rng.gen_range(0..8)];
            let signed = rng.gen_bool(0.4);
            for _ in 0..rng.gen_range(1..=6) {
                let name = format!("f{}", layout.len());
                if signed {
                    layout.add_signed_field(&name, bits);
                } else {
                    layout.add_field(&name, bits);
                }
            }
        }
        let nf = layout.len();
        let mut prog = pegasus_switch::SwitchProgram::new("columns", layout);
        let kinds = [MatchKind::Exact, MatchKind::Range];
        for ti in 0..rng.gen_range(2..=6) {
            let shape = rng.gen_range(0..5);
            let key =
                |k: usize, rng: &mut rand::rngs::StdRng| (keys[k], kinds[rng.gen_range(0..2)]);
            let (table_keys, entries) = match shape {
                0 => (vec![], 0),
                1 => (vec![key(0, rng)], rng.gen_range(1..=8)),
                2 => (vec![key(1, rng), key(2, rng)], rng.gen_range(2..=40)),
                3 => (vec![key(1, rng), key(2, rng)], rng.gen_range(65..=130)),
                _ => (vec![(keys[3], MatchKind::Ternary), (keys[4], MatchKind::Range)], 40),
            };
            let mut t = Table::new(&format!("t{ti}"), table_keys.clone());
            for ai in 0..rng.gen_range(1..=4) {
                let operand = |len: usize, rng: &mut rand::rngs::StdRng| match rng.gen_range(0..5) {
                    0 => Src::Const(rng.gen_range(-300..300)),
                    1 => Src::Param(rng.gen_range(0..=4 - len)),
                    2 => Src::Field(rng.gen_range(0..5)),
                    _ => Src::Field(rng.gen_range(5..=nf - len)),
                };
                let mut fragments: Vec<std::collections::VecDeque<FlatOp>> = (0..rng
                    .gen_range(1..=3))
                    .map(|_| {
                        let len = rng.gen_range(1..=4);
                        let dst = rng.gen_range(6..=nf - len);
                        let kind = [
                            OpKind::Set,
                            OpKind::Add,
                            OpKind::Sub,
                            OpKind::Shr(3),
                            OpKind::Max,
                            OpKind::Xor,
                        ][rng.gen_range(0..6)];
                        // One in four reads the field the op before wrote.
                        let a = if rng.gen_bool(0.25) {
                            Src::Field(dst - 1)
                        } else {
                            operand(len, rng)
                        };
                        let first = FlatOp { kind, dst, a, b: operand(len, rng) };
                        (0..len).map(|i| first.step(i)).collect()
                    })
                    .collect();
                let mut act = Action::new(&format!("a{ai}"));
                while !fragments.is_empty() {
                    let pick = rng.gen_range(0..fragments.len());
                    let op = fragments[pick].pop_front().expect("non-empty");
                    if fragments[pick].is_empty() {
                        fragments.swap_remove(pick);
                    }
                    let src = |s: Src| match s {
                        Src::Field(f) => Operand::Field(FieldId(f)),
                        Src::Const(c) => Operand::Const(c),
                        Src::Param(p) => Operand::Param(p),
                    };
                    let (dst, a, b) = (FieldId(op.dst), src(op.a), src(op.b));
                    act.ops.push(match op.kind {
                        OpKind::Set => AluOp::Set { dst, a },
                        OpKind::Add => AluOp::Add { dst, a, b },
                        OpKind::Sub => AluOp::Sub { dst, a, b },
                        OpKind::Shr(amount) => AluOp::Shr { dst, a, amount },
                        OpKind::Max => AluOp::Max { dst, a, b },
                        _ => AluOp::Xor { dst, a, b },
                    });
                }
                t.add_action(act);
            }
            let data =
                |rng: &mut rand::rngs::StdRng| (0..4).map(|_| rng.gen_range(-300..300)).collect();
            for _ in 0..entries {
                // Small key values, so lanes hit entries often.
                let parts = table_keys
                    .iter()
                    .map(|&(f, kind)| match kind {
                        MatchKind::Ternary => {
                            let mask = rng.gen::<u64>()
                                & rng.gen::<u64>()
                                & rng.gen::<u64>()
                                & mask_of(24);
                            KeyPart::Ternary(TernaryKey { value: rng.gen::<u64>() & mask, mask })
                        }
                        MatchKind::Exact => KeyPart::Exact(rng.gen_range(0..16)),
                        _ if f == keys[4] => KeyPart::Range {
                            lo: rng.gen_range(0..128),
                            hi: rng.gen_range(128..256),
                        },
                        _ => {
                            let lo = rng.gen_range(0..16);
                            KeyPart::Range { lo, hi: rng.gen_range(lo..16) }
                        }
                    })
                    .collect();
                t.add_entry(TableEntry {
                    keys: parts,
                    priority: rng.gen_range(0..3),
                    action_idx: rng.gen_range(0..t.actions.len()),
                    action_data: data(rng),
                });
            }
            if rng.gen_bool(0.5) {
                t.default_action = Some((rng.gen_range(0..t.actions.len()), data(rng)));
            }
            prog.tables.push(t);
        }
        prog
    }

    #[test]
    fn column_sweeps_match_the_one_lane_walk_lane_by_lane() {
        const LANES: usize = 130;
        // Matcher shapes swept: always, dense, one-word, multi-word, limbs.
        let mut shapes = [0usize; 5];
        let (mut mixed, mut keyed_uniform, mut idle, mut chained) = (0, 0, 0, 0);
        for seed in 0..60u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let prog = random_stateless_program(&mut rng);
            let inputs: Vec<FieldId> = (0..prog.layout.len()).map(FieldId).collect();
            let flat = FlatProgram::from_program(&prog, &inputs, None, &[], NumFormat::code8());
            for t in &flat.tables {
                shapes[match &t.matcher {
                    Matcher::Always => 0,
                    Matcher::Dense(_) => 1,
                    Matcher::Indexed(ix) if !ix.limbs.is_empty() => 4,
                    Matcher::Indexed(ix) => 2 + usize::from(ix.words > 1),
                }] += 1;
                let runs = t.actions.iter().flat_map(|a| &a.runs);
                chained += runs
                    .filter(|r| {
                        r.len > 1 && r.first.dst > 0 && r.first.a == Src::Field(r.first.dst - 1)
                    })
                    .count();
            }
            // Key fields hold small values; value fields anything.
            let lanes: Vec<Vec<i64>> = (0..LANES)
                .map(|_| {
                    let keys = [rng.gen_range(0..16), rng.gen_range(0..16), rng.gen_range(0..16)];
                    let keys =
                        keys.into_iter().chain([rng.gen::<u64>() as i64, rng.gen_range(0..256)]);
                    keys.chain((5..inputs.len()).map(|_| rng.gen::<u64>() as i64)).collect()
                })
                .collect();
            let mut one = FlatBatchScratch::default();
            let want: Vec<Vec<i64>> = lanes
                .iter()
                .map(|lane| {
                    sweep_lanes(&flat, std::slice::from_ref(lane), &mut one, &mut ()).remove(0)
                })
                .collect();
            let mut scratch = FlatBatchScratch::default();
            for n in [1usize, 2, 7, 64, 65] {
                for (chunk, rows) in lanes.chunks(n).zip(want.chunks(n)) {
                    let got = sweep_lanes(&flat, chunk, &mut scratch, &mut ());
                    assert_eq!(got, rows, "seed {seed}, {n} lanes");
                    // Keys are never written, so a lane's picks follow from
                    // its inputs alone.
                    for t in flat.tables.iter().filter(|_| chunk.len() > 1) {
                        let picks: Vec<u32> = chunk
                            .iter()
                            .map(|lane| {
                                let mut row = vec![0; flat.nfields];
                                for (&(f, trunc), &v) in flat.inputs.iter().zip(lane) {
                                    row[f] = trunc.apply(v);
                                }
                                t.pick(t.match_entry(&row, Lane::ONE)).action
                            })
                            .collect();
                        let uniform = picks.iter().all(|&a| a == picks[0]);
                        mixed += usize::from(!uniform);
                        keyed_uniform += usize::from(
                            uniform && picks[0] != Pick::NONE.action && !t.keys.is_empty(),
                        );
                        idle += picks.iter().filter(|&&a| a == Pick::NONE.action).count();
                    }
                }
            }
        }
        // Every matcher shape was swept; lanes split between actions, all
        // took one action of a keyed table, ran nothing, and ran runs whose
        // ops read what the op before wrote.
        assert!(
            shapes.iter().all(|&n| n >= 20)
                && mixed >= 1000
                && keyed_uniform >= 100
                && idle >= 5000
                && chained >= 50,
            "{shapes:?} {mixed} {keyed_uniform} {idle} {chained}"
        );
    }

    /// A classifier over `inputs` 8-bit fields that trips the executor's
    /// V003 `assert!` on every lane: `o0..o3 ← params[0..4]` as one run,
    /// over entries carrying three params — the second entry's data follows
    /// the first's in the pool, where a gather would read it. The first
    /// input is the key; both entries together cover every 8-bit value.
    pub(crate) fn past_entry_data_program(inputs: usize) -> FlatProgram {
        let mut layout = PhvLayout::new();
        let ins: Vec<FieldId> =
            (0..inputs).map(|i| layout.add_field(&format!("x{i}"), 8)).collect();
        let outs: Vec<FieldId> = (0..4).map(|i| layout.add_field(&format!("o{i}"), 8)).collect();
        let mut prog = pegasus_switch::SwitchProgram::new("short", layout);
        let mut t = Table::new("set4", vec![(ins[0], MatchKind::Range)]);
        let mut set = Action::new("set4");
        for (i, &dst) in outs.iter().enumerate() {
            set.ops.push(AluOp::Set { dst, a: Operand::Param(i) });
        }
        let set = t.add_action(set);
        for lo in [0, 128] {
            t.add_entry(TableEntry {
                keys: vec![KeyPart::Range { lo, hi: lo + 127 }],
                priority: 0,
                action_idx: set,
                action_data: vec![1, 2, 3],
            });
        }
        prog.tables.push(t);
        FlatProgram::from_program(&prog, &ins, Some(outs[0]), &[], NumFormat::code8())
    }

    #[test]
    fn a_run_past_its_entry_data_panics_at_one_lane_and_many() {
        let flat = past_entry_data_program(1);
        assert_eq!(flat.longest_run(), 4);
        for lanes in [1usize, 64] {
            let swept = std::panic::catch_unwind(|| {
                let lanes: Vec<Vec<i64>> = (0..lanes as i64).map(|l| vec![l]).collect();
                sweep_lanes(&flat, &lanes, &mut FlatBatchScratch::default(), &mut ())
            });
            assert!(swept.is_err(), "{lanes} lane(s) read past the entry's data");
        }
    }

    #[test]
    fn shared_arrays_and_stateless_registers_are_verifier_errors() {
        use crate::flowpipe::{FlowClassifier, FlowPipeline};
        use crate::verify::verify_program;
        use pegasus_switch::{RegId, RegisterArray, SwitchProgram};
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 8);
        let mut prog = SwitchProgram::new("shared", layout);
        prog.registers.push(RegisterArray::new("own", 8, 4));
        prog.registers.push(RegisterArray::new("both", 8, 4));
        for (name, regs) in [("first", vec![0, 1]), ("idle", vec![]), ("second", vec![1])] {
            let mut t = Table::new(name, vec![]);
            let mut act = Action::new("touch");
            for reg in regs {
                act.ops.push(AluOp::RegRead { dst: x, reg: RegId(reg), index: Operand::Const(0) });
            }
            t.default_action = Some((t.add_action(act), vec![]));
            prog.tables.push(t);
        }
        let v010 = |report: &crate::verify::VerifyReport| {
            let shared: Vec<_> = report.errors().filter(|d| d.code == "V010").collect();
            assert_eq!(shared.len(), 1, "{report}");
            assert!(shared[0]
                .message
                .contains(r#"'both' is touched by tables ["first", "second"]"#));
        };
        v010(&verify_program(&prog, None));
        let prog = Arc::new(prog);
        let cfg = SwitchConfig::tofino2();
        let rejected = |err: PegasusError| match err {
            PegasusError::Verify { report } => *report,
            other => panic!("expected a verifier rejection, got {other:?}"),
        };
        // A stateless pipeline: shared, and declaring registers at all.
        let p = CompiledPipeline {
            program: Arc::clone(&prog),
            input_fields: vec![x],
            score_fields: vec![],
            score_format: NumFormat::code8(),
            predicted_field: Some(x),
            report: Default::default(),
        };
        let report = rejected(DataplaneModel::deploy(p, &cfg).err().expect("rejected"));
        v010(&report);
        assert!(report.errors().any(|d| d.code == "V011"), "{report}");
        // A per-flow pipeline owns a register file, but not a shared array.
        let fp = FlowPipeline {
            program: prog,
            len_field: x,
            ts_field: x,
            hash_field: x,
            extractor_fields: vec![],
            predicted_field: Some(x),
            score_fields: vec![],
            score_format: NumFormat::code8(),
            valid_field: x,
            stateful_bits_per_flow: 0,
            report: Default::default(),
        };
        let report = rejected(FlowClassifier::deploy(fp, &cfg).err().expect("rejected"));
        v010(&report);
        assert!(!report.has_code("V011"), "{report}");
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
    fn wide_range_key_flattens_and_matches_the_simulator() {
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
        // Across a top-limb boundary, past every input: one entry, two
        // index rows — the deploy's V003 holds the index to three rows.
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 0xff01, hi: 0x1ffff }],
            priority: 0,
            action_idx: set,
            action_data: vec![3],
        });
        t.default_action = Some((set, vec![2]));
        prog.tables.push(t);
        let p = CompiledPipeline {
            program: Arc::new(prog),
            input_fields: vec![x],
            score_fields: vec![],
            score_format: NumFormat::code8(),
            predicted_field: Some(x),
            report: Default::default(),
        };
        let dp = DataplaneModel::deploy(p, &SwitchConfig::tofino2()).expect("deploys");
        let flat = dp.flat().expect("every verified pipeline flattens");
        assert_eq!((flat.indexed_tables(), flat.limb_keys()), (1, 1));
        let Matcher::Indexed(ix) = &flat.tables[1].matcher else { panic!("indexed") };
        assert_eq!(ix.order, [0, 1, 1]);
        let mut s = flat.scratch();
        // 127 → 0x7f00, inside the range; 128 → 0x8000, past it.
        for (code, want) in [(127.0, 1), (128.0, 2)] {
            assert_eq!(dp.simulate_classify(&[code]).unwrap(), want);
            assert_eq!(flat.classify(&[code], &mut s).unwrap(), want);
        }
        for code in 0..=255 {
            let code = [f32::from(code as u8)];
            let want = dp.simulate_classify(&code).unwrap();
            assert_eq!(flat.classify(&code, &mut s).unwrap(), want);
        }
    }
}
