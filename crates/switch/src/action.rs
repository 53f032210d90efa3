//! Actions: the ALU micro-programs executed when a table entry matches.
//!
//! PISA ALUs support only the operations the paper relies on (§2, §6):
//! assignment, integer add/sub, shifts, min/max and stateful register
//! access. There is deliberately **no multiply, divide, or float op** here —
//! if the Pegasus compiler ever emitted one, the simulator could not express
//! it, which is precisely the constraint the paper designs around.

use crate::phv::{FieldId, Phv};
use crate::register::RegFile;

/// Identifier of a register array within a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegId(pub usize);

/// An ALU operand: a PHV field, an immediate constant, or a slot of the
/// matched entry's action data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// Read a PHV field.
    Field(FieldId),
    /// Immediate constant baked into the action.
    Const(i64),
    /// The `i`-th action-data word attached to the matched entry.
    ///
    /// Action data is fetched over the action data bus, so the number and
    /// width of distinct `Param` slots drives bus utilization (Table 6).
    Param(usize),
}

/// One ALU operation.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // operand fields follow one dst/a/b convention
pub enum AluOp {
    /// `dst = a`
    Set { dst: FieldId, a: Operand },
    /// `dst = a + b` (truncating)
    Add { dst: FieldId, a: Operand, b: Operand },
    /// `dst = a - b` (truncating)
    Sub { dst: FieldId, a: Operand, b: Operand },
    /// `dst = a << amount`
    Shl { dst: FieldId, a: Operand, amount: u8 },
    /// `dst = a >> amount` (arithmetic for signed fields)
    Shr { dst: FieldId, a: Operand, amount: u8 },
    /// `dst = min(a, b)`
    Min { dst: FieldId, a: Operand, b: Operand },
    /// `dst = max(a, b)`
    Max { dst: FieldId, a: Operand, b: Operand },
    /// `dst = a & b`
    And { dst: FieldId, a: Operand, b: Operand },
    /// `dst = a | b`
    Or { dst: FieldId, a: Operand, b: Operand },
    /// `dst = a ^ b`
    Xor { dst: FieldId, a: Operand, b: Operand },
    /// `dst = popcount(a)` — modeled as a single op; on real Tofino a
    /// popcount chain costs many stages (the N3IC scalability problem,
    /// §2), which the deploy-time cost model accounts for separately.
    Popcnt { dst: FieldId, a: Operand },
    /// `dst = reg[index]`
    RegRead { dst: FieldId, reg: RegId, index: Operand },
    /// `reg[index] = a`
    RegWrite { reg: RegId, index: Operand, a: Operand },
    /// `dst = reg[index]; reg[index] = a` — the single-stage atomic
    /// read-modify-write PISA stateful ALUs provide.
    RegReadWrite { dst: FieldId, reg: RegId, index: Operand, a: Operand },
    /// `dst = reg[index]; reg[index] = min(reg[index] + by, max)` —
    /// saturating counter RMW (packet counters, window warm-up tracking).
    RegIncrSat { dst: FieldId, reg: RegId, index: Operand, by: i64, max: i64 },
    /// `dst = reg[index]; reg[index] = ((reg[index] << shift) | a) & mask` —
    /// the shift-insert RMW used to pack a sliding window of small codes
    /// into one register cell (the paper's footnote-2 packing).
    RegShiftInsert { dst: FieldId, reg: RegId, index: Operand, a: Operand, shift: u8, mask: u64 },
}

impl AluOp {
    /// The action-data slots this op references.
    pub fn param_slots(&self) -> Vec<usize> {
        let mut slots = Vec::new();
        let mut push = |op: &Operand| {
            if let Operand::Param(i) = op {
                slots.push(*i);
            }
        };
        match self {
            AluOp::Set { a, .. } | AluOp::Popcnt { a, .. } => push(a),
            AluOp::Shl { a, .. } | AluOp::Shr { a, .. } => push(a),
            AluOp::Add { a, b, .. }
            | AluOp::Sub { a, b, .. }
            | AluOp::Min { a, b, .. }
            | AluOp::Max { a, b, .. }
            | AluOp::And { a, b, .. }
            | AluOp::Or { a, b, .. }
            | AluOp::Xor { a, b, .. } => {
                push(a);
                push(b);
            }
            AluOp::RegRead { index, .. } | AluOp::RegIncrSat { index, .. } => push(index),
            AluOp::RegWrite { index, a, .. }
            | AluOp::RegReadWrite { index, a, .. }
            | AluOp::RegShiftInsert { index, a, .. } => {
                push(index);
                push(a);
            }
        }
        slots
    }

    /// The PHV field written by this op, if any.
    pub fn dst_field(&self) -> Option<FieldId> {
        match self {
            AluOp::Set { dst, .. }
            | AluOp::Add { dst, .. }
            | AluOp::Sub { dst, .. }
            | AluOp::Shl { dst, .. }
            | AluOp::Shr { dst, .. }
            | AluOp::Min { dst, .. }
            | AluOp::Max { dst, .. }
            | AluOp::And { dst, .. }
            | AluOp::Or { dst, .. }
            | AluOp::Xor { dst, .. }
            | AluOp::Popcnt { dst, .. }
            | AluOp::RegRead { dst, .. }
            | AluOp::RegReadWrite { dst, .. }
            | AluOp::RegIncrSat { dst, .. }
            | AluOp::RegShiftInsert { dst, .. } => Some(*dst),
            AluOp::RegWrite { .. } => None,
        }
    }

    /// Rewrites every field reference through `f` (PHV compaction).
    pub fn remap_fields(&mut self, f: &impl Fn(FieldId) -> FieldId) {
        let remap_op = |op: &mut Operand| {
            if let Operand::Field(x) = op {
                *x = f(*x);
            }
        };
        match self {
            AluOp::Set { dst, a } | AluOp::Popcnt { dst, a } => {
                *dst = f(*dst);
                remap_op(a);
            }
            AluOp::Shl { dst, a, .. } | AluOp::Shr { dst, a, .. } => {
                *dst = f(*dst);
                remap_op(a);
            }
            AluOp::Add { dst, a, b }
            | AluOp::Sub { dst, a, b }
            | AluOp::Min { dst, a, b }
            | AluOp::Max { dst, a, b }
            | AluOp::And { dst, a, b }
            | AluOp::Or { dst, a, b }
            | AluOp::Xor { dst, a, b } => {
                *dst = f(*dst);
                remap_op(a);
                remap_op(b);
            }
            AluOp::RegRead { dst, index, .. } => {
                *dst = f(*dst);
                remap_op(index);
            }
            AluOp::RegIncrSat { dst, index, .. } => {
                *dst = f(*dst);
                remap_op(index);
            }
            AluOp::RegWrite { index, a, .. } => {
                remap_op(index);
                remap_op(a);
            }
            AluOp::RegReadWrite { dst, index, a, .. }
            | AluOp::RegShiftInsert { dst, index, a, .. } => {
                *dst = f(*dst);
                remap_op(index);
                remap_op(a);
            }
        }
    }

    /// The PHV fields read by this op.
    pub fn src_fields(&self) -> Vec<FieldId> {
        let mut out = Vec::new();
        let mut push = |op: &Operand| {
            if let Operand::Field(f) = op {
                out.push(*f);
            }
        };
        match self {
            AluOp::Set { a, .. } | AluOp::Popcnt { a, .. } => push(a),
            AluOp::Shl { a, .. } | AluOp::Shr { a, .. } => push(a),
            AluOp::Add { a, b, .. }
            | AluOp::Sub { a, b, .. }
            | AluOp::Min { a, b, .. }
            | AluOp::Max { a, b, .. }
            | AluOp::And { a, b, .. }
            | AluOp::Or { a, b, .. }
            | AluOp::Xor { a, b, .. } => {
                push(a);
                push(b);
            }
            AluOp::RegRead { index, .. } | AluOp::RegIncrSat { index, .. } => push(index),
            AluOp::RegWrite { index, a, .. }
            | AluOp::RegReadWrite { index, a, .. }
            | AluOp::RegShiftInsert { index, a, .. } => {
                push(index);
                push(a);
            }
        }
        out
    }
}

/// An action: an ordered list of ALU ops executed on match.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Action {
    /// Diagnostic name.
    pub name: String,
    /// Ops executed in order (sequential semantics within one action).
    pub ops: Vec<AluOp>,
}

impl Action {
    /// Creates an empty (no-op) action.
    pub fn new(name: &str) -> Self {
        Action { name: name.to_string(), ops: Vec::new() }
    }

    /// Appends an op (builder style).
    pub fn with(mut self, op: AluOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Highest referenced action-data slot + 1 (0 when none).
    pub fn param_arity(&self) -> usize {
        self.ops.iter().flat_map(|o| o.param_slots()).max().map_or(0, |m| m + 1)
    }

    /// Executes the action against a PHV with the matched entry's
    /// action-data words.
    pub fn execute(&self, phv: &mut Phv, params: &[i64], regs: &mut RegFile) {
        let read = |phv: &Phv, op: &Operand| -> i64 {
            match op {
                Operand::Field(f) => phv.get(*f),
                Operand::Const(c) => *c,
                Operand::Param(i) => *params
                    .get(*i)
                    .unwrap_or_else(|| panic!("action {} missing param {i}", self.name)),
            }
        };
        for op in &self.ops {
            match op {
                AluOp::Set { dst, a } => {
                    let v = read(phv, a);
                    phv.set(*dst, v);
                }
                AluOp::Add { dst, a, b } => {
                    let v = read(phv, a).wrapping_add(read(phv, b));
                    phv.set(*dst, v);
                }
                AluOp::Sub { dst, a, b } => {
                    let v = read(phv, a).wrapping_sub(read(phv, b));
                    phv.set(*dst, v);
                }
                AluOp::Shl { dst, a, amount } => {
                    let v = read(phv, a) << amount;
                    phv.set(*dst, v);
                }
                AluOp::Shr { dst, a, amount } => {
                    let v = read(phv, a) >> amount;
                    phv.set(*dst, v);
                }
                AluOp::Min { dst, a, b } => {
                    let v = read(phv, a).min(read(phv, b));
                    phv.set(*dst, v);
                }
                AluOp::Max { dst, a, b } => {
                    let v = read(phv, a).max(read(phv, b));
                    phv.set(*dst, v);
                }
                AluOp::And { dst, a, b } => {
                    let v = read(phv, a) & read(phv, b);
                    phv.set(*dst, v);
                }
                AluOp::Or { dst, a, b } => {
                    let v = read(phv, a) | read(phv, b);
                    phv.set(*dst, v);
                }
                AluOp::Xor { dst, a, b } => {
                    let v = read(phv, a) ^ read(phv, b);
                    phv.set(*dst, v);
                }
                AluOp::Popcnt { dst, a } => {
                    let v = (read(phv, a) as u64).count_ones() as i64;
                    phv.set(*dst, v);
                }
                AluOp::RegRead { dst, reg, index } => {
                    let idx = read(phv, index) as usize;
                    let v = regs.read(*reg, idx);
                    phv.set(*dst, v);
                }
                AluOp::RegWrite { reg, index, a } => {
                    let idx = read(phv, index) as usize;
                    let v = read(phv, a);
                    regs.write(*reg, idx, v);
                }
                AluOp::RegReadWrite { dst, reg, index, a } => {
                    let idx = read(phv, index) as usize;
                    let old = regs.read(*reg, idx);
                    let v = read(phv, a);
                    regs.write(*reg, idx, v);
                    phv.set(*dst, old);
                }
                AluOp::RegIncrSat { dst, reg, index, by, max } => {
                    let idx = read(phv, index) as usize;
                    let old = regs.read(*reg, idx);
                    regs.write(*reg, idx, (old + by).min(*max));
                    phv.set(*dst, old);
                }
                AluOp::RegShiftInsert { dst, reg, index, a, shift, mask } => {
                    let idx = read(phv, index) as usize;
                    let old = regs.read(*reg, idx);
                    let v = read(phv, a);
                    let new = (((old << shift) | v) as u64 & mask) as i64;
                    regs.write(*reg, idx, new);
                    phv.set(*dst, old);
                }
            }
        }
    }
}

// --- serde (control-daemon artifact format) ----------------------------
//
// The tags are the `.pa` wire contract (declaration order, never
// renumbered); `action_wire_bytes_are_pinned` holds the bytes.

serde::impl_serde_struct!(RegId(index));
serde::impl_serde_enum!(Operand { 0 => Field(f), 1 => Const(c), 2 => Param(i) });
serde::impl_serde_enum!(AluOp {
    0 => Set { dst, a },
    1 => Add { dst, a, b },
    2 => Sub { dst, a, b },
    3 => Shl { dst, a, amount },
    4 => Shr { dst, a, amount },
    5 => Min { dst, a, b },
    6 => Max { dst, a, b },
    7 => And { dst, a, b },
    8 => Or { dst, a, b },
    9 => Xor { dst, a, b },
    10 => Popcnt { dst, a },
    11 => RegRead { dst, reg, index },
    12 => RegWrite { reg, index, a },
    13 => RegReadWrite { dst, reg, index, a },
    14 => RegIncrSat { dst, reg, index, by, max },
    15 => RegShiftInsert { dst, reg, index, a, shift, mask },
});
serde::impl_serde_struct!(Action { name, ops });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::PhvLayout;
    use crate::register::{RegFile, RegisterArray};

    fn setup() -> (PhvLayout, FieldId, FieldId, FieldId) {
        let mut l = PhvLayout::new();
        let a = l.add_signed_field("a", 16);
        let b = l.add_signed_field("b", 16);
        let c = l.add_signed_field("c", 16);
        (l, a, b, c)
    }

    #[test]
    fn arithmetic_ops() {
        let (l, a, b, c) = setup();
        let mut phv = l.instantiate();
        phv.set(a, 7);
        phv.set(b, -3);
        let act = Action::new("t").with(AluOp::Add {
            dst: c,
            a: Operand::Field(a),
            b: Operand::Field(b),
        });
        let mut regs = RegFile::default();
        act.execute(&mut phv, &[], &mut regs);
        assert_eq!(phv.get(c), 4);
    }

    #[test]
    fn param_operands_read_action_data() {
        let (l, a, _b, _c) = setup();
        let mut phv = l.instantiate();
        let act = Action::new("t").with(AluOp::Set { dst: a, a: Operand::Param(1) });
        let mut regs = RegFile::default();
        act.execute(&mut phv, &[10, 42], &mut regs);
        assert_eq!(phv.get(a), 42);
    }

    #[test]
    fn param_arity_counts_max_slot() {
        let (_, a, b, _) = setup();
        let act = Action::new("t")
            .with(AluOp::Set { dst: a, a: Operand::Param(0) })
            .with(AluOp::Add { dst: b, a: Operand::Param(3), b: Operand::Const(1) });
        assert_eq!(act.param_arity(), 4);
    }

    #[test]
    fn min_max_shift_ops() {
        let (l, a, b, c) = setup();
        let mut phv = l.instantiate();
        phv.set(a, 5);
        phv.set(b, 9);
        let act = Action::new("t")
            .with(AluOp::Min { dst: c, a: Operand::Field(a), b: Operand::Field(b) })
            .with(AluOp::Shl { dst: c, a: Operand::Field(c), amount: 2 });
        let mut regs = RegFile::default();
        act.execute(&mut phv, &[], &mut regs);
        assert_eq!(phv.get(c), 20);
    }

    #[test]
    fn popcnt() {
        let (l, a, b, _) = setup();
        let mut phv = l.instantiate();
        phv.set(a, 0b1011);
        let act = Action::new("t").with(AluOp::Popcnt { dst: b, a: Operand::Field(a) });
        let mut regs = RegFile::default();
        act.execute(&mut phv, &[], &mut regs);
        assert_eq!(phv.get(b), 3);
    }

    #[test]
    fn register_read_modify_write() {
        let (l, a, b, _) = setup();
        let mut phv = l.instantiate();
        phv.set(a, 99);
        let mut regs = RegFile::new(&[RegisterArray::new("r", 16, 4)]);
        let r = RegId(0);
        let act = Action::new("t").with(AluOp::RegReadWrite {
            dst: b,
            reg: r,
            index: Operand::Const(2),
            a: Operand::Field(a),
        });
        act.execute(&mut phv, &[], &mut regs);
        assert_eq!(phv.get(b), 0); // old value
        assert_eq!(regs.read(r, 2), 99); // new value written
    }

    #[test]
    fn reg_incr_saturates() {
        let (l, _a, b, _) = setup();
        let mut phv = l.instantiate();
        let mut regs = RegFile::new(&[RegisterArray::new("cnt", 8, 2)]);
        let r = RegId(0);
        let act = Action::new("t").with(AluOp::RegIncrSat {
            dst: b,
            reg: r,
            index: Operand::Const(0),
            by: 1,
            max: 3,
        });
        for expected_old in [0, 1, 2, 3, 3] {
            act.execute(&mut phv, &[], &mut regs);
            assert_eq!(phv.get(b), expected_old);
        }
        assert_eq!(regs.read(r, 0), 3);
    }

    #[test]
    fn reg_shift_insert_packs_codes() {
        let (l, a, b, _) = setup();
        let mut phv = l.instantiate();
        let mut regs = RegFile::new(&[RegisterArray::new("win", 32, 2)]);
        let r = RegId(0);
        let act = Action::new("t").with(AluOp::RegShiftInsert {
            dst: b,
            reg: r,
            index: Operand::Const(1),
            a: Operand::Field(a),
            shift: 4,
            mask: 0xffff,
        });
        for code in [0x1i64, 0x2, 0x3, 0x4] {
            phv.set(a, code);
            act.execute(&mut phv, &[], &mut regs);
        }
        // Register holds the last 4 codes, newest in the low nibble.
        assert_eq!(regs.read(r, 1), 0x1234);
        // The returned old value was the pre-insert window.
        assert_eq!(phv.get(b), 0x123);
    }

    #[test]
    fn truncation_applies_after_add() {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 8);
        let mut phv = l.instantiate();
        phv.set(a, 200);
        let act = Action::new("t").with(AluOp::Add {
            dst: a,
            a: Operand::Field(a),
            b: Operand::Const(100),
        });
        let mut regs = RegFile::default();
        act.execute(&mut phv, &[], &mut regs);
        assert_eq!(phv.get(a), 44); // 300 mod 256
    }

    #[test]
    fn dataflow_introspection() {
        let (_, a, b, c) = setup();
        let op = AluOp::Add { dst: c, a: Operand::Field(a), b: Operand::Field(b) };
        assert_eq!(op.dst_field(), Some(c));
        assert_eq!(op.src_fields(), vec![a, b]);
    }
}
