//! The `.pa` artifact bytes of the switch program's enums, pinned: a round
//! trip cannot see a swapped tag or field order, the bytes can. The literals
//! were captured from the hand-written encoders `impl_serde_enum!` replaced
//! (spaces mark field boundaries).

use pegasus_switch::{
    Action, AluOp, FieldId, KeyPart, MatchKind, Operand, RegId, Table, TableEntry, TernaryKey,
};

fn hex(bytes: Vec<u8>) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One `Action` holding every `AluOp` and every `Operand` variant.
#[test]
fn action_wire_bytes_are_pinned() {
    let (d, f, c, p, r) =
        (FieldId(1), Operand::Field(FieldId(2)), Operand::Const(-3), Operand::Param(4), RegId(5));
    let ops = [
        (AluOp::Set { dst: d, a: f }, "00 0100000000000000 00 0200000000000000"),
        (
            AluOp::Add { dst: d, a: f, b: c },
            "01 0100000000000000 00 0200000000000000 01 fdffffffffffffff",
        ),
        (
            AluOp::Sub { dst: d, a: c, b: p },
            "02 0100000000000000 01 fdffffffffffffff 02 0400000000000000",
        ),
        (AluOp::Shl { dst: d, a: f, amount: 6 }, "03 0100000000000000 00 0200000000000000 06"),
        (AluOp::Shr { dst: d, a: p, amount: 7 }, "04 0100000000000000 02 0400000000000000 07"),
        (
            AluOp::Min { dst: d, a: f, b: p },
            "05 0100000000000000 00 0200000000000000 02 0400000000000000",
        ),
        (
            AluOp::Max { dst: d, a: p, b: f },
            "06 0100000000000000 02 0400000000000000 00 0200000000000000",
        ),
        (
            AluOp::And { dst: d, a: f, b: c },
            "07 0100000000000000 00 0200000000000000 01 fdffffffffffffff",
        ),
        (
            AluOp::Or { dst: d, a: c, b: f },
            "08 0100000000000000 01 fdffffffffffffff 00 0200000000000000",
        ),
        (
            AluOp::Xor { dst: d, a: p, b: c },
            "09 0100000000000000 02 0400000000000000 01 fdffffffffffffff",
        ),
        (AluOp::Popcnt { dst: d, a: f }, "0a 0100000000000000 00 0200000000000000"),
        (
            AluOp::RegRead { dst: d, reg: r, index: f },
            "0b 0100000000000000 0500000000000000 00 0200000000000000",
        ),
        (
            AluOp::RegWrite { reg: r, index: p, a: c },
            "0c 0500000000000000 02 0400000000000000 01 fdffffffffffffff",
        ),
        (
            AluOp::RegReadWrite { dst: d, reg: r, index: f, a: p },
            "0d 0100000000000000 0500000000000000 00 0200000000000000 02 0400000000000000",
        ),
        (
            AluOp::RegIncrSat { dst: d, reg: r, index: f, by: 8, max: 9 },
            "0e 0100000000000000 0500000000000000 00 0200000000000000 \
             0800000000000000 0900000000000000",
        ),
        (
            AluOp::RegShiftInsert { dst: d, reg: r, index: f, a: p, shift: 10, mask: 0xb0c },
            "0f 0100000000000000 0500000000000000 00 0200000000000000 \
             02 0400000000000000 0a 0c0b000000000000",
        ),
    ];
    // Name "a", then 16 ops.
    let mut expected = String::from("01000000 61 10000000");
    for (op, bytes) in &ops {
        assert_eq!(hex(serde::to_bytes(op)), bytes.replace(' ', ""), "{op:?}");
        expected += bytes;
    }
    let action = Action { name: "a".into(), ops: ops.into_iter().map(|(op, _)| op).collect() };
    assert_eq!(hex(serde::to_bytes(&action)), expected.replace(' ', ""));
    assert_eq!(serde::from_bytes::<Action>(&serde::to_bytes(&action)).expect("decodes"), action);
}

/// One `Table` key row holding every `MatchKind` and `KeyPart` variant.
#[test]
fn table_key_row_wire_bytes_are_pinned() {
    let mut t = Table::new(
        "t",
        vec![
            (FieldId(1), MatchKind::Exact),
            (FieldId(2), MatchKind::Ternary),
            (FieldId(3), MatchKind::Range),
        ],
    );
    t.entries.push(TableEntry {
        keys: vec![
            KeyPart::Exact(4),
            KeyPart::Ternary(TernaryKey { value: 5, mask: 6 }),
            KeyPart::Range { lo: 7, hi: 8 },
        ],
        priority: -9,
        action_idx: 10,
        action_data: vec![11],
    });
    let expected = concat!(
        "01000000 74",                          // name "t"
        "03000000",                             // three (field, kind) keys
        "0100000000000000 00",                  // Exact
        "0200000000000000 01",                  // Ternary
        "0300000000000000 02",                  // Range
        "00000000 00",                          // no actions, no default action
        "01000000 03000000",                    // one entry, three key parts
        "00 0400000000000000",                  // Exact(4)
        "01 0500000000000000 0600000000000000", // Ternary { value, mask }
        "02 0700000000000000 0800000000000000", // Range { lo, hi }
        "f7ffffff 0a00000000000000",            // priority -9, action_idx 10
        "01000000 0b00000000000000",            // action_data [11]
        "00000000",                             // no param widths
    );
    assert_eq!(hex(serde::to_bytes(&t)), expected.replace(' ', ""));
    assert_eq!(serde::from_bytes::<Table>(&serde::to_bytes(&t)).expect("decodes"), t);
}
