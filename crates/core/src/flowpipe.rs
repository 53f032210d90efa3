//! Per-flow windowed inference pipelines (§7.3).
//!
//! Models that consume a window of W packets cannot hold the whole window
//! in the PHV — CNN-L's 3840-bit input exceeds it outright. Pegasus instead
//! *distributes inference across the window's packets*: each arriving packet
//! is reduced on the spot to a small per-packet code (a fuzzy index from a
//! per-packet extractor network, or quantized length/IPD codes), the last
//! `W-1` codes live in per-flow registers, and the window model fires on
//! every packet over `[stored codes, current code]`.
//!
//! The emitted switch program contains, in dependency order:
//!
//! 1. a timestamp RMW (`last_ts` register) and IPD computation;
//! 2. the length-shift and leading-bit log-IPD quantizers (bit-exact with
//!    `pegasus_net::features`);
//! 3. optionally, a compiled per-packet extractor sub-program plus a fuzzy
//!    table reducing its output vector to a `code_bits`-wide packet index;
//! 4. shift-insert RMWs packing the code window into 32-bit registers (the
//!    paper's footnote-2 packing of sub-byte codes into supported widths);
//! 5. unpacking shifts, a saturating per-flow packet counter and the
//!    window-full validity check;
//! 6. the compiled window model over the `W * streams` unpacked codes.
//!
//! Deployed, the tables and register *declarations* are one
//! `Arc<SwitchProgram>` shared by the pipeline, its loaded program, the
//! engine's artifact and every shard; only a [`FlowClassifier`] fork owns
//! register cells.

use crate::compile::{emit_into, CompileOptions, CompileReport, CompileTarget, EmittedProgram};
use crate::engine::{FlatBatchScratch, FlatProgram};
use crate::error::PegasusError;
use crate::fuzzy::ClusterTree;
use crate::numformat::NumFormat;
use crate::primitives::PrimitiveProgram;
use crate::verify::verify_flow_with;
use pegasus_net::FrameBatch;
use pegasus_switch::{
    Action, AluOp, FieldId, KeyPart, LoadedProgram, MatchKind, Operand, PhvLayout, RegFile, RegId,
    RegisterArray, ResourceReport, SwitchConfig, SwitchProgram, Table, TableEntry, TernaryKey,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Per-packet code source for the window.
pub enum PacketCodes {
    /// Quantized (length, IPD) pair per packet — two 8-bit streams
    /// (RNN-B / CNN-B / CNN-M / AutoEncoder style).
    LenIpd,
    /// A per-packet extractor network reduced to one fuzzy index of
    /// `code_bits` (CNN-L style). The extractor consumes 8-bit feature
    /// codes (e.g. 60 payload bytes); with `ipd_input` its *last* input
    /// element is wired to the on-switch IPD code, so time information is
    /// folded into the stored index rather than stored separately — which
    /// is how the paper reaches 44 stateful bits per flow (§7.3).
    Extractor {
        /// The (fused) extractor program.
        program: PrimitiveProgram,
        /// Training inputs for the extractor compilation (including the
        /// IPD column when `ipd_input` is set).
        train: Vec<Vec<f32>>,
        /// Tree over the extractor's output vector producing the index.
        tree: ClusterTree,
        /// Index width in bits (4 or 8 in the paper's variants).
        code_bits: u8,
        /// Feed the quantized IPD code as the extractor's last input.
        ipd_input: bool,
    },
}

/// Specification of a windowed flow pipeline.
pub struct FlowPipelineSpec {
    /// Program name.
    pub name: String,
    /// Window size W (the paper uses 8).
    pub window: usize,
    /// Where per-packet codes come from.
    pub codes: PacketCodes,
    /// The window model over `window * streams` codes, oldest first
    /// (stream-major per packet: `[p0_s0, p0_s1, p1_s0, ...]`).
    pub window_program: PrimitiveProgram,
    /// Training inputs for the window model compilation (same layout).
    pub window_train: Vec<Vec<f32>>,
    /// Fine-tuned tree overrides for the window model, keyed by Map input
    /// value id (see `compile_with_trees`).
    pub window_tree_overrides: HashMap<usize, ClusterTree>,
    /// Compile options for both sub-programs.
    pub opts: CompileOptions,
    /// Classify or Scores.
    pub target: CompileTarget,
    /// log2 of per-flow register slots (hash table size).
    pub flow_slots_log2: u8,
    /// Bits of the truncated timestamp register (0 disables IPD tracking:
    /// the Figure 7 "28-bit, no IPD" variant).
    pub ts_bits: u8,
}

/// A built flow pipeline: program + field handles + accounting.
#[derive(Clone)]
pub struct FlowPipeline {
    /// The deployable program — one copy, shared with every clone of this
    /// pipeline and with the [`LoadedProgram`] it deploys into.
    pub program: Arc<SwitchProgram>,
    /// Packet wire length input (16 bits).
    pub len_field: FieldId,
    /// Packet timestamp input, in 64 µs units (truncated).
    pub ts_field: FieldId,
    /// Flow hash input (register index).
    pub hash_field: FieldId,
    /// Extractor feature-code inputs (empty for `LenIpd`).
    pub extractor_fields: Vec<FieldId>,
    /// Predicted class field (Classify target).
    pub predicted_field: Option<FieldId>,
    /// Window model score fields.
    pub score_fields: Vec<FieldId>,
    /// Score encoding.
    pub score_format: NumFormat,
    /// 1 once the flow has seen a full window.
    pub valid_field: FieldId,
    /// Logical stateful bits per flow as the paper accounts them
    /// (codes + timestamp; the 8-bit warm-up counter is reported separately).
    pub stateful_bits_per_flow: u64,
    /// Emission metrics of extractor + window model.
    pub report: CompileReport,
}

/// Number of code streams per packet for a spec.
fn stream_info(codes: &PacketCodes) -> (usize, u8, bool) {
    match codes {
        PacketCodes::LenIpd => (2, 8, true),
        PacketCodes::Extractor { code_bits, ipd_input, .. } => (1, *code_bits, *ipd_input),
    }
}

/// Builds the switch program for a windowed flow pipeline.
pub fn build_flow_pipeline(spec: &FlowPipelineSpec) -> Result<FlowPipeline, PegasusError> {
    let w = spec.window;
    assert!(w >= 2, "window must hold at least two packets");
    let (streams, code_bits, needs_ipd) = stream_info(&spec.codes);
    assert_eq!(
        spec.window_program.dim(spec.window_program.input),
        w * streams,
        "window program input must be window * streams codes"
    );
    let hash_bits = spec.flow_slots_log2;
    let slots = 1usize << hash_bits;

    let mut layout = PhvLayout::new();
    let len_field = layout.add_field("pkt_len", 16);
    let ts_field = layout.add_field("ts64us", 32);
    let hash_field = layout.add_field("flow_hash", hash_bits);
    let mut tables: Vec<Table> = Vec::new();
    let mut registers: Vec<RegisterArray> = Vec::new();
    let mut uniq = 0usize;
    let mut report = CompileReport::default();

    // ---- 1. Timestamp + IPD. -------------------------------------------
    let ipd_code_field = layout.add_field("ipd_code", 8);
    if spec.ts_bits > 0 && needs_ipd {
        let last_ts = RegId(registers.len());
        registers.push(RegisterArray::new("last_ts", 32, slots));
        let old_ts = layout.add_field("old_ts", 32);
        let ipd_raw = layout.add_field("ipd_raw", 32);
        let mut t = Table::new("ts_rmw", vec![]);
        let mut act = Action::new("ts");
        act.ops.push(AluOp::RegReadWrite {
            dst: old_ts,
            reg: last_ts,
            index: Operand::Field(hash_field),
            a: Operand::Field(ts_field),
        });
        act.ops.push(AluOp::Sub {
            dst: ipd_raw,
            a: Operand::Field(ts_field),
            b: Operand::Field(old_ts),
        });
        t.default_action = Some((t.add_action(act), vec![]));
        tables.push(t);
        emit_ipd_quantizer(&mut tables, &mut report, ipd_raw, ipd_code_field);
    }

    // ---- 2. Length quantizer (one shift). ------------------------------
    let len_code_field = layout.add_field("len_code", 8);
    {
        let mut t = Table::new("len_quant", vec![]);
        let act = Action::new("shr3").with(AluOp::Shr {
            dst: len_code_field,
            a: Operand::Field(len_field),
            amount: 3,
        });
        t.default_action = Some((t.add_action(act), vec![]));
        tables.push(t);
    }

    // ---- 3. Per-packet code(s). ------------------------------------------
    let mut extractor_fields = Vec::new();
    let cur_codes: Vec<FieldId> = match &spec.codes {
        PacketCodes::LenIpd => vec![len_code_field, ipd_code_field],
        PacketCodes::Extractor { program, train, tree, code_bits, ipd_input } => {
            let in_dim = program.dim(program.input);
            let n_ext = if *ipd_input { in_dim - 1 } else { in_dim };
            extractor_fields =
                (0..n_ext).map(|i| layout.add_field(&format!("exb{i}"), 8)).collect();
            let mut ext_inputs = extractor_fields.clone();
            if *ipd_input {
                ext_inputs.push(ipd_code_field);
            }
            let emitted = emit_into(
                program,
                train,
                &spec.opts,
                CompileTarget::Scores,
                &format!("{}_ext", spec.name),
                &HashMap::new(),
                &mut layout,
                &mut tables,
                &mut uniq,
                &ext_inputs,
            )?;
            accumulate(&mut report, &emitted.report);
            // Fuzzy table: extractor scores -> packet index.
            let idx_field = layout.add_field("pkt_idx", *code_bits);
            emit_index_table(
                &mut tables,
                &mut report,
                tree,
                &emitted,
                idx_field,
                &format!("{}_pidx", spec.name),
            );
            vec![idx_field]
        }
    };
    assert_eq!(cur_codes.len(), streams);

    // ---- 4. History registers (packed shift-insert). ---------------------
    // Each stream packs its W-1 history codes into ceil((W-1)*bits/32)
    // 32-bit registers. Unpacked old values ++ current code form the window.
    let mut window_fields: Vec<FieldId> = Vec::new(); // oldest-first, stream-major
    let mut per_stream_unpacked: Vec<Vec<FieldId>> = Vec::new();
    for (s, &cur) in cur_codes.iter().enumerate() {
        let hist = w - 1;
        let codes_per_reg = (32 / code_bits as usize).max(1);
        let regs_needed = hist.div_ceil(codes_per_reg);
        let mut old_fields: Vec<FieldId> = Vec::new(); // newest-reg first
        let mut carry: Option<FieldId> = None;
        // Registers r_0 .. r_{m-1}: r_{m-1} holds the newest codes. Insert
        // into the newest first; its evicted top code becomes the next
        // register's inserted value.
        for r in (0..regs_needed).rev() {
            let reg = RegId(registers.len());
            let codes_here = if r == regs_needed - 1 {
                hist - (regs_needed - 1) * codes_per_reg
            } else {
                codes_per_reg
            };
            registers.push(RegisterArray::new(&format!("hist_s{s}_r{r}"), 32, slots));
            let old = layout.add_field(&format!("hold_s{s}_r{r}"), 32);
            let mask = if (codes_here * code_bits as usize) >= 64 {
                u64::MAX
            } else {
                (1u64 << (codes_here * code_bits as usize)) - 1
            };
            let src = match carry {
                None => Operand::Field(cur),
                Some(c) => Operand::Field(c),
            };
            let mut t = Table::new(&format!("hist_s{s}_r{r}_rmw"), vec![]);
            let mut act = Action::new("shift_insert");
            act.ops.push(AluOp::RegShiftInsert {
                dst: old,
                reg,
                index: Operand::Field(hash_field),
                a: src,
                shift: code_bits,
                mask,
            });
            // Evicted top code of this register feeds the next-older one.
            if r > 0 {
                let c = layout.add_field(&format!("carry_s{s}_r{r}"), 8);
                act.ops.push(AluOp::Shr {
                    dst: c,
                    a: Operand::Field(old),
                    amount: ((codes_here - 1) * code_bits as usize) as u8,
                });
                act.ops.push(AluOp::And {
                    dst: c,
                    a: Operand::Field(c),
                    b: Operand::Const((1i64 << code_bits) - 1),
                });
                carry = Some(c);
            }
            t.default_action = Some((t.add_action(act), vec![]));
            tables.push(t);
            old_fields.push(old);
        }
        // Unpack old values into per-slot 8-bit fields (oldest first).
        let mut unpack_t = Table::new(&format!("unpack_s{s}"), vec![]);
        let mut unpack = Action::new("unpack");
        let mut slots_fields: Vec<FieldId> = Vec::new();
        // old_fields is newest-reg-first; iterate regs oldest-first.
        for (rev_i, &old) in old_fields.iter().rev().enumerate() {
            let r = rev_i; // register index 0 = oldest
            let codes_here = if r == regs_needed - 1 {
                hist - (regs_needed - 1) * codes_per_reg
            } else {
                codes_per_reg
            };
            for j in (0..codes_here).rev() {
                // j-th code from the top = older.
                let f = layout.add_field(&format!("h_s{s}_{}", slots_fields.len()), 8);
                unpack.ops.push(AluOp::Shr {
                    dst: f,
                    a: Operand::Field(old),
                    amount: (j * code_bits as usize) as u8,
                });
                unpack.ops.push(AluOp::And {
                    dst: f,
                    a: Operand::Field(f),
                    b: Operand::Const((1i64 << code_bits) - 1),
                });
                slots_fields.push(f);
            }
        }
        unpack_t.default_action = Some((unpack_t.add_action(unpack), vec![]));
        tables.push(unpack_t);
        slots_fields.push(cur); // newest = current packet
        per_stream_unpacked.push(slots_fields);
    }
    // Interleave stream-major per packet: [p0_s0, p0_s1, p1_s0, ...].
    for p in 0..w {
        for stream_fields in per_stream_unpacked.iter() {
            window_fields.push(stream_fields[p]);
        }
    }

    // ---- 5. Packet counter + validity. -----------------------------------
    let counter = RegId(registers.len());
    registers.push(RegisterArray::new("pkt_count", 8, slots));
    let count_field = layout.add_field("count_old", 8);
    let valid_field = layout.add_field("win_valid", 1);
    {
        let mut t = Table::new("count_rmw", vec![]);
        let act = Action::new("incr").with(AluOp::RegIncrSat {
            dst: count_field,
            reg: counter,
            index: Operand::Field(hash_field),
            by: 1,
            max: 255,
        });
        t.default_action = Some((t.add_action(act), vec![]));
        tables.push(t);

        let mut v = Table::new("win_validity", vec![(count_field, MatchKind::Range)]);
        let set1 = v.add_action(
            Action::new("valid").with(AluOp::Set { dst: valid_field, a: Operand::Const(1) }),
        );
        v.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: (w - 1) as u64, hi: 255 }],
            priority: 0,
            action_idx: set1,
            action_data: vec![],
        });
        report.entries += 1;
        report.lookups_per_input += 1;
        tables.push(v);
    }

    // ---- 6. Window model. -------------------------------------------------
    let emitted = emit_into(
        &spec.window_program,
        &spec.window_train,
        &spec.opts,
        spec.target,
        &format!("{}_win", spec.name),
        &spec.window_tree_overrides,
        &mut layout,
        &mut tables,
        &mut uniq,
        &window_fields,
    )?;
    accumulate(&mut report, &emitted.report);

    let mut program = SwitchProgram::new(&spec.name, layout);
    program.tables = tables;
    program.registers = registers;
    report.tables = program.tables.len();

    let ts_state = if spec.ts_bits > 0 && needs_ipd { spec.ts_bits as u64 } else { 0 };
    let stateful = (w as u64 - 1) * code_bits as u64 * streams as u64 + ts_state;
    program.stateful_bits_per_flow = stateful;

    program.keep_alive = emitted.score_fields.clone();
    if let Some(p) = emitted.predicted_field {
        program.keep_alive.push(p);
    }
    program.keep_alive.push(valid_field);
    let mut inputs = vec![len_field, ts_field, hash_field];
    inputs.extend(extractor_fields.iter().copied());
    let (_, remap) = program.compact_phv(&inputs);

    Ok(FlowPipeline {
        program: Arc::new(program),
        len_field: remap.get(len_field),
        ts_field: remap.get(ts_field),
        hash_field: remap.get(hash_field),
        extractor_fields: extractor_fields.iter().map(|&x| remap.get(x)).collect(),
        predicted_field: emitted.predicted_field.map(|x| remap.get(x)),
        score_fields: emitted.score_fields.iter().map(|&x| remap.get(x)).collect(),
        score_format: emitted.score_format,
        valid_field: remap.get(valid_field),
        stateful_bits_per_flow: stateful,
        report,
    })
}

fn accumulate(total: &mut CompileReport, part: &CompileReport) {
    total.fuzzy_tables += part.fuzzy_tables;
    total.exact_tables += part.exact_tables;
    total.entries += part.entries;
    total.lookups_per_input += part.lookups_per_input;
}

/// The leading-bit log-IPD quantizer: 29 ternary entries, one action per
/// exponent — computes exactly `pegasus_net::features::quantize_ipd`.
fn emit_ipd_quantizer(
    tables: &mut Vec<Table>,
    report: &mut CompileReport,
    ipd_raw: FieldId,
    ipd_code: FieldId,
) {
    let mut t = Table::new("ipd_quant", vec![(ipd_raw, MatchKind::Ternary)]);
    // Default: ipd < 8 -> code = ipd.
    let small = t.add_action(
        Action::new("small").with(AluOp::Set { dst: ipd_code, a: Operand::Field(ipd_raw) }),
    );
    t.default_action = Some((small, vec![]));
    for e in 3u8..32 {
        let mut act = Action::new(&format!("exp{e}"));
        // mant = (ipd >> (e-3)) & 7 ; code = min(255, 8e + mant)
        act.ops.push(AluOp::Shr { dst: ipd_code, a: Operand::Field(ipd_raw), amount: e - 3 });
        act.ops.push(AluOp::And {
            dst: ipd_code,
            a: Operand::Field(ipd_code),
            b: Operand::Const(7),
        });
        act.ops.push(AluOp::Add {
            dst: ipd_code,
            a: Operand::Field(ipd_code),
            b: Operand::Const(8 * e as i64),
        });
        if 8 * e as i64 + 7 > 255 {
            act.ops.push(AluOp::Min {
                dst: ipd_code,
                a: Operand::Field(ipd_code),
                b: Operand::Const(255),
            });
        }
        let ai = t.add_action(act);
        // Matches values whose most significant set bit is exactly e.
        let value = 1u64 << e;
        let mask = (u32::MAX as u64) & !((1u64 << e) - 1);
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Ternary(TernaryKey { value, mask })],
            priority: 0,
            action_idx: ai,
            action_data: vec![],
        });
        report.entries += 1;
    }
    report.lookups_per_input += 1;
    tables.push(t);
}

/// Range table reducing an emitted program's score vector to a fuzzy index.
fn emit_index_table(
    tables: &mut Vec<Table>,
    report: &mut CompileReport,
    tree: &ClusterTree,
    scores: &EmittedProgram,
    idx_field: FieldId,
    name: &str,
) {
    let fmt = scores.score_format;
    // Stored-space thresholds snapped to power-of-two boundaries: index
    // trees over the full feature vector constrain many dimensions per
    // leaf, and unsnapped boxes cross-multiply into TCAM the pipeline
    // cannot hold. A rerouted borderline packet lands in a neighboring
    // feature cluster — the same graceful degradation fuzzy matching
    // already accepts.
    let stored_tree = tree.map_thresholds(|_, t| {
        let stored = ((t / fmt.step).round() as i64 + fmt.bias).clamp(0, fmt.max_stored());
        crate::compile::snap_threshold(stored, fmt.bits, 4) as f32
    });
    let domain: Vec<(u64, u64)> = vec![(0, fmt.max_stored() as u64); scores.score_fields.len()];
    let boxes = stored_tree.leaf_boxes(&domain);
    let mut t =
        Table::new(name, scores.score_fields.iter().map(|&f| (f, MatchKind::Range)).collect());
    let set_idx = t.add_action(
        Action::new("set_idx").with(AluOp::Set { dst: idx_field, a: Operand::Param(0) }),
    );
    t.param_widths = vec![tree.index_bits()];
    for b in &boxes {
        t.add_entry(TableEntry {
            keys: b.ranges.iter().map(|&(lo, hi)| KeyPart::Range { lo, hi }).collect(),
            priority: 0,
            action_idx: set_idx,
            action_data: vec![b.index as i64],
        });
    }
    t.default_action = Some((set_idx, vec![0]));
    report.entries += boxes.len() as u64;
    report.fuzzy_tables += 1;
    report.lookups_per_input += 1;
    tables.push(t);
}

impl FlowPipeline {
    /// Flattens the pipeline's program for the batched hot path. Its
    /// inputs, in order: wire length, timestamp, flow hash, then the
    /// extractor bytes — the order [`FlowClassifier::process_batch`] seeds
    /// them in.
    pub(crate) fn flatten(&self) -> FlatProgram {
        let mut inputs = vec![self.len_field, self.ts_field, self.hash_field];
        inputs.extend(&self.extractor_fields);
        FlatProgram::from_program(
            &self.program,
            &inputs,
            self.predicted_field,
            &self.score_fields,
            self.score_format,
        )
    }

    /// The flow-hash mask the register index is cut to: the hash field's
    /// width as low bits set. Read off the declarations with checked
    /// indexing — `None` when the hash field is not declared — so an
    /// unverified pipeline can be asked without panicking.
    pub(crate) fn hash_mask(&self) -> Option<u32> {
        let layout = &self.program.layout;
        let bits = (self.hash_field.0 < layout.len()).then(|| layout.def(self.hash_field).bits)?;
        Some(1u64.checked_shl(bits.into()).map_or(u64::MAX, |slots| slots - 1) as u32)
    }

    /// SRAM bits one register slot consumes: the summed element widths of
    /// the per-flow arrays (code history, timestamp, warm-up counter).
    pub(crate) fn state_bits_per_slot(&self) -> u64 {
        self.program.registers.iter().map(|a| u64::from(a.width_bits)).sum()
    }
}

/// The *program* half of a deployed flow pipeline — everything the control
/// plane installs and a swap replaces: the pipeline description, its loaded
/// tables (the pipeline's own `Arc<SwitchProgram>`, not a copy), their
/// flattened replica and the flow-hash mask. Immutable once deployed and
/// free of per-flow state: it is what the engine's artifact holds, shared
/// by `Arc` with every [`fork`](FlowClassifier::fork), and every question
/// about state *shape* is answered from its register declarations.
pub(crate) struct FlowProgram {
    pub(crate) pipeline: FlowPipeline,
    pub(crate) loaded: LoadedProgram,
    /// What [`process_batch`](FlowClassifier::process_batch) sweeps, baked
    /// once at deploy time.
    pub(crate) flat: FlatProgram,
    hash_mask: u32,
}

impl FlowProgram {
    /// [`FlowClassifier::deploy`] minus the register file. Flattens once,
    /// inside the verifier run: the [`FlatProgram`] proved is the one kept.
    /// `verify_cfg` is the switch model the verifier's resource layer holds
    /// the program to — the serving engine's first admission passes the
    /// one it loads onto.
    pub(crate) fn deploy(
        pipeline: FlowPipeline,
        cfg: &SwitchConfig,
        verify_cfg: Option<&SwitchConfig>,
    ) -> Result<Arc<Self>, PegasusError> {
        let (report, flat) = verify_flow_with(&pipeline, verify_cfg, || pipeline.flatten());
        // A clean report has checked the hash field is declared.
        let (Some(flat), Some(hash_mask)) =
            (flat.filter(|_| !report.has_errors()), pipeline.hash_mask())
        else {
            return Err(PegasusError::Verify { report: Box::new(report) });
        };
        let loaded = Arc::clone(&pipeline.program).deploy(cfg)?;
        Ok(Arc::new(FlowProgram { pipeline, loaded, flat, hash_mask }))
    }

    fn registers(&self) -> &[RegisterArray] {
        &self.pipeline.program.registers
    }

    pub(crate) fn flow_slots(&self) -> usize {
        self.hash_mask as usize + 1
    }

    pub(crate) fn state_bits_per_slot(&self) -> u64 {
        self.pipeline.state_bits_per_slot()
    }

    pub(crate) fn state_compatible(&self, other: &FlowProgram) -> bool {
        let shape = |a: &RegisterArray| (a.width_bits, a.size);
        self.hash_mask == other.hash_mask
            && self.pipeline.extractor_fields.len() == other.pipeline.extractor_fields.len()
            && self.registers().iter().map(shape).eq(other.registers().iter().map(shape))
    }

    /// The one place a served register file is allocated.
    pub(crate) fn fork(self: &Arc<Self>) -> FlowClassifier {
        FlowClassifier {
            program: Arc::clone(self),
            regs: RegFile::new(self.registers()),
            scratch: FlatBatchScratch::default(),
        }
    }
}

/// A deployed flow pipeline: a shared program plus this classifier's own
/// per-flow register file — the split the switch makes between
/// match-action entries and register SRAM. Packets go through it a run at
/// a time ([`process_batch`](FlowClassifier::process_batch), the served
/// path) or one at a time through the switch simulator
/// ([`on_packet_mut`](FlowClassifier::on_packet_mut), the oracle the
/// served path is held against); both read and write the same file.
pub struct FlowClassifier {
    pub(crate) program: Arc<FlowProgram>,
    regs: RegFile,
    /// Field columns of the last `process_batch` sweep, reused across runs.
    scratch: FlatBatchScratch,
}

/// One packet's classification outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowVerdict {
    /// Predicted class (Classify target) once the window is full.
    pub predicted: Option<usize>,
    /// Decoded scores (always present).
    pub scores: Vec<f32>,
    /// Whether the flow's window was full for this packet.
    pub window_full: bool,
}

impl FlowClassifier {
    /// Deploys a flow pipeline on a switch configuration. The static
    /// verifier runs first: an artifact with `Error`-severity diagnostics
    /// is rejected with [`PegasusError::Verify`] before the resource model
    /// ever sees it. Resource fit stays with the switch model's own typed
    /// [`DeployError`](pegasus_switch::DeployError). Returns the deployed
    /// program's first [`fork`](FlowClassifier::fork).
    pub fn deploy(pipeline: FlowPipeline, cfg: &SwitchConfig) -> Result<Self, PegasusError> {
        Ok(FlowProgram::deploy(pipeline, cfg, None)?.fork())
    }

    /// The flattened replica [`process_batch`](FlowClassifier::process_batch)
    /// sweeps.
    pub fn flat(&self) -> &FlatProgram {
        &self.program.flat
    }

    /// The underlying pipeline description.
    pub fn pipeline(&self) -> &FlowPipeline {
        &self.program.pipeline
    }

    /// Switch resource utilization.
    pub fn resource_report(&self) -> ResourceReport {
        self.program.loaded.resource_report()
    }

    /// Per-flow register slots (the hash table size, `2^flow_slots_log2`).
    /// Flows whose truncated hashes collide share one slot — and share
    /// their register state with it.
    pub fn flow_slots(&self) -> usize {
        self.program.flow_slots()
    }

    /// Total stateful register SRAM of this classifier, in bits — what
    /// per-tenant state budgets are checked against.
    pub fn register_state_bits(&self) -> u64 {
        self.program.registers().iter().map(|a| a.total_bits()).sum()
    }

    /// A fresh-state replica of this classifier: the *same* program (an
    /// `Arc` clone — no table is copied) over a zeroed register file of
    /// its own.
    ///
    /// The sharded streaming engine forks one replica per shard. Flows are
    /// partitioned across shards by five-tuple hash, so each flow's
    /// register state lives in exactly one replica, owned by the one
    /// thread that serves it.
    pub fn fork(&self) -> FlowClassifier {
        self.program.fork()
    }

    /// True when `other`'s per-flow register files have the same shape as
    /// this classifier's — same array count and, array by array, the same
    /// element width and slot count, read off the programs' declarations.
    /// Two compilations of the *same pipeline shape* (same window, code
    /// width, hash size and feature family — e.g. a retrained model) are
    /// state-compatible; a different shape is not, and its flows must
    /// re-warm after a swap.
    pub fn state_compatible(&self, other: &FlowClassifier) -> bool {
        self.program.state_compatible(&other.program)
    }

    /// Copies `prev`'s whole per-flow register file (code windows,
    /// timestamps, warm-up counters) into this classifier — the reference
    /// the differential tests hold the engine's hot swap against: a
    /// control plane retargets the running pipeline to a retrained model
    /// by rewriting its table entries while the per-flow registers keep
    /// their contents, so established flows classify under the new model
    /// without re-warming. Returns `false` (leaving this classifier's
    /// state untouched) when the layouts are not
    /// [`state_compatible`](FlowClassifier::state_compatible).
    pub fn adopt_state(&mut self, prev: &FlowClassifier) -> bool {
        if !self.state_compatible(prev) {
            return false;
        }
        self.regs.clone_from(&prev.regs);
        true
    }

    /// The hot swap itself, as the hardware does it: re-points this
    /// classifier at `source` and, when the two programs are
    /// [`state_compatible`](FlowClassifier::state_compatible), leaves the
    /// register file exactly where it is — O(1), nothing copied. An
    /// incompatible shape gets a zeroed file of the new shape instead.
    /// Returns whether state was retained.
    pub(crate) fn retarget(&mut self, source: &Arc<FlowProgram>) -> bool {
        let retained = self.program.state_compatible(source);
        if retained {
            self.program = Arc::clone(source);
        } else {
            *self = source.fork();
        }
        retained
    }

    /// Serves frames `run` of `batch`, leaving the verdict of frame
    /// `run.start + j` — the predicted class once the flow's window is
    /// full — in `verdicts[j]`: bit-identical, register file included, to
    /// [`on_packet_mut`](FlowClassifier::on_packet_mut) on each frame in
    /// order (flow hash, capture timestamp, wire length, payload head
    /// zero-padded to the extractor arity).
    ///
    /// The flattened program takes the whole run in one table-major sweep:
    /// every lane's input fields are seeded straight from the batch columns
    /// — as integers, each through its field's truncation — into the
    /// sweep's field-major columns. A table carrying register ops walks the
    /// lanes in arrival order, so a register array (touched by one table
    /// only, the verifier checked) sees its packets' accesses in that
    /// order; every other table runs by columns, op-major across the lanes.
    /// Nothing is allocated per packet.
    pub fn process_batch(
        &mut self,
        batch: &FrameBatch,
        run: Range<usize>,
        verdicts: &mut Vec<Option<usize>>,
    ) -> Result<(), PegasusError> {
        verdicts.clear();
        let (flows, ts, wires) = (batch.flows(), batch.ts_micros(), batch.wire_lens());
        let flat = &self.program.flat;
        let (lanes, inputs, hash_mask) = (run.len(), flat.inputs(), self.program.hash_mask);
        flat.sweep(lanes, &mut self.scratch, &mut self.regs, |vals| {
            for (l, i) in run.enumerate() {
                let header = [
                    i64::from(wires[i]),
                    (ts[i] >> 6) as i64, // 64 µs units
                    i64::from(flows[i].dataplane_hash() & hash_mask),
                ];
                let head = batch.payload_head(i).iter().map(|&b| i64::from(b));
                // Bytes past the captured head stay the lane's zeros.
                for (&(f, trunc), v) in inputs.iter().zip(header.into_iter().chain(head)) {
                    vals[f * lanes + l] = trunc.apply(v);
                }
            }
        });
        let FlowPipeline { valid_field, predicted_field, .. } = self.program.pipeline;
        let valid = self.scratch.column(lanes, valid_field.0);
        let predicted = predicted_field.map(|p| self.scratch.column(lanes, p.0));
        verdicts.extend(valid.iter().enumerate().map(|(l, &v)| match predicted {
            Some(p) if v == 1 => Some(p[l] as usize),
            _ => None,
        }));
        Ok(())
    }

    /// Processes one packet of a flow through the switch simulator: the
    /// oracle, on no serving or evaluation path.
    ///
    /// `extractor_codes` must match the spec's extractor input arity (empty
    /// for `LenIpd` pipelines). Timestamps are absolute microseconds.
    pub fn on_packet_mut(
        &mut self,
        flow_hash: u32,
        ts_micros: u64,
        wire_len: u16,
        extractor_codes: &[f32],
    ) -> Result<FlowVerdict, PegasusError> {
        let inputs = self.inputs_for(flow_hash, ts_micros, wire_len, extractor_codes)?;
        let phv = self.program.loaded.process(&inputs, &mut self.regs);
        Ok(self.decode(&phv))
    }

    fn inputs_for(
        &self,
        flow_hash: u32,
        ts_micros: u64,
        wire_len: u16,
        extractor_codes: &[f32],
    ) -> Result<Vec<(FieldId, i64)>, PegasusError> {
        let pipeline = self.pipeline();
        if extractor_codes.len() != pipeline.extractor_fields.len() {
            return Err(PegasusError::FeatureCount {
                expected: pipeline.extractor_fields.len(),
                got: extractor_codes.len(),
            });
        }
        let mut inputs: Vec<(FieldId, i64)> = vec![
            (pipeline.len_field, wire_len as i64),
            (pipeline.ts_field, (ts_micros >> 6) as i64), // 64 µs units
            (pipeline.hash_field, (flow_hash & self.program.hash_mask) as i64),
        ];
        for (&f, &c) in pipeline.extractor_fields.iter().zip(extractor_codes.iter()) {
            inputs.push((f, c.round().clamp(0.0, 255.0) as i64));
        }
        Ok(inputs)
    }

    fn decode(&self, phv: &pegasus_switch::Phv) -> FlowVerdict {
        let pipeline = self.pipeline();
        let window_full = phv.get(pipeline.valid_field) == 1;
        let scores: Vec<f32> = pipeline
            .score_fields
            .iter()
            .map(|&f| pipeline.score_format.to_real(phv.get(f)))
            .collect();
        let predicted = match pipeline.predicted_field {
            Some(f) if window_full => Some(phv.get(f) as usize),
            _ => None,
        };
        FlowVerdict { predicted, scores, window_full }
    }
}

// --- serde (control-daemon artifact format) ----------------------------

serde::impl_serde_struct!(FlowPipeline {
    program,
    len_field,
    ts_field,
    hash_field,
    extractor_fields,
    predicted_field,
    score_fields,
    score_format,
    valid_field,
    stateful_bits_per_flow,
    report,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse_basic;
    use crate::primitives::MapFn;
    use pegasus_nn::Tensor;
    use rand::Rng;
    use rand::SeedableRng;

    /// Window model: class 0 iff sum of codes is small. W=4, LenIpd (8 codes).
    fn window_program() -> PrimitiveProgram {
        let mut p = PrimitiveProgram::new(8);
        let segs = p.partition_strided(p.input, 2, 2);
        let mapped: Vec<_> = segs
            .iter()
            .map(|&s| {
                // score0 = 200 - (len+ipd)/2, score1 = (len+ipd)/2
                let w = Tensor::from_vec(vec![-0.5, 0.5, -0.5, 0.5], &[2, 2]);
                p.map(s, MapFn::MatVec { weight: w, bias: vec![50.0, 0.0] })
            })
            .collect();
        let out = p.sum_reduce(&mapped);
        p.set_output(out);
        p
    }

    fn window_train(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..8).map(|_| rng.gen_range(0..200) as f32).collect()).collect()
    }

    fn spec() -> FlowPipelineSpec {
        let mut wp = window_program();
        fuse_basic(&mut wp);
        FlowPipelineSpec {
            name: "flowtest".to_string(),
            window: 4,
            codes: PacketCodes::LenIpd,
            window_program: wp,
            window_train: window_train(1500, 1),
            window_tree_overrides: HashMap::new(),
            opts: CompileOptions { clustering_depth: 5, ..Default::default() },
            target: CompileTarget::Classify,
            flow_slots_log2: 10,
            ts_bits: 16,
        }
    }

    #[test]
    fn pipeline_builds_and_deploys() {
        let p = build_flow_pipeline(&spec()).expect("builds");
        assert!(p.stateful_bits_per_flow > 0);
        // (W-1) * 8 bits * 2 streams + 16 ts = 3*16+16 = 64.
        assert_eq!(p.stateful_bits_per_flow, 64);
        // Declarations, not cells: 4 slots or 1024, the encoding is as long.
        let small = FlowPipelineSpec { flow_slots_log2: 2, ..spec() };
        let small = build_flow_pipeline(&small).expect("builds");
        assert_eq!(small.program.registers[0].size, 4);
        assert_eq!(p.program.registers[0].size, 1024);
        assert_eq!(serde::to_bytes(&small).len(), serde::to_bytes(&p).len());
        let c = FlowClassifier::deploy(p, &SwitchConfig::tofino2()).expect("deploys");
        let r = c.resource_report();
        assert!(r.stages_used <= 20, "stages {}", r.stages_used);
    }

    #[test]
    fn window_warms_up_then_classifies() {
        let p = build_flow_pipeline(&spec()).expect("builds");
        let mut c = FlowClassifier::deploy(p, &SwitchConfig::tofino2()).unwrap();
        // First W-1 packets: not valid. From packet W on: valid.
        for i in 0..3 {
            let v = c.on_packet_mut(7, i * 100_000, 100, &[]).expect("packet");
            assert!(!v.window_full, "packet {i} should not complete a window");
            assert_eq!(v.predicted, None);
        }
        let v = c.on_packet_mut(7, 300_000, 100, &[]).expect("packet");
        assert!(v.window_full);
        assert!(v.predicted.is_some());
    }

    #[test]
    fn classification_tracks_packet_sizes() {
        let p = build_flow_pipeline(&spec()).expect("builds");
        let mut c = FlowClassifier::deploy(p, &SwitchConfig::tofino2()).unwrap();
        // Small packets & tiny IPDs -> small codes -> class 0.
        let mut last = FlowVerdict { predicted: None, scores: vec![], window_full: false };
        for i in 0..6 {
            last = c.on_packet_mut(1, i * 1000, 64, &[]).expect("packet");
        }
        assert_eq!(last.predicted, Some(0), "{last:?}");
        // Large packets & long IPDs -> large codes -> class 1.
        for i in 0..6 {
            last = c.on_packet_mut(2, i * 60_000_000, 1500, &[]).expect("packet");
        }
        assert_eq!(last.predicted, Some(1), "{last:?}");
    }

    #[test]
    fn flows_do_not_interfere() {
        let p = build_flow_pipeline(&spec()).expect("builds");
        let mut c = FlowClassifier::deploy(p, &SwitchConfig::tofino2()).unwrap();
        // Interleave two flows; each still needs W packets of its own.
        for i in 0..3 {
            c.on_packet_mut(100, i * 1000, 100, &[]).expect("packet");
            c.on_packet_mut(200, i * 1000 + 7, 1500, &[]).expect("packet");
        }
        let va = c.on_packet_mut(100, 3000, 100, &[]).expect("packet");
        let vb = c.on_packet_mut(200, 3007, 1500, &[]).expect("packet");
        assert!(va.window_full && vb.window_full);
        assert_ne!(va.predicted, vb.predicted);
    }

    #[test]
    fn fork_starts_with_fresh_state() {
        let p = build_flow_pipeline(&spec()).expect("builds");
        let mut c = FlowClassifier::deploy(p, &SwitchConfig::tofino2()).unwrap();
        for i in 0..6 {
            c.on_packet_mut(9, i * 1000, 100, &[]).expect("packet");
        }
        let mut f = c.fork();
        let v = f.on_packet_mut(9, 99_000, 100, &[]).expect("packet");
        assert!(!v.window_full, "fork must not inherit flow state");
    }

    fn registers_all_zero(fc: &FlowClassifier) -> bool {
        fc.regs == RegFile::new(&fc.pipeline().program.registers)
    }

    #[test]
    fn forks_share_one_program_and_own_their_registers() {
        let p = build_flow_pipeline(&spec()).expect("builds");
        let source = FlowClassifier::deploy(p, &SwitchConfig::tofino2()).unwrap();
        let mut busy = source.fork();
        let mut last = None;
        for i in 0..4 {
            last = Some(busy.on_packet_mut(5, i * 1000, 100, &[]).expect("packet"));
        }
        assert!(last.is_some_and(|v| v.window_full), "the driven fork keeps its own window");
        // Forked from the *driven* classifier: same program, none of its state.
        let idle = busy.fork();
        for fork in [&busy, &idle] {
            assert!(Arc::ptr_eq(&fork.program, &source.program), "fork must not copy tables");
            // One copy of the tables from the pipeline down to the simulator.
            let (pipeline, loaded) = (&fork.pipeline().program, fork.program.loaded.program());
            assert!(
                Arc::ptr_eq(pipeline, loaded) && Arc::ptr_eq(pipeline, &source.pipeline().program)
            );
        }
        assert!(!registers_all_zero(&busy));
        assert!(registers_all_zero(&idle) && registers_all_zero(&source), "state is per fork");
    }

    #[test]
    fn deploy_flattens_once_and_runs_match_the_simulator_under_aliasing() {
        use pegasus_net::FiveTuple;
        let flattens = || crate::engine::flat::FLATTENS.with(|n| n.get());
        // Four register slots for forty flows: every slot is shared.
        let mut small = spec();
        small.flow_slots_log2 = 2;
        let before = flattens();
        let fc =
            FlowClassifier::deploy(build_flow_pipeline(&small).unwrap(), &SwitchConfig::tofino2())
                .expect("deploys");
        assert_eq!(flattens() - before, 1, "deploy verifies the FlatProgram it keeps");
        assert_eq!(fc.flat().limb_keys(), 1);
        // What every shard does: fork the resident program.
        let mut oracle = fc.fork();
        assert_eq!(flattens() - before, 1, "fork re-flattened");
        // What the engine's first admission runs: the verifier against the
        // switch model.
        let report = crate::verify::verify_flow(fc.pipeline(), Some(&SwitchConfig::tofino2()));
        assert!(report.is_clean() && !report.has_code("V103"), "{report}");

        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut batch = FrameBatch::with_capacity(300);
        let mut ts = 0u64;
        for _ in 0..300 {
            // IPDs from sub-unit to minutes: every exponent of the quantizer.
            ts += 1u64 << rng.gen_range(0..30);
            let flow = FiveTuple::new(rng.gen_range(0..40), 9, 1000, 443, 6);
            batch.append(flow, ts, rng.gen_range(40..1500), 0, 64, &[]);
        }
        let want: Vec<Option<usize>> = (0..batch.len())
            .map(|i| {
                let hash = batch.flows()[i].dataplane_hash();
                let v = oracle.on_packet_mut(hash, batch.ts_micros()[i], batch.wire_lens()[i], &[]);
                v.expect("packet").predicted
            })
            .collect();
        assert!(want.iter().filter(|v| v.is_some()).count() > 250, "windows fill");
        for run in [1usize, 7, 64] {
            let mut served = fc.fork();
            let (mut got, mut verdicts) = (Vec::new(), Vec::new());
            for start in (0..batch.len()).step_by(run) {
                let end = (start + run).min(batch.len());
                served.process_batch(&batch, start..end, &mut verdicts).expect("serves");
                got.extend_from_slice(&verdicts);
            }
            assert_eq!(got, want, "runs of {run}");
            assert!(served.regs == oracle.regs, "runs of {run}: register files");
        }
    }

    #[test]
    fn adopt_state_carries_windows_into_a_swapped_classifier() {
        let old =
            FlowClassifier::deploy(build_flow_pipeline(&spec()).unwrap(), &SwitchConfig::tofino2())
                .unwrap();
        let mut old = old.fork();
        // Warm a flow to one packet short of a full window.
        for i in 0..3 {
            let v = old.on_packet_mut(11, i * 1000, 100, &[]).expect("packet");
            assert!(!v.window_full);
        }
        // "Retrained" artifact of the same shape: a second deploy.
        let mut new =
            FlowClassifier::deploy(build_flow_pipeline(&spec()).unwrap(), &SwitchConfig::tofino2())
                .unwrap()
                .fork();
        assert!(new.state_compatible(&old));
        assert!(new.adopt_state(&old));
        // The adopted flow completes its window on the very next packet.
        let v = new.on_packet_mut(11, 3000, 100, &[]).expect("packet");
        assert!(v.window_full, "adopted state must carry the warm-up counter");
        // An incompatible shape (different hash size) refuses the state.
        let mut small = spec();
        small.flow_slots_log2 = 8;
        let mut other =
            FlowClassifier::deploy(build_flow_pipeline(&small).unwrap(), &SwitchConfig::tofino2())
                .unwrap()
                .fork();
        assert!(!other.state_compatible(&old));
        assert!(!other.adopt_state(&old));
    }

    #[test]
    fn extractor_pipeline_builds() {
        // Tiny extractor: 4 byte codes -> 2 scores; index tree over scores.
        let mut ext = PrimitiveProgram::new(4);
        let w = Tensor::from_vec(vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0], &[4, 2]);
        let input = ext.input;
        let m = ext.map(input, MapFn::MatVec { weight: w, bias: vec![0.0, 0.0] });
        ext.set_output(m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let ext_train: Vec<Vec<f32>> =
            (0..800).map(|_| (0..4).map(|_| rng.gen_range(0..256) as f32).collect()).collect();
        let score_samples: Vec<Vec<f32>> = ext_train.iter().map(|x| ext.eval(x)).collect();
        let tree = ClusterTree::fit(&score_samples, 4);

        // Window model over 4 packets x 1 stream of 4-bit codes.
        let mut wp = PrimitiveProgram::new(4);
        let segs = wp.partition_strided(wp.input, 1, 1);
        let mapped: Vec<_> = segs
            .iter()
            .map(|&s| wp.map(s, MapFn::Affine { scale: vec![1.0], shift: vec![0.0] }))
            .collect();
        let out = wp.sum_reduce(&mapped);
        wp.set_output(out);
        let win_train: Vec<Vec<f32>> =
            (0..500).map(|_| (0..4).map(|_| rng.gen_range(0..16) as f32).collect()).collect();

        let spec = FlowPipelineSpec {
            name: "ext_test".to_string(),
            window: 4,
            codes: PacketCodes::Extractor {
                program: ext,
                train: ext_train,
                tree,
                code_bits: 4,
                ipd_input: false,
            },
            window_program: wp,
            window_train: win_train,
            window_tree_overrides: HashMap::new(),
            opts: CompileOptions::default(),
            target: CompileTarget::Scores,
            flow_slots_log2: 8,
            ts_bits: 0,
        };
        let p = build_flow_pipeline(&spec).expect("builds");
        // 3 history codes x 4 bits, no timestamp.
        assert_eq!(p.stateful_bits_per_flow, 12);
        assert_eq!(p.extractor_fields.len(), 4);
        let mut c = FlowClassifier::deploy(p, &SwitchConfig::tofino2()).unwrap();
        let mut v = FlowVerdict { predicted: None, scores: vec![], window_full: false };
        for i in 0..5 {
            v = c.on_packet_mut(1, i * 1000, 100, &[10.0, 20.0, 30.0, 40.0]).expect("packet");
        }
        assert!(v.window_full);
        assert_eq!(v.scores.len(), 1);
    }
}
