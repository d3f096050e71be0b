//! The compile half of the columnar compile-then-execute pipeline.
//!
//! The columnar tile ([`crate::interp::BatchInterpreter`]) does not walk
//! raw [`AlphaProgram`]s. Each candidate is first lowered to a
//! [`CompiledProgram`] whose instructions have their work hoisted out of
//! the per-(instruction × stock) hot loop, then relocated onto its tile
//! slot ([`relocate_for_slot`]):
//!
//! * **dead-code stripping** — instructions whose output is never demanded
//!   (per the same backward-liveness fixpoint as [`crate::prune`](mod@crate::prune)) are
//!   dropped, as are no-ops. Stochastic dead instructions are *kept*: they
//!   advance the per-stock RNG streams, and dropping them would perturb
//!   every later stochastic draw — breaking bitwise equivalence with the
//!   lockstep reference interpreter on unpruned programs. (The evolution
//!   pipeline evaluates already-pruned programs, where this keeps exactly
//!   the pruned instruction sequence.)
//! * **register-offset resolution** — operand registers (plus extraction
//!   indices, where the op allows it) are resolved to flat element offsets
//!   into the [`RegisterFile`](crate::memory::RegisterFile) buffers, so
//!   kernels index planes directly instead of multiplying out
//!   `reg × plane_size` per instruction per day.
//! * **input-cell analysis** — [`CompiledProgram::input_cells`] records
//!   which cells of the input matrix `m0` the kept instructions can read:
//!   an ExtractionOp reads one cell, row or column; any other read of
//!   `m0` reads all of it. The tile copies only those cells of each
//!   day's feature window, since a cell outside the mask is never
//!   read (the paper's formulaic alphas read a handful of the 169).
//! * **register footprint** — [`CompiledProgram::footprint`] records,
//!   per kind, the register planes the kept instructions reference, plus
//!   `s0` and `s1`. Resetting a tile slot zeroes only these planes: a
//!   plane outside the footprint is never read (the expert seed
//!   references ten of the thirty planes, all scalars).
//! * **rank-1 fusion** — a `VOuter t = u ⊗ v` whose only reader in the
//!   whole program is a following `MAdd w = x + t` (or `t + x`) becomes one
//!   lowered-only pass `w = x + u ⊗ v` ([`Fused::OuterAdd`]) at the
//!   `MAdd`'s position, and the write of `t` is dropped. It applies when no
//!   instruction in between touches `t` or writes `u`, `v` or `x`. Each
//!   element keeps the two roundings, multiply then add, in the original
//!   operand order, so the bits are the unfused bits; the pass streams one
//!   matrix plane where the pair streamed three (the NN seed's
//!   `W1 += v8 ⊗ x` training step).
//! * **predict-plane classes** — [`classify_predict_planes`] sorts the
//!   planes a predict body touches into read-only (trained parameters),
//!   dirty (read before written) and written-first. The server keeps the
//!   read-only ones resident and restores only the dirty ones per request.
//!
//! Every pass that walks a lowered instruction's registers goes through
//! `CompiledInstr::operands`, the one operand enumeration, so a fused
//! pass's extra operands are never missed.
//!
//! Compilation is allocation-free once the caller-owned
//! [`CompiledProgram`] and [`CompileScratch`] buffers are warm, which is
//! what lets the evaluation hot path re-compile every candidate without
//! touching the heap (pinned by `tests/hot_path_alloc.rs`).

use crate::config::AlphaConfig;
use crate::instruction::Instruction;
use crate::memory::{LABEL, PREDICTION};
use crate::op::{Kind, Op};
use crate::program::AlphaProgram;

/// One lowered instruction: the op, pre-resolved flat element offsets of
/// its operands into the columnar register buffers, and the literal /
/// index slots it still needs at execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledInstr {
    /// The operator (dispatched once per instruction, not per stock).
    pub op: Op,
    /// Flat element offset of input 1's register in its kind's buffer.
    pub a: usize,
    /// Flat element offset of input 2's register in its kind's buffer.
    pub b: usize,
    /// Flat element offset of the output register in its kind's buffer.
    pub o: usize,
    /// Literal slots (constants / distribution parameters).
    pub lit: [f64; 2],
    /// Small-integer slots (element indices or axis selector).
    pub ix: [u8; 2],
    /// Rank-cache row for `rel_rank*` ops, assigned sequentially at lower
    /// time across setup/predict/update; `u16::MAX` for every other op
    /// (and for rank instructions beyond the cache capacity, where the
    /// runtime falls back to the uncached sort).
    pub slot: u16,
    /// `Some` for a pass [`compile_into`] fused from two ops; `op` is then
    /// the op whose output the pass writes. Lowered-only: no [`Op`] code
    /// names it, so the program wire format is unchanged.
    pub fused: Option<Fused>,
}

/// A lowered-only pass that does the work of two ops (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fused {
    /// `o = a + u ⊗ v`, from `VOuter t = u ⊗ v` and `MAdd o = a + t`; with
    /// `outer_first`, from `MAdd o = t + a`, computing `o = u ⊗ v + a`.
    /// `op` is [`Op::MAdd`], `a` the matrix operand, and `b` unused.
    OuterAdd {
        /// Flat offset of the outer product's row vector.
        u: usize,
        /// Flat offset of the outer product's column vector.
        v: usize,
        /// The product was the `MAdd`'s first operand.
        outer_first: bool,
    },
}

/// One register operand of a lowered instruction (see
/// [`CompiledInstr::operands`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Operand {
    /// Which columnar buffer the register lives in.
    pub(crate) kind: Kind,
    /// Flat element offset of the register's base in that buffer.
    pub(crate) offset: usize,
    /// The instruction writes the register (its output) rather than
    /// reading it.
    pub(crate) write: bool,
}

impl CompiledInstr {
    /// Every register operand: the inputs in argument order, then the
    /// output. A no-op has none; a fused pass lists its extra operands.
    /// The one operand enumeration behind [`rewrite_operands`],
    /// [`classify_predict_planes`], [`writes_m0_in`], the fusion pass and the
    /// input-cell and footprint walk.
    pub(crate) fn operands(&self) -> impl Iterator<Item = Operand> {
        let mut copy = *self;
        copy.operand_slots()
            .map(|slot| {
                slot.map(|(kind, write, offset)| Operand {
                    kind,
                    offset: *offset,
                    write,
                })
            })
            .into_iter()
            .flatten()
    }

    /// The operand fields themselves, as `(kind, write, field)`, in the
    /// order [`CompiledInstr::operands`] reports them.
    fn operand_slots(&mut self) -> [Option<(Kind, bool, &mut usize)>; 4] {
        let CompiledInstr {
            op, a, b, o, fused, ..
        } = self;
        if *op == Op::NoOp {
            return [None, None, None, None];
        }
        let out = Some((op.output_kind(), true, o));
        match fused {
            Some(Fused::OuterAdd { u, v, .. }) => [
                Some((Kind::M, false, a)),
                Some((Kind::V, false, u)),
                Some((Kind::V, false, v)),
                out,
            ],
            None => {
                let kinds = op.input_kinds();
                [
                    kinds.first().map(|&kind| (kind, false, a)),
                    kinds.get(1).map(|&kind| (kind, false, b)),
                    None,
                    out,
                ]
            }
        }
    }

    /// Whether the instruction writes the register plane `(kind, offset)`.
    fn writes(&self, kind: Kind, offset: usize) -> bool {
        self.operands()
            .any(|p| p.write && p.kind == kind && p.offset == offset)
    }
}

/// A program lowered for columnar execution. Reusable: [`compile_into`]
/// clears and refills the instruction vectors, preserving capacity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledProgram {
    /// Lowered `Setup()` body.
    pub setup: Vec<CompiledInstr>,
    /// Lowered `Predict()` body.
    pub predict: Vec<CompiledInstr>,
    /// Lowered `Update()` body.
    pub update: Vec<CompiledInstr>,
    /// Row-major `dim × dim` mask of the `m0` cells any lowered
    /// instruction (setup, predict or update) can read. Computed from the
    /// register indices before any tile relocation; the engines load only
    /// these cells of each day's input window.
    pub input_cells: Vec<bool>,
    /// The register planes a tile slot must zero before this program
    /// runs (see [`Footprint`]). Filled in the same walk as
    /// `input_cells`.
    pub footprint: Footprint,
}

/// The register planes a lowered program references, one mask per kind
/// indexed by register number, before any tile relocation. It covers
/// every operand of setup, predict and update, and always `s0` (labels)
/// and `s1` (predictions), which the training loop writes and reads
/// whatever the program does. `m0` counts only when the program writes
/// it: a slot then runs on a private `m0` plane, while a reader of `m0`
/// reads the tile's shared plane, which is no slot's to reset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Scalar registers `s0..`.
    pub scalars: Vec<bool>,
    /// Vector registers `v0..`.
    pub vectors: Vec<bool>,
    /// Matrix registers `m0..`.
    pub matrices: Vec<bool>,
}

impl Footprint {
    fn with_capacity(cfg: &AlphaConfig) -> Footprint {
        Footprint {
            scalars: Vec::with_capacity(cfg.n_scalars),
            vectors: Vec::with_capacity(cfg.n_vectors),
            matrices: Vec::with_capacity(cfg.n_matrices),
        }
    }

    /// The mask of one kind's registers.
    pub fn of(&self, kind: Kind) -> &[bool] {
        match kind {
            Kind::S => &self.scalars,
            Kind::V => &self.vectors,
            Kind::M => &self.matrices,
        }
    }

    /// Clears every mark, sized for `cfg`'s register banks; only the
    /// always-referenced `s0` and `s1` stay marked.
    fn reset(&mut self, cfg: &AlphaConfig) {
        for (mask, n) in [
            (&mut self.scalars, cfg.n_scalars),
            (&mut self.vectors, cfg.n_vectors),
            (&mut self.matrices, cfg.n_matrices),
        ] {
            mask.clear();
            mask.resize(n, false);
        }
        self.scalars[LABEL] = true;
        self.scalars[PREDICTION] = true;
    }
}

impl CompiledProgram {
    /// An empty program with capacity for the configuration's maximum
    /// function sizes, so per-candidate compilation never reallocates.
    pub fn with_capacity(cfg: &AlphaConfig) -> CompiledProgram {
        CompiledProgram {
            setup: Vec::with_capacity(cfg.max_setup_ops),
            predict: Vec::with_capacity(cfg.max_predict_ops),
            update: Vec::with_capacity(cfg.max_update_ops),
            input_cells: Vec::with_capacity(cfg.dim * cfg.dim),
            footprint: Footprint::with_capacity(cfg),
        }
    }

    /// Total lowered instructions.
    pub fn n_ops(&self) -> usize {
        self.setup.len() + self.predict.len() + self.update.len()
    }

    fn bodies(&self) -> [&Vec<CompiledInstr>; 3] {
        [&self.setup, &self.predict, &self.update]
    }

    fn bodies_mut(&mut self) -> [&mut Vec<CompiledInstr>; 3] {
        [&mut self.setup, &mut self.predict, &mut self.update]
    }
}

/// Reusable liveness-mark buffers for [`compile_into`].
#[derive(Debug, Default)]
pub struct CompileScratch {
    setup_marks: Vec<bool>,
    predict_marks: Vec<bool>,
    update_marks: Vec<bool>,
}

/// Element offset of a register's base within its kind's columnar buffer.
#[inline]
fn reg_offset(kind: Kind, reg: usize, dim: usize, n_stocks: usize) -> usize {
    match kind {
        Kind::S => reg * n_stocks,
        Kind::V => reg * dim * n_stocks,
        Kind::M => reg * dim * dim * n_stocks,
    }
}

/// Lowers a single instruction without any dead-code analysis: register
/// operands become flat element offsets for `n_stocks` stocks. This is the
/// offset math [`compile_into`] applies to every kept instruction, exposed
/// for callers (benches, tests) that execute hand-picked instructions
/// outside a full program.
pub fn lower_instr(instr: &Instruction, dim: usize, n_stocks: usize) -> CompiledInstr {
    // Standalone lowering assigns rank-cache row 0 so single-instruction
    // callers (benches) exercise the cached rank path.
    let mut slot = 0;
    lower(instr, dim, n_stocks, &mut slot)
}

fn lower(instr: &Instruction, dim: usize, n_stocks: usize, next_slot: &mut u16) -> CompiledInstr {
    let kinds = instr.op.input_kinds();
    let a = if kinds.is_empty() {
        0
    } else {
        reg_offset(kinds[0], instr.in1 as usize, dim, n_stocks)
    };
    let b = if kinds.len() < 2 {
        0
    } else {
        reg_offset(kinds[1], instr.in2 as usize, dim, n_stocks)
    };
    let o = if instr.op == Op::NoOp {
        0
    } else {
        reg_offset(instr.op.output_kind(), instr.out as usize, dim, n_stocks)
    };
    let slot = if instr.op.is_rank() && *next_slot != u16::MAX {
        let s = *next_slot;
        *next_slot += 1;
        s
    } else {
        u16::MAX
    };
    CompiledInstr {
        op: instr.op,
        a,
        b,
        o,
        lit: instr.lit,
        ix: instr.ix,
        slot,
        fused: None,
    }
}

/// Fills `input_cells` and `footprint` of the lowered, unrelocated
/// `prog` in one walk over every operand of its three bodies. A read of
/// `m0` marks the cell, row or column an ExtractionOp reads, and every
/// cell for any other op; a write of `m0` marks the private `m0` plane.
fn mark_reads(prog: &mut CompiledProgram, cfg: &AlphaConfig, n_stocks: usize) {
    let d = cfg.dim;
    let CompiledProgram {
        setup,
        predict,
        update,
        input_cells,
        footprint,
    } = prog;
    input_cells.clear();
    input_cells.resize(d * d, false);
    footprint.reset(cfg);
    for instr in setup.iter().chain(&*predict).chain(&*update) {
        for p in instr.operands() {
            if p.kind == Kind::M && p.offset == 0 && !p.write {
                mark_input_cells(instr, d, input_cells);
                continue;
            }
            let (mask, plane) = match p.kind {
                Kind::S => (&mut footprint.scalars, n_stocks),
                Kind::V => (&mut footprint.vectors, d * n_stocks),
                Kind::M => (&mut footprint.matrices, d * d * n_stocks),
            };
            mask[p.offset / plane.max(1)] = true;
        }
    }
}

/// Marks in `cells` (row-major `dim × dim`) the `m0` cells `instr`, which
/// reads `m0`, can read: one cell, row or column for an ExtractionOp (whose
/// only operand is then `m0`), every cell for any other op.
fn mark_input_cells(instr: &CompiledInstr, dim: usize, cells: &mut [bool]) {
    let (r0, r1) = (instr.ix[0] as usize, instr.ix[1] as usize);
    match instr.op {
        Op::MGet if r0 < dim && r1 < dim => cells[r0 * dim + r1] = true,
        Op::MGetRow if r0 < dim => cells[r0 * dim..(r0 + 1) * dim].fill(true),
        Op::MGetCol if r0 < dim => {
            for row in cells.chunks_exact_mut(dim) {
                row[r0] = true;
            }
        }
        _ => cells.fill(true),
    }
}

fn lower_function(
    instrs: &[Instruction],
    marks: &[bool],
    dim: usize,
    n_stocks: usize,
    next_slot: &mut u16,
    out: &mut Vec<CompiledInstr>,
) {
    out.clear();
    for (instr, &live) in instrs.iter().zip(marks) {
        if instr.op == Op::NoOp {
            continue;
        }
        // Dead deterministic instructions are stripped; dead *stochastic*
        // ones must still run so every later RNG draw keeps its position
        // in the per-stock streams.
        if !live && !instr.op.is_stochastic() {
            continue;
        }
        out.push(lower(instr, dim, n_stocks, next_slot));
    }
}

/// Lowers `prog` for columnar execution over `n_stocks` stocks into `out`
/// (cleared first). Allocation-free once `scratch` and `out` are warm.
pub fn compile_into(
    prog: &AlphaProgram,
    cfg: &AlphaConfig,
    n_stocks: usize,
    scratch: &mut CompileScratch,
    out: &mut CompiledProgram,
) {
    crate::prune::mark_live_into(
        prog,
        &mut scratch.setup_marks,
        &mut scratch.predict_marks,
        &mut scratch.update_marks,
    );
    let d = cfg.dim;
    // Rank-cache rows are numbered across the whole program so every
    // rank instruction keeps a stable row for the interpreter's lifetime.
    let mut next_slot: u16 = 0;
    lower_function(
        &prog.setup,
        &scratch.setup_marks,
        d,
        n_stocks,
        &mut next_slot,
        &mut out.setup,
    );
    lower_function(
        &prog.predict,
        &scratch.predict_marks,
        d,
        n_stocks,
        &mut next_slot,
        &mut out.predict,
    );
    lower_function(
        &prog.update,
        &scratch.update_marks,
        d,
        n_stocks,
        &mut next_slot,
        &mut out.update,
    );
    fuse_outer_adds(out);
    mark_reads(out, cfg, n_stocks);
}

/// Fuses every `VOuter t = u ⊗ v` whose value only a later `MAdd` reads
/// into that `MAdd` ([`Fused::OuterAdd`]), then compacts the bodies in
/// place. Allocation-free.
fn fuse_outer_adds(prog: &mut CompiledProgram) {
    for f in 0..3 {
        for j in 0..prog.bodies()[f].len() {
            if let Some((p, pass)) = outer_add_at(prog, f, j) {
                let bodies = prog.bodies_mut();
                let body = &mut *bodies[f];
                body[p] = pass;
                // A lowered body holds no no-ops, so this marks the
                // product for removal.
                body[j].op = Op::NoOp;
            }
        }
    }
    for body in prog.bodies_mut() {
        body.retain(|i| i.op != Op::NoOp);
    }
}

/// If instruction `j` of body `f` is a `VOuter` that fuses into a later
/// `MAdd`, that `MAdd`'s index and its fused replacement.
fn outer_add_at(prog: &CompiledProgram, f: usize, j: usize) -> Option<(usize, CompiledInstr)> {
    let bodies = prog.bodies();
    let body = bodies[f];
    let outer = body[j];
    // m0 is excluded: its plane also carries the day's input load.
    if outer.op != Op::VOuter || outer.o == 0 {
        return None;
    }
    let (t, u, v) = (outer.o, outer.a, outer.b);
    let touches_t = |i: &CompiledInstr| i.operands().any(|p| p.kind == Kind::M && p.offset == t);
    let p = j + 1 + body[j + 1..].iter().position(touches_t)?;
    let add = body[p];
    if add.op != Op::MAdd || add.fused.is_some() {
        return None;
    }
    let outer_first = add.a == t;
    let x = if outer_first { add.b } else { add.a };
    if x == t || (!outer_first && add.b != t) {
        return None;
    }
    let in_between = &body[j + 1..p];
    if in_between
        .iter()
        .any(|i| i.writes(Kind::V, u) || i.writes(Kind::V, v) || i.writes(Kind::M, x))
    {
        return None;
    }
    // The MAdd's read must be the only read of `t` anywhere: the plane
    // persists across days, so a read in any body would see the dropped
    // write.
    let reads_of_t: usize = bodies
        .iter()
        .flat_map(|b| b.iter())
        .map(|i| {
            i.operands()
                .filter(|p| !p.write && p.kind == Kind::M && p.offset == t)
                .count()
        })
        .sum();
    if reads_of_t != 1 {
        return None;
    }
    let pass = CompiledInstr {
        a: x,
        b: 0,
        fused: Some(Fused::OuterAdd { u, v, outer_first }),
        ..add
    };
    Some((p, pass))
}

/// Whether the lowered program ever writes the input matrix register `m0`.
///
/// The batched tile executor ([`crate::interp::BatchInterpreter`]) keeps
/// one *shared* `m0` plane per tile — loaded once per day and read by every
/// slot — so a slot may alias it only if nothing in the slot writes it.
/// The test must run on the **lowered** program: a dead stochastic
/// instruction targeting `m0` survives dead-code stripping (it advances
/// the RNG streams) and still clobbers the plane.
pub fn writes_m0(prog: &CompiledProgram) -> bool {
    prog.bodies().into_iter().any(|body| writes_m0_in(body))
}

/// Whether any of the lowered (unrelocated) instructions writes `m0` —
/// the one definition behind [`writes_m0`] and the serving layer's
/// per-body check.
pub fn writes_m0_in(instrs: &[CompiledInstr]) -> bool {
    instrs.iter().any(|i| i.writes(Kind::M, 0))
}

/// Rebases a compiled program's operand offsets onto tile slot `slot` of a
/// batched register file (see [`crate::interp::BatchInterpreter`] for the
/// tile layout). Scalar and vector offsets shift into the slot's private
/// region; matrix offsets shift into the slot's private matrix region
/// *except* `m0`, which stays on the tile's shared plane when `share_m0`
/// (the program never writes it — see [`writes_m0`]). In-place and
/// allocation-free; `slot 0` with `share_m0 = false` still relocates (the
/// tile's matrix buffer reserves plane 0 for the shared `m0`).
pub fn relocate_for_slot(
    prog: &mut CompiledProgram,
    cfg: &AlphaConfig,
    n_stocks: usize,
    slot: usize,
    share_m0: bool,
) {
    let reloc = slot_offsets(cfg, n_stocks, slot, share_m0);
    for body in prog.bodies_mut() {
        rewrite_operands(body, &reloc);
    }
}

/// The offset map [`relocate_for_slot`] applies to every operand: an
/// unrelocated `(kind, offset)` to its offset in tile slot `slot`. Slot
/// 0's scalar and vector planes keep their offsets and its matrix planes
/// shift past the shared `m0`, whatever the tile's register counts, so
/// the serving layer maps planes it appends after `cfg`'s banks through
/// it too.
pub fn slot_offsets(
    cfg: &AlphaConfig,
    n_stocks: usize,
    slot: usize,
    share_m0: bool,
) -> impl Fn(Kind, usize) -> usize {
    let k = n_stocks;
    let d = cfg.dim;
    let s_base = slot * cfg.n_scalars * k;
    let v_base = slot * cfg.n_vectors * d * k;
    let m_base = (1 + slot * cfg.n_matrices) * d * d * k;
    move |kind: Kind, off: usize| match kind {
        Kind::S => s_base + off,
        Kind::V => v_base + off,
        Kind::M if off == 0 && share_m0 => 0,
        Kind::M => m_base + off,
    }
}

/// Rewrites every register operand offset of `instrs` (each operand
/// `CompiledInstr::operands` lists, with its [`Kind`]) through `f`. The
/// walk behind [`relocate_for_slot`] and the serving layer's move of
/// read-only predict planes onto private planes. In-place and
/// allocation-free.
pub fn rewrite_operands(instrs: &mut [CompiledInstr], mut f: impl FnMut(Kind, usize) -> usize) {
    for instr in instrs {
        for (kind, _, offset) in instr.operand_slots().into_iter().flatten() {
            *offset = f(kind, *offset);
        }
    }
}

/// How a lowered predict body uses one register plane (see
/// [`classify_predict_planes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneClass {
    /// Read, never written: a trained parameter such as the NN seed's
    /// `W1` (`m1`). Its value before a prediction is the same every day.
    ReadOnly,
    /// Read before its first write, or by the instruction that first
    /// writes it (`v1 = v1 + v2`): predict carries state through it.
    Dirty,
    /// Written before any read: its value before predict is never seen.
    WrittenFirst,
}

/// One register plane a lowered predict body touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictPlane {
    /// The register's kind (which columnar buffer it lives in).
    pub kind: Kind,
    /// Flat element offset of the register's base in that buffer.
    pub offset: usize,
    /// How predict uses it.
    pub class: PlaneClass,
}

/// Classifies every register plane the lowered, unrelocated predict body
/// touches, except the input matrix `m0`, in first-touch order.
///
/// The walk follows execution order: an instruction's inputs count before
/// its output, so a plane an instruction both reads and writes is
/// [`PlaneClass::Dirty`] unless an earlier instruction wrote it first.
/// Every op overwrites its whole output plane, so the three classes cover
/// every case. The prediction plane `s1` counts as read once the body
/// ends (whoever serves the program reads it): a predict that never
/// writes it, because the prediction comes from `Setup()` or `Update()`,
/// leaves it [`PlaneClass::ReadOnly`].
pub fn classify_predict_planes(predict: &[CompiledInstr], n_stocks: usize) -> Vec<PredictPlane> {
    fn touch(planes: &mut Vec<PredictPlane>, kind: Kind, offset: usize, write: bool) {
        if kind == Kind::M && offset == 0 {
            return;
        }
        match planes
            .iter_mut()
            .find(|p| p.kind == kind && p.offset == offset)
        {
            Some(p) if write && p.class == PlaneClass::ReadOnly => p.class = PlaneClass::Dirty,
            Some(_) => {}
            None => planes.push(PredictPlane {
                kind,
                offset,
                class: if write {
                    PlaneClass::WrittenFirst
                } else {
                    PlaneClass::ReadOnly
                },
            }),
        }
    }
    let mut planes = Vec::new();
    for operand in predict.iter().flat_map(CompiledInstr::operands) {
        touch(&mut planes, operand.kind, operand.offset, operand.write);
    }
    touch(&mut planes, Kind::S, PREDICTION * n_stocks, false);
    planes
}

/// Convenience wrapper allocating fresh buffers (tests / one-off use).
pub fn compile(prog: &AlphaProgram, cfg: &AlphaConfig, n_stocks: usize) -> CompiledProgram {
    let mut out = CompiledProgram::with_capacity(cfg);
    compile_into(
        prog,
        cfg,
        n_stocks,
        &mut CompileScratch::default(),
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::INPUT;

    fn i(op: Op, in1: u8, in2: u8, out: u8) -> Instruction {
        Instruction::new(op, in1, in2, out, [0.0; 2], [0; 2])
    }

    #[test]
    fn strips_dead_deterministic_ops_and_noops() {
        let cfg = AlphaConfig::default();
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                Instruction::new(Op::MGet, INPUT as u8, 0, 2, [0.0; 2], [1, 2]),
                i(Op::SSin, 2, 0, 8), // dead: s8 never read
                i(Op::SCos, 2, 0, PREDICTION as u8),
            ],
            update: vec![Instruction::nop()],
        };
        let c = compile(&prog, &cfg, 7);
        assert!(c.setup.is_empty());
        assert!(c.update.is_empty());
        assert_eq!(c.predict.len(), 2);
        assert_eq!(c.predict[0].op, Op::MGet);
        assert_eq!(c.predict[1].op, Op::SCos);
    }

    #[test]
    fn keeps_dead_stochastic_ops_for_rng_stream_parity() {
        let cfg = AlphaConfig::default();
        let prog = AlphaProgram {
            setup: vec![Instruction::new(Op::SGauss, 0, 0, 9, [0.0, 1.0], [0; 2])],
            predict: vec![
                Instruction::new(Op::VUniform, 0, 0, 5, [-1.0, 1.0], [0; 2]), // dead but stochastic
                Instruction::new(Op::MGet, INPUT as u8, 0, 2, [0.0; 2], [0, 0]),
                i(Op::SAbs, 2, 0, PREDICTION as u8),
            ],
            update: vec![Instruction::nop()],
        };
        let c = compile(&prog, &cfg, 7);
        assert_eq!(c.setup.len(), 1, "dead SGauss must survive (RNG draw)");
        assert_eq!(c.predict.len(), 3, "dead VUniform must survive (RNG draws)");
        assert_eq!(c.predict[0].op, Op::VUniform);
    }

    #[test]
    fn offsets_are_plane_bases() {
        let cfg = AlphaConfig::default();
        let k = 11;
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::MMean, 0, 0, 2),               // m0 -> s2
                i(Op::SAdd, 2, 3, PREDICTION as u8), // s1 = s2 + s3
                i(Op::VAdd, 4, 5, 6),                // dead, stripped
                i(Op::SVScale, 2, 7, 3),             // dead, stripped
            ],
            update: vec![Instruction::nop()],
        };
        let c = compile(&prog, &cfg, k);
        assert_eq!(c.predict.len(), 2);
        let mean = c.predict[0];
        assert_eq!(mean.a, 0, "m0 base");
        assert_eq!(mean.o, 2 * k, "s2 plane");
        let add = c.predict[1];
        assert_eq!((add.a, add.b, add.o), (2 * k, 3 * k, k));
    }

    #[test]
    fn writes_m0_detects_dead_stochastic_clobber() {
        let cfg = AlphaConfig::default();
        // MGauss -> m0 is dead (nothing reads it afterwards) but stochastic,
        // so it survives lowering — and it clobbers the shared input plane.
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                Instruction::new(Op::MGauss, 0, 0, INPUT as u8, [0.0, 1.0], [0; 2]),
                i(Op::MMean, INPUT as u8, 0, 2),
                i(Op::SAbs, 2, 0, PREDICTION as u8),
            ],
            update: vec![Instruction::nop()],
        };
        let c = compile(&prog, &cfg, 7);
        assert!(writes_m0(&c));

        // Reading m0 is fine; writing another matrix register is fine.
        let reader = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::MMean, INPUT as u8, 0, 2),
                i(Op::SAbs, 2, 0, PREDICTION as u8),
            ],
            update: vec![i(Op::MTranspose, INPUT as u8, 0, 1)],
        };
        let c = compile(&reader, &cfg, 7);
        assert!(!writes_m0(&c));
    }

    #[test]
    fn relocation_rebases_offsets_per_slot() {
        let cfg = AlphaConfig::default();
        let (k, d) = (11, cfg.dim);
        // Every instruction feeds the next so nothing gets dead-stripped:
        // m0 -> m1 -> s2 -> v4 -> s3 -> s1(PREDICTION).
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::MTranspose, INPUT as u8, 0, 1), // M in, M out
                i(Op::MMean, 1, 0, 2),                // M in, S out
                i(Op::SVScale, 2, 3, 4),              // S,V in, V out
                i(Op::VMean, 4, 0, 3),                // V in, S out
                i(Op::SAdd, 2, 3, PREDICTION as u8),  // S,S in, S out
            ],
            update: vec![Instruction::nop()],
        };
        let c0 = compile(&prog, &cfg, k);
        assert_eq!(c0.predict.len(), 5, "test chain must survive stripping");

        let mut c = c0.clone();
        let slot = 2;
        relocate_for_slot(&mut c, &cfg, k, slot, true);
        let s_base = slot * cfg.n_scalars * k;
        let v_base = slot * cfg.n_vectors * d * k;
        let m_base = (1 + slot * cfg.n_matrices) * d * d * k;

        let tr = c.predict[0];
        assert_eq!(tr.a, 0, "shared m0 stays at the tile-shared plane");
        assert_eq!(
            tr.o,
            m_base + d * d * k,
            "m1 lands in the slot's private region"
        );
        let mean = c.predict[1];
        assert_eq!(mean.a, m_base + d * d * k);
        assert_eq!(mean.o, s_base + 2 * k);
        let scale = c.predict[2];
        assert_eq!(scale.a, s_base + 2 * k);
        assert_eq!(scale.b, v_base + 3 * d * k);
        assert_eq!(scale.o, v_base + 4 * d * k);
        let vmean = c.predict[3];
        assert_eq!((vmean.a, vmean.o), (v_base + 4 * d * k, s_base + 3 * k));
        let add = c.predict[4];
        assert_eq!(
            (add.a, add.b, add.o),
            (s_base + 2 * k, s_base + 3 * k, s_base + k)
        );

        // Without sharing, m0 relocates to the slot's private m0 plane.
        let mut c2 = c0.clone();
        relocate_for_slot(&mut c2, &cfg, k, slot, false);
        assert_eq!(c2.predict[0].a, m_base);

        // Slot 0 without sharing still shifts past the shared plane.
        let mut c3 = c0;
        relocate_for_slot(&mut c3, &cfg, k, 0, false);
        assert_eq!(c3.predict[0].a, d * d * k);
        assert_eq!(c3.predict[0].o, d * d * k + d * d * k);
    }

    /// The `(row, col)` cells of `m0` a program's mask marks.
    fn marked(prog: &AlphaProgram) -> Vec<(usize, usize)> {
        let cfg = AlphaConfig::default();
        let d = cfg.dim;
        let c = compile(prog, &cfg, 5);
        assert_eq!(c.input_cells.len(), d * d);
        (0..d * d)
            .filter(|&i| c.input_cells[i])
            .map(|i| (i / d, i % d))
            .collect()
    }

    fn all_cells() -> Vec<(usize, usize)> {
        let d = AlphaConfig::default().dim;
        (0..d).flat_map(|r| (0..d).map(move |c| (r, c))).collect()
    }

    #[test]
    fn input_cells_of_the_seed_alphas() {
        let cfg = AlphaConfig::default();
        let newest = cfg.dim - 1;
        assert_eq!(
            marked(&crate::init::domain_expert(&cfg)),
            (8..=11).map(|r| (r, newest)).collect::<Vec<_>>()
        );
        assert_eq!(
            marked(&crate::init::momentum(&cfg)),
            vec![(0, newest), (3, newest)]
        );
        assert_eq!(
            marked(&crate::init::two_layer_nn(&cfg)),
            (0..cfg.dim).map(|r| (r, newest)).collect::<Vec<_>>()
        );
    }

    /// The registers of `kind` a program's footprint marks.
    fn referenced(prog: &AlphaProgram, kind: Kind) -> Vec<usize> {
        let c = compile(prog, &AlphaConfig::default(), 5);
        (0..c.footprint.of(kind).len())
            .filter(|&r| c.footprint.of(kind)[r])
            .collect()
    }

    #[test]
    fn footprint_of_the_seed_alphas() {
        let cfg = AlphaConfig::default();
        let expert = crate::init::domain_expert(&cfg);
        assert_eq!(referenced(&expert, Kind::S), (0..10).collect::<Vec<_>>());
        assert!(referenced(&expert, Kind::V).is_empty());
        assert!(referenced(&expert, Kind::M).is_empty());
        // The fused `W1 += v8 ⊗ x` step drops the outer product's plane.
        let nn = crate::init::two_layer_nn(&cfg);
        assert_eq!(referenced(&nn, Kind::S).len(), 5);
        assert_eq!(referenced(&nn, Kind::V).len(), 8);
        assert_eq!(referenced(&nn, Kind::M), vec![1]);
    }

    #[test]
    fn footprint_marks_every_body_labels_predictions_and_m0_writes() {
        let cfg = AlphaConfig::default();
        let empty = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![Instruction::nop()],
            update: vec![Instruction::nop()],
        };
        assert_eq!(referenced(&empty, Kind::S), vec![LABEL, PREDICTION]);
        assert!(referenced(&empty, Kind::V).is_empty());
        assert!(referenced(&empty, Kind::M).is_empty());

        // Update-only and setup-only registers count; reading m0 marks
        // no plane of the slot's own.
        let prog = AlphaProgram {
            setup: vec![i(Op::VBroadcast, 7, 0, 3)],
            predict: vec![
                i(Op::MMean, INPUT as u8, 0, 2),
                i(Op::VSum, 3, 0, 4),
                i(Op::SAdd, 2, 4, PREDICTION as u8),
            ],
            update: vec![i(Op::MatVec, 2, 5, 3)],
        };
        assert_eq!(referenced(&prog, Kind::S), vec![0, 1, 2, 4, 7]);
        assert_eq!(referenced(&prog, Kind::V), vec![3, 5]);
        assert_eq!(referenced(&prog, Kind::M), vec![2]);
        let c = compile(&prog, &cfg, 5);
        assert!(c.input_cells.iter().all(|&cell| cell));

        // Writing m0 marks the slot's private m0 plane.
        let mut clobber = prog;
        clobber.update.push(Instruction::new(
            Op::MGauss,
            0,
            0,
            INPUT as u8,
            [0.0, 1.0],
            [0; 2],
        ));
        assert_eq!(referenced(&clobber, Kind::M), vec![0, 2]);
    }

    #[test]
    fn input_cells_mark_rows_and_setup_reads() {
        let d = AlphaConfig::default().dim;
        let prog = AlphaProgram {
            setup: vec![Instruction::new(
                Op::MGet,
                INPUT as u8,
                0,
                3,
                [0.0; 2],
                [2, 5],
            )],
            predict: vec![
                Instruction::new(Op::MGetRow, INPUT as u8, 0, 2, [0.0; 2], [7, 0]),
                i(Op::VSum, 2, 0, 4),
                i(Op::SAdd, 3, 4, PREDICTION as u8),
            ],
            update: vec![Instruction::nop()],
        };
        let mut want: Vec<_> = (0..d).map(|c| (7, c)).collect();
        want.push((2, 5));
        want.sort_unstable();
        assert_eq!(marked(&prog), want, "setup-only cell and a full row");
    }

    #[test]
    fn stripped_m0_reads_mark_nothing() {
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::MMean, INPUT as u8, 0, 2), // dead: s2 never read
                Instruction::new(Op::MGetCol, INPUT as u8, 0, 3, [0.0; 2], [4, 0]), // dead
                i(Op::SConst, 0, 0, PREDICTION as u8),
            ],
            update: vec![Instruction::nop()],
        };
        let c = compile(&prog, &AlphaConfig::default(), 5);
        assert_eq!(c.predict.len(), 1, "both m0 reads must be stripped");
        assert!(marked(&prog).is_empty());
    }

    #[test]
    fn whole_matrix_reads_of_m0_mark_every_cell() {
        let mean = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::MMean, INPUT as u8, 0, 2),
                i(Op::SAbs, 2, 0, PREDICTION as u8),
            ],
            update: vec![Instruction::nop()],
        };
        assert_eq!(marked(&mean), all_cells());
        // m0 as the *second* operand.
        let matmul = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::MatMul, 3, INPUT as u8, 2),
                i(Op::MMean, 2, 0, 2),
                i(Op::SAbs, 2, 0, PREDICTION as u8),
            ],
            update: vec![Instruction::nop()],
        };
        assert_eq!(marked(&matmul), all_cells());
    }

    /// The `(kind, register)` planes of `prog`'s predict body in `class`,
    /// sorted.
    fn planes_in(prog: &AlphaProgram, class: PlaneClass) -> Vec<(Kind, usize)> {
        let cfg = AlphaConfig::default();
        let (k, d) = (5, cfg.dim);
        let c = compile(prog, &cfg, k);
        let mut out: Vec<_> = classify_predict_planes(&c.predict, k)
            .into_iter()
            .filter(|p| p.class == class)
            .map(|p| {
                let len = match p.kind {
                    Kind::S => k,
                    Kind::V => d * k,
                    Kind::M => d * d * k,
                };
                (p.kind, p.offset / len)
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn nn_seed_predict_reads_its_trained_weights_and_dirties_nothing() {
        let nn = crate::init::two_layer_nn(&AlphaConfig::default());
        assert_eq!(
            planes_in(&nn, PlaneClass::ReadOnly),
            vec![(Kind::V, 1), (Kind::M, 1)],
            "w2 in v1 and W1 in m1 are parameters"
        );
        assert_eq!(
            planes_in(&nn, PlaneClass::WrittenFirst),
            vec![
                (Kind::S, PREDICTION),
                (Kind::V, 2),
                (Kind::V, 3),
                (Kind::V, 4),
                (Kind::V, 5)
            ]
        );
        assert!(planes_in(&nn, PlaneClass::Dirty).is_empty());
    }

    #[test]
    fn read_then_write_in_one_instruction_is_dirty() {
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::VAdd, 1, 2, 1), // v1 = v1 + v2: a recurrence
                i(Op::VMean, 1, 0, 3),
                i(Op::SAbs, 3, 0, PREDICTION as u8),
                i(Op::SAbs, 4, 0, 5), // dead, stripped
            ],
            update: vec![Instruction::nop()],
        };
        assert_eq!(planes_in(&prog, PlaneClass::Dirty), vec![(Kind::V, 1)]);
        assert_eq!(planes_in(&prog, PlaneClass::ReadOnly), vec![(Kind::V, 2)]);
        assert_eq!(
            planes_in(&prog, PlaneClass::WrittenFirst),
            vec![(Kind::S, PREDICTION), (Kind::S, 3)]
        );
        // A read in an earlier instruction dirties a later write too.
        let later = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::SAdd, 2, 3, PREDICTION as u8),
                i(Op::SAbs, PREDICTION as u8, 0, 2),
            ],
            update: vec![Instruction::nop()],
        };
        assert_eq!(planes_in(&later, PlaneClass::Dirty), vec![(Kind::S, 2)]);
        assert_eq!(planes_in(&later, PlaneClass::ReadOnly), vec![(Kind::S, 3)]);
    }

    #[test]
    fn a_setup_only_prediction_is_read_only() {
        let prog = AlphaProgram {
            setup: vec![Instruction::new(
                Op::SConst,
                0,
                0,
                PREDICTION as u8,
                [0.25, 0.0],
                [0; 2],
            )],
            predict: vec![Instruction::new(Op::SGauss, 0, 0, 4, [0.0, 1.0], [0; 2])],
            update: vec![Instruction::nop()],
        };
        assert_eq!(
            planes_in(&prog, PlaneClass::ReadOnly),
            vec![(Kind::S, PREDICTION)]
        );
        assert_eq!(
            planes_in(&prog, PlaneClass::WrittenFirst),
            vec![(Kind::S, 4)]
        );
    }

    #[test]
    fn m0_is_never_classified() {
        let cfg = AlphaConfig::default();
        // Reads m0, clobbers it (read and write in one instruction), and
        // reads it again: still no class for m0.
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                i(Op::MAbs, INPUT as u8, 0, INPUT as u8),
                i(Op::MatMul, 2, INPUT as u8, 3),
                i(Op::MMean, 3, 0, PREDICTION as u8),
            ],
            update: vec![Instruction::nop()],
        };
        let c = compile(&prog, &cfg, 5);
        let planes = classify_predict_planes(&c.predict, 5);
        assert!(planes.iter().all(|p| !(p.kind == Kind::M && p.offset == 0)));
        assert_eq!(planes.len(), 3, "m2, m3 and s1: {planes:?}");
    }

    #[test]
    fn rewrite_operands_maps_inputs_and_output_by_kind() {
        let k = 3;
        let mut body = vec![lower_instr(&i(Op::SVScale, 2, 4, 5), 13, k)];
        rewrite_operands(&mut body, |kind, off| match kind {
            Kind::S => off + 1,
            Kind::V => off + 1000,
            Kind::M => unreachable!("no matrix operand"),
        });
        let d = 13;
        assert_eq!(
            (body[0].a, body[0].b, body[0].o),
            (2 * k + 1, 4 * d * k + 1000, 5 * d * k + 1000)
        );
    }

    /// The fused passes of a lowered body.
    fn fused(body: &[CompiledInstr]) -> Vec<&CompiledInstr> {
        body.iter().filter(|i| i.fused.is_some()).collect()
    }

    #[test]
    fn nn_seed_update_fuses_its_rank_1_step() {
        let cfg = AlphaConfig::default();
        let k = 5;
        let (d, d2k) = (cfg.dim, cfg.dim * cfg.dim * k);
        let c = compile(&crate::init::two_layer_nn(&cfg), &cfg, k);
        assert_eq!(c.update.len(), 7, "VOuter + MAdd become one pass");
        assert!(c.update.iter().all(|i| i.op != Op::VOuter));
        let [pass] = fused(&c.update)[..] else {
            panic!("expected one fused pass: {:?}", c.update);
        };
        // W1 += v8 ⊗ v2, with W1 (m1) as the MAdd's first operand.
        assert_eq!(pass.op, Op::MAdd);
        assert_eq!((pass.a, pass.o), (d2k, d2k));
        assert_eq!(
            pass.fused,
            Some(Fused::OuterAdd {
                u: 8 * d * k,
                v: 2 * d * k,
                outer_first: false,
            })
        );
        let operands: Vec<_> = pass
            .operands()
            .map(|p| (p.kind, p.offset, p.write))
            .collect();
        assert_eq!(
            operands,
            vec![
                (Kind::M, d2k, false),
                (Kind::V, 8 * d * k, false),
                (Kind::V, 2 * d * k, false),
                (Kind::M, d2k, true),
            ]
        );
        assert!(fused(&c.setup).is_empty() && fused(&c.predict).is_empty());
    }

    /// A predict body that ends in `VOuter m2 = v3 ⊗ v4` and an `MAdd`
    /// built by `add` from the product register, then reads the sum into
    /// the prediction, followed by `tail`.
    fn outer_add_predict(add: Instruction, tail: &[Instruction]) -> AlphaProgram {
        let sum = add.out;
        let mut predict = vec![
            Instruction::new(Op::MGetCol, INPUT as u8, 0, 3, [0.0; 2], [12, 0]),
            i(Op::VAbs, 3, 0, 4),
            i(Op::VOuter, 3, 4, 2),
            add,
            i(Op::MMean, sum, 0, PREDICTION as u8),
        ];
        predict.extend_from_slice(tail);
        AlphaProgram {
            setup: vec![Instruction::nop()],
            predict,
            update: vec![Instruction::nop()],
        }
    }

    #[test]
    fn fusion_keeps_the_operand_order_and_drops_the_product() {
        let cfg = AlphaConfig::default();
        for (add, outer_first) in [(i(Op::MAdd, 1, 2, 3), false), (i(Op::MAdd, 2, 1, 3), true)] {
            let c = compile(&outer_add_predict(add, &[]), &cfg, 5);
            assert_eq!(c.predict.len(), 4, "{:?}", c.predict);
            let [pass] = fused(&c.predict)[..] else {
                panic!("expected a fused pass: {:?}", c.predict);
            };
            assert!(
                matches!(pass.fused, Some(Fused::OuterAdd { outer_first: f, .. }) if f == outer_first)
            );
        }
    }

    #[test]
    fn fusion_needs_the_madd_to_be_the_products_only_reader() {
        let cfg = AlphaConfig::default();
        let add = || i(Op::MAdd, 1, 2, 3);
        // A later live read of m2 in predict, in update, or by the MAdd
        // twice.
        let read_later = [
            i(Op::MMean, 2, 0, 5),
            i(Op::SAdd, 5, PREDICTION as u8, PREDICTION as u8),
        ];
        let mut in_update = outer_add_predict(add(), &[]);
        in_update.update = vec![i(Op::MMean, 2, 0, 5)];
        in_update.predict.push(i(Op::SAdd, PREDICTION as u8, 5, 9));
        in_update.predict.push(i(Op::SAdd, 9, 5, PREDICTION as u8));
        for prog in [
            outer_add_predict(add(), &read_later),
            in_update,
            outer_add_predict(i(Op::MAdd, 2, 2, 3), &[]),
        ] {
            let c = compile(&prog, &cfg, 5);
            let all: Vec<_> = [&c.setup, &c.predict, &c.update]
                .into_iter()
                .flat_map(|b| fused(b))
                .collect();
            assert!(all.is_empty(), "{prog:?} must not fuse: {all:?}");
            assert!(c.predict.iter().any(|i| i.op == Op::VOuter));
        }
        // A live write of an outer operand between the pair blocks it too.
        let mut between = outer_add_predict(add(), &[]);
        between.predict.insert(3, i(Op::VAbs, 3, 0, 3));
        between.predict.push(i(Op::VSum, 3, 0, 9));
        between
            .predict
            .push(i(Op::SAdd, 9, PREDICTION as u8, PREDICTION as u8));
        let c = compile(&between, &cfg, 5);
        assert!(fused(&c.predict).is_empty(), "{:?}", c.predict);
    }

    #[test]
    fn operand_walks_see_the_fused_operands() {
        let cfg = AlphaConfig::default();
        let (k, d) = (5, cfg.dim);
        let d2k = d * d * k;
        // m1 = m0 + v3 ⊗ v4 in predict, then the prediction reads m1.
        let c = compile(&outer_add_predict(i(Op::MAdd, 0, 2, 1), &[]), &cfg, k);
        assert_eq!(fused(&c.predict).len(), 1);
        assert_eq!(
            planes_in(
                &outer_add_predict(i(Op::MAdd, 0, 2, 1), &[]),
                PlaneClass::WrittenFirst
            ),
            vec![
                (Kind::S, PREDICTION),
                (Kind::V, 3),
                (Kind::V, 4),
                (Kind::M, 1)
            ],
            "the product m2 is gone; the fused pass writes m1"
        );
        assert!(!writes_m0_in(&c.predict));
        // Written into m0 instead, the fused pass clobbers the input.
        let c = compile(&outer_add_predict(i(Op::MAdd, 1, 2, 0), &[]), &cfg, k);
        assert_eq!(fused(&c.predict).len(), 1);
        assert!(writes_m0_in(&c.predict));
        assert_eq!(
            planes_in(
                &outer_add_predict(i(Op::MAdd, 1, 2, 0), &[]),
                PlaneClass::ReadOnly
            ),
            vec![(Kind::M, 1)],
            "the fused pass reads m1"
        );
        // Relocation moves every fused operand.
        let mut moved = c.predict;
        rewrite_operands(&mut moved, |kind, off| match kind {
            Kind::S => off,
            Kind::V => off + 1,
            Kind::M => off + 2 * d2k,
        });
        let pass = fused(&moved)[0];
        assert_eq!((pass.a, pass.o), (3 * d2k, 2 * d2k));
        assert_eq!(
            pass.fused,
            Some(Fused::OuterAdd {
                u: 3 * d * k + 1,
                v: 4 * d * k + 1,
                outer_first: false,
            })
        );
    }

    #[test]
    fn compiled_program_reuse_preserves_capacity() {
        let cfg = AlphaConfig::default();
        let mut out = CompiledProgram::with_capacity(&cfg);
        let cap = (
            out.setup.capacity(),
            out.predict.capacity(),
            out.update.capacity(),
            out.input_cells.capacity(),
            out.footprint.scalars.capacity(),
            out.footprint.vectors.capacity(),
            out.footprint.matrices.capacity(),
        );
        let mut scratch = CompileScratch::default();
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![i(Op::MMean, 0, 0, 2), i(Op::SAbs, 2, 0, PREDICTION as u8)],
            update: vec![Instruction::nop()],
        };
        for _ in 0..3 {
            compile_into(&prog, &cfg, 5, &mut scratch, &mut out);
        }
        assert_eq!(out.predict.len(), 2);
        assert_eq!(
            (
                out.setup.capacity(),
                out.predict.capacity(),
                out.update.capacity(),
                out.input_cells.capacity(),
                out.footprint.scalars.capacity(),
                out.footprint.vectors.capacity(),
                out.footprint.matrices.capacity(),
            ),
            cap
        );
    }
}
