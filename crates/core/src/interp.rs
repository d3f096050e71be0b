//! The cross-sectional interpreters: the columnar tile (the one execution
//! engine) and the lockstep oracle (bitwise reference).
//!
//! RelationOps make an alpha's computation for one stock depend on the
//! *same instruction's* intermediate value on every other stock at the same
//! timestep (paper Figure 4), so execution must proceed
//! instruction-by-instruction across all stocks. Two engines implement
//! that contract:
//!
//! * [`BatchInterpreter`] — the engine behind search, evaluation,
//!   backtests and serving: a tile of `B` slots (`B = 1` for a single
//!   evaluation or a server). Registers live in a stock-major
//!   [`RegisterFile`] (every register element is one contiguous
//!   `[f64; n_stocks]` plane), and programs are first lowered to a
//!   [`CompiledProgram`]: dead code stripped, register offsets resolved
//!   and relocated onto a slot. The `Op` dispatch then runs **once per
//!   instruction** — each local op is a tight loop over the stock axis
//!   (auto-vectorizable), and RelationOps rank/demean the contiguous
//!   scalar plane directly, with zero gather/scatter. The day's input load
//!   copies only the `m0` cells some slot can read
//!   ([`CompiledProgram::input_cells`]), as contiguous runs from the
//!   shared [`DayMajorPanel`] instead of `n_stocks` strided window
//!   gathers.
//! * [`Interpreter`] — the lockstep oracle. Non-relation instructions
//!   are re-dispatched per stock against that stock's [`MemoryBank`];
//!   RelationOps gather the input scalar from every bank, apply the group
//!   kernel ([`crate::relation`]), and scatter the results back. It runs
//!   only in tests and benches, as the semantics reference: the tile must
//!   match it **bitwise** (same f64 operations in the same order per
//!   stock, same per-stock RNG streams) — property-tested across random
//!   programs in `crates/core/tests/properties.rs`.
//!
//! Execution schedule over a dataset (paper §2/§3), identical for both
//! (the tile's one training loop is `Evaluator::train_batch_in`):
//!
//! ```text
//! Setup()                          once per stock (registers zeroed first)
//! per training day t:
//!     m0 <- X[stock, t];  Predict();  s0 <- y[stock, t];  Update()
//! per validation/test day t:
//!     m0 <- X[stock, t];  Predict();  collect s1
//! ```
//!
//! Registers persist across days, which is what gives evolved alphas their
//! `S3_{t-1}`-style recurrences and lets `Update()`-written registers act
//! as trained parameters during inference.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use alphaevolve_market::rngutil::normal;
use alphaevolve_market::{Dataset, DayMajorPanel};

#[cfg(doc)]
use crate::compile::CompiledProgram;
use crate::compile::{CompiledInstr, Fused};
use crate::config::AlphaConfig;
use crate::instruction::Instruction;
use crate::kernels::RankCache;
use crate::memory::MemoryBank;
use crate::memory::{RegisterFile, INPUT, LABEL, PREDICTION};
use crate::op::execute_local;
use crate::op::{uniform_in, Op};
use crate::program::AlphaProgram;
use crate::relation::{demean_dense, demean_within, rank_within, GroupIndex, GroupSlices};

/// Executes alpha programs over every stock of a dataset in lockstep.
///
/// The bitwise reference oracle: tests and benches run it against the
/// tile. Nothing in the search or serving path calls it, so the linker
/// leaves it out of those binaries.
pub struct Interpreter<'a> {
    dataset: &'a Dataset,
    groups: &'a GroupIndex,
    mems: Vec<MemoryBank>,
    rngs: Vec<SmallRng>,
    scratch_v: Vec<f64>,
    scratch_m: Vec<f64>,
    gather: Vec<f64>,
    scatter: Vec<f64>,
    rank_scratch: Vec<u32>,
    base_seed: u64,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter with zeroed banks.
    ///
    /// # Panics
    /// If the dataset's feature count or window disagrees with `cfg.dim`,
    /// or the group index covers a different stock count.
    pub fn new(
        cfg: &AlphaConfig,
        dataset: &'a Dataset,
        groups: &'a GroupIndex,
        seed: u64,
    ) -> Interpreter<'a> {
        assert_eq!(
            dataset.n_features(),
            cfg.dim,
            "dataset features must equal cfg.dim"
        );
        assert_eq!(
            dataset.window(),
            cfg.dim,
            "dataset window must equal cfg.dim"
        );
        assert_eq!(
            groups.n_stocks(),
            dataset.n_stocks(),
            "group index / dataset mismatch"
        );
        let k = dataset.n_stocks();
        let mems = (0..k)
            .map(|_| MemoryBank::new(cfg.n_scalars, cfg.n_vectors, cfg.n_matrices, cfg.dim))
            .collect();
        let rngs = (0..k).map(|i| stock_rng(seed, i)).collect();
        Interpreter {
            dataset,
            groups,
            mems,
            rngs,
            scratch_v: vec![0.0; cfg.dim],
            scratch_m: vec![0.0; cfg.dim * cfg.dim],
            gather: vec![0.0; k],
            scatter: vec![0.0; k],
            rank_scratch: Vec::with_capacity(k),
            base_seed: seed,
        }
    }

    /// Zeroes all banks and reseeds the per-stock RNG streams, returning
    /// the interpreter to its freshly-constructed state.
    pub fn reset(&mut self) {
        for (i, mem) in self.mems.iter_mut().enumerate() {
            mem.reset();
            self.rngs[i] = stock_rng(self.base_seed, i);
        }
    }

    /// Number of stocks executed in lockstep.
    pub fn n_stocks(&self) -> usize {
        self.mems.len()
    }

    /// Read access to one stock's bank (tests / diagnostics).
    pub fn bank(&self, stock: usize) -> &MemoryBank {
        &self.mems[stock]
    }

    fn load_input(&mut self, day: usize) {
        for (i, mem) in self.mems.iter_mut().enumerate() {
            self.dataset.fill_window(i, day, mem.mat_mut(INPUT));
        }
    }

    fn load_labels(&mut self, day: usize) {
        for (i, mem) in self.mems.iter_mut().enumerate() {
            mem.s[LABEL] = self.dataset.label(i, day);
        }
    }

    /// Runs one function body in lockstep across all stocks.
    pub fn run_function(&mut self, instrs: &[Instruction]) {
        for instr in instrs {
            if let Some(rel) = instr.op.relation_group() {
                let in_reg = instr.in1 as usize;
                let out_reg = instr.out as usize;
                for (k, mem) in self.mems.iter().enumerate() {
                    self.gather[k] = mem.s[in_reg];
                }
                let is_rank = instr.op.is_rank();
                for members in self.groups.groups(rel).iter() {
                    if is_rank {
                        rank_within(
                            members,
                            &self.gather,
                            &mut self.scatter,
                            &mut self.rank_scratch,
                        );
                    } else {
                        demean_within(members, &self.gather, &mut self.scatter);
                    }
                }
                for (k, mem) in self.mems.iter_mut().enumerate() {
                    mem.s[out_reg] = self.scatter[k];
                }
            } else {
                for (k, mem) in self.mems.iter_mut().enumerate() {
                    execute_local(
                        instr,
                        mem,
                        &mut self.rngs[k],
                        &mut self.scratch_v,
                        &mut self.scratch_m,
                    );
                }
            }
        }
    }

    /// Runs `Setup()` once for every stock.
    pub fn run_setup(&mut self, prog: &AlphaProgram) {
        self.run_function(&prog.setup);
    }

    /// One training step: load inputs, predict, load labels, update.
    /// `run_update = false` skips the parameter update (the paper's `_P`
    /// ablation of Table 4).
    pub fn train_day(&mut self, prog: &AlphaProgram, day: usize, run_update: bool) {
        self.load_input(day);
        self.run_function(&prog.predict);
        if run_update {
            self.load_labels(day);
            self.run_function(&prog.update);
        }
    }

    /// One inference step: load inputs, predict, and write each stock's
    /// `s1` into `out` (must have length `n_stocks`).
    pub fn predict_day(&mut self, prog: &AlphaProgram, day: usize, out: &mut [f64]) {
        self.load_input(day);
        self.run_function(&prog.predict);
        for (k, mem) in self.mems.iter().enumerate() {
            out[k] = mem.s[PREDICTION];
        }
    }
}

fn stock_rng(seed: u64, stock: usize) -> SmallRng {
    // Distinct, deterministic stream per stock (golden-ratio stride).
    // Shared by the tile and the oracle: per-stock draws must be identical
    // streams.
    SmallRng::seed_from_u64(seed ^ (stock as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Copies day `day`'s input window (`w` days of every feature, `k`
/// stocks) into the `m0` planes, restricted to the row-major `cells` mask
/// ([`CompiledProgram::input_cells`], or a union of several). `m0`
/// element (row f, col c) is feature f at day `day - w + c`, so a whole
/// feature row maps onto one contiguous [`DayMajorPanel::window_block`]:
/// a fully marked row is one `w·k` block copy, a partly marked one copies
/// each marked cell's `k`-long run. Cells outside the mask are not read
/// by the program; release builds leave them as they were, and debug
/// builds write NaN into them so a read the mask missed surfaces as a NaN
/// instead of a stale but plausible value.
fn load_input_cells(
    m0: &mut [f64],
    panel: &DayMajorPanel,
    day: usize,
    w: usize,
    k: usize,
    cells: &[bool],
) {
    debug_assert_eq!(INPUT, 0, "m0 load assumes the input matrix is m0");
    debug_assert_eq!(cells.len() * k, m0.len(), "one mask cell per m0 plane");
    for ((f, dst), row) in m0
        .chunks_exact_mut(w * k)
        .enumerate()
        .zip(cells.chunks_exact(w))
    {
        let src = panel.window_block(f, day, w);
        if row.iter().all(|&c| c) {
            dst.copy_from_slice(src);
            continue;
        }
        for (c, &marked) in row.iter().enumerate() {
            let run = c * k..(c + 1) * k;
            if marked {
                dst[run.clone()].copy_from_slice(&src[run]);
            } else if cfg!(debug_assertions) {
                dst[run].fill(f64::NAN);
            }
        }
    }
}

/// Runs one compiled function body: the instruction walk behind
/// [`BatchInterpreter::run_function_slot`]. `rngs` and `rel_lane` must be
/// exactly `n_stocks` long (one slot's sub-slices); the scratch buffers
/// may be shared across slots because every kernel fully overwrites what
/// it reads within one instruction.
#[allow(clippy::too_many_arguments)]
fn run_instrs(
    instrs: &[CompiledInstr],
    regs: &mut RegisterFile,
    groups: &GroupIndex,
    rngs: &mut [SmallRng],
    scratch_v: &mut [f64],
    scratch_m: &mut [f64],
    lane: &mut [f64],
    rel_lane: &mut [f64],
    rank_scratch: &mut Vec<u32>,
    rank_cache: &mut RankCache,
    slot_base: usize,
) {
    let k = regs.n_stocks();
    debug_assert_eq!(rngs.len(), k);
    debug_assert_eq!(rel_lane.len(), k);
    for instr in instrs {
        if let Some(rel) = instr.op.relation_group() {
            // The scalar plane *is* the cross-section: rank/demean it
            // in place of the lockstep gather/scatter round trip.
            let is_rank = instr.op.is_rank();
            {
                let values = &regs.s[instr.a..instr.a + k];
                let row = slot_base + instr.slot as usize;
                if is_rank && row < rank_cache.rows() {
                    // Cached argsort: reuses this instruction's previous
                    // permutation when today's cross-section is still
                    // sorted under it; output-bit-identical to the
                    // uncached path below (the sort order is a strict
                    // total order, so the permutation is unique).
                    rank_cache.rank_groups(row, rel as u8, &groups.groups(rel), values, rel_lane);
                } else {
                    match groups.groups(rel) {
                        GroupSlices::Single(_) if !is_rank => {
                            demean_dense(values, rel_lane);
                        }
                        groups => {
                            for members in groups.iter() {
                                if is_rank {
                                    rank_within(members, values, rel_lane, rank_scratch);
                                } else {
                                    demean_within(members, values, rel_lane);
                                }
                            }
                        }
                    }
                }
            }
            regs.s[instr.o..instr.o + k].copy_from_slice(rel_lane);
        } else {
            execute_columnar(instr, regs, rngs, scratch_v, scratch_m, lane);
        }
    }
}

/// Executes a *tile* of up to `B` compiled candidates over one shared
/// day-major sweep: each day's feature block is loaded once, then every
/// slot's function bodies run against it before the sweep advances
/// (program-major inner walk over a stock-major plane). It is the one
/// columnar engine: a single evaluation, a backtest and a server each run
/// a `B = 1` tile.
///
/// # Tile memory layout
///
/// All `B` slots live in **one** [`RegisterFile`] whose planes keep the
/// production stock-major shape (`n_stocks = K`, `dim = d`), so the
/// columnar kernels run unchanged — slots are addressed purely through
/// compile-time offset relocation
/// ([`crate::compile::relocate_for_slot`]):
///
/// ```text
/// s buffer  [ slot0: n_scalars planes ][ slot1: … ] …      B·n_scalars·K
/// v buffer  [ slot0: n_vectors planes ][ slot1: … ] …      B·n_vectors·d·K
/// m buffer  [ SHARED m0 plane         ]                    d²·K
///           [ slot0: n_matrices planes (private m0 first) ]
///           [ slot1: … ] …                       (1 + B·n_matrices)·d²·K
/// ```
///
/// The shared `m0` plane at offset 0 is written only by
/// [`BatchInterpreter::reset_shared_input`] and
/// [`BatchInterpreter::load_day`], and only in the cells some slot's
/// program can read (the union of the slots'
/// [`CompiledProgram::input_cells`]) — one set of feature copies amortized
/// across the whole tile, which is the point of the batch. Cells outside
/// the union keep whatever an earlier tile left there (NaN in debug
/// builds); no slot reads them. A slot whose lowered program never writes
/// `m0` ([`crate::compile::writes_m0`]) reads the shared plane directly; a
/// clobbering slot is relocated onto its own private `m0` plane and the
/// caller stages a copy of the shared plane's loaded cells into it before
/// each of that slot's executions ([`BatchInterpreter::stage_private_m0`]).
/// In debug
/// builds a shadow copy verifies no slot ever mutates the shared plane.
///
/// # RNG-stream contract
///
/// Slot `b` owns `K` private RNG streams seeded exactly like a dedicated
/// sequential interpreter's (`stock_rng(seed, stock)`) — slot index does
/// **not** enter the seed. Resetting a slot reseeds only that slot's
/// streams. This is what makes a slot of a wide tile bit-identical to the
/// same candidate alone in a `B = 1` tile (and to the lockstep oracle) for
/// stochastic programs: each candidate sees the same per-stock draw
/// sequence wherever it sits. The per-slot `rel_lane` planes are likewise private because the
/// lockstep scatter buffer they mirror persists *across* instructions.
///
/// Scratch buffers (`scratch_v`, `scratch_m`, `lane`, `rank_scratch`) are
/// shared across slots: every kernel overwrites them before reading
/// within a single instruction, so no state crosses a slot boundary.
pub struct BatchInterpreter<'a> {
    dataset: &'a Dataset,
    panel: &'a DayMajorPanel,
    groups: &'a GroupIndex,
    regs: RegisterFile,
    /// `batch · n_stocks` streams, slot-major: slot b's stock-i stream at
    /// `b·K + i`, seeded `stock_rng(seed, i)`.
    rngs: Vec<SmallRng>,
    /// `dim · n_stocks` temporary for kernels whose vector output may
    /// alias a vector input read at other element indices (`mat_vec`).
    scratch_v: Vec<f64>,
    /// `dim² · n_stocks` temporary for `mat_mul` / `m_transpose`.
    scratch_m: Vec<f64>,
    /// `n_stocks` accumulator plane for two-pass reductions (std kernels).
    lane: Vec<f64>,
    /// `batch · n_stocks` slot-major RelationOp output planes, persistent
    /// per slot across instructions: they mirror the lockstep scatter
    /// buffer bit for bit even for group indices that do not cover every
    /// stock.
    rel_lanes: Vec<f64>,
    rank_scratch: Vec<u32>,
    /// `batch · max_slots` permutation rows: each tile slot owns a private
    /// row range (cross-sections differ per slot, so permutations must
    /// not be shared).
    rank_cache: RankCache,
    /// Rank-cache rows per tile slot
    /// (`max_setup_ops + max_predict_ops + max_update_ops`).
    max_slots: usize,
    base_seed: u64,
    batch: usize,
    n_scalars: usize,
    n_vectors: usize,
    n_matrices: usize,
    /// Debug shadow of the shared `m0` plane, asserted bitwise unchanged
    /// after every slot execution. Allocated once here so the release hot
    /// path stays allocation-free *and* debug runs stay allocation-free
    /// after warm-up (pinned by `tests/hot_path_alloc.rs`).
    #[cfg(debug_assertions)]
    m0_shadow: Vec<f64>,
}

impl<'a> BatchInterpreter<'a> {
    /// Creates a batched interpreter with `batch` zeroed register slots.
    ///
    /// `panel` must be the [`DayMajorPanel`] of `dataset` (the evaluator
    /// builds it once and shares it across workers).
    ///
    /// # Panics
    /// If `batch` is 0, the dataset's feature count or window disagrees
    /// with `cfg.dim`, the group index covers a different stock count, or
    /// `panel` does not match the dataset's shape.
    pub fn new(
        cfg: &AlphaConfig,
        dataset: &'a Dataset,
        panel: &'a DayMajorPanel,
        groups: &'a GroupIndex,
        seed: u64,
        batch: usize,
    ) -> BatchInterpreter<'a> {
        assert!(batch >= 1, "batch must be at least 1");
        assert_eq!(
            dataset.n_features(),
            cfg.dim,
            "dataset features must equal cfg.dim"
        );
        assert_eq!(
            dataset.window(),
            cfg.dim,
            "dataset window must equal cfg.dim"
        );
        assert_eq!(
            groups.n_stocks(),
            dataset.n_stocks(),
            "group index / dataset mismatch"
        );
        assert!(
            panel.n_stocks() == dataset.n_stocks()
                && panel.n_features() == dataset.n_features()
                && panel.n_days() == dataset.panel().n_days(),
            "day-major panel / dataset mismatch"
        );
        let k = dataset.n_stocks();
        let d = cfg.dim;
        BatchInterpreter {
            dataset,
            panel,
            groups,
            regs: RegisterFile::new(
                batch * cfg.n_scalars,
                batch * cfg.n_vectors,
                1 + batch * cfg.n_matrices,
                d,
                k,
            ),
            rngs: (0..batch * k).map(|i| stock_rng(seed, i % k)).collect(),
            scratch_v: vec![0.0; d * k],
            scratch_m: vec![0.0; d * d * k],
            lane: vec![0.0; k],
            rel_lanes: vec![0.0; batch * k],
            rank_scratch: Vec::with_capacity(k),
            rank_cache: RankCache::new(
                batch * (cfg.max_setup_ops + cfg.max_predict_ops + cfg.max_update_ops),
                k,
            ),
            max_slots: cfg.max_setup_ops + cfg.max_predict_ops + cfg.max_update_ops,
            base_seed: seed,
            batch,
            n_scalars: cfg.n_scalars,
            n_vectors: cfg.n_vectors,
            n_matrices: cfg.n_matrices,
            #[cfg(debug_assertions)]
            m0_shadow: vec![0.0; d * d * k],
        }
    }

    /// Number of stocks executed per plane.
    pub fn n_stocks(&self) -> usize {
        self.regs.n_stocks()
    }

    #[inline]
    fn d2k(&self) -> usize {
        let d = self.regs.dim();
        d * d * self.regs.n_stocks()
    }

    /// Zeroes the `cells` of the shared `m0` input plane (the tile's
    /// union of [`CompiledProgram::input_cells`]). An evaluation starts
    /// from a fully-zeroed register file, so a `Setup()` body that *reads*
    /// `m0` must see zeros — without this, the previous tile's
    /// last-loaded day would leak into setup and break bit-identity. Cells
    /// outside the mask are never read; debug builds set them to NaN, as
    /// [`BatchInterpreter::load_day`] does.
    pub fn reset_shared_input(&mut self, cells: &[bool]) {
        let k = self.regs.n_stocks();
        let d2k = self.d2k();
        for (plane, &marked) in self.regs.m[..d2k].chunks_exact_mut(k).zip(cells) {
            if marked {
                plane.fill(0.0);
            } else if cfg!(debug_assertions) {
                plane.fill(f64::NAN);
            }
        }
        #[cfg(debug_assertions)]
        self.m0_shadow.copy_from_slice(&self.regs.m[..d2k]);
    }

    /// Returns slot `b` to its freshly-constructed state: zeroes the
    /// slot's scalar/vector/matrix regions and `rel_lane`, reseeds the
    /// slot's per-stock RNG streams. Other slots and the shared `m0`
    /// plane are untouched.
    pub fn reset_slot(&mut self, b: usize) {
        assert!(b < self.batch, "slot out of range");
        let k = self.regs.n_stocks();
        let d = self.regs.dim();
        let d2k = d * d * k;
        self.regs.s[b * self.n_scalars * k..(b + 1) * self.n_scalars * k].fill(0.0);
        self.regs.v[b * self.n_vectors * d * k..(b + 1) * self.n_vectors * d * k].fill(0.0);
        self.regs.m[(1 + b * self.n_matrices) * d2k..(1 + (b + 1) * self.n_matrices) * d2k]
            .fill(0.0);
        self.rel_lanes[b * k..(b + 1) * k].fill(0.0);
        for i in 0..k {
            self.rngs[b * k + i] = stock_rng(self.base_seed, i);
        }
    }

    /// Debug-only sweep guard: asserts slot `b`'s entire register region,
    /// `rel_lane`, and RNG streams match a freshly-reset slot. A stale
    /// `Update()`-written register leaking across tile slots is the most
    /// likely silent-corruption bug in batched evaluation, so the
    /// evaluator calls this after every [`BatchInterpreter::reset_slot`]
    /// in debug builds. Compiles to nothing in release builds.
    pub fn debug_assert_slot_clean(&self, b: usize) {
        #[cfg(debug_assertions)]
        {
            let k = self.regs.n_stocks();
            let d = self.regs.dim();
            let d2k = d * d * k;
            let clean = |buf: &[f64]| buf.iter().all(|x| x.to_bits() == 0);
            assert!(
                clean(&self.regs.s[b * self.n_scalars * k..(b + 1) * self.n_scalars * k]),
                "stale scalar state in tile slot {b}"
            );
            assert!(
                clean(&self.regs.v[b * self.n_vectors * d * k..(b + 1) * self.n_vectors * d * k]),
                "stale vector state in tile slot {b}"
            );
            assert!(
                clean(
                    &self.regs.m
                        [(1 + b * self.n_matrices) * d2k..(1 + (b + 1) * self.n_matrices) * d2k]
                ),
                "stale matrix state in tile slot {b}"
            );
            assert!(
                clean(&self.rel_lanes[b * k..(b + 1) * k]),
                "stale rel_lane state in tile slot {b}"
            );
            for i in 0..k {
                assert_eq!(
                    self.rngs[b * k + i].state(),
                    stock_rng(self.base_seed, i).state(),
                    "stale RNG stream for stock {i} in tile slot {b}"
                );
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = b;
    }

    /// Loads the `cells` of one day's input window (the tile's union of
    /// [`CompiledProgram::input_cells`]) into the **shared** `m0` plane —
    /// once per day for the whole tile.
    pub fn load_day(&mut self, day: usize, cells: &[bool]) {
        let k = self.regs.n_stocks();
        let w = self.dataset.window();
        let m0 = &mut self.regs.m[..self.dataset.n_features() * w * k];
        load_input_cells(m0, self.panel, day, w, k, cells);
        #[cfg(debug_assertions)]
        {
            let d2k = self.d2k();
            self.m0_shadow.copy_from_slice(&self.regs.m[..d2k]);
        }
    }

    /// Copies the `cells` of the shared `m0` plane (the mask
    /// [`BatchInterpreter::load_day`] loaded) into slot `b`'s private `m0`
    /// plane. Required before each execution of a slot whose program
    /// writes `m0` (relocated with `share_m0 = false`). A full mask is one
    /// contiguous copy; cells outside the mask are not read, and debug
    /// builds write NaN into them, as the load does.
    pub fn stage_private_m0(&mut self, b: usize, cells: &[bool]) {
        let k = self.regs.n_stocks();
        let d2k = self.d2k();
        let base = (1 + b * self.n_matrices) * d2k;
        let (shared, rest) = self.regs.m.split_at_mut(d2k);
        let private = &mut rest[base - d2k..base];
        if cells.iter().all(|&c| c) {
            private.copy_from_slice(shared);
            return;
        }
        for ((dst, src), &marked) in private
            .chunks_exact_mut(k)
            .zip(shared.chunks_exact(k))
            .zip(cells)
        {
            if marked {
                dst.copy_from_slice(src);
            } else if cfg!(debug_assertions) {
                dst.fill(f64::NAN);
            }
        }
    }

    /// Loads the day's label cross-section into slot `b`'s `s0` plane.
    pub fn load_labels_slot(&mut self, b: usize, day: usize) {
        let k = self.regs.n_stocks();
        let off = (b * self.n_scalars + LABEL) * k;
        self.regs.s[off..off + k].copy_from_slice(self.panel.labels_row(day));
    }

    /// Runs one compiled function body for tile slot `b`. The program
    /// must have been relocated onto slot `b`
    /// ([`crate::compile::relocate_for_slot`]).
    pub fn run_function_slot(&mut self, b: usize, instrs: &[CompiledInstr]) {
        let k = self.regs.n_stocks();
        run_instrs(
            instrs,
            &mut self.regs,
            self.groups,
            &mut self.rngs[b * k..(b + 1) * k],
            &mut self.scratch_v,
            &mut self.scratch_m,
            &mut self.lane,
            &mut self.rel_lanes[b * k..(b + 1) * k],
            &mut self.rank_scratch,
            &mut self.rank_cache,
            b * self.max_slots,
        );
        #[cfg(debug_assertions)]
        {
            let d2k = self.d2k();
            assert!(
                self.regs.m[..d2k]
                    .iter()
                    .zip(&self.m0_shadow)
                    .all(|(a, s)| a.to_bits() == s.to_bits()),
                "tile slot {b} clobbered the shared m0 plane"
            );
        }
    }

    /// Takes the rank cache's `(reused, resorted)` segment counts since
    /// the last call (telemetry; `(0, 0)` without the `obs` feature).
    pub fn take_rank_stats(&mut self) -> (u64, u64) {
        self.rank_cache.take_rank_stats()
    }

    /// Copies slot `b`'s prediction plane `s1` into `out` (length
    /// `n_stocks`).
    pub fn read_predictions_slot(&self, b: usize, out: &mut [f64]) {
        let k = self.regs.n_stocks();
        let off = (b * self.n_scalars + PREDICTION) * k;
        out.copy_from_slice(&self.regs.s[off..off + k]);
    }

    /// Captures slot `b`'s per-stock RNG stream states, appending into
    /// `out` (cleared first): the RNG-stream contract's test hook, and the
    /// post-training snapshot a server restores before a stochastic
    /// predict ([`BatchInterpreter::set_rng_states_slot`]).
    pub fn rng_states_into_slot(&self, b: usize, out: &mut Vec<[u64; 4]>) {
        let k = self.regs.n_stocks();
        out.clear();
        out.extend(self.rngs[b * k..(b + 1) * k].iter().map(SmallRng::state));
    }

    /// Restores slot `b`'s per-stock RNG streams captured by
    /// [`BatchInterpreter::rng_states_into_slot`]. Allocation-free.
    ///
    /// # Panics
    /// If `states.len()` differs from the stock count.
    pub fn set_rng_states_slot(&mut self, b: usize, states: &[[u64; 4]]) {
        let k = self.regs.n_stocks();
        assert_eq!(states.len(), k, "rng state count mismatch");
        for (rng, &s) in self.rngs[b * k..(b + 1) * k].iter_mut().zip(states) {
            *rng = SmallRng::from_state(s);
        }
    }

    /// The tile's register file (slot-major, see the type docs): a
    /// server reads a trained slot's planes from it.
    pub fn registers(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable access to the register file. The serving layer restores a
    /// program's trained planes through it before each predict; the
    /// evaluator never needs it.
    pub fn registers_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }
}

/// An element-wise kernel input, resolved against the output plane (see
/// [`split_out`]).
#[derive(Clone, Copy)]
enum Src<'a> {
    /// The output plane itself: the op runs in place on this operand.
    Out,
    /// A plane disjoint from the output.
    Plane(&'a [f64]),
}

/// Splits the `n`-long output plane at `o` off `buf` and resolves each
/// input offset in `inputs` against it. Registers of one kind are whole
/// planes at multiples of their size, so an input plane either *is* the
/// output plane or is disjoint from it; with the two split apart, the
/// kernels' loops zip distinct slices and vectorize, where one buffer
/// indexed for inputs and output would take LLVM's scalar path whenever
/// its runtime alias check sees `o == a`.
///
/// # Panics
/// If an input plane partly overlaps the output plane.
fn split_out<const N: usize>(
    buf: &mut [f64],
    n: usize,
    o: usize,
    inputs: [usize; N],
) -> (&mut [f64], [Src<'_>; N]) {
    let (lo, rest) = buf.split_at_mut(o);
    let (out, hi) = rest.split_at_mut(n);
    let (lo, hi) = (&*lo, &*hi);
    let srcs = inputs.map(|a| {
        if a == o {
            Src::Out
        } else if a + n <= o {
            Src::Plane(&lo[a..a + n])
        } else {
            assert!(a >= o + n, "register planes of one kind overlap");
            Src::Plane(&hi[a - o - n..a - o])
        }
    });
    (out, srcs)
}

/// Element-wise binary kernel within one register buffer: `n` is the whole
/// register size in elements (`n_stocks` for scalars, `dim · n_stocks` for
/// vectors, …). `out[i] = f(a[i], b[i])` for every `i`, with the operands
/// in that order whichever of `a` and `b` is the output plane: the same
/// values the lockstep engine computes through its scratch copy.
#[inline]
fn ew2(buf: &mut [f64], n: usize, a: usize, b: usize, o: usize, f: impl Fn(f64, f64) -> f64) {
    let (out, [a, b]) = split_out(buf, n, o, [a, b]);
    match (a, b) {
        (Src::Out, Src::Out) => out.iter_mut().for_each(|x| *x = f(*x, *x)),
        (Src::Out, Src::Plane(b)) => {
            for (x, &y) in out.iter_mut().zip(b) {
                *x = f(*x, y);
            }
        }
        (Src::Plane(a), Src::Out) => {
            for (y, &x) in out.iter_mut().zip(a) {
                *y = f(x, *y);
            }
        }
        (Src::Plane(a), Src::Plane(b)) => {
            for ((z, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *z = f(x, y);
            }
        }
    }
}

/// Element-wise unary kernel within one register buffer (see [`ew2`]).
#[inline]
fn ew1(buf: &mut [f64], n: usize, a: usize, o: usize, f: impl Fn(f64) -> f64) {
    match split_out(buf, n, o, [a]) {
        (out, [Src::Out]) => out.iter_mut().for_each(|x| *x = f(*x)),
        (out, [Src::Plane(a)]) => {
            for (y, &x) in out.iter_mut().zip(a) {
                *y = f(x);
            }
        }
    }
}

/// Scales every `k`-long element plane of the `n`-long register at `b` by
/// the scalar plane `sa`, into the register at `o` of the same buffer:
/// `out[e·k + i] = sa[i] * b[e·k + i]` (`SVScale`, `SMScale`), with the
/// operands in the lockstep kernel's order.
#[inline]
#[allow(clippy::assign_op_pattern)]
fn scale_planes(buf: &mut [f64], n: usize, b: usize, o: usize, sa: &[f64]) {
    let k = sa.len();
    match split_out(buf, n, o, [b]) {
        (out, [Src::Out]) => {
            for plane in out.chunks_exact_mut(k) {
                for (y, &s) in plane.iter_mut().zip(sa) {
                    *y = s * *y;
                }
            }
        }
        (out, [Src::Plane(b)]) => {
            for (plane, src) in out.chunks_exact_mut(k).zip(b.chunks_exact(k)) {
                for ((y, &s), &x) in plane.iter_mut().zip(sa).zip(src) {
                    *y = s * x;
                }
            }
        }
    }
}

/// The fused `w = x + u ⊗ v` pass ([`crate::compile::Fused::OuterAdd`])
/// over a `d²·k` output plane: `out[(r·d + c)·k + i] = add(x, u[r][i] *
/// v[c][i])`, where `x` is the matching element of the matrix operand and
/// `vs` the vector buffer holding `u` and `v`. `add` applies the `MAdd`'s
/// operand order, so each element gets the unfused pair's two roundings.
#[allow(clippy::too_many_arguments)]
#[inline]
fn outer_add_planes(
    out: &mut [f64],
    x: Src<'_>,
    vs: &[f64],
    u: usize,
    v: usize,
    d: usize,
    k: usize,
    add: impl Fn(f64, f64) -> f64,
) {
    for (e, plane) in out.chunks_exact_mut(k).enumerate() {
        let (r, c) = (e / d, e % d);
        let ur = &vs[u + r * k..u + (r + 1) * k];
        let vc = &vs[v + c * k..v + (c + 1) * k];
        match x {
            Src::Out => {
                for ((y, &p), &q) in plane.iter_mut().zip(ur).zip(vc) {
                    *y = add(*y, p * q);
                }
            }
            Src::Plane(x) => {
                let x = &x[e * k..(e + 1) * k];
                for (((y, &w), &p), &q) in plane.iter_mut().zip(x).zip(ur).zip(vc) {
                    *y = add(w, p * q);
                }
            }
        }
    }
}

/// Executes one non-relation compiled instruction against the columnar
/// register planes: a single dispatch, then tight loops over the stock
/// axis. Every kernel performs, per stock, exactly the same f64 operations
/// in the same order as [`execute_local`] on that stock's bank — that
/// invariant is what keeps the two engines bitwise interchangeable. A
/// fused pass performs its two ops' operations, in their order, without
/// the intermediate store.
///
/// `scratch_v`/`scratch_m` must be at least `dim·K` / `dim²·K` long;
/// `lane` at least `K`.
fn execute_columnar(
    instr: &CompiledInstr,
    regs: &mut RegisterFile,
    rngs: &mut [SmallRng],
    scratch_v: &mut [f64],
    scratch_m: &mut [f64],
    lane: &mut [f64],
) {
    debug_assert!(
        !instr.op.is_relation(),
        "relation ops need cross-sectional execution"
    );
    let k = regs.n_stocks();
    let d = regs.dim();
    let dk = d * k;
    let d2k = d * d * k;
    let (a, b, o) = (instr.a, instr.b, instr.o);
    let [lit0, lit1] = instr.lit;
    let ix0 = instr.ix[0] as usize;
    let ix1 = instr.ix[1] as usize;
    let RegisterFile { s, v, m, .. } = regs;
    let (s, v, m) = (&mut s[..], &mut v[..], &mut m[..]);

    if let Some(Fused::OuterAdd {
        u: row,
        v: col,
        outer_first,
    }) = instr.fused
    {
        let (out, [x]) = split_out(m, d2k, o, [a]);
        if outer_first {
            outer_add_planes(out, x, v, row, col, d, k, |x, t| t + x);
        } else {
            outer_add_planes(out, x, v, row, col, d, k, |x, t| x + t);
        }
        return;
    }

    match instr.op {
        Op::NoOp => {}

        // -- scalar ----------------------------------------------------
        Op::SConst => s[o..o + k].fill(lit0),
        Op::SUniform => {
            for (i, rng) in rngs.iter_mut().enumerate() {
                s[o + i] = uniform_in(rng, lit0, lit1);
            }
        }
        Op::SGauss => {
            for (i, rng) in rngs.iter_mut().enumerate() {
                s[o + i] = normal(rng, lit0, lit1.abs());
            }
        }
        Op::SAdd => ew2(s, k, a, b, o, |x, y| x + y),
        Op::SSub => ew2(s, k, a, b, o, |x, y| x - y),
        Op::SMul => ew2(s, k, a, b, o, |x, y| x * y),
        Op::SDiv => ew2(s, k, a, b, o, |x, y| x / y),
        Op::SMin => ew2(s, k, a, b, o, f64::min),
        Op::SMax => ew2(s, k, a, b, o, f64::max),
        Op::SAbs => ew1(s, k, a, o, f64::abs),
        Op::SInv => ew1(s, k, a, o, |x| 1.0 / x),
        // Transcendentals run the shared polynomial kernels
        // ([`crate::kernels`]) over the whole plane. sin/cos/ln are
        // two-pass (branch-free core + rare-input patch pass), which needs
        // the original inputs after the first pass — and `o` may alias `a`
        // — so the source plane is staged through the `lane` scratch.
        Op::SSin => {
            lane[..k].copy_from_slice(&s[a..a + k]);
            crate::kernels::sin_plane(&lane[..k], &mut s[o..o + k]);
        }
        Op::SCos => {
            lane[..k].copy_from_slice(&s[a..a + k]);
            crate::kernels::cos_plane(&lane[..k], &mut s[o..o + k]);
        }
        Op::STan => ew1(s, k, a, o, crate::kernels::tan),
        Op::SArcSin => ew1(s, k, a, o, crate::kernels::asin),
        Op::SArcCos => ew1(s, k, a, o, crate::kernels::acos),
        Op::SArcTan => ew1(s, k, a, o, crate::kernels::atan),
        Op::SExp => ew1(s, k, a, o, crate::kernels::exp),
        Op::SLn => {
            lane[..k].copy_from_slice(&s[a..a + k]);
            crate::kernels::ln_plane(&lane[..k], &mut s[o..o + k]);
        }
        Op::SHeaviside => ew1(s, k, a, o, |x| if x > 0.0 { 1.0 } else { 0.0 }),

        // -- vector ----------------------------------------------------
        Op::VConst => v[o..o + dk].fill(lit0),
        Op::VUniform => {
            // Stock-outer so each stock draws its `dim` values in element
            // order, exactly like the lockstep fill of that stock's bank.
            for (i, rng) in rngs.iter_mut().enumerate() {
                for e in 0..d {
                    v[o + e * k + i] = uniform_in(rng, lit0, lit1);
                }
            }
        }
        Op::VGauss => {
            for (i, rng) in rngs.iter_mut().enumerate() {
                for e in 0..d {
                    v[o + e * k + i] = normal(rng, lit0, lit1.abs());
                }
            }
        }
        Op::VAdd => ew2(v, dk, a, b, o, |x, y| x + y),
        Op::VSub => ew2(v, dk, a, b, o, |x, y| x - y),
        Op::VMul => ew2(v, dk, a, b, o, |x, y| x * y),
        Op::VDiv => ew2(v, dk, a, b, o, |x, y| x / y),
        Op::VMin => ew2(v, dk, a, b, o, f64::min),
        Op::VMax => ew2(v, dk, a, b, o, f64::max),
        Op::VAbs => ew1(v, dk, a, o, f64::abs),
        Op::VHeaviside => ew1(v, dk, a, o, |x| if x > 0.0 { 1.0 } else { 0.0 }),
        Op::SVScale => scale_planes(v, dk, b, o, &s[a..a + k]),
        Op::VBroadcast => {
            for e in 0..d {
                v[o + e * k..o + (e + 1) * k].copy_from_slice(&s[a..a + k]);
            }
        }
        Op::VNorm => {
            s[o..o + k].fill(0.0);
            for e in 0..d {
                for i in 0..k {
                    let x = v[a + e * k + i];
                    s[o + i] += x * x;
                }
            }
            for x in &mut s[o..o + k] {
                *x = x.sqrt();
            }
        }
        Op::VMean => {
            reduce_sum(v, s, a, o, d, k);
            for x in &mut s[o..o + k] {
                *x /= d as f64;
            }
        }
        Op::VStd => population_std_planes(v, s, lane, a, o, d, k),
        Op::VSum => reduce_sum(v, s, a, o, d, k),
        Op::TsRank => {
            // Rank of the newest element (last slot) within the vector,
            // normalized to [0, 1]; ties count half.
            s[o..o + k].fill(0.0);
            let last = a + (d - 1) * k;
            for e in 0..d - 1 {
                for i in 0..k {
                    let x = v[a + e * k + i];
                    if x < v[last + i] {
                        s[o + i] += 1.0;
                    } else if x == v[last + i] {
                        s[o + i] += 0.5;
                    }
                }
            }
            for x in &mut s[o..o + k] {
                *x /= (d - 1) as f64;
            }
        }
        Op::VDot => {
            s[o..o + k].fill(0.0);
            for e in 0..d {
                for i in 0..k {
                    s[o + i] += v[a + e * k + i] * v[b + e * k + i];
                }
            }
        }
        Op::VGet => s[o..o + k].copy_from_slice(&v[a + ix0 * k..a + (ix0 + 1) * k]),
        Op::VOuter => {
            for (e, plane) in m[o..o + d2k].chunks_exact_mut(k).enumerate() {
                let (r, c) = (e / d, e % d);
                let va = &v[a + r * k..a + (r + 1) * k];
                let vb = &v[b + c * k..b + (c + 1) * k];
                for ((y, &p), &q) in plane.iter_mut().zip(va).zip(vb) {
                    *y = p * q;
                }
            }
        }
        Op::MatVec => {
            // The vector output may alias the vector input, so accumulate
            // in scratch (same values as the lockstep scratch row sums).
            let sv = &mut scratch_v[..dk];
            sv.fill(0.0);
            for r in 0..d {
                for c in 0..d {
                    let (ma, vb, so) = (a + (r * d + c) * k, b + c * k, r * k);
                    for i in 0..k {
                        sv[so + i] += m[ma + i] * v[vb + i];
                    }
                }
            }
            v[o..o + dk].copy_from_slice(sv);
        }

        // -- matrix ----------------------------------------------------
        Op::MConst => m[o..o + d2k].fill(lit0),
        Op::MUniform => {
            for (i, rng) in rngs.iter_mut().enumerate() {
                for e in 0..d * d {
                    m[o + e * k + i] = uniform_in(rng, lit0, lit1);
                }
            }
        }
        Op::MGauss => {
            for (i, rng) in rngs.iter_mut().enumerate() {
                for e in 0..d * d {
                    m[o + e * k + i] = normal(rng, lit0, lit1.abs());
                }
            }
        }
        Op::MAdd => ew2(m, d2k, a, b, o, |x, y| x + y),
        Op::MSub => ew2(m, d2k, a, b, o, |x, y| x - y),
        Op::MMul => ew2(m, d2k, a, b, o, |x, y| x * y),
        Op::MDiv => ew2(m, d2k, a, b, o, |x, y| x / y),
        Op::MMin => ew2(m, d2k, a, b, o, f64::min),
        Op::MMax => ew2(m, d2k, a, b, o, f64::max),
        Op::MAbs => ew1(m, d2k, a, o, f64::abs),
        Op::MHeaviside => ew1(m, d2k, a, o, |x| if x > 0.0 { 1.0 } else { 0.0 }),
        Op::MTranspose => {
            let sm = &mut scratch_m[..d2k];
            for r in 0..d {
                for c in 0..d {
                    sm[(c * d + r) * k..(c * d + r + 1) * k]
                        .copy_from_slice(&m[a + (r * d + c) * k..a + (r * d + c + 1) * k]);
                }
            }
            m[o..o + d2k].copy_from_slice(sm);
        }
        // Register-blocked micro-kernel; accumulates in kk order per
        // (row, col, stock) — the lockstep kernel's exact summation order.
        Op::MatMul => crate::kernels::mat_mul_planes(m, scratch_m, a, b, o, d, k),
        Op::SMScale => scale_planes(m, d2k, b, o, &s[a..a + k]),
        Op::MBroadcast => {
            for r in 0..d {
                for c in 0..d {
                    // axis 0: tile v across rows (row r is v);
                    // axis 1: tile v across columns (col c is v).
                    let src = a + if ix0 == 0 { c } else { r } * k;
                    m[o + (r * d + c) * k..o + (r * d + c + 1) * k]
                        .copy_from_slice(&v[src..src + k]);
                }
            }
        }
        Op::MNorm => {
            s[o..o + k].fill(0.0);
            for e in 0..d * d {
                for i in 0..k {
                    let x = m[a + e * k + i];
                    s[o + i] += x * x;
                }
            }
            for x in &mut s[o..o + k] {
                *x = x.sqrt();
            }
        }
        Op::MMean => {
            reduce_sum(m, s, a, o, d * d, k);
            for x in &mut s[o..o + k] {
                *x /= (d * d) as f64;
            }
        }
        Op::MStd => population_std_planes(m, s, lane, a, o, d * d, k),
        Op::MNormAxis | Op::MMeanAxis | Op::MStdAxis => {
            // axis 0 reduces over rows (output indexed by column), axis 1
            // over columns (output indexed by row) — NumPy convention.
            // Per output element, gather in the lockstep order.
            let stride = |e: usize, j: usize| a + if ix0 == 0 { j * d + e } else { e * d + j } * k;
            for e in 0..d {
                let vo = o + e * k;
                match instr.op {
                    Op::MNormAxis => {
                        v[vo..vo + k].fill(0.0);
                        for j in 0..d {
                            let src = stride(e, j);
                            for i in 0..k {
                                let x = m[src + i];
                                v[vo + i] += x * x;
                            }
                        }
                        for x in &mut v[vo..vo + k] {
                            *x = x.sqrt();
                        }
                    }
                    Op::MMeanAxis => {
                        v[vo..vo + k].fill(0.0);
                        for j in 0..d {
                            let src = stride(e, j);
                            for i in 0..k {
                                v[vo + i] += m[src + i];
                            }
                        }
                        for x in &mut v[vo..vo + k] {
                            *x /= d as f64;
                        }
                    }
                    _ => {
                        // Mean into `lane`, then squared deviations into
                        // the output plane — population_std's two passes.
                        lane[..k].fill(0.0);
                        for j in 0..d {
                            let src = stride(e, j);
                            for i in 0..k {
                                lane[i] += m[src + i];
                            }
                        }
                        for x in &mut lane[..k] {
                            *x /= d as f64;
                        }
                        v[vo..vo + k].fill(0.0);
                        for j in 0..d {
                            let src = stride(e, j);
                            for i in 0..k {
                                let dev = m[src + i] - lane[i];
                                v[vo + i] += dev * dev;
                            }
                        }
                        for x in &mut v[vo..vo + k] {
                            *x = (*x / d as f64).sqrt();
                        }
                    }
                }
            }
        }
        Op::MGet => {
            let src = a + (ix0 * d + ix1) * k;
            s[o..o + k].copy_from_slice(&m[src..src + k]);
        }
        Op::MGetRow => {
            for c in 0..d {
                let src = a + (ix0 * d + c) * k;
                v[o + c * k..o + (c + 1) * k].copy_from_slice(&m[src..src + k]);
            }
        }
        Op::MGetCol => {
            for r in 0..d {
                let src = a + (r * d + ix0) * k;
                v[o + r * k..o + (r + 1) * k].copy_from_slice(&m[src..src + k]);
            }
        }

        // -- relation ops: handled by the interpreter -------------------
        Op::RelRank
        | Op::RelRankSector
        | Op::RelRankIndustry
        | Op::RelDemean
        | Op::RelDemeanSector
        | Op::RelDemeanIndustry => {
            debug_assert!(false, "relation op reached execute_columnar");
        }
    }
}

/// Plane-wise sum reduction: `dst[o..o+k] = Σ_e src[a + e·k ..][..k]`,
/// accumulating elements in ascending order (the lockstep fold order).
#[inline]
fn reduce_sum(src: &[f64], dst: &mut [f64], a: usize, o: usize, n_elems: usize, k: usize) {
    dst[o..o + k].fill(0.0);
    for e in 0..n_elems {
        for i in 0..k {
            dst[o + i] += src[a + e * k + i];
        }
    }
}

/// Plane-wise population standard deviation over `n_elems` planes of
/// `src`, written to `dst[o..o+k]`; `lane` holds the per-stock mean.
/// Matches `population_std`'s two passes per stock exactly.
#[inline]
fn population_std_planes(
    src: &[f64],
    dst: &mut [f64],
    lane: &mut [f64],
    a: usize,
    o: usize,
    n_elems: usize,
    k: usize,
) {
    lane[..k].fill(0.0);
    for e in 0..n_elems {
        for i in 0..k {
            lane[i] += src[a + e * k + i];
        }
    }
    for x in &mut lane[..k] {
        *x /= n_elems as f64;
    }
    dst[o..o + k].fill(0.0);
    for e in 0..n_elems {
        for i in 0..k {
            let dev = src[a + e * k + i] - lane[i];
            dst[o + i] += dev * dev;
        }
    }
    for x in &mut dst[o..o + k] {
        *x = (*x / n_elems as f64).sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, relocate_for_slot, writes_m0, CompiledProgram};
    use crate::op::Op;
    use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, SplitSpec};

    /// One program on slot 0 of a `B = 1` tile, driven day by day through
    /// the schedule the evaluator's training loop runs.
    struct Solo<'a> {
        tile: BatchInterpreter<'a>,
        prog: CompiledProgram,
        share_m0: bool,
    }

    impl<'a> Solo<'a> {
        /// Compiles `prog` onto slot 0 and runs its `Setup()`.
        fn new(
            ds: &'a Dataset,
            panel: &'a DayMajorPanel,
            groups: &'a GroupIndex,
            seed: u64,
            prog: &AlphaProgram,
        ) -> Solo<'a> {
            let cfg = cfg();
            let mut compiled = compile(prog, &cfg, ds.n_stocks());
            let share_m0 = !writes_m0(&compiled);
            relocate_for_slot(&mut compiled, &cfg, ds.n_stocks(), 0, share_m0);
            let mut solo = Solo {
                tile: BatchInterpreter::new(&cfg, ds, panel, groups, seed, 1),
                prog: compiled,
                share_m0,
            };
            solo.reset();
            solo
        }

        /// Back to the freshly set-up state: zeroed slot, reseeded
        /// streams, `Setup()` run again.
        fn reset(&mut self) {
            self.tile.reset_shared_input(&self.prog.input_cells);
            self.tile.reset_slot(0);
            self.tile.run_function_slot(0, &self.prog.setup);
        }

        fn load(&mut self, day: usize) {
            self.tile.load_day(day, &self.prog.input_cells);
            if !self.share_m0 {
                self.tile.stage_private_m0(0, &self.prog.input_cells);
            }
        }

        fn train_day(&mut self, day: usize) {
            self.load(day);
            self.tile.run_function_slot(0, &self.prog.predict);
            self.tile.load_labels_slot(0, day);
            self.tile.run_function_slot(0, &self.prog.update);
        }

        fn predict_day(&mut self, day: usize, out: &mut [f64]) {
            self.load(day);
            self.tile.run_function_slot(0, &self.prog.predict);
            self.tile.read_predictions_slot(0, out);
        }
    }

    fn tiny_dataset() -> Dataset {
        let md = MarketConfig {
            n_stocks: 12,
            n_days: 120,
            seed: 11,
            n_sectors: 3,
            ..Default::default()
        }
        .generate();
        Dataset::build(&md, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap()
    }

    fn cfg() -> AlphaConfig {
        AlphaConfig::default()
    }

    fn instr(op: Op, in1: u8, in2: u8, out: u8) -> Instruction {
        Instruction::new(op, in1, in2, out, [0.0; 2], [0; 2])
    }

    #[test]
    fn mean_alpha_predicts_finite_values() {
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let cfg = cfg();
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![instr(Op::MMean, 0, 0, 1)],
            update: vec![Instruction::nop()],
        };
        let mut interp = Interpreter::new(&cfg, &ds, &groups, 0);
        interp.run_setup(&prog);
        let mut out = vec![0.0; ds.n_stocks()];
        let day = ds.valid_days().start;
        interp.predict_day(&prog, day, &mut out);
        assert!(out.iter().all(|x| x.is_finite()));
        // Predictions differ across stocks (different feature windows).
        assert!(out.iter().any(|&x| (x - out[0]).abs() > 1e-12));
    }

    #[test]
    fn relation_rank_outputs_are_normalized_ranks() {
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let cfg = cfg();
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![instr(Op::MMean, 0, 0, 2), instr(Op::RelRank, 2, 0, 1)],
            update: vec![Instruction::nop()],
        };
        let mut interp = Interpreter::new(&cfg, &ds, &groups, 0);
        interp.run_setup(&prog);
        let mut out = vec![0.0; ds.n_stocks()];
        interp.predict_day(&prog, ds.valid_days().start, &mut out);
        assert!(out.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let mut sorted = out.clone();
        sorted.sort_by(f64::total_cmp);
        // Without ties ranks are the full ladder 0, 1/(K-1), ..., 1.
        let k = ds.n_stocks();
        for (i, &r) in sorted.iter().enumerate() {
            assert!(
                (r - i as f64 / (k - 1) as f64).abs() < 1e-9,
                "rank ladder broken at {i}: {r}"
            );
        }
    }

    #[test]
    fn sector_demean_sums_to_zero_within_sector() {
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let cfg = cfg();
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                instr(Op::MMean, 0, 0, 2),
                instr(Op::RelDemeanSector, 2, 0, 1),
            ],
            update: vec![Instruction::nop()],
        };
        let mut interp = Interpreter::new(&cfg, &ds, &groups, 0);
        interp.run_setup(&prog);
        let mut out = vec![0.0; ds.n_stocks()];
        interp.predict_day(&prog, ds.valid_days().start, &mut out);
        for s in 0..ds.universe().n_sectors() {
            let members = ds
                .universe()
                .sector_members(alphaevolve_market::SectorId(s as u16));
            let sum: f64 = members.iter().map(|&m| out[m as usize]).sum();
            assert!(sum.abs() < 1e-9, "sector {s} demeaned sum {sum}");
        }
    }

    #[test]
    fn state_persists_across_days() {
        // Counter alpha: s1 = s1 + 1 each predict — after n days s1 = n.
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let cfg = cfg();
        let prog = AlphaProgram {
            setup: vec![Instruction::new(Op::SConst, 0, 0, 2, [1.0, 0.0], [0; 2])],
            predict: vec![instr(Op::SAdd, 1, 2, 1)],
            update: vec![Instruction::nop()],
        };
        let mut interp = Interpreter::new(&cfg, &ds, &groups, 0);
        interp.run_setup(&prog);
        let mut out = vec![0.0; ds.n_stocks()];
        let start = ds.train_days().start;
        for (n, day) in (start..start + 5).enumerate() {
            interp.predict_day(&prog, day, &mut out);
            assert_eq!(out[0], (n + 1) as f64);
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let cfg = cfg();
        let prog = AlphaProgram {
            setup: vec![Instruction::new(Op::SGauss, 0, 0, 2, [0.0, 1.0], [0; 2])],
            predict: vec![instr(Op::MMean, 0, 0, 3), instr(Op::SMul, 3, 2, 1)],
            update: vec![Instruction::nop()],
        };
        let mut interp = Interpreter::new(&cfg, &ds, &groups, 42);
        let day = ds.train_days().start;
        let mut a = vec![0.0; ds.n_stocks()];
        interp.run_setup(&prog);
        interp.predict_day(&prog, day, &mut a);
        interp.reset();
        let mut b = vec![0.0; ds.n_stocks()];
        interp.run_setup(&prog);
        interp.predict_day(&prog, day, &mut b);
        assert_eq!(a, b, "reset + rerun must reproduce the stochastic stream");
    }

    /// Runs `prog` through the tile and the oracle over `n_days` training
    /// days and `n_days` prediction days, asserting bitwise-equal
    /// predictions.
    fn assert_engines_match(prog: &AlphaProgram, seed: u64, n_days: usize) {
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let panel = DayMajorPanel::from_panel(ds.panel());
        let mut lock = Interpreter::new(&cfg(), &ds, &groups, seed);
        let mut col = Solo::new(&ds, &panel, &groups, seed, prog);
        lock.run_setup(prog);
        let k = ds.n_stocks();
        let (mut a, mut b) = (vec![0.0; k], vec![0.0; k]);
        for day in ds.train_days().take(n_days) {
            lock.train_day(prog, day, true);
            col.train_day(day);
        }
        for day in ds.valid_days().take(n_days) {
            lock.predict_day(prog, day, &mut a);
            col.predict_day(day, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "engines diverged on day {day}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn columnar_matches_lockstep_on_relational_alpha() {
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                instr(Op::MMean, 0, 0, 2),
                instr(Op::RelRankSector, 2, 0, 3),
                instr(Op::RelDemeanIndustry, 3, 0, 4),
                instr(Op::RelRank, 4, 0, 1),
            ],
            update: vec![instr(Op::SAdd, 3, 0, 3)],
        };
        assert_engines_match(&prog, 5, 6);
    }

    #[test]
    fn columnar_matches_lockstep_on_stochastic_alpha() {
        // Stochastic draws in all three functions, including a *dead*
        // stochastic op (s9 unused) that must still advance the streams.
        let prog = AlphaProgram {
            setup: vec![
                Instruction::new(Op::MGauss, 0, 0, 1, [0.0, 0.5], [0; 2]),
                Instruction::new(Op::SUniform, 0, 0, 9, [-1.0, 1.0], [0; 2]),
            ],
            predict: vec![
                Instruction::new(Op::VUniform, 0, 0, 2, [-0.1, 0.1], [0; 2]),
                instr(Op::MatVec, 1, 2, 3),
                instr(Op::VMean, 3, 0, 2),
                instr(Op::MMean, 0, 0, 4),
                instr(Op::SAdd, 2, 4, 1),
            ],
            update: vec![
                Instruction::new(Op::SGauss, 0, 0, 5, [0.0, 1.0], [0; 2]),
                instr(Op::SMul, 5, 0, 6),
                instr(Op::SAdd, 1, 6, 1),
            ],
        };
        assert_engines_match(&prog, 99, 5);
    }

    #[test]
    fn columnar_matches_lockstep_on_nonfinite_intermediates() {
        // s2 = 0/0 = NaN feeds a relation rank and the prediction; the
        // NaN path (sort-last ranks, NaN demeans) must agree bitwise.
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                instr(Op::SDiv, 7, 7, 2), // 0/0 = NaN
                instr(Op::MMean, 0, 0, 3),
                instr(Op::SLn, 3, 0, 4), // ln of ±values -> NaN/-inf mix
                instr(Op::RelRank, 4, 0, 5),
                instr(Op::SAdd, 2, 5, 1),
            ],
            update: vec![Instruction::nop()],
        };
        assert_engines_match(&prog, 0, 4);
    }

    #[test]
    fn columnar_matrix_kernels_match_lockstep() {
        // Heavy matrix traffic: matmul, transpose, axis reductions, outer
        // products, extraction — the kernels with reordered loop nests.
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                instr(Op::MTranspose, 0, 0, 1),
                instr(Op::MatMul, 0, 1, 2),
                Instruction::new(Op::MStdAxis, 2, 0, 3, [0.0; 2], [1, 0]),
                Instruction::new(Op::MMeanAxis, 2, 0, 4, [0.0; 2], [0, 0]),
                instr(Op::VOuter, 3, 4, 1),
                Instruction::new(Op::MGetRow, 1, 0, 5, [0.0; 2], [2, 0]),
                instr(Op::TsRank, 5, 0, 2),
                instr(Op::MStd, 1, 0, 3),
                instr(Op::SAdd, 2, 3, 1),
            ],
            update: vec![Instruction::nop()],
        };
        assert_engines_match(&prog, 0, 4);
    }

    #[test]
    fn columnar_state_persists_across_days() {
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let panel = DayMajorPanel::from_panel(ds.panel());
        let prog = AlphaProgram {
            setup: vec![Instruction::new(Op::SConst, 0, 0, 2, [1.0, 0.0], [0; 2])],
            predict: vec![instr(Op::SAdd, 1, 2, 1)],
            update: vec![Instruction::nop()],
        };
        let mut interp = Solo::new(&ds, &panel, &groups, 0, &prog);
        let mut out = vec![0.0; ds.n_stocks()];
        let start = ds.train_days().start;
        for (n, day) in (start..start + 5).enumerate() {
            interp.predict_day(day, &mut out);
            assert_eq!(out[0], (n + 1) as f64);
        }
    }

    #[test]
    fn columnar_reset_restores_initial_state() {
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let panel = DayMajorPanel::from_panel(ds.panel());
        let prog = AlphaProgram {
            setup: vec![Instruction::new(Op::SGauss, 0, 0, 2, [0.0, 1.0], [0; 2])],
            predict: vec![instr(Op::MMean, 0, 0, 3), instr(Op::SMul, 3, 2, 1)],
            update: vec![Instruction::nop()],
        };
        let mut interp = Solo::new(&ds, &panel, &groups, 42, &prog);
        let day = ds.train_days().start;
        let mut a = vec![0.0; ds.n_stocks()];
        interp.predict_day(day, &mut a);
        interp.reset();
        let mut b = vec![0.0; ds.n_stocks()];
        interp.predict_day(day, &mut b);
        assert_eq!(a, b, "reset + rerun must reproduce the stochastic stream");
    }

    /// Four planes of `n` values mixing NaN, ±inf, ±0 and finite values.
    fn special_planes(n: usize) -> Vec<f64> {
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -2.25,
            f64::MIN_POSITIVE,
            1e308,
        ];
        (0..4 * n)
            .map(|i| specials[(i * 7 + i / 5) % specials.len()])
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `(a, b, o)` plane offsets covering every aliasing case of a binary
    /// kernel over planes of `n`: in place on either or both operands,
    /// both operands one plane, and all disjoint (output below and above
    /// the inputs).
    fn alias_cases(n: usize) -> [(usize, usize, usize); 6] {
        [
            (n, 2 * n, n),
            (n, 2 * n, 2 * n),
            (n, n, n),
            (n, 2 * n, 3 * n),
            (2 * n, 3 * n, 0),
            (n, n, 3 * n),
        ]
    }

    #[test]
    fn ew2_matches_the_naive_loop_bitwise_in_every_alias_case() {
        let n = 11;
        let ops: [fn(f64, f64) -> f64; 5] =
            [|x, y| x + y, |x, y| x - y, |x, y| x / y, f64::min, f64::max];
        for (a, b, o) in alias_cases(n) {
            for f in ops {
                let mut naive = special_planes(n);
                for i in 0..n {
                    naive[o + i] = f(naive[a + i], naive[b + i]);
                }
                let mut split = special_planes(n);
                ew2(&mut split, n, a, b, o, f);
                assert_eq!(bits(&split), bits(&naive), "a={a} b={b} o={o}");
            }
        }
    }

    #[test]
    fn ew1_matches_the_naive_loop_bitwise_in_place_and_disjoint() {
        let n = 11;
        for (a, o) in [(n, n), (n, 2 * n), (2 * n, 0)] {
            for f in [f64::abs, |x: f64| 1.0 / x] {
                let mut naive = special_planes(n);
                for i in 0..n {
                    naive[o + i] = f(naive[a + i]);
                }
                let mut split = special_planes(n);
                ew1(&mut split, n, a, o, f);
                assert_eq!(bits(&split), bits(&naive), "a={a} o={o}");
            }
        }
    }

    #[test]
    fn plane_scaling_matches_the_naive_loop_bitwise() {
        let (d, k) = (3, 4);
        let n = d * k;
        let sa: Vec<f64> = special_planes(k)[..k].to_vec();
        for (b, o) in [(n, n), (n, 2 * n), (2 * n, 0)] {
            let mut naive = special_planes(n);
            for e in 0..d {
                for i in 0..k {
                    naive[o + e * k + i] = sa[i] * naive[b + e * k + i];
                }
            }
            let mut split = special_planes(n);
            scale_planes(&mut split, n, b, o, &sa);
            assert_eq!(bits(&split), bits(&naive), "b={b} o={o}");
        }
    }

    #[test]
    fn fused_outer_add_matches_outer_then_add_bitwise() {
        let (d, k) = (3, 4);
        let (dk, d2k) = (d * k, d * d * k);
        // Vector buffer: u at 0, v at dk (and u ⊗ u with v = u).
        let vs: Vec<f64> = special_planes(dk)[dk..3 * dk].to_vec();
        for (u, v) in [(0, dk), (dk, 0), (0, 0)] {
            for (x, o) in [(d2k, d2k), (d2k, 2 * d2k), (2 * d2k, 0)] {
                for outer_first in [false, true] {
                    let add: fn(f64, f64) -> f64 = if outer_first {
                        |x, t| t + x
                    } else {
                        |x, t| x + t
                    };
                    let mut naive = special_planes(d2k);
                    let mut t = vec![0.0; d2k];
                    for r in 0..d {
                        for c in 0..d {
                            for i in 0..k {
                                t[(r * d + c) * k + i] = vs[u + r * k + i] * vs[v + c * k + i];
                            }
                        }
                    }
                    for (e, &t) in t.iter().enumerate() {
                        let x = naive[x + e];
                        naive[o + e] = add(x, t);
                    }
                    let mut fused = special_planes(d2k);
                    let (out, [src]) = split_out(&mut fused, d2k, o, [x]);
                    outer_add_planes(out, src, &vs, u, v, d, k, add);
                    assert_eq!(
                        bits(&fused),
                        bits(&naive),
                        "u={u} v={v} x={x} o={o} outer_first={outer_first}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn partly_overlapping_planes_are_refused() {
        let mut buf = vec![0.0; 40];
        ew2(&mut buf, 10, 5, 20, 0, |x, y| x + y);
    }

    #[test]
    fn update_changes_inference_via_parameters() {
        // Update accumulates labels into s3; predict uses it. With updates
        // the prediction drifts; without (ablation) it stays fixed.
        let ds = tiny_dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let cfg = cfg();
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![instr(Op::MMean, 0, 0, 2), instr(Op::SAdd, 2, 3, 1)],
            update: vec![instr(Op::SAdd, 3, 0, 3)], // s3 += label
        };
        let run = |run_update: bool| {
            let mut interp = Interpreter::new(&cfg, &ds, &groups, 0);
            interp.run_setup(&prog);
            for day in ds.train_days() {
                interp.train_day(&prog, day, run_update);
            }
            let mut out = vec![0.0; ds.n_stocks()];
            interp.predict_day(&prog, ds.valid_days().start, &mut out);
            out
        };
        let with = run(true);
        let without = run(false);
        assert_ne!(with, without, "parameters must influence inference");
    }
}
