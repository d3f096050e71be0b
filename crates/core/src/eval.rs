//! Candidate evaluation: train one epoch, score the Information
//! Coefficient on the validation cross-sections (paper Eq. 1).
//!
//! Invalid-value policy follows AutoML-Zero: operations are unprotected, and
//! any candidate whose validation predictions contain a non-finite value is
//! killed (fitness `None`) — the evaluator aborts the validation sweep at
//! the first bad day instead of clamping.
//!
//! # The zero-allocation hot path
//!
//! Evaluation throughput bounds search quality (§4.2: one-epoch training,
//! pruning, fingerprint cache), so the hot path is built around reusable
//! state instead of per-candidate construction:
//!
//! * label cross-sections are precomputed once as flat
//!   [`CrossSections`] panels, and the stock-major input panel
//!   ([`DayMajorPanel`]) is transposed once — both shared behind `Arc`
//!   (cloning an [`Evaluator`] via [`Evaluator::with_options`] shares,
//!   not copies);
//! * each worker owns one [`EvalArena`] — a [`ColumnarInterpreter`] plus
//!   compile buffers and prediction/return/ranking scratch — reset via
//!   [`ColumnarInterpreter::reset`] between candidates rather than
//!   reconstructed;
//! * each candidate is lowered once per evaluation by
//!   [`compile_into`](crate::compile::compile_into()) (dead code stripped,
//!   register offsets resolved) and then executed columnar: the `Op`
//!   dispatch runs once per instruction, not once per instruction × stock;
//! * [`Evaluator::evaluate_in`] runs one candidate through an arena with
//!   **zero heap allocations** (asserted by the `hot_path_alloc`
//!   integration test): predictions land in the arena's flat panel, the IC
//!   streams without collecting, and portfolio returns fill a reused
//!   buffer.
//!
//! [`Evaluator::evaluate`] remains as a convenience wrapper that builds a
//! throwaway arena.
//!
//! # Batched evaluation
//!
//! [`Evaluator::evaluate_batch_in`] scores a *tile* of up to `B`
//! candidates per training sweep through a [`BatchArena`]: each day's
//! feature cells that some slot can read (the union of the slots'
//! [`CompiledProgram::input_cells`]) are loaded into the tile's shared
//! `m0` plane once and every slot's function bodies run against it
//! before the sweep advances, amortizing the panel copies across the
//! batch (the same shape the serving layer proved with `AlphaServer`).
//! The contract is strict bit-identity with the sequential path: per-slot
//! register planes, RNG streams, and `rel_lane` state are fully private
//! (see [`BatchInterpreter`] for the tile layout), so every candidate's
//! fitness, validation returns, and RNG streams are bitwise equal to what
//! [`Evaluator::evaluate_prepared_in`] produces for it alone.

use std::sync::Arc;

use alphaevolve_backtest::metrics::{information_coefficient, sharpe_ratio};
use alphaevolve_backtest::portfolio::{
    long_short_returns, long_short_returns_into, LongShortConfig,
};
use alphaevolve_backtest::CrossSections;
use alphaevolve_market::{Dataset, DayMajorPanel};

use crate::compile::{compile_into, relocate_for_slot, writes_m0, CompileScratch, CompiledProgram};
use crate::config::AlphaConfig;
use crate::interp::{BatchInterpreter, ColumnarInterpreter};
use crate::program::AlphaProgram;
use crate::relation::GroupIndex;

/// Evaluation policy knobs.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Training epochs during search. The paper trains one epoch "for fast
    /// evaluation" (§5.2).
    pub train_epochs: usize,
    /// Run the parameter-updating function during training. `false` is the
    /// paper's `_P` ablation (Table 4).
    pub run_update: bool,
    /// Long-short books used for the validation portfolio returns (the
    /// correlation-cutoff signal) and test backtests.
    pub long_short: LongShortConfig,
    /// Seed of the per-stock RNG streams used by stochastic ops.
    pub seed: u64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            train_epochs: 1,
            run_update: true,
            long_short: LongShortConfig {
                k_long: 10,
                k_short: 10,
            },
            seed: 0,
        }
    }
}

/// Result of scoring one candidate on the validation set.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Fitness: validation IC, or `None` when predictions went non-finite.
    pub fitness: Option<f64>,
    /// The IC value (0 when invalid).
    pub ic: f64,
    /// Daily long-short portfolio returns on the validation set (empty
    /// when invalid). Input to the weak-correlation gate.
    pub val_returns: Vec<f64>,
}

/// Metrics of one split in a full backtest.
#[derive(Debug, Clone)]
pub struct SplitMetrics {
    /// Mean daily cross-sectional Pearson IC.
    pub ic: f64,
    /// Annualized Sharpe ratio of the long-short portfolio.
    pub sharpe: f64,
    /// Daily long-short portfolio returns.
    pub returns: Vec<f64>,
}

/// Validation + test metrics for a finished alpha.
#[derive(Debug, Clone)]
pub struct BacktestReport {
    /// Metrics on the validation days.
    pub val: SplitMetrics,
    /// Metrics on the held-out test days.
    pub test: SplitMetrics,
}

/// Flat label cross-sections for a day range of a dataset. The GP baseline
/// keeps a private twin (`alphaevolve_gp::engine::labels` — gp does not
/// depend on this crate); keep the two constructions in sync.
pub fn labels_cross_sections(dataset: &Dataset, days: std::ops::Range<usize>) -> CrossSections {
    let start = days.start;
    CrossSections::from_fn(days.len(), dataset.n_stocks(), |d, s| {
        dataset.label(s, start + d)
    })
}

/// Per-worker evaluation state: one interpreter plus prediction, return
/// and ranking scratch. Create once per worker with [`Evaluator::arena`],
/// then feed every candidate through [`Evaluator::evaluate_in`] — after
/// the buffers reach their high-water mark (first candidate), evaluation
/// performs no heap allocation.
pub struct EvalArena<'a> {
    interp: ColumnarInterpreter<'a>,
    compiled: CompiledProgram,
    compile_scratch: CompileScratch,
    preds: CrossSections,
    returns: Vec<f64>,
    rank_scratch: Vec<usize>,
    spans: crate::telemetry::EvalSpans,
}

impl EvalArena<'_> {
    /// The validation long-short returns of the last candidate evaluated
    /// (empty when that candidate was invalid). Borrow this for the
    /// weak-correlation gate instead of cloning.
    pub fn val_returns(&self) -> &[f64] {
        &self.returns
    }

    /// Moves the last candidate's validation returns out (the buffer is
    /// replaced by an empty one — only do this off the hot path).
    pub fn take_val_returns(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.returns)
    }

    /// Captures the interpreter's per-stock RNG stream states (test hook
    /// for the batched-evaluation RNG-stream contract).
    pub fn rng_states_into(&self, out: &mut Vec<[u64; 4]>) {
        self.interp.rng_states_into(out);
    }

    /// Takes the span timers and rank-cache counts accumulated since the
    /// last call (all zeros without the `obs` feature). Alloc-free.
    pub fn drain_telemetry(&mut self) -> crate::telemetry::EvalSpans {
        self.spans.absorb_rank_stats(self.interp.take_rank_stats());
        self.spans.drain()
    }
}

/// One candidate's slot in a [`BatchArena`]: its relocated compiled
/// program plus private prediction/return buffers and per-tile results.
struct BatchSlot {
    compiled: CompiledProgram,
    preds: CrossSections,
    returns: Vec<f64>,
    fitness: Option<f64>,
    skip_training: bool,
    /// Whether the slot reads the tile's shared `m0` plane directly
    /// (its program never writes `m0`) or owns a staged private copy.
    share_m0: bool,
    live: bool,
}

/// Per-worker *batched* evaluation state: one [`BatchInterpreter`] tile of
/// `B` slots plus per-slot compile/prediction/return buffers. Create once
/// per worker with [`Evaluator::batch_arena`], fill with
/// [`BatchArena::push`], score the whole tile with
/// [`Evaluator::evaluate_batch_in`], read results per slot, then
/// [`BatchArena::clear`] and refill — allocation-free once every buffer
/// has hit its high-water mark (partially-filled tiles included, pinned
/// by `tests/hot_path_alloc.rs`).
pub struct BatchArena<'a> {
    interp: BatchInterpreter<'a>,
    slots: Vec<BatchSlot>,
    compile_scratch: CompileScratch,
    rank_scratch: Vec<usize>,
    filled: usize,
    /// Union of the filled slots' [`CompiledProgram::input_cells`]: the
    /// `m0` cells the tile loads each day. Recomputed per tile.
    input_cells: Vec<bool>,
    cfg: AlphaConfig,
    n_stocks: usize,
    spans: crate::telemetry::EvalSpans,
}

impl BatchArena<'_> {
    /// Compiles `prog` into the next free slot (lower + m0-clobber
    /// analysis + per-slot offset relocation) and returns its slot index.
    /// `skip_training` must only be `true` for stateless programs, exactly
    /// as for [`Evaluator::evaluate_prepared_in`].
    ///
    /// # Panics
    /// If the tile is already full ([`BatchArena::is_full`]).
    pub fn push(&mut self, prog: &AlphaProgram, skip_training: bool) -> usize {
        assert!(self.filled < self.slots.len(), "tile is full");
        let t = crate::telemetry::mark();
        let slot = self.filled;
        let s = &mut self.slots[slot];
        compile_into(
            prog,
            &self.cfg,
            self.n_stocks,
            &mut self.compile_scratch,
            &mut s.compiled,
        );
        s.share_m0 = !writes_m0(&s.compiled);
        relocate_for_slot(&mut s.compiled, &self.cfg, self.n_stocks, slot, s.share_m0);
        s.skip_training = skip_training;
        s.fitness = None;
        s.live = false;
        self.filled += 1;
        self.spans.compile_ns.add(t.elapsed_ns());
        self.spans.candidates.inc();
        slot
    }

    /// Empties the tile (slot buffers keep their capacity).
    pub fn clear(&mut self) {
        self.filled = 0;
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether no slot is filled.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Tile capacity `B`.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether every slot is filled.
    pub fn is_full(&self) -> bool {
        self.filled == self.slots.len()
    }

    /// Slot `slot`'s fitness from the last [`Evaluator::evaluate_batch_in`]:
    /// `Some(validation IC)`, or `None` when its predictions went
    /// non-finite.
    pub fn fitness(&self, slot: usize) -> Option<f64> {
        self.slots[slot].fitness
    }

    /// Slot `slot`'s validation long-short returns from the last
    /// evaluation (empty when the candidate was invalid).
    pub fn val_returns(&self, slot: usize) -> &[f64] {
        &self.slots[slot].returns
    }

    /// Captures slot `slot`'s per-stock RNG stream states (test hook for
    /// the RNG-stream contract).
    pub fn rng_states_into(&self, slot: usize, out: &mut Vec<[u64; 4]>) {
        self.interp.rng_states_into_slot(slot, out);
    }

    /// Takes the span timers and rank-cache counts accumulated since the
    /// last call (all zeros without the `obs` feature). Alloc-free.
    pub fn drain_telemetry(&mut self) -> crate::telemetry::EvalSpans {
        self.spans.absorb_rank_stats(self.interp.take_rank_stats());
        self.spans.drain()
    }
}

/// Scores alpha programs against one dataset. Cheap to share across
/// threads (`&self` evaluation; the dataset lives behind an `Arc`, label
/// panels behind `Arc<CrossSections>`).
pub struct Evaluator {
    cfg: AlphaConfig,
    opts: EvalOptions,
    dataset: Arc<Dataset>,
    day_major: Arc<DayMajorPanel>,
    groups: GroupIndex,
    val_labels: Arc<CrossSections>,
    test_labels: Arc<CrossSections>,
}

impl Evaluator {
    /// Builds an evaluator; precomputes label cross-sections and the
    /// stock-major input panel consumed by the columnar interpreter.
    pub fn new(cfg: AlphaConfig, opts: EvalOptions, dataset: Arc<Dataset>) -> Evaluator {
        cfg.validate();
        let groups = GroupIndex::from_universe(dataset.universe());
        let day_major = Arc::new(DayMajorPanel::from_panel(dataset.panel()));
        let val_labels = Arc::new(labels_cross_sections(&dataset, dataset.valid_days()));
        let test_labels = Arc::new(labels_cross_sections(&dataset, dataset.test_days()));
        Evaluator {
            cfg,
            opts,
            dataset,
            day_major,
            groups,
            val_labels,
            test_labels,
        }
    }

    /// The search-space configuration in force.
    pub fn config(&self) -> &AlphaConfig {
        &self.cfg
    }

    /// The evaluation options in force.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// The dataset being evaluated against.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The precomputed validation label panel.
    pub fn val_labels(&self) -> &CrossSections {
        &self.val_labels
    }

    /// Replaces the evaluation options (used by the `_P` ablation). Label
    /// and input panels are shared with the parent, not deep-cloned.
    pub fn with_options(&self, opts: EvalOptions) -> Evaluator {
        Evaluator {
            cfg: self.cfg,
            opts,
            dataset: Arc::clone(&self.dataset),
            day_major: Arc::clone(&self.day_major),
            groups: self.groups.clone(),
            val_labels: Arc::clone(&self.val_labels),
            test_labels: Arc::clone(&self.test_labels),
        }
    }

    /// Builds a reusable per-worker evaluation arena. This is the only
    /// place interpreter state is allocated; candidates then flow through
    /// [`Evaluator::evaluate_in`] allocation-free.
    pub fn arena(&self) -> EvalArena<'_> {
        let val = self.dataset.valid_days().len();
        let test = self.dataset.test_days().len();
        let days = val.max(test);
        let k = self.dataset.n_stocks();
        EvalArena {
            interp: ColumnarInterpreter::new(
                &self.cfg,
                &self.dataset,
                &self.day_major,
                &self.groups,
                self.opts.seed,
            ),
            compiled: CompiledProgram::with_capacity(&self.cfg),
            compile_scratch: CompileScratch::default(),
            preds: CrossSections::new(days, k),
            returns: Vec::with_capacity(days),
            rank_scratch: Vec::with_capacity(k),
            spans: crate::telemetry::EvalSpans::default(),
        }
    }

    /// `Setup()` plus the training epochs (skipped entirely when
    /// `skip_training` — the §4.2 stateless-alpha shortcut).
    fn train(
        &self,
        interp: &mut ColumnarInterpreter<'_>,
        prog: &CompiledProgram,
        skip_training: bool,
    ) {
        interp.run_setup(prog);
        if skip_training {
            return;
        }
        for _ in 0..self.opts.train_epochs {
            for day in self.dataset.train_days() {
                interp.train_day(prog, day, self.opts.run_update);
            }
        }
    }

    /// Predict-only sweep over `days` into the flat `preds` panel; returns
    /// whether every prediction stayed finite. When `abort_on_invalid`,
    /// the first bad day is marked invalid in the panel (nothing is copied
    /// or truncated) and the sweep stops there.
    fn sweep(
        &self,
        interp: &mut ColumnarInterpreter<'_>,
        prog: &CompiledProgram,
        days: std::ops::Range<usize>,
        abort_on_invalid: bool,
        preds: &mut CrossSections,
    ) -> bool {
        let k = self.dataset.n_stocks();
        preds.reset(days.len(), k);
        for (i, day) in days.enumerate() {
            let row = preds.row_mut(i);
            interp.predict_day(prog, day, row);
            if abort_on_invalid && !row.iter().all(|x| x.is_finite()) {
                preds.invalidate_day(i);
                return false;
            }
        }
        true
    }

    /// Scores a candidate (expected to be the *pruned* program, which is
    /// what the search evaluates): one training pass, then validation IC
    /// and portfolio returns.
    pub fn evaluate(&self, prog: &AlphaProgram) -> Evaluation {
        self.evaluate_opt(prog, true)
    }

    /// [`Evaluator::evaluate`] with the stateless-skip optimization made
    /// explicit (pass `false` from pipelines that must not use any
    /// pruning-derived analysis, such as the Table-6 `_N` baseline).
    pub fn evaluate_opt(&self, prog: &AlphaProgram, allow_stateless_skip: bool) -> Evaluation {
        let mut arena = self.arena();
        let fitness = self.evaluate_opt_in(&mut arena, prog, allow_stateless_skip);
        Evaluation {
            fitness,
            ic: fitness.unwrap_or(0.0),
            val_returns: arena.take_val_returns(),
        }
    }

    /// Scores a candidate in a reusable arena: fitness is `Some(validation
    /// IC)`, or `None` when predictions went non-finite. The validation
    /// portfolio returns stay in the arena ([`EvalArena::val_returns`]).
    /// Allocation-free once the arena is warm.
    pub fn evaluate_in(&self, arena: &mut EvalArena<'_>, prog: &AlphaProgram) -> Option<f64> {
        self.evaluate_opt_in(arena, prog, true)
    }

    /// [`Evaluator::evaluate_in`] with the stateless-skip optimization
    /// made explicit.
    pub fn evaluate_opt_in(
        &self,
        arena: &mut EvalArena<'_>,
        prog: &AlphaProgram,
        allow_stateless_skip: bool,
    ) -> Option<f64> {
        let skip = allow_stateless_skip && !crate::prune::liveness(prog).stateful;
        self.evaluate_prepared_in(arena, prog, skip)
    }

    /// The lowest-level entry: the caller has already decided whether the
    /// training sweep may be skipped (e.g. the evolution pipeline knows
    /// `stateful` from the fingerprint pruning pass and avoids
    /// re-analyzing). `skip_training` must only be `true` for stateless
    /// programs, whose predictions are provably identical either way.
    pub fn evaluate_prepared_in(
        &self,
        arena: &mut EvalArena<'_>,
        prog: &AlphaProgram,
        skip_training: bool,
    ) -> Option<f64> {
        let EvalArena {
            interp,
            compiled,
            compile_scratch,
            preds,
            returns,
            rank_scratch,
            spans,
        } = arena;
        let t = crate::telemetry::mark();
        compile_into(
            prog,
            &self.cfg,
            self.dataset.n_stocks(),
            compile_scratch,
            compiled,
        );
        spans.compile_ns.add(t.elapsed_ns());
        spans.candidates.inc();
        let prog = &*compiled;
        interp.reset();
        let t = crate::telemetry::mark();
        self.train(interp, prog, skip_training);
        spans.train_ns.add(t.elapsed_ns());
        let t = crate::telemetry::mark();
        let ok = self.sweep(interp, prog, self.dataset.valid_days(), true, preds);
        spans.predict_ns.add(t.elapsed_ns());
        if !ok {
            returns.clear();
            return None;
        }
        let ic = information_coefficient(preds, &self.val_labels);
        long_short_returns_into(
            preds,
            &self.val_labels,
            &self.opts.long_short,
            rank_scratch,
            returns,
        );
        Some(ic)
    }

    /// Builds a reusable batched evaluation arena with `batch` tile slots
    /// (clamped to at least 1). See [`BatchArena`].
    pub fn batch_arena(&self, batch: usize) -> BatchArena<'_> {
        let batch = batch.max(1);
        let k = self.dataset.n_stocks();
        let n_days = self.dataset.valid_days().len();
        BatchArena {
            interp: BatchInterpreter::new(
                &self.cfg,
                &self.dataset,
                &self.day_major,
                &self.groups,
                self.opts.seed,
                batch,
            ),
            slots: (0..batch)
                .map(|_| BatchSlot {
                    compiled: CompiledProgram::with_capacity(&self.cfg),
                    preds: CrossSections::new(n_days, k),
                    returns: Vec::with_capacity(n_days),
                    fitness: None,
                    skip_training: false,
                    share_m0: true,
                    live: false,
                })
                .collect(),
            compile_scratch: CompileScratch::default(),
            rank_scratch: Vec::with_capacity(k),
            filled: 0,
            input_cells: vec![false; self.cfg.dim * self.cfg.dim],
            cfg: self.cfg,
            n_stocks: k,
            spans: crate::telemetry::EvalSpans::default(),
        }
    }

    /// Scores every filled slot of the tile in **one** day-major sweep:
    /// each training/validation day's feature panel is loaded once and
    /// dispatched across all slots before the sweep advances. Results land
    /// per slot ([`BatchArena::fitness`], [`BatchArena::val_returns`]) and
    /// are bit-identical to running each candidate alone through
    /// [`Evaluator::evaluate_prepared_in`] — including RNG streams,
    /// invalid-day aborts (a dead slot stops executing at its first
    /// non-finite day, exactly like the sequential abort), and the
    /// stateless `skip_training` shortcut per slot. Allocation-free once
    /// the arena is warm. A no-op on an empty tile.
    pub fn evaluate_batch_in(&self, arena: &mut BatchArena<'_>) {
        let BatchArena {
            interp,
            slots,
            rank_scratch,
            filled,
            input_cells,
            spans,
            ..
        } = arena;
        let filled = *filled;
        let k = self.dataset.n_stocks();

        // The tile loads only the m0 cells some slot can read.
        input_cells.fill(false);
        for s in &slots[..filled] {
            for (u, &c) in input_cells.iter_mut().zip(&s.compiled.input_cells) {
                *u |= c;
            }
        }
        let input_cells = &*input_cells;
        let load_bytes = (input_cells.iter().filter(|&&c| c).count() * k * 8) as u64;

        // Sequential evaluation starts from a zeroed register file, so a
        // Setup() body reading m0 must see zeros, not a stale panel.
        interp.reset_shared_input(input_cells);
        let t = crate::telemetry::mark();
        for (b, s) in slots[..filled].iter_mut().enumerate() {
            interp.reset_slot(b);
            interp.debug_assert_slot_clean(b);
            interp.run_function_slot(b, &s.compiled.setup);
            s.live = true;
        }
        spans.train_ns.add(t.elapsed_ns());

        // Training sweep: one shared panel load per day, program-major
        // inner walk across the training slots.
        if slots[..filled].iter().any(|s| !s.skip_training) {
            for _ in 0..self.opts.train_epochs {
                for day in self.dataset.train_days() {
                    let t = crate::telemetry::mark();
                    interp.load_day(day, input_cells);
                    spans.load_day_ns.add(t.elapsed_ns());
                    spans.load_day_bytes.add(load_bytes);
                    for (b, s) in slots[..filled].iter().enumerate() {
                        if s.skip_training {
                            continue;
                        }
                        if !s.share_m0 {
                            interp.stage_private_m0(b);
                        }
                        let t = crate::telemetry::mark();
                        interp.run_function_slot(b, &s.compiled.predict);
                        spans.predict_ns.add(t.elapsed_ns());
                        if self.opts.run_update {
                            let t = crate::telemetry::mark();
                            interp.load_labels_slot(b, day);
                            interp.run_function_slot(b, &s.compiled.update);
                            spans.update_ns.add(t.elapsed_ns());
                        }
                    }
                }
            }
        }

        // Validation sweep, aborting dead slots at their first bad day.
        let days = self.dataset.valid_days();
        let n_days = days.len();
        for s in &mut slots[..filled] {
            s.preds.reset(n_days, k);
        }
        for (i, day) in days.enumerate() {
            if slots[..filled].iter().all(|s| !s.live) {
                break;
            }
            let t = crate::telemetry::mark();
            interp.load_day(day, input_cells);
            spans.load_day_ns.add(t.elapsed_ns());
            spans.load_day_bytes.add(load_bytes);
            for (b, s) in slots[..filled].iter_mut().enumerate() {
                if !s.live {
                    continue;
                }
                if !s.share_m0 {
                    interp.stage_private_m0(b);
                }
                let t = crate::telemetry::mark();
                interp.run_function_slot(b, &s.compiled.predict);
                let row = s.preds.row_mut(i);
                interp.read_predictions_slot(b, row);
                spans.predict_ns.add(t.elapsed_ns());
                if !row.iter().all(|x| x.is_finite()) {
                    s.preds.invalidate_day(i);
                    s.live = false;
                }
            }
        }

        for s in &mut slots[..filled] {
            if s.live {
                let ic = information_coefficient(&s.preds, &self.val_labels);
                long_short_returns_into(
                    &s.preds,
                    &self.val_labels,
                    &self.opts.long_short,
                    rank_scratch,
                    &mut s.returns,
                );
                s.fitness = Some(ic);
            } else {
                s.returns.clear();
                s.fitness = None;
            }
        }
    }

    /// Full backtest of a finished alpha: train, then predict-only through
    /// the validation days (keeping recurrent state contiguous) and the
    /// held-out test days. Non-finite predictions are tolerated here (the
    /// portfolio treats those stocks as untradeable) so even a degenerate
    /// alpha gets a report.
    pub fn backtest(&self, prog: &AlphaProgram) -> BacktestReport {
        let mut arena = self.arena();
        self.backtest_in(&mut arena, prog)
    }

    /// [`Evaluator::backtest`] against a reusable arena.
    pub fn backtest_in(&self, arena: &mut EvalArena<'_>, prog: &AlphaProgram) -> BacktestReport {
        let EvalArena {
            interp,
            compiled,
            compile_scratch,
            preds,
            ..
        } = arena;
        compile_into(
            prog,
            &self.cfg,
            self.dataset.n_stocks(),
            compile_scratch,
            compiled,
        );
        let skip = !crate::prune::liveness(prog).stateful;
        let prog = &*compiled;
        interp.reset();
        self.train(interp, prog, skip);
        let split = |preds: &CrossSections, labels: &CrossSections| {
            let returns = long_short_returns(preds, labels, &self.opts.long_short);
            SplitMetrics {
                ic: information_coefficient(preds, labels),
                sharpe: sharpe_ratio(&returns),
                returns,
            }
        };
        self.sweep(interp, prog, self.dataset.valid_days(), false, preds);
        let val = split(preds, &self.val_labels);
        self.sweep(interp, prog, self.dataset.test_days(), false, preds);
        let test = split(preds, &self.test_labels);
        BacktestReport { val, test }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::instruction::Instruction;
    use crate::op::Op;
    use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, SplitSpec};

    fn evaluator(seed: u64) -> Evaluator {
        let md = MarketConfig {
            n_stocks: 24,
            n_days: 200,
            seed,
            ..Default::default()
        }
        .generate();
        let ds = Dataset::build(&md, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap();
        Evaluator::new(
            AlphaConfig::default(),
            EvalOptions {
                long_short: LongShortConfig::scaled(24),
                ..Default::default()
            },
            Arc::new(ds),
        )
    }

    #[test]
    fn domain_expert_alpha_scores_finite_ic() {
        let ev = evaluator(1);
        let prog = init::domain_expert(ev.config());
        let e = ev.evaluate(&prog);
        assert!(e.fitness.is_some(), "expert alpha must be valid");
        assert!(e.ic.abs() < 1.0);
        assert_eq!(e.val_returns.len(), ev.dataset().valid_days().len());
    }

    #[test]
    fn invalid_alpha_is_killed() {
        let ev = evaluator(2);
        // s1 = ln(-|m0 mean| - 1) -> NaN everywhere.
        let prog = AlphaProgram {
            setup: vec![Instruction::new(Op::SConst, 0, 0, 3, [-1.0, 0.0], [0; 2])],
            predict: vec![
                Instruction::new(Op::MMean, 0, 0, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SAbs, 2, 0, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SMul, 2, 3, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SAdd, 2, 3, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SLn, 2, 0, 1, [0.0; 2], [0; 2]),
            ],
            update: vec![Instruction::nop()],
        };
        let e = ev.evaluate(&prog);
        assert!(e.fitness.is_none());
        assert!(e.val_returns.is_empty());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let ev = evaluator(3);
        let prog = init::two_layer_nn(ev.config());
        let a = ev.evaluate(&prog);
        let b = ev.evaluate(&prog);
        assert_eq!(a.ic, b.ic);
        assert_eq!(a.val_returns, b.val_returns);
    }

    #[test]
    fn arena_reuse_matches_fresh_arenas() {
        // One arena fed a mix of candidates scores each exactly like a
        // throwaway arena: reset() fully isolates candidates.
        let ev = evaluator(7);
        let progs = [
            init::domain_expert(ev.config()),
            init::two_layer_nn(ev.config()),
            init::industry_reversal(ev.config()),
            init::domain_expert(ev.config()),
        ];
        let mut arena = ev.arena();
        for prog in &progs {
            let shared = ev.evaluate_in(&mut arena, prog);
            let shared_returns = arena.val_returns().to_vec();
            let fresh = ev.evaluate(prog);
            assert_eq!(shared, fresh.fitness);
            assert_eq!(shared_returns, fresh.val_returns);
        }
    }

    #[test]
    fn arena_clears_returns_for_invalid_candidates() {
        let ev = evaluator(8);
        let good = init::domain_expert(ev.config());
        let bad = AlphaProgram {
            setup: vec![Instruction::new(Op::SConst, 0, 0, 3, [-1.0, 0.0], [0; 2])],
            predict: vec![
                Instruction::new(Op::MMean, 0, 0, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SAbs, 2, 0, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SMul, 2, 3, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SAdd, 2, 3, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SLn, 2, 0, 1, [0.0; 2], [0; 2]),
            ],
            update: vec![Instruction::nop()],
        };
        let mut arena = ev.arena();
        assert!(ev.evaluate_in(&mut arena, &good).is_some());
        assert!(!arena.val_returns().is_empty());
        assert!(ev.evaluate_in(&mut arena, &bad).is_none());
        assert!(
            arena.val_returns().is_empty(),
            "stale returns must not leak into the gate"
        );
    }

    #[test]
    fn with_options_shares_label_panels() {
        let ev = evaluator(9);
        let other = ev.with_options(EvalOptions {
            run_update: false,
            long_short: ev.options().long_short,
            ..Default::default()
        });
        assert!(
            std::ptr::eq(ev.val_labels(), other.val_labels()),
            "labels must be shared, not deep-cloned"
        );
    }

    #[test]
    fn backtest_reports_both_splits() {
        let ev = evaluator(4);
        let prog = init::domain_expert(ev.config());
        let r = ev.backtest(&prog);
        assert_eq!(r.val.returns.len(), ev.dataset().valid_days().len());
        assert_eq!(r.test.returns.len(), ev.dataset().test_days().len());
        assert!(r.val.ic.is_finite() && r.test.ic.is_finite());
        assert!(r.val.sharpe.is_finite() && r.test.sharpe.is_finite());
    }

    #[test]
    fn industry_reversal_seed_finds_the_planted_relational_signal() {
        // The generator plants an industry-relative 5-day reversal; the
        // RelationOp-based expert seed is built to harvest exactly that,
        // so its IC must be clearly positive — this is the end-to-end
        // proof that RelationOps expose cross-sectional structure.
        let md = MarketConfig {
            n_stocks: 60,
            n_days: 300,
            seed: 77,
            ..Default::default()
        }
        .generate();
        let ds = Dataset::build(&md, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap();
        let ev = Evaluator::new(
            AlphaConfig::default(),
            EvalOptions {
                long_short: LongShortConfig::scaled(60),
                ..Default::default()
            },
            Arc::new(ds),
        );
        let e = ev.evaluate(&init::industry_reversal(ev.config()));
        assert!(e.ic > 0.05, "industry-reversal seed IC {} too low", e.ic);
    }

    #[test]
    fn ablation_changes_scores_for_parameterized_alpha() {
        let ev = evaluator(5);
        let prog = init::two_layer_nn(ev.config());
        let with = ev.evaluate(&prog);
        let without = ev.with_options(EvalOptions {
            run_update: false,
            long_short: ev.options().long_short,
            ..Default::default()
        });
        let ablated = without.evaluate(&prog);
        // The NN's whole signal comes from trained weights; ablating the
        // update function must change (typically destroy) its predictions.
        assert_ne!(with.ic, ablated.ic);
    }
}
