//! Candidate evaluation: train one epoch, score the Information
//! Coefficient on the validation cross-sections (paper Eq. 1).
//!
//! Invalid-value policy follows AutoML-Zero: operations are unprotected, and
//! any candidate whose validation predictions contain a non-finite value is
//! killed (fitness `None`) — the evaluator aborts the validation sweep at
//! the first bad day instead of clamping.
//!
//! # One engine, one training loop
//!
//! Every evaluation runs through a [`BatchArena`]: a
//! [`BatchInterpreter`] tile of `B` slots plus per-slot compile,
//! prediction and return buffers (see [`BatchInterpreter`] for the tile
//! layout). [`Evaluator::train_batch_in`] is the one training loop —
//! reset of the planes each slot's program references, `Setup()`, then
//! one shared load per training day and each slot's predict and update
//! against it — behind all three callers:
//!
//! * [`Evaluator::evaluate_batch_in`], which the search feeds tiles of up
//!   to `B` candidates, then sweeps the validation days (a dead slot stops
//!   at its first non-finite day) and scores each slot's IC;
//! * [`Evaluator::evaluate`], [`Evaluator::evaluate_opt`] and
//!   [`Evaluator::backtest`], each a throwaway `B = 1` tile;
//! * the serving layer, which trains each archived program on one reused
//!   `B = 1` tile and predicts from the trained state.
//!
//! Each day loads only the feature cells some slot can read (the union of
//! the slots' [`CompiledProgram::input_cells`]) into the tile's shared
//! `m0` plane, once for the whole tile. Slots are fully private — register
//! planes, RNG streams, `rel_lane` state — so a candidate's fitness,
//! validation returns and RNG streams are the same bits in any slot of any
//! tile width.
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
//! * each worker owns one [`BatchArena`], whose slots are reset in place
//!   between tiles rather than reconstructed, and a reset zeroes only the
//!   register planes the slot's program references
//!   ([`CompiledProgram::footprint`]);
//! * each candidate is lowered once per evaluation by
//!   [`compile_into`](crate::compile::compile_into()) (dead code stripped,
//!   register offsets resolved and relocated onto its slot) and then
//!   executed columnar: the `Op` dispatch runs once per instruction, not
//!   once per instruction × stock;
//! * a warm arena scores a tile with **zero heap allocations** (asserted
//!   by the `hot_path_alloc` integration test): predictions land in each
//!   slot's flat panel, the IC streams without collecting, and portfolio
//!   returns fill a reused buffer.

use std::ops::Range;
use std::sync::Arc;

use alphaevolve_backtest::metrics::{information_coefficient, sharpe_ratio};
use alphaevolve_backtest::portfolio::{
    long_short_returns, long_short_returns_into, LongShortConfig,
};
use alphaevolve_backtest::CrossSections;
use alphaevolve_market::{Dataset, DayMajorPanel};

use crate::compile::{compile_into, relocate_for_slot, writes_m0, CompileScratch, CompiledProgram};
use crate::config::AlphaConfig;
use crate::interp::BatchInterpreter;
use crate::memory::RegisterFile;
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
pub fn labels_cross_sections(dataset: &Dataset, days: Range<usize>) -> CrossSections {
    let start = days.start;
    CrossSections::from_fn(days.len(), dataset.n_stocks(), |d, s| {
        dataset.label(s, start + d)
    })
}

/// One candidate's slot in a [`BatchArena`]: its relocated compiled
/// program plus private prediction/return buffers and per-tile results.
struct BatchSlot {
    compiled: CompiledProgram,
    preds: CrossSections,
    returns: Vec<f64>,
    fitness: Option<f64>,
    /// Days the last sweep predicted for this slot (all of them, or up
    /// to its first non-finite day).
    swept_days: usize,
    skip_training: bool,
    /// Whether the slot reads the tile's shared `m0` plane directly
    /// (its program never writes `m0`) or owns a staged private copy.
    share_m0: bool,
    live: bool,
}

/// Per-worker evaluation state: one [`BatchInterpreter`] tile of `B`
/// slots (`B = 1` for one candidate at a time) plus per-slot
/// compile/prediction/return buffers. Create once per worker with
/// [`Evaluator::batch_arena`], fill with [`BatchArena::push`], score the
/// whole tile with [`Evaluator::evaluate_batch_in`], read results per
/// slot, then [`BatchArena::clear`] and refill — allocation-free once
/// every buffer has hit its high-water mark (partially-filled tiles
/// included, pinned by `tests/hot_path_alloc.rs`).
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
    /// `skip_training` skips the training sweep (the §4.2 stateless-alpha
    /// shortcut); it must only be `true` for stateless programs, whose
    /// predictions are provably identical either way (the search knows
    /// `stateful` from its fingerprint pruning pass).
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

    /// Captures slot `slot`'s per-stock RNG stream states (the
    /// RNG-stream contract's test hook, and a server's post-training
    /// snapshot of a stochastic predict).
    pub fn rng_states_into(&self, slot: usize, out: &mut Vec<[u64; 4]>) {
        self.interp.rng_states_into_slot(slot, out);
    }

    /// The tile's register file: after [`Evaluator::train_batch_in`], a
    /// server reads the trained planes of slot 0 from it.
    pub fn registers(&self) -> &RegisterFile {
        self.interp.registers()
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

    /// The stock-major input panel every tile loads its days from.
    pub fn day_major(&self) -> &DayMajorPanel {
        &self.day_major
    }

    /// The dataset's sector/industry groups, for the RelationOps.
    pub fn groups(&self) -> &GroupIndex {
        &self.groups
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

    /// Counts `prog`'s op executions into `spans`: setup once, predict on
    /// `predict_days`, and update on every training day that ran it.
    fn count_ops(
        &self,
        spans: &mut crate::telemetry::EvalSpans,
        prog: &CompiledProgram,
        trained: bool,
        predict_days: usize,
    ) {
        let train_days = if trained {
            (self.opts.train_epochs * self.dataset.train_days().len()) as u64
        } else {
            0
        };
        let ops = &mut spans.op_executions;
        ops.add_body(&prog.setup, 1);
        ops.add_body(&prog.predict, train_days + predict_days as u64);
        if self.opts.run_update {
            ops.add_body(&prog.update, train_days);
        }
    }

    /// Scores a candidate (expected to be the *pruned* program, which is
    /// what the search evaluates): one training pass, then validation IC
    /// and portfolio returns.
    pub fn evaluate(&self, prog: &AlphaProgram) -> Evaluation {
        self.evaluate_opt(prog, true)
    }

    /// [`Evaluator::evaluate`] with the stateless-skip optimization made
    /// explicit (pass `false` from pipelines that must not use any
    /// pruning-derived analysis, such as the Table-6 `_N` baseline). Runs
    /// a throwaway `B = 1` tile; a caller scoring many candidates keeps a
    /// [`BatchArena`] instead.
    pub fn evaluate_opt(&self, prog: &AlphaProgram, allow_stateless_skip: bool) -> Evaluation {
        let mut arena = self.batch_arena(1);
        arena.push(
            prog,
            allow_stateless_skip && !crate::prune::liveness(prog).stateful,
        );
        self.evaluate_batch_in(&mut arena);
        let fitness = arena.fitness(0);
        Evaluation {
            fitness,
            ic: fitness.unwrap_or(0.0),
            val_returns: arena.val_returns(0).to_vec(),
        }
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
                    swept_days: 0,
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
    /// are bit-identical to the same candidate alone in a `B = 1` tile —
    /// including RNG streams, invalid-day aborts (a dead slot stops
    /// executing at its first non-finite day), and the stateless
    /// `skip_training` shortcut per slot. Allocation-free once the arena
    /// is warm. A no-op on an empty tile.
    pub fn evaluate_batch_in(&self, arena: &mut BatchArena<'_>) {
        self.train_batch_in(arena);
        self.sweep(arena, self.dataset.valid_days(), true);
        let BatchArena {
            slots,
            rank_scratch,
            filled,
            spans,
            ..
        } = arena;
        for s in &mut slots[..*filled] {
            self.count_ops(spans, &s.compiled, !s.skip_training, s.swept_days);
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

    /// The one training loop: resets every filled slot, runs its
    /// `Setup()`, then the training epochs — one shared load of the
    /// tile's input cells per day, and each training slot's predict and
    /// update against it. Slots pushed with `skip_training` run only
    /// `Setup()`. [`Evaluator::evaluate_batch_in`] and
    /// [`Evaluator::backtest`] continue from here; a server reads the
    /// trained planes ([`BatchArena::registers`]) and RNG streams
    /// ([`BatchArena::rng_states_into`]) of slot 0 and predicts from them.
    pub fn train_batch_in(&self, arena: &mut BatchArena<'_>) {
        let BatchArena {
            interp,
            slots,
            filled,
            input_cells,
            spans,
            ..
        } = arena;
        let slots = &mut slots[..*filled];

        // The tile loads only the m0 cells some slot can read.
        input_cells.fill(false);
        for s in &*slots {
            for (u, &c) in input_cells.iter_mut().zip(&s.compiled.input_cells) {
                *u |= c;
            }
        }
        let input_cells = &*input_cells;
        let load_bytes = self.load_bytes(input_cells);

        // Evaluation starts from zeroed registers: the shared m0 cells
        // the tile loads (a Setup() body reading m0 must see zeros, not a
        // stale panel) and each slot's footprint. No slot reads a plane
        // outside its footprint, so those keep stale values.
        interp.reset_shared_input(input_cells);
        let t = crate::telemetry::mark();
        for (b, s) in slots.iter_mut().enumerate() {
            spans
                .reset_bytes
                .add(interp.reset_slot(b, &s.compiled.footprint));
            interp.run_function_slot(b, &s.compiled.setup);
            s.live = true;
        }
        spans.train_ns.add(t.elapsed_ns());

        // Training sweep: one shared panel load per day, program-major
        // inner walk across the training slots.
        if slots.iter().all(|s| s.skip_training) {
            return;
        }
        for _ in 0..self.opts.train_epochs {
            for day in self.dataset.train_days() {
                let t = crate::telemetry::mark();
                interp.load_day(day, input_cells);
                spans.load_day_ns.add(t.elapsed_ns());
                spans.load_day_bytes.add(load_bytes);
                for (b, s) in slots.iter().enumerate() {
                    if s.skip_training {
                        continue;
                    }
                    if !s.share_m0 {
                        interp.stage_private_m0(b, input_cells);
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

    /// Predict-only sweep of every live slot over `days` into its flat
    /// `preds` panel, continuing from the state training (and any earlier
    /// sweep) left. When `abort_on_invalid`, a slot's first day with a
    /// non-finite prediction is marked invalid in its panel (nothing is
    /// copied or truncated) and the slot stops there.
    fn sweep(&self, arena: &mut BatchArena<'_>, days: Range<usize>, abort_on_invalid: bool) {
        let BatchArena {
            interp,
            slots,
            filled,
            input_cells,
            spans,
            ..
        } = arena;
        let slots = &mut slots[..*filled];
        let input_cells = &*input_cells;
        let load_bytes = self.load_bytes(input_cells);
        let k = self.dataset.n_stocks();
        for s in &mut *slots {
            s.preds.reset(days.len(), k);
            s.swept_days = days.len();
        }
        for (i, day) in days.enumerate() {
            if slots.iter().all(|s| !s.live) {
                break;
            }
            let t = crate::telemetry::mark();
            interp.load_day(day, input_cells);
            spans.load_day_ns.add(t.elapsed_ns());
            spans.load_day_bytes.add(load_bytes);
            for (b, s) in slots.iter_mut().enumerate() {
                if !s.live {
                    continue;
                }
                if !s.share_m0 {
                    interp.stage_private_m0(b, input_cells);
                }
                let t = crate::telemetry::mark();
                interp.run_function_slot(b, &s.compiled.predict);
                let row = s.preds.row_mut(i);
                interp.read_predictions_slot(b, row);
                spans.predict_ns.add(t.elapsed_ns());
                if abort_on_invalid && !row.iter().all(|x| x.is_finite()) {
                    s.preds.invalidate_day(i);
                    s.swept_days = i + 1;
                    s.live = false;
                }
            }
        }
    }

    /// Bytes one day's load of `input_cells` copies into the shared `m0`.
    fn load_bytes(&self, input_cells: &[bool]) -> u64 {
        (input_cells.iter().filter(|&&c| c).count() * self.dataset.n_stocks() * 8) as u64
    }

    /// Full backtest of a finished alpha on a `B = 1` tile: train, then
    /// predict-only through the validation days (keeping recurrent state
    /// contiguous) and the held-out test days. Non-finite predictions are
    /// tolerated here (the portfolio treats those stocks as untradeable)
    /// so even a degenerate alpha gets a report.
    pub fn backtest(&self, prog: &AlphaProgram) -> BacktestReport {
        let mut arena = self.batch_arena(1);
        arena.push(prog, !crate::prune::liveness(prog).stateful);
        self.train_batch_in(&mut arena);
        let mut split = |days: Range<usize>, labels: &CrossSections| {
            self.sweep(&mut arena, days, false);
            let preds = &arena.slots[0].preds;
            let returns = long_short_returns(preds, labels, &self.opts.long_short);
            SplitMetrics {
                ic: information_coefficient(preds, labels),
                sharpe: sharpe_ratio(&returns),
                returns,
            }
        };
        let val = split(self.dataset.valid_days(), &self.val_labels);
        let test = split(self.dataset.test_days(), &self.test_labels);
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

    /// Scores `prog` in a reused `B = 1` tile, as the search does.
    fn score_in(ev: &Evaluator, tile: &mut BatchArena<'_>, prog: &AlphaProgram) -> Option<f64> {
        tile.clear();
        tile.push(prog, !crate::prune::liveness(prog).stateful);
        ev.evaluate_batch_in(tile);
        tile.fitness(0)
    }

    #[test]
    fn arena_reuse_matches_fresh_arenas() {
        // One tile fed a mix of candidates scores each exactly like a
        // throwaway tile: resetting the slot fully isolates candidates.
        let ev = evaluator(7);
        let progs = [
            init::domain_expert(ev.config()),
            init::two_layer_nn(ev.config()),
            init::industry_reversal(ev.config()),
            init::domain_expert(ev.config()),
        ];
        let mut tile = ev.batch_arena(1);
        for prog in &progs {
            let shared = score_in(&ev, &mut tile, prog);
            let fresh = ev.evaluate(prog);
            assert_eq!(shared, fresh.fitness);
            assert_eq!(tile.val_returns(0), &fresh.val_returns[..]);
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
        let mut tile = ev.batch_arena(1);
        assert!(score_in(&ev, &mut tile, &good).is_some());
        assert!(!tile.val_returns(0).is_empty());
        assert!(score_in(&ev, &mut tile, &bad).is_none());
        assert!(
            tile.val_returns(0).is_empty(),
            "stale returns must not leak into the gate"
        );
    }

    #[test]
    fn backtest_validation_split_equals_evaluation_bits() {
        // Backtests and evaluations share the training loop and the
        // validation sweep: for valid programs, the backtest's validation
        // IC and returns are the evaluation's bits.
        let ev = evaluator(6);
        let cfg = ev.config();
        let stochastic = AlphaProgram {
            setup: vec![Instruction::new(Op::SGauss, 0, 0, 4, [0.0, 1.0], [0; 2])],
            predict: vec![
                Instruction::new(Op::SUniform, 0, 0, 3, [-1.0, 1.0], [0; 2]),
                Instruction::new(Op::MMean, 0, 0, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SMul, 2, 3, 2, [0.0; 2], [0; 2]),
                Instruction::new(Op::SAdd, 2, 4, 1, [0.0; 2], [0; 2]),
            ],
            update: vec![Instruction::new(Op::SGauss, 0, 0, 4, [0.0, 0.5], [0; 2])],
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for prog in [
            init::domain_expert(cfg),
            init::momentum(cfg),
            init::industry_reversal(cfg),
            init::two_layer_nn(cfg),
            stochastic,
        ] {
            let e = ev.evaluate(&prog);
            let r = ev.backtest(&prog);
            assert_eq!(e.fitness.map(f64::to_bits), Some(r.val.ic.to_bits()));
            assert_eq!(bits(&e.val_returns), bits(&r.val.returns));
        }
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
