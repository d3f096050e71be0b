//! Shared fixtures for the Criterion benchmark suite.
//!
//! Every bench target uses these helpers so sizes stay consistent and
//! fast: benches measure *relative* costs (op dispatch, pruning overhead,
//! evaluation throughput), not paper-scale absolute numbers — those come
//! from the `experiments` binary.

#![forbid(unsafe_code)]

use std::sync::Arc;

use alphaevolve_core::{
    compile, relocate_for_slot, writes_m0, AlphaConfig, AlphaProgram, BatchInterpreter,
    CompiledProgram, EvalOptions, Evaluator, GroupIndex,
};
use alphaevolve_market::{
    features::FeatureSet, generator::MarketConfig, Dataset, DayMajorPanel, SplitSpec,
};

/// A small but realistic dataset: 24 stocks, 160 days, paper features.
pub fn bench_dataset() -> Arc<Dataset> {
    let market = MarketConfig {
        n_stocks: 24,
        n_days: 160,
        seed: 99,
        ..Default::default()
    }
    .generate();
    Arc::new(
        Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios())
            .expect("bench dataset builds"),
    )
}

/// An evaluator over [`bench_dataset`] with default paper configuration.
pub fn bench_evaluator() -> Evaluator {
    Evaluator::new(
        AlphaConfig::default(),
        EvalOptions::default(),
        bench_dataset(),
    )
}

/// A paper-scale cross-section: 1026 stocks (§5.1's NASDAQ universe size)
/// over 160 days — used by the lockstep-vs-columnar interpreter
/// comparisons, where the stock axis is the dimension that matters.
pub fn paper_scale_dataset() -> Arc<Dataset> {
    let market = MarketConfig {
        n_stocks: 1026,
        n_days: 160,
        seed: 2021,
        ..Default::default()
    }
    .generate();
    Arc::new(
        Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios())
            .expect("paper-scale dataset builds"),
    )
}

/// An evaluator over [`paper_scale_dataset`].
pub fn paper_scale_evaluator() -> Evaluator {
    Evaluator::new(
        AlphaConfig::default(),
        EvalOptions::default(),
        paper_scale_dataset(),
    )
}

/// A tiny dataset for end-to-end loops (12 stocks, 120 days).
pub fn tiny_dataset() -> Arc<Dataset> {
    let market = MarketConfig {
        n_stocks: 12,
        n_days: 120,
        seed: 7,
        ..Default::default()
    }
    .generate();
    Arc::new(
        Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios())
            .expect("tiny dataset builds"),
    )
}

/// One program on slot 0 of a `B = 1` tile, driven day by day through
/// the evaluator's schedule: the columnar side of the one-day
/// lockstep-vs-columnar benches and the serving bench's
/// compile-per-request baseline.
pub struct SoloTile<'a> {
    tile: BatchInterpreter<'a>,
    prog: CompiledProgram,
    share_m0: bool,
}

impl<'a> SoloTile<'a> {
    /// Compiles `prog` onto slot 0 and runs its `Setup()`.
    pub fn new(
        cfg: &AlphaConfig,
        ds: &'a Dataset,
        panel: &'a DayMajorPanel,
        groups: &'a GroupIndex,
        seed: u64,
        prog: &AlphaProgram,
    ) -> SoloTile<'a> {
        let mut compiled = compile(prog, cfg, ds.n_stocks());
        let share_m0 = !writes_m0(&compiled);
        relocate_for_slot(&mut compiled, cfg, ds.n_stocks(), 0, share_m0);
        let mut tile = BatchInterpreter::new(cfg, ds, panel, groups, seed, 1);
        tile.reset_shared_input(&compiled.input_cells);
        tile.run_function_slot(0, &compiled.setup);
        SoloTile {
            tile,
            prog: compiled,
            share_m0,
        }
    }

    fn load(&mut self, day: usize) {
        self.tile.load_day(day, &self.prog.input_cells);
        if !self.share_m0 {
            self.tile.stage_private_m0(0, &self.prog.input_cells);
        }
    }

    /// One training day: load, predict, then labels and update unless
    /// `run_update` is off.
    pub fn train_day(&mut self, day: usize, run_update: bool) {
        self.load(day);
        self.tile.run_function_slot(0, &self.prog.predict);
        if run_update {
            self.tile.load_labels_slot(0, day);
            self.tile.run_function_slot(0, &self.prog.update);
        }
    }

    /// One inference day: load, predict, and copy `s1` into `out`.
    pub fn predict_day(&mut self, day: usize, out: &mut [f64]) {
        self.load(day);
        self.tile.run_function_slot(0, &self.prog.predict);
        self.tile.read_predictions_slot(0, out);
    }
}
