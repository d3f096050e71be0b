//! Shared by the engine-parity suites: one program driven day by day
//! through slot 0 of a `B = 1` tile, for comparison with the lockstep
//! oracle's per-day predictions.

use alphaevolve_core::{
    compile, relocate_for_slot, writes_m0, AlphaConfig, AlphaProgram, BatchInterpreter,
    CompiledProgram, GroupIndex,
};
use alphaevolve_market::{Dataset, DayMajorPanel};

/// One program on slot 0 of a `B = 1` tile, run through the schedule the
/// evaluator's training loop runs: `Setup()` once, then per day a load of
/// the program's input cells, predict, and (training days) the labels
/// and update.
pub(crate) struct Solo<'a> {
    tile: BatchInterpreter<'a>,
    prog: CompiledProgram,
    share_m0: bool,
}

impl<'a> Solo<'a> {
    /// Compiles `prog` onto slot 0 and runs its `Setup()`.
    pub(crate) fn new(
        cfg: &AlphaConfig,
        ds: &'a Dataset,
        panel: &'a DayMajorPanel,
        groups: &'a GroupIndex,
        seed: u64,
        prog: &AlphaProgram,
    ) -> Solo<'a> {
        let mut compiled = compile(prog, cfg, ds.n_stocks());
        let share_m0 = !writes_m0(&compiled);
        relocate_for_slot(&mut compiled, cfg, ds.n_stocks(), 0, share_m0);
        let mut tile = BatchInterpreter::new(cfg, ds, panel, groups, seed, 1);
        tile.reset_shared_input(&compiled.input_cells);
        tile.run_function_slot(0, &compiled.setup);
        Solo {
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
    pub(crate) fn train_day(&mut self, day: usize, run_update: bool) {
        self.load(day);
        self.tile.run_function_slot(0, &self.prog.predict);
        if run_update {
            self.tile.load_labels_slot(0, day);
            self.tile.run_function_slot(0, &self.prog.update);
        }
    }

    /// One inference day: load, predict, and copy `s1` into `out`.
    pub(crate) fn predict_day(&mut self, day: usize, out: &mut [f64]) {
        self.load(day);
        self.tile.run_function_slot(0, &self.prog.predict);
        self.tile.read_predictions_slot(0, out);
    }
}
