//! Property-based tests of the core invariants.
//!
//! The heavyweight ones drive the full interpreter, so case counts are
//! tuned per property; the cheap structural ones use proptest defaults.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use alphaevolve_backtest::metrics::information_coefficient;
use alphaevolve_backtest::portfolio::long_short_returns;
use alphaevolve_backtest::CrossSections;
use alphaevolve_core::fingerprint::{fingerprint, fingerprint_raw};
use alphaevolve_core::memory::{INPUT, PREDICTION};
use alphaevolve_core::{
    canonicalize, compile, init, liveness, prune, AlphaConfig, AlphaProgram, EvalOptions,
    Evaluator, FunctionId, GroupIndex, Instruction, Kind, MutationConfig, Mutator, Op,
};
use alphaevolve_market::{
    features::FeatureSet, generator::MarketConfig, Dataset, DayMajorPanel, SplitSpec,
};

mod common;

fn tiny_evaluator() -> Evaluator {
    let market = MarketConfig {
        n_stocks: 8,
        n_days: 110,
        seed: 1234,
        ..Default::default()
    }
    .generate();
    let dataset = Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap();
    Evaluator::new(
        AlphaConfig::default(),
        EvalOptions::default(),
        Arc::new(dataset),
    )
}

/// A random program from a seed, using the full op set.
fn random_program(seed: u64, n_setup: usize, n_predict: usize, n_update: usize) -> AlphaProgram {
    let cfg = AlphaConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    init::random_alpha(
        &cfg,
        &mut rng,
        n_setup.max(1),
        n_predict.max(1),
        n_update.max(1),
    )
}

/// A random *deterministic* program (no stochastic ops), so that pruning
/// cannot perturb the RNG stream.
fn random_deterministic_program(seed: u64, len: usize) -> AlphaProgram {
    let cfg = AlphaConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let full: Vec<Op> = Op::ALL
        .iter()
        .copied()
        .filter(|o| !o.is_stochastic())
        .collect();
    let setup: Vec<Op> = full.iter().copied().filter(|o| !o.is_relation()).collect();
    let mut prog = AlphaProgram::new();
    for f in FunctionId::ALL {
        let pool = if f == FunctionId::Setup {
            &setup
        } else {
            &full
        };
        for _ in 0..len.max(1) {
            prog.function_mut(f)
                .push(Instruction::random(&mut rng, pool, &cfg));
        }
    }
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interpreter/evaluator never panics on arbitrary valid programs,
    /// and always returns a well-formed result (AutoML-Zero robustness:
    /// bad programs get killed, not crashed on).
    #[test]
    fn evaluator_total_on_arbitrary_programs(
        seed in any::<u64>(),
        ns in 1usize..6,
        np in 1usize..10,
        nu in 1usize..8,
    ) {
        let ev = tiny_evaluator();
        let prog = random_program(seed, ns, np, nu);
        prog.validate(ev.config()).expect("generated programs validate");
        let eval = ev.evaluate(&prog);
        match eval.fitness {
            Some(ic) => {
                prop_assert!(ic.is_finite());
                prop_assert_eq!(eval.val_returns.len(), ev.dataset().valid_days().len());
            }
            None => prop_assert!(eval.val_returns.is_empty()),
        }
    }
}

/// An extraction-heavy random program: most instructions pull a cell, a
/// row or a column out of the input matrix `m0`, the rest are random ops
/// over a few registers of each kind (so most extractions stay live), and
/// about one instruction in twenty-five reads `m0` whole or writes into it.
fn extraction_heavy_program(seed: u64, len: usize) -> AlphaProgram {
    use rand::Rng;
    let cfg = AlphaConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let setup_pool: Vec<Op> = Op::ALL
        .iter()
        .copied()
        .filter(|o| !o.is_relation())
        .collect();
    let full_pool = Op::ALL.to_vec();
    let mut prog = AlphaProgram::new();
    for f in FunctionId::ALL {
        let pool = if f == FunctionId::Setup {
            &setup_pool
        } else {
            &full_pool
        };
        for _ in 0..len {
            let mut instr = match rng.gen_range(0..25) {
                0..=13 => {
                    let op = [Op::MGet, Op::MGetRow, Op::MGetCol][rng.gen_range(0..3)];
                    let mut i = Instruction::random_with_op(&mut rng, op, &cfg);
                    i.in1 = INPUT as u8;
                    i
                }
                14 => {
                    // Either operand slot of `m0`: first (`m_mean`,
                    // `mat_vec`), second (`sm_scale`), or a random side of
                    // a matrix-matrix op.
                    let op = [Op::MMean, Op::MatMul, Op::MatVec, Op::SMScale, Op::MAdd]
                        [rng.gen_range(0..5)];
                    let mut i = Instruction::random_with_op(&mut rng, op, &cfg);
                    match op.input_kinds() {
                        [Kind::M, Kind::M] if rng.gen_bool(0.5) => i.in2 = INPUT as u8,
                        [Kind::M, ..] => i.in1 = INPUT as u8,
                        _ => i.in2 = INPUT as u8,
                    }
                    i
                }
                15 => {
                    let op = [Op::MGauss, Op::MAbs, Op::MConst][rng.gen_range(0..3)];
                    let mut i = Instruction::random_with_op(&mut rng, op, &cfg);
                    i.out = INPUT as u8;
                    i
                }
                _ => Instruction::random(&mut rng, pool, &cfg),
            };
            // Squeeze registers into a few per kind so most extractions
            // stay live; `m0` is register 0, which this keeps.
            instr.in1 %= 4;
            instr.in2 %= 4;
            instr.out %= 4;
            prog.function_mut(f).push(instr);
        }
    }
    // Fold a vector and a scalar register into the prediction.
    prog.predict.push(Instruction::new(
        Op::VSum,
        rng.gen_range(0..4),
        0,
        2,
        [0.0; 2],
        [0; 2],
    ));
    prog.predict.push(Instruction::new(
        Op::SAdd,
        2,
        rng.gen_range(0..4),
        PREDICTION as u8,
        [0.0; 2],
        [0; 2],
    ));
    prog.validate(&cfg)
        .expect("extraction-heavy programs validate");
    prog
}

/// Where a planted `VOuter → MAdd` pair's product `m2` is read, or what
/// else stands between the pair (see [`planted_outer_add_program`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plant {
    /// Only the `MAdd` reads the product: the pair fuses.
    Clean,
    /// Update reads the product after the `MAdd`.
    ReadInUpdate,
    /// Predict reads the product.
    ReadInPredict,
    /// An instruction between the pair overwrites an outer operand that
    /// is read later.
    WriteBetween,
}

/// The NN seed's training shape with its rank-1 step planted as
/// `VOuter m2 = v8 ⊗ v2; MAdd w = x + m2` (or `m2 + x` when
/// `outer_first`), in update or at the end of predict, where `x` is `m0`
/// or `m1` and `w` is `x` (`in_place`) or `m3`; predict's weights are
/// `w`. `noise` random instructions from `seed` go in front of predict.
/// Returns the program and whether the pair must fuse (`None` when the
/// noise or a dead `MAdd` into the reloaded `m0` leaves that open).
fn planted_outer_add_program(
    seed: u64,
    noise: usize,
    plant: Plant,
    outer_first: bool,
    in_place: bool,
    x_is_m0: bool,
    in_predict: bool,
) -> (AlphaProgram, Option<bool>) {
    let cfg = AlphaConfig::default();
    let ins = |op, in1: usize, in2: usize, out: usize| {
        Instruction::new(op, in1 as u8, in2 as u8, out as u8, [0.0; 2], [0; 2])
    };
    let x = if x_is_m0 { INPUT } else { 1 };
    let w = if in_place { x } else { 3 };
    let newest = (cfg.dim - 1) as u8;
    let mut predict = random_program(seed, 1, noise, 1).predict;
    predict.truncate(noise);
    predict.extend([
        Instruction::new(Op::MGetCol, INPUT as u8, 0, 2, [0.0; 2], [newest, 0]),
        ins(Op::MatVec, w, 2, 3),
        ins(Op::VHeaviside, 3, 0, 4),
        ins(Op::VMul, 4, 3, 5),
        ins(Op::VDot, 1, 5, PREDICTION),
    ]);
    let mut update = vec![
        ins(Op::SSub, 0, 1, 3),
        ins(Op::SMul, 3, 2, 4),
        ins(Op::SVScale, 4, 5, 6),
        ins(Op::SVScale, 4, 1, 7),
        ins(Op::VAdd, 1, 6, 1),
        ins(Op::VMul, 7, 4, 8),
    ];
    let mut pair = vec![ins(Op::VOuter, 8, 2, 2)];
    if plant == Plant::WriteBetween {
        pair.push(ins(Op::VAbs, 2, 0, 2));
    }
    pair.push(if outer_first {
        ins(Op::MAdd, 2, x, w)
    } else {
        ins(Op::MAdd, x, 2, w)
    });
    if in_predict {
        predict.extend(pair);
    } else {
        update.extend(pair);
    }
    // The extra reads land in s9, which predict folds into the prediction.
    match plant {
        Plant::Clean => {}
        Plant::ReadInUpdate => update.push(ins(Op::MMean, 2, 0, 9)),
        Plant::ReadInPredict => predict.push(ins(Op::MMean, 2, 0, 9)),
        Plant::WriteBetween => update.push(ins(Op::VSum, 2, 0, 9)),
    }
    if plant != Plant::Clean {
        predict.push(ins(Op::SAdd, PREDICTION, 9, PREDICTION));
    }
    let prog = AlphaProgram {
        setup: vec![
            Instruction::new(Op::MGauss, 0, 0, 1, [0.0, 0.1], [0; 2]),
            Instruction::new(Op::VGauss, 0, 0, 1, [0.0, 0.1], [0; 2]),
            Instruction::new(Op::SConst, 0, 0, 2, [0.01, 0.0], [0; 2]),
        ],
        predict,
        update,
    };
    prog.validate(&cfg).expect("planted programs validate");
    let decided = noise == 0 && !(x_is_m0 && in_place);
    (prog, decided.then_some(plant == Plant::Clean))
}

/// Shared fixture for the engine-equivalence properties (built once — the
/// properties only vary the program, not the market).
fn equivalence_fixture() -> &'static (Dataset, GroupIndex, DayMajorPanel) {
    static FIXTURE: std::sync::OnceLock<(Dataset, GroupIndex, DayMajorPanel)> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let market = MarketConfig {
            n_stocks: 9,
            n_days: 115,
            seed: 4242,
            n_sectors: 3,
            ..Default::default()
        }
        .generate();
        let ds = Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap();
        let groups = GroupIndex::from_universe(ds.universe());
        let panel = DayMajorPanel::from_panel(ds.panel());
        (ds, groups, panel)
    })
}

/// Properties that drive the lockstep reference engine.
mod lockstep_oracle {
    use super::*;
    use alphaevolve_core::Interpreter;
    use common::Solo;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The columnar tile is a bitwise drop-in for the lockstep
        /// reference: over random programs spanning the full op set (relation
        /// ops, RNG ops, extraction, and the non-finite values that unguarded
        /// arithmetic produces), a `B = 1` tile and the oracle emit identical
        /// prediction bits on every day of a train + predict schedule.
        #[test]
        fn columnar_interpreter_matches_lockstep_bitwise(
            seed in any::<u64>(),
            interp_seed in any::<u64>(),
            ns in 1usize..6,
            np in 1usize..12,
            nu in 1usize..8,
        ) {
            let cfg = AlphaConfig::default();
            let (ds, groups, panel) = equivalence_fixture();
            let prog = random_program(seed, ns, np, nu);
            let mut lock = Interpreter::new(&cfg, ds, groups, interp_seed);
            let mut col = Solo::new(&cfg, ds, panel, groups, interp_seed, &prog);
            lock.run_setup(&prog);
            let k = ds.n_stocks();
            let (mut a, mut b) = (vec![0.0; k], vec![0.0; k]);
            for day in ds.train_days().take(4) {
                lock.train_day(&prog, day, true);
                col.train_day(day, true);
            }
            for day in ds.valid_days().take(4) {
                lock.predict_day(&prog, day, &mut a);
                col.predict_day(day, &mut b);
                for (s, (x, y)) in a.iter().zip(&b).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "stock {} day {}: lockstep {} vs columnar {}",
                        s, day, x, y
                    );
                }
            }
        }
    }

    proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Evaluating through the production pipeline (compile + a `B = 1`
    /// tile) agrees with driving the lockstep reference by hand over the
    /// same schedule.
    #[test]
    fn evaluator_pipeline_matches_lockstep_reference(
        seed in any::<u64>(),
        np in 1usize..10,
        nu in 1usize..6,
    ) {
        let ev = tiny_evaluator();
        let prog = random_program(seed, 3, np, nu);
        let eval = ev.evaluate_opt(&prog, false);
        // Reference: lockstep train + validation sweep.
        let ds = ev.dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let mut lock = Interpreter::new(ev.config(), ds, &groups, ev.options().seed);
        lock.run_setup(&prog);
        for day in ds.train_days() {
            lock.train_day(&prog, day, true);
        }
        let mut row = vec![0.0; ds.n_stocks()];
        let mut all_finite = true;
        for day in ds.valid_days() {
            lock.predict_day(&prog, day, &mut row);
            if !row.iter().all(|x| x.is_finite()) {
                all_finite = false;
                break;
            }
        }
        prop_assert_eq!(
            eval.fitness.is_some(),
            all_finite,
            "validity verdict diverged between engines"
        );
    }
    }

    /// The lockstep reference for one candidate, scored exactly like
    /// `Evaluator::evaluate_batch_in`: setup, the training sweep unless
    /// `skip_training`, then the validation sweep aborting at the first
    /// non-finite day. Returns `(fitness, validation returns)`.
    fn lockstep_score(
        ev: &Evaluator,
        prog: &AlphaProgram,
        skip_training: bool,
    ) -> (Option<f64>, Vec<f64>) {
        let ds = ev.dataset();
        let groups = GroupIndex::from_universe(ds.universe());
        let mut lock = Interpreter::new(ev.config(), ds, &groups, ev.options().seed);
        lock.run_setup(prog);
        if !skip_training {
            for day in ds.train_days() {
                lock.train_day(prog, day, ev.options().run_update);
            }
        }
        let days = ds.valid_days();
        let mut preds = CrossSections::new(days.len(), ds.n_stocks());
        for (i, day) in days.enumerate() {
            let row = preds.row_mut(i);
            lock.predict_day(prog, day, row);
            if !row.iter().all(|x| x.is_finite()) {
                return (None, Vec::new());
            }
        }
        let ic = information_coefficient(&preds, ev.val_labels());
        let returns = long_short_returns(&preds, ev.val_labels(), &ev.options().long_short);
        (Some(ic), returns)
    }

    proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Rank-1 fusion is invisible: programs with a planted `VOuter →
    /// MAdd` pair (product read only by the `MAdd`, or also later in
    /// update or predict, or an outer operand overwritten in between;
    /// either operand order; in place or not; `m0` as the matrix operand)
    /// fuse exactly when they may, and a `B = 1` tile driven day by day
    /// and a wider tile (the program in slot 0 or 1) both match the
    /// lockstep oracle, which runs the unfused ops, bit for bit.
    #[test]
    fn planted_outer_add_pairs_match_lockstep(
        seed in any::<u64>(),
        noise in 0usize..4,
        plant in 0usize..4,
        outer_first in any::<bool>(),
        in_place in any::<bool>(),
        x_is_m0 in any::<bool>(),
        in_predict in any::<bool>(),
        second_slot in any::<bool>(),
    ) {
        let plant = [Plant::Clean, Plant::ReadInUpdate, Plant::ReadInPredict, Plant::WriteBetween][plant];
        let (prog, expect_fused) = planted_outer_add_program(
            seed, noise, plant, outer_first, in_place, x_is_m0, in_predict,
        );
        let cfg = AlphaConfig::default();
        let (ds, groups, panel) = equivalence_fixture();
        let compiled = compile(&prog, &cfg, ds.n_stocks());
        let n_fused = [&compiled.setup, &compiled.predict, &compiled.update]
            .into_iter()
            .flatten()
            .filter(|i| i.fused.is_some())
            .count();
        if let Some(fuses) = expect_fused {
            prop_assert_eq!(n_fused, usize::from(fuses), "{:?}", compiled);
        }

        let mut lock = Interpreter::new(&cfg, ds, groups, seed);
        let mut col = Solo::new(&cfg, ds, panel, groups, seed, &prog);
        lock.run_setup(&prog);
        let k = ds.n_stocks();
        let (mut a, mut b) = (vec![0.0; k], vec![0.0; k]);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for day in ds.train_days().take(6) {
            lock.train_day(&prog, day, true);
            col.train_day(day, true);
        }
        for day in ds.valid_days().take(4) {
            lock.predict_day(&prog, day, &mut a);
            col.predict_day(day, &mut b);
            prop_assert_eq!(
                bits(&a),
                bits(&b),
                "day {}: {:?} vs {:?} ({:?}, fused {}): {:?}",
                day, a, b, plant, n_fused, prog
            );
        }

        let ev = tiny_evaluator();
        let mut tile = ev.batch_arena(2);
        if second_slot {
            tile.push(&init::two_layer_nn(&cfg), false);
        }
        let slot = tile.push(&prog, false);
        ev.evaluate_batch_in(&mut tile);
        let (fitness, returns) = lockstep_score(&ev, &prog, false);
        prop_assert_eq!(
            tile.fitness(slot).map(f64::to_bits),
            fitness.map(f64::to_bits),
            "tile {:?} vs lockstep {:?}",
            tile.fitness(slot), fitness
        );
        prop_assert_eq!(bits(tile.val_returns(slot)), bits(&returns));
    }
    }

    proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Input-cell masking is sound: extraction-heavy candidates (mostly
    /// `m_get` / `m_get_row` / `m_get_col` on `m0`, with occasional
    /// whole-matrix reads of `m0` and writes into it) scored through one
    /// reused tile — so the shared `m0` plane holds cells earlier
    /// candidates and days loaded — are bitwise equal to the lockstep
    /// oracle, which loads every cell every day.
    #[test]
    fn masked_input_loads_match_lockstep_through_reused_tiles(
        seed in any::<u64>(),
        wide in any::<bool>(),
        len in 2usize..7,
    ) {
        let ev = tiny_evaluator();
        let batch = if wide { 4 } else { 1 };
        let progs: Vec<AlphaProgram> = (0..2 * batch + 1)
            .map(|i| extraction_heavy_program(seed.wrapping_add(i as u64), len))
            .collect();
        let mut tile = ev.batch_arena(batch);
        for chunk in progs.chunks(batch) {
            tile.clear();
            for p in chunk {
                tile.push(p, !liveness(p).stateful);
            }
            ev.evaluate_batch_in(&mut tile);
            for (slot, p) in chunk.iter().enumerate() {
                let (fitness, returns) = lockstep_score(&ev, p, !liveness(p).stateful);
                prop_assert_eq!(
                    tile.fitness(slot).map(f64::to_bits),
                    fitness.map(f64::to_bits),
                    "slot {} fitness: tile {:?} vs lockstep {:?}",
                    slot, tile.fitness(slot), fitness
                );
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(tile.val_returns(slot)), bits(&returns));
            }
        }
    }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness of §4.2 pruning: the effective program computes exactly
    /// the same predictions as the original (for deterministic programs).
    #[test]
    fn pruning_preserves_semantics(seed in any::<u64>(), len in 1usize..8) {
        let ev = tiny_evaluator();
        let prog = random_deterministic_program(seed, len);
        let pruned = prune(&prog);
        let a = ev.evaluate_opt(&prog, false);
        let b = ev.evaluate_opt(&pruned.program, false);
        prop_assert_eq!(a.fitness.is_some(), b.fitness.is_some());
        if let (Some(x), Some(y)) = (a.fitness, b.fitness) {
            prop_assert!((x - y).abs() < 1e-12, "pruning changed IC: {} vs {}", x, y);
            prop_assert_eq!(a.val_returns, b.val_returns);
        }
    }

    /// The stateless-skip fast path gives identical results to the full
    /// sweep for deterministic programs.
    #[test]
    fn stateless_skip_is_semantics_preserving(seed in any::<u64>(), len in 1usize..8) {
        let ev = tiny_evaluator();
        let prog = prune(&random_deterministic_program(seed, len)).program;
        let fast = ev.evaluate_opt(&prog, true);
        let slow = ev.evaluate_opt(&prog, false);
        prop_assert_eq!(fast.fitness.is_some(), slow.fitness.is_some());
        if let (Some(x), Some(y)) = (fast.fitness, slow.fitness) {
            prop_assert!((x - y).abs() < 1e-12, "skip changed IC: {} vs {}", x, y);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pruning is idempotent: pruning an effective program removes nothing.
    #[test]
    fn pruning_is_idempotent(seed in any::<u64>(), len in 1usize..10) {
        let prog = random_program(seed, len, len, len);
        let once = prune(&prog);
        let twice = prune(&once.program);
        prop_assert_eq!(&once.program, &twice.program);
        prop_assert_eq!(once.uses_input, twice.uses_input);
    }

    /// The allocation-free liveness analysis agrees with full pruning on
    /// both flags, for the original and for the pruned program (the hot
    /// path consults it on either).
    #[test]
    fn liveness_agrees_with_prune(seed in any::<u64>(), len in 1usize..10) {
        let prog = random_program(seed, len, len, len);
        let full = prune(&prog);
        let light = alphaevolve_core::liveness(&prog);
        prop_assert_eq!(light.uses_input, full.uses_input);
        prop_assert_eq!(light.stateful, full.stateful);
        let light_pruned = alphaevolve_core::liveness(&full.program);
        prop_assert_eq!(light_pruned.uses_input, full.uses_input);
        prop_assert_eq!(light_pruned.stateful, full.stateful);
    }

    /// Canonicalization is idempotent and fingerprint-stable.
    #[test]
    fn canonicalization_is_idempotent(seed in any::<u64>(), len in 1usize..10) {
        let cfg = AlphaConfig::default();
        let prog = prune(&random_program(seed, len, len, len)).program;
        let once = canonicalize(&prog, &cfg);
        let twice = canonicalize(&once, &cfg);
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(fingerprint_raw(&once), fingerprint_raw(&twice));
    }

    /// Dead code never changes the pipeline fingerprint.
    #[test]
    fn dead_code_invisible_to_fingerprint(seed in any::<u64>(), len in 1usize..8, at in 0usize..8) {
        let cfg = AlphaConfig::default();
        let prog = random_program(seed, len, len, len);
        let (fp_before, _) = fingerprint(&prog, &cfg);
        let mut padded = prog.clone();
        // A write to a scalar constant inserted somewhere in update. It is
        // usually dead, but it can also feed an existing read of s9 — or
        // shadow an earlier live write to s9 — either of which genuinely
        // changes the effective program. The sound criterion for "this
        // insert was invisible dead code" is that pruning yields the
        // identical effective program; exactly then the fingerprint must
        // not move.
        let dead = Instruction::new(Op::SConst, 0, 0, 9, [0.123, 0.0], [0; 2]);
        let pos = at.min(padded.update.len());
        padded.update.insert(pos, dead);
        let (fp_after, _) = fingerprint(&padded, &cfg);
        if prune(&padded).program == prune(&prog).program {
            prop_assert_eq!(fp_before, fp_after);
        }
    }

    /// Mutation closure: children always satisfy the §5.2 size limits and
    /// register bounds.
    #[test]
    fn mutation_children_always_valid(seed in any::<u64>(), steps in 1usize..60) {
        let cfg = AlphaConfig::default();
        let mutator = Mutator::new(cfg, MutationConfig::default());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut prog = init::domain_expert(&cfg);
        for _ in 0..steps {
            prog = mutator.mutate(&mut rng, &prog);
        }
        prop_assert!(prog.validate(&cfg).is_ok());
    }

    /// Text serialization round-trips arbitrary programs bit-exactly.
    #[test]
    fn textio_round_trips(seed in any::<u64>(), len in 1usize..12) {
        let prog = random_program(seed, len, len, len);
        let text = alphaevolve_core::textio::to_text(&prog);
        let back = alphaevolve_core::textio::from_text(&text).expect("parse back");
        prop_assert_eq!(back, prog);
    }

    /// Register renaming never changes the canonical fingerprint: apply a
    /// random consistent permutation of the non-reserved registers.
    #[test]
    fn fingerprint_invariant_under_register_renaming(seed in any::<u64>(), len in 1usize..8) {
        let cfg = AlphaConfig::default();
        let prog = random_program(seed, len, len, len);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        // Build per-bank permutations fixing the reserved registers.
        let mut perm_s: Vec<u8> = (0..cfg.n_scalars as u8).collect();
        let mut perm_v: Vec<u8> = (0..cfg.n_vectors as u8).collect();
        let mut perm_m: Vec<u8> = (0..cfg.n_matrices as u8).collect();
        shuffle_tail(&mut perm_s, 2, &mut rng); // keep s0, s1
        shuffle_tail(&mut perm_v, 0, &mut rng);
        shuffle_tail(&mut perm_m, 1, &mut rng); // keep m0
        let renamed = apply_renaming(&prog, &perm_s, &perm_v, &perm_m);
        prop_assert_eq!(fingerprint(&prog, &cfg).0, fingerprint(&renamed, &cfg).0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The text format is a lossless round trip: any valid program prints
    /// to text that parses back to the identical program and re-prints to
    /// the identical text (literal f64 bits included).
    #[test]
    fn textio_print_parse_reprint_is_identity(
        seed in any::<u64>(),
        ns in 1usize..8,
        np in 1usize..12,
        nu in 1usize..10,
    ) {
        use alphaevolve_core::textio::{from_text, to_text};
        let prog = random_program(seed, ns, np, nu);
        prog.validate(&AlphaConfig::default()).expect("generated programs validate");
        let text = to_text(&prog);
        let parsed = from_text(&text).expect("printed programs parse");
        prop_assert_eq!(&parsed, &prog);
        prop_assert_eq!(to_text(&parsed), text);
    }

    /// Truncating a program's text at any byte yields a clean `Err` (or,
    /// at a line boundary past all three `def`s, a valid shorter program)
    /// — never a panic, and never a silently mis-parsed full program.
    #[test]
    fn textio_truncated_input_errors_dont_panic(
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        use alphaevolve_core::textio::{from_text, to_text};
        let prog = random_program(seed, 2, 4, 3);
        let text = to_text(&prog);
        let cut = ((text.len() as f64 * cut_frac) as usize).min(text.len() - 1);
        // Cut on a char boundary (the format is ASCII, but stay robust).
        let mut cut = cut;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &text[..cut];
        match from_text(truncated) {
            // A cut strictly inside the text can only parse if everything
            // dropped was a complete suffix of instructions (plus at most
            // a dangling whitespace fragment): the parsed program must
            // re-print to a prefix of the cut text, with only whitespace
            // unaccounted for.
            Ok(p) => {
                let reprinted = to_text(&p);
                prop_assert!(
                    truncated.starts_with(&reprinted),
                    "parsed program is not a prefix: {reprinted:?} vs {truncated:?}"
                );
                prop_assert!(truncated[reprinted.len()..].trim().is_empty());
            }
            Err(e) => {
                // Errors carry a usable position and message.
                prop_assert!(e.line <= text.lines().count());
                prop_assert!(!e.msg.is_empty());
            }
        }
    }
}

fn shuffle_tail(perm: &mut [u8], fixed: usize, rng: &mut SmallRng) {
    use rand::Rng;
    let n = perm.len();
    for i in (fixed + 1..n).rev() {
        let j = rng.gen_range(fixed..=i);
        perm.swap(i, j);
    }
}

fn apply_renaming(prog: &AlphaProgram, s: &[u8], v: &[u8], m: &[u8]) -> AlphaProgram {
    use alphaevolve_core::Kind;
    let map = |k: Kind, r: u8| -> u8 {
        match k {
            Kind::S => s[r as usize],
            Kind::V => v[r as usize],
            Kind::M => m[r as usize],
        }
    };
    let mut out = prog.clone();
    for f in FunctionId::ALL {
        for instr in out.function_mut(f) {
            let kinds = instr.op.input_kinds();
            if !kinds.is_empty() {
                instr.in1 = map(kinds[0], instr.in1);
            }
            if kinds.len() > 1 {
                instr.in2 = map(kinds[1], instr.in2);
            }
            if instr.op != Op::NoOp {
                instr.out = map(instr.op.output_kind(), instr.out);
            }
        }
    }
    out
}
