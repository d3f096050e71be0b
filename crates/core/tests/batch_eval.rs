//! Bitwise wide-tile-vs-`B = 1` evaluation battery.
//!
//! The tile path (`Evaluator::evaluate_batch_in`) promises that a
//! candidate's bits do not depend on its tile: every slot of a wide tile
//! has the fitness bits, validation-return bits, and per-stock RNG stream
//! states of the same candidate alone in a fresh `B = 1` tile (the
//! sequential reference below, which `evaluate` and backtests run).
//! These tests pin that contract over the seed programs, hand-built
//! clobber/invalid/stochastic candidates, tile reuse, partial tiles, and a
//! proptest sweep over random batch sizes × random candidate mixes.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use alphaevolve_core::{
    compile, init, liveness, writes_m0, AlphaConfig, AlphaProgram, EvalOptions, Evaluator,
    Instruction, Op,
};
use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};

fn small_evaluator() -> Evaluator {
    let market = MarketConfig {
        n_stocks: 9,
        n_days: 115,
        seed: 4242,
        n_sectors: 3,
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

/// A candidate whose predictions go NaN (`ln` of a negative number), so
/// the validation sweep aborts at its first day.
fn invalid_candidate() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::new(Op::SConst, 0, 0, 3, [-1.0, 0.0], [0; 2])],
        predict: vec![
            Instruction::new(Op::MMean, 0, 0, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::SAbs, 2, 0, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::SMul, 2, 3, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::SAdd, 2, 3, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::SLn, 2, 0, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::nop()],
    }
}

/// A candidate that draws from the per-stock RNG streams every day — the
/// sharpest probe of the per-slot RNG-stream contract.
fn stochastic_candidate() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::new(Op::SGauss, 0, 0, 4, [0.0, 1.0], [0; 2])],
        predict: vec![
            Instruction::new(Op::SUniform, 0, 0, 3, [-1.0, 1.0], [0; 2]),
            Instruction::new(Op::MMean, 0, 0, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::SMul, 2, 3, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::SAdd, 2, 4, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::new(Op::SGauss, 0, 0, 4, [0.0, 0.5], [0; 2])],
    }
}

/// A candidate whose predict *writes* `m0`, so its slot cannot alias the
/// tile's shared input plane and must run on a staged private copy. The
/// write is a dead stochastic op — it survives lowering (RNG parity) and
/// is exactly the clobber shape `writes_m0` exists to catch.
fn m0_clobbering_candidate() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::nop()],
        predict: vec![
            Instruction::new(Op::MMean, 0, 0, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::MGauss, 0, 0, 0, [0.0, 1.0], [0; 2]),
            Instruction::new(Op::SAbs, 2, 0, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::nop()],
    }
}

fn random_program(seed: u64, ns: usize, np: usize, nu: usize) -> AlphaProgram {
    let cfg = AlphaConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    init::random_alpha(&cfg, &mut rng, ns.max(1), np.max(1), nu.max(1))
}

/// Sequential reference for one candidate, alone in a fresh `B = 1`
/// tile: (fitness, returns, rng states).
fn sequential(
    ev: &Evaluator,
    prog: &AlphaProgram,
    skip_training: bool,
) -> (Option<f64>, Vec<f64>, Vec<[u64; 4]>) {
    let mut solo = ev.batch_arena(1);
    solo.push(prog, skip_training);
    ev.evaluate_batch_in(&mut solo);
    let returns = solo.val_returns(0).to_vec();
    let mut states = Vec::new();
    solo.rng_states_into(0, &mut states);
    (solo.fitness(0), returns, states)
}

/// Asserts every slot of a freshly-evaluated tile bitwise-matches its
/// sequential reference.
fn assert_tile_matches_sequential(ev: &Evaluator, progs: &[(&AlphaProgram, bool)], batch: usize) {
    let mut tile = ev.batch_arena(batch);
    for (prog, skip) in progs {
        tile.push(prog, *skip);
    }
    ev.evaluate_batch_in(&mut tile);
    let mut batch_states = Vec::new();
    for (slot, (prog, skip)) in progs.iter().enumerate() {
        let (seq_fitness, seq_returns, seq_states) = sequential(ev, prog, *skip);
        assert_eq!(
            tile.fitness(slot).map(f64::to_bits),
            seq_fitness.map(f64::to_bits),
            "slot {slot}: fitness bits diverged"
        );
        let batch_returns = tile.val_returns(slot);
        assert_eq!(
            batch_returns.len(),
            seq_returns.len(),
            "slot {slot}: return count diverged"
        );
        for (i, (a, b)) in batch_returns.iter().zip(&seq_returns).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "slot {slot}: validation return {i} diverged"
            );
        }
        tile.rng_states_into(slot, &mut batch_states);
        assert_eq!(
            batch_states, seq_states,
            "slot {slot}: RNG streams diverged"
        );
    }
}

#[test]
fn full_tile_of_seed_programs_matches_sequential() {
    let ev = small_evaluator();
    let cfg = *ev.config();
    let expert = init::domain_expert(&cfg);
    let nn = init::two_layer_nn(&cfg);
    let rev = init::industry_reversal(&cfg);
    let stoch = stochastic_candidate();
    let bad = invalid_candidate();
    let progs: Vec<(&AlphaProgram, bool)> = [&expert, &nn, &rev, &stoch, &bad]
        .into_iter()
        .map(|p| (p, !liveness(p).stateful))
        .collect();
    assert_tile_matches_sequential(&ev, &progs, progs.len());
}

#[test]
fn partially_filled_tile_matches_sequential() {
    let ev = small_evaluator();
    let cfg = *ev.config();
    let expert = init::domain_expert(&cfg);
    let stoch = stochastic_candidate();
    let progs = [(&expert, false), (&stoch, false)];
    // Capacity 6, only 2 slots filled.
    assert_tile_matches_sequential(&ev, &progs, 6);
}

#[test]
fn m0_clobbering_slot_is_staged_and_matches_sequential() {
    let ev = small_evaluator();
    let cfg = *ev.config();
    let clobber = m0_clobbering_candidate();
    assert!(
        writes_m0(&compile(&clobber, &cfg, ev.dataset().n_stocks())),
        "fixture must actually clobber m0"
    );
    let expert = init::domain_expert(&cfg);
    let nn = init::two_layer_nn(&cfg);
    // Clobbering slot sandwiched between shared-m0 readers: the staged
    // private copy must keep the readers' shared plane pristine.
    let progs = [(&expert, false), (&clobber, false), (&nn, false)];
    assert_tile_matches_sequential(&ev, &progs, 3);
}

#[test]
fn tile_reuse_matches_fresh_tiles() {
    // The same arena fed two different tiles back-to-back: the second
    // tile must score exactly like a fresh arena (slot resets and the
    // shared-input reset fully isolate tiles).
    let ev = small_evaluator();
    let cfg = *ev.config();
    let expert = init::domain_expert(&cfg);
    let nn = init::two_layer_nn(&cfg);
    let rev = init::industry_reversal(&cfg);
    let stoch = stochastic_candidate();
    let bad = invalid_candidate();

    let mut tile = ev.batch_arena(3);
    tile.push(&stoch, false);
    tile.push(&bad, false);
    tile.push(&nn, false);
    ev.evaluate_batch_in(&mut tile);
    tile.clear();

    // Second, smaller tile in the same arena.
    tile.push(&expert, false);
    tile.push(&rev, false);
    ev.evaluate_batch_in(&mut tile);
    for (slot, prog) in [&expert, &rev].into_iter().enumerate() {
        let (seq_fitness, seq_returns, _) = sequential(&ev, prog, false);
        assert_eq!(
            tile.fitness(slot).map(f64::to_bits),
            seq_fitness.map(f64::to_bits),
            "slot {slot} saw stale state from the previous tile"
        );
        assert_eq!(
            tile.val_returns(slot)
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            seq_returns.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
    }
}

/// The tile loads only the `m0` cells its candidates read, and says so:
/// the expert seed reads four cells, so every loaded day copies exactly
/// `4 · K · 8` bytes, and the scrape reports that total.
#[cfg(feature = "obs")]
#[test]
fn load_day_bytes_count_only_the_cells_the_tile_reads() {
    use alphaevolve_core::SearchTelemetry;
    let ev = small_evaluator();
    let expert = init::domain_expert(ev.config());
    let k = ev.dataset().n_stocks() as u64;
    let days = (ev.dataset().train_days().len() + ev.dataset().valid_days().len()) as u64;
    let mut tile = ev.batch_arena(1);
    tile.push(&expert, false);
    ev.evaluate_batch_in(&mut tile);
    assert!(tile.fitness(0).is_some());
    let spans = tile.drain_telemetry();
    assert_eq!(spans.load_day_bytes.get(), days * 4 * k * 8);

    let telemetry = SearchTelemetry::new();
    telemetry.absorb_eval(&spans);
    let mut snap = alphaevolve_obs::MetricsSnapshot::new();
    telemetry.snapshot_into(&mut snap);
    assert_eq!(
        snap.counter_value("eval_load_day_bytes_total", &[]),
        days * 4 * k * 8
    );
}

/// The op-mix counter counts each lowered instruction once per day its
/// body ran: one NN seed evaluation runs the fused `W1 += v8 ⊗ x` pass on
/// every training day, and no separate `v_outer` or `m_add`. A `B = 1`
/// tile and a partly filled wider tile count the same.
#[cfg(feature = "obs")]
#[test]
fn op_executions_count_the_fused_rank_1_pass() {
    use alphaevolve_core::SearchTelemetry;
    let ev = small_evaluator();
    let nn = init::two_layer_nn(ev.config());
    let train = ev.dataset().train_days().len() as u64;
    let valid = ev.dataset().valid_days().len() as u64;

    let mut solo = ev.batch_arena(1);
    let mut wide = ev.batch_arena(3);
    for tile in [&mut solo, &mut wide] {
        tile.push(&nn, false);
        ev.evaluate_batch_in(tile);
        assert!(tile.fitness(0).is_some());
    }
    for spans in [solo.drain_telemetry(), wide.drain_telemetry()] {
        let telemetry = SearchTelemetry::new();
        telemetry.absorb_eval(&spans);
        let mut snap = alphaevolve_obs::MetricsSnapshot::new();
        telemetry.snapshot_into(&mut snap);
        let ops = |op| snap.counter_value("eval_op_executions_total", &[("op", op)]);
        assert_eq!(ops("outer_add_fused"), train);
        assert_eq!(ops("m_add"), 0);
        assert_eq!(ops("v_outer"), 0);
        assert_eq!(ops("v_add"), train);
        assert_eq!(
            ops("mat_vec"),
            train + valid,
            "predict trains and validates"
        );
        assert_eq!(ops("m_gauss"), 1, "setup runs once");
        assert!(snap
            .render()
            .contains("eval_op_executions_total{op=\"outer_add_fused\"}"));
    }
}

#[test]
fn batch_arena_clamps_capacity_to_one() {
    let ev = small_evaluator();
    let tile = ev.batch_arena(0);
    assert_eq!(tile.capacity(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random batch sizes × random candidate mixes: every slot must be
    /// bitwise equal to its sequential evaluation. Seeds sweep the full
    /// op set, so the mix covers stateless, relational, and stochastic
    /// programs (and the occasional invalid one).
    #[test]
    fn random_tiles_match_sequential(
        seed in any::<u64>(),
        batch in 1usize..6,
        fill in 1usize..6,
        ns in 1usize..4,
        np in 1usize..8,
        nu in 1usize..6,
    ) {
        let ev = small_evaluator();
        let fill = fill.min(batch);
        let progs: Vec<AlphaProgram> = (0..fill)
            .map(|i| random_program(seed.wrapping_add(i as u64), ns, np, nu))
            .collect();
        let entries: Vec<(&AlphaProgram, bool)> = progs
            .iter()
            .map(|p| (p, !liveness(p).stateful))
            .collect();
        assert_tile_matches_sequential(&ev, &entries, batch);
    }
}
