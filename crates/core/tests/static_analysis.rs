//! Differential battery for the static-analysis subsystem: every verdict
//! the abstract interpreter hands the search loop is checked against the
//! dynamic engines it stands in for.
//!
//! The three contracts under test:
//!
//! 1. A program rejected as *constant* really does emit bitwise-uniform
//!    prediction cross-sections on every validation day (so its rank IC
//!    is degenerate and skipping evaluation loses nothing).
//! 2. A program rejected as *always NaN* really does produce no fitness
//!    from the evaluator.
//! 3. Programs the canonicalizer maps to the same form — register
//!    renamings, identity-op wrappings — share a fingerprint and produce
//!    bit-identical evaluations, so collapsing them onto one cache slot
//!    is sound.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use alphaevolve_core::fingerprint::fingerprint_analyzed;
use alphaevolve_core::{
    init, AlphaConfig, AlphaProgram, EvalOptions, Evaluator, FunctionId, Instruction, Kind, Op,
    StaticVerdict,
};
use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};

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

/// A random *deterministic* program (no stochastic ops), so evaluations
/// of alpha-equivalent variants cannot diverge through the RNG stream.
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

/// Drives a `B = 1` tile over the full train + validation schedule and
/// returns one prediction row per validation day.
fn predict_rows(prog: &AlphaProgram, ev: &Evaluator) -> Vec<Vec<f64>> {
    let ds = ev.dataset();
    let mut col = common::Solo::new(
        ev.config(),
        ds,
        ev.day_major(),
        ev.groups(),
        ev.options().seed,
        prog,
    );
    for day in ds.train_days() {
        col.train_day(day, true);
    }
    let mut rows = Vec::new();
    let mut row = vec![0.0; ds.n_stocks()];
    for day in ds.valid_days() {
        col.predict_day(day, &mut row);
        rows.push(row.clone());
    }
    rows
}

fn row_is_bitwise_uniform(row: &[f64]) -> bool {
    row.windows(2).all(|w| w[0].to_bits() == w[1].to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness of the pre-evaluation verdicts against the dynamic
    /// engines, over random programs spanning the full op set. The
    /// verdict is computed exactly the way the search loop computes it
    /// (prune → canonicalize → abstract-interpret), and checked against
    /// the program the search loop would have evaluated.
    #[test]
    fn static_verdicts_are_dynamically_sound(
        seed in any::<u64>(),
        ns in 1usize..5,
        np in 1usize..8,
        nu in 1usize..6,
    ) {
        let ev = tiny_evaluator();
        let prog = random_program(seed, ns, np, nu);
        let analyzed = fingerprint_analyzed(&prog, ev.config());
        let effective = &analyzed.pruned.program;
        match analyzed.facts.verdict() {
            StaticVerdict::Accept => {}
            StaticVerdict::RejectConstant => {
                // Uniform claim: every validation-day cross-section is
                // bitwise flat, so the rank IC has zero variance.
                for (day, row) in predict_rows(effective, &ev).iter().enumerate() {
                    prop_assert!(
                        row_is_bitwise_uniform(row),
                        "rejected-as-constant program varied on day {day}: {row:?}"
                    );
                }
                // And a degenerate IC never yields a usable fitness.
                let eval = ev.evaluate_opt(effective, false);
                prop_assert!(
                    eval.fitness.is_none() || eval.fitness == Some(0.0),
                    "constant program got fitness {:?}",
                    eval.fitness
                );
            }
            StaticVerdict::RejectAlwaysNan => {
                for (day, row) in predict_rows(effective, &ev).iter().enumerate() {
                    prop_assert!(
                        row.iter().all(|x| x.is_nan()),
                        "rejected-as-NaN program produced non-NaN on day {day}: {row:?}"
                    );
                }
                let eval = ev.evaluate_opt(effective, false);
                prop_assert!(
                    eval.fitness.is_none(),
                    "always-NaN program got fitness {:?}",
                    eval.fitness
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Register renaming maps to the same canonical form: equal
    /// fingerprint, equal verdict, and (for deterministic programs,
    /// where the RNG stream cannot interfere) a bit-identical
    /// evaluation — so routing both through one cache slot is sound.
    #[test]
    fn renamed_programs_share_fingerprint_verdict_and_evaluation(
        seed in any::<u64>(),
        len in 1usize..7,
    ) {
        let cfg = AlphaConfig::default();
        let prog = random_deterministic_program(seed, len);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5A5A);
        let mut perm_s: Vec<u8> = (0..cfg.n_scalars as u8).collect();
        let mut perm_v: Vec<u8> = (0..cfg.n_vectors as u8).collect();
        let mut perm_m: Vec<u8> = (0..cfg.n_matrices as u8).collect();
        shuffle_tail(&mut perm_s, 2, &mut rng); // keep s0, s1
        shuffle_tail(&mut perm_v, 0, &mut rng);
        shuffle_tail(&mut perm_m, 1, &mut rng); // keep m0
        let renamed = apply_renaming(&prog, &perm_s, &perm_v, &perm_m);

        let a = fingerprint_analyzed(&prog, &cfg);
        let b = fingerprint_analyzed(&renamed, &cfg);
        prop_assert_eq!(a.fingerprint, b.fingerprint, "fingerprints diverged");
        prop_assert_eq!(a.facts.verdict(), b.facts.verdict(), "verdicts diverged");

        let ev = tiny_evaluator();
        let ea = ev.evaluate_opt(&prog, false);
        let eb = ev.evaluate_opt(&renamed, false);
        prop_assert_eq!(
            ea.fitness.map(f64::to_bits),
            eb.fitness.map(f64::to_bits),
            "fitness diverged under renaming"
        );
    }

    /// Wrapping the prediction in an algebraic identity (multiply by a
    /// setup-constant one, routed through an otherwise-unused register)
    /// canonicalizes away: same fingerprint, bit-identical evaluation.
    #[test]
    fn identity_wrapped_programs_share_fingerprint_and_evaluation(
        seed in any::<u64>(),
        len in 1usize..6,
    ) {
        let cfg = AlphaConfig::default();
        let prog = random_deterministic_program(seed, len);
        // Pick a scratch scalar the program never touches; skip the rare
        // draw where every register is in use.
        let free = (2..cfg.n_scalars as u8).rev().find(|&r| {
            FunctionId::ALL.iter().all(|&f| {
                prog.function(f).iter().all(|i| {
                    let kinds = i.op.input_kinds();
                    let reads = kinds.first().is_some_and(|&k| k == Kind::S && i.in1 == r)
                        || (kinds.len() > 1 && kinds[1] == Kind::S && i.in2 == r);
                    let writes = i.op != Op::NoOp
                        && i.op.output_kind() == Kind::S
                        && i.out == r;
                    !reads && !writes
                })
            })
        });
        let Some(free) = free else { return };

        let mut wrapped = prog.clone();
        wrapped
            .setup
            .push(Instruction::new(Op::SConst, 0, 0, free, [1.0, 0.0], [0; 2]));
        wrapped
            .predict
            .push(Instruction::new(Op::SMul, 1, free, 1, [0.0; 2], [0; 2]));

        let cfg_ref = &cfg;
        let a = fingerprint_analyzed(&prog, cfg_ref);
        let b = fingerprint_analyzed(&wrapped, cfg_ref);
        prop_assert_eq!(
            a.fingerprint, b.fingerprint,
            "multiply-by-one wrapper survived canonicalization"
        );

        let ev = tiny_evaluator();
        let ea = ev.evaluate_opt(&prog, false);
        let eb = ev.evaluate_opt(&wrapped, false);
        prop_assert_eq!(
            ea.fitness.map(f64::to_bits),
            eb.fitness.map(f64::to_bits),
            "fitness diverged under identity wrapping"
        );
    }
}

/// Proptest only samples the verdict space; these crafted programs pin
/// each rejecting verdict to a known trigger so the soundness branches
/// above are provably exercised.
#[test]
fn crafted_constant_program_is_rejected_and_uniform() {
    let ev = tiny_evaluator();
    let mut prog = AlphaProgram::new();
    prog.setup.push(Instruction::nop());
    // The input read is dead (s1 is overwritten by a constant), which is
    // exactly the shape a mutated-away alpha takes in the wild.
    prog.predict
        .push(Instruction::new(Op::MGet, 0, 0, 2, [0.0; 2], [1, 2]));
    prog.predict
        .push(Instruction::new(Op::SConst, 0, 0, 1, [0.5, 0.0], [0; 2]));
    prog.update.push(Instruction::nop());

    let analyzed = fingerprint_analyzed(&prog, ev.config());
    assert_eq!(analyzed.facts.verdict(), StaticVerdict::RejectConstant);
    assert!(analyzed.facts.constant && analyzed.facts.uniform);
    for row in predict_rows(&analyzed.pruned.program, &ev) {
        assert!(row.iter().all(|x| x.to_bits() == 0.5f64.to_bits()));
    }
    let eval = ev.evaluate_opt(&analyzed.pruned.program, false);
    assert!(eval.fitness.is_none() || eval.fitness == Some(0.0));
}

#[test]
fn crafted_nan_program_is_rejected_and_unfit() {
    let ev = tiny_evaluator();
    let mut prog = AlphaProgram::new();
    // s2 = 0.0; s1 = s2 / s2 == 0/0 == NaN on every stock, every day.
    prog.setup
        .push(Instruction::new(Op::SConst, 0, 0, 2, [0.0, 0.0], [0; 2]));
    prog.predict
        .push(Instruction::new(Op::MGet, 0, 0, 3, [0.0; 2], [1, 2]));
    prog.predict
        .push(Instruction::new(Op::SDiv, 2, 2, 1, [0.0; 2], [0; 2]));
    prog.update.push(Instruction::nop());

    let analyzed = fingerprint_analyzed(&prog, ev.config());
    assert_eq!(analyzed.facts.verdict(), StaticVerdict::RejectAlwaysNan);
    for row in predict_rows(&analyzed.pruned.program, &ev) {
        assert!(row.iter().all(|x| x.is_nan()));
    }
    assert!(ev
        .evaluate_opt(&analyzed.pruned.program, false)
        .fitness
        .is_none());
}

/// The paper's hand-built seed must never be statically rejected — the
/// search starts from it.
#[test]
fn domain_expert_seed_is_accepted() {
    let cfg = AlphaConfig::default();
    let prog = init::domain_expert(&cfg);
    let analyzed = fingerprint_analyzed(&prog, &cfg);
    assert_eq!(analyzed.facts.verdict(), StaticVerdict::Accept);
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
