//! The serving contract: a warm [`AlphaServer`] request returns, per
//! program, exactly the bits a fresh train → predict run of the lockstep
//! oracle produces for that day — while doing one input load per batch
//! instead of one per program, and restoring only the planes predict
//! reads before it writes them. The server runs the columnar tile, so the
//! reference is the independent engine.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use alphaevolve_backtest::CrossSections;
use alphaevolve_core::memory::{INPUT, PREDICTION};
use alphaevolve_core::{
    init, AlphaConfig, AlphaProgram, EvalOptions, FunctionId, GroupIndex, Instruction, Interpreter,
    Kind, Op,
};
use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
use alphaevolve_store::archive::{AlphaArchive, ArchivedAlpha};
use alphaevolve_store::server::AlphaServer;
use alphaevolve_store::service::AlphaService;

fn dataset(seed: u64, n_stocks: usize) -> Arc<Dataset> {
    let md = MarketConfig {
        n_stocks,
        n_days: 130,
        seed,
        ..Default::default()
    }
    .generate();
    Arc::new(Dataset::build(&md, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap())
}

/// A stochastic alpha (predict-time RNG draws) for the RNG-restore path.
fn stochastic_alpha() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::new(Op::MGauss, 0, 0, 1, [0.0, 0.5], [0; 2])],
        predict: vec![
            Instruction::new(Op::VUniform, 0, 0, 2, [-0.1, 0.1], [0; 2]),
            Instruction::new(Op::MatVec, 1, 2, 3, [0.0; 2], [0; 2]),
            Instruction::new(Op::VMean, 3, 0, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::MMean, 0, 0, 4, [0.0; 2], [0; 2]),
            Instruction::new(Op::SAdd, 2, 4, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::new(Op::SGauss, 0, 0, 5, [0.0, 1.0], [0; 2])],
    }
}

/// An alpha whose predict clobbers the input matrix — the server must
/// keep the loaded `m0` intact for whoever follows it in the batch. It
/// squares `m0`: the features are non-negative, so an `m_abs` would
/// leave the bits as they were and hide a clobbered plane.
fn input_clobbering_alpha() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::nop()],
        predict: vec![
            Instruction::new(Op::MMul, 0, 0, 0, [0.0; 2], [0; 2]),
            Instruction::new(Op::MMean, 0, 0, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::nop()],
    }
}

fn batch(cfg: &AlphaConfig) -> Vec<(String, AlphaProgram)> {
    vec![
        ("expert".into(), init::domain_expert(cfg)),
        ("clobber".into(), input_clobbering_alpha()),
        ("nn".into(), init::two_layer_nn(cfg)),
        ("reversal".into(), init::industry_reversal(cfg)),
        ("stochastic".into(), stochastic_alpha()),
        ("momentum".into(), init::momentum(cfg)),
    ]
}

/// The reference: a fresh lockstep oracle per (program, day) — setup,
/// full training sweep (when stateful), then predict exactly that day.
fn reference_prediction(
    cfg: &AlphaConfig,
    ds: &Dataset,
    groups: &GroupIndex,
    opts: &EvalOptions,
    prog: &AlphaProgram,
    day: usize,
) -> Vec<f64> {
    let mut interp = Interpreter::new(cfg, ds, groups, opts.seed);
    interp.run_setup(prog);
    if alphaevolve_core::liveness(prog).stateful {
        for _ in 0..opts.train_epochs {
            for d in ds.train_days() {
                interp.train_day(prog, d, opts.run_update);
            }
        }
    }
    let mut out = vec![0.0; ds.n_stocks()];
    interp.predict_day(prog, day, &mut out);
    out
}

#[test]
fn served_bits_equal_fresh_evaluation_bits() {
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let ds = dataset(42, 14);
    let groups = GroupIndex::from_universe(ds.universe());
    let programs = batch(&cfg);
    let server = AlphaServer::new(cfg, &opts, Arc::clone(&ds), programs.clone());

    let mut arena = server.arena();
    let mut plane = CrossSections::new(0, 0);
    let days: Vec<usize> = ds.valid_days().chain(ds.test_days()).step_by(5).collect();
    for &day in &days {
        server.serve_day_into(&mut arena, day, &mut plane);
        assert_eq!(plane.n_days(), programs.len());
        for (row, (name, prog)) in programs.iter().enumerate() {
            let reference = reference_prediction(&cfg, &ds, &groups, &opts, prog, day);
            for (s, (a, b)) in plane.row(row).iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "alpha `{name}` day {day} stock {s}: served {a} != reference {b}"
                );
            }
        }
    }
}

#[test]
fn repeated_requests_are_deterministic() {
    // Stateless-per-request serving: the same day twice (with a recurrent
    // and a stochastic alpha in the batch) yields identical bits.
    let cfg = AlphaConfig::default();
    let ds = dataset(7, 10);
    let server = AlphaServer::new(cfg, &EvalOptions::default(), Arc::clone(&ds), batch(&cfg));
    let day = ds.valid_days().start + 3;
    let mut arena = server.arena();
    let (mut a, mut b) = (CrossSections::new(0, 0), CrossSections::new(0, 0));
    server.serve_day_into(&mut arena, day, &mut a);
    // Serve other days in between to dirty the arena.
    let mut scratch = CrossSections::new(0, 0);
    for d in ds.test_days().take(4) {
        server.serve_day_into(&mut arena, d, &mut scratch);
    }
    server.serve_day_into(&mut arena, day, &mut b);
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn from_archive_rejects_foreign_feature_sets() {
    let cfg = AlphaConfig::default();
    let ds = dataset(11, 10);
    let features = FeatureSet::paper();
    let mut archive = AlphaArchive::new(4);
    let outcome = archive.admit(ArchivedAlpha {
        name: "alien".into(),
        program: init::domain_expert(&cfg),
        fingerprint: 1,
        ic: 0.1,
        val_returns: vec![0.01, -0.02, 0.03, 0.0, 0.01],
        train_days: (30, 90),
        feature_set_id: 0xDEAD_BEEF, // not the dataset's recipe
    });
    assert!(outcome.admitted());
    let err = AlphaServer::from_archive(&archive, cfg, &EvalOptions::default(), ds, &features);
    assert!(err.is_err(), "foreign feature-set id must be refused");
    let msg = err.err().unwrap().to_string();
    assert!(msg.contains("alien"), "error names the offender: {msg}");
}

/// A random program over few registers (4 scalars, 3 vectors, 3
/// matrices, so reads and writes collide often), shaped by `seed`'s
/// draws into any mix of: a recurrence predict reads before it writes, a
/// stochastic predict, a predict that writes `m0`, and a predict that
/// never writes `s1` (the prediction then comes from setup or update).
fn random_served_program(seed: u64) -> AlphaProgram {
    let cfg = AlphaConfig::default();
    let narrow = AlphaConfig {
        n_scalars: 4,
        n_vectors: 3,
        n_matrices: 3,
        ..cfg
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let setup_pool: Vec<Op> = Op::ALL
        .iter()
        .copied()
        .filter(|o| !o.is_relation())
        .collect();
    let mut prog = AlphaProgram::new();
    for (f, n) in [
        (FunctionId::Setup, rng.gen_range(1..4)),
        (FunctionId::Predict, rng.gen_range(2..7)),
        (FunctionId::Update, rng.gen_range(1..5)),
    ] {
        let pool = if f == FunctionId::Setup {
            &setup_pool[..]
        } else {
            Op::ALL
        };
        for _ in 0..n {
            prog.function_mut(f)
                .push(Instruction::random(&mut rng, pool, &narrow));
        }
    }
    let ins = |op, in1: usize, in2: usize, out: usize, lit| {
        Instruction::new(op, in1 as u8, in2 as u8, out as u8, lit, [0; 2])
    };
    if rng.gen_bool(0.5) {
        // s3 = s3 + s2 first, s1 = s1 + s3 last: both read before written.
        prog.predict.insert(0, ins(Op::SAdd, 3, 2, 3, [0.0; 2]));
        prog.predict
            .push(ins(Op::SAdd, PREDICTION, 3, PREDICTION, [0.0; 2]));
    }
    if rng.gen_bool(0.4) {
        let at = rng.gen_range(0..=prog.predict.len());
        prog.predict
            .insert(at, ins(Op::VGauss, 0, 0, 2, [0.0, 1.0]));
    }
    if rng.gen_bool(0.4) {
        let at = rng.gen_range(0..=prog.predict.len());
        prog.predict
            .insert(at, ins(Op::MMul, INPUT, INPUT, INPUT, [0.0; 2]));
    }
    if rng.gen_bool(0.3) {
        for instr in &mut prog.predict {
            if instr.op.output_kind() == Kind::S && instr.out as usize == PREDICTION {
                instr.out = 2;
            }
        }
        prog.setup
            .push(ins(Op::SGauss, 0, 0, PREDICTION, [0.0, 1.0]));
    }
    prog.validate(&cfg).expect("generated programs validate");
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random archives served through one reused session, days shuffled
    /// and repeated, give the bits of a fresh train-then-predict of each
    /// program for each day: no state leaks between programs or
    /// requests, whichever planes predict reads, writes, or leaves alone.
    #[test]
    fn random_archives_serve_fresh_evaluation_bits(seed in any::<u64>(), n in 1usize..5) {
        let cfg = AlphaConfig::default();
        let opts = EvalOptions::default();
        let ds = dataset(seed % 5, 9);
        let groups = GroupIndex::from_universe(ds.universe());
        let programs: Vec<(String, AlphaProgram)> = (0..n as u64)
            .map(|i| (format!("p{i}"), random_served_program(seed.wrapping_add(i))))
            .collect();
        let server = AlphaServer::new(cfg, &opts, Arc::clone(&ds), programs.clone());
        let mut session = server.session();

        let mut rng = SmallRng::seed_from_u64(seed);
        let window = ds.valid_days().start..ds.test_days().end;
        let days: Vec<usize> = (0..6).map(|_| rng.gen_range(window.clone())).collect();
        let mut references = HashMap::new();
        let mut reference = |row: usize, day: usize| -> Vec<f64> {
            references
                .entry((row, day))
                .or_insert_with(|| {
                    let prog = &programs[row].1;
                    reference_prediction(&cfg, &ds, &groups, &opts, prog, day)
                })
                .clone()
        };
        let mut plane = CrossSections::new(0, 0);
        for &day in &days {
            session.serve_day(day, &mut plane).unwrap();
            for row in 0..n {
                let want: Vec<u64> = reference(row, day).iter().map(|x| x.to_bits()).collect();
                let got: Vec<u64> = plane.row(row).iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(got, want, "program {} day {}", row, day);
            }
        }
        let start = days[0].min(window.end - 3);
        session.serve_range(start..start + 3, &mut plane).unwrap();
        for (i, day) in (start..start + 3).enumerate() {
            for row in 0..n {
                let want: Vec<u64> = reference(row, day).iter().map(|x| x.to_bits()).collect();
                let got: Vec<u64> = plane.row(i * n + row).iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(got, want, "range: program {} day {}", row, day);
            }
        }
    }
}
