//! The serving contract: a warm [`AlphaServer`] request returns, per
//! program, exactly the bits a fresh compile → train → predict evaluation
//! of that day would produce — while doing one input load per batch
//! instead of one per program.

use std::sync::Arc;

use alphaevolve_backtest::CrossSections;
use alphaevolve_core::{
    compile, init, AlphaConfig, AlphaProgram, ColumnarInterpreter, EvalOptions, GroupIndex,
    Instruction, Op,
};
use alphaevolve_market::{
    features::FeatureSet, generator::MarketConfig, Dataset, DayMajorPanel, SplitSpec,
};
use alphaevolve_store::archive::{AlphaArchive, ArchivedAlpha};
use alphaevolve_store::server::AlphaServer;

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
/// reload `m0` for whoever follows it in the batch.
fn input_clobbering_alpha() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::nop()],
        predict: vec![
            Instruction::new(Op::MAbs, 0, 0, 0, [0.0; 2], [0; 2]),
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

/// The reference: a fresh interpreter per (program, day) — reset, setup,
/// full training sweep (when stateful), then predict exactly that day.
fn reference_prediction(
    cfg: &AlphaConfig,
    ds: &Dataset,
    panel: &DayMajorPanel,
    groups: &GroupIndex,
    opts: &EvalOptions,
    prog: &AlphaProgram,
    day: usize,
) -> Vec<f64> {
    let compiled = compile(prog, cfg, ds.n_stocks());
    let mut interp = ColumnarInterpreter::new(cfg, ds, panel, groups, opts.seed);
    interp.run_setup(&compiled);
    if alphaevolve_core::liveness(prog).stateful {
        for _ in 0..opts.train_epochs {
            for d in ds.train_days() {
                interp.train_day(&compiled, d, opts.run_update);
            }
        }
    }
    let mut out = vec![0.0; ds.n_stocks()];
    interp.predict_day(&compiled, day, &mut out);
    out
}

#[test]
fn served_bits_equal_fresh_evaluation_bits() {
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let ds = dataset(42, 14);
    let panel = DayMajorPanel::from_panel(ds.panel());
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
            let reference = reference_prediction(&cfg, &ds, &panel, &groups, &opts, prog, day);
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
