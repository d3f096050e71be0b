//! Accuracy battery for the polynomial transcendental kernels, plus
//! bitwise engine-parity over transcendental-dense programs.
//!
//! The kernels in `core::kernels` document a ≤ 2 ULP bound against the
//! correctly rounded result. The host libm is itself within ~1 ULP, so
//! these properties assert **≤ 4 ULP against the host libm** across the
//! full input domain — bit-pattern inputs cover NaN payloads, ±inf,
//! subnormals, and both zeros.
//!
//! The parity properties then check the actual contract the engines rely
//! on: a `B = 1` tile, a wider tile, and the lockstep oracle produce
//! identical bits on programs *dense* in transcendental and rank ops.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use alphaevolve_core::kernels;
use alphaevolve_core::{
    liveness, AlphaConfig, AlphaProgram, EvalOptions, Evaluator, FunctionId, GroupIndex,
    Instruction, Op,
};
use alphaevolve_market::{
    features::FeatureSet, generator::MarketConfig, Dataset, DayMajorPanel, SplitSpec,
};

mod common;

/// ULP distance through the monotone bit mapping; NaN≡NaN, NaN≢number.
fn ulps(a: f64, b: f64) -> u64 {
    if a.is_nan() && b.is_nan() {
        0
    } else if a.is_nan() || b.is_nan() {
        u64::MAX
    } else {
        kernels::rank_key(a).abs_diff(kernels::rank_key(b))
    }
}

const TOL: u64 = 4;

fn assert_close(name: &str, x: f64, got: f64, want: f64) {
    let d = ulps(got, want);
    assert!(
        d <= TOL,
        "{name}({x:e} = {:#x}): kernel {got:e} vs libm {want:e} ({d} ULP)",
        x.to_bits()
    );
}

/// Hand-picked edge inputs every kernel must survive: zeros, subnormals,
/// normal extremes, reduction boundaries, domain edges, non-finites.
fn edge_inputs() -> Vec<f64> {
    let mut v = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),        // smallest subnormal
        f64::from_bits(0xF_FFFF), // larger subnormal
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1.0,
        -1.0,
        0.5,
        -0.5,
        0.975, // asin's split-word branch boundary
        2.0_f64.powi(-27),
        2.0_f64.powi(-29),
        2.0_f64.powi(-57),
        709.782712893384,   // exp overflow edge
        -745.1332191019412, // exp underflow edge
        1.0e6,              // trig reduction fallback boundary
        -1.0e6,
        999_999.999_9,
        1.0e6 + 0.0001,
        0.6744, // tan kernel's big-|x| boundary
    ];
    for k in 1..20 {
        let m = k as f64 * std::f64::consts::FRAC_PI_2;
        v.push(m);
        v.push(-m);
        v.push(m + 1e-9);
        v.push(m.next_up());
        v.push(m.next_down());
    }
    v
}

#[test]
fn kernels_match_libm_on_edges() {
    for x in edge_inputs() {
        assert_close("exp", x, kernels::exp(x), x.exp());
        assert_close("ln", x, kernels::ln(x), x.ln());
        assert_close("sin", x, kernels::sin(x), x.sin());
        assert_close("cos", x, kernels::cos(x), x.cos());
        assert_close("tan", x, kernels::tan(x), x.tan());
        assert_close("asin", x, kernels::asin(x), x.asin());
        assert_close("acos", x, kernels::acos(x), x.acos());
        assert_close("atan", x, kernels::atan(x), x.atan());
    }
}

proptest! {
    /// Full-domain sweep: inputs are raw bit patterns, so every class of
    /// f64 (subnormals, NaN payloads, ±inf, both zeros) is generated.
    #[test]
    fn kernels_match_libm_full_domain(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        assert_close("exp", x, kernels::exp(x), x.exp());
        assert_close("ln", x, kernels::ln(x), x.ln());
        assert_close("sin", x, kernels::sin(x), x.sin());
        assert_close("cos", x, kernels::cos(x), x.cos());
        assert_close("tan", x, kernels::tan(x), x.tan());
        assert_close("asin", x, kernels::asin(x), x.asin());
        assert_close("acos", x, kernels::acos(x), x.acos());
        assert_close("atan", x, kernels::atan(x), x.atan());
    }

    /// Dense sweep of the region evaluation actually lives in, where the
    /// branch-free cores (not the libm fallbacks) do the work.
    #[test]
    fn kernels_match_libm_in_working_range(mantissa in any::<u64>(), scale in -20i32..20) {
        let x = (mantissa as f64 / u64::MAX as f64 - 0.5) * 2.0_f64.powi(scale);
        assert_close("exp", x, kernels::exp(x), x.exp());
        assert_close("ln", x, kernels::ln(x), x.ln());
        assert_close("sin", x, kernels::sin(x), x.sin());
        assert_close("cos", x, kernels::cos(x), x.cos());
        assert_close("tan", x, kernels::tan(x), x.tan());
        assert_close("asin", x, kernels::asin(x), x.asin());
        assert_close("acos", x, kernels::acos(x), x.acos());
        assert_close("atan", x, kernels::atan(x), x.atan());
    }

    /// The plane variants are bitwise the scalar kernels (the columnar
    /// engine uses the planes, the lockstep oracle the scalars — this is
    /// the parity contract at the kernel level).
    #[test]
    fn plane_kernels_match_scalar_bitwise(seed in any::<u64>(), scale in -8i32..24) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut src: Vec<f64> = (0..37)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0_f64.powi(scale))
            .collect();
        // Salt the plane with the rare-path inputs the patch pass covers.
        src[5] = f64::NAN;
        src[11] = f64::INFINITY;
        src[17] = -3.9e12;
        src[23] = -0.0;
        src[29] = -src[29].abs(); // a guaranteed-negative ln input
        let mut dst = vec![0.0; src.len()];
        kernels::sin_plane(&src, &mut dst);
        for (&x, &d) in src.iter().zip(&dst) {
            prop_assert_eq!(d.to_bits(), kernels::sin(x).to_bits());
        }
        kernels::cos_plane(&src, &mut dst);
        for (&x, &d) in src.iter().zip(&dst) {
            prop_assert_eq!(d.to_bits(), kernels::cos(x).to_bits());
        }
        kernels::ln_plane(&src, &mut dst);
        for (&x, &d) in src.iter().zip(&dst) {
            prop_assert_eq!(d.to_bits(), kernels::ln(x).to_bits());
        }
        kernels::exp_plane(&src, &mut dst);
        for (&x, &d) in src.iter().zip(&dst) {
            prop_assert_eq!(d.to_bits(), kernels::exp(x).to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Engine parity over transcendental-dense programs
// ---------------------------------------------------------------------------

/// A random program drawn from a pool dense in transcendental and rank
/// ops (plus just enough arithmetic/extraction to move data between
/// kinds), exercising exactly the kernels this PR rewrote.
fn transcendental_dense_program(seed: u64, ns: usize, np: usize, nu: usize) -> AlphaProgram {
    let cfg = AlphaConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let pool: Vec<Op> = vec![
        Op::SSin,
        Op::SCos,
        Op::STan,
        Op::SArcSin,
        Op::SArcCos,
        Op::SArcTan,
        Op::SExp,
        Op::SLn,
        Op::RelRank,
        Op::RelRankSector,
        Op::RelRankIndustry,
        Op::MatMul,
        Op::MTranspose,
        Op::MMean,
        Op::SAdd,
        Op::SMul,
    ];
    let setup_pool: Vec<Op> = pool.iter().copied().filter(|o| !o.is_relation()).collect();
    let mut prog = AlphaProgram::new();
    for (f, n) in [
        (FunctionId::Setup, ns),
        (FunctionId::Predict, np),
        (FunctionId::Update, nu),
    ] {
        let p = if f == FunctionId::Setup {
            &setup_pool
        } else {
            &pool
        };
        for _ in 0..n.max(1) {
            prog.function_mut(f)
                .push(Instruction::random(&mut rng, p, &cfg));
        }
    }
    prog
}

fn fixture() -> &'static (Dataset, GroupIndex, DayMajorPanel) {
    static FIXTURE: std::sync::OnceLock<(Dataset, GroupIndex, DayMajorPanel)> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let market = MarketConfig {
            n_stocks: 11,
            n_days: 115,
            seed: 777,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tile vs lockstep over transcendental-dense programs: identical
    /// prediction bits on every day. This is the sharpest probe of the
    /// shared-kernel contract — any divergence between the plane kernels
    /// and the scalar kernels shows up here.
    #[test]
    fn transcendental_dense_columnar_matches_lockstep(
        seed in any::<u64>(),
        interp_seed in any::<u64>(),
        np in 2usize..14,
        nu in 1usize..8,
    ) {
        use alphaevolve_core::Interpreter;
        let cfg = AlphaConfig::default();
        let (ds, groups, panel) = fixture();
        let prog = transcendental_dense_program(seed, 3, np, nu);
        let mut lock = Interpreter::new(&cfg, ds, groups, interp_seed);
        let mut col = common::Solo::new(&cfg, ds, panel, groups, interp_seed, &prog);
        lock.run_setup(&prog);
        let k = ds.n_stocks();
        let (mut a, mut b) = (vec![0.0; k], vec![0.0; k]);
        for day in ds.train_days().take(6) {
            lock.train_day(&prog, day, true);
            col.train_day(day, true);
        }
        for day in ds.valid_days().take(6) {
            lock.predict_day(&prog, day, &mut a);
            col.predict_day(day, &mut b);
            for (s, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "stock {} day {}: lockstep {} vs columnar {}", s, day, x, y
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Wide tile vs `B = 1` tiles over tiles of transcendental-dense
    /// candidates: fitness and validation-return bits match per slot.
    /// With the lockstep property above this closes the three-way
    /// `B = 1` tile = wide tile = lockstep oracle loop.
    #[test]
    fn transcendental_dense_batched_matches_sequential(
        seed in any::<u64>(),
        batch in 2usize..6,
    ) {
        let market = MarketConfig {
            n_stocks: 11,
            n_days: 115,
            seed: 777,
            n_sectors: 3,
            ..Default::default()
        }
        .generate();
        let dataset =
            Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap();
        let ev = Evaluator::new(
            AlphaConfig::default(),
            EvalOptions::default(),
            Arc::new(dataset),
        );
        let progs: Vec<AlphaProgram> = (0..batch)
            .map(|i| transcendental_dense_program(seed.wrapping_add(i as u64), 2, 9, 4))
            .collect();
        let mut tile = ev.batch_arena(batch);
        for p in &progs {
            tile.push(p, !liveness(p).stateful);
        }
        ev.evaluate_batch_in(&mut tile);
        let mut solo = ev.batch_arena(1);
        for (slot, p) in progs.iter().enumerate() {
            solo.clear();
            solo.push(p, !liveness(p).stateful);
            ev.evaluate_batch_in(&mut solo);
            prop_assert_eq!(
                tile.fitness(slot).map(f64::to_bits),
                solo.fitness(0).map(f64::to_bits),
                "slot {}: fitness bits diverged", slot
            );
            for (i, (a, b)) in tile
                .val_returns(slot)
                .iter()
                .zip(solo.val_returns(0))
                .enumerate()
            {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "slot {}: validation return {} diverged", slot, i
                );
            }
        }
    }
}
