//! Cross-crate determinism: the whole pipeline is a pure function of its
//! seeds (single-worker), which is what makes experiments reproducible.

use std::sync::Arc;

use alphaevolve::core::{
    init, AlphaConfig, Budget, EvalOptions, Evaluator, Evolution, EvolutionConfig,
};
use alphaevolve::gp::{GpBudget, GpConfig, GpEngine};
use alphaevolve::market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
use alphaevolve::neural::{RankLstm, RankLstmConfig};

fn pipeline_fingerprint(seed: u64) -> (f64, f64, f64) {
    let market = MarketConfig {
        n_stocks: 14,
        n_days: 130,
        seed,
        ..Default::default()
    }
    .generate();
    let ds =
        Arc::new(Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap());

    let ev = Evaluator::new(AlphaConfig::default(), EvalOptions::default(), ds.clone());
    let outcome = Evolution::new(
        &ev,
        EvolutionConfig {
            population_size: 15,
            tournament_size: 4,
            budget: Budget::Searched(150),
            seed: 5,
            ..Default::default()
        },
    )
    .run(&init::domain_expert(ev.config()));
    let ae_ic = outcome.best.map_or(f64::NAN, |b| b.ic);

    let gp = GpEngine::new(
        &ds,
        GpConfig {
            population_size: 20,
            budget: GpBudget::Generations(2),
            seed: 5,
            ..Default::default()
        },
    )
    .run();
    let gp_ic = gp.best.map_or(f64::NAN, |b| b.ic);

    let mut rl = RankLstm::new(RankLstmConfig {
        hidden: 4,
        seq_len: 4,
        epochs: 1,
        seed: 5,
        ..Default::default()
    });
    let log = rl.train(&ds);
    (ae_ic, gp_ic, log.epoch_losses[0])
}

#[test]
fn whole_pipeline_is_seed_deterministic() {
    let a = pipeline_fingerprint(9);
    let b = pipeline_fingerprint(9);
    assert_eq!(a, b, "same seeds must give bit-identical results");
}

#[test]
fn different_market_seeds_give_different_results() {
    let a = pipeline_fingerprint(9);
    let b = pipeline_fingerprint(10);
    assert_ne!(a, b);
}

/// Pins the evaluation-path refactor (flat CrossSections panels, reusable
/// evaluation arenas, sharded fingerprint cache): a fixed-seed single-worker
/// evolution run must reproduce the best-alpha fingerprint, fitness, and
/// search counters measured on the pre-refactor nested-Vec implementation.
#[test]
fn fixed_seed_run_reproduces_prerefactor_best_alpha() {
    use alphaevolve::core::fingerprint;

    let market = MarketConfig {
        n_stocks: 16,
        n_days: 140,
        seed: 21,
        ..Default::default()
    }
    .generate();
    let ds =
        Arc::new(Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap());
    let ev = Evaluator::new(AlphaConfig::default(), EvalOptions::default(), ds);
    let outcome = Evolution::new(
        &ev,
        EvolutionConfig {
            population_size: 20,
            tournament_size: 5,
            budget: Budget::Searched(300),
            seed: 7,
            workers: 1,
            ..Default::default()
        },
    )
    .run(&init::domain_expert(ev.config()));
    let best = outcome.best.expect("fixed-seed run finds an alpha");
    let (fp, _) = fingerprint(&best.program, ev.config());

    assert_eq!(outcome.stats.searched, 300);
    assert!(best.ic.is_finite());

    // The IC pin dates to the pre-refactor evaluator (PR 1 tree) and has
    // survived every engine change since: this run still converges to the
    // *same best alpha*. The fingerprint and evaluation count were
    // re-pinned when algebraic canonicalization and static rejection
    // landed — the canonical form (and hence the hash) of the same
    // program changed, and stronger duplicate detection turned 21 former
    // evaluations into cache hits (92 → 70) plus one static rejection.
    // The search path runs through libm transcendentals (sin/ln/...),
    // whose bit patterns are only reproducible on the same platform — so
    // the exact pins apply where CI runs; elsewhere the structural
    // assertions above still hold.
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        assert_eq!(
            fp, 0x60f0a96b0af11c64,
            "best-alpha fingerprint diverged from the pinned run"
        );
        assert_eq!(best.ic, 0.21213852898918362, "best IC diverged");
        assert_eq!(outcome.stats.evaluated, 70);
        assert_eq!(outcome.stats.static_rejected, 1);
    }
}

/// The batched-tile determinism contract: the fixed-seed run must land on
/// the identical outcome — best-alpha fingerprint, IC bits, counters, and
/// trajectory — for every batch size, because batching only re-tiles the
/// day sweep (per-candidate register/RNG state stays private). Run with
/// batching *disabled* (B = 1, the fingerprint pin above) and *enabled*
/// (B > 1, here), so the contract gates merges from both sides.
#[test]
fn fixed_seed_run_is_batch_size_invariant() {
    use alphaevolve::core::fingerprint;

    let market = MarketConfig {
        n_stocks: 16,
        n_days: 140,
        seed: 21,
        ..Default::default()
    }
    .generate();
    let ds =
        Arc::new(Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap());
    let ev = Evaluator::new(AlphaConfig::default(), EvalOptions::default(), ds);
    let run = |batch: usize| {
        Evolution::new(
            &ev,
            EvolutionConfig {
                population_size: 20,
                tournament_size: 5,
                budget: Budget::Searched(300),
                seed: 7,
                workers: 1,
                batch,
                ..Default::default()
            },
        )
        .run(&init::domain_expert(ev.config()))
    };

    let sequential = run(1);
    let seq_best = sequential.best.as_ref().expect("run finds an alpha");
    for batch in [5usize, 16] {
        let batched = run(batch);
        let best = batched.best.as_ref().expect("batched run finds an alpha");
        assert_eq!(
            fingerprint(&best.program, ev.config()).0,
            fingerprint(&seq_best.program, ev.config()).0,
            "batch {batch}: best-alpha fingerprint diverged from sequential"
        );
        assert_eq!(
            best.ic.to_bits(),
            seq_best.ic.to_bits(),
            "batch {batch}: best IC bits diverged"
        );
        assert_eq!(
            best.val_returns
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            seq_best
                .val_returns
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "batch {batch}: best val-returns diverged"
        );
        assert_eq!(
            batched.stats, sequential.stats,
            "batch {batch}: search counters diverged"
        );
        assert_eq!(
            batched.trajectory, sequential.trajectory,
            "batch {batch}: trajectory diverged"
        );
    }

    // And the absolute pin, where the platform guarantees bitwise libm
    // reproducibility (see fixed_seed_run_reproduces_prerefactor_best_alpha).
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        let batched = run(8);
        let best = batched.best.expect("batched run finds an alpha");
        assert_eq!(
            fingerprint(&best.program, ev.config()).0,
            0x60f0a96b0af11c64,
            "batched run lost the pinned fingerprint"
        );
        assert_eq!(best.ic, 0.21213852898918362);
        assert_eq!(batched.stats.evaluated, 70);
    }
}
