//! Evolution-loop throughput: mutation cost and end-to-end candidates per
//! second, with and without the §4.2 pruning pipeline.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use alphaevolve_bench::tiny_dataset;
use alphaevolve_core::{
    init, AlphaConfig, Budget, EvalOptions, Evaluator, Evolution, EvolutionConfig, MutationConfig,
    Mutator,
};

fn benches(c: &mut Criterion) {
    let cfg = AlphaConfig::default();
    let mutator = Mutator::new(cfg, MutationConfig::default());
    let parent = init::two_layer_nn(&cfg);
    c.bench_function("evolution/mutate_nn_parent", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| mutator.mutate(&mut rng, std::hint::black_box(&parent)));
    });

    let evaluator = Evaluator::new(cfg, EvalOptions::default(), tiny_dataset());
    let econfig = EvolutionConfig {
        population_size: 20,
        tournament_size: 5,
        budget: Budget::Searched(150),
        seed: 1,
        ..Default::default()
    };
    c.bench_function("evolution/150_candidates_with_pruning", |b| {
        b.iter(|| Evolution::new(&evaluator, econfig.clone()).run(&parent));
    });
    c.bench_function("evolution/150_candidates_no_pruning", |b| {
        b.iter(|| {
            Evolution::new(&evaluator, econfig.clone())
                .without_pruning()
                .run(&parent)
        });
    });

    // End-to-end search throughput vs worker count: one fixed 600-candidate
    // budget per run; candidates/sec = 600 / (reported time per iteration).
    // Workers share the population and the sharded fingerprint cache but
    // own their evaluation arenas.
    for workers in [1usize, 4, 8] {
        let wconfig = EvolutionConfig {
            workers,
            budget: Budget::Searched(600),
            ..econfig.clone()
        };
        c.bench_function(
            &format!("evolution/600_candidates_{workers}_workers"),
            |b| b.iter(|| Evolution::new(&evaluator, wconfig.clone()).run(&parent)),
        );
    }

    // Batched multi-candidate evaluation: the same 600-candidate budget on
    // one worker, tile width B. Each day's feature block is staged into
    // the shared input plane once per *tile* instead of once per
    // candidate; single-worker results are bit-identical across B
    // (tests/determinism.rs), so the sweep isolates pure throughput.
    // B = 1 is `600_candidates_1_workers` above (the default config).
    for batch in [4usize, 8, 16] {
        let bconfig = EvolutionConfig {
            batch,
            budget: Budget::Searched(600),
            ..econfig.clone()
        };
        c.bench_function(&format!("evolution/600_candidates_batch_{batch}"), |b| {
            b.iter(|| Evolution::new(&evaluator, bconfig.clone()).run(&parent));
        });
    }
}

criterion_group! {
    name = evolution;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(2000));
    targets = benches
}
criterion_main!(evolution);
