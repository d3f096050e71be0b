//! Interpreter and evaluator throughput: full candidate evaluations,
//! single cross-sectional days for lockstep vs columnar execution (the
//! per-instruction dispatch-hoisting win), and the per-candidate compile
//! pass. Paper-scale (1026-stock) comparisons quantify the columnar
//! speedup where the stock axis dominates.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use alphaevolve_bench::{
    bench_dataset, bench_evaluator, paper_scale_dataset, paper_scale_evaluator, SoloTile,
};
use alphaevolve_core::kernels::{self, RankCache};
use alphaevolve_core::relation::rank_within;
use alphaevolve_core::{
    compile_into, init, liveness, AlphaProgram, CompileScratch, CompiledProgram, GroupIndex,
    Interpreter,
};
use alphaevolve_market::DayMajorPanel;

/// Per-kernel plane benches at `k` stocks: each polynomial kernel next to
/// the host-libm loop it replaced, the blocked `mat_mul` next to the naive
/// triple loop, and the cached rank next to the full re-sort, on
/// near-identical consecutive cross-sections. Run with
/// `BENCH_JSON=results/BENCH_interp.json` to record the numbers.
fn kernel_benches(c: &mut Criterion, k: usize) {
    // Deterministic non-trivial plane: mixed signs and magnitudes.
    let base: Vec<f64> = (0..k)
        .map(|i| ((i * 2_654_435_761) % 10_007) as f64 / 1_000.0 - 5.0)
        .collect();
    let positive: Vec<f64> = base.iter().map(|x| x.abs() + 1e-3).collect();
    let mut dst = vec![0.0; k];

    c.bench_function(&format!("kern{k}/s_sin_plane"), |b| {
        b.iter(|| kernels::sin_plane(std::hint::black_box(&base), &mut dst));
    });
    c.bench_function(&format!("kern{k}/s_sin_libm"), |b| {
        b.iter(|| {
            for (d, x) in dst.iter_mut().zip(std::hint::black_box(&base)) {
                *d = x.sin();
            }
        });
    });
    c.bench_function(&format!("kern{k}/s_exp_plane"), |b| {
        b.iter(|| kernels::exp_plane(std::hint::black_box(&base), &mut dst));
    });
    c.bench_function(&format!("kern{k}/s_exp_libm"), |b| {
        b.iter(|| {
            for (d, x) in dst.iter_mut().zip(std::hint::black_box(&base)) {
                *d = x.exp();
            }
        });
    });
    c.bench_function(&format!("kern{k}/s_ln_plane"), |b| {
        b.iter(|| kernels::ln_plane(std::hint::black_box(&positive), &mut dst));
    });
    c.bench_function(&format!("kern{k}/s_ln_libm"), |b| {
        b.iter(|| {
            for (d, x) in dst.iter_mut().zip(std::hint::black_box(&positive)) {
                *d = x.ln();
            }
        });
    });

    // mat_mul over d×d matrix planes: blocked micro-kernel vs the naive
    // read-modify-write triple loop it replaced.
    let d = 13;
    let d2k = d * d * k;
    let mut m = vec![0.0; 3 * d2k];
    for (i, x) in m.iter_mut().take(2 * d2k).enumerate() {
        *x = ((i * 37) % 101) as f64 / 17.0 - 3.0;
    }
    let mut scratch = vec![0.0; d2k];
    c.bench_function(&format!("kern{k}/mat_mul_blocked"), |b| {
        b.iter(|| {
            kernels::mat_mul_planes(
                std::hint::black_box(&mut m),
                &mut scratch,
                0,
                d2k,
                2 * d2k,
                d,
                k,
            );
        });
    });
    c.bench_function(&format!("kern{k}/mat_mul_naive"), |b| {
        b.iter(|| {
            let m = std::hint::black_box(&mut m);
            scratch.fill(0.0);
            for r in 0..d {
                for cc in 0..d {
                    let so = (r * d + cc) * k;
                    for kk in 0..d {
                        let (ma, mb) = ((r * d + kk) * k, d2k + (kk * d + cc) * k);
                        for i in 0..k {
                            scratch[so + i] += m[ma + i] * m[mb + i];
                        }
                    }
                }
            }
            m[2 * d2k..].copy_from_slice(&scratch);
        });
    });

    // rel_rank on near-identical consecutive cross-sections: each
    // iteration re-writes the plane with an order-preserving perturbation
    // (a new day whose cross-section barely moved), then ranks it. The
    // cached kernel verifies sortedness in O(K); the full sort re-argsorts.
    let group: Vec<u32> = (0..k as u32).collect();
    let mut day = base.clone();
    let mut out = vec![0.0; k];
    c.bench_function(&format!("kern{k}/rel_rank_cached_nearident"), |b| {
        let mut cache = RankCache::new(1, k);
        let mut scale = 1.0;
        b.iter(|| {
            scale *= 1.000_000_000_1;
            for (dd, x) in day.iter_mut().zip(std::hint::black_box(&base)) {
                *dd = x * scale;
            }
            cache.rank_groups(
                0,
                0,
                &alphaevolve_core::relation::GroupSlices::Single(&group),
                &day,
                &mut out,
            );
        });
    });
    c.bench_function(&format!("kern{k}/rel_rank_fullsort_nearident"), |b| {
        let mut rank_scratch = Vec::with_capacity(k);
        let mut scale = 1.0;
        b.iter(|| {
            scale *= 1.000_000_000_1;
            for (dd, x) in day.iter_mut().zip(std::hint::black_box(&base)) {
                *dd = x * scale;
            }
            rank_within(&group, &day, &mut out, &mut rank_scratch);
        });
    });
}

fn kernel_benches_24(c: &mut Criterion) {
    kernel_benches(c, 24);
}

fn kernel_benches_1026(c: &mut Criterion) {
    kernel_benches(c, 1026);
}

fn benches(c: &mut Criterion) {
    let evaluator = bench_evaluator();
    let cfg = *evaluator.config();
    let expert = init::domain_expert(&cfg);
    let nn = init::two_layer_nn(&cfg);
    let relational = init::industry_reversal(&cfg);

    c.bench_function("interp/evaluate_formulaic_alpha", |b| {
        b.iter(|| evaluator.evaluate(std::hint::black_box(&expert)));
    });
    c.bench_function("interp/evaluate_formulaic_no_skip", |b| {
        b.iter(|| evaluator.evaluate_opt(std::hint::black_box(&expert), false));
    });
    c.bench_function("interp/evaluate_nn_alpha_with_training", |b| {
        b.iter(|| evaluator.evaluate(std::hint::black_box(&nn)));
    });
    c.bench_function("interp/full_backtest_nn", |b| {
        b.iter(|| evaluator.backtest(std::hint::black_box(&nn)));
    });

    c.bench_function("interp/compile_nn_alpha", |b| {
        let k = evaluator.dataset().n_stocks();
        let mut out = CompiledProgram::with_capacity(&cfg);
        let mut scratch = CompileScratch::default();
        b.iter(|| compile_into(std::hint::black_box(&nn), &cfg, k, &mut scratch, &mut out));
    });

    // Batched tile vs sequential: eight candidates through one
    // program-major × stock-major tile (each day's feature block staged
    // once into the shared plane for all eight register files) versus
    // eight one-at-a-time evaluations through one warm B = 1 tile. Both
    // paths run the full training sweep (skip_training = false).
    let eight: Vec<AlphaProgram> = (0..8)
        .map(|i| match i % 3 {
            0 => init::two_layer_nn(&cfg),
            1 => init::domain_expert(&cfg),
            _ => init::industry_reversal(&cfg),
        })
        .collect();
    c.bench_function("interp/evaluate_8_candidates_sequential", |b| {
        let mut solo = evaluator.batch_arena(1);
        b.iter(|| {
            let mut acc = 0.0;
            for p in &eight {
                solo.clear();
                solo.push(std::hint::black_box(p), false);
                evaluator.evaluate_batch_in(&mut solo);
                acc += solo.fitness(0).unwrap_or(0.0);
            }
            acc
        });
    });
    c.bench_function("interp/evaluate_8_candidates_batched", |b| {
        let mut tile = evaluator.batch_arena(8);
        b.iter(|| {
            tile.clear();
            for p in &eight {
                tile.push(std::hint::black_box(p), false);
            }
            evaluator.evaluate_batch_in(&mut tile);
            (0..tile.len())
                .map(|s| tile.fitness(s).unwrap_or(0.0))
                .sum::<f64>()
        });
    });

    // The same comparison at paper scale (1026 stocks), where the per-day
    // feature block is ~1 MB and staging it once per tile instead of once
    // per candidate is the dominant saving. Four candidates, tile width 4.
    let paper_ev = paper_scale_evaluator();
    let four: Vec<AlphaProgram> = vec![
        init::two_layer_nn(&cfg),
        init::domain_expert(&cfg),
        init::industry_reversal(&cfg),
        init::domain_expert(&cfg),
    ];
    c.bench_function("interp/evaluate_4_candidates_sequential_1026", |b| {
        let mut solo = paper_ev.batch_arena(1);
        b.iter(|| {
            let mut acc = 0.0;
            for p in &four {
                solo.clear();
                solo.push(std::hint::black_box(p), false);
                paper_ev.evaluate_batch_in(&mut solo);
                acc += solo.fitness(0).unwrap_or(0.0);
            }
            acc
        });
    });
    c.bench_function("interp/evaluate_4_candidates_batched_1026", |b| {
        let mut tile = paper_ev.batch_arena(4);
        b.iter(|| {
            tile.clear();
            for p in &four {
                tile.push(std::hint::black_box(p), false);
            }
            paper_ev.evaluate_batch_in(&mut tile);
            (0..tile.len())
                .map(|s| tile.fitness(s).unwrap_or(0.0))
                .sum::<f64>()
        });
    });

    // The expert seed alone through a B = 1 tile at paper scale, exactly
    // as the search scores it (stateless, so only the validation sweep
    // runs): it reads 4 of the 169 input cells, so each day's load copies
    // 4 · 1026 values instead of the whole 13 × 13 window.
    c.bench_function("interp/evaluate_formulaic_alpha_1026", |b| {
        let mut tile = paper_ev.batch_arena(1);
        let skip = !liveness(&expert).stateful;
        b.iter(|| {
            tile.clear();
            tile.push(std::hint::black_box(&expert), skip);
            paper_ev.evaluate_batch_in(&mut tile);
            tile.fitness(0)
        });
    });

    // The NN seed through a B = 1 tile at paper scale, as the search
    // scores it: a full training sweep whose update is bound by the fused
    // rank-1 pass `W1 += v8 ⊗ x` over a 13 × 13 × 1026 plane.
    c.bench_function("interp/evaluate_nn_alpha_1026", |b| {
        let mut tile = paper_ev.batch_arena(1);
        b.iter(|| {
            tile.clear();
            tile.push(std::hint::black_box(&nn), false);
            paper_ev.evaluate_batch_in(&mut tile);
            tile.fitness(0)
        });
    });

    // One-day lockstep vs columnar on the small (24-stock) dataset.
    let dataset = bench_dataset();
    let groups = GroupIndex::from_universe(dataset.universe());
    let panel = DayMajorPanel::from_panel(dataset.panel());
    let day = dataset.valid_days().start;
    c.bench_function("interp/predict_one_day_lockstep", |b| {
        let mut interp = Interpreter::new(&cfg, &dataset, &groups, 0);
        interp.run_setup(&nn);
        let mut out = vec![0.0; dataset.n_stocks()];
        b.iter(|| interp.predict_day(std::hint::black_box(&nn), day, &mut out));
    });
    c.bench_function("interp/predict_one_day_columnar", |b| {
        let mut tile = SoloTile::new(&cfg, &dataset, &panel, &groups, 0, &nn);
        let mut out = vec![0.0; dataset.n_stocks()];
        b.iter(|| tile.predict_day(std::hint::black_box(day), &mut out));
    });

    // Paper-scale (1026 stocks): the per-(instruction × stock) dispatch and
    // gather/scatter overheads the columnar engine removes scale with K.
    let paper = paper_scale_dataset();
    let paper_groups = GroupIndex::from_universe(paper.universe());
    let paper_panel = DayMajorPanel::from_panel(paper.panel());
    let paper_day = paper.valid_days().start;
    for (name, prog) in [("nn", &nn), ("relational", &relational)] {
        c.bench_function(
            &format!("interp/predict_one_day_lockstep_1026_{name}"),
            |b| {
                let mut interp = Interpreter::new(&cfg, &paper, &paper_groups, 0);
                interp.run_setup(prog);
                let mut out = vec![0.0; paper.n_stocks()];
                b.iter(|| interp.predict_day(std::hint::black_box(prog), paper_day, &mut out));
            },
        );
        c.bench_function(
            &format!("interp/predict_one_day_columnar_1026_{name}"),
            |b| {
                let mut tile = SoloTile::new(&cfg, &paper, &paper_panel, &paper_groups, 0, prog);
                let mut out = vec![0.0; paper.n_stocks()];
                b.iter(|| tile.predict_day(std::hint::black_box(paper_day), &mut out));
            },
        );
    }
}

criterion_group! {
    name = interp;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    targets = benches, kernel_benches_24, kernel_benches_1026
}
criterion_main!(interp);
