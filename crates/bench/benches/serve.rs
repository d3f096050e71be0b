//! Archive serving throughput: batched multi-program prediction (compile
//! and train once, one load of the input cells the archive reads per
//! request, trained parameters resident, only dirty planes restored)
//! against the naive compile-and-train-per-request loop it replaces —
//! measured in served alpha-days/sec on the paper-scale 1026-stock panel.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use alphaevolve_backtest::CrossSections;
use alphaevolve_bench::{bench_dataset, paper_scale_dataset};
use alphaevolve_core::{
    compile, init, AlphaConfig, AlphaProgram, ColumnarInterpreter, EvalOptions, GroupIndex,
    Instruction, Op,
};
use alphaevolve_market::{Dataset, DayMajorPanel};
use alphaevolve_store::AlphaServer;

/// The served batch: the four seed alphas plus constant-scaled variants —
/// eight distinct compiled programs, a realistic small hall of fame.
fn archive_programs(cfg: &AlphaConfig) -> Vec<(String, AlphaProgram)> {
    let mut programs = vec![
        ("expert".into(), init::domain_expert(cfg)),
        ("momentum".into(), init::momentum(cfg)),
        ("reversal".into(), init::industry_reversal(cfg)),
        ("nn".into(), init::two_layer_nn(cfg)),
    ];
    for (i, (name, base)) in programs.clone().into_iter().enumerate() {
        let mut scaled = base;
        // Append a final rescale of the prediction: a distinct program
        // with near-identical cost profile.
        scaled.predict.push(Instruction::new(
            Op::SConst,
            0,
            0,
            7,
            [0.5 + i as f64 / 10.0, 0.0],
            [0; 2],
        ));
        scaled
            .predict
            .push(Instruction::new(Op::SMul, 1, 7, 1, [0.0; 2], [0; 2]));
        programs.push((format!("{name}_scaled"), scaled));
    }
    programs
}

/// The environment of the naive baseline: everything a compile-per-request
/// server re-derives from on every call.
struct NaiveServer<'a> {
    cfg: &'a AlphaConfig,
    ds: &'a Dataset,
    panel: &'a DayMajorPanel,
    groups: &'a GroupIndex,
    opts: &'a EvalOptions,
    programs: &'a [(String, AlphaProgram)],
}

impl NaiveServer<'_> {
    /// The baseline a serving layer without persistent compiled artifacts
    /// pays per request: compile, reset, setup, full training sweep, then
    /// the one requested day — for every program in the batch.
    fn compile_per_request(&self, day: usize, out: &mut [f64]) {
        let k = self.ds.n_stocks();
        for (row, (_, prog)) in self.programs.iter().enumerate() {
            let compiled = compile(prog, self.cfg, k);
            let mut interp = ColumnarInterpreter::new(
                self.cfg,
                self.ds,
                self.panel,
                self.groups,
                self.opts.seed,
            );
            interp.run_setup(&compiled);
            if alphaevolve_core::liveness(prog).stateful {
                for _ in 0..self.opts.train_epochs {
                    for d in self.ds.train_days() {
                        interp.train_day(&compiled, d, self.opts.run_update);
                    }
                }
            }
            interp.predict_day(&compiled, day, &mut out[row * k..(row + 1) * k]);
        }
    }
}

fn benches(c: &mut Criterion) {
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let programs = archive_programs(&cfg);
    let n = programs.len();

    for (label, ds) in [
        ("24stock", bench_dataset()),
        ("1026stock", paper_scale_dataset()),
    ] {
        let server = AlphaServer::new(cfg, &opts, Arc::clone(&ds), programs.clone());
        let day = ds.test_days().start;
        let k = ds.n_stocks();

        // One warm arena, one request per iteration: the steady-state
        // serving hot path (alpha-days/sec = n_alphas / time).
        c.bench_function(&format!("serve/batched_day_{n}alphas_{label}"), |b| {
            let mut arena = server.arena();
            let mut plane = CrossSections::new(0, 0);
            server.serve_day_into(&mut arena, day, &mut plane);
            b.iter(|| {
                server.serve_day_into(&mut arena, std::hint::black_box(day), &mut plane);
                plane.row(0)[0]
            });
        });

        // The same request answered by re-compiling and re-training every
        // program from scratch (24-stock only at full fidelity; at 1026
        // stocks one baseline request re-trains 8 programs × ~80 days —
        // still measured, so the ROADMAP can quote the real ratio).
        let panel = DayMajorPanel::from_panel(ds.panel());
        let groups = GroupIndex::from_universe(ds.universe());
        let naive = NaiveServer {
            cfg: &cfg,
            ds: &ds,
            panel: &panel,
            groups: &groups,
            opts: &opts,
            programs: &programs,
        };
        c.bench_function(
            &format!("serve/compile_per_request_{n}alphas_{label}"),
            |b| {
                let mut out = vec![0.0; n * k];
                b.iter(|| {
                    naive.compile_per_request(std::hint::black_box(day), &mut out);
                    out[0]
                });
            },
        );
    }
}

criterion_group! {
    name = serve;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    targets = benches
}
criterion_main!(serve);
