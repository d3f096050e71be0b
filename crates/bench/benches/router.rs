//! Sharded serving throughput: one-day requests through the
//! transport-agnostic API — a warm in-process [`ServerSession`], then a
//! [`ShardedRouter`] over 1/2/4 in-process shard threads (loopback pipes
//! speaking the AEVS wire protocol). The router's overhead over a direct
//! session is the price of the wire round trip + merge; on a 1-core
//! machine the shard parallelism itself cannot show, so treat the
//! multi-shard numbers as protocol-overhead measurements.
//!
//! At paper scale a 4-day range request runs both ways too (direct
//! session vs. a 2-shard router, whose fan-out overlaps the shards), and
//! `wire/crc32_131kb` times the frame checksum over one 2-shard range
//! reply's payload (4 alphas × 4 days × 1026 stocks of f64).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use alphaevolve_backtest::CrossSections;
use alphaevolve_bench::{bench_dataset, paper_scale_dataset};
use alphaevolve_core::{fingerprint, init, AlphaConfig, AlphaProgram, EvalOptions};
use alphaevolve_market::features::FeatureSet;
use alphaevolve_market::Dataset;
use alphaevolve_store::codec::crc32;
use alphaevolve_store::{
    feature_set_id, AlphaArchive, AlphaServer, AlphaService, ArchivedAlpha, ShardedRouter,
};

/// Eight distinct programs in an archive carrier (synthetic gate
/// metadata; serving only reads the programs and the recipe id).
fn archive(cfg: &AlphaConfig, features: &FeatureSet) -> AlphaArchive {
    let mut programs: Vec<(String, AlphaProgram)> = vec![
        ("expert".into(), init::domain_expert(cfg)),
        ("momentum".into(), init::momentum(cfg)),
        ("reversal".into(), init::industry_reversal(cfg)),
        ("nn".into(), init::two_layer_nn(cfg)),
    ];
    for (i, (name, base)) in programs.clone().into_iter().enumerate() {
        let mut scaled = base;
        scaled.predict.push(alphaevolve_core::Instruction::new(
            alphaevolve_core::Op::SConst,
            0,
            0,
            7,
            [0.5 + i as f64 / 10.0, 0.0],
            [0; 2],
        ));
        scaled.predict.push(alphaevolve_core::Instruction::new(
            alphaevolve_core::Op::SMul,
            1,
            7,
            1,
            [0.0; 2],
            [0; 2],
        ));
        programs.push((format!("{name}_scaled"), scaled));
    }
    let fsid = feature_set_id(features);
    let mut archive = AlphaArchive::with_cutoff(16, 1.0);
    for (i, (name, program)) in programs.into_iter().enumerate() {
        let outcome = archive.admit(ArchivedAlpha {
            name,
            fingerprint: fingerprint(&program, cfg).0,
            program,
            ic: 0.1 + i as f64 / 100.0,
            val_returns: (0..40)
                .map(|t| ((i + 1) as f64 * t as f64).sin() * 0.01)
                .collect(),
            train_days: (0, 1),
            feature_set_id: fsid,
        });
        assert!(outcome.admitted());
    }
    archive
}

fn bench_routing(c: &mut Criterion, label: &str, ds: &Arc<Dataset>) {
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let features = FeatureSet::paper();
    let archive = archive(&cfg, &features);
    let day = ds.test_days().start;

    let server = AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(ds), &features)
        .expect("recipe matches");
    let mut session = server.session();
    let mut out = CrossSections::new(0, 0);
    c.bench_function(&format!("router/{label}/direct_session"), |b| {
        b.iter(|| {
            session.serve_day(day, &mut out).expect("serve");
            out.row(0)[0]
        });
    });

    for n_shards in [1usize, 2, 4] {
        let mut router = ShardedRouter::over_threads(&archive, n_shards, cfg, &opts, ds, &features)
            .expect("fleet boots");
        c.bench_function(&format!("router/{label}/loopback_{n_shards}_shards"), |b| {
            b.iter(|| {
                router.serve_day(day, &mut out).expect("routed serve");
                out.row(0)[0]
            });
        });
    }
}

/// 4-day range requests: the backfill shape, where each shard's reply is
/// large enough that overlapping the shards matters.
fn bench_ranges(c: &mut Criterion, label: &str, ds: &Arc<Dataset>) {
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let features = FeatureSet::paper();
    let archive = archive(&cfg, &features);
    let start = ds.test_days().start;
    let days = start..start + 4;

    let server = AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(ds), &features)
        .expect("recipe matches");
    let mut session = server.session();
    let mut out = CrossSections::new(0, 0);
    c.bench_function(&format!("router/{label}/range4_direct_session"), |b| {
        b.iter(|| {
            session.serve_range(days.clone(), &mut out).expect("serve");
            out.row(0)[0]
        });
    });

    let mut router =
        ShardedRouter::over_threads(&archive, 2, cfg, &opts, ds, &features).expect("fleet boots");
    c.bench_function(&format!("router/{label}/range4_loopback_2_shards"), |b| {
        b.iter(|| {
            router
                .serve_range(days.clone(), &mut out)
                .expect("routed serve");
            out.row(0)[0]
        });
    });
}

fn bench_crc(c: &mut Criterion) {
    let payload: Vec<u8> = (0..4 * 4 * 1026 * 8)
        .map(|i| (i * 31 % 251) as u8)
        .collect();
    c.bench_function("wire/crc32_131kb", |b| {
        b.iter(|| crc32(std::hint::black_box(&payload)));
    });
}

fn router_benches(c: &mut Criterion) {
    bench_routing(c, "24_stocks", &bench_dataset());
    let paper = paper_scale_dataset();
    bench_routing(c, "paper_1026_stocks", &paper);
    bench_ranges(c, "paper_1026_stocks", &paper);
    bench_crc(c);
}

criterion_group!(benches, router_benches);
criterion_main!(benches);
