//! Proves the zero-allocation evaluation hot path: once a worker's
//! [`EvalArena`] is warm, `Evaluator::evaluate_in` performs **zero heap
//! allocations per candidate** — the per-candidate compile pass (liveness
//! marks + lowered instructions) refills reused buffers, columnar
//! interpreter planes are reset in place, predictions land in the arena's
//! flat `CrossSections` panel, the IC streams without collecting, and
//! portfolio returns refill reused buffers.
//!
//! Measured with a counting global allocator. The counter is process-wide,
//! so everything runs inside one `#[test]` — a concurrently-running
//! sibling test would otherwise bleed its allocations into the
//! measurement window. The libtest harness's *main* thread is the one
//! exception: it occasionally wakes (timeout bookkeeping) and allocates a
//! few dozen bytes at a random moment, so the allocator identifies it (the
//! process's first allocation happens on it, long before any test thread
//! exists) and leaves it out of the count. Every thread the test itself
//! causes to exist — including the shard-server threads behind the routed
//! serving path of phase 4 — is counted.
//!
//! This file is the one deliberate `unsafe` exception in the workspace:
//! implementing [`GlobalAlloc`] is an `unsafe` trait contract, full stop.
//! Every crate root carries `#![forbid(unsafe_code)]`; integration tests
//! compile as their own crates, so this exception lives here without
//! weakening that guarantee anywhere shipping code runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use alphaevolve::backtest::CrossSections;
use alphaevolve::core::{
    fingerprint, init, AlphaConfig, AlphaProgram, EvalOptions, Evaluator, FlushCause, Instruction,
    Op, SearchTelemetry,
};
use alphaevolve::market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
use alphaevolve::store::{
    feature_set_id, AlphaArchive, AlphaServer, AlphaService, ArchivedAlpha, ShardedRouter,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Identity of the harness's main thread, claimed by the process's first
/// allocation (which happens on it during runtime startup, before any
/// other thread can exist). The address of a `const`-initialized
/// thread-local is a stable, allocation-free per-thread identity — and
/// the main thread outlives the process, so its address is never recycled
/// to another thread.
static MAIN_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TL_MARK: u8 = const { 0 };
}

fn thread_id() -> usize {
    TL_MARK.with(|m| m as *const _ as usize)
}

/// Counts the allocation unless it comes from the harness main thread
/// (libtest's timeout bookkeeping fires there at arbitrary moments and
/// would bleed 1–2 allocations into a measurement window at random).
fn count_allocation() {
    let id = thread_id();
    if MAIN_THREAD
        .compare_exchange(0, id, Ordering::Relaxed, Ordering::Relaxed)
        .map_or_else(|main| main != id, |_| false)
    {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A candidate whose prediction goes NaN on the first validation day (the
/// sweep aborts by invalidating the day in the panel, no copies).
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

/// A kernel-heavy candidate: transcendental plane ops (polynomial
/// kernels), `mat_mul` (blocked micro-kernel with its scratch plane), and
/// two rank instructions (two `RankCache` rows, exercising both the
/// seeded-reuse and the reseed-on-kind-switch paths across consecutive
/// days). All of it must stay allocation-free once the arena is warm.
fn transcendental_candidate() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::new(Op::MGauss, 0, 0, 1, [0.0, 0.5], [0; 2])],
        predict: vec![
            Instruction::new(Op::MatMul, 1, 1, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::MMean, 2, 0, 2, [0.0; 2], [0; 2]),
            Instruction::new(Op::SSin, 2, 0, 3, [0.0; 2], [0; 2]),
            Instruction::new(Op::SExp, 3, 0, 3, [0.0; 2], [0; 2]),
            Instruction::new(Op::SLn, 3, 0, 3, [0.0; 2], [0; 2]),
            Instruction::new(Op::STan, 3, 0, 4, [0.0; 2], [0; 2]),
            Instruction::new(Op::RelRank, 4, 0, 4, [0.0; 2], [0; 2]),
            Instruction::new(Op::RelRankSector, 4, 0, 5, [0.0; 2], [0; 2]),
            Instruction::new(Op::SAdd, 4, 5, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::nop()],
    }
}

/// A stochastic candidate: RNG draws in all three functions, including a
/// dead one the compile pass must keep (it advances the streams) — the
/// per-stock RNG path is part of the pinned hot loop.
fn stochastic_candidate() -> AlphaProgram {
    AlphaProgram {
        setup: vec![
            Instruction::new(Op::MGauss, 0, 0, 1, [0.0, 0.5], [0; 2]),
            Instruction::new(Op::SUniform, 0, 0, 9, [-1.0, 1.0], [0; 2]),
        ],
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

/// A candidate whose predict reads `s1` before writing it: `s1` is a
/// dirty plane the server restores before every prediction.
fn recurrent_candidate() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::new(Op::SConst, 0, 0, 1, [0.5, 0.0], [0; 2])],
        predict: vec![
            Instruction::new(Op::MGet, 0, 0, 2, [0.0; 2], [3, 12]),
            Instruction::new(Op::SAdd, 1, 2, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::nop()],
    }
}

/// A candidate whose predict overwrites the input matrix `m0`.
fn input_clobbering_candidate() -> AlphaProgram {
    AlphaProgram {
        setup: vec![Instruction::nop()],
        predict: vec![
            Instruction::new(Op::MAbs, 0, 0, 0, [0.0; 2], [0; 2]),
            Instruction::new(Op::MMean, 0, 0, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::nop()],
    }
}

#[test]
fn evaluation_hot_path_is_allocation_free_once_warm() {
    let market = MarketConfig {
        n_stocks: 16,
        n_days: 140,
        seed: 13,
        ..Default::default()
    }
    .generate();
    let ds =
        Arc::new(Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap());
    let ev = Evaluator::new(
        AlphaConfig::default(),
        EvalOptions::default(),
        Arc::clone(&ds),
    );

    // A mix of shapes: stateless expert formula, stateful two-layer NN
    // (full training sweep), a relational alpha (rank/demean planes), an
    // explicitly stochastic alpha (per-stock RNG streams), and a
    // kernel-heavy alpha (transcendental planes, blocked mat_mul, cached
    // ranks).
    let progs = [
        init::domain_expert(ev.config()),
        init::two_layer_nn(ev.config()),
        init::industry_reversal(ev.config()),
        stochastic_candidate(),
        transcendental_candidate(),
    ];
    let bad = invalid_candidate();

    let mut arena = ev.arena();
    // Warm-up: buffers grow to their high-water mark.
    for prog in &progs {
        let _ = ev.evaluate_in(&mut arena, prog);
    }
    let _ = ev.evaluate_in(&mut arena, &bad);

    // Phase 1: valid candidates (compile + train + sweep + IC + returns).
    let before = allocations();
    let mut checksum = 0.0;
    for _ in 0..5 {
        for prog in &progs {
            checksum += ev.evaluate_in(&mut arena, prog).unwrap_or(0.0);
        }
    }
    let after = allocations();
    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "evaluate_in allocated on the hot path ({} allocations over 25 candidates)",
        after - before
    );
    // Phase 2: killed candidates (aborted sweep) must not allocate either.
    let before = allocations();
    for _ in 0..5 {
        assert!(ev.evaluate_in(&mut arena, &bad).is_none());
    }
    let after = allocations();
    assert_eq!(after - before, 0, "killed candidates must not allocate");

    // Phase 3: the serving path. Build an AlphaServer over the same mix
    // of program shapes (compile + train + snapshot happen here, off the
    // hot path), warm one arena and one output plane, then require that a
    // served prediction request — one day × the full archive — performs
    // zero heap allocations.
    let server = AlphaServer::new(
        AlphaConfig::default(),
        &EvalOptions::default(),
        Arc::clone(&ds),
        progs
            .iter()
            .enumerate()
            .map(|(i, p)| (format!("alpha_{i}"), p.clone()))
            .collect(),
    );
    let mut serve_arena = server.arena();
    let mut plane = CrossSections::new(0, 0);
    let days: Vec<usize> = ds.valid_days().chain(ds.test_days()).take(6).collect();
    // Warm-up request: the plane grows to its high-water mark.
    server.serve_day_into(&mut serve_arena, days[0], &mut plane);

    let before = allocations();
    let mut served_checksum = 0.0;
    for &day in &days {
        server.serve_day_into(&mut serve_arena, day, &mut plane);
        served_checksum += plane.row(0)[0] + plane.row(server.n_alphas() - 1)[1];
    }
    let after = allocations();
    assert!(served_checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "serving allocated on the hot path ({} allocations over {} requests)",
        after - before,
        days.len()
    );

    // Phase 4: the routed serving path. The same program mix goes into an
    // archive, which is partitioned across two in-process shards (worker
    // threads behind loopback pipes speaking the AEVS wire protocol) with
    // a ShardedRouter in front. Once the router is warm, a full routed
    // request — encode request frames, fan out to both shard threads,
    // each shard serves from its warm session and encodes a predictions
    // frame, the router decodes and merges the blocks — must perform zero
    // heap allocations anywhere in the process.
    let features = FeatureSet::paper();
    let fsid = feature_set_id(&features);
    // Correlation-free admission (cutoff 1.0, synthetic return series):
    // the archive here is a carrier for the programs; serving ignores the
    // gate metadata.
    let mut archive = AlphaArchive::with_cutoff(8, 1.0);
    for (i, prog) in progs.iter().enumerate() {
        let outcome = archive.admit(ArchivedAlpha {
            name: format!("alpha_{i}"),
            fingerprint: fingerprint(prog, ev.config()).0,
            program: prog.clone(),
            ic: 0.1 + i as f64 * 0.01,
            val_returns: (0..40)
                .map(|t| ((i + 1) as f64 * t as f64).sin() * 0.01)
                .collect(),
            train_days: (0, 1),
            feature_set_id: fsid,
        });
        assert!(outcome.admitted(), "fixture admission: {outcome:?}");
    }
    let mut router = ShardedRouter::over_threads(
        &archive,
        2,
        AlphaConfig::default(),
        &EvalOptions::default(),
        &ds,
        &features,
    )
    .expect("shard fleet boots");
    let mut routed = CrossSections::new(0, 0);
    // Warm-up: client/server buffers, pipe queues, and the merge panel
    // all grow to their high-water marks.
    for &day in days.iter().take(2) {
        router.serve_day(day, &mut routed).expect("warm-up request");
    }

    let before = allocations();
    let mut routed_checksum = 0.0;
    for &day in &days {
        router.serve_day(day, &mut routed).expect("routed request");
        routed_checksum += routed.row(0)[0] + routed.row(archive.len() - 1)[1];
    }
    let after = allocations();
    assert!(routed_checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "routed serving allocated on the hot path ({} allocations over {} requests)",
        after - before,
        days.len()
    );
    // Routed ranges take the same fan-out + merge: both shards get the
    // range before either block is read, and each day's shard block is
    // interleaved into the merged panel in place.
    let ranges: Vec<std::ops::Range<usize>> = days.iter().map(|&d| d..d + 4).collect();
    for range in ranges.iter().take(2) {
        router
            .serve_range(range.clone(), &mut routed)
            .expect("warm-up range");
    }
    let before = allocations();
    for range in &ranges {
        router
            .serve_range(range.clone(), &mut routed)
            .expect("routed range");
        routed_checksum += routed.row(0)[0] + routed.row(routed.n_days() - 1)[1];
    }
    let after = allocations();
    assert!(routed_checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "routed range serving allocated on the hot path ({} allocations over {} ranges)",
        after - before,
        ranges.len()
    );
    // And the routed bits are the directly-served bits.
    server.serve_day_into(&mut serve_arena, days[0], &mut plane);
    router
        .serve_day(days[0], &mut routed)
        .expect("routed request");
    assert_eq!(
        plane.as_slice(),
        routed.as_slice(),
        "router diverged from direct serving"
    );

    // Phase 5: the batched tile path. A warm BatchArena cycles through
    // full tiles, a partial final tile, and a tile containing a killed
    // candidate — zero heap allocations after warm-up. Per-slot compile
    // passes refill each slot's lowered buffers, slot register planes
    // reset in place, and each day's feature block is staged once into
    // the shared plane for all slots.
    let mut tile = ev.batch_arena(progs.len());
    // Warm-up: a full tile then a partial tile with the killed candidate
    // grow every slot's buffers to their high-water marks.
    for prog in &progs {
        tile.push(prog, false);
    }
    ev.evaluate_batch_in(&mut tile);
    tile.clear();
    tile.push(&progs[0], false);
    tile.push(&bad, false);
    ev.evaluate_batch_in(&mut tile);
    tile.clear();

    // The telemetry facade rides along in the measured window: draining a
    // tile's eval spans and absorbing them into the shared search
    // telemetry is part of every instrumented flush cycle, so it must be
    // allocation-free too (plain u64 cells drained into relaxed atomics).
    let telemetry = SearchTelemetry::new();

    let before = allocations();
    let mut batched_checksum = 0.0;
    for _ in 0..5 {
        // A full tile...
        for prog in &progs {
            tile.push(prog, false);
        }
        ev.evaluate_batch_in(&mut tile);
        for slot in 0..tile.len() {
            batched_checksum += tile.fitness(slot).unwrap_or(0.0);
        }
        telemetry.absorb_eval(&tile.drain_telemetry());
        telemetry.record_flush(FlushCause::TileFull, tile.len(), progs.len(), 1);
        tile.clear();
        // ...then a partial final tile whose first slot aborts mid-sweep.
        tile.push(&bad, false);
        tile.push(&progs[3], false);
        ev.evaluate_batch_in(&mut tile);
        assert!(tile.fitness(0).is_none(), "killed slot must score None");
        batched_checksum += tile.fitness(1).unwrap_or(0.0);
        telemetry.absorb_eval(&tile.drain_telemetry());
        telemetry.record_flush(FlushCause::Final, tile.len(), progs.len(), 1);
        tile.clear();
    }
    let after = allocations();
    assert!(batched_checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "batched evaluation allocated on the hot path ({} allocations over 10 tiles)",
        after - before
    );

    // Phase 6: input-cell masks. Candidates that read different `m0`
    // cells — four cells (expert), two cells (momentum), one column (NN),
    // none (kernel-heavy), every cell (stochastic) — refill a warm tile
    // in changing pairs, so the tile's union mask is recomputed from
    // different masks each time; the sequential `evaluate_prepared_in`
    // path loads each candidate's own mask. Neither may allocate.
    let momentum = init::momentum(ev.config());
    let pairs: [[&AlphaProgram; 2]; 4] = [
        [&progs[0], &momentum],
        [&progs[1], &progs[4]],
        [&progs[3], &progs[0]],
        [&momentum, &progs[1]],
    ];
    let mut tile = ev.batch_arena(2);
    let mut masked = || {
        let mut sum = 0.0;
        for pair in &pairs {
            for prog in pair {
                tile.push(prog, false);
            }
            ev.evaluate_batch_in(&mut tile);
            sum += tile.fitness(0).unwrap_or(0.0) + tile.fitness(1).unwrap_or(0.0);
            tile.clear();
            for prog in pair {
                sum += ev
                    .evaluate_prepared_in(&mut arena, prog, false)
                    .unwrap_or(0.0);
            }
        }
        sum
    };
    masked();
    let before = allocations();
    let mut masked_checksum = 0.0;
    for _ in 0..3 {
        masked_checksum += masked();
    }
    let after = allocations();
    assert!(masked_checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "masked input loads allocated on the hot path ({} allocations)",
        after - before
    );

    // Phase 7: a warm session over an archive that restores state. The
    // recurrent candidate's predict reads s1 before writing it (a dirty
    // plane, restored every request), the clobbering one writes m0 (the
    // next program reloads the input cells), and the NN keeps its trained
    // weights resident. Day and range requests must not allocate.
    let server = AlphaServer::new(
        AlphaConfig::default(),
        &EvalOptions::default(),
        Arc::clone(&ds),
        vec![
            ("recurrent".into(), recurrent_candidate()),
            ("clobber".into(), input_clobbering_candidate()),
            ("nn".into(), progs[1].clone()),
            ("stochastic".into(), progs[3].clone()),
        ],
    );
    let mut session = server.session();
    let mut plane = CrossSections::new(0, 0);
    let range = days[1]..days[1] + 3;
    session.serve_day(days[0], &mut plane).expect("warm-up day");
    session
        .serve_range(range.clone(), &mut plane)
        .expect("warm-up range");
    let before = allocations();
    let mut restored_checksum = 0.0;
    for &day in &days {
        session.serve_day(day, &mut plane).expect("day request");
        restored_checksum += plane.row(0)[0] + plane.row(2)[1];
        session
            .serve_range(range.clone(), &mut plane)
            .expect("range request");
        restored_checksum += plane.row(5)[0];
    }
    let after = allocations();
    assert!(restored_checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "serving with dirty planes and an m0 writer allocated ({} allocations)",
        after - before
    );
}
