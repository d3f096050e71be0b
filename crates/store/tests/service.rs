//! The serving-API contract: any [`AlphaService`] implementation — a warm
//! in-process session, a wire client over loopback pipes or Unix domain
//! sockets, a sharded router over either, or a router of routers — must
//! return predictions **bit-identical** to a direct
//! [`AlphaServer::serve_day`] on the same archive and day, including for
//! the fixed-seed mined alpha pinned since PR 2
//! (fingerprint `0x60f0a96b0af11c64` on x86-64 Linux).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alphaevolve_backtest::CrossSections;
use alphaevolve_core::{
    fingerprint, init, AlphaConfig, Budget, EvalOptions, Evaluator, Evolution, EvolutionConfig,
};
use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
use alphaevolve_store::archive::{feature_set_id, AlphaArchive, ArchivedAlpha};
use alphaevolve_store::router::{spawn_thread_shards, ShardedRouter};
use alphaevolve_store::server::AlphaServer;
use alphaevolve_store::service::{AlphaService, ServerSession, ServiceMetadata};
use alphaevolve_store::transport::{loopback, serve_connection, serve_uds, ServiceClient};
use alphaevolve_store::{ServiceErrorCode, StoreError};

/// Aborts the whole test process if the guarded section outlives the
/// budget — a hung Unix-socket accept loop must fail the suite fast, not
/// wedge CI until the job-level timeout.
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(budget: Duration, what: &'static str) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        std::thread::spawn(move || {
            let step = Duration::from_millis(200);
            let mut waited = Duration::ZERO;
            while waited < budget {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(step);
                waited += step;
            }
            eprintln!("watchdog: `{what}` exceeded {budget:?}; aborting");
            std::process::abort();
        });
        Watchdog { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// The pinned-fingerprint fixture: the same fixed-seed evolution run as
/// `tests/determinism.rs`, whose best alpha has reproduced bit-for-bit
/// through every engine refactor since PR 2 — archived here alongside the
/// paper initializations so the serving equivalence covers a genuinely
/// *mined* program, not just hand-written ones.
fn mined_archive() -> (Arc<Dataset>, FeatureSet, AlphaArchive) {
    let market = MarketConfig {
        n_stocks: 16,
        n_days: 140,
        seed: 21,
        ..Default::default()
    }
    .generate();
    let features = FeatureSet::paper();
    let ds = Arc::new(Dataset::build(&market, &features, SplitSpec::paper_ratios()).unwrap());
    let ev = Evaluator::new(AlphaConfig::default(), EvalOptions::default(), ds.clone());
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
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        assert_eq!(
            fp, 0x60f0a96b0af11c64,
            "the pinned mined alpha diverged before serving was even tested"
        );
    }

    let cfg = AlphaConfig::default();
    let fsid = feature_set_id(&features);
    // Cutoff 1.0: admission order (and thus row order) must be a property
    // of this fixture, not of how correlated these particular programs
    // happen to be.
    let mut archive = AlphaArchive::with_cutoff(16, 1.0);
    let mut admit = |name: &str, program: alphaevolve_core::AlphaProgram| {
        let eval = ev.evaluate(&program);
        let outcome = archive.admit(ArchivedAlpha {
            name: name.into(),
            fingerprint: fingerprint(&program, &cfg).0,
            program,
            ic: eval.ic,
            val_returns: eval.val_returns,
            train_days: (ds.train_days().start as u64, ds.train_days().end as u64),
            feature_set_id: fsid,
        });
        assert!(outcome.admitted(), "fixture alpha `{name}`: {outcome:?}");
    };
    admit("mined_pinned", best.program);
    admit("expert", init::domain_expert(&cfg));
    admit("momentum", init::momentum(&cfg));
    admit("reversal", init::industry_reversal(&cfg));
    admit("nn", init::two_layer_nn(&cfg));
    (ds, features, archive)
}

fn assert_blocks_bit_identical(what: &str, a: &CrossSections, b: &CrossSections) {
    assert_eq!(
        (a.n_days(), a.n_stocks()),
        (b.n_days(), b.n_stocks()),
        "{what}: shape"
    );
    assert_eq!(a.validity(), b.validity(), "{what}: validity masks");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: cell {i} diverged ({x} vs {y})"
        );
    }
}

/// Serves every 4-day chunk of the test window, plus a 1-day range,
/// through `routed` and `direct`, requiring bit-identical blocks.
fn assert_ranges_bit_identical(
    what: &str,
    ds: &Dataset,
    direct: &mut impl AlphaService,
    routed: &mut impl AlphaService,
) {
    let test = ds.test_days();
    let chunks = test.clone().step_by(4).map(|s| s..(s + 4).min(test.end));
    let mut reference = CrossSections::new(0, 0);
    let mut got = CrossSections::new(0, 0);
    for days in chunks.chain(std::iter::once(test.start..test.start + 1)) {
        direct.serve_range(days.clone(), &mut reference).unwrap();
        routed.serve_range(days.clone(), &mut got).unwrap();
        assert_blocks_bit_identical(&format!("{what} range {days:?}"), &reference, &got);
    }
}

#[test]
fn routed_predictions_equal_direct_serving_bitwise() {
    let _watchdog = Watchdog::arm(Duration::from_secs(240), "loopback router equivalence");
    let (ds, features, archive) = mined_archive();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let direct =
        AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(&ds), &features).unwrap();

    let days: Vec<usize> = ds.valid_days().chain(ds.test_days()).step_by(7).collect();
    let mut reference = CrossSections::new(0, 0);
    let mut session = direct.session();
    let mut routed = CrossSections::new(0, 0);

    for n_shards in 1..=4 {
        let mut router =
            ShardedRouter::over_threads(&archive, n_shards, cfg, &opts, &ds, &features).unwrap();
        let meta = router.metadata().unwrap();
        assert_eq!(meta.n_alphas, archive.len());
        assert_eq!(
            meta.names,
            archive
                .entries()
                .iter()
                .map(|e| e.name.clone())
                .collect::<Vec<_>>(),
            "merged row order must equal archive order"
        );
        assert_eq!(meta.feature_set_id, feature_set_id(&features));
        for &day in &days {
            session.serve_day(day, &mut reference).unwrap();
            router.serve_day(day, &mut routed).unwrap();
            assert_blocks_bit_identical(
                &format!("{n_shards}-shard loopback day {day}"),
                &reference,
                &routed,
            );
        }
        // Range requests merge day-major across shards.
        assert_ranges_bit_identical(
            &format!("{n_shards}-shard loopback"),
            &ds,
            &mut session,
            &mut router,
        );
    }
}

#[test]
fn uds_daemon_round_trip_equals_direct_serving_bitwise() {
    // Hard cap: a hung accept loop or a lost response must abort fast.
    let _watchdog = Watchdog::arm(Duration::from_secs(240), "uds daemon round trip");
    let (ds, features, archive) = mined_archive();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let direct =
        AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(&ds), &features).unwrap();

    let dir = std::env::temp_dir().join(format!("aevs_uds_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for n_shards in [1usize, 3] {
        // One daemon (listener + accept thread) per shard partition.
        let mut clients = Vec::new();
        for (i, part) in alphaevolve_store::partition_archive(&archive, n_shards)
            .into_iter()
            .enumerate()
        {
            let path = dir.join(format!("shard_{n_shards}_{i}.sock"));
            let server =
                AlphaServer::from_archive(&part, cfg, &opts, Arc::clone(&ds), &features).unwrap();
            let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
            std::thread::spawn(move || {
                let _ = serve_uds(listener, Arc::new(server));
            });
            clients.push(ServiceClient::connect(&path).unwrap());
        }
        let mut router = ShardedRouter::new(clients).unwrap();

        let mut reference = CrossSections::new(0, 0);
        let mut routed = CrossSections::new(0, 0);
        let mut session = direct.session();
        let days: Vec<usize> = ds.valid_days().chain(ds.test_days()).step_by(11).collect();
        for &day in &days {
            session.serve_day(day, &mut reference).unwrap();
            router.serve_day(day, &mut routed).unwrap();
            assert_blocks_bit_identical(
                &format!("{n_shards}-daemon UDS day {day}"),
                &reference,
                &routed,
            );
        }
        assert_ranges_bit_identical(
            &format!("{n_shards}-daemon UDS"),
            &ds,
            &mut session,
            &mut router,
        );

        // Typed refusal crosses the socket: out-of-window day.
        let err = router.serve_day(2, &mut routed);
        assert!(
            matches!(
                err,
                Err(StoreError::Service {
                    code: ServiceErrorCode::DayOutOfRange,
                    ..
                })
            ),
            "expected a typed day refusal over UDS, got {err:?}"
        );
        // The connection survives a refused request.
        router.serve_day(days[0], &mut routed).unwrap();
        assert_blocks_bit_identical(
            "post-error request",
            &reference_for(&direct, days[0]),
            &routed,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn reference_for(server: &AlphaServer, day: usize) -> CrossSections {
    server.serve_day(day)
}

#[test]
fn routers_compose_and_hide_behind_the_trait() {
    let _watchdog = Watchdog::arm(Duration::from_secs(240), "router composition");
    let (ds, features, archive) = mined_archive();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let direct =
        AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(&ds), &features).unwrap();

    // Split the archive in two; serve each half behind its own 2-shard
    // router; then put a router over the two routers. Callers see one
    // AlphaService either way.
    let halves = alphaevolve_store::partition_archive(&archive, 2);
    let mut sub_routers = Vec::new();
    for half in &halves {
        sub_routers.push(ShardedRouter::over_threads(half, 2, cfg, &opts, &ds, &features).unwrap());
    }
    let mut root = ShardedRouter::new(sub_routers).unwrap();
    assert_eq!(root.n_shards(), 2);
    let meta = root.metadata().unwrap();
    assert_eq!(meta.n_alphas, archive.len());

    let day = ds.test_days().start;
    let mut out = CrossSections::new(0, 0);
    root.serve_day(day, &mut out).unwrap();
    assert_blocks_bit_identical("router-of-routers", &direct.serve_day(day), &out);
    // A range fans out through both levels and merges day-major.
    let mut reference = CrossSections::new(0, 0);
    direct
        .session()
        .serve_range(day..day + 4, &mut reference)
        .unwrap();
    root.serve_range(day..day + 4, &mut out).unwrap();
    assert_blocks_bit_identical("router-of-routers range", &reference, &out);
}

#[test]
fn mismatched_shards_are_refused_at_handshake() {
    let _watchdog = Watchdog::arm(Duration::from_secs(240), "shard mismatch handshake");
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let features = FeatureSet::paper();
    let build = |seed: u64, n_stocks: usize| -> AlphaServer {
        let md = MarketConfig {
            n_stocks,
            n_days: 120,
            seed,
            ..Default::default()
        }
        .generate();
        let ds = Arc::new(Dataset::build(&md, &features, SplitSpec::paper_ratios()).unwrap());
        AlphaServer::new(
            cfg,
            &opts,
            ds,
            vec![("expert".into(), init::domain_expert(&cfg))],
        )
    };
    let a = build(1, 10);
    let b = build(1, 12); // different universe width
    let err = ShardedRouter::new(vec![a.session(), b.session()]);
    assert!(
        matches!(
            err,
            Err(StoreError::Service {
                code: ServiceErrorCode::ShardMismatch,
                ..
            })
        ),
        "a 10-stock and a 12-stock shard must not merge"
    );
}

#[test]
fn prefetch_then_serve_is_transparent() {
    let _watchdog = Watchdog::arm(Duration::from_secs(240), "prefetch transparency");
    let (ds, features, archive) = mined_archive();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let clients = spawn_thread_shards(&archive, 2, cfg, &opts, &ds, &features).unwrap();
    let mut client = clients.into_iter().next().unwrap();
    let day = ds.test_days().start;

    // Plain request.
    let mut plain = CrossSections::new(0, 0);
    client.serve_day(day, &mut plain).unwrap();
    // Prefetched request: same bits.
    let mut fetched = CrossSections::new(0, 0);
    client.prefetch_day(day).unwrap();
    client.serve_day(day, &mut fetched).unwrap();
    assert_blocks_bit_identical("prefetch", &plain, &fetched);
    // Abandoned prefetch followed by a different request: the client
    // drains the stale response and stays in lockstep.
    client.prefetch_day(day).unwrap();
    let meta = client.metadata().unwrap();
    assert!(meta.n_alphas > 0);
    client.serve_day(day + 1, &mut fetched).unwrap();
    client.serve_day(day, &mut fetched).unwrap();
    assert_blocks_bit_identical("post-abandoned-prefetch", &plain, &fetched);

    // The same rules for ranges.
    let range = day..day + 4;
    let other = day + 1..day + 3;
    let mut plain_range = CrossSections::new(0, 0);
    client.serve_range(range.clone(), &mut plain_range).unwrap();
    let mut plain_other = CrossSections::new(0, 0);
    client.serve_range(other.clone(), &mut plain_other).unwrap();
    client.prefetch_range(range.clone()).unwrap();
    client.serve_range(range.clone(), &mut fetched).unwrap();
    assert_blocks_bit_identical("range prefetch", &plain_range, &fetched);
    // Abandoned range prefetch, then metadata.
    client.prefetch_range(range.clone()).unwrap();
    assert_eq!(client.metadata().unwrap(), meta);
    client.serve_range(range.clone(), &mut fetched).unwrap();
    assert_blocks_bit_identical("range after metadata", &plain_range, &fetched);
    // Abandoned range prefetch, then the range's first day.
    client.prefetch_range(range.clone()).unwrap();
    client.serve_day(range.start, &mut fetched).unwrap();
    assert_blocks_bit_identical("day after range prefetch", &plain, &fetched);
    // Abandoned range prefetch, then a different range.
    client.prefetch_range(range.clone()).unwrap();
    client.serve_range(other, &mut fetched).unwrap();
    assert_blocks_bit_identical("other range after range prefetch", &plain_other, &fetched);
    client.serve_range(range, &mut fetched).unwrap();
    assert_blocks_bit_identical("range after lockstep checks", &plain_range, &fetched);
}

/// A hostile range must be refused typed before the router sizes its
/// merge panel from it: `min_day..usize::MAX` overflows the row count,
/// and `min_day..min_day + 2^40` asks for an 80 TiB panel, whose failed
/// allocation aborts the process.
#[test]
fn hostile_ranges_are_refused_typed_by_the_router() {
    let _watchdog = Watchdog::arm(Duration::from_secs(240), "hostile router ranges");
    let (ds, features, archive) = mined_archive();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let mut router = ShardedRouter::over_threads(&archive, 2, cfg, &opts, &ds, &features).unwrap();
    let meta = router.metadata().unwrap();
    let lo = meta.min_day;
    let mut out = CrossSections::new(0, 0);
    #[allow(clippy::reversed_empty_ranges)]
    let hostile = [lo..usize::MAX, lo..lo + (1 << 40), lo + 5..lo + 2];
    for days in hostile {
        let err = router.serve_range(days.clone(), &mut out);
        assert!(
            matches!(
                err,
                Err(StoreError::Service {
                    code: ServiceErrorCode::DayOutOfRange,
                    ..
                })
            ),
            "range {days:?}: expected a typed DayOutOfRange, got {err:?}"
        );
    }
    // No shard was asked, so the router still serves normally.
    let direct =
        AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(&ds), &features).unwrap();
    assert_ranges_bit_identical(
        "after hostile ranges",
        &ds,
        &mut direct.session(),
        &mut router,
    );
}

/// The same refusal over the wire: a router re-exported with
/// `serve_connection` answers a hostile kind-4 frame with a typed error
/// and keeps the connection serving.
#[test]
fn router_behind_a_connection_survives_a_hostile_range() {
    let _watchdog = Watchdog::arm(Duration::from_secs(240), "hostile range over the wire");
    let (ds, features, archive) = mined_archive();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let mut router = ShardedRouter::over_threads(&archive, 2, cfg, &opts, &ds, &features).unwrap();
    let lo = router.metadata().unwrap().min_day;
    let (mut server_end, client_end) = loopback();
    let served = std::thread::spawn(move || serve_connection(&mut router, &mut server_end));
    let mut client = ServiceClient::new(client_end);

    let mut out = CrossSections::new(0, 0);
    for days in [lo..usize::MAX, lo..lo + (1 << 40)] {
        let err = client.serve_range(days.clone(), &mut out);
        assert!(
            matches!(
                err,
                Err(StoreError::Service {
                    code: ServiceErrorCode::DayOutOfRange,
                    ..
                })
            ),
            "range {days:?} over the wire: expected a typed DayOutOfRange, got {err:?}"
        );
    }
    let direct =
        AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(&ds), &features).unwrap();
    assert_ranges_bit_identical(
        "after hostile frames",
        &ds,
        &mut direct.session(),
        &mut client,
    );
    drop(client);
    served.join().unwrap().unwrap();
}

/// Serves days normally but refuses any range starting at `refused_start`,
/// typed — a shard that fails one range while its peers answer it.
struct RefusingShard<'a> {
    inner: ServerSession<'a>,
    refused_start: usize,
}

impl AlphaService for RefusingShard<'_> {
    fn metadata(&mut self) -> alphaevolve_store::Result<ServiceMetadata> {
        self.inner.metadata()
    }

    fn serve_day(&mut self, day: usize, out: &mut CrossSections) -> alphaevolve_store::Result<()> {
        self.inner.serve_day(day, out)
    }

    fn serve_range(
        &mut self,
        days: Range<usize>,
        out: &mut CrossSections,
    ) -> alphaevolve_store::Result<()> {
        if days.start == self.refused_start {
            return Err(StoreError::service(
                ServiceErrorCode::Internal,
                "this shard refuses the range",
            ));
        }
        self.inner.serve_range(days, out)
    }
}

#[test]
fn a_shard_refusing_a_range_fails_the_request_and_keeps_the_router_in_lockstep() {
    let _watchdog = Watchdog::arm(Duration::from_secs(240), "refused range");
    let (ds, features, archive) = mined_archive();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let refused = ds.test_days().start;
    let mut shards = Vec::new();
    let mut threads = Vec::new();
    for (i, part) in alphaevolve_store::partition_archive(&archive, 2)
        .into_iter()
        .enumerate()
    {
        let server =
            AlphaServer::from_archive(&part, cfg, &opts, Arc::clone(&ds), &features).unwrap();
        let (client_end, mut server_end) = loopback();
        threads.push(std::thread::spawn(move || {
            if i == 0 {
                let mut shard = RefusingShard {
                    inner: server.session(),
                    refused_start: refused,
                };
                serve_connection(&mut shard, &mut server_end)
            } else {
                serve_connection(&mut server.session(), &mut server_end)
            }
        }));
        shards.push(ServiceClient::new(client_end));
    }
    let mut router = ShardedRouter::new(shards).unwrap();

    // Shard 0 refuses; shard 1's block is still in flight when the router
    // returns the error.
    let mut out = CrossSections::new(0, 0);
    let err = router.serve_range(refused..refused + 4, &mut out);
    assert!(
        matches!(
            err,
            Err(StoreError::Service {
                code: ServiceErrorCode::Internal,
                ..
            })
        ),
        "expected the shard's typed refusal, got {err:?}"
    );
    // The next day and range requests drain the stale block and match
    // direct serving bit for bit.
    let direct =
        AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(&ds), &features).unwrap();
    let day = refused + 1;
    router.serve_day(day, &mut out).unwrap();
    assert_blocks_bit_identical("day after refused range", &direct.serve_day(day), &out);
    let mut reference = CrossSections::new(0, 0);
    let mut session = direct.session();
    session.serve_range(day..day + 4, &mut reference).unwrap();
    router.serve_range(day..day + 4, &mut out).unwrap();
    assert_blocks_bit_identical("range after refused range", &reference, &out);

    drop(router);
    for t in threads {
        t.join().unwrap().unwrap();
    }
}
