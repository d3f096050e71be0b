//! The metrics-scrape contract: any [`AlphaService`] can be scraped over
//! the AEVS wire (kinds 9/10), and a [`ShardedRouter`] scrape merges
//! per-shard snapshots such that every **unlabeled total equals the sum of
//! the `shard`-labeled per-shard values** — over in-process loopback pipes
//! and over Unix domain sockets alike.
//!
//! The request accounting asserted here is deliberately exact, not `>=`:
//! a routed day request crosses each shard's wire exactly once (the
//! router's fan-out prefetch *is* the request; the later serve consumes
//! the pending response), and a scrape counts itself before snapshotting.

use std::sync::Arc;

use alphaevolve_backtest::CrossSections;
use alphaevolve_core::{
    fingerprint, init, AlphaConfig, AlphaProgram, EvalOptions, Instruction, Op,
};
use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
use alphaevolve_obs::{MetricValue, MetricsSnapshot};
use alphaevolve_store::archive::{feature_set_id, AlphaArchive, ArchivedAlpha};
use alphaevolve_store::metrics::RequestKind;
use alphaevolve_store::server::AlphaServer;
use alphaevolve_store::service::AlphaService;
use alphaevolve_store::transport::{loopback, serve_connection, serve_uds, ServiceClient};
use alphaevolve_store::{partition_archive, ShardedRouter};

/// A small archive of paper initializations — enough rows to partition
/// across shards, cheap enough to build per test.
fn fixture() -> (Arc<Dataset>, FeatureSet, AlphaArchive) {
    let market = MarketConfig {
        n_stocks: 10,
        n_days: 120,
        seed: 33,
        ..Default::default()
    }
    .generate();
    let features = FeatureSet::paper();
    let ds = Arc::new(Dataset::build(&market, &features, SplitSpec::paper_ratios()).unwrap());
    let cfg = AlphaConfig::default();
    let fsid = feature_set_id(&features);
    // Cutoff 1.0: admission must not depend on how correlated these
    // particular programs are — the archive is a program carrier here.
    let mut archive = AlphaArchive::with_cutoff(8, 1.0);
    let programs = [
        ("expert", init::domain_expert(&cfg)),
        ("momentum", init::momentum(&cfg)),
        ("nn", init::two_layer_nn(&cfg)),
    ];
    for (name, program) in programs {
        let fp = fingerprint(&program, &cfg).0;
        let outcome = archive.admit(ArchivedAlpha {
            name: name.into(),
            fingerprint: fp,
            program,
            ic: 0.1,
            val_returns: (0..40).map(|t| (t as f64).sin() * 0.01).collect(),
            train_days: (0, 1),
            feature_set_id: fsid,
        });
        assert!(outcome.admitted(), "fixture alpha `{name}`: {outcome:?}");
    }
    (ds, features, archive)
}

/// For each request kind, the unlabeled fleet total must equal the sum of
/// the `shard`-labeled per-shard values — at both the wire layer and the
/// serve layer.
fn assert_totals_are_shard_sums(what: &str, snap: &MetricsSnapshot, n_shards: usize) {
    for prefix in ["wire", "serve"] {
        let name = format!("{prefix}_requests_total");
        for kind in RequestKind::ALL {
            let total = snap.counter_value(&name, &[("kind", kind.as_str())]);
            let sum: u64 = (0..n_shards)
                .map(|i| {
                    snap.counter_value(&name, &[("kind", kind.as_str()), ("shard", &i.to_string())])
                })
                .sum();
            assert_eq!(
                total,
                sum,
                "{what}: {name}{{kind={}}} total {total} != per-shard sum {sum}",
                kind.as_str()
            );
        }
    }
}

#[test]
fn router_scrape_totals_equal_per_shard_sums_over_loopback() {
    let (ds, features, archive) = fixture();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let n_shards = 2;
    let mut router =
        ShardedRouter::over_threads(&archive, n_shards, cfg, &opts, &ds, &features).unwrap();

    let mut block = CrossSections::new(0, 0);
    let days: Vec<usize> = ds.valid_days().take(3).collect();
    for &day in &days {
        router.serve_day(day, &mut block).unwrap();
    }
    router
        .serve_range(days[0]..days[0] + 2, &mut block)
        .unwrap();
    router.metadata().unwrap();

    let mut snap = MetricsSnapshot::new();
    router.metrics(&mut snap).unwrap();
    assert_totals_are_shard_sums("loopback fleet", &snap, n_shards);

    // A routed day request crosses each shard's wire exactly once.
    let wire_days = snap.counter_value("wire_requests_total", &[("kind", "day")]);
    assert_eq!(
        wire_days,
        (days.len() * n_shards) as u64,
        "each routed day request must hit each shard exactly once"
    );
    // ...and the server session behind each connection serves it once.
    let serve_days = snap.counter_value("serve_requests_total", &[("kind", "day")]);
    assert_eq!(serve_days, (days.len() * n_shards) as u64);
    // Range requests fan out once per shard too.
    assert_eq!(
        snap.counter_value("wire_requests_total", &[("kind", "range")]),
        n_shards as u64
    );
    // The scrape observes itself: one metrics request per shard, counted
    // before the snapshot was taken.
    assert_eq!(
        snap.counter_value("wire_requests_total", &[("kind", "metrics")]),
        n_shards as u64
    );
    // Latency histograms merged across shards cover every *completed*
    // wire request: the scrape in flight on each shard has counted its
    // request but cannot have timed itself yet.
    let latency_count = match snap.get("wire_latency_ns", &[]) {
        Some(MetricValue::Histogram(h)) => h.count,
        other => panic!("wire_latency_ns must be a merged histogram, got {other:?}"),
    };
    let all_requests: u64 = RequestKind::ALL
        .iter()
        .map(|k| snap.counter_value("wire_requests_total", &[("kind", k.as_str())]))
        .sum();
    assert_eq!(
        latency_count,
        all_requests - n_shards as u64,
        "every completed wire request must contribute one latency observation"
    );
    // Nothing failed, so every error counter (zero-valued series are
    // still rendered) stays at zero.
    assert!(
        snap.entries()
            .iter()
            .filter(|e| e.name == "wire_errors_total" || e.name == "serve_errors_total")
            .all(|e| matches!(e.value, MetricValue::Counter(0))),
        "clean run must keep every error counter at zero"
    );

    // A second scrape strictly grows the scrape counter (monotonic) and
    // still balances.
    let mut again = MetricsSnapshot::new();
    router.metrics(&mut again).unwrap();
    assert_totals_are_shard_sums("loopback fleet, rescrape", &again, n_shards);
    assert_eq!(
        again.counter_value("wire_requests_total", &[("kind", "metrics")]),
        2 * n_shards as u64
    );
}

#[test]
fn router_scrape_totals_equal_per_shard_sums_over_uds() {
    let (ds, features, archive) = fixture();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let dir = std::env::temp_dir().join(format!("aevs_metrics_uds_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let n_shards = 2;
    let mut clients = Vec::new();
    for (i, part) in partition_archive(&archive, n_shards)
        .into_iter()
        .enumerate()
    {
        let path = dir.join(format!("shard_{i}.sock"));
        let server =
            AlphaServer::from_archive(&part, cfg, &opts, Arc::clone(&ds), &features).unwrap();
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        std::thread::spawn(move || {
            let _ = serve_uds(listener, Arc::new(server));
        });
        clients.push(ServiceClient::connect(&path).unwrap());
    }
    let mut router = ShardedRouter::new(clients).unwrap();

    let mut block = CrossSections::new(0, 0);
    let days: Vec<usize> = ds.valid_days().take(2).collect();
    for &day in &days {
        router.serve_day(day, &mut block).unwrap();
    }
    // One refused request: out-of-window day. The typed error must show
    // up in the scraped error counters.
    assert!(router.serve_day(2, &mut block).is_err());

    let mut snap = MetricsSnapshot::new();
    router.metrics(&mut snap).unwrap();
    assert_totals_are_shard_sums("uds fleet", &snap, n_shards);
    assert_eq!(
        snap.counter_value("wire_requests_total", &[("kind", "metrics")]),
        n_shards as u64
    );
    // The refusal was served by (at least) the first shard the router
    // asked; the fleet total reflects it with the right code label.
    let refused = snap.counter_value("wire_errors_total", &[("code", "day_out_of_range")]);
    assert!(
        refused >= 1,
        "the out-of-window refusal must surface as a typed error counter"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_connection_scrape_round_trips_and_counts_client_side() {
    let (ds, features, archive) = fixture();
    let cfg = AlphaConfig::default();
    let opts = EvalOptions::default();
    let server =
        AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(&ds), &features).unwrap();

    let (mut a, b) = loopback();
    let handle = std::thread::spawn(move || {
        let mut session = server.session();
        serve_connection(&mut session, &mut a)
    });
    let mut client = ServiceClient::new(b);

    let mut block = CrossSections::new(0, 0);
    let day = ds.valid_days().start;
    client.serve_day(day, &mut block).unwrap();
    client.metadata().unwrap();

    let mut snap = MetricsSnapshot::new();
    client.metrics(&mut snap).unwrap();
    // The remote snapshot carries both the wire layer and the serve layer.
    assert_eq!(
        snap.counter_value("wire_requests_total", &[("kind", "day")]),
        1
    );
    assert_eq!(
        snap.counter_value("serve_requests_total", &[("kind", "day")]),
        1
    );
    assert_eq!(
        snap.counter_value("wire_requests_total", &[("kind", "metadata")]),
        1
    );
    assert_eq!(
        snap.counter_value("wire_requests_total", &[("kind", "metrics")]),
        1,
        "a scrape counts itself before snapshotting"
    );

    // The client's own instruments live locally, not in the remote scrape.
    let mut local = MetricsSnapshot::new();
    client.local_metrics_into(&mut local);
    assert_eq!(
        local.counter_value("client_requests_total", &[("kind", "day")]),
        1
    );
    assert_eq!(
        local.counter_value("client_requests_total", &[("kind", "metrics")]),
        1
    );
    match local.get("client_latency_ns", &[]) {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 3),
        other => panic!("client_latency_ns must be a histogram, got {other:?}"),
    }

    drop(client);
    handle.join().unwrap().unwrap();
}

/// `serve_load_bytes_total` / `serve_restore_bytes_total` count what the
/// served days copied: the input cells the archive reads, once per day,
/// and only the predict state that is read before it is written.
#[test]
fn served_days_count_the_bytes_they_copy() {
    let (ds, _, _) = fixture();
    let cfg = AlphaConfig::default();
    let k = ds.n_stocks() as u64;
    let day = ds.test_days().start;
    // One day request and a two-day range: three served days.
    let copies = |program: AlphaProgram| {
        let server = AlphaServer::new(
            cfg,
            &EvalOptions::default(),
            Arc::clone(&ds),
            vec![("alpha".into(), program)],
        );
        let mut session = server.session();
        let mut out = CrossSections::new(0, 0);
        session.serve_day(day, &mut out).unwrap();
        session.serve_range(day..day + 2, &mut out).unwrap();
        let mut snap = MetricsSnapshot::new();
        session.metrics(&mut snap).unwrap();
        (
            snap.counter_value("serve_load_bytes_total", &[]),
            snap.counter_value("serve_restore_bytes_total", &[]),
        )
    };
    assert_eq!(
        copies(init::domain_expert(&cfg)),
        (3 * 4 * k * 8, 0),
        "the expert reads 4 input cells"
    );
    let (load, restore) = copies(init::two_layer_nn(&cfg));
    assert_eq!(load, 3 * cfg.dim as u64 * k * 8, "the NN reads one column");
    assert_eq!(restore, 0, "the NN's trained weights stay resident");
    // A predict that reads s1 before writing it restores s1 every day.
    let recurrent = AlphaProgram {
        setup: vec![Instruction::new(Op::SConst, 0, 0, 1, [0.5, 0.0], [0; 2])],
        predict: vec![
            Instruction::new(Op::MGet, 0, 0, 2, [0.0; 2], [3, 12]),
            Instruction::new(Op::SAdd, 1, 2, 1, [0.0; 2], [0; 2]),
        ],
        update: vec![Instruction::nop()],
    };
    assert_eq!(copies(recurrent), (3 * k * 8, 3 * k * 8));
}
