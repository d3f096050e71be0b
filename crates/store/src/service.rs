//! The transport-agnostic serving abstraction: [`AlphaService`].
//!
//! PR 4's [`AlphaServer`] is a concrete in-process type; the mined-alpha
//! pool should instead sit behind a *stable interface* that callers can
//! hold without knowing whether predictions come from a local batch
//! server, a socket, or a fleet of shard replicas. `AlphaService` is that
//! interface. Everything serving-related composes through it:
//!
//! * [`AlphaServer`] implements it directly (a fresh arena per call), and
//!   [`ServerSession`] implements it allocation-free for sustained
//!   traffic (one warm arena held across requests);
//! * [`ServiceClient`](crate::transport::ServiceClient) implements it
//!   over any byte-stream [`Transport`](crate::transport::Transport)
//!   (in-process loopback, Unix domain socket) by speaking the AEVS wire
//!   protocol ([`wire`](crate::wire));
//! * [`ShardedRouter`](crate::router::ShardedRouter) implements it by
//!   fanning requests out to N shard services and merging the prediction
//!   blocks — and since the shards are themselves `AlphaService`s,
//!   routers nest and callers cannot tell a fleet from a single server.
//!
//! The contract is strictly request/response and *stateless per request*:
//! the same day always returns the same bits, whatever the
//! implementation (pinned by `crates/store/tests/service.rs`, which
//! requires routed predictions to equal a direct [`AlphaServer`] serve
//! bit for bit).
//!
//! # Serving through the trait
//!
//! ```
//! use std::sync::Arc;
//! use alphaevolve_backtest::CrossSections;
//! use alphaevolve_core::{init, AlphaConfig, EvalOptions};
//! use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
//! use alphaevolve_store::server::AlphaServer;
//! use alphaevolve_store::service::AlphaService;
//!
//! let market = MarketConfig { n_stocks: 10, n_days: 120, seed: 3, ..Default::default() }.generate();
//! let dataset = Arc::new(
//!     Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap(),
//! );
//! let cfg = AlphaConfig::default();
//! let server = AlphaServer::new(
//!     cfg,
//!     &EvalOptions::default(),
//!     Arc::clone(&dataset),
//!     vec![("expert".into(), init::domain_expert(&cfg))],
//! );
//!
//! // Code written against the trait serves from *any* implementation —
//! // a local session, a socket client, or a sharded router.
//! fn first_prediction(service: &mut impl AlphaService) -> f64 {
//!     let meta = service.metadata().unwrap();
//!     let mut out = CrossSections::new(0, 0);
//!     service.serve_day(meta.min_day, &mut out).unwrap();
//!     out.row(0)[0]
//! }
//!
//! let mut session = server.session();
//! assert!(first_prediction(&mut session).is_finite());
//! ```

use std::ops::Range;

use alphaevolve_backtest::CrossSections;
use alphaevolve_obs::MetricsSnapshot;

use crate::error::{Result, ServiceErrorCode, StoreError};
use crate::metrics::{RequestKind, ServeMetrics};
use crate::server::{AlphaServer, ServeArena};

/// A service's capabilities, exchanged during the wire handshake (see
/// [`frame`](crate::frame) module docs) and merged across shards by the
/// router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceMetadata {
    /// Number of alphas served (rows of a one-day prediction block).
    pub n_alphas: usize,
    /// Number of stocks per cross-section (columns of a block).
    pub n_stocks: usize,
    /// Total days of the backing panel; servable days are
    /// `min_day..n_days`.
    pub n_days: usize,
    /// First servable day (earlier days lack a full feature window).
    pub min_day: usize,
    /// Identity of the feature recipe every served alpha was mined on
    /// ([`feature_set_id`](crate::archive::feature_set_id); 0 when the
    /// server was built from bare programs rather than an archive).
    pub feature_set_id: u64,
    /// Alpha names, in prediction-block row order.
    pub names: Vec<String>,
}

/// A prediction service over a fixed set of alphas — the serving layer's
/// one abstraction (see the [module docs](self) for the implementors).
///
/// Prediction blocks land in caller-owned [`CrossSections`] panels so a
/// warm request path can stay allocation-free. `serve_day` fills an
/// `n_alphas × n_stocks` block (row order = [`ServiceMetadata::names`]
/// order); `serve_range` fills `days.len() · n_alphas` rows, day-major
/// (all alphas for the first day, then the second, …).
pub trait AlphaService {
    /// The service's capabilities. Cheap after the first call on remote
    /// implementations is *not* guaranteed — cache it.
    fn metadata(&mut self) -> Result<ServiceMetadata>;

    /// Serves one day's predictions for every alpha into `out`
    /// (`n_alphas` rows × `n_stocks` columns).
    fn serve_day(&mut self, day: usize, out: &mut CrossSections) -> Result<()>;

    /// Serves a contiguous day range into `out`, day-major:
    /// `days.len() · n_alphas` rows of `n_stocks` columns.
    fn serve_range(&mut self, days: Range<usize>, out: &mut CrossSections) -> Result<()>;

    /// Hints that a [`serve_day`](AlphaService::serve_day) for `day` is
    /// imminent. Remote clients overlap work by writing the request
    /// eagerly (the matching `serve_day` then only reads the response) —
    /// this is how the router fans one day out to every shard before
    /// collecting any block. The default is a no-op; implementations
    /// must keep `serve_day` correct whether or not a prefetch happened.
    fn prefetch_day(&mut self, _day: usize) -> Result<()> {
        Ok(())
    }

    /// The [`serve_range`](AlphaService::serve_range) twin of
    /// [`prefetch_day`](AlphaService::prefetch_day): hints that a
    /// `serve_range` for exactly `days` is imminent, so the router can
    /// fan a range out to every shard before collecting any block. The
    /// same rules hold: the default is a no-op, and `serve_range` must be
    /// correct whether or not a prefetch happened.
    fn prefetch_range(&mut self, _days: Range<usize>) -> Result<()> {
        Ok(())
    }

    /// Merges the service's metrics snapshot into `out` (see
    /// [`crate::metrics`] for the metric names). Local implementations
    /// read their server's instrument hub; remote clients scrape the
    /// peer over the wire (kinds 9/10); the router fans out to every
    /// shard and retains a per-shard breakdown alongside the merged
    /// totals. The default is a no-op for services with nothing to
    /// report.
    fn metrics(&mut self, _out: &mut MetricsSnapshot) -> Result<()> {
        Ok(())
    }
}

/// Validates one requested day against the servable window.
pub(crate) fn check_day(day: usize, meta_min: usize, n_days: usize) -> Result<()> {
    if day < meta_min || day >= n_days {
        return Err(StoreError::service(
            ServiceErrorCode::DayOutOfRange,
            format!("requested day {day} outside the servable window {meta_min}..{n_days}"),
        ));
    }
    Ok(())
}

/// Validates a requested day range against the servable window.
pub(crate) fn check_window(days: Range<usize>, meta_min: usize, n_days: usize) -> Result<()> {
    if days.start < meta_min || days.end > n_days || days.start > days.end {
        return Err(StoreError::service(
            ServiceErrorCode::DayOutOfRange,
            format!(
                "requested days {}..{} outside the servable window {meta_min}..{n_days}",
                days.start, days.end
            ),
        ));
    }
    Ok(())
}

/// A warm serving handle: one borrowed [`AlphaServer`] plus one
/// [`ServeArena`], implementing [`AlphaService`] with **zero heap
/// allocations per warm request** (pinned by `tests/hot_path_alloc.rs`).
/// Build one per connection/worker thread via [`AlphaServer::session`];
/// the arena construction is the only allocating step.
pub struct ServerSession<'a> {
    server: &'a AlphaServer,
    arena: ServeArena<'a>,
    /// This session's claimed shard of the server's metrics hub.
    metrics: &'a ServeMetrics,
}

impl AlphaServer {
    /// Opens a warm serving session (see [`ServerSession`]).
    pub fn session(&self) -> ServerSession<'_> {
        ServerSession {
            arena: self.arena(),
            metrics: self.claim_metrics(),
            server: self,
        }
    }

    fn metadata_snapshot(&self) -> ServiceMetadata {
        ServiceMetadata {
            n_alphas: self.n_alphas(),
            n_stocks: self.n_stocks(),
            n_days: self.n_days(),
            min_day: self.min_day(),
            feature_set_id: self.feature_set_id(),
            names: self.names().map(str::to_owned).collect(),
        }
    }
}

impl AlphaService for ServerSession<'_> {
    fn metadata(&mut self) -> Result<ServiceMetadata> {
        self.metrics.observe(RequestKind::Metadata, || {
            Ok(self.server.metadata_snapshot())
        })
    }

    fn serve_day(&mut self, day: usize, out: &mut CrossSections) -> Result<()> {
        let ServerSession {
            server,
            arena,
            metrics,
        } = self;
        metrics.observe(RequestKind::Day, || {
            // Not `check_window(day..day + 1, ..)`: `day + 1` would
            // overflow (a debug panic) on a hostile wire day of
            // usize::MAX.
            check_day(day, server.min_day(), server.n_days())?;
            server.serve_day_into(arena, day, out);
            let (load, restore) = server.copy_bytes_per_day();
            metrics.record_copies(load, restore);
            Ok(())
        })
    }

    fn serve_range(&mut self, days: Range<usize>, out: &mut CrossSections) -> Result<()> {
        let ServerSession {
            server,
            arena,
            metrics,
        } = self;
        metrics.observe(RequestKind::Range, || {
            check_window(days.clone(), server.min_day(), server.n_days())?;
            let b = server.n_alphas();
            let k = server.n_stocks();
            out.reset(days.len() * b, k);
            let flat = out.as_mut_slice();
            let n_days = days.len() as u64;
            for (i, day) in days.enumerate() {
                server.serve_range_into(arena, day, 0..b, &mut flat[i * b * k..(i + 1) * b * k]);
            }
            let (load, restore) = server.copy_bytes_per_day();
            metrics.record_copies(n_days * load, n_days * restore);
            Ok(())
        })
    }

    fn metrics(&mut self, out: &mut MetricsSnapshot) -> Result<()> {
        self.metrics.record_request(RequestKind::Metrics);
        self.server.metrics_snapshot_into(out);
        Ok(())
    }
}

/// The convenience implementation: each call opens (and drops) a session,
/// paying one arena allocation. For sustained traffic hold a
/// [`ServerSession`] instead.
impl AlphaService for AlphaServer {
    fn metadata(&mut self) -> Result<ServiceMetadata> {
        Ok(self.metadata_snapshot())
    }

    fn serve_day(&mut self, day: usize, out: &mut CrossSections) -> Result<()> {
        self.session().serve_day(day, out)
    }

    fn serve_range(&mut self, days: Range<usize>, out: &mut CrossSections) -> Result<()> {
        self.session().serve_range(days, out)
    }

    fn metrics(&mut self, out: &mut MetricsSnapshot) -> Result<()> {
        self.session().metrics(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphaevolve_core::{init, AlphaConfig, EvalOptions};
    use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
    use std::sync::Arc;

    fn server() -> AlphaServer {
        let md = MarketConfig {
            n_stocks: 9,
            n_days: 120,
            seed: 17,
            ..Default::default()
        }
        .generate();
        let ds =
            Arc::new(Dataset::build(&md, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap());
        let cfg = AlphaConfig::default();
        AlphaServer::new(
            cfg,
            &EvalOptions::default(),
            ds,
            vec![
                ("expert".into(), init::domain_expert(&cfg)),
                ("momentum".into(), init::momentum(&cfg)),
            ],
        )
    }

    #[test]
    fn session_matches_direct_serving_bitwise() {
        let server = server();
        let day = server.min_day() + 40;
        let direct = server.serve_day(day);
        let mut session = server.session();
        let mut via_trait = CrossSections::new(0, 0);
        session.serve_day(day, &mut via_trait).unwrap();
        assert_eq!(direct.as_slice(), via_trait.as_slice());
    }

    #[test]
    fn serve_range_is_day_major_serve_days() {
        let server = server();
        let start = server.min_day() + 30;
        let mut session = server.session();
        let mut block = CrossSections::new(0, 0);
        session.serve_range(start..start + 3, &mut block).unwrap();
        assert_eq!(block.n_days(), 3 * server.n_alphas());
        let mut one = CrossSections::new(0, 0);
        for d in 0..3 {
            session.serve_day(start + d, &mut one).unwrap();
            for r in 0..server.n_alphas() {
                assert_eq!(block.row(d * server.n_alphas() + r), one.row(r));
            }
        }
    }

    #[test]
    fn out_of_window_days_are_typed_errors() {
        let server = server();
        let mut session = server.session();
        let mut out = CrossSections::new(0, 0);
        let before = session.serve_day(server.min_day() - 1, &mut out);
        assert!(matches!(
            before,
            Err(StoreError::Service {
                code: ServiceErrorCode::DayOutOfRange,
                ..
            })
        ));
        let after = session.serve_day(server.n_days(), &mut out);
        assert!(matches!(after, Err(StoreError::Service { .. })));
        // A hostile wire day of usize::MAX must refuse typed, not
        // overflow-panic in the window arithmetic.
        let hostile = session.serve_day(usize::MAX, &mut out);
        assert!(matches!(hostile, Err(StoreError::Service { .. })));
        // An inverted range must be refused, not served as empty.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = session.serve_range(50..40, &mut out);
        assert!(matches!(inverted, Err(StoreError::Service { .. })));
    }

    #[test]
    fn metadata_reports_capabilities() {
        let mut server = server();
        let meta = server.metadata().unwrap();
        assert_eq!(meta.n_alphas, 2);
        assert_eq!(meta.names, vec!["expert", "momentum"]);
        assert_eq!(meta.n_stocks, 9);
        assert!(meta.min_day < meta.n_days);
        assert_eq!(
            meta.feature_set_id, 0,
            "bare-program server has no recipe id"
        );
    }
}
