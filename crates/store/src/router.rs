//! The request router: one [`AlphaService`] face over N shard replicas,
//! each serving a partition of the alpha pool.
//!
//! The archive codec makes programs cheap to ship, so the natural
//! scale-out is to split an archive's programs across replicas
//! ([`partition_archive`]) and put a router in front: a day or range
//! request fans out to every shard (via [`AlphaService::prefetch_day`] /
//! [`AlphaService::prefetch_range`], so remote shards compute
//! concurrently), and the per-shard prediction blocks merge back into one
//! [`CrossSections`] panel in archive order, day-major for ranges —
//! **bit-identical** to what a single un-sharded
//! [`AlphaServer`] returns for the same
//! request (pinned by `crates/store/tests/service.rs`). A range is
//! checked against the handshake's servable window before any shard is
//! asked, so a hostile range (one a router re-exported over the wire can
//! receive) is refused typed instead of sizing the merge panel from it.
//!
//! [`ShardedRouter`] itself implements [`AlphaService`], so:
//!
//! * callers cannot tell a shard fleet from a single server,
//! * routers compose — a router of routers (or a router whose shards sit
//!   behind Unix sockets on other machines) is just another service,
//! * a router can be re-exported over any transport by handing it to
//!   [`serve_connection`].
//!
//! Shards are wherever a service can be: same-thread
//! ([`ServerSession`](crate::service::ServerSession)), worker threads
//! behind in-process pipes ([`spawn_thread_shards`]), or daemon
//! processes behind Unix sockets
//! ([`ServiceClient::connect`](crate::transport::ServiceClient::connect)).

use std::ops::Range;
use std::sync::Arc;

use alphaevolve_backtest::CrossSections;
use alphaevolve_core::{AlphaConfig, EvalOptions};
use alphaevolve_market::features::FeatureSet;
use alphaevolve_market::Dataset;
use alphaevolve_obs::MetricsSnapshot;

use crate::archive::AlphaArchive;
use crate::error::{Result, ServiceErrorCode, StoreError};
use crate::server::AlphaServer;
use crate::service::{check_window, AlphaService, ServiceMetadata};
use crate::transport::{loopback, serve_connection, Loopback, ServiceClient};

/// Fans day and range requests out to shard services and merges their
/// prediction blocks; see the [module docs](self).
pub struct ShardedRouter<S: AlphaService> {
    shards: Vec<S>,
    /// Alphas per shard, in shard order (row offsets of the merge).
    shard_alphas: Vec<usize>,
    meta: ServiceMetadata,
    /// Reused decode target for per-shard blocks.
    scratch: CrossSections,
}

impl<S: AlphaService> ShardedRouter<S> {
    /// Builds a router over connected shard services. Performs the
    /// metadata handshake with every shard and refuses fleets whose
    /// replicas disagree on stock count, day window, or feature recipe —
    /// merging predictions across mismatched panels would silently serve
    /// garbage.
    pub fn new(mut shards: Vec<S>) -> Result<ShardedRouter<S>> {
        if shards.is_empty() {
            return Err(StoreError::service(
                ServiceErrorCode::ShardMismatch,
                "a router needs at least one shard",
            ));
        }
        let mut metas = Vec::with_capacity(shards.len());
        for shard in &mut shards {
            metas.push(shard.metadata()?);
        }
        let first = &metas[0];
        for (i, m) in metas.iter().enumerate().skip(1) {
            if (m.n_stocks, m.n_days, m.min_day, m.feature_set_id)
                != (
                    first.n_stocks,
                    first.n_days,
                    first.min_day,
                    first.feature_set_id,
                )
            {
                return Err(StoreError::service(
                    ServiceErrorCode::ShardMismatch,
                    format!(
                        "shard {i} serves {}×{}..{} (recipe {:#018x}), shard 0 serves {}×{}..{} \
                         (recipe {:#018x})",
                        m.n_stocks,
                        m.min_day,
                        m.n_days,
                        m.feature_set_id,
                        first.n_stocks,
                        first.min_day,
                        first.n_days,
                        first.feature_set_id,
                    ),
                ));
            }
        }
        let shard_alphas: Vec<usize> = metas.iter().map(|m| m.n_alphas).collect();
        let meta = ServiceMetadata {
            n_alphas: shard_alphas.iter().sum(),
            n_stocks: first.n_stocks,
            n_days: first.n_days,
            min_day: first.min_day,
            feature_set_id: first.feature_set_id,
            names: metas.iter().flat_map(|m| m.names.iter().cloned()).collect(),
        };
        Ok(ShardedRouter {
            shards,
            shard_alphas,
            meta,
            scratch: CrossSections::new(0, 0),
        })
    }

    /// Number of shard replicas behind this router.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The collect → merge loop behind both request kinds, run after the
    /// request has fanned out to every shard (`prefetch_day` /
    /// `prefetch_range`), so the shards compute concurrently while `serve`
    /// reads their blocks back in shard order. Each shard answers
    /// `n_days · sb` rows, day-major over its `sb` alphas; the merged
    /// panel is day-major over all alphas, so every day's block lands at
    /// that day's row offset plus the shard's alpha offset. A day is the
    /// `n_days = 1` case.
    fn collect(
        &mut self,
        n_days: usize,
        out: &mut CrossSections,
        mut serve: impl FnMut(&mut S, &mut CrossSections) -> Result<()>,
    ) -> Result<()> {
        let b = self.meta.n_alphas;
        let k = self.meta.n_stocks;
        out.reset(n_days * b, k);
        let mut offset = 0;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            serve(shard, &mut self.scratch)?;
            let sb = self.shard_alphas[i];
            if self.scratch.n_days() != n_days * sb || self.scratch.n_stocks() != k {
                return Err(shard_shape_error(i, &self.scratch, n_days * sb));
            }
            for d in 0..n_days {
                out.copy_rows_from(d * b + offset, &self.scratch, d * sb..(d + 1) * sb);
            }
            offset += sb;
        }
        Ok(())
    }
}

impl<S: AlphaService> AlphaService for ShardedRouter<S> {
    fn metadata(&mut self) -> Result<ServiceMetadata> {
        Ok(self.meta.clone())
    }

    fn prefetch_day(&mut self, day: usize) -> Result<()> {
        for shard in &mut self.shards {
            shard.prefetch_day(day)?;
        }
        Ok(())
    }

    fn prefetch_range(&mut self, days: Range<usize>) -> Result<()> {
        for shard in &mut self.shards {
            shard.prefetch_range(days.clone())?;
        }
        Ok(())
    }

    fn serve_day(&mut self, day: usize, out: &mut CrossSections) -> Result<()> {
        self.prefetch_day(day)?;
        self.collect(1, out, |shard, block| shard.serve_day(day, block))
    }

    fn serve_range(&mut self, days: Range<usize>, out: &mut CrossSections) -> Result<()> {
        // A hostile window must be refused before `out` is sized from it:
        // `days.len() × n_alphas` rows can overflow or exhaust memory.
        check_window(days.clone(), self.meta.min_day, self.meta.n_days)?;
        self.prefetch_range(days.clone())?;
        self.collect(days.len(), out, |shard, block| {
            shard.serve_range(days.clone(), block)
        })
    }

    /// Scrapes every shard and merges the snapshots twice: once unlabeled
    /// (fleet-wide totals: a merged `wire_requests_total{kind="day"}`
    /// equals the sum over shards) and once with a `shard` label appended,
    /// so the per-shard breakdown survives the merge.
    fn metrics(&mut self, out: &mut MetricsSnapshot) -> Result<()> {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let mut snap = MetricsSnapshot::new();
            shard.metrics(&mut snap)?;
            out.merge_from(&snap);
            snap.add_label("shard", &i.to_string());
            out.merge_from(&snap);
        }
        Ok(())
    }
}

fn shard_shape_error(shard: usize, got: &CrossSections, want_rows: usize) -> StoreError {
    StoreError::service(
        ServiceErrorCode::ShardMismatch,
        format!(
            "shard {shard} returned a {}×{} block, expected {}-row",
            got.n_days(),
            got.n_stocks(),
            want_rows
        ),
    )
}

/// Splits an archive's entries into `n_shards` contiguous partitions,
/// preserving entry order — the order concatenated shard blocks merge
/// back in. Every partition keeps the parent's capacity and correlation
/// cutoff (entries that co-existed in the parent always co-exist in a
/// subset). Trailing shards are empty when there are fewer entries than
/// shards.
///
/// # Panics
/// If `n_shards` is zero.
pub fn partition_archive(archive: &AlphaArchive, n_shards: usize) -> Vec<AlphaArchive> {
    assert!(n_shards > 0, "cannot partition into zero shards");
    let entries = archive.entries();
    let per = entries.len().div_ceil(n_shards.max(1)).max(1);
    let mut parts = Vec::with_capacity(n_shards);
    for shard in 0..n_shards {
        let mut part = AlphaArchive::with_cutoff(archive.capacity(), archive.cutoff());
        let lo = (shard * per).min(entries.len());
        let hi = ((shard + 1) * per).min(entries.len());
        for entry in &entries[lo..hi] {
            let admitted = part.admit(entry.clone()).admitted();
            debug_assert!(admitted, "a gated subset re-admits in order");
        }
        parts.push(part);
    }
    parts
}

/// Boots an in-process shard fleet: partitions `archive` into
/// `n_shards`, builds one [`AlphaServer`] per partition, serves each
/// from its own thread over a [`Loopback`] pipe, and returns the
/// connected clients (hand them to [`ShardedRouter::new`]). Threads
/// exit when their client half drops.
pub fn spawn_thread_shards(
    archive: &AlphaArchive,
    n_shards: usize,
    cfg: AlphaConfig,
    opts: &EvalOptions,
    dataset: &Arc<Dataset>,
    features: &FeatureSet,
) -> Result<Vec<ServiceClient<Loopback>>> {
    let mut clients = Vec::with_capacity(n_shards);
    for part in partition_archive(archive, n_shards) {
        let server = AlphaServer::from_archive(&part, cfg, opts, Arc::clone(dataset), features)?;
        let (client_end, mut server_end) = loopback();
        std::thread::spawn(move || {
            let mut session = server.session();
            // EOF (client dropped) is the normal shutdown path.
            let _ = serve_connection(&mut session, &mut server_end);
        });
        clients.push(ServiceClient::new(client_end));
    }
    Ok(clients)
}

impl ShardedRouter<ServiceClient<Loopback>> {
    /// One-call in-process scale-out: [`spawn_thread_shards`] +
    /// [`ShardedRouter::new`].
    pub fn over_threads(
        archive: &AlphaArchive,
        n_shards: usize,
        cfg: AlphaConfig,
        opts: &EvalOptions,
        dataset: &Arc<Dataset>,
        features: &FeatureSet,
    ) -> Result<ShardedRouter<ServiceClient<Loopback>>> {
        ShardedRouter::new(spawn_thread_shards(
            archive, n_shards, cfg, opts, dataset, features,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphaevolve_core::init;

    fn alpha(name: &str, fp: u64, ic: f64, freq: u64) -> crate::archive::ArchivedAlpha {
        let cfg = AlphaConfig::default();
        crate::archive::ArchivedAlpha {
            name: name.into(),
            program: init::domain_expert(&cfg),
            fingerprint: fp,
            ic,
            val_returns: (0..60)
                .map(|i| (std::f64::consts::TAU * freq as f64 * i as f64 / 60.0).sin() * 0.01)
                .collect(),
            train_days: (30, 90),
            feature_set_id: 7,
        }
    }

    #[test]
    fn partitions_are_contiguous_and_order_preserving() {
        let mut ar = AlphaArchive::new(16);
        for (i, freq) in [1u64, 2, 3, 4, 5].iter().enumerate() {
            assert!(ar
                .admit(alpha(&format!("a{i}"), i as u64 + 1, 0.1, *freq))
                .admitted());
        }
        for n in 1..=4 {
            let parts = partition_archive(&ar, n);
            assert_eq!(parts.len(), n);
            let names: Vec<String> = parts
                .iter()
                .flat_map(|p| p.entries().iter().map(|e| e.name.clone()))
                .collect();
            assert_eq!(names, vec!["a0", "a1", "a2", "a3", "a4"], "{n} shards");
        }
        // More shards than entries: trailing shards are empty, nothing lost.
        let parts = partition_archive(&ar, 8);
        assert_eq!(parts.iter().map(AlphaArchive::len).sum::<usize>(), 5);
    }

    #[test]
    fn router_refuses_an_empty_fleet() {
        let shards: Vec<ServiceClient<Loopback>> = Vec::new();
        assert!(matches!(
            ShardedRouter::new(shards),
            Err(StoreError::Service {
                code: ServiceErrorCode::ShardMismatch,
                ..
            })
        ));
    }
}
