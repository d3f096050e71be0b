//! Serving-tier metrics: request/error counters and per-request latency
//! histograms for every layer of the serving stack.
//!
//! One instrument set, [`ServeMetrics`], is reused at three layers, each
//! rendering under its own metric-name prefix so a merged scrape keeps
//! the layers apart:
//!
//! * **`serve_*`** — the service itself. [`AlphaServer`] owns a
//!   [`Shards`] pool of `ServeMetrics`; every
//!   [`session`](crate::server::AlphaServer::session) claims a shard and
//!   records its
//!   requests without contending with sibling connections.
//! * **`wire_*`** — one set per
//!   [`serve_connection`](crate::transport::serve_connection) loop,
//!   counting what actually crossed that connection (including protocol
//!   errors the service never saw).
//! * **`client_*`** — a [`ServiceClient`]'s own outgoing requests
//!   ([`local_metrics_into`](crate::transport::ServiceClient::local_metrics_into)).
//!
//! Recording is allocation-free (relaxed atomic adds; the latency
//! histogram is pre-bucketed), so the warm routed-serve request path
//! stays pinned at zero heap allocations by `tests/hot_path_alloc.rs`.
//! Scrapes travel over the AEVS wire as the `MetricsRequest` /
//! `MetricsResponse` pair (kinds 9/10, [`wire`](crate::wire)); snapshots
//! merge deterministically whatever order shards answer in
//! ([`MetricsSnapshot`] upserts entries in canonical order).
//!
//! [`AlphaServer`]: crate::server::AlphaServer
//! [`ServiceClient`]: crate::transport::ServiceClient
//! [`Shards`]: alphaevolve_obs::Shards

use std::time::Instant;

use alphaevolve_obs::{Counter, Histogram, MetricsSnapshot};

use crate::error::{Result, ServiceErrorCode, StoreError};

/// Every wire error code, in `as_u16` order (label order of the
/// `*_errors_total` counters).
pub const ERROR_CODES: [ServiceErrorCode; 5] = [
    ServiceErrorCode::DayOutOfRange,
    ServiceErrorCode::Protocol,
    ServiceErrorCode::ShardMismatch,
    ServiceErrorCode::Internal,
    ServiceErrorCode::ResponseTooLarge,
];

/// Stable exposition label for an error code.
pub fn error_code_label(code: ServiceErrorCode) -> &'static str {
    match code {
        ServiceErrorCode::DayOutOfRange => "day_out_of_range",
        ServiceErrorCode::Protocol => "protocol",
        ServiceErrorCode::ShardMismatch => "shard_mismatch",
        ServiceErrorCode::Internal => "internal",
        ServiceErrorCode::ResponseTooLarge => "response_too_large",
    }
}

/// The request kinds a serving layer distinguishes (the `kind` label of
/// the `*_requests_total` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// One-day prediction request (wire kind 3).
    Day,
    /// Day-range prediction request (wire kind 4).
    Range,
    /// Capabilities handshake (wire kind 5).
    Metadata,
    /// Metrics scrape (wire kind 9).
    Metrics,
}

impl RequestKind {
    /// Stable exposition label.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Day => "day",
            RequestKind::Range => "range",
            RequestKind::Metadata => "metadata",
            RequestKind::Metrics => "metrics",
        }
    }

    /// Every request kind, in counter-slot order.
    pub const ALL: [RequestKind; 4] = [
        RequestKind::Day,
        RequestKind::Range,
        RequestKind::Metadata,
        RequestKind::Metrics,
    ];
}

/// One serving layer's instrument set: requests by kind, errors by
/// [`ServiceErrorCode`], a request-latency histogram, and the bytes the
/// served days copied into the interpreter. Recording is relaxed atomic
/// adds — share freely across connection threads.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    requests: [Counter; 4],
    errors: [Counter; 5],
    latency: Histogram,
    load_bytes: Counter,
    restore_bytes: Counter,
}

impl ServeMetrics {
    /// A fresh, all-zero instrument set (the only allocating step — the
    /// histogram buckets are sized here, never on the record path).
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Counts one request of `kind`.
    #[inline]
    pub fn record_request(&self, kind: RequestKind) {
        let i = RequestKind::ALL.iter().position(|k| *k == kind).unwrap();
        self.requests[i].inc();
    }

    /// Counts one error by its wire code.
    #[inline]
    pub fn record_error(&self, code: ServiceErrorCode) {
        let i = ERROR_CODES.iter().position(|c| *c == code).unwrap();
        self.errors[i].inc();
    }

    /// Records one request's latency in nanoseconds.
    #[inline]
    pub fn record_latency_ns(&self, ns: u64) {
        self.latency.record(ns);
    }

    /// Adds what served days copied: `load` bytes of input cells into
    /// `m0`, and `restore` bytes of predict state (dirty planes and RNG
    /// streams). Only the service layer records these; the `wire_*` and
    /// `client_*` sets report 0.
    #[inline]
    pub fn record_copies(&self, load: u64, restore: u64) {
        self.load_bytes.add(load);
        self.restore_bytes.add(restore);
    }

    /// Counts, times, and error-classifies one request: runs `f`, records
    /// its outcome under `kind`, and passes the result through. Errors
    /// count under their [`ServiceErrorCode`] (non-service failures as
    /// [`ServiceErrorCode::Internal`]).
    pub fn observe<T>(&self, kind: RequestKind, f: impl FnOnce() -> Result<T>) -> Result<T> {
        self.record_request(kind);
        let t = Instant::now();
        let out = f();
        self.record_latency_ns(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Err(e) = &out {
            self.record_error(error_code_of(e));
        }
        out
    }

    /// Renders every instrument into `out` under
    /// `{prefix}_requests_total{kind=…}`, `{prefix}_errors_total{code=…}`,
    /// `{prefix}_load_bytes_total`, `{prefix}_restore_bytes_total` and the
    /// `{prefix}_latency_ns` histogram. Pushing several
    /// `ServeMetrics` under one prefix into the same snapshot sums them
    /// (shard merging is just repeated pushes).
    pub fn snapshot_into(&self, prefix: &str, out: &mut MetricsSnapshot) {
        let requests = format!("{prefix}_requests_total");
        for (kind, c) in RequestKind::ALL.iter().zip(&self.requests) {
            out.push_counter(&requests, &[("kind", kind.as_str())], c.get());
        }
        let errors = format!("{prefix}_errors_total");
        for (code, c) in ERROR_CODES.iter().zip(&self.errors) {
            out.push_counter(&errors, &[("code", error_code_label(*code))], c.get());
        }
        let load = format!("{prefix}_load_bytes_total");
        out.push_counter(&load, &[], self.load_bytes.get());
        let restore = format!("{prefix}_restore_bytes_total");
        out.push_counter(&restore, &[], self.restore_bytes.get());
        out.observe_histogram(&format!("{prefix}_latency_ns"), &[], &self.latency);
    }
}

/// The wire code a failure would cross the wire as: service errors keep
/// their code, everything else is [`ServiceErrorCode::Internal`] —
/// mirroring [`crate::wire::encode_store_error`].
pub fn error_code_of(err: &StoreError) -> ServiceErrorCode {
    match err {
        StoreError::Service { code, .. } => *code,
        _ => ServiceErrorCode::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_counts_requests_latency_and_errors() {
        let m = ServeMetrics::new();
        m.observe(RequestKind::Day, || Ok(())).unwrap();
        let denied: Result<()> = m.observe(RequestKind::Day, || {
            Err(StoreError::service(ServiceErrorCode::DayOutOfRange, "nope"))
        });
        assert!(denied.is_err());
        let io: Result<()> = m.observe(RequestKind::Metadata, || {
            Err(StoreError::Malformed {
                what: "not a service error".into(),
            })
        });
        assert!(io.is_err());
        let mut snap = MetricsSnapshot::new();
        m.snapshot_into("serve", &mut snap);
        assert_eq!(
            snap.counter_value("serve_requests_total", &[("kind", "day")]),
            2
        );
        assert_eq!(
            snap.counter_value("serve_requests_total", &[("kind", "metadata")]),
            1
        );
        assert_eq!(
            snap.counter_value("serve_errors_total", &[("code", "day_out_of_range")]),
            1
        );
        assert_eq!(
            snap.counter_value("serve_errors_total", &[("code", "internal")]),
            1
        );
        let Some(alphaevolve_obs::MetricValue::Histogram(h)) = snap.get("serve_latency_ns", &[])
        else {
            panic!("missing latency histogram");
        };
        assert_eq!(h.count, 3);
    }

    #[test]
    fn repeated_pushes_sum_shards() {
        let a = ServeMetrics::new();
        let b = ServeMetrics::new();
        a.record_request(RequestKind::Range);
        a.record_request(RequestKind::Range);
        b.record_request(RequestKind::Range);
        let mut snap = MetricsSnapshot::new();
        a.snapshot_into("serve", &mut snap);
        b.snapshot_into("serve", &mut snap);
        assert_eq!(
            snap.counter_value("serve_requests_total", &[("kind", "range")]),
            3
        );
    }

    #[test]
    fn every_error_code_has_a_distinct_label() {
        let mut labels: Vec<&str> = ERROR_CODES.iter().map(|c| error_code_label(*c)).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ERROR_CODES.len());
    }
}
