//! Search/eval instrumentation facade, feature-gated to a true no-op.
//!
//! Everything the core records about itself — span timers around
//! compile / `load_day` / predict / update, rank-cache reuse counters,
//! and the live [`SearchTelemetry`] the evolution loop samples on its
//! checkpoint cadence — goes through this module. It has two builds:
//!
//! * **`obs` enabled (default):** [`Count`] is a plain `u64` cell,
//!   [`mark`] reads [`std::time::Instant`], and [`SearchTelemetry`] is a
//!   set of `alphaevolve_obs` atomic instruments that renders into a
//!   [`MetricsSnapshot`](alphaevolve_obs::MetricsSnapshot). Recording is
//!   allocation-free (plain adds and relaxed atomics), which is what
//!   lets the instrumented hot paths stay pinned at zero heap
//!   allocations by `tests/hot_path_alloc.rs`.
//! * **`obs` disabled:** every type here is a zero-sized struct with
//!   inlined empty methods, so all instrumentation compiles away
//!   entirely — not "cheap", *absent*.
//!
//! Telemetry is observation-only by construction: it draws no
//! randomness, never feeds back into evaluation or selection, and
//! timestamps live only in gauges — never in fingerprints, checkpoints,
//! or wire prediction payloads. The fixed-seed search fingerprint is
//! pinned bit-identical with `obs` on and off by `tests/determinism.rs`
//! (CI runs both configurations).

use crate::compile::CompiledInstr;
use crate::evolution::SearchStats;
use crate::op::Op;

/// Number of op-mix slots: one per [`Op`] code, plus one per fused pass.
const OP_LABELS: usize = Op::ALL.len() + 1;

/// Op-mix slot of a lowered instruction: its [`Op`] code, or the fused
/// pass's own slot after them.
fn op_slot(instr: &CompiledInstr) -> usize {
    match instr.fused {
        Some(_) => Op::ALL.len(),
        None => instr.op as usize,
    }
}

/// Instruction executions per op (each one a dispatch over the whole
/// cross-section): one slot per [`Op`] code, in [`Op::ALL`] order, then
/// the fused rank-1 pass. Counted from each compiled body's static op
/// counts times the days it ran, so the per-instruction loop carries
/// nothing extra. Scraped as `eval_op_executions_total{op=…}`.
#[derive(Debug, Clone, Copy)]
pub struct OpMix([Count; OP_LABELS]);

impl Default for OpMix {
    fn default() -> Self {
        OpMix([Count::default(); OP_LABELS])
    }
}

impl OpMix {
    /// Counts every instruction of `body` as executed `runs` times.
    #[inline]
    pub(crate) fn add_body(&mut self, body: &[CompiledInstr], runs: u64) {
        for instr in body {
            self.0[op_slot(instr)].add(runs);
        }
    }
}

/// Why a worker's evaluation tile was flushed (see
/// `crate::evolution`'s batched admission pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The init-phase settle before workers start drawing tournaments.
    Init,
    /// Every slot was occupied.
    TileFull,
    /// A tournament draw landed on a member whose fitness was still
    /// pending in the tile.
    PendingDraw,
    /// A checkpoint snapshot required settled state.
    Checkpoint,
    /// Loop exit (budget exhausted or empty population).
    Final,
}

impl FlushCause {
    /// Stable label value used in the metrics exposition.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FlushCause::Init => "init",
            FlushCause::TileFull => "tile_full",
            FlushCause::PendingDraw => "pending_draw",
            FlushCause::Checkpoint => "checkpoint",
            FlushCause::Final => "final",
        }
    }
}

/// Per-arena span accumulators, drained into [`SearchTelemetry`] (or
/// any other sink) at tile-flush granularity. All fields are [`Count`]s:
/// plain `u64` cells with `obs`, zero-sized no-ops without.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvalSpans {
    /// Nanoseconds lowering candidates (`compile_into` + relocation).
    pub compile_ns: Count,
    /// Nanoseconds in whole sequential training passes (`Setup()` +
    /// epochs; the batched path decomposes this into the three fields
    /// below instead).
    pub train_ns: Count,
    /// Nanoseconds staging day feature panels (`load_day`).
    pub load_day_ns: Count,
    /// Bytes those `load_day` calls copied into the input plane: the
    /// tile's union of read `m0` cells × stocks × 8 per loaded day.
    pub load_day_bytes: Count,
    /// Bytes slot resets zeroed before `Setup()`: each candidate's
    /// register footprint × stocks × 8.
    pub reset_bytes: Count,
    /// Nanoseconds executing `Predict()` bodies.
    pub predict_ns: Count,
    /// Nanoseconds loading labels and executing `Update()` bodies.
    pub update_ns: Count,
    /// Candidates evaluated through the owning arena.
    pub candidates: Count,
    /// Rank-cache segments served from a still-sorted cached
    /// permutation.
    pub rank_reused: Count,
    /// Rank-cache segments that fell back to a full argsort.
    pub rank_resorted: Count,
    /// Instruction executions per op.
    pub op_executions: OpMix,
}

impl EvalSpans {
    /// Takes the accumulated spans, leaving zeros behind.
    pub fn drain(&mut self) -> EvalSpans {
        std::mem::take(self)
    }

    /// Folds rank-cache `(reused, resorted)` counts in.
    pub fn absorb_rank_stats(&mut self, stats: (u64, u64)) {
        self.rank_reused.add(stats.0);
        self.rank_resorted.add(stats.1);
    }
}

#[cfg(feature = "obs")]
mod real {
    use super::{EvalSpans, FlushCause, SearchStats, OP_LABELS};
    use crate::op::Op;
    use alphaevolve_obs::{Counter, Gauge, Histogram, MetricsSnapshot};
    use std::time::Instant;

    /// A plain `u64` event/nanosecond accumulator for single-owner
    /// (`&mut`) structures — no atomics needed on the hot path.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Count(u64);

    impl Count {
        /// Adds one.
        #[inline]
        pub fn inc(&mut self) {
            self.0 += 1;
        }

        /// Adds `n`.
        #[inline]
        pub fn add(&mut self, n: u64) {
            self.0 = self.0.saturating_add(n);
        }

        /// Current value.
        #[inline]
        #[must_use]
        pub fn get(self) -> u64 {
            self.0
        }
    }

    /// A span start mark. [`Mark::elapsed_ns`] closes the span.
    #[derive(Debug, Clone, Copy)]
    pub struct Mark(Instant);

    /// Opens a span (reads the monotonic clock; never allocates).
    #[inline]
    #[must_use]
    pub fn mark() -> Mark {
        Mark(Instant::now())
    }

    impl Mark {
        /// Nanoseconds since the mark (saturating).
        #[inline]
        #[must_use]
        pub fn elapsed_ns(self) -> u64 {
            u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }

    /// Live search telemetry: atomic instruments updated by the worker
    /// loop (allocation-free) and readable from any thread while the
    /// search runs. Gauges are re-sampled at every tile flush and on
    /// the checkpoint cadence.
    #[derive(Debug, Default)]
    pub struct SearchTelemetry {
        candidates_per_sec: Gauge,
        cache_hit_rate: Gauge,
        static_reject_rate: Gauge,
        folded_rate: Gauge,
        tile_occupancy: Gauge,
        best_ic: Gauge,
        best_ic_at_secs: Gauge,
        flush_init: Counter,
        flush_tile_full: Counter,
        flush_pending_draw: Counter,
        flush_checkpoint: Counter,
        flush_final: Counter,
        flush_ns: Histogram,
        compile_ns: Counter,
        train_ns: Counter,
        load_day_ns: Counter,
        load_day_bytes: Counter,
        reset_bytes: Counter,
        predict_ns: Counter,
        update_ns: Counter,
        candidates: Counter,
        rank_reused: Counter,
        rank_resorted: Counter,
        op_executions: OpCounters,
    }

    /// The `op` label of op-mix slot `i`.
    fn op_label(i: usize) -> &'static str {
        Op::ALL.get(i).map_or("outer_add_fused", |op| op.name())
    }

    /// Atomic per-op execution totals (see [`super::OpMix`]).
    #[derive(Debug)]
    struct OpCounters([Counter; OP_LABELS]);

    impl Default for OpCounters {
        fn default() -> Self {
            OpCounters([const { Counter::new() }; OP_LABELS])
        }
    }

    impl SearchTelemetry {
        /// Fresh telemetry, all zeros.
        #[must_use]
        pub fn new() -> SearchTelemetry {
            SearchTelemetry::default()
        }

        /// Records one non-empty tile flush: its cause, occupancy
        /// (`filled` of `capacity` slots) and duration.
        pub fn record_flush(&self, cause: FlushCause, filled: usize, capacity: usize, ns: u64) {
            match cause {
                FlushCause::Init => self.flush_init.inc(),
                FlushCause::TileFull => self.flush_tile_full.inc(),
                FlushCause::PendingDraw => self.flush_pending_draw.inc(),
                FlushCause::Checkpoint => self.flush_checkpoint.inc(),
                FlushCause::Final => self.flush_final.inc(),
            }
            self.flush_ns.record(ns);
            if capacity > 0 {
                self.tile_occupancy.set(filled as f64 / capacity as f64);
            }
        }

        /// Re-derives the rate gauges from the authoritative search
        /// counters (called on every flush and on the checkpoint
        /// cadence).
        pub fn sample(&self, stats: &SearchStats, elapsed_secs: f64) {
            if elapsed_secs > 0.0 {
                self.candidates_per_sec
                    .set(stats.searched as f64 / elapsed_secs);
            }
            if stats.searched > 0 {
                let n = stats.searched as f64;
                self.cache_hit_rate.set(stats.cache_hits as f64 / n);
                self.static_reject_rate
                    .set(stats.static_rejected as f64 / n);
                self.folded_rate.set(stats.folded as f64 / n);
            }
        }

        /// Records a best-IC improvement and when (seconds since the
        /// run started) it landed. The timestamp lives only here — the
        /// trajectory recorded in checkpoints carries `searched`
        /// counts, never wall-clock.
        pub fn record_best(&self, ic: f64, at_secs: f64) {
            self.best_ic.set(ic);
            self.best_ic_at_secs.set(at_secs);
        }

        /// Folds one arena's drained span accumulators in.
        pub fn absorb_eval(&self, spans: &EvalSpans) {
            self.compile_ns.add(spans.compile_ns.get());
            self.train_ns.add(spans.train_ns.get());
            self.load_day_ns.add(spans.load_day_ns.get());
            self.load_day_bytes.add(spans.load_day_bytes.get());
            self.reset_bytes.add(spans.reset_bytes.get());
            self.predict_ns.add(spans.predict_ns.get());
            self.update_ns.add(spans.update_ns.get());
            self.candidates.add(spans.candidates.get());
            self.rank_reused.add(spans.rank_reused.get());
            self.rank_resorted.add(spans.rank_resorted.get());
            for (total, n) in self.op_executions.0.iter().zip(spans.op_executions.0) {
                total.add(n.get());
            }
        }

        /// Renders every instrument into `out` under the `search_*` /
        /// `eval_*` metric names documented in `results/README.md`.
        pub fn snapshot_into(&self, out: &mut MetricsSnapshot) {
            out.push_gauge(
                "search_candidates_per_sec",
                &[],
                self.candidates_per_sec.get(),
            );
            out.push_gauge("search_cache_hit_rate", &[], self.cache_hit_rate.get());
            out.push_gauge(
                "search_static_reject_rate",
                &[],
                self.static_reject_rate.get(),
            );
            out.push_gauge("search_folded_rate", &[], self.folded_rate.get());
            out.push_gauge("search_tile_occupancy", &[], self.tile_occupancy.get());
            out.push_gauge("search_best_ic", &[], self.best_ic.get());
            out.push_gauge("search_best_ic_at_secs", &[], self.best_ic_at_secs.get());
            for (cause, c) in [
                (FlushCause::Init, &self.flush_init),
                (FlushCause::TileFull, &self.flush_tile_full),
                (FlushCause::PendingDraw, &self.flush_pending_draw),
                (FlushCause::Checkpoint, &self.flush_checkpoint),
                (FlushCause::Final, &self.flush_final),
            ] {
                out.push_counter(
                    "search_flushes_total",
                    &[("cause", cause.as_str())],
                    c.get(),
                );
            }
            out.observe_histogram("search_flush_ns", &[], &self.flush_ns);
            out.push_counter("eval_compile_ns_total", &[], self.compile_ns.get());
            out.push_counter("eval_train_ns_total", &[], self.train_ns.get());
            out.push_counter("eval_load_day_ns_total", &[], self.load_day_ns.get());
            out.push_counter("eval_load_day_bytes_total", &[], self.load_day_bytes.get());
            out.push_counter("eval_reset_bytes_total", &[], self.reset_bytes.get());
            out.push_counter("eval_predict_ns_total", &[], self.predict_ns.get());
            out.push_counter("eval_update_ns_total", &[], self.update_ns.get());
            out.push_counter("eval_candidates_total", &[], self.candidates.get());
            out.push_counter("eval_rank_reused_total", &[], self.rank_reused.get());
            out.push_counter("eval_rank_resorted_total", &[], self.rank_resorted.get());
            // Only ops that ran: a series appears on its first execution.
            for (i, n) in self.op_executions.0.iter().enumerate() {
                if n.get() > 0 {
                    out.push_counter("eval_op_executions_total", &[("op", op_label(i))], n.get());
                }
            }
        }
    }
}

#[cfg(feature = "obs")]
pub use real::{mark, Count, Mark, SearchTelemetry};

#[cfg(not(feature = "obs"))]
mod noop {
    use super::{EvalSpans, FlushCause, SearchStats};

    /// No-op accumulator (the `obs` feature is disabled).
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Count;

    impl Count {
        /// No-op.
        #[inline]
        pub fn inc(&mut self) {}

        /// No-op.
        #[inline]
        pub fn add(&mut self, _n: u64) {}

        /// Always zero.
        #[inline]
        #[must_use]
        pub fn get(self) -> u64 {
            0
        }
    }

    /// No-op span mark (the `obs` feature is disabled).
    #[derive(Debug, Clone, Copy)]
    pub struct Mark;

    /// No-op: never reads the clock.
    #[inline]
    #[must_use]
    pub fn mark() -> Mark {
        Mark
    }

    impl Mark {
        /// Always zero.
        #[inline]
        #[must_use]
        pub fn elapsed_ns(self) -> u64 {
            0
        }
    }

    /// Zero-sized stand-in: every recording method is an inlined no-op,
    /// so the instrumented call sites compile away entirely.
    #[derive(Debug, Default)]
    pub struct SearchTelemetry;

    impl SearchTelemetry {
        /// Fresh no-op telemetry.
        #[must_use]
        pub fn new() -> SearchTelemetry {
            SearchTelemetry
        }

        /// No-op.
        #[inline]
        pub fn record_flush(&self, _: FlushCause, _: usize, _: usize, _: u64) {}

        /// No-op.
        #[inline]
        pub fn sample(&self, _: &SearchStats, _: f64) {}

        /// No-op.
        #[inline]
        pub fn record_best(&self, _: f64, _: f64) {}

        /// No-op.
        #[inline]
        pub fn absorb_eval(&self, _: &EvalSpans) {}
    }
}

#[cfg(not(feature = "obs"))]
pub use noop::{mark, Count, Mark, SearchTelemetry};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_drain_and_absorb() {
        let mut spans = EvalSpans::default();
        spans.candidates.inc();
        spans.compile_ns.add(100);
        spans.absorb_rank_stats((3, 1));
        let drained = spans.drain();
        // After draining, the live accumulators are back to zero.
        assert_eq!(spans.candidates.get(), 0);
        let tel = SearchTelemetry::new();
        tel.absorb_eval(&drained);
        tel.record_flush(FlushCause::TileFull, 4, 8, 1_000);
        tel.sample(
            &SearchStats {
                searched: 10,
                cache_hits: 5,
                ..Default::default()
            },
            2.0,
        );
        tel.record_best(0.21, 1.5);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn snapshot_exposes_all_instruments() {
        let tel = SearchTelemetry::new();
        let mut spans = EvalSpans::default();
        spans.candidates.add(7);
        spans.predict_ns.add(1234);
        spans.load_day_bytes.add(4 * 24 * 8);
        spans.reset_bytes.add(10 * 24 * 8);
        tel.absorb_eval(&spans);
        tel.record_flush(FlushCause::Checkpoint, 2, 4, 5_000);
        tel.sample(
            &SearchStats {
                searched: 100,
                cache_hits: 25,
                static_rejected: 10,
                folded: 40,
                ..Default::default()
            },
            4.0,
        );
        tel.record_best(0.5, 2.0);
        let mut snap = alphaevolve_obs::MetricsSnapshot::new();
        tel.snapshot_into(&mut snap);
        assert_eq!(snap.counter_value("eval_candidates_total", &[]), 7);
        assert_eq!(
            snap.counter_value("eval_load_day_bytes_total", &[]),
            4 * 24 * 8
        );
        assert_eq!(
            snap.counter_value("eval_reset_bytes_total", &[]),
            10 * 24 * 8
        );
        assert_eq!(
            snap.counter_value("search_flushes_total", &[("cause", "checkpoint")]),
            1
        );
        let Some(&alphaevolve_obs::MetricValue::Gauge(rate)) =
            snap.get("search_cache_hit_rate", &[])
        else {
            panic!("missing cache hit rate");
        };
        assert_eq!(rate, 0.25);
        // The exposition round-trips.
        let text = snap.render();
        assert_eq!(
            alphaevolve_obs::MetricsSnapshot::parse(&text).unwrap(),
            snap
        );
    }

    #[test]
    fn flush_causes_have_stable_labels() {
        for (c, s) in [
            (FlushCause::Init, "init"),
            (FlushCause::TileFull, "tile_full"),
            (FlushCause::PendingDraw, "pending_draw"),
            (FlushCause::Checkpoint, "checkpoint"),
            (FlushCause::Final, "final"),
        ] {
            assert_eq!(c.as_str(), s);
        }
    }
}
