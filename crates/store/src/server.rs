//! Batched multi-alpha prediction: compile once, serve many.
//!
//! The evaluation pipeline made compiled programs cheap artifacts; the
//! server treats them that way. At construction every archived program is
//! **compiled once** and **trained once** (setup + the training sweep its
//! statefulness requires), and the planes its predict body touches are
//! snapshotted. A prediction request then sweeps one [`DayMajorPanel`]
//! day across the whole batch of compiled programs **per panel load**:
//! the day's feature blocks are copied into the interpreter's `m0` planes
//! a single time, and each program's predict body runs against the shared
//! load after a targeted restore of just *its* live planes (a few
//! kilobytes, not the whole register file). This amortizes both the
//! compile/train cost (across requests) and the feature-block copies
//! (across the batch) — the ROADMAP's multi-candidate batching item,
//! realized on the serving side.
//!
//! Requests are stateless and deterministic: every request predicts from
//! the post-training snapshot, so the same day always yields the same
//! bits (recurrent registers and RNG streams do not drift across
//! requests). Per program the served bits equal what a fresh
//! train-then-predict evaluation of that day would produce — pinned by
//! the equivalence tests in `crates/store/tests/serving.rs`.
//!
//! Threading: a server is shared read-only; each worker thread or
//! connection owns one [`ServeArena`] (interpreter + nothing else),
//! usually inside a [`ServerSession`](crate::service::ServerSession). A
//! warm arena serves a request with **zero heap allocations**
//! (`tests/hot_path_alloc.rs`). To spread one request's alphas across
//! threads, partition the archive and put a
//! [`ShardedRouter`](crate::router::ShardedRouter) in front
//! ([`spawn_thread_shards`](crate::router::spawn_thread_shards)).

use std::ops::Range;
use std::sync::Arc;

use alphaevolve_backtest::CrossSections;
use alphaevolve_core::{
    compile, liveness, writes_m0_in, AlphaConfig, AlphaProgram, ColumnarInterpreter,
    CompiledProgram, EvalOptions, GroupIndex, Kind, ProgramVerifier,
};
use alphaevolve_market::features::FeatureSet;
use alphaevolve_market::{Dataset, DayMajorPanel};
use alphaevolve_obs::{MetricsSnapshot, Shards};

use crate::archive::{feature_set_id, AlphaArchive};
use crate::error::{Result, StoreError};
use crate::metrics::ServeMetrics;

/// One contiguous register-plane range inside a [`RegisterFile`] buffer.
///
/// [`RegisterFile`]: alphaevolve_core::RegisterFile
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Span {
    kind: Kind,
    offset: usize,
    len: usize,
}

/// A compiled, trained, snapshot-ready program.
struct ServedProgram {
    name: String,
    compiled: CompiledProgram,
    /// The register planes predict touches (plus the prediction plane,
    /// minus the input `m0`, which is reloaded per day anyway).
    spans: Vec<Span>,
    /// Post-training values of `spans`, concatenated in span order.
    state: Vec<f64>,
    /// Post-training per-stock RNG streams — captured only when the
    /// predict body draws from the RNG.
    rng_states: Option<Vec<[u64; 4]>>,
    /// Predict writes into `m0`: the next program needs a fresh input load.
    writes_input: bool,
}

/// Serves a fixed set of alphas against one dataset's cross-sections.
pub struct AlphaServer {
    cfg: AlphaConfig,
    dataset: Arc<Dataset>,
    panel: Arc<DayMajorPanel>,
    groups: GroupIndex,
    seed: u64,
    programs: Vec<ServedProgram>,
    /// Identity of the feature recipe the alphas were mined on — recorded
    /// by [`AlphaServer::from_archive`], 0 for bare-program servers.
    feature_set_id: u64,
    /// Serving metrics hub: every [`AlphaServer::session`] claims one
    /// shard round-robin, so concurrent connections record without
    /// contending on shared cache lines. Scraped (merged) by
    /// [`AlphaServer::metrics_snapshot_into`].
    metrics: Shards<ServeMetrics>,
}

/// Per-worker serving state: one columnar interpreter, reused across
/// requests. Build once per thread with [`AlphaServer::arena`]; after the
/// first request it is at its high-water mark and requests allocate
/// nothing.
pub struct ServeArena<'a> {
    interp: ColumnarInterpreter<'a>,
}

impl AlphaServer {
    /// Builds a server over named programs: compiles each once, trains it
    /// (setup + the training sweep, skipped for stateless programs exactly
    /// like the evaluator's stateless shortcut), and snapshots its live
    /// predict planes.
    ///
    /// `opts` supplies the training policy and RNG seed
    /// (`opts.long_short` is not used — serving produces raw predictions).
    pub fn new(
        cfg: AlphaConfig,
        opts: &EvalOptions,
        dataset: Arc<Dataset>,
        programs: Vec<(String, AlphaProgram)>,
    ) -> AlphaServer {
        cfg.validate();
        let groups = GroupIndex::from_universe(dataset.universe());
        let panel = Arc::new(DayMajorPanel::from_panel(dataset.panel()));
        let k = dataset.n_stocks();
        let mut served = Vec::with_capacity(programs.len());
        let mut interp = ColumnarInterpreter::new(&cfg, &dataset, &panel, &groups, opts.seed);
        for (name, program) in programs {
            let compiled = compile(&program, &cfg, k);
            let spans = predict_spans(&compiled, cfg.dim, k);
            let predict_stochastic = compiled.predict.iter().any(|i| i.op.is_stochastic());
            let writes_input = writes_m0_in(&compiled.predict);
            // Train exactly like a fresh evaluation would: reset, setup,
            // and the training sweep unless the program is stateless.
            interp.reset();
            interp.run_setup(&compiled);
            if liveness(&program).stateful {
                for _ in 0..opts.train_epochs {
                    for day in dataset.train_days() {
                        interp.train_day(&compiled, day, opts.run_update);
                    }
                }
            }
            let mut state = Vec::new();
            snapshot_spans(&interp, &spans, &mut state);
            let rng_states = predict_stochastic.then(|| {
                let mut states = Vec::new();
                interp.rng_states_into(&mut states);
                states
            });
            served.push(ServedProgram {
                name,
                compiled,
                spans,
                state,
                rng_states,
                writes_input,
            });
        }
        AlphaServer {
            cfg,
            dataset,
            panel,
            groups,
            seed: opts.seed,
            programs: served,
            feature_set_id: 0,
            // Enough shards that a typical connection fleet spreads out;
            // excess connections share (the instruments are atomic).
            metrics: Shards::new_with(8, ServeMetrics::new),
        }
    }

    /// Builds a server from an archive, verifying every entry was mined
    /// on the feature recipe the dataset was built with (by
    /// [`feature_set_id`]). A mismatched entry is a hard error: serving
    /// an alpha against features it never saw produces garbage silently.
    pub fn from_archive(
        archive: &AlphaArchive,
        cfg: AlphaConfig,
        opts: &EvalOptions,
        dataset: Arc<Dataset>,
        features: &FeatureSet,
    ) -> Result<AlphaServer> {
        let expected = feature_set_id(features);
        // The archive load already enforced the cfg-free envelope; here the
        // serving config is known, so run the full structural verifier
        // before anything is compiled — `compile` trusts register and
        // feature indices, and serving must never execute bytes that only
        // *framed* correctly.
        let verifier = ProgramVerifier::new(&cfg);
        let mut programs = Vec::with_capacity(archive.len());
        for e in archive.entries() {
            if e.feature_set_id != expected {
                return Err(StoreError::Malformed {
                    what: format!(
                        "alpha `{}` was mined on feature set {:#018x}, dataset uses {expected:#018x}",
                        e.name, e.feature_set_id
                    ),
                });
            }
            if let Err(d) = verifier.ensure_valid(&e.program) {
                return Err(StoreError::InvalidProgram {
                    diagnostic: format!("alpha `{}`: {d}", e.name),
                });
            }
            programs.push((e.name.clone(), e.program.clone()));
        }
        let mut server = AlphaServer::new(cfg, opts, dataset, programs);
        server.feature_set_id = expected;
        Ok(server)
    }

    /// Number of alphas served.
    pub fn n_alphas(&self) -> usize {
        self.programs.len()
    }

    /// Number of stocks per cross-section.
    pub fn n_stocks(&self) -> usize {
        self.dataset.n_stocks()
    }

    /// Names of the served alphas, in row order of the output plane.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.programs.iter().map(|p| p.name.as_str())
    }

    /// Days this server can be asked about (the dataset's validation and
    /// test ranges are the natural live window; earlier days replay
    /// training inputs).
    pub fn n_days(&self) -> usize {
        self.panel.n_days()
    }

    /// First servable day: earlier days lack a complete feature window.
    pub fn min_day(&self) -> usize {
        self.dataset.window()
    }

    /// Identity of the feature recipe behind the served alphas (see
    /// [`feature_set_id`]; 0 when the server was built from bare
    /// programs via [`AlphaServer::new`]).
    pub fn feature_set_id(&self) -> u64 {
        self.feature_set_id
    }

    /// Claims one metrics shard for a session/connection (round-robin;
    /// instruments are atomic, so oversubscribed shards merely share).
    pub(crate) fn claim_metrics(&self) -> &ServeMetrics {
        self.metrics.claim()
    }

    /// Merges every session's serving metrics into `out` under the
    /// `serve_*` metric names (see [`crate::metrics`]).
    pub fn metrics_snapshot_into(&self, out: &mut MetricsSnapshot) {
        for shard in &self.metrics {
            shard.snapshot_into("serve", out);
        }
    }

    /// Builds a per-worker serving arena (the only allocating step of the
    /// serving path — do it once per thread, outside the request loop).
    pub fn arena(&self) -> ServeArena<'_> {
        ServeArena {
            interp: ColumnarInterpreter::new(
                &self.cfg,
                &self.dataset,
                &self.panel,
                &self.groups,
                self.seed,
            ),
        }
    }

    /// Serves one day for a contiguous range of programs into a flat
    /// `range.len() × n_stocks` output slice (row per program). This is
    /// the batching primitive: one input load per arena, B predict bodies
    /// against it. Allocation-free once the arena is warm.
    ///
    /// # Panics
    /// If `range` is out of bounds, `out` is missized, or `day` precedes
    /// the feature window.
    pub fn serve_range_into(
        &self,
        arena: &mut ServeArena<'_>,
        day: usize,
        range: Range<usize>,
        out: &mut [f64],
    ) {
        let k = self.dataset.n_stocks();
        assert!(
            range.end <= self.programs.len(),
            "program range out of bounds"
        );
        assert_eq!(out.len(), range.len() * k, "output slice missized");
        arena.interp.load_day(day);
        let mut input_dirty = false;
        for (row, idx) in range.enumerate() {
            let p = &self.programs[idx];
            if input_dirty {
                arena.interp.load_day(day);
                input_dirty = false;
            }
            restore_spans(&mut arena.interp, &p.spans, &p.state);
            if let Some(states) = &p.rng_states {
                arena.interp.set_rng_states(states);
            }
            arena.interp.run_predict(&p.compiled);
            arena
                .interp
                .read_predictions(&mut out[row * k..(row + 1) * k]);
            if p.writes_input {
                input_dirty = true;
            }
        }
    }

    /// Serves one day across the **full** archive into an alphas×stocks
    /// plane (row order = [`AlphaServer::names`] order). Allocation-free
    /// once `arena` and `out` are at their high-water marks.
    pub fn serve_day_into(&self, arena: &mut ServeArena<'_>, day: usize, out: &mut CrossSections) {
        let k = self.dataset.n_stocks();
        let n = self.programs.len();
        out.reset(n, k);
        self.serve_range_into(arena, day, 0..n, out.as_mut_slice());
    }

    /// Convenience single-threaded request: allocates an arena and the
    /// output plane (for sustained serving keep a [`ServeArena`] and use
    /// [`AlphaServer::serve_day_into`]).
    pub fn serve_day(&self, day: usize) -> CrossSections {
        let mut arena = self.arena();
        let mut out = CrossSections::new(0, 0);
        self.serve_day_into(&mut arena, day, &mut out);
        out
    }
}

/// The register planes a compiled predict body can read or write, sorted
/// and deduplicated: its inputs, its outputs, and always the prediction
/// plane `s1` (a program may set its prediction in `Setup()`/`Update()`
/// alone). The input matrix `m0` is excluded — every request reloads it.
fn predict_spans(compiled: &CompiledProgram, dim: usize, k: usize) -> Vec<Span> {
    let len_of = |kind: Kind| match kind {
        Kind::S => k,
        Kind::V => dim * k,
        Kind::M => dim * dim * k,
    };
    let mut spans = vec![Span {
        kind: Kind::S,
        offset: alphaevolve_core::memory::PREDICTION * k,
        len: k,
    }];
    for instr in &compiled.predict {
        let kinds = instr.op.input_kinds();
        if !kinds.is_empty() {
            spans.push(Span {
                kind: kinds[0],
                offset: instr.a,
                len: len_of(kinds[0]),
            });
        }
        if kinds.len() > 1 {
            spans.push(Span {
                kind: kinds[1],
                offset: instr.b,
                len: len_of(kinds[1]),
            });
        }
        if instr.op != alphaevolve_core::Op::NoOp {
            let kind = instr.op.output_kind();
            spans.push(Span {
                kind,
                offset: instr.o,
                len: len_of(kind),
            });
        }
    }
    spans.sort_unstable();
    spans.dedup();
    spans.retain(|s| !(s.kind == Kind::M && s.offset == 0));
    spans
}

/// Copies the span contents out of the interpreter's register file,
/// concatenated in span order.
fn snapshot_spans(interp: &ColumnarInterpreter<'_>, spans: &[Span], out: &mut Vec<f64>) {
    out.clear();
    let regs = interp.registers();
    for s in spans {
        let src = match s.kind {
            Kind::S => regs.s_raw(),
            Kind::V => regs.v_raw(),
            Kind::M => regs.m_raw(),
        };
        out.extend_from_slice(&src[s.offset..s.offset + s.len]);
    }
}

/// Restores a snapshot taken by [`snapshot_spans`]. Allocation-free.
fn restore_spans(interp: &mut ColumnarInterpreter<'_>, spans: &[Span], state: &[f64]) {
    let regs = interp.registers_mut();
    let mut pos = 0;
    for s in spans {
        let dst = match s.kind {
            Kind::S => regs.s_raw_mut(),
            Kind::V => regs.v_raw_mut(),
            Kind::M => regs.m_raw_mut(),
        };
        dst[s.offset..s.offset + s.len].copy_from_slice(&state[pos..pos + s.len]);
        pos += s.len;
    }
    debug_assert_eq!(pos, state.len(), "snapshot/span length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphaevolve_core::{init, Instruction, Op};

    #[test]
    fn spans_cover_predict_planes_not_input() {
        let cfg = AlphaConfig::default();
        let k = 7;
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                Instruction::new(Op::MGet, 0, 0, 2, [0.0; 2], [1, 2]),
                Instruction::new(Op::SAdd, 2, 3, 1, [0.0; 2], [0; 2]),
            ],
            update: vec![Instruction::nop()],
        };
        let compiled = compile(&prog, &cfg, k);
        let spans = predict_spans(&compiled, cfg.dim, k);
        // m0 excluded; s1, s2, s3 scalar planes present.
        assert!(spans.iter().all(|s| !(s.kind == Kind::M && s.offset == 0)));
        let scalar_offsets: Vec<usize> = spans
            .iter()
            .filter(|s| s.kind == Kind::S)
            .map(|s| s.offset / k)
            .collect();
        assert_eq!(scalar_offsets, vec![1, 2, 3]);
    }

    #[test]
    fn prediction_plane_always_included() {
        let cfg = AlphaConfig::default();
        let k = 5;
        // Predict never names s1: the prediction comes from setup state.
        let prog = AlphaProgram {
            setup: vec![Instruction::new(Op::SConst, 0, 0, 1, [0.25, 0.0], [0; 2])],
            predict: vec![Instruction::new(Op::SAbs, 4, 0, 5, [0.0; 2], [0; 2])],
            update: vec![Instruction::nop()],
        };
        let compiled = compile(&prog, &cfg, k);
        let spans = predict_spans(&compiled, cfg.dim, k);
        assert!(spans
            .iter()
            .any(|s| s.kind == Kind::S && s.offset == alphaevolve_core::memory::PREDICTION * k));
    }

    #[test]
    fn writes_input_detection() {
        let cfg = AlphaConfig::default();
        let ds = {
            use alphaevolve_market::{generator::MarketConfig, SplitSpec};
            let md = MarketConfig {
                n_stocks: 8,
                n_days: 110,
                seed: 3,
                ..Default::default()
            }
            .generate();
            Arc::new(Dataset::build(&md, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap())
        };
        // This predict overwrites m0 (m_abs into m0), then reads it.
        let clobber = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                Instruction::new(Op::MAbs, 0, 0, 0, [0.0; 2], [0; 2]),
                Instruction::new(Op::MMean, 0, 0, 1, [0.0; 2], [0; 2]),
            ],
            update: vec![Instruction::nop()],
        };
        let clean = init::domain_expert(&cfg);
        let server = AlphaServer::new(
            cfg,
            &EvalOptions::default(),
            ds,
            vec![("clobber".into(), clobber), ("clean".into(), clean)],
        );
        assert!(server.programs[0].writes_input);
        assert!(!server.programs[1].writes_input);
    }
}
