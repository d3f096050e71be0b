//! Batched multi-alpha prediction: compile once, train once, serve many.
//!
//! At construction every archived program is **compiled once** and
//! **trained once**, through the evaluator's training loop on one reused
//! `B = 1` tile ([`Evaluator::train_batch_in`]: setup + the training sweep
//! its statefulness requires). [`classify_predict_planes`] then sorts the
//! register planes its predict body touches, `m0` aside:
//!
//! * **read-only** planes, the trained parameters (the NN seed's `W1` in
//!   `m1` and `w2` in `v1`), move onto private planes appended after the
//!   `cfg`-sized register banks of every arena. The predict body is
//!   relocated to read them there ([`rewrite_operands`]), and
//!   [`AlphaServer::arena`] copies their trained values in once. No
//!   request copies them again.
//! * **dirty** planes, read before predict writes them (a recurrence such
//!   as `v1 = v1 + v2`), are snapshotted after training and restored
//!   before every prediction, together with the per-stock RNG streams of
//!   a stochastic predict.
//! * **written-first** planes need nothing: predict overwrites them
//!   before it reads them. They stay in the shared banks, so an arena
//!   grows only by the archive's read-only planes, not by a register bank
//!   per alpha.
//!
//! A serving arena is itself a `B = 1` tile ([`BatchInterpreter`]) whose
//! slot 0 holds those banks, and every program is relocated onto that one
//! slot ([`slot_offsets`]). A request for one day loads, once, only the
//! `m0` cells some served program can read (the union of their
//! [`CompiledProgram::input_cells`]) into the tile's shared `m0` plane,
//! then runs every predict body against that load: restore its dirty
//! planes, predict, and copy the prediction from its own `s1` plane (a
//! private one when predict never writes it). A predict that writes `m0`
//! runs on the slot's private `m0` plane, staged from the loaded cells
//! first. For the paper's seed alphas nothing is dirty, so a served day
//! copies a few input cells and no parameters. Every request counts what
//! it copied in `serve_load_bytes_total` and `serve_restore_bytes_total`
//! ([`ServeMetrics`]).
//!
//! Requests are stateless and deterministic: every request predicts from
//! the post-training state, so the same day always yields the same bits
//! (recurrent registers and RNG streams do not drift across requests).
//! Per program the served bits equal what a fresh train-then-predict
//! evaluation of that day would produce — pinned against the lockstep
//! oracle by the equivalence tests and the random-program property in
//! `crates/store/tests/serving.rs`.
//!
//! Threading: a server is shared read-only; each worker thread or
//! connection owns one [`ServeArena`] (one tile + nothing else),
//! usually inside a [`ServerSession`](crate::service::ServerSession). A
//! warm arena serves a request with **zero heap allocations**
//! (`tests/hot_path_alloc.rs`). To spread one request's alphas across
//! threads, partition the archive and put a
//! [`ShardedRouter`](crate::router::ShardedRouter) in front
//! ([`spawn_thread_shards`](crate::router::spawn_thread_shards)).

use std::ops::Range;
use std::sync::Arc;

use alphaevolve_backtest::CrossSections;
use alphaevolve_core::memory::PREDICTION;
use alphaevolve_core::{
    classify_predict_planes, compile, liveness, rewrite_operands, slot_offsets, writes_m0_in,
    AlphaConfig, AlphaProgram, BatchInterpreter, CompiledInstr, CompiledProgram, EvalOptions,
    Evaluator, Kind, PlaneClass, ProgramVerifier, RegisterFile,
};
use alphaevolve_market::features::FeatureSet;
use alphaevolve_market::Dataset;
use alphaevolve_obs::{MetricsSnapshot, Shards};

use crate::archive::{feature_set_id, AlphaArchive};
use crate::error::{Result, StoreError};
use crate::metrics::ServeMetrics;

/// One contiguous register-plane range inside a [`RegisterFile`] buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Span {
    kind: Kind,
    offset: usize,
    len: usize,
}

/// A compiled, trained program, relocated onto slot 0 of a serving tile.
struct ServedProgram {
    name: String,
    /// The lowered predict body. It reads its read-only planes at their
    /// private offsets (`resident`).
    predict: Vec<CompiledInstr>,
    /// The planes predict reads before writing them, restored before
    /// every prediction.
    dirty: Vec<Span>,
    /// Post-training values of `dirty`, concatenated in span order.
    dirty_state: Vec<f64>,
    /// The read-only planes at their private offsets.
    resident: Vec<Span>,
    /// Post-training values of `resident`, copied into each arena once.
    resident_state: Vec<f64>,
    /// Post-training per-stock RNG streams — captured only when the
    /// predict body draws from the RNG.
    rng_states: Option<Vec<[u64; 4]>>,
    /// Predict writes into `m0`, so it runs on the slot's private `m0`
    /// plane, staged from the loaded cells first.
    writes_input: bool,
    /// Offset of the prediction plane in the scalar buffer: `s1`, or its
    /// private plane when predict only reads it.
    prediction: usize,
}

/// Serves a fixed set of alphas against one dataset's cross-sections.
pub struct AlphaServer {
    /// The serving config widened by the programs' private read-only
    /// planes: what slot 0 of every [`ServeArena`]'s tile is sized for.
    arena_cfg: AlphaConfig,
    /// The evaluator the programs were trained through: the dataset, its
    /// day-major panel and groups, and the RNG seed every arena shares.
    ev: Evaluator,
    programs: Vec<ServedProgram>,
    /// Union of the programs' [`CompiledProgram::input_cells`]: the `m0`
    /// cells a served day loads.
    input_cells: Vec<bool>,
    /// Bytes one full-archive served day copies into `m0`, and into dirty
    /// planes and RNG streams (see [`copy_bytes_per_day`]).
    day_load_bytes: u64,
    day_restore_bytes: u64,
    /// Identity of the feature recipe the alphas were mined on — recorded
    /// by [`AlphaServer::from_archive`], 0 for bare-program servers.
    feature_set_id: u64,
    /// Serving metrics hub: every [`AlphaServer::session`] claims one
    /// shard round-robin, so concurrent connections record without
    /// contending on shared cache lines. Scraped (merged) by
    /// [`AlphaServer::metrics_snapshot_into`].
    metrics: Shards<ServeMetrics>,
}

/// Per-worker serving state: one `B = 1` tile, reused across requests.
/// Build once per thread with [`AlphaServer::arena`]; after the first
/// request it is at its high-water mark and requests allocate nothing.
pub struct ServeArena<'a> {
    tile: BatchInterpreter<'a>,
}

impl AlphaServer {
    /// Builds a server over named programs: compiles each once, trains it
    /// through the evaluator's training loop on one reused `B = 1` tile
    /// (setup + the training sweep, skipped for stateless programs exactly
    /// like the evaluator's stateless shortcut), snapshots the planes its
    /// predict reads, and relocates its read-only planes onto private
    /// planes (see the module docs).
    ///
    /// `opts` supplies the training policy and RNG seed
    /// (`opts.long_short` is not used — serving produces raw predictions).
    pub fn new(
        cfg: AlphaConfig,
        opts: &EvalOptions,
        dataset: Arc<Dataset>,
        programs: Vec<(String, AlphaProgram)>,
    ) -> AlphaServer {
        let ev = Evaluator::new(cfg, opts.clone(), dataset);
        let (d, k) = (cfg.dim, ev.dataset().n_stocks());
        let mut served = Vec::with_capacity(programs.len());
        let mut input_cells = vec![false; d * d];
        // Next free private plane per kind, after the cfg-sized banks.
        let mut next_private = [cfg.n_scalars, cfg.n_vectors, cfg.n_matrices];
        let mut tile = ev.batch_arena(1);
        for (name, program) in programs {
            let compiled = compile(&program, &cfg, k);
            tile.clear();
            tile.push(&program, !liveness(&program).stateful);
            ev.train_batch_in(&mut tile);
            let writes_input = writes_m0_in(&compiled.predict);
            // Slot 0 holds a plane at the same offset in the training
            // tile and in every serving tile.
            let slot0 = slot_offsets(&cfg, k, 0, !writes_input);
            let at = |span: &Span| Span {
                offset: slot0(span.kind, span.offset),
                ..*span
            };
            let (dirty, trained) = predict_spans(&compiled, d, k);
            let dirty: Vec<Span> = dirty.iter().map(at).collect();
            let dirty_state = snapshot_spans(tile.registers(), &dirty);
            let trained_at: Vec<Span> = trained.iter().map(at).collect();
            let resident_state = snapshot_spans(tile.registers(), &trained_at);
            let rng_states = compiled
                .predict
                .iter()
                .any(|i| i.op.is_stochastic())
                .then(|| {
                    let mut states = Vec::new();
                    tile.rng_states_into(0, &mut states);
                    states
                });
            // Move the read-only planes onto this program's private planes.
            let mut resident = trained.clone();
            for span in &mut resident {
                let next = match span.kind {
                    Kind::S => &mut next_private[0],
                    Kind::V => &mut next_private[1],
                    Kind::M => &mut next_private[2],
                };
                span.offset = *next * span.len;
                *next += 1;
            }
            let moved = |kind: Kind, offset: usize| {
                let private = trained
                    .iter()
                    .zip(&resident)
                    .find(|(t, _)| t.kind == kind && t.offset == offset)
                    .map_or(offset, |(_, r)| r.offset);
                slot0(kind, private)
            };
            let mut predict = compiled.predict;
            rewrite_operands(&mut predict, moved);
            for (union, &cell) in input_cells.iter_mut().zip(&compiled.input_cells) {
                *union |= cell;
            }
            served.push(ServedProgram {
                name,
                prediction: moved(Kind::S, PREDICTION * k),
                predict,
                dirty,
                dirty_state,
                resident: resident.iter().map(at).collect(),
                resident_state,
                rng_states,
                writes_input,
            });
        }
        drop(tile);
        let [n_scalars, n_vectors, n_matrices] = next_private;
        let arena_cfg = AlphaConfig {
            n_scalars,
            n_vectors,
            n_matrices,
            ..cfg
        };
        let (day_load_bytes, day_restore_bytes) = copy_bytes_per_day(&served, &input_cells, k);
        AlphaServer {
            arena_cfg,
            ev,
            programs: served,
            input_cells,
            day_load_bytes,
            day_restore_bytes,
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
        self.ev.dataset().n_stocks()
    }

    /// Names of the served alphas, in row order of the output plane.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.programs.iter().map(|p| p.name.as_str())
    }

    /// Days this server can be asked about (the dataset's validation and
    /// test ranges are the natural live window; earlier days replay
    /// training inputs).
    pub fn n_days(&self) -> usize {
        self.ev.day_major().n_days()
    }

    /// First servable day: earlier days lack a complete feature window.
    pub fn min_day(&self) -> usize {
        self.ev.dataset().window()
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

    /// Bytes one served day of the full archive copies: `m0` cells
    /// loaded, and dirty planes plus RNG streams restored. Sessions add
    /// them to `serve_load_bytes_total` / `serve_restore_bytes_total`.
    pub(crate) fn copy_bytes_per_day(&self) -> (u64, u64) {
        (self.day_load_bytes, self.day_restore_bytes)
    }

    /// Builds a per-worker serving arena and copies every program's
    /// trained read-only planes into it (the only allocating step of the
    /// serving path — do it once per thread, outside the request loop).
    pub fn arena(&self) -> ServeArena<'_> {
        let mut tile = BatchInterpreter::new(
            &self.arena_cfg,
            self.ev.dataset(),
            self.ev.day_major(),
            self.ev.groups(),
            self.ev.options().seed,
            1,
        );
        for p in &self.programs {
            restore_spans(tile.registers_mut(), &p.resident, &p.resident_state);
        }
        ServeArena { tile }
    }

    /// Serves one day for a contiguous range of programs into a flat
    /// `range.len() × n_stocks` output slice (row per program). This is
    /// the batching primitive: one load of the archive's input cells, B
    /// predict bodies against it. Allocation-free once the arena is warm.
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
        let k = self.n_stocks();
        assert!(
            range.end <= self.programs.len(),
            "program range out of bounds"
        );
        assert_eq!(out.len(), range.len() * k, "output slice missized");
        let tile = &mut arena.tile;
        tile.load_day(day, &self.input_cells);
        for (row, p) in out.chunks_exact_mut(k).zip(&self.programs[range]) {
            restore_spans(tile.registers_mut(), &p.dirty, &p.dirty_state);
            if let Some(states) = &p.rng_states {
                tile.set_rng_states_slot(0, states);
            }
            if p.writes_input {
                tile.stage_private_m0(0, &self.input_cells);
            }
            tile.run_function_slot(0, &p.predict);
            row.copy_from_slice(&tile.registers().s_raw()[p.prediction..p.prediction + k]);
        }
    }

    /// Serves one day across the **full** archive into an alphas×stocks
    /// plane (row order = [`AlphaServer::names`] order). Allocation-free
    /// once `arena` and `out` are at their high-water marks.
    pub fn serve_day_into(&self, arena: &mut ServeArena<'_>, day: usize, out: &mut CrossSections) {
        let k = self.n_stocks();
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

/// The planes a compiled predict body reads before writing, as
/// `(dirty, read_only)` spans in first-touch order (see
/// [`classify_predict_planes`]). Written-first planes need no state, and
/// the input `m0` is reloaded every request.
fn predict_spans(compiled: &CompiledProgram, dim: usize, k: usize) -> (Vec<Span>, Vec<Span>) {
    let (mut dirty, mut read_only) = (Vec::new(), Vec::new());
    for plane in classify_predict_planes(&compiled.predict, k) {
        let span = Span {
            kind: plane.kind,
            offset: plane.offset,
            len: match plane.kind {
                Kind::S => k,
                Kind::V => dim * k,
                Kind::M => dim * dim * k,
            },
        };
        match plane.class {
            PlaneClass::Dirty => dirty.push(span),
            PlaneClass::ReadOnly => read_only.push(span),
            PlaneClass::WrittenFirst => {}
        }
    }
    (dirty, read_only)
}

/// Bytes one served day of the whole archive copies: the union of input
/// cells once, plus once more into the private `m0` of each `m0` writer;
/// and every program's dirty planes and RNG streams.
fn copy_bytes_per_day(programs: &[ServedProgram], input_cells: &[bool], k: usize) -> (u64, u64) {
    let loads = 1 + programs.iter().filter(|p| p.writes_input).count();
    let cells = input_cells.iter().filter(|&&c| c).count();
    let restored: usize = programs
        .iter()
        .map(|p| {
            std::mem::size_of_val(p.dirty_state.as_slice())
                + p.rng_states.as_deref().map_or(0, std::mem::size_of_val)
        })
        .sum();
    let loaded = loads * cells * k * std::mem::size_of::<f64>();
    (loaded as u64, restored as u64)
}

/// Copies the span contents out of a register file, concatenated in span
/// order.
fn snapshot_spans(regs: &RegisterFile, spans: &[Span]) -> Vec<f64> {
    let mut out = Vec::with_capacity(spans.iter().map(|s| s.len).sum());
    for s in spans {
        let src = match s.kind {
            Kind::S => regs.s_raw(),
            Kind::V => regs.v_raw(),
            Kind::M => regs.m_raw(),
        };
        out.extend_from_slice(&src[s.offset..s.offset + s.len]);
    }
    out
}

/// Writes a snapshot taken by [`snapshot_spans`] back, at the spans'
/// offsets. Allocation-free.
fn restore_spans(regs: &mut RegisterFile, spans: &[Span], state: &[f64]) {
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

    fn dataset() -> Arc<Dataset> {
        use alphaevolve_market::{generator::MarketConfig, SplitSpec};
        let md = MarketConfig {
            n_stocks: 8,
            n_days: 110,
            seed: 3,
            ..Default::default()
        }
        .generate();
        Arc::new(Dataset::build(&md, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap())
    }

    /// Scalar register numbers of `spans` (all must be scalar spans).
    fn scalars(spans: &[Span], k: usize) -> Vec<usize> {
        assert!(spans.iter().all(|s| s.kind == Kind::S && s.len == k));
        spans.iter().map(|s| s.offset / k).collect()
    }

    #[test]
    fn spans_cover_predict_planes_not_input() {
        let cfg = AlphaConfig::default();
        let k = 7;
        let prog = AlphaProgram {
            setup: vec![Instruction::nop()],
            predict: vec![
                Instruction::new(Op::MGet, 0, 0, 2, [0.0; 2], [1, 2]), // s2 = m0[1][2]
                Instruction::new(Op::SAdd, 2, 3, 4, [0.0; 2], [0; 2]), // s4 = s2 + s3
                Instruction::new(Op::SAdd, 4, 1, 1, [0.0; 2], [0; 2]), // s1 = s4 + s1
            ],
            update: vec![Instruction::nop()],
        };
        let compiled = compile(&prog, &cfg, k);
        let (dirty, read_only) = predict_spans(&compiled, cfg.dim, k);
        // m0 is reloaded, s2 and s4 are written first: only the recurrent
        // s1 needs a restore, and only s3 a resident copy.
        assert_eq!(scalars(&dirty, k), vec![1]);
        assert_eq!(scalars(&read_only, k), vec![3]);
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
        let (dirty, read_only) = predict_spans(&compiled, cfg.dim, k);
        assert!(dirty.is_empty());
        assert_eq!(scalars(&read_only, k), vec![PREDICTION]);

        // Served, it lives on a private plane and is read from there.
        let ds = dataset();
        let k = ds.n_stocks();
        let server = AlphaServer::new(
            cfg,
            &EvalOptions::default(),
            Arc::clone(&ds),
            vec![("setup".into(), prog)],
        );
        let p = &server.programs[0];
        assert_eq!(p.prediction, cfg.n_scalars * k);
        assert_eq!(p.resident_state, vec![0.25; k]);
        let day = ds.test_days().start;
        assert_eq!(server.serve_day(day).row(0), &vec![0.25; k][..]);
    }

    #[test]
    fn read_only_planes_move_to_private_planes_per_program() {
        let cfg = AlphaConfig::default();
        let (ds, d) = (dataset(), cfg.dim);
        let k = ds.n_stocks();
        let nn = init::two_layer_nn(&cfg);
        let server = AlphaServer::new(
            cfg,
            &EvalOptions::default(),
            Arc::clone(&ds),
            vec![("a".into(), nn.clone()), ("b".into(), nn)],
        );
        for (i, p) in server.programs.iter().enumerate() {
            assert!(p.dirty.is_empty(), "the NN seed restores nothing");
            let mut planes: Vec<_> = p.resident.iter().map(|s| (s.kind, s.offset)).collect();
            planes.sort_unstable();
            // Slot 0's matrix bank starts after the tile's shared m0.
            assert_eq!(
                planes,
                vec![
                    (Kind::V, (cfg.n_vectors + i) * d * k),
                    (Kind::M, (1 + cfg.n_matrices + i) * d * d * k),
                ]
            );
            assert_eq!(p.prediction, PREDICTION * k, "s1 is written first");
        }
        assert_eq!(server.arena_cfg.n_scalars, cfg.n_scalars);
        assert_eq!(server.arena_cfg.n_vectors, cfg.n_vectors + 2);
        assert_eq!(server.arena_cfg.n_matrices, cfg.n_matrices + 2);
        // One column of m0, loaded once; nothing restored.
        assert_eq!(server.copy_bytes_per_day(), ((d * k * 8) as u64, 0));
    }

    #[test]
    fn writes_input_detection() {
        let cfg = AlphaConfig::default();
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
            dataset(),
            vec![
                ("clobber".into(), clobber.clone()),
                ("clean".into(), clean.clone()),
            ],
        );
        assert!(server.programs[0].writes_input);
        assert!(!server.programs[1].writes_input);
        // Every cell, copied twice: loaded once per day, and staged into
        // the clobber's private m0.
        let (d, k) = (cfg.dim, server.n_stocks());
        assert_eq!(server.copy_bytes_per_day().0, (2 * d * d * k * 8) as u64);
        // A writer stages its copy wherever it sits in the batch.
        let last = AlphaServer::new(
            cfg,
            &EvalOptions::default(),
            dataset(),
            vec![("clean".into(), clean), ("clobber".into(), clobber)],
        );
        assert_eq!(last.copy_bytes_per_day().0, (2 * d * d * k * 8) as u64);
    }
}
