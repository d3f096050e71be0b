//! AlphaEvolve core: the new alpha class and the mining framework.
//!
//! This crate implements the primary contribution of *AlphaEvolve: A
//! Learning Framework to Discover Novel Alphas in Quantitative Investment*
//! (Cui et al., SIGMOD 2021):
//!
//! * a **new class of alphas** — straight-line programs over scalar /
//!   vector / matrix registers with `Setup()` / `Predict()` / `Update()`
//!   components ([`program`], [`op`], [`instruction`], [`memory`]);
//! * two **cross-sectional interpreters** executing an alpha on all stocks
//!   simultaneously so RelationOps can rank/demean across tasks: the
//!   columnar stock-major tile with its compile-then-execute pipeline,
//!   the one engine behind search, backtests and serving, and the lockstep
//!   bitwise oracle ([`interp`], [`compile`](mod@compile), [`memory`],
//!   [`relation`]);
//! * the paper's **search optimizations**: redundancy pruning, redundant-
//!   alpha rejection and evaluation-free fingerprinting with a fitness
//!   cache ([`prune`](mod@prune), [`fingerprint`](mod@fingerprint));
//! * **regularized evolution** with tournament selection, aging, the two
//!   paper mutation classes, and a weak-correlation gate for mining alpha
//!   *sets* ([`evolution`], [`mutation`]);
//! * the four **initializations** of §5.2 ([`init`]) and a round-tripping
//!   text format for mined alphas ([`textio`]).
//!
//! # Mining an alpha in five lines
//!
//! ```
//! use std::sync::Arc;
//! use alphaevolve_core::{AlphaConfig, EvalOptions, Evaluator, Evolution, EvolutionConfig, Budget, init};
//! use alphaevolve_market::{generator::MarketConfig, features::FeatureSet, Dataset, SplitSpec};
//!
//! let market = MarketConfig { n_stocks: 20, n_days: 150, seed: 1, ..Default::default() }.generate();
//! let dataset = Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios()).unwrap();
//! let evaluator = Evaluator::new(AlphaConfig::default(), EvalOptions::default(), Arc::new(dataset));
//! let config = EvolutionConfig { budget: Budget::Searched(200), ..Default::default() };
//! let outcome = Evolution::new(&evaluator, config).run(&init::domain_expert(evaluator.config()));
//! assert!(outcome.best.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod analysis;
pub mod canon;
pub mod compile;
pub mod config;
pub mod eval;
pub mod evolution;
pub mod fingerprint;
pub mod hashutil;
pub mod init;
pub mod instruction;
pub mod interp;
pub mod kernels;
pub mod memory;
pub mod mutation;
pub mod op;
pub mod paper_alphas;
pub mod program;
pub mod prune;
pub mod relation;
pub mod telemetry;
pub mod textio;
pub mod verify;

pub use absint::{ProgramFacts, StaticVerdict};
pub use analysis::{analyze, AlphaAnalysis};
pub use canon::{canonical_program, CanonOutcome};
pub use compile::{
    classify_predict_planes, compile, compile_into, relocate_for_slot, rewrite_operands,
    slot_offsets, writes_m0, writes_m0_in, CompileScratch, CompiledInstr, CompiledProgram,
    Footprint, PlaneClass, PredictPlane,
};
pub use config::AlphaConfig;
pub use eval::{
    labels_cross_sections, BacktestReport, BatchArena, EvalOptions, Evaluation, Evaluator,
    SplitMetrics,
};
pub use evolution::{
    BestAlpha, Budget, Evolution, EvolutionCheckpoint, EvolutionConfig, EvolutionOutcome,
    Individual, MigrationState, SearchStats, TrajectoryPoint,
};
pub use fingerprint::{fingerprint, fingerprint_analyzed, Analyzed};
pub use instruction::Instruction;
pub use interp::{BatchInterpreter, Interpreter};
pub use memory::{MemoryBank, RegisterFile};
pub use mutation::{MutationConfig, Mutator};
pub use op::{Kind, Op};
pub use program::{AlphaProgram, FunctionId};
pub use prune::{canonicalize, liveness, prune, Liveness, PruneResult};
pub use relation::GroupIndex;
pub use telemetry::{EvalSpans, FlushCause, SearchTelemetry};
pub use verify::{check_envelope, Diagnostic, DiagnosticCode, ProgramVerifier, Severity};
