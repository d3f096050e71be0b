//! Alpha archive & serving: the persistence and inference layer of the
//! AlphaEvolve reproduction.
//!
//! Mining produces a growing pool of weakly-correlated alphas; this crate
//! is where that pool stops dying with the process. Three pillars:
//!
//! * **A versioned binary codec** ([`codec`], [`frame`], [`progio`]) —
//!   hand-rolled (no serde; the build container is offline), endian-stable
//!   (everything little-endian, floats as raw IEEE-754 bit patterns), with
//!   magic/version/CRC framing. Corrupted, truncated, or mismatched files
//!   fail with a typed [`StoreError`] — never a panic, never a silent
//!   partial load.
//! * **A hall of fame** ([`archive::AlphaArchive`]) — a capacity-bounded
//!   alpha pool admitting candidates through the paper's weak-correlation
//!   gate and evicting the weakest on overflow. `mine → save → load →
//!   extend` round-trips bit for bit.
//! * **A batch prediction server** ([`server::AlphaServer`]) — compiles
//!   every archived program once, trains it once, then sweeps one
//!   [`DayMajorPanel`](alphaevolve_market::DayMajorPanel) day across the
//!   whole batch per panel load, one warm arena per worker thread. Warm
//!   requests allocate nothing.
//! * **A transport-agnostic serving API** — the [`service::AlphaService`]
//!   trait (serve a day, serve a range, report capabilities) implemented
//!   by the server directly, by [`transport::ServiceClient`] over any
//!   byte stream (in-process [`transport::Loopback`] pipes or Unix
//!   domain sockets speaking the [`wire`] protocol: the same AEVS
//!   magic/version/CRC frames as the files, as stream messages), and by
//!   the [`router::ShardedRouter`], which fans a day or range request out
//!   to N shard replicas and merges the blocks bit-identically to a single
//!   server — routers are services, so fleets nest and hide behind the
//!   same trait.
//!
//! Evolution checkpoints ([`checkpoint`]) make long searches durable: a
//! run checkpointed every N generations, reloaded in a fresh process, and
//! resumed reproduces the uninterrupted run's best alpha bit for bit
//! (fingerprint and IC — see `tests/checkpoint_resume.rs` at the
//! workspace root).
//!
//! # The file format
//!
//! Every store file is one framed record:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"AEVS"
//! 4       2     format version, little-endian (currently 1)
//! 6       2     record kind: 1 = alpha archive, 2 = evolution checkpoint,
//!               3–16 = wire protocol messages (see the frame module docs)
//! 8       8     payload length n, little-endian
//! 16      n     payload
//! 16+n    4     CRC-32 (IEEE) over bytes [0, 16+n) — header and payload
//! ```
//!
//! Integers are little-endian; counts are u64; floats are `f64::to_bits`
//! bit patterns (NaN payloads and signed zeros survive); strings are
//! u64-length-prefixed UTF-8. Programs serialize as three u64-counted
//! instruction lists (setup/predict/update), each instruction 23 bytes:
//! a u16 op code (index into the fixed [`Op::ALL`] order), five u8 slots
//! (in1, in2, out, ix0, ix1), and two u64 literal bit patterns. The
//! record layouts are specified field-by-field in the [`archive`] and
//! [`checkpoint`] module docs.
//!
//! Readers validate magic → declared length → CRC before decoding, and
//! every decode is bounds-checked, so a bit flip or short write anywhere
//! in the file is caught (`crates/store/tests/corruption.rs` flips every
//! bit and cuts every prefix of real fixtures to prove it).
//!
//! [`Op::ALL`]: alphaevolve_core::Op::ALL
//!
//! # Mining to serving in one breath
//!
//! ```
//! use std::sync::Arc;
//! use alphaevolve_core::{fingerprint, init, AlphaConfig, EvalOptions, Evaluator};
//! use alphaevolve_market::{features::FeatureSet, generator::MarketConfig, Dataset, SplitSpec};
//! use alphaevolve_store::archive::{feature_set_id, AlphaArchive, ArchivedAlpha};
//! use alphaevolve_store::server::AlphaServer;
//!
//! let market = MarketConfig { n_stocks: 12, n_days: 120, seed: 5, ..Default::default() }.generate();
//! let features = FeatureSet::paper();
//! let dataset = Arc::new(Dataset::build(&market, &features, SplitSpec::paper_ratios()).unwrap());
//! let evaluator = Evaluator::new(AlphaConfig::default(), EvalOptions::default(), Arc::clone(&dataset));
//!
//! // Archive a mined (here: hand-written) alpha with its metadata.
//! let program = init::domain_expert(evaluator.config());
//! let evaluation = evaluator.evaluate(&program);
//! let mut archive = AlphaArchive::new(16);
//! archive.admit(ArchivedAlpha {
//!     name: "alpha_AE_D_0".into(),
//!     program,
//!     fingerprint: fingerprint(&init::domain_expert(evaluator.config()), evaluator.config()).0,
//!     ic: evaluation.ic,
//!     val_returns: evaluation.val_returns,
//!     train_days: (dataset.train_days().start as u64, dataset.train_days().end as u64),
//!     feature_set_id: feature_set_id(&features),
//! });
//!
//! // Round-trip through the codec, then serve a day across the batch.
//! let reloaded = AlphaArchive::from_bytes(&archive.to_bytes()).unwrap();
//! let server = AlphaServer::from_archive(
//!     &reloaded, AlphaConfig::default(), &EvalOptions::default(), dataset.clone(), &features,
//! ).unwrap();
//! let plane = server.serve_day(dataset.valid_days().start);
//! assert_eq!((plane.n_days(), plane.n_stocks()), (1, 12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod fleetwire;
pub mod frame;
pub mod metrics;
pub mod progio;
pub mod router;
pub mod server;
pub mod service;
pub mod transport;
pub mod wire;

pub use archive::{feature_set_id, AdmitOutcome, AlphaArchive, ArchivedAlpha};
pub use checkpoint::{
    checkpoint_from_bytes, checkpoint_to_bytes, load_checkpoint, save_checkpoint,
};
pub use error::{Result, ServiceErrorCode, StoreError};
pub use fleetwire::{EliteAck, EliteSubmit, FleetRequest, MigrantSet};
pub use metrics::{error_code_label, error_code_of, RequestKind, ServeMetrics};
pub use router::{partition_archive, spawn_thread_shards, ShardedRouter};
pub use server::{AlphaServer, ServeArena};
pub use service::{AlphaService, ServerSession, ServiceMetadata};
pub use transport::{loopback, serve_connection, serve_uds, Loopback, ServiceClient, Transport};
