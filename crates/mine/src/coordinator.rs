//! The fleet coordinator: the single admission point of an island fleet.
//!
//! Islands publish elites at the end of each migration round; the
//! coordinator collects one submission per island, then processes the
//! round **in island-id order** — verify, re-evaluate, admit through the
//! archive's correlation gate — and releases every island with the same
//! acknowledgement. That barrier is what makes a fleet transport-agnostic
//! *and* deterministic: whatever order submissions arrive in (thread
//! scheduling, loopback pipes, Unix sockets), the archive mutates in the
//! same order with the same inputs, so a fixed fleet seed and island
//! count reproduce the final archive byte-identically.
//!
//! ## The trust boundary
//!
//! A submitted elite crosses three independent checks before it can
//! touch the shared archive:
//!
//! 1. the wire decode runs the envelope checks of
//!    [`progio`](alphaevolve_store::progio) (instruction counts, operand
//!    indices, literal encodings) — a malformed program never parses;
//! 2. the coordinator runs the config-aware
//!    [`ProgramVerifier`], so a
//!    program that is well-formed in general but invalid under *this*
//!    fleet's configuration is rejected and counted
//!    (`mine_migrants_rejected_invalid_total`);
//! 3. the coordinator **re-evaluates** the program itself — an island's
//!    claimed IC is never trusted — and only the locally measured
//!    evaluation enters the gate.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use alphaevolve_core::{fingerprint, liveness, AlphaProgram, Evaluator, ProgramVerifier};
use alphaevolve_obs::MetricsSnapshot;
use alphaevolve_store::archive::{AlphaArchive, ArchivedAlpha};
use alphaevolve_store::fleetwire::{
    decode_fleet_request, encode_archive_snapshot, encode_elite_ack, encode_migrant_set, EliteAck,
    EliteSubmit, FleetRequest, MigrantSet,
};
use alphaevolve_store::frame::KIND_METRICS_REQUEST;
use alphaevolve_store::wire::{
    encode_metrics_response, encode_store_error, frame_payload, read_message, write_message,
};
use alphaevolve_store::{Result, ServiceErrorCode, StoreError, Transport};

use crate::metrics::FleetMetrics;

/// Static shape of a coordinator: how many islands it barriers on and
/// how admitted alphas are stamped.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Number of islands the round barrier waits for.
    pub islands: usize,
    /// The feature-set id stamped on every admitted archive entry.
    pub feature_set_id: u64,
    /// How long a blocked island waits for the rest of the fleet before
    /// the round is declared failed (a crashed island must not hang its
    /// peers forever).
    pub round_deadline: Duration,
    /// The first round this coordinator collects (0 for a fresh fleet;
    /// the next unfinished round when resuming from a fleet checkpoint).
    pub start_round: u64,
    /// When set, the archive is saved here after every completed round,
    /// so an interrupted fleet resumes from the last round boundary.
    pub archive_path: Option<std::path::PathBuf>,
}

/// The outcome of one completed migration round, broadcast to every
/// island through its [`EliteAck`].
#[derive(Debug, Clone)]
struct RoundResult {
    round: u64,
    admitted: u64,
    rejected_gate: u64,
    rejected_invalid: u64,
    migrants: Vec<AlphaProgram>,
}

struct RoundState {
    /// The round currently being collected.
    round: u64,
    /// One slot per island for the current round.
    pending: Vec<Option<EliteSubmit>>,
    received: usize,
    /// When the first submission of the current round arrived.
    opened: Option<Instant>,
    /// The last completed round, for waiters and late fetchers.
    last: Option<RoundResult>,
    /// Set when a round blew its deadline: every current and future
    /// waiter fails instead of hanging.
    failed: Option<String>,
}

/// The shared admission point of an island fleet (see the module docs).
pub struct Coordinator {
    evaluator: Arc<Evaluator>,
    verifier: ProgramVerifier,
    config: CoordinatorConfig,
    state: Mutex<RoundState>,
    released: Condvar,
    archive: Mutex<AlphaArchive>,
    metrics: FleetMetrics,
}

impl Coordinator {
    /// A coordinator admitting into `archive` (fresh, or reloaded from a
    /// fleet checkpoint). The evaluator re-measures every submission; it
    /// must be built over the same dataset and config as the islands'
    /// for the determinism contract to hold.
    pub fn new(
        evaluator: Arc<Evaluator>,
        archive: AlphaArchive,
        config: CoordinatorConfig,
    ) -> Coordinator {
        let verifier = ProgramVerifier::new(evaluator.config());
        Coordinator {
            verifier,
            state: Mutex::new(RoundState {
                round: config.start_round,
                pending: (0..config.islands).map(|_| None).collect(),
                received: 0,
                opened: None,
                last: None,
                failed: None,
            }),
            released: Condvar::new(),
            archive: Mutex::new(archive),
            metrics: FleetMetrics::new(config.islands),
            evaluator,
            config,
        }
    }

    /// The coordinator's instrument panel.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// Renders the fleet metrics as a text exposition (the kind-10
    /// payload).
    pub fn render_metrics(&self) -> String {
        let mut snap = MetricsSnapshot::new();
        self.metrics.snapshot_into(&mut snap);
        snap.render()
    }

    /// The serialized shared archive (a complete kind-1 file frame).
    pub fn archive_bytes(&self) -> Vec<u8> {
        self.archive.lock().unwrap().to_bytes()
    }

    fn check_island(&self, island: u64) -> Result<usize> {
        let i = usize::try_from(island)
            .ok()
            .filter(|&i| i < self.config.islands);
        i.ok_or_else(|| {
            StoreError::service(
                ServiceErrorCode::Protocol,
                format!(
                    "island {island} is not part of this {}-island fleet",
                    self.config.islands
                ),
            )
        })
    }

    /// An island's end-of-round submission. Blocks until every island
    /// has submitted the same round (or the deadline passes), processes
    /// the round in island-id order, and returns the shared verdict.
    pub fn handle_submit(&self, submit: EliteSubmit) -> Result<EliteAck> {
        let island = self.check_island(submit.island)?;
        let round = submit.round;
        let mut state = self.state.lock().unwrap();
        if let Some(why) = &state.failed {
            return Err(StoreError::service(ServiceErrorCode::Internal, why.clone()));
        }
        if round != state.round {
            return Err(StoreError::service(
                ServiceErrorCode::Protocol,
                format!(
                    "island {island} submitted round {round}, expected {}",
                    state.round
                ),
            ));
        }
        if state.pending[island].is_some() {
            return Err(StoreError::service(
                ServiceErrorCode::Protocol,
                format!("island {island} already submitted round {round}"),
            ));
        }
        let im = self.metrics.island(island);
        im.submitted.add(submit.programs.len() as u64);
        im.rounds.inc();
        if submit.elapsed_ns > 0 {
            im.candidates_per_sec
                .set(submit.searched as f64 / (submit.elapsed_ns as f64 / 1e9));
        }
        state.opened.get_or_insert_with(Instant::now);
        state.pending[island] = Some(submit);
        state.received += 1;
        if state.received == self.config.islands {
            self.process_round(&mut state)?;
            self.released.notify_all();
        } else {
            let deadline = Instant::now() + self.config.round_deadline;
            loop {
                match &state.last {
                    Some(r) if r.round == round => break,
                    _ => {}
                }
                if let Some(why) = &state.failed {
                    return Err(StoreError::service(ServiceErrorCode::Internal, why.clone()));
                }
                let now = Instant::now();
                if now >= deadline {
                    let why = format!(
                        "migration round {round} missed its {:?} deadline \
                         ({} of {} islands submitted)",
                        self.config.round_deadline, state.received, self.config.islands
                    );
                    state.failed = Some(why.clone());
                    self.released.notify_all();
                    return Err(StoreError::service(ServiceErrorCode::Internal, why));
                }
                let (next, _timed_out) = self.released.wait_timeout(state, deadline - now).unwrap();
                state = next;
            }
        }
        let result = state.last.as_ref().expect("round result just produced");
        Ok(EliteAck {
            round: result.round,
            admitted: result.admitted,
            rejected_gate: result.rejected_gate,
            rejected_invalid: result.rejected_invalid,
            migrants: result.migrants.clone(),
        })
    }

    /// Processes the collected round in island-id order while holding
    /// the state lock — the serialization point that makes admissions
    /// independent of submission arrival order.
    fn process_round(&self, state: &mut RoundState) -> Result<()> {
        let ds = self.evaluator.dataset();
        let train_days = (ds.train_days().start as u64, ds.train_days().end as u64);
        let mut result = RoundResult {
            round: state.round,
            admitted: 0,
            rejected_gate: 0,
            rejected_invalid: 0,
            migrants: Vec::new(),
        };
        let mut archive = self.archive.lock().unwrap();
        // One B = 1 tile re-scores every elite of the round, exactly as
        // `Evaluator::evaluate` would, without building one per elite.
        let mut tile = self.evaluator.batch_arena(1);
        for island in 0..self.config.islands {
            let submit = state.pending[island]
                .take()
                .expect("barrier counted all islands");
            let im = self.metrics.island(island);
            for program in submit.programs {
                if self.verifier.ensure_valid(&program).is_err() {
                    result.rejected_invalid += 1;
                    im.rejected_invalid.inc();
                    continue;
                }
                tile.clear();
                tile.push(&program, !liveness(&program).stateful);
                self.evaluator.evaluate_batch_in(&mut tile);
                let Some(ic) = tile.fitness(0) else {
                    // Well-formed but produces non-finite/degenerate
                    // predictions on this dataset: unusable as an alpha.
                    result.rejected_invalid += 1;
                    im.rejected_invalid.inc();
                    continue;
                };
                let fp = fingerprint(&program, self.evaluator.config()).0;
                let outcome = archive.admit(ArchivedAlpha {
                    name: format!("alpha_{fp:016x}"),
                    program,
                    fingerprint: fp,
                    ic,
                    val_returns: tile.val_returns(0).to_vec(),
                    train_days,
                    feature_set_id: self.config.feature_set_id,
                });
                if outcome.admitted() {
                    result.admitted += 1;
                    im.admitted.inc();
                } else {
                    result.rejected_gate += 1;
                    im.rejected_gate.inc();
                }
            }
        }
        result.migrants = archive
            .entries()
            .iter()
            .map(|e| e.program.clone())
            .collect();
        if let Some(path) = &self.config.archive_path {
            archive.save(path)?;
        }
        drop(archive);
        self.metrics.rounds_total.inc();
        if let Some(opened) = state.opened.take() {
            self.metrics.round_latency.record_duration(opened.elapsed());
        }
        state.round += 1;
        state.received = 0;
        state.last = Some(result);
        Ok(())
    }

    /// The current migrant pool without submitting — for late joiners
    /// and out-of-band inspection.
    pub fn handle_fetch(&self, island: u64, _round: u64) -> Result<MigrantSet> {
        self.check_island(island)?;
        let state = self.state.lock().unwrap();
        let round = state
            .last
            .as_ref()
            .map_or(self.config.start_round, |r| r.round);
        drop(state);
        let archive = self.archive.lock().unwrap();
        Ok(MigrantSet {
            round,
            migrants: archive
                .entries()
                .iter()
                .map(|e| e.program.clone())
                .collect(),
        })
    }

    /// A full archive snapshot as serialized file bytes.
    pub fn handle_sync(&self, island: u64) -> Result<Vec<u8>> {
        self.check_island(island)?;
        Ok(self.archive_bytes())
    }
}

/// Drives one fleet connection: reads request frames, dispatches to the
/// coordinator, writes exactly one response frame each — until the peer
/// hangs up. Mirrors the serving loop's error policy: a request the
/// coordinator refuses (wrong round, unknown island, blown deadline) is
/// answered with a typed kind-8 error and the connection stays open; an
/// unintelligible or non-request frame is answered typed and then the
/// connection closes.
pub fn serve_fleet_connection<T: Transport>(coordinator: &Coordinator, conn: &mut T) -> Result<()> {
    let mut recv_buf = Vec::new();
    let mut send_buf = Vec::new();
    loop {
        let kind = match read_message(conn, &mut recv_buf) {
            Ok(Some(kind)) => kind,
            Ok(None) => return Ok(()),
            Err(err) => {
                encode_store_error(
                    &StoreError::service(ServiceErrorCode::Protocol, err.to_string()),
                    &mut send_buf,
                );
                let _ = write_message(conn, &send_buf);
                return Err(err);
            }
        };
        if kind == KIND_METRICS_REQUEST {
            match alphaevolve_store::wire::decode_request(kind, frame_payload(&recv_buf)) {
                Ok(_) => encode_metrics_response(&coordinator.render_metrics(), &mut send_buf),
                Err(e) => encode_store_error(&e, &mut send_buf),
            }
            write_message(conn, &send_buf)?;
            continue;
        }
        match decode_fleet_request(kind, frame_payload(&recv_buf)) {
            Ok(FleetRequest::EliteSubmit(submit)) => match coordinator.handle_submit(submit) {
                Ok(ack) => encode_elite_ack(&ack, &mut send_buf),
                Err(e) => encode_store_error(&e, &mut send_buf),
            },
            Ok(FleetRequest::MigrantFetch { island, round }) => {
                match coordinator.handle_fetch(island, round) {
                    Ok(set) => encode_migrant_set(&set, &mut send_buf),
                    Err(e) => encode_store_error(&e, &mut send_buf),
                }
            }
            Ok(FleetRequest::ArchiveSync { island }) => match coordinator.handle_sync(island) {
                Ok(bytes) => encode_archive_snapshot(&bytes, &mut send_buf),
                Err(e) => encode_store_error(&e, &mut send_buf),
            },
            Err(e) => {
                // A response frame (or unknown kind) where a request
                // belongs, or a payload the decoder rejects: answer
                // typed, then drop the connection if it was a framing-
                // level confusion (unknown kind) rather than a refused
                // but well-framed request.
                let close = !matches!(
                    kind,
                    alphaevolve_store::frame::KIND_ELITE_SUBMIT_REQUEST
                        | alphaevolve_store::frame::KIND_MIGRANT_FETCH_REQUEST
                        | alphaevolve_store::frame::KIND_ARCHIVE_SYNC_REQUEST
                );
                encode_store_error(&e, &mut send_buf);
                write_message(conn, &send_buf)?;
                if close {
                    return Err(StoreError::service(
                        ServiceErrorCode::Protocol,
                        format!("peer sent non-request kind {kind}"),
                    ));
                }
                continue;
            }
        }
        write_message(conn, &send_buf)?;
    }
}

/// Serves a coordinator on a Unix-domain-socket listener: accepts
/// forever, one thread per island connection — the process-separated
/// analogue of handing each island thread a
/// [`LocalLink`](crate::island::LocalLink). Runs until the listener
/// fails; spawn it on a dedicated thread like
/// [`serve_uds`](alphaevolve_store::transport::serve_uds).
pub fn serve_fleet_uds(
    listener: std::os::unix::net::UnixListener,
    coordinator: Arc<Coordinator>,
) -> Result<()> {
    loop {
        let (mut conn, _addr) = listener.accept()?;
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || {
            // Peer hangups and protocol errors end this connection only.
            let _ = serve_fleet_connection(&coordinator, &mut conn);
        });
    }
}
