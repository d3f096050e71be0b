//! The transport seam: byte streams under the wire protocol, the
//! [`ServiceClient`] that turns any stream into an
//! [`AlphaService`], and the server loops that drive any `AlphaService`
//! from the other end.
//!
//! A [`Transport`] is just a blocking duplex byte stream (`Read` +
//! `Write` + `Send`). Two std-only implementations ship:
//!
//! * [`Loopback`] — an in-process pipe pair ([`loopback`]); the serving
//!   end usually runs on its own thread. This is what the in-process
//!   sharded router rides on, and it keeps the whole request round trip
//!   allocation-free once warm (both pipe buffers retain their
//!   high-water capacity).
//! * [`std::os::unix::net::UnixStream`] — real inter-process serving for
//!   daemons ([`serve_uds`] accepts, one connection thread + one
//!   [`ServeArena`](crate::server::ServeArena) each).
//!
//! Anything else that implements `Read + Write + Send` (a `TcpStream`,
//! a tunnel, a mock) plugs in the same way.
//!
//! The server side is [`serve_connection`]: a strict
//! read-request/write-response loop over **any** [`AlphaService`] — a
//! [`ServerSession`](crate::service::ServerSession), or a whole
//! [`ShardedRouter`](crate::router::ShardedRouter) re-exported behind a
//! socket (services compose across transports). Malformed or wrong-kind
//! frames are answered with a typed `ErrorResponse` before the
//! connection closes; requests the service refuses (day out of range)
//! are answered typed and the connection stays up.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Condvar, Mutex};

use alphaevolve_backtest::CrossSections;
use alphaevolve_obs::MetricsSnapshot;

use crate::error::{Result, ServiceErrorCode, StoreError};
use crate::frame::{
    HEADER_LEN, KIND_ERROR_RESPONSE, KIND_METADATA_REQUEST, KIND_METADATA_RESPONSE,
    KIND_METRICS_REQUEST, KIND_METRICS_RESPONSE, KIND_PREDICTIONS_RESPONSE, KIND_SERVE_DAY_REQUEST,
    KIND_SERVE_RANGE_REQUEST,
};
use crate::metrics::{error_code_of, RequestKind, ServeMetrics};
use crate::server::AlphaServer;
use crate::service::{AlphaService, ServiceMetadata};
use crate::wire;
use crate::wire::{
    decode_error, decode_metadata, decode_metrics_response, decode_predictions_into,
    decode_request, encode_error, encode_metadata, encode_metrics_response, encode_predictions,
    encode_request, encode_store_error, frame_payload, read_message, write_message, Request,
};

/// A blocking duplex byte stream the wire protocol can ride on.
pub trait Transport: Read + Write + Send {}

impl Transport for UnixStream {}
impl Transport for Loopback {}

/// One direction of an in-process pipe: a byte queue plus shutdown flag.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.readable.notify_all();
    }
}

/// One end of an in-process duplex byte stream (see [`loopback`]).
///
/// Reads block until the peer writes or hangs up; dropping an end closes
/// its outgoing direction, so the peer's next read returns end-of-stream
/// (exactly like a closed socket). Queue capacity persists across
/// messages — a warm connection moves bytes without allocating.
pub struct Loopback {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

/// Creates a connected in-process transport pair.
pub fn loopback() -> (Loopback, Loopback) {
    let a = Pipe::new();
    let b = Pipe::new();
    (
        Loopback {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        Loopback { rx: b, tx: a },
    )
}

impl Read for Loopback {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().unwrap();
        while state.buf.is_empty() {
            if state.closed {
                return Ok(0);
            }
            state = self.rx.readable.wait(state).unwrap();
        }
        // Two slice copies (the deque's halves), not a per-byte loop:
        // every wire frame of the in-process shard fleet moves through
        // here.
        let n = out.len().min(state.buf.len());
        let (front, back) = state.buf.as_slices();
        let from_front = n.min(front.len());
        out[..from_front].copy_from_slice(&front[..from_front]);
        out[from_front..n].copy_from_slice(&back[..n - from_front]);
        state.buf.drain(..n);
        Ok(n)
    }
}

impl Write for Loopback {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut state = self.tx.state.lock().unwrap();
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "loopback peer hung up",
            ));
        }
        state.buf.extend(bytes);
        self.tx.readable.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        // Close both directions: the peer must neither block forever on
        // a read nor write into a queue nobody will drain.
        self.tx.close();
        self.rx.close();
    }
}

/// An [`AlphaService`] over any [`Transport`]: requests are encoded as
/// AEVS wire frames, responses decoded, typed errors surfaced as
/// [`StoreError::Service`]. Send/receive buffers are owned and reused,
/// so a warm client round trip performs no heap allocation of its own.
pub struct ServiceClient<T: Transport> {
    conn: T,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    /// A request a `prefetch_*` call left on the stream; its response
    /// has not been read yet.
    pending: Option<Request>,
    /// Client-side request/error/latency instruments (recording is
    /// atomic adds — the warm round trip stays allocation-free).
    metrics: ServeMetrics,
}

impl<T: Transport> ServiceClient<T> {
    /// Wraps a connected transport.
    pub fn new(conn: T) -> ServiceClient<T> {
        ServiceClient {
            conn,
            send_buf: Vec::new(),
            recv_buf: Vec::new(),
            pending: None,
            metrics: ServeMetrics::new(),
        }
    }

    /// Merges this client's *own* request/error/latency instruments into
    /// `out` under the `client_*` metric names. The remote peer's metrics
    /// come from [`AlphaService::metrics`] (a wire scrape) instead.
    pub fn local_metrics_into(&self, out: &mut MetricsSnapshot) {
        self.metrics.snapshot_into("client", out);
    }

    fn send(&mut self, req: Request) -> Result<()> {
        encode_request(req, &mut self.send_buf);
        write_message(&mut self.conn, &self.send_buf)
    }

    /// Reads the next response frame into the receive buffer.
    fn recv(&mut self) -> Result<u16> {
        match read_message(&mut self.conn, &mut self.recv_buf)? {
            Some(kind) => Ok(kind),
            None => Err(StoreError::Truncated {
                needed: HEADER_LEN,
                available: 0,
            }),
        }
    }

    /// Discards the response of an unconsumed prefetch so the stream is
    /// back in request/response lockstep.
    fn drain_pending(&mut self) -> Result<()> {
        if self.pending.take().is_some() {
            self.recv()?;
        }
        Ok(())
    }

    /// Writes `req` eagerly, unless that exact request is already pending;
    /// a different pending request is drained first.
    fn prefetch(&mut self, req: Request) -> Result<()> {
        if self.pending == Some(req) {
            return Ok(());
        }
        self.drain_pending()?;
        self.send(req)?;
        self.pending = Some(req);
        Ok(())
    }

    /// Reads the predictions answering `req`: consumes the pending
    /// response when a prefetch already sent `req`, otherwise drains any
    /// stale prefetch and sends `req` now.
    fn predictions(&mut self, req: Request, out: &mut CrossSections) -> Result<()> {
        if self.pending == Some(req) {
            self.pending = None;
        } else {
            self.drain_pending()?;
            self.send(req)?;
        }
        self.read_predictions(out)
    }

    fn read_predictions(&mut self, out: &mut CrossSections) -> Result<()> {
        match self.recv()? {
            KIND_PREDICTIONS_RESPONSE => {
                decode_predictions_into(frame_payload(&self.recv_buf), out)
            }
            KIND_ERROR_RESPONSE => Err(decode_error(frame_payload(&self.recv_buf))),
            other => Err(StoreError::service(
                ServiceErrorCode::Protocol,
                format!("expected a predictions response, got kind {other}"),
            )),
        }
    }

    /// Counts, times, and error-classifies one client request under this
    /// client's `client_*` instruments (prefetches are not counted — the
    /// serve call that consumes the response is).
    fn observed<R>(
        &mut self,
        kind: RequestKind,
        f: impl FnOnce(&mut Self) -> Result<R>,
    ) -> Result<R> {
        self.metrics.record_request(kind);
        let t = std::time::Instant::now();
        let out = f(self);
        self.metrics
            .record_latency_ns(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Err(e) = &out {
            self.metrics.record_error(error_code_of(e));
        }
        out
    }
}

impl ServiceClient<UnixStream> {
    /// Connects to a Unix-domain-socket daemon (see [`serve_uds`]).
    pub fn connect(path: impl AsRef<std::path::Path>) -> Result<ServiceClient<UnixStream>> {
        Ok(ServiceClient::new(UnixStream::connect(path)?))
    }
}

impl<T: Transport> AlphaService for ServiceClient<T> {
    fn metadata(&mut self) -> Result<ServiceMetadata> {
        self.observed(RequestKind::Metadata, |c| {
            c.drain_pending()?;
            c.send(Request::Metadata)?;
            match c.recv()? {
                KIND_METADATA_RESPONSE => decode_metadata(frame_payload(&c.recv_buf)),
                KIND_ERROR_RESPONSE => Err(decode_error(frame_payload(&c.recv_buf))),
                other => Err(StoreError::service(
                    ServiceErrorCode::Protocol,
                    format!("expected a metadata response, got kind {other}"),
                )),
            }
        })
    }

    fn prefetch_day(&mut self, day: usize) -> Result<()> {
        self.prefetch(day_request(day))
    }

    fn prefetch_range(&mut self, days: Range<usize>) -> Result<()> {
        self.prefetch(range_request(days))
    }

    fn serve_day(&mut self, day: usize, out: &mut CrossSections) -> Result<()> {
        self.observed(RequestKind::Day, |c| c.predictions(day_request(day), out))
    }

    fn serve_range(&mut self, days: Range<usize>, out: &mut CrossSections) -> Result<()> {
        self.observed(RequestKind::Range, |c| {
            c.predictions(range_request(days), out)
        })
    }

    /// Scrapes the *remote* service's metrics over the wire (kinds 9/10)
    /// and merges the parsed snapshot into `out`. This client's own
    /// instruments are separate ([`ServiceClient::local_metrics_into`]).
    fn metrics(&mut self, out: &mut MetricsSnapshot) -> Result<()> {
        self.observed(RequestKind::Metrics, |c| {
            c.drain_pending()?;
            c.send(Request::Metrics)?;
            match c.recv()? {
                KIND_METRICS_RESPONSE => {
                    let text = decode_metrics_response(frame_payload(&c.recv_buf))?;
                    let parsed = MetricsSnapshot::parse(&text).map_err(|e| {
                        StoreError::service(
                            ServiceErrorCode::Protocol,
                            format!("unparseable metrics exposition: {e}"),
                        )
                    })?;
                    out.merge_from(&parsed);
                    Ok(())
                }
                KIND_ERROR_RESPONSE => Err(decode_error(frame_payload(&c.recv_buf))),
                other => Err(StoreError::service(
                    ServiceErrorCode::Protocol,
                    format!("expected a metrics response, got kind {other}"),
                )),
            }
        })
    }
}

/// Drives one connection over any [`AlphaService`]: reads request
/// frames, dispatches, writes exactly one response frame each — until
/// the peer hangs up (returns `Ok`). Per-connection buffers and the
/// prediction panel are reused, so a warm request is served without
/// heap allocation (given an allocation-free service such as
/// [`ServerSession`](crate::service::ServerSession)).
///
/// Error policy: a request the *service* refuses (e.g. day out of
/// range) is answered with a typed `ErrorResponse` and the connection
/// stays open; an unintelligible or wrong-kind frame is answered typed
/// and then the connection closes (a corrupt stream cannot be re-synced
/// safely).
pub fn serve_connection<S, T>(service: &mut S, conn: &mut T) -> Result<()>
where
    S: AlphaService,
    T: Transport,
{
    let mut recv_buf = Vec::new();
    let mut send_buf = Vec::new();
    let mut block = CrossSections::new(0, 0);
    // Wire-layer instruments for this connection. They are merged into
    // metrics scrapes under the `wire_` prefix, so a scrape sees how many
    // requests travelled over this connection, at what latency, and how
    // many failed — independent of the service's own `serve_` counters.
    let metrics = ServeMetrics::new();
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
        match kind {
            KIND_SERVE_DAY_REQUEST | KIND_SERVE_RANGE_REQUEST => {
                let rk = if kind == KIND_SERVE_DAY_REQUEST {
                    RequestKind::Day
                } else {
                    RequestKind::Range
                };
                let served = metrics.observe(rk, || {
                    decode_request(kind, frame_payload(&recv_buf)).and_then(|req| match req {
                        Request::ServeDay { day } => service.serve_day(day_index(day)?, &mut block),
                        Request::ServeRange { start, end } => {
                            service.serve_range(day_index(start)?..day_index(end)?, &mut block)
                        }
                        Request::Metadata | Request::Metrics => {
                            unreachable!("kind checked above")
                        }
                    })
                });
                match served {
                    // A block too large for one frame is refused typed
                    // here: emitting it would only make the client
                    // reject the frame and desync the stream.
                    Ok(())
                        if wire::predictions_payload_len(block.n_days(), block.n_stocks())
                            .is_none() =>
                    {
                        metrics.record_error(ServiceErrorCode::ResponseTooLarge);
                        encode_error(
                            ServiceErrorCode::ResponseTooLarge,
                            &format!(
                                "{} × {} prediction block exceeds the wire frame bound; \
                                 request a smaller day range",
                                block.n_days(),
                                block.n_stocks()
                            ),
                            &mut send_buf,
                        );
                    }
                    Ok(()) => encode_predictions(&block, &mut send_buf),
                    Err(e) => encode_store_error(&e, &mut send_buf),
                }
            }
            KIND_METADATA_REQUEST => {
                match metrics.observe(RequestKind::Metadata, || {
                    decode_request(kind, frame_payload(&recv_buf)).and_then(|_| service.metadata())
                }) {
                    Ok(meta) => encode_metadata(&meta, &mut send_buf),
                    Err(e) => encode_store_error(&e, &mut send_buf),
                }
            }
            KIND_METRICS_REQUEST => {
                // The scrape request is counted before the snapshot is
                // taken (`observe` records first), so a scrape observes
                // itself in the wire-layer counters it returns.
                let rendered = metrics.observe(RequestKind::Metrics, || {
                    decode_request(kind, frame_payload(&recv_buf))?;
                    let mut snap = MetricsSnapshot::new();
                    service.metrics(&mut snap)?;
                    metrics.snapshot_into("wire", &mut snap);
                    Ok(snap.render())
                });
                match rendered {
                    Ok(text) => encode_metrics_response(&text, &mut send_buf),
                    Err(e) => encode_store_error(&e, &mut send_buf),
                }
            }
            other => {
                // A response frame (or an unknown kind) where a request
                // belongs: answer typed, then drop the connection.
                encode_error(
                    ServiceErrorCode::Protocol,
                    &format!("expected a request frame, got kind {other}"),
                    &mut send_buf,
                );
                write_message(conn, &send_buf)?;
                return Err(StoreError::service(
                    ServiceErrorCode::Protocol,
                    format!("peer sent non-request kind {other}"),
                ));
            }
        }
        write_message(conn, &send_buf)?;
    }
}

fn day_request(day: usize) -> Request {
    Request::ServeDay { day: day as u64 }
}

fn range_request(days: Range<usize>) -> Request {
    Request::ServeRange {
        start: days.start as u64,
        end: days.end as u64,
    }
}

/// Narrow a wire day index to `usize` with a typed failure.
fn day_index(day: u64) -> Result<usize> {
    usize::try_from(day).map_err(|_| {
        StoreError::service(
            ServiceErrorCode::DayOutOfRange,
            format!("day {day} exceeds the address space"),
        )
    })
}

/// Serves an [`AlphaServer`] on a Unix-domain-socket listener: accepts
/// forever, one thread and one warm
/// [`ServerSession`](crate::service::ServerSession) per connection. Runs
/// until the listener fails (bind errors, fd exhaustion) — spawn it on a
/// dedicated thread:
///
/// ```no_run
/// # use std::sync::Arc;
/// # use std::os::unix::net::UnixListener;
/// # use alphaevolve_store::transport::{serve_uds, ServiceClient};
/// # fn demo(server: alphaevolve_store::server::AlphaServer) -> alphaevolve_store::Result<()> {
/// let listener = UnixListener::bind("/tmp/alphas.sock")?;
/// let server = Arc::new(server);
/// std::thread::spawn(move || serve_uds(listener, server));
/// let mut client = ServiceClient::connect("/tmp/alphas.sock")?;
/// # Ok(())
/// # }
/// ```
pub fn serve_uds(listener: UnixListener, server: Arc<AlphaServer>) -> Result<()> {
    loop {
        let (mut conn, _addr) = listener.accept()?;
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let mut session = server.session();
            // Peer hangups and protocol errors end this connection only.
            let _ = serve_connection(&mut session, &mut conn);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_moves_bytes_and_signals_eof() {
        let (mut a, mut b) = loopback();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        drop(a);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "dropped peer reads as EOF");
        assert!(b.write_all(b"x").is_err(), "write to a hung-up peer fails");
    }

    #[test]
    fn loopback_read_blocks_until_write() {
        let (mut a, mut b) = loopback();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.write_all(b"abc").unwrap();
        assert_eq!(&t.join().unwrap(), b"abc");
    }
}
