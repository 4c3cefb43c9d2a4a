//! `sst-server` — a concurrent, dependency-free `std::net` HTTP/1.1
//! service exposing the SOQA-SimPack Toolkit over the wire.
//!
//! Overload and failure policy, in one place:
//!
//! - **Fixed worker pool.** `workers` threads handle requests; the accept
//!   loop never does toolkit work. All threads live inside one
//!   [`std::thread::scope`], so nothing outlives [`Server::run`] and every
//!   panic surfaces as an error instead of a silent dead worker.
//! - **Bounded queue, shed on overflow.** Accepted connections go through
//!   a [`queue::BoundedQueue`] of fixed capacity. When it is full the
//!   accept loop answers `429 Too Many Requests` with a `Retry-After`
//!   hint immediately — the server never queues unboundedly and never
//!   makes a client wait to be told "later". It then drains the unread
//!   request, bounded in bytes and time, so the client reads the whole
//!   429 instead of a connection reset.
//! - **Per-request deadline.** Each connection gets OS read/write
//!   timeouts (`request_deadline`); a slow or stalled client gets `408`
//!   and the worker moves on. CPU-bound work is governed separately: the
//!   SOQA-QL endpoint evaluates under an [`sst_limits::Limits`] step/item
//!   budget, so a pathological query fails with `422` instead of pinning
//!   a worker past the deadline.
//! - **Graceful shutdown.** [`ShutdownHandle::shutdown`] stops the accept
//!   loop and closes the queue; workers drain every already-accepted
//!   request before exiting, so an accepted request is always answered.
//!
//! Similarity endpoints run through the sharded, capacity-bounded LRU of
//! [`sst_core::CachedSimilarity`]; each corpus in the [`Corpora`]
//! registry owns its own cache (capacity set on the registry).
//!
//! The server serves a [`Corpora`] registry of named corpora; the
//! `ontology` query parameter routes a request to a corpus (see
//! [`router`] module docs), and [`Corpora::insert`] hot-swaps a live
//! corpus with zero downtime.

#![forbid(unsafe_code)]

pub mod http;
pub mod json;
pub mod queue;
pub mod router;
pub mod tenancy;

use std::fmt;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sst_limits::Limits;

pub use tenancy::{Corpora, Tenant};

use http::{
    read_request, write_response, ReadOutcome, BAD_REQUEST, PAYLOAD_TOO_LARGE, REQUEST_TIMEOUT,
    TOO_MANY_REQUESTS,
};
use queue::BoundedQueue;
use router::Router;

/// Tuning knobs for a [`Server`]. `Default` is sized for tests and small
/// deployments; production callers should set every field deliberately.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests (clamped to at least one).
    pub workers: usize,
    /// Accepted connections waiting for a worker; overflow is shed
    /// with `429` (clamped to at least one).
    pub queue_capacity: usize,
    /// Per-request read/write timeout; a stalled peer gets `408`.
    pub request_deadline: Duration,
    /// Value of the `Retry-After` header on shed (`429`) responses.
    pub retry_after_secs: u32,
    /// Cap on a request body (`413` beyond it).
    pub max_request_bytes: usize,
    /// Evaluation budget for `POST /ql` queries (`422` when blown).
    pub ql_limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            request_deadline: Duration::from_secs(2),
            retry_after_secs: 1,
            max_request_bytes: 64 * 1024,
            ql_limits: Limits::default(),
        }
    }
}

/// Failures starting or running a [`Server`].
#[derive(Debug)]
pub enum ServerError {
    /// Binding or accepting failed at the socket layer.
    Io(io::Error),
    /// A worker thread panicked; the server shut down.
    Worker(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::Worker(m) => write!(f, "server worker failed: {m}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Worker(_) => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

/// Stops a running [`Server`] from another thread.
///
/// Cloneable and cheap; calling [`ShutdownHandle::shutdown`] more than
/// once is harmless.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown: the accept loop stops taking new connections,
    /// the queue closes, and workers drain in-flight requests.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking `accept` by dialing it; the loop re-checks the
        // flag before serving. A failed dial means the listener is already
        // gone, which is exactly what we wanted.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
    }
}

/// The query service (see module docs for the overload policy).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener. The server does not serve until [`Server::run`].
    pub fn bind(config: ServerConfig) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Serves the given corpus registry until [`ShutdownHandle::shutdown`]
    /// is called, blocking the calling thread. Worker threads are scoped
    /// to this call: when it returns, every accepted request has been
    /// answered and every thread joined.
    ///
    /// The registry stays shared with the caller, who may
    /// [`Corpora::insert`] replacement corpora while the server runs —
    /// in-flight requests finish on the corpus they resolved.
    pub fn run(&self, corpora: &Corpora) -> Result<(), ServerError> {
        let config = &self.config;
        let router = Router::new(corpora, config.ql_limits, Arc::clone(&self.stop));
        let work: BoundedQueue<TcpStream> = BoundedQueue::new(config.queue_capacity);
        let metrics = corpora.metrics();
        let accepted = metrics.counter("server.accepted");
        let shed = metrics.counter("server.shed");
        let deadline_hits = metrics.counter("server.deadline_hits");
        let write_failures = metrics.counter("server.http.write_failures");
        let workers = config.workers.max(1);
        let retry_after = format!("{}", config.retry_after_secs);

        let mut worker_failure: Option<String> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let work = &work;
                let router = &router;
                let deadline_hits = &deadline_hits;
                let write_failures = &write_failures;
                handles.push(scope.spawn(move || {
                    while let Some(mut stream) = work.pop() {
                        serve_connection(
                            &mut stream,
                            router,
                            config.max_request_bytes,
                            deadline_hits,
                            write_failures,
                        );
                    }
                }));
            }

            loop {
                let (stream, _) = match self.listener.accept() {
                    Ok(pair) => pair,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        if self.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // Transient accept failure (EMFILE, aborted
                        // handshake); yield briefly instead of spinning.
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                };
                if self.stop.load(Ordering::SeqCst) {
                    // The shutdown wake-up connection (or a straggler that
                    // raced it); drop without a response.
                    break;
                }
                accepted.inc();
                // The OS timeouts are the request deadline; a connection we
                // cannot configure cannot be governed, so drop it.
                if stream
                    .set_read_timeout(Some(config.request_deadline))
                    .is_err()
                    || stream
                        .set_write_timeout(Some(config.request_deadline))
                        .is_err()
                {
                    continue;
                }
                if let Err(mut rejected) = work.try_push(stream) {
                    shed.inc();
                    if shed_connection(&mut rejected, &retry_after).is_err() {
                        write_failures.inc();
                    }
                }
            }

            // Drain: workers finish everything already accepted, then stop.
            work.close();
            for handle in handles {
                if handle.join().is_err() && worker_failure.is_none() {
                    worker_failure = Some("worker thread panicked".to_owned());
                }
            }
        });

        match worker_failure {
            Some(m) => Err(ServerError::Worker(m)),
            None => Ok(()),
        }
    }
}

/// Time the accept loop spends draining a shed connection's request.
const SHED_DRAIN_TIME: Duration = Duration::from_millis(100);
/// Request bytes the accept loop drains from a shed connection.
const SHED_DRAIN_BYTES: usize = 16 * 1024;

/// Answers a shed connection with `429` and `Retry-After`, half-closes it,
/// and drains the unread request before the socket drops. Closing a socket
/// with unread input makes the kernel send RST, which can destroy the 429
/// before the client reads it. The drain stops at the client's EOF, after
/// [`SHED_DRAIN_BYTES`], or after [`SHED_DRAIN_TIME`], so a silent client
/// cannot hold the accept thread.
fn shed_connection(stream: &mut TcpStream, retry_after: &str) -> io::Result<()> {
    write_response(
        stream,
        TOO_MANY_REQUESTS,
        "application/json",
        b"{\"error\":\"server overloaded, retry later\"}",
        &[("retry-after", retry_after.to_owned())],
    )?;
    stream.shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + SHED_DRAIN_TIME;
    let mut buf = [0u8; 4096];
    let mut drained = 0;
    while drained < SHED_DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => drained += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Timed out or reset: the 429 is already out.
            Err(_) => break,
        }
    }
    Ok(())
}

/// Reads, dispatches, and answers one connection's single request. A
/// response the peer never received (it hung up, or the write deadline
/// fired) is not silent: it counts in `server.http.write_failures`.
fn serve_connection(
    stream: &mut TcpStream,
    router: &Router<'_>,
    max_body_bytes: usize,
    deadline_hits: &sst_obs::Counter,
    write_failures: &sst_obs::Counter,
) {
    let wrote = match read_request(stream, max_body_bytes) {
        ReadOutcome::Ok(request) => {
            let answer = router.handle_timed(&request);
            write_response(
                stream,
                answer.status,
                answer.content_type,
                &answer.body,
                &[],
            )
        }
        ReadOutcome::Closed => Ok(()),
        ReadOutcome::Deadline => {
            deadline_hits.inc();
            write_response(
                stream,
                REQUEST_TIMEOUT,
                "application/json",
                b"{\"error\":\"request deadline exceeded\"}",
                &[],
            )
        }
        ReadOutcome::TooLarge => write_response(
            stream,
            PAYLOAD_TOO_LARGE,
            "application/json",
            b"{\"error\":\"request too large\"}",
            &[],
        ),
        ReadOutcome::Malformed => write_response(
            stream,
            BAD_REQUEST,
            "application/json",
            b"{\"error\":\"malformed HTTP request\"}",
            &[],
        ),
        ReadOutcome::DuplicateParam(key) => write_response(
            stream,
            BAD_REQUEST,
            "application/json",
            format!(
                "{{\"error\":\"duplicate query parameter `{}`\"}}",
                http::json_escape(&key)
            )
            .as_bytes(),
            &[],
        ),
    };
    if wrote.is_err() {
        write_failures.inc();
    }
}
