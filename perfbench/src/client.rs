//! An HTTP/1.1 load generator: responses framed by `content-length`,
//! connections reused unless the server answers `connection: close`, and
//! requests issued open loop from a fixed schedule or closed loop back to
//! back.
//!
//! The generator never sleeps and never blocks on a socket: it waits for
//! a due time and for response bytes by polling. On a shared virtual
//! machine a virtual CPU that goes idle is descheduled by the host, and
//! waking it again takes microseconds or milliseconds depending on the
//! host's load; polling keeps that wake-up out of sub-millisecond
//! latencies. The generator's threads run under `SCHED_IDLE`, so they use
//! only processor time the server leaves idle: a server thread that wakes
//! preempts them at once, and the kernel's load balancer does not count
//! them when it spreads the server's threads over the cores.
//!
//! When the server closes a connection after its response, the generator
//! ends its side with a reset once the whole response is read. The server
//! closed first, so a normal close would leave its socket in TIME_WAIT
//! for a minute; at thousands of connections a second that table fills to
//! the kernel's cap, and each run's connect and accept cost would depend
//! on what ran in the minute before it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::Failure;

/// A complete response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One client connection slot.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<TcpStream>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> Result<TcpStream, Failure> {
        let stream =
            TcpStream::connect_timeout(&self.addr, self.timeout).map_err(|e| classify(&e))?;
        self.connects += 1;
        let configured = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true));
        configured.map_err(|e| classify(&e))?;
        Ok(stream)
    }

    /// Sends one request and reads its response. A reused connection that
    /// the server closed while idle is reopened once before giving up.
    pub fn send(&mut self, request: &[u8]) -> Result<Response, Failure> {
        let reused = self.conn.is_some();
        match self.exchange(request) {
            Err(Exchange::Stale) if reused => match self.exchange(request) {
                Err(e) => Err(e.failure()),
                Ok(r) => Ok(r),
            },
            Err(e) => Err(e.failure()),
            Ok(r) => Ok(r),
        }
    }

    fn exchange(&mut self, request: &[u8]) -> Result<Response, Exchange> {
        let mut stream = match self.conn.take() {
            Some(s) => s,
            None => self.connect().map_err(Exchange::Failed)?,
        };
        let deadline = Instant::now() + self.timeout;
        if poll_write_all(&mut stream, request, deadline).is_err() {
            return Err(Exchange::Stale);
        }
        let (response, close) = read_response(&mut stream, deadline)?;
        if close {
            reset_on_close(&stream).map_err(|e| Exchange::Failed(classify(&e)))?;
        } else {
            self.conn = Some(stream);
        }
        Ok(response)
    }
}

enum Exchange {
    /// The connection failed before any response byte arrived.
    Stale,
    Failed(Failure),
}

impl Exchange {
    fn failure(self) -> Failure {
        match self {
            Exchange::Stale => Failure::Reset,
            Exchange::Failed(f) => f,
        }
    }
}

fn classify(e: &io::Error) -> Failure {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::Timeout,
        _ => Failure::Reset,
    }
}

/// Reads from a non-blocking stream, polling until bytes, EOF, an error
/// or the deadline arrive.
fn poll_read(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<usize> {
    loop {
        match stream.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                pause();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// Writes all of `data` to a non-blocking stream, polling while its send
/// buffer is full.
fn poll_write_all(stream: &mut TcpStream, mut data: &[u8], deadline: Instant) -> io::Result<()> {
    while !data.is_empty() {
        match stream.write(data) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => data = &data[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                pause();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one response framed by `content-length` (or by EOF when the
/// header is absent); returns it with whether the server closes.
fn read_response(stream: &mut TcpStream, deadline: Instant) -> Result<(Response, bool), Exchange> {
    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        match poll_read(stream, &mut chunk, deadline) {
            Ok(0) if buf.is_empty() => return Err(Exchange::Stale),
            Ok(0) => return Err(Exchange::Failed(Failure::Reset)),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if buf.is_empty() && classify(&e) == Failure::Reset => {
                return Err(Exchange::Stale)
            }
            Err(e) => return Err(Exchange::Failed(classify(&e))),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(Exchange::Failed(Failure::Reset))?;
    let mut length: Option<usize> = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse()
                    .map_err(|_| Exchange::Failed(Failure::Reset))?,
            );
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let mut body = buf.split_off(head_end + 4);
    loop {
        if length.is_some_and(|n| body.len() >= n) {
            break;
        }
        match poll_read(stream, &mut chunk, deadline) {
            Ok(0) if length.is_none() => {
                close = true;
                break;
            }
            Ok(0) => return Err(Exchange::Failed(Failure::Reset)),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(Exchange::Failed(classify(&e))),
        }
    }
    if let Some(n) = length {
        body.truncate(n);
    }
    Ok((Response { status, body }, close))
}

/// One scheduled request: its due time from the phase start and an index
/// into the phase's request table.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due_ns: u64,
    pub req: usize,
}

/// When a phase's requests are sent.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// Open loop: each request at its due time.
    Open(&'a [Planned]),
    /// Closed loop: back to back for `length`, cycling through the
    /// request table from position `from`.
    Closed { length: Duration, from: usize },
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the schedule (open loop) or in sending order (closed).
    pub pos: usize,
    /// Index into the request table.
    pub req: usize,
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Result<(), Failure>,
    /// The response body, kept only for requests picked for checking.
    pub body: Option<Vec<u8>>,
}

impl Sample {
    /// Latency from the due time to the last response byte, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request, in ms.
    pub fn lateness_ms(&self) -> f64 {
        self.start_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Result of one phase.
#[derive(Debug, Default)]
pub struct PhaseRun {
    /// Samples in schedule (or sending) order.
    pub samples: Vec<Sample>,
    pub connects: u64,
    pub wall_s: f64,
}

impl PhaseRun {
    /// Adds a later phase's samples and counts to this one.
    pub fn append(&mut self, later: PhaseRun) {
        self.samples.extend(later.samples);
        self.connects += later.connects;
        self.wall_s += later.wall_s;
    }
}

/// Issues `requests` from `threads` threads, each holding at most one
/// connection. Each thread takes the next request, waits until it is due
/// (open loop), and sends it. In an open loop a request whose threads are
/// all busy is sent late, and its latency counts from its due time; in a
/// closed loop a request is due when its thread sends it. `keep_body`
/// picks, by index into `requests`, the responses whose bodies are kept.
/// Fails only when a thread cannot take the idle scheduling policy.
pub fn run(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    schedule: Schedule<'_>,
    threads: usize,
    timeout: Duration,
    keep_body: &(dyn Fn(usize) -> bool + Sync),
) -> Result<PhaseRun, String> {
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let connects = AtomicUsize::new(0);
    let base = Instant::now();
    let since = |t: Instant| u64::try_from((t - base).as_nanos()).unwrap_or(u64::MAX);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                if let Err(e) = idle_priority() {
                    *failure.lock().expect("a generator thread panicked") = Some(e);
                    return;
                }
                let mut client = Client::new(addr, timeout);
                let mut mine = Vec::new();
                loop {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    let (req, due_ns) = match schedule {
                        Schedule::Open(plan) => {
                            let Some(item) = plan.get(pos) else { break };
                            let due = base + Duration::from_nanos(item.due_ns);
                            while Instant::now() < due {
                                pause();
                            }
                            (item.req, item.due_ns)
                        }
                        Schedule::Closed { length, from } => {
                            let now = Instant::now();
                            if now - base >= length || requests.is_empty() {
                                break;
                            }
                            ((from + pos) % requests.len(), since(now))
                        }
                    };
                    let start = Instant::now();
                    let result = client.send(&requests[req]);
                    let end = Instant::now();
                    let (outcome, body) = match result {
                        Ok(r) if r.status == 200 => (Ok(()), keep_body(req).then_some(r.body)),
                        Ok(r) => (Err(Failure::Status(r.status)), None),
                        Err(f) => (Err(f), None),
                    };
                    mine.push(Sample {
                        pos,
                        req,
                        due_ns,
                        start_ns: since(start),
                        end_ns: since(end),
                        outcome,
                        body,
                    });
                }
                connects.fetch_add(client.connects as usize, Ordering::Relaxed);
                collected
                    .lock()
                    .expect("a generator thread panicked while holding the samples")
                    .extend(mine);
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("a generator thread panicked") {
        return Err(e);
    }
    let mut samples = collected
        .into_inner()
        .expect("a generator thread panicked while holding the samples");
    samples.sort_by_key(|s| s.pos);
    Ok(PhaseRun {
        samples,
        connects: connects.into_inner() as u64,
        wall_s: base.elapsed().as_secs_f64(),
    })
}

/// Waits about a microsecond between polls, without a system call.
fn pause() {
    for _ in 0..32 {
        std::hint::spin_loop();
    }
}

/// Makes dropping `stream` reset the connection instead of closing it
/// (`SO_LINGER` with a zero timeout).
pub fn reset_on_close(stream: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    /// `struct linger` of the C library.
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let len = u32::try_from(std::mem::size_of::<Linger>()).expect("struct linger is 8 bytes");
    // SAFETY: the call reads `len` bytes through the pointer, which points
    // to a live `struct linger` of exactly that size for the whole call;
    // the descriptor belongs to `stream`, which outlives the call.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, &linger, len) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Moves the calling thread to the `SCHED_IDLE` policy.
fn idle_priority() -> Result<(), String> {
    /// `struct sched_param` of the C library.
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: the call only reads one `sched_param` through the pointer,
    // which points to a live value of the C layout for the whole call;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot move a generator thread to SCHED_IDLE: {}",
            io::Error::last_os_error()
        ))
    }
}

/// Renders a GET request.
pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n").into_bytes()
}

/// Renders a POST request with a body.
pub fn post(target: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Percent-encodes a query-string value.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Reads one response from a non-blocking `stream` (the traced replay's
/// client side).
pub fn read_one(stream: &mut TcpStream, timeout: Duration) -> Result<Response, Failure> {
    read_response(stream, Instant::now() + timeout)
        .map(|(r, _)| r)
        .map_err(Exchange::failure)
}
