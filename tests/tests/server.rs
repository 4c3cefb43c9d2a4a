//! Integration tests for the `sst-server` query service: a real listener,
//! real client sockets, multi-threaded traffic.
//!
//! The invariants under test are the server's whole contract:
//! every accepted request is answered (200/4xx — never a hang, never a
//! 5xx under well-formed load), overload is shed with `429 Retry-After`
//! instead of queueing unboundedly, stalled clients hit the deadline
//! (`408`), shutdown drains in-flight work, and the bounded similarity
//! LRU returns bit-identical scores to the uncached toolkit even while
//! evicting under a tiny capacity.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use sst_bench::{load_corpus, names};
use sst_core::{SstToolkit, TreeMode};
use sst_server::{Corpora, Server, ServerConfig};

fn corpus() -> Arc<SstToolkit> {
    Arc::new(load_corpus(TreeMode::SuperThing, false))
}

/// Sends raw bytes, reads until the server closes, returns (status, body).
fn send_raw(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write request");
    read_response(stream)
}

/// Reads a whole response up to the server's EOF; returns (status, body).
/// A reset instead of EOF fails the read.
fn read_response(mut stream: TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    send_raw(
        addr,
        format!("GET {target} HTTP/1.1\r\nhost: test\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    send_raw(
        addr,
        format!(
            "POST {target} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Pulls `"field":<number>` out of a flat JSON body.
fn json_number(body: &str, field: &str) -> f64 {
    let pat = format!("\"{field}\":");
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {field} in {body:?}"))
        + pat.len();
    let rest = &body[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated number in {body:?}"));
    rest[..end].trim().parse().expect("numeric field")
}

/// Reads a named counter out of the `/metrics` text exposition
/// (`  <name padded> <value>` lines under a `counters:` heading).
fn metrics_counter(metrics_body: &str, name: &str) -> Option<u64> {
    metrics_body.lines().find_map(|line| {
        let (n, v) = line.trim_start().split_once(char::is_whitespace)?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

/// Current value of a counter, read straight from the toolkit registry
/// (no HTTP round-trip — usable while all workers are deliberately busy).
fn counter_now(sst: &SstToolkit, name: &str) -> u64 {
    metrics_counter(&sst.metrics().render_text(), name).unwrap_or(0)
}

/// Polls `pred` every 10ms for up to 5s; panics on timeout.
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    for _ in 0..500 {
        if pred() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}

/// Shuts the server down even when an assertion unwinds the test, so a
/// failure panics instead of deadlocking the thread scope on join.
struct StopOnDrop(sst_server::ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[test]
fn endpoints_answer_end_to_end() {
    let sst = corpus();
    let corpora = Corpora::new("default", Arc::clone(&sst));
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        let (status, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        // Self-similarity through the cache: exactly 1 on cosine.
        let target = format!(
            "/similarity?first=Professor&first_ontology={o}&second=Professor&second_ontology={o}",
            o = names::DAML_UNIV
        );
        let (status, body) = get(addr, &target);
        assert_eq!(status, 200, "{body}");
        assert_eq!(json_number(&body, "similarity"), 1.0);

        // Measure by name == measure by id.
        let (s1, b1) = get(addr, &format!("{target}&measure=levenshtein"));
        let (s2, b2) = get(addr, &format!("{target}&measure=4"));
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(
            json_number(&b1, "similarity"),
            json_number(&b2, "similarity")
        );

        let (status, body) = get(
            addr,
            &format!(
                "/rank?concept=Professor&ontology={}&k=3&measure=levenshtein",
                names::DAML_UNIV
            ),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.matches("\"concept\"").count(), 3);

        let (status, body) = post(addr, "/ql", "SELECT name FROM ontology ORDER BY name");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"columns\":[\"name\"]"), "{body}");

        // Error mapping: unknown names 404, missing params 400, bad query
        // 400, unknown endpoint 404, wrong method 405, garbage bytes 400.
        assert_eq!(
            get(
                addr,
                "/similarity?first=Nope&first_ontology=ghost&second=A&second_ontology=ghost"
            )
            .0,
            404
        );
        assert_eq!(get(addr, "/similarity?first=only").0, 400);
        assert_eq!(get(addr, &format!("{target}&measure=9999")).0, 404);
        assert_eq!(post(addr, "/ql", "SELECT nothing FROM nowhere").0, 400);
        assert_eq!(get(addr, "/no-such-endpoint").0, 404);
        assert_eq!(post(addr, "/metrics", "").0, 405);
        assert_eq!(send_raw(addr, b"GARBAGE\r\n\r\n").0, 400);

        // The metrics endpoint exposes the traffic we just generated.
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics_counter(&metrics, "server.requests.healthz") >= Some(1));
        assert!(metrics_counter(&metrics, "server.requests.similarity") >= Some(4));
        assert!(metrics_counter(&metrics, "server.requests.ql") >= Some(1));
        assert!(metrics_counter(&metrics, "core.cache.hits").is_some());

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());
    });
}

#[test]
fn rank_param_audit_and_approx_path() {
    let sst = corpus();
    let corpora = Corpora::new("default", Arc::clone(&sst));
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());
        let base = format!("/rank?concept=Professor&ontology={}", names::DAML_UNIV);

        // Malformed numerics and k=0 are 400 — never a 500 or a hang.
        assert_eq!(get(addr, &format!("{base}&k=0")).0, 400);
        assert_eq!(get(addr, &format!("{base}&k=-3")).0, 400);
        assert_eq!(get(addr, &format!("{base}&k=abc")).0, 400);
        assert_eq!(get(addr, &format!("{base}&k=1.5")).0, 400);
        assert_eq!(get(addr, &format!("{base}&k=99999999999999999999")).0, 400);

        // k beyond the corpus truncates to the full concept set (200).
        let n = sst.tree().all_concepts().len();
        let (status, body) = get(addr, &format!("{base}&k=100000"));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.matches("\"concept\"").count(), n);

        // approx accepts only true/1/false/0.
        assert_eq!(get(addr, &format!("{base}&k=3&approx=yes")).0, 400);
        assert_eq!(get(addr, &format!("{base}&k=3&approx=")).0, 400);
        assert_eq!(get(addr, &format!("{base}&k=3&approx=0")).0, 200);
        assert_eq!(get(addr, &format!("{base}&k=3&approx=1")).0, 200);

        // approx serves only the dense_vector measure: combining it with
        // any other measure is a 400, naming it explicitly is fine.
        assert_eq!(
            get(addr, &format!("{base}&k=3&approx=true&measure=levenshtein")).0,
            400
        );
        let (status, body) = get(
            addr,
            &format!("{base}&k=3&approx=true&measure=dense_vector"),
        );
        assert_eq!(status, 200, "{body}");

        // The approximate path returns the query itself at rank 0 with
        // similarity 1, and unknown names still 404.
        let (status, body) = get(addr, &format!("{base}&k=5&approx=true"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"concept\":\"Professor\""), "{body}");
        assert_eq!(json_number(&body, "similarity"), 1.0);
        assert_eq!(
            get(addr, "/rank?concept=Nope&ontology=ghost&k=3&approx=true").0,
            404
        );

        // The approx path records its own counter next to the endpoint's.
        let metrics = get(addr, "/metrics").1;
        let approx_requests = metrics_counter(&metrics, "server.rank.approx.requests").unwrap_or(0);
        assert!(approx_requests >= 3, "approx counter: {approx_requests}");
        assert!(metrics_counter(&metrics, "core.vector.approx.queries") >= Some(3));

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());
    });
}

#[test]
fn concurrent_mixed_traffic_never_hangs_or_500s() {
    let sst = corpus();
    let corpora = Corpora::new("default", Arc::clone(&sst));
    let server = Server::bind(ServerConfig {
        workers: 4,
        queue_capacity: 32,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 30;

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        let client_threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut statuses = Vec::with_capacity(ROUNDS);
                    for r in 0..ROUNDS {
                        let (status, _) = match (c + r) % 4 {
                            0 => get(addr, "/healthz"),
                            1 => get(
                                addr,
                                &format!(
                                    "/similarity?first=Professor&first_ontology={o}\
                                     &second=EMPLOYEE&second_ontology={c}&measure=levenshtein",
                                    o = names::DAML_UNIV,
                                    c = names::COURSES
                                ),
                            ),
                            2 => get(
                                addr,
                                &format!(
                                    "/rank?concept=Professor&ontology={}&k=2&measure=levenshtein",
                                    names::DAML_UNIV
                                ),
                            ),
                            _ => post(addr, "/ql", "SELECT name FROM ontology"),
                        };
                        statuses.push(status);
                    }
                    statuses
                })
            })
            .collect();

        let mut ok = 0u32;
        let mut shed = 0u32;
        for t in client_threads {
            for status in t.join().expect("client thread") {
                match status {
                    200 => ok += 1,
                    429 => shed += 1,
                    other => panic!(
                        "unexpected status {other}: only 200/429 allowed under well-formed load"
                    ),
                }
            }
        }
        assert_eq!(ok as usize + shed as usize, CLIENTS * ROUNDS);
        assert!(ok > 0, "at least some traffic must get through");

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());

        // Shed accounting matches what clients observed.
        assert_eq!(
            metrics_counter(&sst.metrics().render_text(), "server.shed"),
            Some(u64::from(shed))
        );
    });
}

#[test]
fn overload_sheds_with_429_and_drains_on_shutdown() {
    let sst = corpus();
    let corpora = Corpora::new("default", Arc::clone(&sst));
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        request_deadline: Duration::from_millis(1500),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        // Stall the only worker: connect but send nothing, forcing the
        // worker to block on the read until the deadline fires. Sequence
        // on the accept counter instead of guessing with sleeps.
        let mut stalled = TcpStream::connect(addr).expect("connect stall");
        stalled
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        wait_until("stall accepted", || {
            counter_now(&sst, "server.accepted") >= 1
        });
        // The idle worker pops it within a scheduler tick.
        std::thread::sleep(Duration::from_millis(200));

        // Queued behind the stalled request (queue capacity 1)…
        let queued = scope.spawn(|| get(addr, "/healthz"));
        wait_until("healthz accepted", || {
            counter_now(&sst, "server.accepted") >= 2
        });

        // …so further traffic overflows the queue and is shed immediately.
        let mut saw_429 = false;
        for _ in 0..5 {
            let mut stream = TcpStream::connect(addr).expect("connect shed");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                .expect("write");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            if response.starts_with("HTTP/1.1 429") {
                assert!(
                    response.to_ascii_lowercase().contains("retry-after:"),
                    "429 must carry Retry-After: {response:?}"
                );
                saw_429 = true;
            }
        }
        assert!(saw_429, "full queue must shed with 429");

        // Shutdown *now*, while one request is queued: the drain guarantee
        // says it still gets answered — and because shutdown has been
        // requested by the time the worker reaches it, `/healthz` reports
        // the replica as draining with 503 so a balancer stops sending
        // traffic here.
        handle.shutdown();
        assert_eq!(queued.join().expect("queued client").0, 503);

        // The stalled connection was answered with 408 at the deadline.
        let mut stall_response = String::new();
        stalled
            .read_to_string(&mut stall_response)
            .expect("read stall");
        assert!(
            stall_response.starts_with("HTTP/1.1 408"),
            "stalled client gets 408, got {stall_response:?}"
        );

        assert!(running.join().expect("run thread").is_ok());
        let metrics = sst.metrics().render_text();
        assert!(metrics_counter(&metrics, "server.shed") >= Some(1));
        assert!(metrics_counter(&metrics, "server.deadline_hits") >= Some(1));
    });
}

/// Every shed client must read the complete `429` with `Retry-After` and
/// then a clean EOF. Closing a shed socket with the request still unread
/// makes the kernel answer with RST, which can destroy the 429 before the
/// client reads it (`ConnectionReset`); one shed in a row is not enough to
/// catch that, so this sheds many.
#[test]
fn shed_clients_read_a_complete_429_then_eof() {
    let sst = corpus();
    let corpora = Corpora::new("default", Arc::clone(&sst));
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        request_deadline: Duration::from_secs(20),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let body = "{\"error\":\"server overloaded, retry later\"}";

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        // Two silent clients: one holds the only worker, one fills the
        // queue, so every further connection is shed.
        let stalled = TcpStream::connect(addr).expect("connect stall");
        wait_until("stall accepted", || {
            counter_now(&sst, "server.accepted") >= 1
        });
        std::thread::sleep(Duration::from_millis(200));
        let queued = TcpStream::connect(addr).expect("connect queued");
        wait_until("queued accepted", || {
            counter_now(&sst, "server.accepted") >= 2
        });

        for i in 0..60 {
            let mut stream = TcpStream::connect(addr).expect("connect shed");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                .expect("write");
            let mut response = String::new();
            stream
                .read_to_string(&mut response)
                .unwrap_or_else(|e| panic!("shed client {i}: {e}"));
            assert!(
                response.starts_with("HTTP/1.1 429"),
                "shed client {i}: {response:?}"
            );
            assert!(
                response.to_ascii_lowercase().contains("retry-after: 1\r\n"),
                "shed client {i} needs Retry-After: {response:?}"
            );
            assert!(response.ends_with(body), "shed client {i}: {response:?}");
        }
        assert!(counter_now(&sst, "server.shed") >= 60);

        // Hanging up frees the worker; both silent clients count as closed.
        drop(stalled);
        drop(queued);
        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());
    });
}

/// Body framing the service cannot trust is refused, never misread: a
/// `Transfer-Encoding` request gets 501 instead of being read as bodiless,
/// and `Content-Length` values that differ get 400 in either order,
/// instead of the last header cutting or stretching the body. Each answer
/// arrives whole and then EOF although the request body is unread; one
/// length repeated at an equal value is still valid framing.
#[test]
fn untrusted_body_framing_is_refused_with_a_complete_answer() {
    let sst = corpus();
    let corpora = Corpora::new("default", Arc::clone(&sst));
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let body = format!(
        "{{\"source\":\"{}\",\"target\":\"{}\"}}",
        names::COURSES,
        names::UNIV_BENCH
    );
    let framed = |lengths: [usize; 2]| {
        format!(
            "POST /align HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\
             content-length: {}\r\n\r\n{body}",
            lengths[0], lengths[1]
        )
    };

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        // Chunked, in two writes: the head, then (once the whole answer
        // and EOF have arrived) the body, which the server then drains.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /align HTTP/1.1\r\nhost: test\r\ntransfer-encoding: chunked\r\n\r\n")
            .expect("write head");
        let chunked = format!("{:x}\r\n{body}\r\n0\r\n\r\n", body.len());
        let unread = stream.try_clone().expect("clone stream");
        let (status, answer) = read_response(stream);
        assert_eq!(
            (status, answer.as_str()),
            (501, "{\"error\":\"transfer codings are not implemented\"}")
        );
        // The server may already have stopped draining; the answer is in.
        let _ = (&unread).write_all(chunked.as_bytes());

        for lengths in [[body.len(), 5], [5, body.len()]] {
            let (status, answer) = send_raw(addr, framed(lengths).as_bytes());
            assert_eq!(
                (status, answer.as_str()),
                (400, "{\"error\":\"conflicting content-length headers\"}"),
                "content-length {lengths:?}"
            );
        }
        let (status, answer) = send_raw(addr, framed([body.len(), body.len()]).as_bytes());
        assert_eq!(status, 200, "{answer}");

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());
    });
}

/// A request body over `max_request_bytes` is answered `413`, and the
/// body is drained up to its declared length before the socket drops, so
/// every client reads the whole answer and then EOF. Closing with the
/// body unread makes the kernel reset the connection, which can destroy
/// the 413 before the client reads it. A client that declares far more
/// than it sends and then stalls is let go after the bounded drain: the
/// server's only worker answers the next request within a second.
#[test]
fn oversized_bodies_read_a_complete_413_then_eof() {
    let corpora = Corpora::new("default", small_toolkit("tiny", "Other"));
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let oversized = 100 * 1000;
    assert!(oversized > ServerConfig::default().max_request_bytes);

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        let clients: Vec<_> = (0..20)
            .map(|i| {
                scope.spawn(move || {
                    let mut request = format!(
                        "POST /ql HTTP/1.1\r\nhost: test\r\ncontent-length: {oversized}\r\n\r\n"
                    )
                    .into_bytes();
                    request.resize(request.len() + oversized, b'x');
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .write_all(&request)
                        .unwrap_or_else(|e| panic!("client {i}: write: {e}"));
                    read_response(stream)
                })
            })
            .collect();
        for (i, client) in clients.into_iter().enumerate() {
            let (status, body) = client.join().expect("client thread");
            assert_eq!(
                (status, body.as_str()),
                (413, "{\"error\":\"request too large\"}"),
                "client {i}"
            );
        }

        // Declares 1 GB, sends 1 MB, then stalls with the socket open.
        let mut staller = TcpStream::connect(addr).expect("connect staller");
        let mut request =
            b"POST /ql HTTP/1.1\r\nhost: test\r\ncontent-length: 1000000000\r\n\r\n".to_vec();
        request.resize(request.len() + 1_000_000, b'x');
        // The drain may stop before the last bytes arrive; the server then
        // resets a connection it has already answered.
        let _ = staller.write_all(&request);
        let start = std::time::Instant::now();
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        let waited = start.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "the stalled upload held the only worker for {waited:?}"
        );
        // The server hung up on the staller: its read ends (EOF, or a
        // reset) instead of timing out.
        staller
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let mut answer = Vec::new();
        if let Err(e) = staller.read_to_end(&mut answer) {
            assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}");
        }

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());
    });
}

/// Under `TreeMode::MergedThing` an ontology root shares the root node and
/// has no vector-store row: the approximate ranking of it is a client
/// error (400), never a 500, while the exact ranking still serves it.
#[test]
fn approx_rank_of_a_merged_root_is_a_bad_request() {
    let sst = Arc::new(load_corpus(TreeMode::MergedThing, false));
    let corpora = Corpora::new("default", Arc::clone(&sst));
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());
        let base = format!("/rank?concept=Thing&ontology={}&k=3", names::DAML_UNIV);

        let (status, body) = get(addr, &format!("{base}&approx=true"));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("base1_0_daml:Thing"), "{body}");
        let (status, body) = get(addr, &format!("{base}&measure=dense_vector"));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.matches("\"concept\"").count(), 3);

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());
        let metrics = sst.metrics().render_text();
        assert_eq!(metrics_counter(&metrics, "server.responses.5xx"), Some(0));
    });
}

#[test]
fn tiny_lru_stays_bounded_and_bit_identical_under_concurrency() {
    let sst = corpus();
    // Cache capacity far below the working set: constant eviction.
    let corpora = Corpora::with_cache_capacity("default", Arc::clone(&sst), 2);
    let server = Server::bind(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    let pairs = [
        ("Professor", names::DAML_UNIV),
        ("EMPLOYEE", names::COURSES),
        ("Human", names::SUMO),
        ("Mammal", names::SUMO),
        ("AssistantProfessor", names::UNIV_BENCH),
    ];
    // Ground truth straight from the uncached toolkit.
    let expected: Vec<f64> = pairs
        .iter()
        .map(|&(c, o)| {
            sst.get_similarity("Professor", names::DAML_UNIV, c, o, 4)
                .expect("uncached score")
        })
        .collect();

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        let clients: Vec<_> = (0..4)
            .map(|c| {
                let pairs = &pairs;
                let expected = &expected;
                scope.spawn(move || {
                    for r in 0..25 {
                        let (i, &(concept, ontology)) = {
                            let i = (c + r) % pairs.len();
                            (i, &pairs[i])
                        };
                        let (status, body) = get(
                            addr,
                            &format!(
                                "/similarity?first=Professor&first_ontology={}\
                                 &second={concept}&second_ontology={ontology}&measure=4",
                                names::DAML_UNIV
                            ),
                        );
                        if status == 429 {
                            continue; // shed is legal; wrong bits are not
                        }
                        assert_eq!(status, 200, "{body}");
                        let got = json_number(&body, "similarity");
                        assert_eq!(
                            got.to_bits(),
                            expected[i].to_bits(),
                            "cached score for {concept} must be bit-identical to uncached"
                        );
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client");
        }

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());

        // The tiny cache must actually have evicted while staying correct.
        let metrics = sst.metrics().render_text();
        assert!(
            metrics_counter(&metrics, "core.cache.evictions") > Some(0),
            "capacity 2 under a 5-pair working set must evict"
        );
    });
}

/// A minimal corpus whose ontology is `ontology` and whose concepts are
/// `Thing ← {Stable, <extra>}`; `Stable` exists in every generation, so
/// traffic survives hot swaps that change `<extra>`.
fn small_toolkit(ontology: &str, extra: &str) -> Arc<sst_core::SstToolkit> {
    use sst_soqa::{OntologyBuilder, OntologyMetadata};
    let mut b = OntologyBuilder::new(OntologyMetadata {
        name: ontology.to_owned(),
        ..OntologyMetadata::default()
    });
    let thing = b.concept("Thing");
    let stable = b.concept("Stable");
    let other = b.concept(extra);
    b.add_subclass(stable, thing);
    b.add_subclass(other, thing);
    Arc::new(
        sst_core::SstBuilder::new()
            .register_ontology(b.build())
            .expect("register")
            .build(),
    )
}

#[test]
fn tenancy_routes_by_corpus_name() {
    let sst = corpus();
    let corpora = Corpora::new("default", Arc::clone(&sst));
    corpora.insert("zoo", small_toolkit("zoo_onto", "Cat"));
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        // Default corpus answers exactly as before (no selector).
        let default_target = format!(
            "/similarity?first=Professor&first_ontology={o}&second=Professor&second_ontology={o}",
            o = names::DAML_UNIV
        );
        assert_eq!(get(addr, &default_target).0, 200);

        // The named corpus resolves its own concepts…
        let zoo_target = "/similarity?first=Stable&first_ontology=zoo_onto\
             &second=Cat&second_ontology=zoo_onto&ontology=zoo";
        let (status, body) = get(addr, zoo_target);
        assert_eq!(status, 200, "{body}");
        // …and does NOT know the default corpus's concepts (isolation).
        assert_eq!(get(addr, &format!("{default_target}&ontology=zoo")).0, 404);

        // An unknown corpus name is 404 on every selector endpoint.
        assert_eq!(
            get(addr, &format!("{default_target}&ontology=ghost")).0,
            404
        );
        let (status, body) = post(addr, "/ql?ontology=ghost", "SELECT name FROM ontology");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("unknown corpus"), "{body}");

        // /ql routed to the named corpus sees only that corpus.
        let (status, body) = post(
            addr,
            "/ql?ontology=zoo",
            "SELECT name FROM ontology ORDER BY name",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("zoo_onto"), "{body}");
        assert!(!body.contains(names::DAML_UNIV), "{body}");

        // /rank: a corpus name routes there; a plain ontology name still
        // serves from the default corpus (compatibility).
        let (status, body) = get(addr, "/rank?concept=Stable&ontology=zoo&k=2");
        // `zoo` the corpus is addressed, but the in-corpus ontology is
        // `zoo_onto`, so concept resolution inside it is what decides.
        assert_eq!(status, 404, "{body}");
        let (status, body) = get(
            addr,
            &format!("/rank?concept=Professor&ontology={}&k=2", names::DAML_UNIV),
        );
        assert_eq!(status, 200, "{body}");

        // Duplicate corpus selectors can never route ambiguously: 400
        // end-to-end, naming the key.
        let (status, body) = get(addr, &format!("{default_target}&ontology=a&ontology=b"));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("duplicate query parameter"), "{body}");
        assert!(body.contains("ontology"), "{body}");

        // Tenancy accounting made it to the exposition.
        let metrics = get(addr, "/metrics").1;
        assert!(metrics_counter(&metrics, "server.tenant.named") >= Some(3));
        assert!(metrics_counter(&metrics, "server.tenant.unknown") >= Some(2));
        assert!(metrics_counter(&metrics, "server.tenant.default") >= Some(1));
        assert!(metrics.contains("server.tenant.corpora"), "{metrics}");

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());
    });
}

#[test]
fn hot_swap_under_concurrent_traffic_serves_only_200s() {
    let sst = corpus();
    let corpora = Corpora::new("default", Arc::clone(&sst));
    corpora.insert("live", small_toolkit("live_onto", "GenesisConcept"));
    let server = Server::bind(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    const CLIENTS: usize = 3;
    const ROUNDS: usize = 25;
    const SWAPS: usize = 10;

    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(&corpora));
        let _stop = StopOnDrop(handle.clone());

        // Clients hammer a concept that exists in every generation while
        // the corpus is swapped out from under them.
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut statuses = Vec::with_capacity(ROUNDS);
                    for _ in 0..ROUNDS {
                        let (status, _) = get(
                            addr,
                            "/similarity?first=Stable&first_ontology=live_onto\
                             &second=Thing&second_ontology=live_onto&ontology=live",
                        );
                        statuses.push(status);
                    }
                    statuses
                })
            })
            .collect();

        for generation in 0..SWAPS {
            assert!(corpora.insert(
                "live",
                small_toolkit("live_onto", &format!("Generation{generation}"))
            ));
            std::thread::sleep(Duration::from_millis(5));
        }

        for client in clients {
            for status in client.join().expect("client thread") {
                assert_eq!(status, 200, "hot swap must be invisible: every request 200");
            }
        }

        handle.shutdown();
        assert!(running.join().expect("run thread").is_ok());

        let metrics = sst.metrics().render_text();
        assert!(metrics_counter(&metrics, "server.tenant.swaps") >= Some(SWAPS as u64));
    });
}
