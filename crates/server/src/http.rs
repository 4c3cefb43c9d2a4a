//! Minimal, dependency-free HTTP/1.1 framing for the query service.
//!
//! Only what the service needs: request-line + header parsing with hard
//! size caps, `Content-Length` bodies, query-string decoding, and
//! `Connection: close` responses with explicit `Content-Length`. No
//! transfer coding is implemented, so a request framed by
//! `Transfer-Encoding` is refused, never read as bodiless. Every
//! connection carries exactly one request — keep-alive is deliberately
//! not offered so the per-request read/write timeouts double as a whole
//! connection deadline and a slow client can never pin a worker across
//! requests.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers) in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Decoded path without the query string, e.g. `/similarity`.
    pub path: String,
    /// Decoded query parameters. Each key appears at most once: a target
    /// repeating a key (`?ontology=a&ontology=b`) is rejected with `400`
    /// while reading (see [`ReadOutcome::DuplicateParam`]) — with
    /// `?ontology=` doubling as the corpus selector, a silently
    /// last-wins duplicate could route a request ambiguously.
    pub query: HashMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// The query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// The body as UTF-8 (lossy; SOQA-QL is ASCII-heavy anyway).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Ok(Request),
    /// The peer closed before sending anything; nothing to answer.
    Closed,
    /// The read timed out — the per-request deadline fired (HTTP 408).
    Deadline,
    /// The head or body exceeded its size cap (HTTP 413). `body_left` is
    /// the declared body's unread length when `Content-Length` exceeded
    /// the cap; `None` when the head did, and the framing is unknown.
    TooLarge { body_left: Option<usize> },
    /// The bytes did not parse as HTTP (HTTP 400).
    Malformed,
    /// The query string repeated the named key (HTTP 400); accepting
    /// either occurrence would make routing ambiguous.
    DuplicateParam(String),
    /// The request carries `Transfer-Encoding` (HTTP 501, RFC 9112 §6.1:
    /// the service implements no transfer coding). Its body is unread.
    TransferEncoding,
    /// The request repeats `Content-Length` with differing values
    /// (HTTP 400, RFC 9112 §6.3: invalid framing). Its body is unread.
    ConflictingLength,
}

/// Reads one request from `stream`, honoring its configured read timeout
/// and the `max_body_bytes` cap.
pub fn read_request(stream: &mut TcpStream, max_body_bytes: usize) -> ReadOutcome {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Read until the blank line ending the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return ReadOutcome::TooLarge { body_left: None };
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed
                };
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e) if is_timeout(&e) => return ReadOutcome::Deadline,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Closed,
        }
    };

    let head = String::from_utf8_lossy(buf.get(..head_end).unwrap_or(&[])).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return ReadOutcome::Malformed,
    };
    if !version.starts_with("HTTP/1.") {
        return ReadOutcome::Malformed;
    }

    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return ReadOutcome::TransferEncoding;
        }
        if name.eq_ignore_ascii_case("content-length") {
            match (value.trim().parse::<usize>(), content_length) {
                (Err(_), _) => return ReadOutcome::Malformed,
                (Ok(n), Some(seen)) if n != seen => return ReadOutcome::ConflictingLength,
                (Ok(n), _) => content_length = Some(n),
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    // Body: whatever followed the head in the buffer, then the rest.
    let body_start = head_end.saturating_add(4); // past "\r\n\r\n"
    let buffered = buf.get(body_start..).unwrap_or(&[]);
    if content_length > max_body_bytes {
        return ReadOutcome::TooLarge {
            body_left: Some(content_length.saturating_sub(buffered.len())),
        };
    }
    let mut body: Vec<u8> = buffered.to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Malformed,
            Ok(n) => body.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e) if is_timeout(&e) => return ReadOutcome::Deadline,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Closed,
        }
    }
    body.truncate(content_length);

    let (path, query) = match split_target(target) {
        Ok(parsed) => parsed,
        Err(key) => return ReadOutcome::DuplicateParam(key),
    };
    ReadOutcome::Ok(Request {
        method: method.to_owned(),
        path,
        query,
        body,
    })
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Position of the `\r\n\r\n` terminating the request head.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a request target into the decoded path and query parameters.
/// A repeated (decoded) key is an error carrying the key name: the old
/// silent last-wins `HashMap::insert` let `?ontology=a&ontology=b` route
/// to whichever value happened to come last.
fn split_target(target: &str) -> Result<(String, HashMap<String, String>), String> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = HashMap::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let key = percent_decode(k);
        if query.insert(key.clone(), percent_decode(v)).is_some() {
            return Err(key);
        }
    }
    Ok((percent_decode_path(raw_path), query))
}

/// Decodes `%XX` escapes only — for request *paths*, where `+` is an
/// ordinary character. The `+`-as-space convention is a form-encoding rule
/// that applies to query strings alone; decoding it in the path corrupted
/// any route segment containing a literal `+`.
pub fn percent_decode_path(s: &str) -> String {
    decode_bytes(s, false)
}

/// Decodes `%XX` escapes and `+`-as-space (query keys and values).
pub fn percent_decode(s: &str) -> String {
    decode_bytes(s, true)
}

fn decode_bytes(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes.get(i) {
            Some(b'+') if plus_is_space => {
                out.push(b' ');
                i = i.saturating_add(1);
            }
            Some(b'%') => {
                let hi = bytes.get(i.saturating_add(1)).and_then(hex_val);
                let lo = bytes.get(i.saturating_add(2)).and_then(hex_val);
                match (hi, lo) {
                    (Some(h), Some(l)) => {
                        out.push(h * 16 + l);
                        i = i.saturating_add(3);
                    }
                    _ => {
                        out.push(b'%');
                        i = i.saturating_add(1);
                    }
                }
            }
            Some(&b) => {
                out.push(b);
                i = i.saturating_add(1);
            }
            None => break,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: &u8) -> Option<u8> {
    (*b as char).to_digit(16).map(|d| d as u8)
}

/// An HTTP status line the service emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16, pub &'static str);

pub const OK: Status = Status(200, "OK");
pub const BAD_REQUEST: Status = Status(400, "Bad Request");
pub const NOT_FOUND: Status = Status(404, "Not Found");
pub const METHOD_NOT_ALLOWED: Status = Status(405, "Method Not Allowed");
pub const REQUEST_TIMEOUT: Status = Status(408, "Request Timeout");
pub const PAYLOAD_TOO_LARGE: Status = Status(413, "Payload Too Large");
pub const UNPROCESSABLE: Status = Status(422, "Unprocessable Content");
pub const TOO_MANY_REQUESTS: Status = Status(429, "Too Many Requests");
pub const INTERNAL_ERROR: Status = Status(500, "Internal Server Error");
pub const NOT_IMPLEMENTED: Status = Status(501, "Not Implemented");
pub const SERVICE_UNAVAILABLE: Status = Status(503, "Service Unavailable");

/// Writes a complete `Connection: close` response. Write errors are
/// returned for accounting but the connection is torn down either way.
pub fn write_response(
    stream: &mut TcpStream,
    status: Status,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        status.0,
        status.1,
        content_type,
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_splits_and_decodes() {
        let (path, query) = split_target("/similarity?first=Domestic%20Cat&k=5&q=a+b").unwrap();
        assert_eq!(path, "/similarity");
        assert_eq!(query.get("first").map(String::as_str), Some("Domestic Cat"));
        assert_eq!(query.get("k").map(String::as_str), Some("5"));
        assert_eq!(query.get("q").map(String::as_str), Some("a b"));
    }

    /// Satellite pin: a repeated query key must be rejected, not silently
    /// last-win — `?ontology=a&ontology=b` cannot route ambiguously.
    #[test]
    fn duplicate_query_keys_are_rejected() {
        assert_eq!(
            split_target("/rank?ontology=a&ontology=b"),
            Err("ontology".to_owned())
        );
        // Duplicates hidden behind percent-encoding are still duplicates.
        assert_eq!(
            split_target("/rank?ontology=a&onto%6Cogy=b"),
            Err("ontology".to_owned())
        );
        // A repeated key with identical values is just as ambiguous about
        // intent; reject uniformly.
        assert_eq!(split_target("/rank?k=5&k=5"), Err("k".to_owned()));
        // Distinct keys still pass.
        assert!(split_target("/rank?ontology=a&concept=b").is_ok());
    }

    #[test]
    fn percent_decode_handles_malformed_escapes() {
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn plus_survives_in_paths_but_is_space_in_queries() {
        // Regression: the path decoder used to apply the `+`-as-space
        // form-encoding rule, corrupting path segments with a literal `+`.
        let (path, query) = split_target("/c%2B%2B+notes?q=a+b&x=1%2B2").unwrap();
        assert_eq!(path, "/c+++notes");
        assert_eq!(query.get("q").map(String::as_str), Some("a b"));
        assert_eq!(query.get("x").map(String::as_str), Some("1+2"));
        assert_eq!(percent_decode_path("a+b%20c"), "a+b c");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
    }

    /// Response bodies are written through the core export writers.
    #[test]
    fn json_escaping() {
        use sst_core::export::{json_number, json_string};
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(0.5), "0.5");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"partial"), None);
    }
}
