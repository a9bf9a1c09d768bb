//! A deliberately small HTTP/1.1 layer over `TcpStream`.
//!
//! No async runtime is vendored, and none is needed: a simulation
//! service is bounded by the model, not by connection volume, so
//! blocking I/O with one OS thread per connection is the right tool —
//! the same thread-as-rank philosophy `foam-mpi` uses. This module
//! implements exactly the slice of HTTP/1.1 the job API requires:
//! request-line + headers + `Content-Length` bodies on the way in;
//! fixed-length JSON responses and `Transfer-Encoding: chunked` NDJSON
//! streams on the way out. Every response closes the connection
//! (`Connection: close`), which keeps the state machine trivial and is
//! cheap at job-queue request rates.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use foam_telemetry::json::Value;

/// Upper bound on request bodies (a job spec is a few hundred bytes;
/// a megabyte is paranoia headroom, not a real limit).
const MAX_BODY: usize = 1 << 20;

/// Upper bound on the request line plus headers. The job API's heads
/// are a few hundred bytes; the bound keeps a client that never sends
/// a newline from growing a connection thread's buffer without limit.
const MAX_HEAD: usize = 16 << 10;

/// How long one read of a request may wait for bytes. A client that
/// connects and sends nothing is answered 400 and closed after this
/// long, instead of holding its connection thread forever. It bounds
/// the gap between bytes, not the whole request: a client trickling
/// one byte per gap can hold a thread for up to `MAX_HEAD` (16 KiB) gaps.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed request: method, path (with any `?query` dropped), body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Read and parse one request from the stream. Malformed requests
/// surface as `Err`; the caller answers 400 and closes.
pub fn read_request<R: Read>(stream: R) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD;
    let line = read_head_line(&mut reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err(invalid("malformed request line")),
    };
    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut reader, &mut budget)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(invalid("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let path = target.split('?').next().unwrap_or("").to_string();
    Ok(Request { method, path, body })
}

/// One `\n`-terminated line of the request head, charged to `budget`.
/// A head longer than [`MAX_HEAD`], or one cut off by EOF before its
/// blank line, is `InvalidData`.
fn read_head_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> io::Result<String> {
    let mut line = String::new();
    *budget -= reader.take(*budget as u64).read_line(&mut line)?;
    if !line.ends_with('\n') {
        return Err(invalid(if *budget == 0 {
            "request head too large"
        } else {
            "request head truncated"
        }));
    }
    Ok(line)
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write a complete JSON response and flush. The body bytes are passed
/// through verbatim — important for the result cache, whose contract is
/// *byte-identical* replies.
pub fn respond_bytes(stream: &mut TcpStream, code: u16, body: &[u8]) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Write a JSON value as a pretty-printed response.
pub fn respond_json(stream: &mut TcpStream, code: u16, value: &Value) -> io::Result<()> {
    let mut body = value.to_string_pretty();
    body.push('\n');
    respond_bytes(stream, code, body.as_bytes())
}

/// Write a JSON error envelope: `{"error": "..."}`.
pub fn respond_error(stream: &mut TcpStream, code: u16, message: &str) -> io::Result<()> {
    respond_json(
        stream,
        code,
        &Value::object([("error".to_string(), Value::from(message))]),
    )
}

/// A `Transfer-Encoding: chunked` NDJSON stream: one JSON object per
/// line, each flushed as its own chunk so clients see progress live.
pub struct NdjsonStream<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> NdjsonStream<'a> {
    /// Write the response head and hand back the line writer.
    pub fn begin(stream: &'a mut TcpStream) -> io::Result<Self> {
        stream.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        )?;
        Ok(NdjsonStream { stream })
    }

    /// Send one NDJSON line (without its trailing newline) as a chunk.
    pub fn line(&mut self, line: &str) -> io::Result<()> {
        let payload = format!("{line}\n");
        write!(self.stream, "{:x}\r\n", payload.len())?;
        self.stream.write_all(payload.as_bytes())?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the chunked body.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refusal(raw: &[u8]) -> String {
        let e = read_request(raw).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        e.to_string()
    }

    #[test]
    fn valid_request_parses() {
        let req = read_request(&b"POST /v1/jobs?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"[..])
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn oversized_head_is_refused() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(MAX_HEAD + 1, b'a');
        assert_eq!(refusal(&raw), "request head too large");
        // Many short headers add up the same way.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD {
            raw.extend_from_slice(b"X-Pad: a\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(refusal(&raw), "request head too large");
    }

    #[test]
    fn head_cut_by_eof_is_refused() {
        assert_eq!(
            refusal(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            "request head truncated"
        );
        assert_eq!(refusal(b"GET / HTTP/1.1\r\nHo"), "request head truncated");
        assert_eq!(refusal(b""), "request head truncated");
    }

    #[test]
    fn body_above_the_limit_is_refused() {
        let raw = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(refusal(raw.as_bytes()), "request body too large");
    }
}
