//! A deliberately minimal HTTP/1.1 server and client over `std::net`,
//! in the workspace's vendored-shim philosophy: no external crates, just
//! enough of the protocol for a localhost JSON API.
//!
//! The server runs a sequential accept loop — one request at a time, one
//! connection per request (`Connection: close`). That makes the handler a
//! plain `FnMut` with exclusive access to the daemon state: no locks, no
//! interleaving, and the ingest path keeps the whole machine via the
//! work-stealing pool anyway. Request bodies are capped to keep a stray
//! client from ballooning memory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};

/// Maximum accepted request body, bytes (64 MiB: a large fleet snapshot).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Maximum accepted request-line / header-line length, bytes.
const MAX_LINE: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, uppercased by the client ("GET", "POST", ...).
    pub method: String,
    /// Path with query string, percent-decoding *not* applied (router
    /// names in this API are config hostnames: `[A-Za-z0-9._-]`).
    pub path: String,
    /// Raw body bytes, decoded via `Content-Length`.
    pub body: Vec<u8>,
}

/// One response to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// The standard JSON error shape.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\": \"{}\"}}\n",
                campion_trace::json::escape(message)
            ),
        )
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    }
}

/// Read one request from a connection. Returns `None` on a malformed or
/// oversized request (the connection is just dropped; a localhost API
/// does not negotiate with broken clients).
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).ok().filter(|&n| n > 0)?;
    if line.len() > MAX_LINE {
        return None;
    }
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).ok().filter(|&n| n > 0)?;
        if header.len() > MAX_LINE {
            return None;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > MAX_BODY {
        return None;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(Request { method, path, body })
}

fn write_response(stream: &mut TcpStream, resp: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(&resp.body);
    let _ = stream.flush();
}

/// Per-socket read/write deadline: the accept loop is sequential, so one
/// client that connects and then stalls (or never drains its response)
/// would otherwise wedge the daemon for every other client.
const SOCKET_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Serve requests until the handler asks to shut down. The handler
/// returns the response plus a `shutdown` flag; the flagged response is
/// still delivered before the loop exits. Accepted sockets get 30 s read
/// and write timeouts: a stalled request times out, is dropped, and the
/// loop moves to the next connection.
pub fn serve(
    listener: &TcpListener,
    mut handler: impl FnMut(&Request) -> (Response, bool),
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let mut stream = stream?;
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
        let Some(req) = read_request(&mut stream) else {
            continue;
        };
        let (resp, shutdown) = handler(&req);
        write_response(&mut stream, &resp);
        if shutdown {
            break;
        }
    }
    Ok(())
}

/// A one-shot HTTP request (the client side). Returns the status code and
/// body text.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        if n == 0 || header.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|e| format!("non-UTF-8 body: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            serve(&listener, |req| {
                let echo = format!(
                    "{} {} {}",
                    req.method,
                    req.path,
                    String::from_utf8_lossy(&req.body)
                );
                (Response::text(200, echo), req.path == "/stop")
            })
            .expect("serve");
        });
        let (status, body) = request(addr, "POST", "/echo", Some("hi")).expect("request");
        assert_eq!((status, body.as_str()), (200, "POST /echo hi"));
        let (status, _) = request(addr, "GET", "/stop", None).expect("request");
        assert_eq!(status, 200);
        server.join().expect("join");
    }

    #[test]
    fn error_response_shape() {
        let r = Response::error(404, "no such pair");
        assert_eq!(r.status, 404);
        assert_eq!(
            String::from_utf8(r.body).expect("utf8"),
            "{\"error\": \"no such pair\"}\n"
        );
    }
}
