//! A tiny blocking HTTP/1.1 client for driving `tthr-server` in tests:
//! keep-alive, pipelining, and raw-byte access to responses (the
//! equivalence harness compares bodies bit-for-bit).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Clone, Debug)]
pub(crate) struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("utf-8 response body")
    }
}

/// A keep-alive client connection.
pub(crate) struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    pub(crate) fn connect(addr: SocketAddr) -> HttpClient {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        HttpClient {
            stream,
            buf: Vec::new(),
        }
    }

    /// Sends one request (no body for `GET`).
    pub(crate) fn send(&mut self, method: &str, path: &str, body: &[u8]) {
        self.send_raw(&encode_request(method, path, body));
    }

    /// Sends pre-encoded bytes (pipelining, malformed corpora, …).
    pub(crate) fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send request");
    }

    /// Sends bytes, tolerating a server that already closed the
    /// connection (flood/garbage scenarios race the close).
    pub(crate) fn send_raw_best_effort(&mut self, bytes: &[u8]) {
        let _ = self.stream.write_all(bytes);
    }

    /// Reads one full response (blocking).
    pub(crate) fn read_response(&mut self) -> Response {
        self.try_read_response()
            .expect("server closed the connection mid-response")
    }

    /// Reads one response, or `None` on a clean close before/within it.
    pub(crate) fn try_read_response(&mut self) -> Option<Response> {
        loop {
            if let Some((response, consumed)) = parse_response(&self.buf) {
                self.buf.drain(..consumed);
                return Some(response);
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read from test server: {e}"),
            }
        }
    }

    /// Request → response round trip.
    pub(crate) fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Response {
        self.send(method, path, body);
        self.read_response()
    }

    /// Whether the server closed the connection (EOF or reset observed
    /// after draining buffered bytes, within two seconds). A connection
    /// that stays silent is open: a read timeout is not a close.
    pub(crate) fn at_eof(&mut self) -> bool {
        let mut chunk = [0u8; 1024];
        self.stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        let eof = match self.stream.read(&mut chunk) {
            Ok(0) => true,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                false
            }
            Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
        self.stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        eof
    }
}

/// Serializes a request with a `content-length` body.
pub(crate) fn encode_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Serializes a binary `/spq` request carrying one `tthr-rpc` frame.
pub(crate) fn encode_frame_request(frame: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST /spq HTTP/1.1\r\nhost: test\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
        tthr::server::http::FRAME_CONTENT_TYPE,
        frame.len()
    )
    .into_bytes();
    out.extend_from_slice(frame);
    out
}

/// A `/batch` request body.
pub(crate) fn batch_body(queries: &[tthr::core::Spq]) -> String {
    let queries: Vec<String> = queries.iter().map(tthr::server::wire::encode_spq).collect();
    format!("{{\"queries\":[{}]}}", queries.join(","))
}

/// One-shot convenience: connect, request, disconnect.
pub(crate) fn post(addr: SocketAddr, path: &str, body: &[u8]) -> Response {
    HttpClient::connect(addr).request("POST", path, body)
}

fn parse_response(buf: &[u8]) -> Option<(Response, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).expect("ascii response head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        let (name, value) = line.split_once(':').expect("header line");
        let value = value.trim().to_string();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().expect("content-length");
        }
        headers.push((name.to_string(), value));
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return None;
    }
    Some((
        Response {
            status,
            headers,
            body: buf[head_end + 4..total].to_vec(),
        },
        total,
    ))
}
