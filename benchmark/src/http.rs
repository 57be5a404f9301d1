//! The load generator's HTTP/1.1 client: one keep-alive connection, one
//! request in flight.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Byte range of the last reply's body inside `buf`.
    body: (usize, usize),
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that takes this long is a failed request, not a hang.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 << 10),
            body: (0, 0),
        })
    }

    /// Writes one encoded request and reads the full reply; returns its
    /// status. The body stays readable through [`Client::body`] until the
    /// next call.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<u16> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        loop {
            if let Some((status, start, len)) = parse_head(&self.buf)? {
                if self.buf.len() >= start + len {
                    self.body = (start, start + len);
                    return Ok(status);
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.0..self.body.1]
    }

    /// Bytes of the last reply, head and body.
    pub fn reply_len(&self) -> usize {
        self.body.1
    }

    pub fn get(&mut self, path: &str) -> io::Result<u16> {
        self.roundtrip(format!("GET {path} HTTP/1.1\r\nhost: benchmark\r\n\r\n").as_bytes())
    }
}

fn bad(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
}

/// `(status, body start, content-length)` once the head is complete.
fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-ascii reply head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("malformed content-length"))?;
            }
        }
    }
    Ok(Some((status, end + 4, len)))
}
