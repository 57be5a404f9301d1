//! Incremental HTTP/1.1 request parsing and response serialization.
//!
//! [`try_parse`] is a **pure function of the accumulated connection
//! buffer**: the reactor appends whatever bytes arrived and re-asks. That
//! makes incremental parsing *definitionally* equivalent to one-shot
//! parsing — there is no hidden state a byte boundary could corrupt — and
//! the property battery in `tests/http_parser.rs` pins the remaining
//! obligations: a prefix of a valid request is never an error
//! (monotonicity), consumed lengths are exact (pipelining), and every
//! malformed input maps to a 4xx status instead of a panic.
//!
//! The parser accepts exactly what the wire protocol needs: a request
//! line, CRLF-separated headers, and an optional `Content-Length` body.
//! `Transfer-Encoding` is rejected (400) rather than half-supported.

use std::fmt::Write as _;

/// Parser limits (from the server configuration).
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers (excluding the terminating
    /// blank line); beyond this the request is answered `431`.
    pub max_head_bytes: usize,
    /// Maximum declared body size; beyond this the request is answered
    /// `413`.
    pub max_body_bytes: usize,
}

/// A complete parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (origin form, e.g. `/spq`).
    pub target: String,
    /// Whether the connection stays open after the response (HTTP/1.1
    /// default, overridable by `Connection:` either way).
    pub keep_alive: bool,
    /// The `Content-Type` header value, trimmed, if one was sent (the
    /// router uses it to pick the binary `/spq` fast path).
    pub content_type: Option<String>,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

/// Outcome of a parse attempt over the buffered bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Parse {
    /// Need more bytes; nothing consumed.
    Incomplete,
    /// One complete request; the first `usize` bytes of the buffer belong
    /// to it and must be drained before the next attempt.
    Done(Request, usize),
}

/// A protocol violation. The connection answers the mapped status and
/// closes: after a malformed head the next request boundary is unknowable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Request line + headers exceed [`Limits::max_head_bytes`] → `431`.
    HeadTooLarge,
    /// Declared body exceeds [`Limits::max_body_bytes`] → `413`.
    BodyTooLarge,
    /// Anything else malformed → `400` with the reason.
    Bad(&'static str),
}

impl ParseError {
    /// The HTTP status the error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::Bad(_) => 400,
        }
    }

    /// Human-readable reason (the error response body carries it).
    pub fn reason(&self) -> &'static str {
        match self {
            ParseError::HeadTooLarge => "request head too large",
            ParseError::BodyTooLarge => "request body too large",
            ParseError::Bad(r) => r,
        }
    }
}

/// Attempts to parse one request from the front of `buf`.
pub fn try_parse(buf: &[u8], limits: &Limits) -> Result<Parse, ParseError> {
    // Find the head terminator, looking only as far as the head limit
    // allows (+3 so a terminator straddling the boundary still counts
    // toward the head it ends).
    let window = buf.len().min(limits.max_head_bytes + 4);
    let head_end = match find_crlf_crlf(&buf[..window]) {
        Some(pos) => pos,
        None if buf.len() >= limits.max_head_bytes + 4 => return Err(ParseError::HeadTooLarge),
        None => return Ok(Parse::Incomplete),
    };
    if head_end + 4 > limits.max_head_bytes + 4 {
        return Err(ParseError::HeadTooLarge);
    }
    let head = &buf[..head_end];
    let head = std::str::from_utf8(head).map_err(|_| ParseError::Bad("non-ascii request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::Bad("malformed request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(ParseError::Bad("malformed method"));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Bad("request target must be origin-form"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Bad("unsupported HTTP version")),
    };

    let mut content_length: Option<usize> = None;
    let mut content_type: Option<String> = None;
    let mut keep_alive = http11;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Bad("malformed header line"))?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(ParseError::Bad("malformed header name"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err(ParseError::Bad("duplicate content-length"));
            }
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::Bad("malformed content-length"));
            }
            let parsed: usize = value
                .parse()
                .map_err(|_| ParseError::Bad("content-length overflow"))?;
            if parsed > limits.max_body_bytes {
                return Err(ParseError::BodyTooLarge);
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::Bad("transfer-encoding not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let body_len = content_length.unwrap_or(0);
    let total = head_end + 4 + body_len;
    if buf.len() < total {
        return Ok(Parse::Incomplete);
    }
    Ok(Parse::Done(
        Request {
            method: method.to_string(),
            target: target.to_string(),
            keep_alive,
            content_type,
            body: buf[head_end + 4..total].to_vec(),
        },
        total,
    ))
}

fn find_crlf_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase of the statuses this server emits.
pub(crate) fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The content type of every response but `/metrics` and frame `/spq`.
pub(crate) const JSON_CONTENT_TYPE: &str = "application/json";

/// The content type of the `/metrics` Prometheus text exposition.
pub(crate) const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The content type selecting the binary `/spq` fast path: the body is
/// one `tthr-rpc` frame instead of a JSON document, and the response is
/// a frame too.
pub const FRAME_CONTENT_TYPE: &str = "application/x-tthr-frame";

/// Serializes one response. `retry_after` adds the `Retry-After` header
/// (load shedding); `keep_alive: false` adds `Connection: close`.
pub(crate) fn encode_response(
    status: u16,
    body: &[u8],
    keep_alive: bool,
    retry_after: Option<u32>,
) -> Vec<u8> {
    encode_response_with_content_type(status, body, keep_alive, retry_after, JSON_CONTENT_TYPE)
}

/// [`encode_response`] with an explicit `content-type` (everything this
/// server emits is JSON except the `/metrics` text exposition).
pub(crate) fn encode_response_with_content_type(
    status: u16,
    body: &[u8],
    keep_alive: bool,
    retry_after: Option<u32>,
    content_type: &str,
) -> Vec<u8> {
    let mut head = String::with_capacity(128);
    let _ = write!(
        head,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason_phrase(status),
        body.len()
    );
    if let Some(secs) = retry_after {
        let _ = write!(head, "retry-after: {secs}\r\n");
    }
    let _ = write!(
        head,
        "connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: Limits = Limits {
        max_head_bytes: 1024,
        max_body_bytes: 4096,
    };

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /spq HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        match try_parse(raw, &LIMITS).unwrap() {
            Parse::Done(req, consumed) => {
                assert_eq!(consumed, raw.len());
                assert_eq!(req.method, "POST");
                assert_eq!(req.target, "/spq");
                assert!(req.keep_alive);
                assert_eq!(req.body, b"abcd");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let raw = b"GET /health HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n";
        let Parse::Done(req, consumed) = try_parse(raw, &LIMITS).unwrap() else {
            panic!("first request must parse");
        };
        assert_eq!(req.target, "/health");
        let Parse::Done(req2, consumed2) = try_parse(&raw[consumed..], &LIMITS).unwrap() else {
            panic!("second request must parse");
        };
        assert_eq!(req2.target, "/stats");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn content_type_is_captured_and_trimmed() {
        let raw = b"POST /spq HTTP/1.1\r\ncontent-type:  application/x-tthr-frame \r\ncontent-length: 0\r\n\r\n";
        let Parse::Done(req, _) = try_parse(raw, &LIMITS).unwrap() else {
            panic!("must parse");
        };
        assert_eq!(req.content_type.as_deref(), Some(FRAME_CONTENT_TYPE));
        let plain = b"POST /spq HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
        let Parse::Done(req, _) = try_parse(plain, &LIMITS).unwrap() else {
            panic!("must parse");
        };
        assert_eq!(req.content_type, None);
    }

    #[test]
    fn connection_semantics() {
        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let Parse::Done(req, _) = try_parse(close, &LIMITS).unwrap() else {
            panic!()
        };
        assert!(!req.keep_alive);
        let http10 = b"GET / HTTP/1.0\r\n\r\n";
        let Parse::Done(req, _) = try_parse(http10, &LIMITS).unwrap() else {
            panic!()
        };
        assert!(!req.keep_alive, "1.0 defaults to close");
        let http10_ka = b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n";
        let Parse::Done(req, _) = try_parse(http10_ka, &LIMITS).unwrap() else {
            panic!()
        };
        assert!(req.keep_alive);
    }

    #[test]
    fn malformed_heads_are_400() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2\r\n\r\n",
            b"GET  /x HTTP/1.1\r\n\r\n",
            b"G=T /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nab",
            b"POST /x HTTP/1.1\r\ncontent-length: 2x\r\n\r\nab",
            b"POST /x HTTP/1.1\r\ncontent-length: 99999999999999999999\r\n\r\n",
            b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad header\r\n\r\n",
            b"GET /x HTTP/1.1\r\nname space: v\r\n\r\n",
        ] {
            let err = try_parse(raw, &LIMITS).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?} → {err:?}");
        }
    }

    #[test]
    fn oversized_head_is_431_and_oversized_body_413() {
        let mut huge = b"GET /x HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', 2 * LIMITS.max_head_bytes));
        assert_eq!(
            try_parse(&huge, &LIMITS).unwrap_err(),
            ParseError::HeadTooLarge
        );
        let body = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            LIMITS.max_body_bytes + 1
        );
        assert_eq!(
            try_parse(body.as_bytes(), &LIMITS).unwrap_err(),
            ParseError::BodyTooLarge
        );
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let raw = b"POST /spq HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        for cut in 0..raw.len() {
            assert_eq!(
                try_parse(&raw[..cut], &LIMITS).unwrap(),
                Parse::Incomplete,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn response_encoding() {
        let bytes = encode_response(503, b"{}", true, Some(2));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let closing = encode_response(200, b"[]", false, None);
        assert!(String::from_utf8(closing)
            .unwrap()
            .contains("connection: close\r\n"));
    }
}
