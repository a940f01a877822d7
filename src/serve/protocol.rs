//! Wire protocol for the projection service: a minimal HTTP/1.1
//! reader/writer (no external dependencies) plus the JSON request and
//! response shapes the endpoints speak.
//!
//! All JSON responses are serialized through
//! [`xflow_validate::jsonfmt::to_json`], the same shortest-round-trip
//! float formatter every `--json` CLI report uses — so a server response
//! and the equivalent CLI invocation are byte-diffable, and `f64` totals
//! survive a decode/encode round trip bit-identically.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// Upper bound on accepted request bodies; a projection request is a few
/// hundred bytes of JSON, so anything near this is abuse, not traffic.
pub const MAX_BODY_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// HTTP framing
// ---------------------------------------------------------------------------

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    /// Header names lowercased at parse time; values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == want).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read one request off a buffered connection. `Ok(None)` is a clean EOF
/// before any bytes (the client hung up between keep-alive requests);
/// malformed framing is an `InvalidData` error.
pub fn read_request<R: BufRead>(stream: &mut R) -> io::Result<Option<HttpRequest>> {
    let mut line = String::new();
    if stream.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1") => (m.to_string(), p.to_string()),
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad request line: {}", line.trim_end()))),
    };
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if stream.read_line(&mut h)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside headers"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad header: {h}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length =
                value.parse::<usize>().map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "request body too large"));
            }
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Some(HttpRequest { method, path, headers, body }))
}

/// One outgoing response; built by handlers, framed by [`write_response`].
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra headers (middleware appends `x-request-id` here).
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn json(status: u16, body: String) -> Self {
        Self { status, content_type: "application/json", headers: Vec::new(), body: body.into_bytes() }
    }

    pub fn text(status: u16, body: String) -> Self {
        Self { status, content_type: "text/plain; charset=utf-8", headers: Vec::new(), body: body.into_bytes() }
    }

    /// A Prometheus text exposition response (`/metrics`): format version
    /// 0.0.4 as scrapers expect in the `Content-Type`.
    pub fn prometheus(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error":"..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(status, xflow_validate::jsonfmt::to_json(&ErrorBody { error: message.to_string() }))
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Frame and write a response. `close` adds `Connection: close`.
pub fn write_response<W: Write>(stream: &mut W, resp: &HttpResponse, close: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (k, v) in &resp.headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// JSON bodies
// ---------------------------------------------------------------------------

/// Error envelope for every non-2xx JSON response.
#[derive(Debug, Serialize, Deserialize)]
pub struct ErrorBody {
    pub error: String,
}

/// One swept machine parameter in a `/v1/sweep` request. `name` must be
/// one of the parameters `Axis::by_name` knows (the same list the CLI's
/// `--axis` flag accepts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AxisSpec {
    pub name: String,
    pub values: Vec<f64>,
}

/// The common request body for `/v1/project`, `/v1/explain`, and
/// `/v1/sweep`. Exactly one of `workload` (a built-in name, e.g. `cfd`)
/// or `source` (inline minilang) must be present. Everything else is
/// optional with CLI-matching defaults.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadRequest {
    /// Built-in workload name (see `xflow workloads`).
    pub workload: Option<String>,
    /// Inline program source (alternative to `workload`).
    pub source: Option<String>,
    /// Machine name resolved against the server's registry [default: bgq].
    pub machine: Option<String>,
    /// Input-size preset for named workloads: `test` or `eval` [default: test].
    pub scale: Option<String>,
    /// Input overrides applied on top of the preset.
    pub inputs: Option<BTreeMap<String, f64>>,
    /// Result rows to return [default: 10].
    pub top: Option<u64>,
    /// Swept parameters (`/v1/sweep` only; at least one required there).
    pub axes: Option<Vec<AxisSpec>>,
}

/// One ranked unit row in a `/v1/project` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct ProjectUnit {
    pub rank: u64,
    pub unit: String,
    pub time: f64,
    /// Fraction of the projected total spent in this unit.
    pub coverage: f64,
    /// `memory` or `compute`, off the unit's Tc/Tm breakdown.
    pub bound: String,
}

/// `/v1/project` response: the projected total plus the top-k unit table
/// (the JSON twin of the `hotspots` CLI view).
#[derive(Debug, Serialize, Deserialize)]
pub struct ProjectResponse {
    pub machine: String,
    pub model: String,
    pub total: f64,
    pub units: Vec<ProjectUnit>,
}

/// One design point in a `/v1/sweep` response.
#[derive(Debug, Serialize, Deserialize)]
pub struct SweepPointBody {
    pub index: u64,
    pub machine: String,
    pub total: f64,
    /// Name of the dominant unit at this point, when one exists.
    pub top_unit: Option<String>,
    pub memory_bound: bool,
    /// Speedup of this point relative to the sweep's base point.
    pub speedup: f64,
}

/// `/v1/sweep` response: top-k points by ascending projected total.
#[derive(Debug, Serialize, Deserialize)]
pub struct SweepResponse {
    pub base_machine: String,
    pub model: String,
    pub points: u64,
    pub top: Vec<SweepPointBody>,
}

/// `/healthz` body.
#[derive(Debug, Serialize, Deserialize)]
pub struct HealthBody {
    pub status: String,
    pub workloads: u64,
    pub machines: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_body_and_lowercases_headers() {
        let raw = b"POST /v1/project HTTP/1.1\r\nHost: x\r\nX-Request-Id: abc\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/project");
        assert_eq!(req.header("x-request-id"), Some("abc"));
        assert_eq!(req.body, b"{\"a\"");
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_invalid_data() {
        let mut empty = BufReader::new(&b""[..]);
        assert!(read_request(&mut empty).unwrap().is_none());
        let mut bad = BufReader::new(&b"NOT HTTP\r\n\r\n"[..]);
        let err = read_request(&mut bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_bodies_are_rejected_at_the_header() {
        let raw = format!("POST /v1/project HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let mut r = BufReader::new(raw.as_bytes());
        assert!(read_request(&mut r).is_err());
    }

    #[test]
    fn response_framing_includes_length_and_extra_headers() {
        let mut resp = HttpResponse::json(200, "{}".to_string());
        resp.headers.push(("x-request-id".to_string(), "req-1".to_string()));
        let mut out = Vec::new();
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("x-request-id: req-1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn workload_request_tolerates_missing_optionals() {
        let req: WorkloadRequest = serde_json::from_str(r#"{"workload":"cfd"}"#).unwrap();
        assert_eq!(req.workload.as_deref(), Some("cfd"));
        assert!(req.machine.is_none() && req.axes.is_none() && req.inputs.is_none());
    }
}
