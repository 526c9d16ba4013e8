//! A keep-alive HTTP/1.1 client for one connection, and the parsers for the
//! headers the server already emits.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a request may wait for its response before it counts as a
/// timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The four request phases of the `Server-Timing` header, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    pub queue: f64,
    pub parse: f64,
    pub compute: f64,
    pub serialize: f64,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.queue + self.parse + self.compute + self.serialize
    }
}

/// Parses `queue;dur=0.017, parse;dur=0.097, compute;dur=0.219, serialize;dur=0.001`.
pub fn parse_server_timing(value: &str) -> Option<Phases> {
    let mut p = Phases::default();
    let mut seen = 0;
    for metric in value.split(',') {
        let mut parts = metric.trim().split(';');
        let name = parts.next()?.trim();
        let dur: f64 = parts
            .find_map(|a| a.trim().strip_prefix("dur="))
            .and_then(|d| d.parse().ok())?;
        let slot = match name {
            "queue" => &mut p.queue,
            "parse" => &mut p.parse,
            "compute" => &mut p.compute,
            "serialize" => &mut p.serialize,
            _ => continue,
        };
        *slot = dur;
        seen += 1;
    }
    (seen == 4).then_some(p)
}

/// One response, with the headers the benchmark reads.
#[derive(Debug, Default)]
pub struct Response {
    pub status: u16,
    pub phases: Option<Phases>,
    /// `X-Cache: hit` (`Some(true)`) or `miss` (`Some(false)`).
    pub cache_hit: Option<bool>,
    /// The server announced `Connection: close`.
    pub close: bool,
    pub body: Vec<u8>,
}

impl Response {
    pub fn body_text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// The bytes of one request.
pub fn request(method: &str, path: &str, headers: &[(&str, String)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n");
    for (k, v) in headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    if !body.is_empty() || method != "GET" {
        out.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends `bytes` and reads the whole response.
    pub fn round_trip(&mut self, bytes: &[u8]) -> io::Result<Response> {
        self.stream.write_all(bytes)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut resp = Response {
            status,
            ..Default::default()
        };
        let mut length = 0usize;
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let v = v.trim();
            match k.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = v.parse().map_err(|_| bad("bad Content-Length"))?,
                "server-timing" => resp.phases = parse_server_timing(v),
                "x-cache" => resp.cache_hit = Some(v.eq_ignore_ascii_case("hit")),
                "connection" => resp.close = v.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            self.fill()?;
        }
        resp.body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(resp)
    }
}

/// One request on a fresh connection (set-up and scrape traffic).
pub fn once(addr: &str, bytes: &[u8]) -> io::Result<Response> {
    Conn::connect(addr)?.round_trip(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_captured_server_timing() {
        let p = parse_server_timing(
            "queue;dur=0.017, parse;dur=0.097, compute;dur=0.219, serialize;dur=0.001",
        )
        .unwrap();
        assert_eq!(
            p,
            Phases {
                queue: 0.017,
                parse: 0.097,
                compute: 0.219,
                serialize: 0.001
            }
        );
        assert!((p.total() - 0.334).abs() < 1e-12);
        assert_eq!(
            parse_server_timing("queue;dur=0.017, parse;dur=0.097"),
            None
        );
        assert_eq!(parse_server_timing("queue;desc=x"), None);
    }

    #[test]
    fn builds_requests_with_framing() {
        let r = request(
            "PATCH",
            "/session/a/etc",
            &[("If-Match", "3".into())],
            b"cell,1,1,2",
        );
        assert_eq!(
            String::from_utf8(r).unwrap(),
            "PATCH /session/a/etc HTTP/1.1\r\nHost: 127.0.0.1\r\nIf-Match: 3\r\nContent-Length: 10\r\n\r\ncell,1,1,2"
        );
        let g = request("GET", "/healthz", &[], b"");
        assert!(String::from_utf8(g)
            .unwrap()
            .ends_with("Host: 127.0.0.1\r\n\r\n"));
    }
}
