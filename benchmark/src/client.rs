//! The HTTP/1.1 client side: one keep-alive loopback connection, one
//! request in flight, `Content-Length` framing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A read or write that makes no progress for this long fails the request.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// Budget every query request carries (`timeout=` form field, ms).
const REQUEST_TIMEOUT_MS: u32 = 2_000;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One response; its body is [`Conn::body`] until the next exchange.
pub struct Reply {
    pub status: u16,
    pub body_len: usize,
    /// Before the first request byte was written.
    pub sent: Instant,
    /// After the last request byte was written.
    pub written: Instant,
    /// After the first response byte was read.
    pub first_byte: Instant,
    /// After the last body byte was read.
    pub done: Instant,
    head_len: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
        stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Write `request`, read one whole response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        let sent = Instant::now();
        self.stream.write_all(request)?;
        let written = Instant::now();

        self.buf.clear();
        let mut first_byte = None;
        let head_len = loop {
            let filled = self.buf.len();
            self.buf.resize(filled + 4096, 0);
            let n = self.stream.read(&mut self.buf[filled..])?;
            self.buf.truncate(filled + n);
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            // The terminator may straddle two reads.
            let from = filled.saturating_sub(3);
            if let Some(i) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + i + 4;
            }
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_len]).map_err(|_| bad("head not ASCII"))?;
        let status = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad("no status line"))?;
        let body_len = head
            .split("\r\n")
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        let have = self.buf.len();
        let total = head_len + body_len;
        if have < total {
            self.buf.resize(total, 0);
            self.stream.read_exact(&mut self.buf[have..])?;
        }
        Ok(Reply {
            status,
            body_len,
            sent,
            written,
            first_byte: first_byte.expect("at least one read succeeded"),
            done: Instant::now(),
            head_len,
        })
    }

    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.head_len..reply.head_len + reply.body_len]
    }
}

/// `POST /sparql` with an urlencoded form body, the SPARQL Protocol's
/// general form: `query=…&timeout=2000`, tenant in `x-amber-tenant`.
pub fn query_request(tenant: &str, query: &str) -> Vec<u8> {
    let mut body = String::with_capacity(query.len() * 2);
    body.push_str("query=");
    for &b in query.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                body.push(b as char)
            }
            b' ' => body.push('+'),
            _ => body.push_str(&format!("%{b:02X}")),
        }
    }
    body.push_str(&format!("&timeout={REQUEST_TIMEOUT_MS}"));
    format!(
        "POST /sparql HTTP/1.1\r\nHost: bench\r\nx-amber-tenant: {tenant}\r\n\
         Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// FNV-1a, 64 bit: the expected-answer table stores this instead of
/// megabytes of bodies.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_util::http::{parse_form, parse_request_head};

    #[test]
    fn the_server_side_parser_reads_back_what_is_sent() {
        let query = "SELECT * WHERE { ?s <http://e/p?x=1&y=2> \"a b+c\"@en . }";
        let bytes = query_request("t3", query);
        let (head, consumed) = parse_request_head(&bytes, 8192).unwrap().unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.header("x-amber-tenant"), Some("t3"));
        assert_eq!(head.content_length().unwrap(), Some(bytes.len() - consumed));
        let form = parse_form(std::str::from_utf8(&bytes[consumed..]).unwrap());
        assert_eq!(
            form,
            [
                ("query".to_string(), query.to_string()),
                ("timeout".to_string(), "2000".to_string())
            ]
        );
    }
}
