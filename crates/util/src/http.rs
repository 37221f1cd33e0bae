//! Minimal, dependency-free HTTP/1.1 request parsing and text-escaping
//! helpers.
//!
//! This module is the protocol substrate of the `amber_http` front-end: it
//! knows how to split a byte buffer into a request head (request line +
//! headers), decode percent-encoded targets and
//! `application/x-www-form-urlencoded` bodies, and escape strings for the
//! SPARQL JSON / TSV result serializations. It deliberately implements only
//! the slice of RFC 9112 a SPARQL Protocol endpoint needs — no chunked
//! *request* bodies, no obsolete line folding, no trailers — and rejects
//! everything else with a typed [`HttpParseError`] so the caller can answer
//! with a precise 4xx (or 501) instead of hanging up.
//!
//! Parsing is incremental: feed [`parse_request_head`] the bytes received
//! so far and it returns `Ok(None)` until the `\r\n\r\n` terminator has
//! arrived, so a thread-per-connection read loop needs no state machine of
//! its own.

use std::fmt;

/// Hard ceiling on header count (beyond this the head is hostile).
const MAX_HEADERS: usize = 128;

/// What went wrong parsing a request head (each maps to a 4xx).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The request line is not `METHOD SP TARGET SP VERSION`.
    MalformedRequestLine,
    /// A header line has no `:` separator or a name with invalid bytes.
    MalformedHeader,
    /// The head exceeded the caller's byte budget (or `MAX_HEADERS`)
    /// before its terminator arrived — maps to 431.
    HeadTooLarge,
    /// The request is not HTTP/1.0 or HTTP/1.1 — maps to 505.
    UnsupportedVersion,
    /// A `Content-Length` that is not `1*DIGIT`, or two that disagree.
    BadContentLength,
    /// Any `Transfer-Encoding`: request bodies are framed by
    /// `Content-Length` only — maps to 501.
    UnsupportedTransferEncoding,
}

impl fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpParseError::MalformedRequestLine => write!(f, "malformed request line"),
            HttpParseError::MalformedHeader => write!(f, "malformed header line"),
            HttpParseError::HeadTooLarge => write!(f, "request head too large"),
            HttpParseError::UnsupportedVersion => write!(f, "unsupported HTTP version"),
            HttpParseError::BadContentLength => write!(f, "invalid Content-Length"),
            HttpParseError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding is not supported; send Content-Length")
            }
        }
    }
}

impl std::error::Error for HttpParseError {}

/// A parsed request line + headers (the body, if any, follows in the
/// caller's buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// The request method, verbatim (methods are case-sensitive).
    pub method: String,
    /// The request target, verbatim (still percent-encoded).
    pub target: String,
    /// `"1.0"` or `"1.1"`.
    pub version: String,
    /// Header name/value pairs in arrival order; names are kept verbatim,
    /// lookup through [`Self::header`] is case-insensitive.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// The first header named `name` (ASCII case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The declared body length: `Ok(None)` without a `Content-Length`
    /// header. `Err` when the body is not framed by `Content-Length`
    /// alone: any `Transfer-Encoding`, a value that is not `1*DIGIT`
    /// (RFC 9112 §8.6; `str::parse` would take `+12`), or repeated
    /// headers that disagree. Any of these would leave the connection
    /// reading the body's bytes as the next request head.
    pub fn content_length(&self) -> Result<Option<usize>, HttpParseError> {
        let mut length = None;
        for (name, value) in &self.headers {
            if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpParseError::UnsupportedTransferEncoding);
            }
            if !name.eq_ignore_ascii_case("content-length") {
                continue;
            }
            let parsed = Some(value)
                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or(HttpParseError::BadContentLength)?;
            if length.is_some_and(|seen| seen != parsed) {
                return Err(HttpParseError::BadContentLength);
            }
            length = Some(parsed);
        }
        Ok(length)
    }

    /// `true` when the client asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.version == "1.0",
        }
    }

    /// The media type of the body: the `Content-Type` value up to any `;`
    /// parameter, lowercased and trimmed.
    pub fn media_type(&self) -> Option<String> {
        self.header("content-type").map(|v| {
            v.split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase()
        })
    }
}

/// Incrementally parse a request head out of `buf`.
///
/// * `Ok(None)` — the `\r\n\r\n` terminator has not arrived yet (and the
///   buffer is still within `max_head_bytes`): read more.
/// * `Ok(Some((head, consumed)))` — a complete head; `consumed` is the
///   byte offset just past the terminator (the body starts there).
/// * `Err` — the bytes received so far can never become a valid head.
pub fn parse_request_head(
    buf: &[u8],
    max_head_bytes: usize,
) -> Result<Option<(RequestHead, usize)>, HttpParseError> {
    let Some(end) = find_head_end(buf) else {
        if buf.len() > max_head_bytes {
            return Err(HttpParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    if end > max_head_bytes {
        return Err(HttpParseError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..end - 4]) // strip the \r\n\r\n
        .map_err(|_| HttpParseError::MalformedHeader)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpParseError::MalformedRequestLine)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpParseError::MalformedRequestLine),
    };
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpParseError::MalformedRequestLine);
    }
    let version = match version {
        "HTTP/1.0" => "1.0",
        "HTTP/1.1" => "1.1",
        v if v.starts_with("HTTP/") => return Err(HttpParseError::UnsupportedVersion),
        _ => return Err(HttpParseError::MalformedRequestLine),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpParseError::HeadTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpParseError::MalformedHeader)?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpParseError::MalformedHeader);
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(Some((
        RequestHead {
            method: method.to_string(),
            target: target.to_string(),
            version: version.to_string(),
            headers,
        },
        end,
    )))
}

/// Offset just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// RFC 9110 token bytes (legal in header field names).
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Split a request target into path and raw (still-encoded) query string.
pub fn split_target(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    }
}

/// Percent-decode `s` (`%XX` escapes; `+` becomes a space when
/// `form_mode`). `None` on truncated/non-hex escapes or when the decoded
/// bytes are not UTF-8.
pub fn percent_decode(s: &str, form_mode: bool) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_value(*bytes.get(i + 1)?)?;
                let lo = hex_value(*bytes.get(i + 2)?)?;
                out.push(hi << 4 | lo);
                i += 3;
            }
            b'+' if form_mode => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_value(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Decode an `application/x-www-form-urlencoded` query/body into key-value
/// pairs, in order. Pairs with undecodable keys or values are dropped
/// (callers treat a missing required key as the 400, which is what a
/// hostile escape deserves too).
pub fn parse_form(input: &str) -> Vec<(String, String)> {
    input
        .split('&')
        .filter(|pair| !pair.is_empty())
        .filter_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            Some((percent_decode(k, true)?, percent_decode(v, true)?))
        })
        .collect()
}

/// Byte → escape action for [`escape_into`]: `0` passes the byte through,
/// `b'u'` emits `\u00XX`, anything else is the character that follows the
/// backslash.
type EscapeTable = [u8; 256];

/// RFC 8259: quote, backslash, and every control byte (`\n \r \t` short,
/// the rest as `\u00XX`).
static JSON_ESCAPES: EscapeTable = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// The Turtle-style string escapes of a SPARQL TSV cell; other control
/// bytes pass through.
static TSV_ESCAPES: EscapeTable = {
    let mut table = [0u8; 256];
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// `true` when some byte of `word` is below `0x20`, a `"` or a `\` — a
/// superset of what either escape table acts on. The classic SWAR
/// "has a zero byte" / "has a byte less than n" tests: borrows can only
/// flag a clean byte *above* a genuinely matching one, so the any-byte
/// answer is exact. Bytes `>= 0x80` (UTF-8 continuation and lead bytes)
/// never match.
#[inline]
fn word_may_need_escape(word: u64) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let control = word.wrapping_sub(ONES * 0x20) & !word;
    let quote = word ^ (ONES * b'"' as u64);
    let backslash = word ^ (ONES * b'\\' as u64);
    let quote = quote.wrapping_sub(ONES) & !quote;
    let backslash = backslash.wrapping_sub(ONES) & !backslash;
    (control | quote | backslash) & HIGHS != 0
}

/// Scan-then-bulk-copy escaper: skip eight bytes at a time while
/// [`word_may_need_escape`] is silent, copy each clean run with one
/// `push_str`, and look the rare flagged byte up in `table`. Every byte a
/// table acts on is ASCII, so run boundaries are always `char` boundaries
/// and multi-byte UTF-8 is copied untouched.
#[inline]
fn escape_into(out: &mut String, s: &str, table: &EscapeTable) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut run_start = 0;
    let mut i = 0;
    while i < bytes.len() {
        while let Some(word) = bytes[i..].first_chunk::<8>() {
            if word_may_need_escape(u64::from_le_bytes(*word)) {
                break;
            }
            i += 8;
        }
        // A sub-word tail of a string at least one word long: test the
        // last eight bytes as one (overlapping) word instead of one by one.
        let clean_tail = bytes.len() - i < 8
            && bytes
                .last_chunk::<8>()
                .is_some_and(|word| !word_may_need_escape(u64::from_le_bytes(*word)));
        if clean_tail {
            break;
        }
        // A flagged word, or a short string's tail.
        let stop = bytes.len().min(i + 8);
        while i < stop {
            let byte = bytes[i];
            let action = table[byte as usize];
            if action != 0 {
                out.push_str(&s[run_start..i]);
                if action == b'u' {
                    out.push_str("\\u00");
                    out.push(HEX[(byte >> 4) as usize] as char);
                    out.push(HEX[(byte & 0xf) as usize] as char);
                } else {
                    out.push('\\');
                    out.push(action as char);
                }
                run_start = i + 1;
            }
            i += 1;
        }
    }
    out.push_str(&s[run_start..]);
}

/// Append `s` to `out` as the inside of a JSON string literal (RFC 8259
/// escaping: quote, backslash, and control characters).
pub fn json_escape_into(out: &mut String, s: &str) {
    escape_into(out, s, &JSON_ESCAPES);
}

/// Append `s` to `out` escaped for a SPARQL TSV results cell (the
/// Turtle-style string escapes: tab, newline, carriage return, quote,
/// backslash). Everything else passes through verbatim.
pub fn tsv_escape_into(out: &mut String, s: &str) {
    escape_into(out, s, &TSV_ESCAPES);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(text: &str) -> Result<Option<(RequestHead, usize)>, HttpParseError> {
        parse_request_head(text.as_bytes(), 8192)
    }

    #[test]
    fn parses_a_complete_head() {
        let (head, consumed) =
            parse("GET /sparql?query=x HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\nBODY")
                .unwrap()
                .unwrap();
        assert_eq!(head.method, "GET");
        assert_eq!(head.target, "/sparql?query=x");
        assert_eq!(head.version, "1.1");
        assert_eq!(head.header("HOST"), Some("localhost"));
        assert_eq!(head.header("accept"), Some("*/*"));
        assert_eq!(head.header("missing"), None);
        // The body starts right after the terminator.
        assert_eq!(
            consumed,
            "GET /sparql?query=x HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n".len()
        );
    }

    #[test]
    fn incomplete_heads_ask_for_more() {
        assert_eq!(parse("GET / HTTP/1.1\r\nHost: x\r\n").unwrap(), None);
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn malformed_request_lines_are_typed() {
        for bad in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "G@T / HTTP/1.1\r\n\r\n",
            " / HTTP/1.1\r\n\r\n",
            "GET / TCP/1.1\r\n\r\n",
        ] {
            assert_eq!(
                parse(bad).unwrap_err(),
                HttpParseError::MalformedRequestLine,
                "{bad:?}"
            );
        }
        assert_eq!(
            parse("GET / HTTP/2.0\r\n\r\n").unwrap_err(),
            HttpParseError::UnsupportedVersion
        );
    }

    #[test]
    fn malformed_headers_are_typed() {
        assert_eq!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err(),
            HttpParseError::MalformedHeader
        );
        assert_eq!(
            parse("GET / HTTP/1.1\r\n: empty-name\r\n\r\n").unwrap_err(),
            HttpParseError::MalformedHeader
        );
        assert_eq!(
            parse("GET / HTTP/1.1\r\nbad name: x\r\n\r\n").unwrap_err(),
            HttpParseError::MalformedHeader
        );
    }

    #[test]
    fn oversized_heads_are_rejected_even_unterminated() {
        let huge = format!("GET / HTTP/1.1\r\nX: {}\r\n", "a".repeat(10_000));
        assert_eq!(
            parse_request_head(huge.as_bytes(), 8192).unwrap_err(),
            HttpParseError::HeadTooLarge
        );
        // Terminated but over budget is rejected too.
        let huge = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(10_000));
        assert_eq!(
            parse_request_head(huge.as_bytes(), 8192).unwrap_err(),
            HttpParseError::HeadTooLarge
        );
    }

    #[test]
    fn content_length_and_connection_semantics() {
        let (head, _) = parse("POST / HTTP/1.1\r\nContent-Length: 12\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.content_length().unwrap(), Some(12));
        let (head, _) = parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            head.content_length().unwrap_err(),
            HttpParseError::BadContentLength
        );
        // Framing: only `1*DIGIT`, agreeing repeats, and no
        // Transfer-Encoding at all.
        let length = |headers: &str| {
            let text = format!("POST / HTTP/1.1\r\n{headers}\r\n");
            parse(&text).unwrap().unwrap().0.content_length()
        };
        assert_eq!(length(""), Ok(None));
        assert_eq!(length("Content-Length: 0\r\n"), Ok(Some(0)));
        assert_eq!(
            length("Content-Length: 12\r\ncontent-length: 12\r\n"),
            Ok(Some(12))
        );
        for bad in [
            "Content-Length: +12\r\n",
            "Content-Length: -1\r\n",
            "Content-Length: 1 2\r\n",
            "Content-Length: 12, 12\r\n",
            "Content-Length: \r\n",
            "Content-Length: 99999999999999999999999\r\n",
            "Content-Length: 12\r\nContent-Length: 13\r\n",
        ] {
            assert_eq!(
                length(bad),
                Err(HttpParseError::BadContentLength),
                "{bad:?}"
            );
        }
        for chunked in [
            "Transfer-Encoding: chunked\r\n",
            "transfer-encoding: gzip, chunked\r\n",
            "Content-Length: 12\r\nTransfer-Encoding: chunked\r\n",
            "Transfer-Encoding: identity\r\nContent-Length: 12\r\n",
        ] {
            assert_eq!(
                length(chunked),
                Err(HttpParseError::UnsupportedTransferEncoding),
                "{chunked:?}"
            );
        }
        let (head, _) = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(head.wants_close());
        let (head, _) = parse("GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(!head.wants_close(), "HTTP/1.1 defaults to keep-alive");
        let (head, _) = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(head.wants_close(), "HTTP/1.0 defaults to close");
        let (head, _) = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!head.wants_close());
    }

    #[test]
    fn media_type_strips_parameters() {
        let (head, _) = parse(
            "POST / HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded; charset=UTF-8\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            head.media_type().as_deref(),
            Some("application/x-www-form-urlencoded")
        );
    }

    #[test]
    fn target_splitting_and_decoding() {
        assert_eq!(
            split_target("/sparql?query=x"),
            ("/sparql", Some("query=x"))
        );
        assert_eq!(split_target("/metrics"), ("/metrics", None));
        assert_eq!(percent_decode("a%20b%2Bc", false).as_deref(), Some("a b+c"));
        assert_eq!(percent_decode("a+b", true).as_deref(), Some("a b"));
        assert_eq!(percent_decode("a+b", false).as_deref(), Some("a+b"));
        assert_eq!(percent_decode("bad%2", false), None);
        assert_eq!(percent_decode("bad%zz", false), None);
        assert_eq!(percent_decode("%ff%fe", false), None, "not UTF-8");
    }

    #[test]
    fn form_parsing_decodes_pairs_in_order() {
        let pairs = parse_form("query=SELECT+%2A&timeout=250&flag=&query=second");
        assert_eq!(
            pairs,
            vec![
                ("query".to_string(), "SELECT *".to_string()),
                ("timeout".to_string(), "250".to_string()),
                ("flag".to_string(), String::new()),
                ("query".to_string(), "second".to_string()),
            ]
        );
        assert!(parse_form("").is_empty());
    }

    /// The char-by-char escapers the bulk kernel replaced, kept as its
    /// oracle.
    fn naive_json_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn naive_tsv_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c => out.push(c),
            }
        }
        out
    }

    /// Both kernels against their oracles, appending behind existing
    /// content (which must survive).
    fn assert_escapes_agree(s: &str) {
        let mut out = String::from("kept:");
        json_escape_into(&mut out, s);
        assert_eq!(
            out,
            format!("kept:{}", naive_json_escape(s)),
            "json of {s:?}"
        );
        let mut out = String::from("kept:");
        tsv_escape_into(&mut out, s);
        assert_eq!(out, format!("kept:{}", naive_tsv_escape(s)), "tsv of {s:?}");
    }

    /// `bytes` bytes of filler cycled out of `pattern` (whole chars, so a
    /// multi-byte pattern may stop short).
    fn filler(pattern: &str, bytes: usize) -> String {
        let mut out = String::new();
        for c in pattern.chars().cycle() {
            if out.len() + c.len_utf8() > bytes {
                break;
            }
            out.push(c);
        }
        out
    }

    #[test]
    fn every_special_byte_at_every_word_offset() {
        // Control bytes, the two ASCII specials, and DEL (which neither
        // format escapes) at offsets 0..16 — every position relative to
        // the 8-byte word, in the first, a middle and the tail word —
        // behind ASCII and behind multi-byte text that straddles words.
        for special in (0u8..0x20).chain([b'"', b'\\', 0x7f]) {
            for pattern in ["a", "é", "a€", "😀ab"] {
                for offset in 0..16 {
                    for tail in 0..18 {
                        let s = format!(
                            "{}{}{}",
                            filler(pattern, offset),
                            special as char,
                            filler(pattern, tail)
                        );
                        assert_escapes_agree(&s);
                    }
                }
            }
        }
        // Adjacent specials, and one per word.
        assert_escapes_agree("\"\"\\\\\n\n");
        assert_escapes_agree("aaaaaaa\"aaaaaaa\\aaaaaaa\u{1}aaaaaaa\t");
        assert_escapes_agree("");
    }

    const ALPHABET: &[&str] = &[
        "a", "z", "/", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{8}", "\u{c}",
        "\u{1f}", "\u{7f}", "é", "€", "😀",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn bulk_escapers_match_the_char_by_char_oracle(
            picks in prop::collection::vec(0..ALPHABET.len(), 0..48)
        ) {
            let s: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
            assert_escapes_agree(&s);
        }
    }

    #[test]
    fn escaping_helpers() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
        let mut out = String::new();
        tsv_escape_into(&mut out, "a\tb\nc\"d\\e");
        assert_eq!(out, "a\\tb\\nc\\\"d\\\\e");
    }
}
