//! The term grammar that N-Triples, Turtle and SPARQL share.
//!
//! The engine answers a query constant by looking its text up in the
//! dictionaries built from the data (paper §4's `Mv`, `Me`, `Ma`), so a
//! term must read as the same text whichever syntax spells it. The three
//! readers ([`ntriples`](crate::ntriples), [`turtle`](crate::turtle) and
//! the SPARQL scanner of `amber_sparql`) lex their terms with one
//! [`Cursor`]:
//!
//! * **IRIREF** `<…>` ([`Cursor::iri`]): `\uXXXX` / `\UXXXXXXXX` are
//!   decoded; a character in `#x00–#x20` or one of `` <>"{}|^`\ `` is
//!   refused, written or decoded, and so is `<>` (`empty IRI`). A relative
//!   IRI (`<b0>`) is kept verbatim: no reader resolves it against a base.
//! * **Strings** `"…"` / `'…'` ([`Cursor::string`]): ECHAR (`\t \b \n \r
//!   \f \" \' \\`) and UCHAR are decoded. A raw control character is kept;
//!   a line end inside the quotes leaves the string unterminated.
//! * **LANGTAG** `@[A-Za-z0-9-]+` ([`Cursor::lang_tag`]).
//! * **Blank node labels** `_:…` ([`Cursor::blank_node`]): letters,
//!   digits, `_`, `-` and `.`, where a trailing `.` is the statement
//!   terminator.
//!
//! A line ends at `\n`, or at the `\r` of a `\r\n`; a bare `\r` is an
//! ordinary byte, as in [`str::lines`]. No term spans a line end.
//!
//! A term is a slice of the text unless it holds an escape; then it is
//! decoded into a scratch `String` the caller owns and reuses, so a text
//! without escapes is lexed without allocating. The runs of ordinary bytes
//! inside an IRI or a string are skipped a word (8 bytes) at a time: a
//! SWAR mask flags the bytes that can end the run, and the lowest flag is
//! the stop byte. A 256-entry class table per term kind classifies the
//! stop byte, and scans the tail shorter than a word. Every byte the
//! cursor stops on is ASCII, hence a character boundary; multi-byte
//! characters are passed over whole and decoded only where the grammar
//! asks about the character itself (blank node labels, error messages).
//!
//! Every error is positioned by one function, [`Cursor::position`]: a
//! 1-based line and a column counted in characters.

/// A term the lexer refused, with its 1-based `line:column` position (the
/// column counted in characters). Each reader turns it into its own error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

/// Byte classes of the two table-driven inner loops.
pub(crate) const PLAIN: u8 = 0;
/// Ends the term: `>` in an IRI, the quote in a string.
const CLOSE: u8 = 1;
/// `\`: an escape sequence follows.
const ESCAPE: u8 = 2;
/// IRI: a character the grammar forbids. String: a raw control character
/// (accepted, but the source token is then not the canonical form). In
/// both, `\n` and `\r` are here, so a run never crosses a line end.
const SPECIAL: u8 = 3;

/// How the bytes of one term kind are classified: a table for single
/// bytes, and the same set as a SWAR mask over a little-endian word.
pub(crate) struct ByteClass {
    pub(crate) table: [u8; 256],
    /// The high bit of every byte of the word that is not [`PLAIN`] in
    /// `table`, possibly with more flags above the lowest one: only the
    /// lowest flagged byte is exact.
    stops: fn(u64) -> u64,
}

/// IRI bytes: everything above `' '` except `<"{}|^\`` `` is allowed, so
/// every byte of a multi-byte character is [`PLAIN`].
pub(crate) const IRI: ByteClass = ByteClass {
    table: {
        let mut table = [PLAIN; 256];
        let mut b = 0;
        while b <= b' ' as usize {
            table[b] = SPECIAL;
            b += 1;
        }
        let forbidden = *b"<\"{}|^`";
        let mut i = 0;
        while i < forbidden.len() {
            table[forbidden[i] as usize] = SPECIAL;
            i += 1;
        }
        table[b'>' as usize] = CLOSE;
        table[b'\\' as usize] = ESCAPE;
        table
    },
    stops: |word| {
        // With bit 1 set, only `<` and `>` read as `>`, and only `\` and
        // `^` as `^`: one test finds each pair.
        let bit1 = word | 0x0202_0202_0202_0202;
        bytes_below(word, b' ' + 1)
            | bytes_equal(word, b'"')
            | bytes_equal(bit1, b'>')
            | bytes_equal(bit1, b'^')
            | bytes_equal(word, b'`')
            | bytes_equal(word, b'{')
            | bytes_equal(word, b'|')
            | bytes_equal(word, b'}')
    },
};

/// The table of a string closed by `quote`: all bytes but the control
/// characters, the quote and `\` are plain.
const fn string_table(quote: u8) -> [u8; 256] {
    let mut table = [PLAIN; 256];
    let mut b = 0;
    while b < b' ' as usize {
        table[b] = SPECIAL;
        b += 1;
    }
    table[quote as usize] = CLOSE;
    table[b'\\' as usize] = ESCAPE;
    table
}

/// `"…"` bytes.
pub(crate) const LITERAL: ByteClass = ByteClass {
    table: string_table(b'"'),
    stops: |word| bytes_below(word, b' ') | bytes_equal(word, b'"') | bytes_equal(word, b'\\'),
};

/// `'…'` bytes (Turtle and SPARQL).
pub(crate) const LITERAL_SINGLE: ByteClass = ByteClass {
    table: string_table(b'\''),
    stops: |word| bytes_below(word, b' ') | bytes_equal(word, b'\'') | bytes_equal(word, b'\\'),
};

/// One in every byte.
const ONES: u64 = 0x0101_0101_0101_0101;
/// The high bit of every byte.
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Flags the bytes of `word` below `n` (`n` ≤ 0x80). A flagged byte's
/// borrow may flag a byte above it too, never one below.
#[inline]
fn bytes_below(word: u64, n: u8) -> u64 {
    word.wrapping_sub(ONES * u64::from(n)) & !word & HIGHS
}

/// Flags the bytes of `word` equal to `byte`, with the same caveat.
#[inline]
fn bytes_equal(word: u64, byte: u8) -> u64 {
    bytes_below(word ^ (ONES * u64::from(byte)), 1)
}

/// The length of the run of [`PLAIN`] bytes `bytes` starts with.
#[inline]
pub(crate) fn plain_run(bytes: &[u8], class: &ByteClass) -> usize {
    let mut run = 0;
    while let Some(word) = bytes.get(run..run + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        let stops = (class.stops)(word);
        if stops != 0 {
            return run + stops.trailing_zeros() as usize / 8;
        }
        run += 8;
    }
    let tail = &bytes[run..];
    run + tail
        .iter()
        .position(|&byte| class.table[byte as usize] != PLAIN)
        .unwrap_or(tail.len())
}

/// A byte cursor over a text. Between method calls `pos` rests on a
/// character boundary: the runs stop only at ASCII bytes or the end of the
/// text, and everything else advances by whole characters. The term
/// methods never move past a line end.
pub struct Cursor<'t> {
    text: &'t str,
    bytes: &'t [u8],
    /// The byte offset of the next byte to read; a caller that moves it
    /// must leave it on a character boundary.
    pub pos: usize,
    /// Whether `\n` and `\r\n` end a line (a document), or only the end of
    /// the text does (a lone literal).
    lines: bool,
}

impl<'t> Cursor<'t> {
    /// A cursor at the start of `text`; `lines` says whether line ends
    /// end terms (and count lines), or the whole text is one line.
    #[inline]
    pub fn new(text: &'t str, lines: bool) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            lines,
        }
    }

    /// The whole text.
    #[inline]
    pub fn text(&self) -> &'t str {
        self.text
    }

    /// The byte at the cursor, a line end included.
    #[inline]
    pub fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The text from the cursor on.
    #[inline]
    pub fn rest(&self) -> &'t str {
        &self.text[self.pos..]
    }

    /// The 1-based line and character column of byte `offset`.
    pub fn position(&self, offset: usize) -> (usize, usize) {
        let before = &self.bytes[..offset];
        let line_start = match self.lines {
            true => before
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |n| n + 1),
            false => 0,
        };
        let line = 1 + before[..line_start].iter().filter(|&&b| b == b'\n').count();
        // Counting the bytes that start a character never slices the text.
        let column = 1 + before[line_start..]
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count();
        (line, column)
    }

    /// An error at byte `offset`.
    pub fn error_at(&self, offset: usize, message: impl Into<String>) -> LexError {
        let (line, column) = self.position(offset);
        LexError {
            line,
            column,
            message: message.into(),
        }
    }

    /// An error at the cursor.
    pub fn error(&self, message: impl Into<String>) -> LexError {
        self.error_at(self.pos, message)
    }

    /// Whether the cursor is at the end of its line: the end of the text,
    /// or with lines a `\n` or the `\r` of a `\r\n`.
    #[inline]
    pub fn at_end(&self) -> bool {
        match self.bytes.get(self.pos) {
            None => true,
            Some(b'\n') => self.lines,
            Some(b'\r') => self.lines && self.bytes.get(self.pos + 1) == Some(&b'\n'),
            Some(_) => false,
        }
    }

    /// Where the line after the cursor's starts: past the next `\n`, or
    /// the end of the text.
    #[inline]
    pub fn next_line(&self) -> usize {
        let rest = &self.bytes[self.pos..];
        rest.iter()
            .position(|&b| b == b'\n')
            .map_or(self.bytes.len(), |at| self.pos + at + 1)
    }

    /// The byte at the cursor; `None` at the end of the line.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        match self.at_end() {
            true => None,
            false => Some(self.bytes[self.pos]),
        }
    }

    /// The character at the cursor, a line end included.
    #[inline]
    pub fn peek_char(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// Consume one character of any width, a line end included.
    #[inline]
    pub fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Consume one character of the line; `None` at its end.
    fn bump_in_line(&mut self) -> Option<char> {
        match self.at_end() {
            true => None,
            false => self.bump_char(),
        }
    }

    /// Advance over the characters `keep` accepts (line ends included);
    /// the text passed over. ASCII bytes are tested as bytes, other
    /// characters decoded.
    #[inline]
    pub fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'t str {
        let start = self.pos;
        while let Some(byte) = self.byte() {
            match byte < 0x80 {
                true if keep(byte as char) => self.pos += 1,
                true => break,
                false => match self.peek_char() {
                    Some(c) if keep(c) => self.pos += c.len_utf8(),
                    _ => break,
                },
            }
        }
        &self.text[start..self.pos]
    }

    /// Consume the ASCII character `expected`.
    #[inline]
    pub fn expect(&mut self, expected: u8) -> Result<(), LexError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            return Ok(());
        }
        Err(self.unexpected(expected))
    }

    /// The error of an [`expect`](Self::expect) that found another
    /// character, which it consumes.
    #[cold]
    fn unexpected(&mut self, expected: u8) -> LexError {
        let expected = expected as char;
        match self.bump_in_line() {
            Some(c) => self.error(format!("expected '{expected}', found '{c}'")),
            None => self.error(format!("expected '{expected}', found end of line")),
        }
    }

    /// Advance over the bytes `class` calls [`PLAIN`]; the byte that ended
    /// the run, `None` at the end of the text.
    #[inline]
    fn skip_plain(&mut self, class: &ByteClass) -> Option<u8> {
        self.pos += plain_run(&self.bytes[self.pos..], class);
        self.bytes.get(self.pos).copied()
    }

    /// Move the clean run before an escape (the cursor is on its `\`) into
    /// `scratch`, emptying it first if this is the term's first escape.
    fn flush_before_escape(&self, start: usize, clean_from: Option<usize>, scratch: &mut String) {
        if clean_from.is_none() {
            scratch.clear();
        }
        scratch.push_str(&self.text[clean_from.unwrap_or(start)..self.pos]);
    }

    /// The text of a term that began at `start` and ends at the cursor: a
    /// slice of the text, or `None` once an escape moved it to `scratch`
    /// (`clean_from` is where the run after the last escape began).
    #[inline]
    fn term(
        &self,
        start: usize,
        clean_from: Option<usize>,
        scratch: &mut String,
    ) -> Option<&'t str> {
        match clean_from {
            None => Some(&self.text[start..self.pos]),
            Some(clean_from) => {
                scratch.push_str(&self.text[clean_from..self.pos]);
                None
            }
        }
    }

    /// `<…>`: the IRI between the brackets, or `None` when an escape put
    /// its decoded text in `scratch`.
    #[inline]
    pub fn iri(&mut self, scratch: &mut String) -> Result<Option<&'t str>, LexError> {
        self.expect(b'<')?;
        let start = self.pos;
        let mut clean_from = None;
        loop {
            let Some(byte) = self.skip_plain(&IRI) else {
                return Err(self.error("unterminated IRI"));
            };
            match IRI.table[byte as usize] {
                CLOSE => break,
                ESCAPE => {
                    self.flush_before_escape(start, clean_from, scratch);
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'u' | b'U') => self.unicode_escape_body()?,
                        Some(_) => {
                            let c = self.peek_char().expect("a byte is present");
                            return Err(self.error(format!("invalid IRI escape '\\{c}'")));
                        }
                        None => return Err(self.error("unterminated escape")),
                    };
                    // Decoded, the character must be one IRIREF allows.
                    if c.is_ascii() && IRI.table[c as usize] != PLAIN {
                        return Err(self.error(format!("character '{c}' not allowed in IRI")));
                    }
                    scratch.push(c);
                    clean_from = Some(self.pos);
                }
                _ if self.at_end() => return Err(self.error("unterminated IRI")),
                _ => {
                    // Forbidden bytes are all ASCII.
                    self.pos += 1;
                    return Err(
                        self.error(format!("character '{}' not allowed in IRI", byte as char))
                    );
                }
            }
        }
        let iri = self.term(start, clean_from, scratch);
        self.pos += 1; // the closing '>'
        if iri == Some("") {
            return Err(self.error("empty IRI"));
        }
        Ok(iri)
    }

    /// A string in `quote`s (`"` or `'`): the text between the quotes, or
    /// `None` when an escape put its decoded text in `scratch`; and whether
    /// the text holds a raw control character.
    #[inline]
    pub fn string(
        &mut self,
        quote: u8,
        scratch: &mut String,
    ) -> Result<(Option<&'t str>, bool), LexError> {
        let class = match quote {
            b'\'' => &LITERAL_SINGLE,
            _ => &LITERAL,
        };
        self.expect(quote)?;
        let start = self.pos;
        let mut clean_from = None;
        let mut control = false;
        loop {
            let Some(byte) = self.skip_plain(class) else {
                return Err(self.error("unterminated literal"));
            };
            match class.table[byte as usize] {
                CLOSE => break,
                ESCAPE => {
                    self.flush_before_escape(start, clean_from, scratch);
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'u' | b'U') => self.unicode_escape_body()?,
                        Some(byte) => {
                            let c = match byte {
                                b't' => '\t',
                                b'b' => '\u{8}',
                                b'n' => '\n',
                                b'r' => '\r',
                                b'f' => '\u{c}',
                                b'"' | b'\'' | b'\\' => byte as char,
                                _ => {
                                    let c = self.peek_char().expect("a byte is present");
                                    return Err(self.error(format!("invalid escape '\\{c}'")));
                                }
                            };
                            self.pos += 1;
                            c
                        }
                        None => return Err(self.error("unterminated escape")),
                    };
                    scratch.push(c);
                    clean_from = Some(self.pos);
                }
                _ if self.at_end() => return Err(self.error("unterminated literal")),
                _ => {
                    // A raw control character: accepted, never canonical.
                    control = true;
                    self.pos += 1;
                }
            }
        }
        let text = self.term(start, clean_from, scratch);
        self.pos += 1; // the closing quote
        Ok((text, control))
    }

    /// `@` and a language tag; the tag.
    #[inline]
    pub fn lang_tag(&mut self) -> Result<&'t str, LexError> {
        self.expect(b'@')?;
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'-') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("empty language tag"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// `_:label`; the label.
    pub fn blank_node(&mut self) -> Result<&'t str, LexError> {
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        while let Some(byte) = self.peek() {
            if byte.is_ascii() {
                if !(byte.is_ascii_alphanumeric() || matches!(byte, b'_' | b'-' | b'.')) {
                    break;
                }
                self.pos += 1;
            } else {
                match self.peek_char() {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        // A trailing '.' belongs to the statement terminator, not the label.
        while self.pos > start && self.bytes[self.pos - 1] == b'.' {
            self.pos -= 1;
        }
        if self.pos == start {
            return Err(self.error("empty blank node label"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// At `u`/`U`; consumes it plus 4 or 8 hex digits.
    fn unicode_escape_body(&mut self) -> Result<char, LexError> {
        let width = if self.peek() == Some(b'u') { 4 } else { 8 };
        self.pos += 1;
        let mut value: u32 = 0;
        for _ in 0..width {
            // A rejected character is consumed first, as the column shows.
            let digit = self
                .bump_in_line()
                .and_then(|c| c.to_digit(16))
                .ok_or_else(|| self.error("invalid unicode escape digit"))?;
            value = value * 16 + digit;
        }
        char::from_u32(value).ok_or_else(|| self.error(format!("invalid code point U+{value:X}")))
    }
}
