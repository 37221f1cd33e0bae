//! Spans recorded by the harness around its calls into each layer, kept
//! in memory and written when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Requests whose spans are written to the trace file (the metrics are
/// computed from all of them).
const WRITTEN_REQUESTS: u32 = 500;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// The span that caused this one; `None` for a request's root span.
    pub parent: Option<u32>,
    /// Shared by all spans of one request.
    pub request_id: u32,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn at(&self, instant: Instant) -> u64 {
        instant.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one finished span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request_id: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            id,
            parent,
            request_id,
        });
        id
    }

    /// Open a request's root span; [`Self::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, request_id: u32) -> u32 {
        let now = Instant::now();
        self.push(name, now, now, None, request_id)
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.at(Instant::now());
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request_id: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        self.push(name, start, Instant::now(), Some(parent), request_id);
        result
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }
}

/// Write the first [`WRITTEN_REQUESTS`] requests of each recorder as one
/// JSON document: `{"sources": {"<source>": [span, …], …}}`.
pub fn write_json(path: &Path, sources: &[(&str, &Recorder)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"sources\": {{")?;
    for (i, (source, recorder)) in sources.iter().enumerate() {
        write!(out, "{}\n\"{source}\": [", if i > 0 { "," } else { "" })?;
        let written = recorder
            .spans
            .iter()
            .filter(|s| s.request_id < WRITTEN_REQUESTS);
        for (j, s) in written.enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"id\": {}, \"parent\": {}, \"request_id\": {}}}",
                if j > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                parent,
                s.request_id
            )?;
        }
        write!(out, "\n]")?;
    }
    writeln!(out, "\n}}}}")?;
    out.flush()
}
