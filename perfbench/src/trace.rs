//! Spans recorded by the benchmark around each call it makes into a
//! layer. Each client thread owns a [`Tracer`]; spans stay in memory and
//! are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point, e.g. `serve.wire_call`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// A started span: [`Tracer::end`] closes it and returns its length.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// An in-memory span recorder. Disabled, it still times every span (the
/// untraced run's measurements come from the same calls) but records
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `origin`.
    #[must_use]
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (spans already kept stay).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` under `parent` for operation `op`.
    pub fn begin(&mut self, name: &'static str, parent: Option<Open>, op: u64) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: parent.and_then(|p| p.index),
                op,
            });
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes `open`; returns its length in milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns(now);
        }
        now.duration_since(open.start).as_secs_f64() * 1e3
    }

    /// Times `f` as one span; returns its result and length in ms.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.begin(name, parent, op);
        let out = f();
        (out, self.end(open))
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Renders the spans of several tracers as tab-separated rows:
/// `thread id parent op name start_ns end_ns` (ids are per thread).
#[must_use]
pub fn render(tracers: &[&Tracer]) -> String {
    let mut out = String::from("thread\tid\tparent\top\tname\tstart_ns\tend_ns\n");
    for (thread, tracer) in tracers.iter().enumerate() {
        for (id, s) in tracer.spans().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{thread}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
    out
}

/// Writes the spans under the benchmark's `out/` directory; returns the
/// path written.
///
/// # Errors
///
/// IO errors from creating the directory or writing the file.
pub fn write_out(workload: &str, seed: u64, tracers: &[&Tracer]) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{workload}-seed{seed}.tsv");
    std::fs::write(&path, render(tracers))?;
    Ok(path)
}
