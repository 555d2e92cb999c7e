//! Spans recorded from outside the program: the benchmark stamps the
//! clock around each call it makes into a crate's public API, keeps the
//! spans in memory, and writes them out as a Chrome trace-event file
//! when the run ends.
//!
//! Every span carries the id of the request (or decision wave) it
//! belongs to and the index of the span that caused it, so one wave's
//! pops, submits, collect and env steps line up under the wave's span.
//! Per-layer totals cover every span; only the first `keep` spans are
//! retained for the file, which bounds its size on long runs.
//!
//! Stamps are raw time-stamp-counter ticks on x86-64 (about half the
//! cost of an `Instant` read on virtual machines), calibrated against
//! `Instant` over the tracer's lifetime when converted to nanoseconds.

use std::io::Write;
use std::time::Instant;

/// A raw clock reading; see [`now`].
pub type Tick = u64;

/// Read the span clock.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn now() -> Tick {
    // SAFETY: `rdtsc` has no preconditions on x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn now() -> Tick {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One retained span, in clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: u16,
    pub id: u64,
    /// Index of the causing span in the retained list, if retained.
    pub parent: Option<u32>,
    pub start: Tick,
    pub end: Tick,
}

/// Running totals of one layer, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTotal {
    ticks: u64,
    calls: u64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: (Instant, Tick),
    names: &'static [&'static str],
    spans: Vec<Span>,
    keep: usize,
    dropped: u64,
    totals: Vec<LayerTotal>,
}

impl Tracer {
    /// A recorder over the layers `names` (a span names its layer by
    /// index), retaining at most `keep` spans.
    pub fn new(names: &'static [&'static str], keep: usize) -> Tracer {
        Tracer {
            origin: (Instant::now(), now()),
            names,
            spans: Vec::with_capacity(keep.min(1 << 20)),
            keep,
            dropped: 0,
            totals: vec![LayerTotal::default(); names.len()],
        }
    }

    /// Record a finished span; returns its index when retained.
    #[inline]
    pub fn record(
        &mut self,
        layer: usize,
        id: u64,
        parent: Option<u32>,
        start: Tick,
        end: Tick,
    ) -> Option<u32> {
        let total = &mut self.totals[layer];
        total.ticks += end.saturating_sub(start);
        total.calls += 1;
        if self.spans.len() >= self.keep {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            layer: layer as u16,
            id,
            parent,
            start,
            end,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Open a span whose end is not known yet (a wave that encloses the
    /// spans of its decisions); close it with [`Tracer::close`].
    pub fn open(&mut self, layer: usize, id: u64, start: Tick) -> Option<u32> {
        self.record(layer, id, None, start, start)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, layer: usize, index: Option<u32>, start: Tick, end: Tick) {
        self.totals[layer].ticks += end.saturating_sub(start);
        if let Some(i) = index {
            self.spans[i as usize].end = end;
        }
    }

    /// Nanoseconds per clock tick, measured against `Instant` since the
    /// tracer was made.
    pub fn ns_per_tick(&self) -> f64 {
        let ticks = now().saturating_sub(self.origin.1).max(1);
        self.origin.0.elapsed().as_nanos() as f64 / ticks as f64
    }

    /// Total nanoseconds spent in a layer.
    pub fn total_ns(&self, layer: usize) -> f64 {
        self.totals[layer].ticks as f64 * self.ns_per_tick()
    }

    /// Calls recorded for a layer.
    #[cfg(test)]
    pub fn calls(&self, layer: usize) -> u64 {
        self.totals[layer].calls
    }

    /// Write the retained spans as a Chrome trace-event document
    /// (`chrome://tracing`, Perfetto). `meta` lands in the document's
    /// `metadata` object as string pairs.
    pub fn write_chrome(
        &self,
        path: &std::path::Path,
        meta: &[(&str, String)],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome_to(&mut w, meta)?;
        w.flush()
    }

    fn write_chrome_to(&self, w: &mut impl Write, meta: &[(&str, String)]) -> std::io::Result<()> {
        write!(w, "{{\"displayTimeUnit\":\"ns\",\"metadata\":{{")?;
        let mut first = true;
        let dropped = self.dropped.to_string();
        for (k, v) in meta
            .iter()
            .map(|(k, v)| (*k, v.as_str()))
            .chain([("spans_dropped", dropped.as_str())])
        {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(w, "\"{}\":\"{}\"", escape(k), escape(v))?;
        }
        write!(w, "}},\"traceEvents\":[")?;
        let scale = self.ns_per_tick() / 1e3;
        let us = |t: Tick| t.saturating_sub(self.origin.1) as f64 * scale;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
                self.names[s.layer as usize],
                us(s.start),
                us(s.end) - us(s.start),
                s.id
            )?;
            if let Some(p) = s.parent {
                write!(w, ",\"parent\":{p}")?;
            }
            write!(w, "}}}}")?;
        }
        writeln!(w, "]}}")
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["wave", "step"];

    #[test]
    fn totals_cover_dropped_spans_and_parents_link() {
        let mut t = Tracer::new(NAMES, 2);
        let t0 = now();
        let wave = t.open(0, 7, t0);
        let step = t.record(1, 7, wave, t0 + 100, t0 + 150);
        assert_eq!(step, Some(1));
        // Past the retention cap: counted, not kept.
        assert_eq!(t.record(1, 7, wave, t0 + 150, t0 + 180), None);
        t.close(0, wave, t0, t0 + 180);
        assert_eq!(t.calls(1), 2);
        assert_eq!(t.totals[1].ticks, 80);
        assert_eq!(t.totals[0].ticks, 180);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].end - t.spans[0].start, 180);

        let mut buf = Vec::new();
        t.write_chrome_to(&mut buf, &[("workload", "x\"y".into())])
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"traceEvents\":[{\"name\":\"wave\""));
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"spans_dropped\":\"1\""));
        assert!(text.contains("x\\\"y"));
    }

    #[test]
    fn ticks_convert_to_wall_time() {
        let t = Tracer::new(NAMES, 0);
        let (i0, t0) = (Instant::now(), now());
        while i0.elapsed() < std::time::Duration::from_millis(20) {}
        let ns = (now() - t0) as f64 * t.ns_per_tick();
        let wall = i0.elapsed().as_nanos() as f64;
        assert!((ns / wall - 1.0).abs() < 0.05, "{ns} vs {wall}");
    }
}
