//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around each call it
//! makes into a layer; nothing inside the program is instrumented. A
//! disabled tracer records nothing, so the untraced pass pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use sdm_util::Json;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    iter: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    paused: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            paused: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Stops recording (an untraced iteration inside a traced run) or
    /// resumes it; a tracer built disabled stays disabled.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Runs `f` with recording stopped: a warm-up inside a traced run.
    pub fn unrecorded<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let was = std::mem::replace(&mut self.paused, true);
        let out = f(self);
        self.paused = was;
        out
    }

    /// Whether spans are being recorded right now.
    pub fn recording(&self) -> bool {
        self.enabled && !self.paused
    }

    /// Sets the iteration id stamped on subsequent spans.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Opens a span named after the layer being called (`crate.module`),
    /// as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.recording() {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            iter: self.iter,
        });
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must nest");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// [`Tracer::exit`] for a span whose proper name is only known once
    /// the call returns (a solve turns out warm or cold).
    pub fn exit_as(&mut self, id: SpanId, name: &'static str) {
        if let Some(idx) = id.0 {
            self.spans[idx].name = name;
        }
        self.exit(id);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total milliseconds spent in spans called `name` during each
    /// iteration that has one, in iteration order.
    pub fn per_iter_ms(&self, name: &str) -> Vec<f64> {
        let mut by_iter: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_iter.entry(s.iter).or_default() += s.end_ns - s.start_ns;
        }
        by_iter.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Median over iterations of [`Tracer::per_iter_ms`].
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::metrics::median(&self.per_iter_ms(name))
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Serialises every span (one per line) plus a per-name summary
    /// (count, total and self milliseconds).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let num = |n: u64| Json::Num(n as f64);
        let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
        let mut summary: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own_ns;
        }
        let summary = Json::obj(summary.into_iter().map(|(name, (count, total, own))| {
            let entry = Json::obj([
                ("count", num(count)),
                ("total_ms", ms(total)),
                ("self_ms", ms(own)),
            ]);
            (name, entry)
        }));
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", num(i as u64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", num(s.start_ns)),
                    ("end_ns", num(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as u64))),
                    ("iter", num(u64::from(s.iter))),
                ])
                .to_compact_string()
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"summary\": {summary},\n\"spans\": [\n{}\n]}}\n",
            Json::Str(workload.to_string()),
            spans.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let own = t.self_ns();
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        let child = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(own[0], total - child);
        assert_eq!(t.per_iter_ms("inner").len(), 1);
        sdm_util::Json::parse(&t.to_json("w", 1)).expect("trace is valid JSON");

        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.spans.is_empty());
    }
}
