//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! calls into each layer; nothing inside the program is instrumented. A
//! span is `{name, id, parent, start_ns, end_ns, count}`; every traced
//! round has one root span named [`ROUND`] whose `count` is the round
//! index, and all spans of that round descend from it. Spans stay in
//! memory and are written out once, when the pass ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the per-round root span.
pub const ROUND: &str = "round";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// 1-based; 0 is "no span".
    pub id: u32,
    /// Id of the enclosing span (0 for a root).
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the unit its layer counts (items,
    /// bytes, clients; the round index on a root).
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an already finished leaf span that began at `start_ns`
    /// (as read from [`Self::now_ns`]) and ends now — for callers that
    /// learn what a stretch of time was only once it is over.
    pub fn record(&mut self, name: &'static str, start_ns: u64, count: u64) {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span { name, id, parent, start_ns, end_ns: self.now_ns(), count });
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, parent, start_ns, end_ns: start_ns, count: 0 });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, count: u64) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Records `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id, count);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-round layer sums, in round order.
    pub fn rounds(&self) -> Vec<RoundSums> {
        // self time = duration minus the direct children's durations
        let mut child_secs = vec![0.0f64; self.spans.len() + 1];
        for s in &self.spans {
            child_secs[s.parent as usize] += s.secs();
        }
        let mut root_of = vec![0u32; self.spans.len() + 1];
        let mut out: Vec<RoundSums> = Vec::new();
        let mut slot_of_root: BTreeMap<u32, usize> = BTreeMap::new();
        for s in &self.spans {
            if s.parent == 0 {
                if s.name != ROUND {
                    continue;
                }
                root_of[s.id as usize] = s.id;
                slot_of_root.insert(s.id, out.len());
                out.push(RoundSums {
                    round: s.count,
                    total_s: s.secs(),
                    children_s: child_secs[s.id as usize],
                    layers: BTreeMap::new(),
                });
                continue;
            }
            // parents are recorded before their children
            let root = root_of[s.parent as usize];
            root_of[s.id as usize] = root;
            let Some(&slot) = slot_of_root.get(&root) else { continue };
            let layer = out[slot].layers.entry(s.name).or_default();
            layer.secs += s.secs();
            layer.self_secs += s.secs() - child_secs[s.id as usize];
            layer.count += s.count;
            layer.calls += 1;
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut json = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(json, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns, s.count
            );
        }
        json.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json)
    }
}

/// What one layer (span name) did inside one traced round.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSum {
    pub secs: f64,
    pub self_secs: f64,
    pub count: u64,
    pub calls: u64,
}

pub struct RoundSums {
    pub round: u64,
    /// Duration of the round's root span.
    pub total_s: f64,
    /// Summed duration of the root's direct children.
    pub children_s: f64,
    pub layers: BTreeMap<&'static str, LayerSum>,
}

impl RoundSums {
    pub fn secs(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.secs)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.count)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.calls)
    }
}
