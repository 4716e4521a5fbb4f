//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a library layer; nothing inside the library is
//! instrumented. Each span keeps its name, start, end, parent and pass
//! id. A layer's self time is its duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed (or still open) span. Times are offsets from the
/// recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub pass: u32,
}

/// Span store plus the stack of currently open spans.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn on() -> Recorder {
        Recorder::with(true)
    }

    /// A recorder whose every call is a no-op: the untraced passes.
    pub fn off() -> Recorder {
        Recorder::with(false)
    }

    fn with(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the pass id stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Offset of `at` from the recorder's epoch.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.offset(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans must close in order");
        self.spans[id].end = self.offset(Instant::now());
    }

    /// Records an already-finished child of span `parent` from
    /// externally measured bounds (the campaign phases read from its
    /// telemetry journal).
    pub fn record(&mut self, name: &str, parent: usize, start: Duration, end: Duration) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: end.max(start),
            parent: Some(parent),
            pass: self.pass,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Per-(root span name, span name) totals: calls, total time and
    /// self time. Grouping by root keeps the traced passes apart from
    /// the set-ups and the probes.
    pub fn self_times(&self) -> BTreeMap<(&str, &str), (u64, Duration, Duration)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<(&str, &str), (u64, Duration, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let total = s.end - s.start;
            let covered = covered(&self.spans, &children[i], s.start, s.end);
            let e = out
                .entry((self.spans[root].name.as_str(), s.name.as_str()))
                .or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(covered);
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"pass\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.pass
            );
        }
        out
    }
}

/// Length of the union of the children's intervals clipped to
/// `[start, end]`.
fn covered(spans: &[Span], kids: &[usize], start: Duration, end: Duration) -> Duration {
    let mut iv: Vec<(Duration, Duration)> = kids
        .iter()
        .map(|&k| (spans[k].start.max(start), spans[k].end.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in iv {
        match &mut cur {
            Some((_, ce)) if a <= *ce => *ce = (*ce).max(b),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut r = Recorder::on();
        let root = r.enter("root");
        r.exit(root);
        let ms = Duration::from_millis;
        r.spans[root].start = ms(0);
        r.spans[root].end = ms(100);
        r.record("a", root, ms(10), ms(40));
        r.record("b", root, ms(30), ms(50));
        r.record("c", root, ms(90), ms(120));
        let t = r.self_times();
        assert_eq!(t[&("root", "root")].1, ms(100));
        // Children cover 10..50 and 90..100 of the root.
        assert_eq!(t[&("root", "root")].2, ms(50));
        assert_eq!(t[&("root", "a")].2, ms(30));
    }
}
