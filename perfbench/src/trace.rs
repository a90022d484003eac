//! In-memory span recorder for the traced runs.
//!
//! A span is `(id, parent, name, rank, step, start, end)` on one clock shared
//! by every rank of a run. Spans stay in memory while the run measures and
//! are written out as a Chrome/Perfetto trace (`chrome://tracing`,
//! ui.perfetto.dev) when it ends. A disabled recorder never reads the clock.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, times in microseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub rank: usize,
    /// Index of the episode (one world launch) the span belongs to.
    pub episode: usize,
    /// Step index within the episode, for spans inside a training step.
    pub step: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A span opened with [`Tracer::open`] and not yet closed.
pub struct Open {
    id: u64,
    start_us: f64,
}

impl Open {
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

/// Per-rank span recorder (one per rank thread; not shared).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rank: usize,
    episode: usize,
    step: Cell<Option<usize>>,
    next: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, rank: usize, episode: usize) -> Self {
        Tracer {
            enabled,
            epoch,
            rank,
            episode,
            step: Cell::new(None),
            next: Cell::new(1),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag later spans with a step index (`None` outside the step loop).
    pub fn set_step(&self, step: Option<usize>) {
        self.step.set(step);
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span whose children are recorded before it closes. A
    /// disabled tracer returns a handle with no id and reads no clock.
    pub fn open(&self) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                start_us: 0.0,
            };
        }
        let n = self.next.get();
        self.next.set(n + 1);
        // Ranks share the id space: the rank sits in the high bits.
        let id = ((self.rank as u64) << 48) | n;
        Open {
            id,
            start_us: self.now_us(),
        }
    }

    pub fn close(&self, open: Open, name: &'static str, parent: Option<u64>) {
        if !self.enabled {
            return;
        }
        let end_us = self.now_us();
        self.spans.borrow_mut().push(Span {
            id: open.id,
            parent,
            name,
            rank: self.rank,
            episode: self.episode,
            step: self.step.get(),
            start_us: open.start_us,
            end_us,
        });
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let open = self.open();
        let out = f();
        self.close(open, name, parent);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Render spans as a Chrome trace-event JSON document: one complete ("X")
/// event per span, `pid` = episode, `tid` = rank.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let step = s.step.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"step\":{}}}}}",
            s.name,
            s.start_us,
            s.end_us - s.start_us,
            s.episode,
            s.rank,
            s.id,
            parent,
            step
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now(), 0, 0);
        let v = t.span("x", None, || 7);
        assert_eq!(v, 7);
        assert!(t.open().id().is_none());
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn children_point_at_their_parent() {
        let t = Tracer::new(true, Instant::now(), 1, 3);
        t.set_step(Some(4));
        let step = t.open();
        let parent = step.id();
        t.span("child", parent, || ());
        t.close(step, "step", None);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id.into());
        assert_eq!(spans[0].step, Some(4));
        assert!(spans[1].id >> 48 == 1);
        let json = chrome_json(&spans);
        assert!(json.contains("\"tid\":1") && json.contains("\"pid\":3"));
    }
}
