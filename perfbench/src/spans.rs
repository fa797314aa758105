//! The benchmark's own spans: one around each public call it makes into the
//! program. Each span has a name, an id, its parent's id, a start and an
//! end. Spans are kept in memory and written out once, when the run ends;
//! with tracing off nothing is kept.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span, in nanoseconds since the run's start.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; close it with [`Spans::close`].
pub struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
}

/// The span recorder of one run (single-threaded: the run's main thread).
pub struct Spans {
    epoch: Instant,
    keep: bool,
    next_id: u64,
    stack: Vec<u64>,
    done: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, keep: bool) -> Spans {
        Spans {
            epoch,
            keep,
            next_id: 1,
            stack: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        Open {
            name,
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Closes `open` (which must be the innermost open span) and returns
    /// its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        let popped = self.stack.pop();
        assert_eq!(popped, Some(open.id), "spans must close innermost first");
        if self.keep {
            self.done.push(Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                start_ns: self.ns(open.start),
                end_ns: self.ns(end),
            });
        }
        end - open.start
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Total seconds of every kept span with the given parent, by name.
    pub fn children_of(&self, parent: u64) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in self.done.iter().filter(|s| s.parent == Some(parent)) {
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Total seconds of kept spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.done
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The id of the (first) kept span named `name`.
    pub fn id_of(&self, name: &str) -> Option<u64> {
        self.done.iter().find(|s| s.name == name).map(|s| s.id)
    }

    /// The kept spans as JSON lines, in closing order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.done {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}
