//! The benchmark's own in-memory span recorder. Spans are recorded from the
//! benchmark's side of each call into a layer (the engine is not edited);
//! they stay in memory and are written out once, when the run ends.
//!
//! A span's self time is its duration minus its children's durations, in
//! integer nanoseconds, so self times telescope: summed over a tree they
//! equal the root's duration exactly. [`Tracer::check_telescoping`] asserts
//! that for every tree before a trace is written.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The workload item (request, batch item) the span belongs to; spans
    /// of one item share it.
    pub item: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. A disabled tracer runs the closure and
/// records nothing, so the untraced timed sections pay one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer. Tracers that will be merged share one epoch.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. Spans opened by `f` through the
    /// tracer it is handed become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        item: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Append another thread's finished spans.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize]
                    .checked_sub(s.dur_ns())
                    .expect("children nest inside their parent on a monotonic clock");
            }
        }
        own
    }

    /// Assert Σ self = root duration, exactly, for every tree. Returns the
    /// number of trees.
    pub fn check_telescoping(&self) -> usize {
        let own = self.self_times();
        // Children are recorded after their parent, so one reverse pass
        // folds every subtree into its root.
        let mut subtree = own;
        let mut roots = 0;
        for i in (0..self.spans.len()).rev() {
            match self.spans[i].parent {
                Some(p) => subtree[p as usize] += subtree[i],
                None => {
                    assert_eq!(
                        subtree[i],
                        self.spans[i].dur_ns(),
                        "self times of tree {} do not telescope",
                        i
                    );
                    roots += 1;
                }
            }
        }
        roots
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *by.entry(s.name).or_insert(0) += own;
        }
        by
    }

    /// Durations (not self times) of every span with this name, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Sum of root durations: the wall time the trace accounts for.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Share of the traced time spent in spans whose name starts with one
    /// of `prefixes` (self time, so nothing is counted twice).
    pub fn share(&self, prefixes: &[&str]) -> f64 {
        let total = self.root_ns();
        if total == 0 {
            return 0.0;
        }
        let hit: u64 = self
            .self_by_name()
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, ns)| ns)
            .sum();
        hit as f64 / total as f64
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_times();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(i as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("item", Json::Num(s.item as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(own[i] as f64)),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: u64) -> u64 {
        (0..n).fold(0u64, |a, b| std::hint::black_box(a ^ b.wrapping_mul(31)))
    }

    #[test]
    fn self_times_telescope() {
        let mut t = Tracer::on(Instant::now());
        for item in 0..3 {
            t.span("item", item, |t| {
                busy(1000);
                t.span("extension", item, |t| {
                    t.span("geom.build", item, |_| busy(2000));
                    busy(500);
                });
                t.span("eval", item, |_| busy(3000));
            });
        }
        assert_eq!(t.check_telescoping(), 3);
        assert_eq!(t.spans().len(), 12);
        let by = t.self_by_name();
        let total: u64 = by.values().sum();
        assert_eq!(total, t.root_ns());
        let shares = t.share(&["geom."]) + t.share(&["eval", "extension", "item"]);
        assert!((shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_records_nothing_and_absorb_rebases_parents() {
        let mut off = Tracer::off();
        assert_eq!(off.span("x", 0, |_| 7), 7);
        assert!(off.spans().is_empty());

        let epoch = Instant::now();
        let mut a = Tracer::on(epoch);
        a.span("a", 0, |t| t.span("a.child", 0, |_| ()));
        let mut b = Tracer::on(epoch);
        b.span("b", 1, |t| t.span("b.child", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.check_telescoping(), 2);
        assert_eq!(a.to_jsonl().lines().count(), 4);
    }
}
