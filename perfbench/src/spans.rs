//! In-memory spans around the public calls the traced run makes.
//!
//! A span has a layer name, a route label, start and end, the span it
//! was opened under and the request it belongs to. Spans stay in memory
//! until the run ends; self time is a span's duration minus the time
//! its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer, e.g. `router.dispatch`.
    pub layer: &'static str,
    /// Route label, empty when the layer is route-independent.
    pub route: &'static str,
    /// Start, ns after the tracer was created.
    pub start_ns: u64,
    /// End, ns after the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 outside requests).
    pub request: u64,
}

/// Records spans when enabled; costs one branch per call when not.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// Returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, route: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            route,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        route: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(layer, route);
        let out = f();
        self.exit(open);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns, indexed like [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Self times in µs grouped by (layer, route).
    pub fn self_times_us(&self) -> BTreeMap<(&'static str, &'static str), Vec<f64>> {
        let mut out: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry((s.layer, s.route))
                .or_default()
                .push(ns as f64 / 1e3);
        }
        out
    }

    /// The spans as TSV: index, request, parent, layer, route, start and
    /// end in ns, self time in ns.
    pub fn to_tsv(&self) -> String {
        let mut out =
            String::from("span\trequest\tparent\tlayer\troute\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.request, s.layer, s.route, s.start_ns, s.end_ns
            )
            .expect("writing to a String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.next_request();
        let root = t.enter("request", "crowd");
        let child = t.enter("router.dispatch", "crowd");
        let grandchild = t.enter("inner", "");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(grandchild);
        t.exit(child);
        t.exit(root);
        let own = t.self_times_ns();
        let total: Vec<u64> = t.spans().iter().map(|s| s.end_ns - s.start_ns).collect();
        assert_eq!(own[2], total[2]);
        assert_eq!(own[1], total[1] - total[2]);
        assert_eq!(own[0], total[0] - total[1]);
        assert!(t.spans().iter().all(|s| s.request == 1));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.to_tsv().lines().count(), 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.time("http.parse", "", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
