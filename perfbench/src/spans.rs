//! Spans around the benchmark's calls into each layer.
//!
//! A disabled [`Tracer`] only runs the closures, so the untraced run
//! pays nothing. An enabled one records, per span, its wall time, its
//! parent, and the heap traffic it caused (the bench crate's counting
//! allocator); a span opened with [`Tracer::leaf`] also resets
//! the process `VmHWM` at its start and reads it at its end, so its
//! peak RSS is its own rather than the process's history.

use std::collections::BTreeMap;
use std::time::Instant;

use edonkey_bench::alloc;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    secs: f64,
    allocs: u64,
    peak_rss_kb: Option<u64>,
}

#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, false, f)
    }

    /// [`Tracer::span`] that also records the span's own peak RSS.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, true, f)
    }

    fn record<T>(&mut self, name: &'static str, peak: bool, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            secs: 0.0,
            allocs: 0,
            peak_rss_kb: None,
        });
        self.open.push(id);
        if peak {
            reset_peak_rss();
        }
        let allocs = alloc::snapshot();
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.secs = secs;
        span.allocs = alloc::since(allocs).count;
        if peak {
            span.peak_rss_kb = alloc::peak_rss_kb();
        }
        self.open.pop();
        out
    }

    /// Adds `value` to the counter `name` (no-op when disabled).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.on {
            *self.counters.entry(name.to_string()).or_insert(0.0) += value;
        }
    }

    /// Raises the counter `name` to at least `value` (no-op when
    /// disabled).
    pub fn max(&mut self, name: &str, value: f64) {
        if self.on {
            let slot = self.counters.entry(name.to_string()).or_insert(value);
            *slot = slot.max(value);
        }
    }

    /// Children never exceed their parent: the summed wall time of a
    /// span's direct children is at most its own.
    pub fn reconcile(&self) -> Result<(), String> {
        for (id, span) in self.spans.iter().enumerate() {
            let children = self.children_secs(id);
            if children > span.secs {
                return Err(format!(
                    "children of {} sum to {children:.6} s > its {:.6} s",
                    span.name, span.secs
                ));
            }
        }
        Ok(())
    }

    fn children_secs(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.secs)
            .sum()
    }

    /// Per-layer metrics: each span's wall time summed under its name,
    /// allocation counts under `<base>.allocs` for spans named
    /// `<base>.s`, `<base>.unattributed_s` (parent time no child covers)
    /// for spans with children, leaf peaks under `<base>.peak_rss_mb`
    /// (`<base>` is the name without its `.s` or `_s` suffix), and the
    /// counters.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out = self.counters.clone();
        for (id, span) in self.spans.iter().enumerate() {
            *out.entry(span.name.to_string()).or_insert(0.0) += span.secs;
            let base = span.name.strip_suffix(".s").unwrap_or(span.name);
            let base = base.strip_suffix("_s").unwrap_or(base);
            if span.name.ends_with(".s") {
                *out.entry(format!("{base}.allocs")).or_insert(0.0) += span.allocs as f64;
            }
            if let Some(kb) = span.peak_rss_kb {
                let mb = out.entry(format!("{base}.peak_rss_mb")).or_insert(0.0);
                *mb = mb.max(kb as f64 / 1024.0);
            }
            if self.spans.iter().any(|s| s.parent == Some(id)) {
                *out.entry(format!("{base}.unattributed_s")).or_insert(0.0) +=
                    span.secs - self.children_secs(id);
            }
        }
        out
    }
}

/// Resets the process `VmHWM` to the current RSS (Linux `clear_refs`
/// mode 5); a no-op where procfs does not offer it.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("run", |tr| tr.span("leaf.s", |_| 7));
        tr.count("n", 1.0);
        assert_eq!(v, 7);
        assert!(tr.spans.is_empty() && tr.metrics().is_empty());
    }

    #[test]
    fn children_reconcile_and_unattributed_time_is_reported() {
        let mut tr = Tracer::new(true);
        tr.span("run", |tr| {
            tr.span("a.s", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b_s", |_| ());
        });
        assert_eq!(tr.reconcile(), Ok(()));
        let m = tr.metrics();
        assert!(m["a.s"] >= 0.002);
        assert!(m.contains_key("a.allocs") && !m.contains_key("b_s.allocs"));
        let unattributed = m["run.unattributed_s"];
        assert!((m["run"] - m["a.s"] - m["b_s"] - unattributed).abs() < 1e-12);
    }
}
