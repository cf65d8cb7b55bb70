//! In-memory spans and the per-layer report of a traced run.
//!
//! A traced run times each call the benchmark makes into a layer's
//! public functions as a [`Span`]: layer name, the enclosing layer, the
//! request that caused it, and its start and end. Spans stay in memory
//! until the run ends and are then written to `out/`. A layer's self
//! time is its own time per request minus that of the layers it calls
//! (timed on the same inputs), so the self times of a request path add
//! up to the outermost layer's time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::{Window, PER_LAYER};

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request (or input) the call served.
    pub request: u64,
    /// Layer metric stem, e.g. `vision.render`.
    pub name: &'static str,
    /// The layer whose work this call is part of.
    pub parent: &'static str,
    /// Start, in ns since the run began.
    pub start_ns: u64,
    /// End, in ns since the run began.
    pub end_ns: u64,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `f` as one span of layer `name` under `parent`.
    pub fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        out
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Moves another tracer's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Calls of layer `name`.
    pub fn count(&self, name: &str) -> usize {
        self.of(name).count()
    }

    /// Summed duration of layer `name` (µs).
    pub fn total_us(&self, name: &str) -> f64 {
        self.of(name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Mean duration of one call of layer `name` (µs; 0 if never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.total_us(name) / self.count(name).max(1) as f64
    }

    /// Writes every span as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("request,name,parent,start_ns,end_ns\n");
        for s in &self.spans {
            writeln!(
                text,
                "{},{},{},{},{}",
                s.request, s.name, s.parent, s.start_ns, s.end_ns
            )
            .expect("write to string");
        }
        std::fs::write(path, text)
    }
}

/// The per-layer result of a traced run.
#[derive(Debug)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Self time per request (µs) of each layer on the workload's
    /// request path; they add up to the traced request time.
    path: Vec<(&'static str, f64)>,
    /// Request-time p50 with tracing on and off (µs).
    traced_p50_us: f64,
    untraced_p50_us: f64,
    notes: Vec<String>,
}

impl Layers {
    /// Every [`PER_LAYER`] metric at 0, to be filled in.
    pub fn new() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
            path: Vec::new(),
            traced_p50_us: 0.0,
            untraced_p50_us: 0.0,
            notes: Vec::new(),
        }
    }

    /// Sets one per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    /// Records the request path's self times per request (µs).
    pub fn set_path(&mut self, path: Vec<(&'static str, f64)>) {
        self.path = path;
    }

    /// Records the end-to-end request time (p50) of the traced and the
    /// untraced phase; the difference is the tracing overhead.
    pub fn set_overhead(&mut self, traced: &Window, untraced: &Window) {
        self.traced_p50_us = traced.percentile_us(0.5);
        self.untraced_p50_us = untraced.percentile_us(0.5);
        self.set("trace.requests", traced.completed() as f64);
        self.set(
            "trace.overhead_us",
            self.traced_p50_us - self.untraced_p50_us,
        );
    }

    /// Adds a line to the printed report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics in [`PER_LAYER`] order.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.values[name], unit))
    }

    /// Prints every metric, then the request path's self times with
    /// each layer's share of the summed layer work (the positive self
    /// times; a negative self time is work its sub-layers did in
    /// parallel), the dominant layer, and the tracing overhead.
    pub fn print(&self) {
        for (name, value, unit) in self.metrics() {
            println!("  {name:<36} {value:>14.3} {unit}");
        }
        let work: f64 = self.path.iter().map(|&(_, us)| us.max(0.0)).sum();
        println!(
            "  request path, self time per request (share of {work:.1} us summed layer work):"
        );
        let mut path = self.path.clone();
        path.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, us) in &path {
            println!(
                "    {name:<28} {us:>12.2} us  {:>6.1}%",
                100.0 * us / work.max(f64::MIN_POSITIVE)
            );
        }
        if let Some((name, us)) = path.first() {
            println!(
                "  dominant layer: {name} ({:.1}% of summed layer work)",
                100.0 * us / work.max(f64::MIN_POSITIVE)
            );
        }
        println!(
            "  tracing overhead: traced p50 {:.2} us - untraced p50 {:.2} us = {:.2} us ({:+.1}%)",
            self.traced_p50_us,
            self.untraced_p50_us,
            self.traced_p50_us - self.untraced_p50_us,
            100.0 * (self.traced_p50_us - self.untraced_p50_us)
                / self.untraced_p50_us.max(f64::MIN_POSITIVE)
        );
        for line in &self.notes {
            println!("  {line}");
        }
    }
}

/// Writes the run's spans to `out/spans-<workload>-seed<seed>.csv` and
/// notes where they went.
pub fn save_spans(tracer: &Tracer, args: &crate::Args, layers: &mut Layers) -> Result<(), String> {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    tracer
        .write_csv(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    layers.note(format!(
        "{} spans written to {}",
        tracer.span_count(),
        path.display()
    ));
    Ok(())
}
