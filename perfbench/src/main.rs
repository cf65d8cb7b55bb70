//! The repository benchmark.
//!
//! Drives one of three closed-loop workloads through the workspace's
//! public entry points, checks every output, and prints the metrics as
//! the last line of standard output, one JSON object. `--trace 0` gives
//! the end-to-end metrics; `--trace 1` gives the per-layer attribution
//! from a separate traced pass over the same inputs. `README.md` beside
//! this package lists every metric, its unit and direction, and why each
//! workload exists.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload closed_loop_50 --seed 7 --seconds 20 --trace 0
//! ```

mod analysis;
mod closed_loop;
mod replay;
mod trace;

use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrm_control::awg::{AodCalibration, ToneProgram};
use qrm_control::pipeline::PipelineReport;
use qrm_core::error::Error;
use qrm_core::schedule::{MotionModel, Schedule};
use qrm_fpga::accelerator::AcceleratorReport;
use qrm_net::{NetConfig, Server};
use qrm_server::PlanService;

use crate::trace::{Layers, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["analysis_50", "closed_loop_50", "cached_replay"];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

/// Deterministic per-item seed: a SplitMix64 finaliser over the run
/// seed and the item index, so neighbouring items draw unrelated
/// streams.
pub fn item_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Microseconds elapsed since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `build` [`SETUPS`] times, timing each, and returns the last
/// result with the median set-up time in seconds. Earlier results are
/// dropped (servers shut down) before the next set-up starts.
pub fn timed_setups<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), percentile(&times, 0.5)))
}

/// Physical tweezer time of a schedule's AWG program, as the pipeline
/// reports it (`RoundReport::motion_us`).
pub fn motion_us(schedule: &Schedule) -> Result<f64, Error> {
    Ok(ToneProgram::compile(
        schedule,
        &AodCalibration::default(),
        &MotionModel::typical(),
    )?
    .total_duration_us())
}

/// The deterministic quality figures of a run, accumulated over the
/// workload's fixed input set (never over however many requests fit in
/// the window), so they repeat bit-exactly for a given seed.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    shots: u64,
    filled: u64,
    rounds: u64,
    moves: u64,
    motion_us: f64,
    fpga_runs: u64,
    fpga_time_us: f64,
    /// Summed accelerator cycles: control, input, compute, combine.
    fpga_cycles: [u64; 4],
}

impl Quality {
    /// Folds one closed-loop shot report.
    pub fn add_report(&mut self, report: &PipelineReport) {
        self.shots += 1;
        self.filled += u64::from(report.filled);
        self.rounds += report.rounds.len() as u64;
        self.moves += report.rounds.iter().map(|r| r.moves as u64).sum::<u64>();
        self.motion_us += report.total_motion_us();
    }

    /// Folds one single-round shot (the analysis workload's plans).
    pub fn add_plan(&mut self, filled: bool, moves: usize, motion_us: f64) {
        self.shots += 1;
        self.filled += u64::from(filled);
        self.rounds += 1;
        self.moves += moves as u64;
        self.motion_us += motion_us;
    }

    /// Folds one modelled accelerator run.
    pub fn add_fpga(&mut self, report: &AcceleratorReport) {
        self.fpga_runs += 1;
        self.fpga_time_us += report.time_us;
        let c = &report.cycles;
        for (sum, cycles) in self
            .fpga_cycles
            .iter_mut()
            .zip([c.control, c.input, c.compute, c.combine])
        {
            *sum += cycles;
        }
    }

    /// Sets the per-layer metrics these totals carry: moves per plan,
    /// the accelerator's mean cycle breakdown, and the host time of one
    /// model run (`fpga.model` spans).
    pub fn set_layers(&self, layers: &mut Layers, tracer: &Tracer) {
        layers.set(
            "core.plan.moves",
            self.moves as f64 / self.rounds.max(1) as f64,
        );
        let runs = self.fpga_runs.max(1) as f64;
        for (name, sum) in [
            "fpga.cycles.control",
            "fpga.cycles.input",
            "fpga.cycles.compute",
            "fpga.cycles.combine",
        ]
        .into_iter()
        .zip(self.fpga_cycles)
        {
            layers.set(name, sum as f64 / runs);
        }
        layers.set("fpga.model.us", tracer.mean_us("fpga.model"));
    }

    /// The end-to-end metrics these totals give.
    fn metrics(&self) -> [(&'static str, f64, &'static str); 4] {
        let per_shot = |x: f64| x / self.shots.max(1) as f64;
        [
            ("fill_rate", per_shot(self.filled as f64), "ratio"),
            ("rounds_per_shot", per_shot(self.rounds as f64), "rounds"),
            ("moves_per_shot", per_shot(self.moves as f64), "moves"),
            ("motion_us_per_shot", per_shot(self.motion_us), "us"),
        ]
    }

    /// Mean modelled accelerator analysis latency at 250 MHz (µs). It
    /// depends only on the array size (the kernels run a fixed number
    /// of iterations), so it is printed and recorded but is no
    /// benchmark metric: it would read the same on every run.
    fn fpga_analysis_us(&self) -> f64 {
        self.fpga_time_us / self.fpga_runs.max(1) as f64
    }
}

/// Latencies one window keeps (2 MiB): more than a 20 s window of any
/// workload completes. The buffer is written in full when the window is
/// made, so the benchmark's own memory is the same in every run and a
/// change in `peak_rss_mb` comes from the program.
const WINDOW_SAMPLES: usize = 1 << 18;

/// The requests that completed in one measured window.
#[derive(Debug)]
pub struct Window {
    /// Latency (µs) of the first [`WINDOW_SAMPLES`] successful requests.
    latencies_us: Vec<f64>,
    /// Successful requests.
    completed: usize,
    /// Window length (s).
    elapsed_s: f64,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            latencies_us: vec![f64::NAN; WINDOW_SAMPLES],
            completed: 0,
            elapsed_s: 0.0,
        }
    }
}

impl Window {
    /// Records one successful request that took `latency_us`.
    pub fn record(&mut self, latency_us: f64) {
        if let Some(slot) = self.latencies_us.get_mut(self.completed) {
            *slot = latency_us;
        }
        self.completed += 1;
    }

    /// The window of one pass over a fixed set of requests that were
    /// each sent many times, every request at the fastest time it took
    /// (µs; requests that never succeeded are left out): the latencies
    /// are those times, and the rate is the one a single closed-loop
    /// caller sustains at them.
    pub fn fastest_pass(fastest_us: &[f64]) -> Window {
        let mut window = Window::default();
        for &us in fastest_us.iter().filter(|us| us.is_finite()) {
            window.record(us);
        }
        window.elapsed_s = window.recorded().iter().sum::<f64>() / 1e6;
        window
    }

    /// Ends the window that began at `start`.
    pub fn close(&mut self, start: Instant) {
        self.elapsed_s = start.elapsed().as_secs_f64();
    }

    /// Adds another connection's requests over the same window.
    pub fn merge(&mut self, other: &Window) {
        for &us in other.recorded() {
            self.record(us);
        }
        self.completed += other.completed - other.recorded().len();
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    fn recorded(&self) -> &[f64] {
        &self.latencies_us[..self.completed.min(WINDOW_SAMPLES)]
    }

    /// Successful requests.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Latency percentile `q` (µs).
    pub fn percentile_us(&self, q: f64) -> f64 {
        percentile(self.recorded(), q)
    }

    /// Successful requests per second.
    pub fn per_s(&self) -> f64 {
        self.completed as f64 / self.elapsed_s
    }
}

/// One measured phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    pub window: Window,
    pub attempted: u64,
    pub failed: u64,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed requests attempted.
    pub attempted: u64,
    /// Requests that failed, were refused, or failed a correctness check.
    pub failed: u64,
    /// The measured window.
    pub window: Window,
    /// Shots per request.
    pub shots_per_request: u64,
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Deterministic quality figures over the fixed input set.
    pub quality: Quality,
    /// Per-layer attribution (traced runs only).
    pub layers: Option<Layers>,
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Binds a loopback HTTP server for `service` and waits until it
/// answers; returns it with its address.
pub fn serve(service: Arc<PlanService>) -> Result<(Server, String), String> {
    let server = Server::bind("127.0.0.1:0", service, NetConfig::default())
        .map_err(|e| format!("bind server: {e}"))?;
    let addr = server.addr().to_string();
    if !qrm_bench::wait_for_server(&addr, Duration::from_secs(10)) {
        return Err(format!("server at {addr} never answered"));
    }
    Ok((server, addr))
}

/// Sets the worker-pool metrics from the pool's counters before and
/// after a phase of `requests` requests.
pub fn pool_layers(
    layers: &mut Layers,
    before: &rayon::PoolStats,
    after: &rayon::PoolStats,
    requests: u64,
) {
    let delta = after.since(before);
    let per_request = |x: u64| x as f64 / requests.max(1) as f64;
    layers.set("pool.jobs", per_request(delta.jobs_executed));
    layers.set("pool.steals", per_request(delta.steals));
    layers.set(
        "pool.local_hit_ratio",
        delta.local_hits as f64 / delta.jobs_executed.max(1) as f64,
    );
}

/// Where runs leave their span files and determinism records, relative
/// to the repository root the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Identifies the program that is running: a hash of its executable.
/// Determinism records carry it, so a run only ever compares with runs
/// of the same build, never with a record another build left.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let mut hasher = DefaultHasher::new();
    bytes.hash(&mut hasher);
    Ok(hasher.finish())
}

/// Compares this run's deterministic figures with the record an earlier
/// run of the same build, workload and seed left, or leaves the record.
/// Returns a description of any disagreement.
fn check_repeatable(args: &Args, quality: &Quality) -> Result<(), String> {
    let mut record = String::new();
    for (name, value, _) in quality.metrics() {
        writeln!(record, "{name}={value:?}").expect("write to string");
    }
    writeln!(record, "fpga_analysis_us={:?}", quality.fpga_analysis_us()).expect("write to string");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-build{:016x}.det",
        args.workload,
        args.seed,
        build_id()?
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == record => Ok(()),
        Ok(previous) => Err(format!(
            "deterministic metrics differ from an earlier run of this build and seed:\n{previous}-- now --\n{record}"
        )),
        Err(_) => std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display())),
    }
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    )
    .expect("write to string");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "analysis_50" => analysis::run(&args),
        "closed_loop_50" => closed_loop::run(&args),
        "cached_replay" => replay::run(&args),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    if let Err(err) = check_repeatable(&args, &outcome.quality) {
        eprintln!("perfbench: {err}");
        correct = false;
    }

    let mut metrics = String::from("{");
    let mut emit = |name: &str, value: f64, unit: &str| {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
        }
        json_metric(&mut metrics, name, value, unit);
    };
    println!(
        "workload {} seed {} trace {}: {} attempted, {} failed (failed_frac {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    if let Some(layers) = &outcome.layers {
        layers.print();
        for (name, value, unit) in layers.metrics() {
            emit(name, value, unit);
        }
    } else {
        let window = &outcome.window;
        let end_to_end = [
            ("latency_p50_us", window.percentile_us(0.5), "us"),
            ("latency_p90_us", window.percentile_us(0.9), "us"),
            (
                "shots_per_s",
                window.per_s() * outcome.shots_per_request as f64,
                "1/s",
            ),
        ];
        let rest = [
            ("setup_s", outcome.setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
        for (name, value, unit) in end_to_end
            .into_iter()
            .chain(outcome.quality.metrics())
            .chain(rest)
        {
            let note = match name {
                "latency_p50_us" | "latency_p90_us" => format!("  (n={})", window.completed()),
                "motion_us_per_shot" => "  (simulated)".to_string(),
                _ => String::new(),
            };
            println!("  {name:<20} {value:>14.4} {unit}{note}");
            emit(name, value, unit);
        }
        println!(
            "  {:<20} {:>14.4} us  (simulated, 250 MHz model; paper: ~1.0 us at 50x50)",
            "fpga_analysis_us",
            outcome.quality.fpga_analysis_us()
        );
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer metric names in `BENCHMARK.json` order, with units. Every
/// traced run reports all of them; a layer a workload never calls
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.plan.us", "us"),
    ("core.kernel.us", "us"),
    ("core.merge.self_us", "us"),
    ("core.engine.self_us", "us"),
    ("core.executor.us", "us"),
    ("core.plan.moves", "count"),
    ("control.awg.us", "us"),
    ("control.pipeline.us", "us"),
    ("control.pipeline.self_us", "us"),
    ("control.dataflow.mean_group_size", "shots"),
    ("control.dataflow.rounds_overlapped", "count/req"),
    ("control.dataflow.tasks", "count/req"),
    ("fpga.cycles.control", "cycles"),
    ("fpga.cycles.input", "cycles"),
    ("fpga.cycles.compute", "cycles"),
    ("fpga.cycles.combine", "cycles"),
    ("fpga.model.us", "us"),
    ("vision.render.us", "us"),
    ("vision.detect.us", "us"),
    ("vision.frames", "count/req"),
    ("pool.jobs", "count/req"),
    ("pool.steals", "count/req"),
    ("pool.local_hit_ratio", "ratio"),
    ("server.workload.us", "us"),
    ("server.submit.self_us", "us"),
    ("server.cache.hit_us", "us"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.insertions", "count/req"),
    ("server.cache.evictions", "count/req"),
    ("wire.encode.us", "us"),
    ("wire.decode.us", "us"),
    ("wire.report_bytes", "bytes"),
    ("net.http.self_us", "us"),
    ("net.router.self_us", "us"),
    ("trace.requests", "count"),
    ("trace.overhead_us", "us"),
];
