//! The repo's benchmark trajectory: one schema-stable JSON snapshot
//! per PR (`BENCH_<pr>.json` at the repo root), produced by the
//! `experiments bench-trajectory` subcommand.
//!
//! Each snapshot records criterion-derived **median** wall times for
//! every layer of the stack — kernel, engine, pipeline, service,
//! HTTP — plus a microbench of the worker pool's deques: owner
//! push/pop latency and contended steal throughput, measured for both
//! the production Chase-Lev deque and the mutex-protected `VecDeque`
//! it replaced (preserved as [`rayon::bench_support::MutexDeque`]).
//! Because the schema is stable, successive `BENCH_<pr>.json` files
//! diff point-to-point and the CI bench-smoke job can validate any
//! snapshot with [`validate`].
//!
//! The JSON is rendered through the vendored `serde` [`Value`] model
//! and `qrm_wire::json`, whose byte-identical re-encode guarantee
//! keeps checked-in snapshots stable under decode→encode round trips.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::Criterion;
use qrm_control::pipeline::{Pipeline, PipelineConfig, PlannerChoice};
use qrm_core::engine::PlanEngine;
use qrm_core::planner::Planner;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use rayon::bench_support::{noop_job, ChaseLevDeque, MutexDeque, StealableDeque};
use serde::Value;

use crate::{build_service, engine_workload, paper_instance, wait_for_server, ServeConfig};

/// Schema identifier carried by every trajectory snapshot; bump the
/// `/v1` suffix on any breaking change to the key set.
pub const TRAJECTORY_SCHEMA: &str = "qrm-bench-trajectory/v1";

/// PR number stamped into the default snapshot (`BENCH_<pr>.json`).
pub const TRAJECTORY_PR: u64 = 10;

/// Jobs the owner pushes per push/pop batch and per steal round.
const DEQUE_BATCH: usize = 256;

/// Jobs in the measured spawn chain (each spawning its successor).
const SPAWN_CHAIN_DEPTH: usize = 256;

/// Shots in the skewed-pipeline workload.
const SKEWED_SHOTS: usize = 8;

/// Measurement settings of a trajectory run.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryConfig {
    /// Criterion samples per layer benchmark.
    pub sample_size: usize,
    /// Criterion measurement window per layer benchmark.
    pub measurement: Duration,
    /// Criterion warm-up window per layer benchmark.
    pub warm_up: Duration,
    /// Wall-clock window of each contended-steal measurement.
    pub steal_window: Duration,
}

impl TrajectoryConfig {
    /// The checked-in snapshot settings.
    #[must_use]
    pub fn full() -> Self {
        TrajectoryConfig {
            sample_size: 10,
            measurement: Duration::from_millis(500),
            warm_up: Duration::from_millis(100),
            steal_window: Duration::from_millis(400),
        }
    }

    /// Reduced-iteration settings for the CI bench-smoke job: the same
    /// benchmarks end-to-end, just small enough to finish in seconds.
    /// Numbers from a quick run are for schema validation, not
    /// comparison — the snapshot records which mode produced it.
    #[must_use]
    pub fn quick() -> Self {
        TrajectoryConfig {
            sample_size: 3,
            measurement: Duration::from_millis(40),
            warm_up: Duration::from_millis(10),
            steal_window: Duration::from_millis(40),
        }
    }
}

/// Microbench results for one deque flavour.
#[derive(Debug, Clone, Copy)]
pub struct DequeRow {
    /// Owner-side cost of one push plus one pop (ns), uncontended.
    pub owner_push_pop_ns: f64,
    /// Jobs stolen per second with one thief racing the owner.
    pub steal_per_s_1_thief: f64,
    /// Jobs stolen per second with four thieves racing the owner.
    pub steal_per_s_4_thieves: f64,
}

/// One full trajectory measurement (all layers + pool microbench).
#[derive(Debug, Clone, Copy)]
pub struct Trajectory {
    /// Median µs for one QRM quadrant-kernel pass over the paper
    /// instance (size 20).
    pub kernel_us: f64,
    /// Median µs for a `PlanEngine::plan_batch` of 4 shots at size 16.
    pub engine_us: f64,
    /// Median µs for a `Pipeline::run_batch` of 4 shots at size 16.
    pub pipeline_us: f64,
    /// Median µs for one in-process `PlanService::submit`.
    pub service_us: f64,
    /// Median µs for one `qrm_net::Client::submit` over loopback HTTP.
    pub http_us: f64,
    /// Median µs for a repeated in-process submit against a
    /// cache-enabled service — the response-cache hit path, which
    /// bypasses planning *and* the admission gate.
    pub service_cached_us: f64,
    /// Median µs for the same repeated submit over loopback HTTP: the
    /// floor the wire stack (JSON, TCP, HTTP) puts under a cache hit.
    pub http_cached_us: f64,
    /// Median µs for the same submit against a server whose
    /// `stream_threshold` is 1 byte, so every response body goes out
    /// `Transfer-Encoding: chunked` — the streaming path's overhead
    /// relative to the plain `http` median.
    pub http_streamed_us: f64,
    /// Median µs for the same pipeline batch over a **hostile** array:
    /// a deterministic defect map (8% dead sites) plus 2% per-round
    /// atom loss — what scenario workloads cost over the uniform
    /// `pipeline` median.
    pub pipeline_hostile_us: f64,
    /// Median per-shot completion µs of the skewed workload
    /// ([`crate::skewed_workload`]) under the shot-level dataflow
    /// scheduler.
    pub pipeline_skewed_us: f64,
    /// Per-hand-off cost (ns) of a 256-deep spawn chain on the pool —
    /// the primitive a dataflow shot's observe→plan→execute task chain
    /// is built from.
    pub spawn_chain_ns: f64,
    /// Production Chase-Lev deque microbench.
    pub chase_lev: DequeRow,
    /// Mutex-`VecDeque` baseline microbench.
    pub mutex: DequeRow,
}

/// Runs every layer benchmark and the pool microbench, printing the
/// usual criterion report lines as it goes.
///
/// # Panics
///
/// Panics if any layer's workload fails to plan — all workloads are
/// valid by construction, so a panic means a planner regression.
#[must_use]
pub fn measure(config: &TrajectoryConfig) -> Trajectory {
    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("trajectory");
    group
        .sample_size(config.sample_size)
        .measurement_time(config.measurement)
        .warm_up_time(config.warm_up);

    // Kernel layer: the QRM scheduler's four quadrant kernels on the
    // paper instance, no engine/pipeline wrapping.
    let (grid, target) = paper_instance(20, 909);
    let scheduler = QrmScheduler::new(QrmConfig::paper());
    let kernel_us = 1e6
        * group
            .bench_median("kernel", |b| {
                b.iter(|| scheduler.plan(&grid, &target).expect("kernel plan"));
            })
            .expect("kernel median");

    // Engine layer: batched planning through the context pool and the
    // work-stealing pool.
    let jobs = engine_workload(16, 4);
    let engine = PlanEngine::new(QrmConfig::default()).with_workers(0);
    let engine_us = 1e6
        * group
            .bench_median("engine", |b| {
                b.iter(|| engine.plan_batch(&jobs).expect("engine batch"));
            })
            .expect("engine median");

    // Pipeline layer: full closed-loop rounds (imaging, planning,
    // execution, loss) on the shot-level dataflow scheduler.
    let spec = qrm_server::BatchSpec::new(4, 16, 606);
    let truths = spec.workload().expect("pipeline workload").truths;
    let rect = spec.target().expect("pipeline target");
    let pipeline = Pipeline::new(PipelineConfig {
        planner: PlannerChoice::Software(QrmConfig::paper()),
        workers: 0,
        max_rounds: 2,
        ..PipelineConfig::default()
    });
    let pipeline_us = 1e6
        * group
            .bench_median("pipeline", |b| {
                b.iter(|| {
                    pipeline
                        .run_batch(&truths, &rect, 606)
                        .expect("pipeline batch")
                });
            })
            .expect("pipeline median");

    // Hostile-pipeline layer: the same closed loop on a hostile array —
    // a deterministic defect map killing 8% of sites plus per-round
    // atom loss — so the snapshot prices what scenario workloads add
    // over the uniform `pipeline` median.
    let hostile_spec =
        qrm_server::BatchSpec::new(4, 16, 606).with_scenario(qrm_server::Scenario::DefectMap {
            dead_fraction: 0.08,
        });
    let hostile = hostile_spec.workload().expect("hostile workload");
    let hostile_config = PipelineConfig {
        planner: PlannerChoice::Software(QrmConfig::paper()),
        workers: 0,
        max_rounds: 2,
        loss_prob: 0.02,
        ..PipelineConfig::default()
    };
    let hostile_planner = hostile_config.planner.resolve(hostile_config.workers);
    let hostile_pipeline = Pipeline::new(hostile_config);
    let pipeline_hostile_us = 1e6
        * group
            .bench_median("pipeline_hostile", |b| {
                b.iter(|| {
                    hostile_pipeline
                        .run_batch_zones_tracked(
                            &*hostile_planner,
                            &hostile.truths,
                            &hostile.zones,
                            606,
                        )
                        .expect("hostile batch")
                });
            })
            .expect("hostile pipeline median");

    // Service layer: the same submission repeated against a warm
    // in-process service (planner registry + admission + stats).
    let serve = ServeConfig {
        shots: 2,
        size: 12,
        rounds: 2,
        ..ServeConfig::default()
    };
    let service = build_service(&serve);
    let request = qrm_server::SubmitBatch::new("qrm", qrm_server::BatchSpec::new(2, 12, 707));
    let service_us = 1e6
        * group
            .bench_median("service", |b| {
                b.iter(|| service.submit(&request).expect("service submit"));
            })
            .expect("service median");

    // HTTP layer: the same submission through the loopback front end
    // (JSON encode, TCP, HTTP parse, JSON decode) on one keep-alive
    // connection.
    let remote = Arc::new(build_service(&serve));
    let mut server = qrm_net::Server::bind("127.0.0.1:0", remote, qrm_net::NetConfig::default())
        .expect("bind loopback server");
    let addr = server.addr().to_string();
    assert!(
        wait_for_server(&addr, Duration::from_secs(5)),
        "loopback server failed to come up"
    );
    let mut client = qrm_net::Client::connect(addr);
    let http_us = 1e6
        * group
            .bench_median("http", |b| {
                b.iter(|| client.submit(&request).expect("http submit"));
            })
            .expect("http median");
    server.shutdown();
    // An idle keep-alive connection costs only a poller registration on
    // the event loop's own thread — no pool worker is pinned (that was
    // the pre-event-loop failure mode). The drop is plain hygiene now.
    drop(client);

    // Cached service layer: the same submission against a service with
    // the response cache enabled, warmed by one miss — every measured
    // submit is a hit, so this is the key-build + clone cost with the
    // planning pipeline and the admission gate both bypassed.
    let cached_serve = ServeConfig {
        cache_bytes: 1 << 20,
        ..serve
    };
    let cached_service = build_service(&cached_serve);
    cached_service.submit(&request).expect("cache warm submit");
    let service_cached_us = 1e6
        * group
            .bench_median("service_cached", |b| {
                b.iter(|| cached_service.submit(&request).expect("cached submit"));
            })
            .expect("cached service median");
    assert!(
        cached_service.stats().cache.hits > 0,
        "cached-service benchmark never hit its cache"
    );

    // Cached HTTP layer: the same warm hit through the loopback front
    // end, isolating what the wire stack adds on top of a cache hit.
    let cached_remote = Arc::new(build_service(&cached_serve));
    let mut cached_server = qrm_net::Server::bind(
        "127.0.0.1:0",
        Arc::clone(&cached_remote),
        qrm_net::NetConfig::default(),
    )
    .expect("bind cached loopback server");
    let cached_addr = cached_server.addr().to_string();
    assert!(
        wait_for_server(&cached_addr, Duration::from_secs(5)),
        "cached loopback server failed to come up"
    );
    let mut cached_client = qrm_net::Client::connect(cached_addr);
    cached_client
        .submit(&request)
        .expect("http cache warm submit");
    let http_cached_us = 1e6
        * group
            .bench_median("http_cached", |b| {
                b.iter(|| cached_client.submit(&request).expect("cached http submit"));
            })
            .expect("cached http median");
    assert!(
        cached_remote.stats().cache.hits > 0,
        "cached-http benchmark never hit its cache"
    );
    cached_server.shutdown();
    drop(cached_client);

    // Streamed HTTP layer: the same submission against a server whose
    // stream threshold is 1 byte, forcing every response body through
    // the chunked-encoding writer and the client's chunked decoder.
    // The delta against `http` prices the streaming frame overhead.
    let streamed_remote = Arc::new(build_service(&serve));
    let mut streamed_server = qrm_net::Server::bind(
        "127.0.0.1:0",
        streamed_remote,
        qrm_net::NetConfig {
            stream_threshold: 1,
            ..qrm_net::NetConfig::default()
        },
    )
    .expect("bind streamed loopback server");
    let streamed_addr = streamed_server.addr().to_string();
    assert!(
        wait_for_server(&streamed_addr, Duration::from_secs(5)),
        "streamed loopback server failed to come up"
    );
    let mut streamed_client = qrm_net::Client::connect(streamed_addr);
    let http_streamed_us = 1e6
        * group
            .bench_median("http_streamed", |b| {
                b.iter(|| streamed_client.submit(&request).expect("streamed submit"));
            })
            .expect("streamed http median");
    streamed_server.shutdown();
    drop(streamed_client);

    // Skewed-pipeline layer: the dataflow scheduler on a batch of a
    // few large arrays among many small ones. The metric is the median
    // *per-shot completion* time — small shots do not wait for the
    // straggler's rounds, so their completions stay early.
    let skewed_config = PipelineConfig {
        planner: PlannerChoice::Software(QrmConfig::paper()),
        workers: 4,
        max_rounds: 3,
        ..PipelineConfig::default()
    };
    let skewed_planner = skewed_config.planner.resolve(skewed_config.workers);
    let skewed_pipeline = Pipeline::new(skewed_config);
    let skewed_jobs = crate::skewed_workload(SKEWED_SHOTS, 12, 24);
    let reps = config.sample_size.max(2);
    let mut completions = Vec::new();
    for _ in 0..reps {
        let run = skewed_pipeline
            .run_shots_with(&*skewed_planner, &skewed_jobs, 4242)
            .expect("skewed dataflow batch");
        completions.extend(run.completion_us);
    }
    let pipeline_skewed_us = median(completions);
    println!("trajectory/pipeline_skewed: median shot completion {pipeline_skewed_us:.1} us");

    // Spawn-chain hand-off cost: the scheduling primitive under every
    // dataflow shot's observe→plan→execute chain.
    let spawn_chain_ns = 1e9
        * group
            .bench_median("spawn_chain", |b| {
                b.iter(|| rayon::bench_support::run_spawn_chain(SPAWN_CHAIN_DEPTH));
            })
            .expect("spawn chain median")
        / SPAWN_CHAIN_DEPTH as f64;

    let chase_lev = deque_row::<ChaseLevDeque>(&mut group, "chase_lev", config);
    let mutex = deque_row::<MutexDeque>(&mut group, "mutex", config);
    group.finish();

    Trajectory {
        kernel_us,
        engine_us,
        pipeline_us,
        pipeline_hostile_us,
        service_us,
        http_us,
        service_cached_us,
        http_cached_us,
        http_streamed_us,
        pipeline_skewed_us,
        spawn_chain_ns,
        chase_lev,
        mutex,
    }
}

/// Median of a set of already-collected measurements (µs).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite measurement"));
    values[values.len() / 2]
}

/// Measures one deque flavour: uncontended owner latency via
/// criterion, contended steal throughput via timed thief threads.
fn deque_row<D: StealableDeque + Default>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    config: &TrajectoryConfig,
) -> DequeRow {
    // Owner push/pop latency, no thieves: push a batch, drain it LIFO.
    // One iteration is DEQUE_BATCH pushes + DEQUE_BATCH pops, so the
    // per-op number divides the median by 2 × DEQUE_BATCH.
    let deque = D::default();
    let batch_s = group
        .bench_median(format!("{name}/push_pop"), |b| {
            b.iter(|| {
                for _ in 0..DEQUE_BATCH {
                    deque.push(noop_job());
                }
                let mut popped = 0usize;
                while deque.pop() {
                    popped += 1;
                }
                popped
            });
        })
        .expect("push/pop median");
    let owner_push_pop_ns = batch_s * 1e9 / (2.0 * DEQUE_BATCH as f64);

    let one = steal_throughput(&D::default(), 1, config.steal_window);
    let four = steal_throughput(&D::default(), 4, config.steal_window);
    println!("trajectory/{name}/steal: {one:.0} jobs/s (1 thief), {four:.0} jobs/s (4 thieves)");
    DequeRow {
        owner_push_pop_ns,
        steal_per_s_1_thief: one,
        steal_per_s_4_thieves: four,
    }
}

/// Contended steal throughput: `thieves` threads spin on `steal` while
/// the owner thread keeps the deque supplied — push a batch, yield so
/// thieves get scheduled against a non-empty deque even on a one-core
/// host, then drain the remainder. Returns total jobs stolen per
/// second of wall-clock window.
fn steal_throughput<D: StealableDeque>(deque: &D, thieves: usize, window: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let stolen = AtomicU64::new(0);
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        for _ in 0..thieves {
            scope.spawn(|| {
                let mut local = 0u64;
                while !stop.load(Ordering::Acquire) {
                    if deque.steal() {
                        local += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
                stolen.fetch_add(local, Ordering::Relaxed);
            });
        }
        let start = Instant::now();
        while start.elapsed() < window {
            for _ in 0..DEQUE_BATCH {
                deque.push(noop_job());
            }
            std::thread::yield_now();
            while deque.pop() {}
        }
        elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
    });
    // Leftovers from the last round (thieves may have stopped first).
    while deque.pop() {}
    stolen.load(Ordering::Relaxed) as f64 / elapsed
}

fn deque_value(row: &DequeRow) -> Value {
    Value::record(vec![
        ("owner_push_pop_ns", Value::F64(row.owner_push_pop_ns)),
        ("steal_per_s_1_thief", Value::F64(row.steal_per_s_1_thief)),
        (
            "steal_per_s_4_thieves",
            Value::F64(row.steal_per_s_4_thieves),
        ),
    ])
}

/// Renders a trajectory as the schema-stable snapshot JSON.
#[must_use]
pub fn to_json(trajectory: &Trajectory, quick: bool) -> String {
    let value = Value::record(vec![
        ("schema", Value::Str(TRAJECTORY_SCHEMA.to_string())),
        ("pr", Value::U64(TRAJECTORY_PR)),
        ("quick", Value::Bool(quick)),
        (
            "layers_us",
            Value::record(vec![
                ("kernel", Value::F64(trajectory.kernel_us)),
                ("engine", Value::F64(trajectory.engine_us)),
                ("pipeline", Value::F64(trajectory.pipeline_us)),
                ("service", Value::F64(trajectory.service_us)),
                ("http", Value::F64(trajectory.http_us)),
                // Added in PR 7; optional for the validator so older
                // snapshots (BENCH_6 and before) keep validating.
                ("pipeline_skewed", Value::F64(trajectory.pipeline_skewed_us)),
                // Added in PR 8 (the response cache); optional for the
                // same reason.
                ("service_cached", Value::F64(trajectory.service_cached_us)),
                ("http_cached", Value::F64(trajectory.http_cached_us)),
                // Added in PR 9 (the readiness event loop's chunked
                // response path); optional for the same reason.
                ("http_streamed", Value::F64(trajectory.http_streamed_us)),
                // Added in PR 10 (hostile-array scenarios); optional
                // for the same reason.
                (
                    "pipeline_hostile",
                    Value::F64(trajectory.pipeline_hostile_us),
                ),
            ]),
        ),
        (
            "pool",
            Value::record(vec![
                ("chase_lev", deque_value(&trajectory.chase_lev)),
                ("mutex", deque_value(&trajectory.mutex)),
                // Optional for the validator (added in PR 7).
                ("spawn_chain_ns", Value::F64(trajectory.spawn_chain_ns)),
            ]),
        ),
    ]);
    let mut text = qrm_wire::json::write(&value);
    text.push('\n');
    text
}

/// Names of the per-layer medians, in snapshot order.
pub const LAYER_KEYS: [&str; 5] = ["kernel", "engine", "pipeline", "service", "http"];

/// Layer medians added after the schema froze: **optional** for the
/// validator (older snapshots lack them) but still required to be
/// finite and positive when present. `pipeline_skewed*` arrived in
/// PR 7, the cached-path medians in PR 8, the streamed-response
/// median in PR 9, the hostile-array median in PR 10.
/// `pipeline_skewed_barriered` is no longer written (its stage-barrier
/// baseline was retired) but stays listed so older snapshots that
/// carry it are still checked.
pub const OPTIONAL_LAYER_KEYS: [&str; 6] = [
    "pipeline_skewed",
    "pipeline_skewed_barriered",
    "service_cached",
    "http_cached",
    "http_streamed",
    "pipeline_hostile",
];

/// Pool metrics that are optional for the same reason.
const OPTIONAL_POOL_METRICS: [&str; 1] = ["spawn_chain_ns"];

/// Names of the pool microbench rows and their metrics.
pub const POOL_KEYS: [&str; 2] = ["chase_lev", "mutex"];
const POOL_METRICS: [&str; 3] = [
    "owner_push_pop_ns",
    "steal_per_s_1_thief",
    "steal_per_s_4_thieves",
];

fn require_positive(record: &Value, key: &str, context: &str) -> Result<(), String> {
    let number = record
        .get(key)
        .ok_or_else(|| format!("{context}.{key}: missing"))?
        .as_f64()
        .ok_or_else(|| format!("{context}.{key}: not a number"))?;
    if number.is_finite() && number > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "{context}.{key}: {number} is not finite and positive"
        ))
    }
}

/// Validates a snapshot: parses the JSON and checks the schema tag,
/// the PR number, and that every layer median and every pool metric is
/// present, finite, and nonzero. This is what the CI bench-smoke job
/// runs against the file it just produced **and** against the
/// checked-in `BENCH_<pr>.json`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let value = qrm_wire::json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = value.get("schema").ok_or("schema: missing")?.clone();
    match schema {
        Value::Str(ref s) if s == TRAJECTORY_SCHEMA => {}
        other => {
            return Err(format!(
                "schema: expected {TRAJECTORY_SCHEMA:?}, got {other:?}"
            ))
        }
    }
    value
        .get("pr")
        .and_then(Value::as_u64)
        .ok_or("pr: missing or not an integer")?;
    value.get("quick").ok_or("quick: missing")?;

    let layers = value.get("layers_us").ok_or("layers_us: missing")?;
    for key in LAYER_KEYS {
        require_positive(layers, key, "layers_us")?;
    }
    for key in OPTIONAL_LAYER_KEYS {
        if layers.get(key).is_some() {
            require_positive(layers, key, "layers_us")?;
        }
    }
    let pool = value.get("pool").ok_or("pool: missing")?;
    for flavour in POOL_KEYS {
        let row = pool
            .get(flavour)
            .ok_or_else(|| format!("pool.{flavour}: missing"))?;
        for metric in POOL_METRICS {
            require_positive(row, metric, &format!("pool.{flavour}"))?;
        }
    }
    for metric in OPTIONAL_POOL_METRICS {
        if pool.get(metric).is_some() {
            require_positive(pool, metric, "pool")?;
        }
    }
    Ok(())
}

/// One-line human summary of a trajectory, for the bin's stdout.
#[must_use]
pub fn summary(trajectory: &Trajectory) -> String {
    format!(
        "layers_us: kernel {:.1} | engine {:.1} | pipeline {:.1} | service {:.1} | http {:.1}\n\
         hostile pipeline us: {:.1} (vs {:.1} uniform)\n\
         cached-path us: service {:.1} (vs {:.1} uncached) | http {:.1} (vs {:.1} uncached)\n\
         streamed http us: {:.1} (vs {:.1} whole-body)\n\
         skewed shot completion us (median): {:.1}\n\
         spawn chain hand-off ns: {:.1}\n\
         pool steal/s (1 thief): chase_lev {:.0} vs mutex {:.0}\n\
         pool steal/s (4 thieves): chase_lev {:.0} vs mutex {:.0}\n\
         owner push+pop ns: chase_lev {:.1} vs mutex {:.1}",
        trajectory.kernel_us,
        trajectory.engine_us,
        trajectory.pipeline_us,
        trajectory.service_us,
        trajectory.http_us,
        trajectory.pipeline_hostile_us,
        trajectory.pipeline_us,
        trajectory.service_cached_us,
        trajectory.service_us,
        trajectory.http_cached_us,
        trajectory.http_us,
        trajectory.http_streamed_us,
        trajectory.http_us,
        trajectory.pipeline_skewed_us,
        trajectory.spawn_chain_ns,
        trajectory.chase_lev.steal_per_s_1_thief,
        trajectory.mutex.steal_per_s_1_thief,
        trajectory.chase_lev.steal_per_s_4_thieves,
        trajectory.mutex.steal_per_s_4_thieves,
        trajectory.chase_lev.owner_push_pop_ns,
        trajectory.mutex.owner_push_pop_ns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest-possible settings: the schema contract matters here,
    /// not the numbers.
    fn tiny() -> TrajectoryConfig {
        TrajectoryConfig {
            sample_size: 2,
            measurement: Duration::from_millis(5),
            warm_up: Duration::from_millis(1),
            steal_window: Duration::from_millis(15),
        }
    }

    #[test]
    fn quick_run_emits_a_valid_snapshot() {
        let trajectory = measure(&tiny());
        let json = to_json(&trajectory, true);
        validate(&json).expect("fresh snapshot validates");
        // The snapshot must survive a decode→encode round trip
        // byte-identically (the qrm-wire determinism guarantee), so
        // checked-in files never churn.
        let value = qrm_wire::json::parse(&json).expect("parse own snapshot");
        assert_eq!(format!("{}\n", qrm_wire::json::write(&value)), json);
        assert!(!summary(&trajectory).is_empty());
    }

    #[test]
    fn validate_rejects_missing_and_malformed_snapshots() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").unwrap_err().contains("schema"));
        let wrong_schema = r#"{"schema":"other/v9"}"#;
        assert!(validate(wrong_schema).unwrap_err().contains("expected"));

        // A structurally complete snapshot minus one layer median.
        let missing_layer = format!(
            "{{\"schema\":\"{TRAJECTORY_SCHEMA}\",\"pr\":6,\"quick\":true,\
             \"layers_us\":{{\"kernel\":1.0,\"engine\":1.0,\"pipeline\":1.0,\
             \"service\":1.0}},\"pool\":{{}}}}"
        );
        assert!(validate(&missing_layer).unwrap_err().contains("http"));

        // Zero and non-finite metrics are rejected, not just absent ones.
        let zero_metric = format!(
            "{{\"schema\":\"{TRAJECTORY_SCHEMA}\",\"pr\":6,\"quick\":true,\
             \"layers_us\":{{\"kernel\":1.0,\"engine\":1.0,\"pipeline\":1.0,\
             \"service\":1.0,\"http\":0.0}},\"pool\":{{}}}}"
        );
        assert!(validate(&zero_metric)
            .unwrap_err()
            .contains("finite and positive"));
    }

    #[test]
    fn optional_skewed_keys_are_optional_but_checked_when_present() {
        let full_pool = |extra: &str| {
            let row = "{\"owner_push_pop_ns\":1.0,\"steal_per_s_1_thief\":1.0,\
                 \"steal_per_s_4_thieves\":1.0}";
            format!("{{\"chase_lev\":{row},\"mutex\":{row}{extra}}}")
        };
        let snapshot = |layers_extra: &str, pool_extra: &str| {
            format!(
                "{{\"schema\":\"{TRAJECTORY_SCHEMA}\",\"pr\":6,\"quick\":true,\
                 \"layers_us\":{{\"kernel\":1.0,\"engine\":1.0,\"pipeline\":1.0,\
                 \"service\":1.0,\"http\":1.0{layers_extra}}},\"pool\":{}}}",
                full_pool(pool_extra)
            )
        };
        // A pre-PR-7 snapshot (no optional keys at all) stays valid —
        // the checked-in BENCH_6.json shape.
        validate(&snapshot("", "")).expect("pre-dataflow snapshot validates");
        // Present and positive: valid.
        validate(&snapshot(
            ",\"pipeline_skewed\":1.0,\"pipeline_skewed_barriered\":2.0",
            ",\"spawn_chain_ns\":3.0",
        ))
        .expect("full PR-7 snapshot validates");
        // The PR-8 cached-path medians follow the same optional rule.
        validate(&snapshot(",\"service_cached\":1.0,\"http_cached\":2.0", ""))
            .expect("cached-path snapshot validates");
        // And the PR-9 streamed-response median.
        validate(&snapshot(",\"http_streamed\":1.0", ""))
            .expect("streamed-path snapshot validates");
        assert!(validate(&snapshot(",\"http_streamed\":0.0", ""))
            .unwrap_err()
            .contains("http_streamed"));
        // And the PR-10 hostile-array median.
        validate(&snapshot(",\"pipeline_hostile\":1.0", ""))
            .expect("hostile-array snapshot validates");
        assert!(validate(&snapshot(",\"pipeline_hostile\":0.0", ""))
            .unwrap_err()
            .contains("pipeline_hostile"));
        // Present but zero: rejected, same as any required metric.
        assert!(validate(&snapshot(",\"pipeline_skewed\":0.0", ""))
            .unwrap_err()
            .contains("pipeline_skewed"));
        assert!(validate(&snapshot(",\"service_cached\":0.0", ""))
            .unwrap_err()
            .contains("service_cached"));
        assert!(validate(&snapshot("", ",\"spawn_chain_ns\":0.0"))
            .unwrap_err()
            .contains("spawn_chain_ns"));
    }

    /// Earlier PRs' checked-in snapshots must keep validating with
    /// today's validator — the additive-schema promise, asserted
    /// against the real files rather than synthetic shapes.
    #[test]
    fn checked_in_bench_6_still_validates() {
        validate(include_str!("../../../BENCH_6.json")).expect("BENCH_6.json validates");
    }

    #[test]
    fn checked_in_bench_7_still_validates() {
        validate(include_str!("../../../BENCH_7.json")).expect("BENCH_7.json validates");
    }

    #[test]
    fn checked_in_bench_8_still_validates() {
        validate(include_str!("../../../BENCH_8.json")).expect("BENCH_8.json validates");
    }

    #[test]
    fn checked_in_bench_9_still_validates() {
        validate(include_str!("../../../BENCH_9.json")).expect("BENCH_9.json validates");
    }

    #[test]
    fn checked_in_bench_10_still_validates() {
        validate(include_str!("../../../BENCH_10.json")).expect("BENCH_10.json validates");
    }
}
