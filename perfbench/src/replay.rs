//! `cached_replay`: two HTTP connections replay a fixed working set of
//! 64 distinct 4-shot 16×16 submissions against one server. The set
//! alternates the `qrm` and `fpga` planners across the `UniformFill`,
//! `DefectMap`, `AtomLoss` and `Zones` scenarios and is warmed into the
//! response cache during set-up, so every measured request is a hit:
//! planning and imaging do no work, and the network, wire codec and the
//! cache's read path do all of it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qrm_control::pipeline::{PipelineConfig, PlannerChoice};
use qrm_core::geometry::Rect;
use qrm_core::scheduler::QrmConfig;
use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};
use qrm_net::{Client, Router, RouterConfig, Server};
use qrm_server::{BatchReport, BatchSpec, PlanService, Scenario, SubmitBatch};
use qrm_wire::{FromJson, ToJson};

use crate::trace::{save_spans, Layers, Tracer};
use crate::{item_seed, pool_layers, serve, timed_setups, us_since, Args, Outcome, Phase, Quality};

const SIZE: usize = 16;
const SHOTS: usize = 4;
/// Distinct submissions in the working set.
const SET: usize = 64;
const CONNECTIONS: usize = 2;
/// Ample for the working set: nothing is evicted.
const CACHE_BYTES: usize = 8 << 20;
const PLANNERS: [&str; 2] = ["qrm", "fpga"];
const SCENARIOS: [Scenario; 4] = [
    Scenario::UniformFill,
    Scenario::DefectMap {
        dead_fraction: 0.08,
    },
    Scenario::AtomLoss { loss_prob: 0.02 },
    Scenario::Zones { rows: 2, cols: 2 },
];
/// Passes over the working set through the router, and directly, in
/// the traced run.
const ROUTER_PASSES: usize = 8;

fn request(seed: u64, index: usize) -> SubmitBatch {
    let spec = BatchSpec::new(SHOTS, SIZE, item_seed(seed, index as u64))
        .with_scenario(SCENARIOS[(index / PLANNERS.len()) % SCENARIOS.len()]);
    SubmitBatch::new(PLANNERS[index % PLANNERS.len()], spec)
}

fn service(cache_bytes: usize) -> PlanService {
    let config = PipelineConfig {
        workers: 0,
        loss_prob: 0.0,
        max_rounds: 3,
        ..PipelineConfig::default()
    };
    PlanService::builder()
        .cache_bytes(cache_bytes)
        .register(
            "qrm",
            PlannerChoice::Software(QrmConfig::paper()),
            config.clone(),
        )
        .register(
            "fpga",
            PlannerChoice::Fpga(AcceleratorConfig::paper()),
            config,
        )
        .build()
}

struct Live {
    service: Arc<PlanService>,
    clients: Vec<Client>,
    requests: Vec<SubmitBatch>,
    /// The warm-up response to each request; every hit must equal it.
    warm: Vec<BatchReport>,
    _server: Server,
}

/// Submits the working set once through `client`, returning each
/// checked response.
fn warm(client: &mut Client, requests: &[SubmitBatch]) -> Result<Vec<BatchReport>, String> {
    requests
        .iter()
        .map(|request| match client.submit(request) {
            Ok(report) if report.shots() == SHOTS && report.planner == request.planner => {
                Ok(report)
            }
            Ok(_) => Err("warm-up response has the wrong shape".to_string()),
            Err(e) => Err(format!("warm-up submit: {e}")),
        })
        .collect()
}

fn setup(seed: u64) -> Result<Live, String> {
    let service = Arc::new(service(CACHE_BYTES));
    let (server, addr) = serve(Arc::clone(&service))?;
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(addr.clone()))
        .collect();
    let requests: Vec<SubmitBatch> = (0..SET).map(|index| request(seed, index)).collect();
    let warm = warm(&mut clients[0], &requests)?;
    Ok(Live {
        service,
        clients,
        requests,
        warm,
        _server: server,
    })
}

/// What one connection's thread measured.
struct Lane {
    phase: Phase,
    report_bytes: usize,
    tracer: Option<Tracer>,
}

/// Connection `lane` replays the set from its own offset until `window`
/// passes; every response must equal its warm-up response. With a
/// tracer, each request is also re-run layer by layer in process: the
/// wire codec of request and report, and `PlanService::submit` on the
/// same (hit) service.
fn replay_lane(
    live: &Live,
    client: &mut Client,
    lane: usize,
    start: Instant,
    window: Duration,
    mut tracer: Option<Tracer>,
) -> Lane {
    let mut out = Lane {
        phase: Phase::default(),
        report_bytes: 0,
        tracer: None,
    };
    let mut index = lane * SET / CONNECTIONS;
    while start.elapsed() < window {
        let request = &live.requests[index % SET];
        let warm = &live.warm[index % SET];
        let id = ((lane as u64) << 32) | out.phase.attempted;
        out.phase.attempted += 1;
        let t0 = Instant::now();
        let response = match tracer.as_mut() {
            Some(t) => t.span(id, "net.http", "request", || client.submit(request)),
            None => client.submit(request),
        };
        let us = us_since(t0);
        let mut ok = matches!(&response, Ok(report) if report.planner == warm.planner && report.reports == warm.reports);
        if let Some(t) = tracer.as_mut() {
            let text = t.span(id, "wire.encode", "net.http", || request.to_json());
            let decoded = t.span(id, "wire.decode", "net.http", || {
                SubmitBatch::from_json(&text)
            });
            ok &= decoded.as_ref() == Ok(request);
            let hit = t.span(id, "server.cache.hit", "net.http", || {
                live.service.submit(request)
            });
            ok &= matches!(&hit, Ok(report) if report.reports == warm.reports);
            let text = t.span(id, "wire.encode", "net.http", || warm.to_json());
            out.report_bytes += text.len();
            let decoded = t.span(id, "wire.decode", "net.http", || {
                BatchReport::from_json(&text)
            });
            ok &= matches!(decoded, Ok(back) if back.reports == warm.reports);
        }
        if ok {
            out.phase.window.record(us);
        } else {
            out.phase.failed += 1;
        }
        index += 1;
    }
    out.phase.window.close(start);
    out.tracer = tracer;
    out
}

/// One measured phase over all connections, with the wire bytes of the
/// traced reports. Cache misses during the phase count as failures:
/// every request must hit.
fn phase(live: &mut Live, window: Duration, tracer: Option<&mut Tracer>) -> (Phase, usize) {
    let origin = tracer.as_ref().map(|t| t.origin());
    let misses_before = live.service.stats().cache.misses;
    let start = Instant::now();
    let mut clients = std::mem::take(&mut live.clients);
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let live = &*live;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    replay_lane(live, client, lane, start, window, origin.map(Tracer::new))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    live.clients = clients;
    let mut out = Phase {
        failed: live.service.stats().cache.misses - misses_before,
        ..Phase::default()
    };
    let mut report_bytes = 0;
    let mut tracer = tracer;
    for lane in lanes {
        out.window.merge(&lane.phase.window);
        out.attempted += lane.phase.attempted;
        out.failed += lane.phase.failed;
        report_bytes += lane.report_bytes;
        if let (Some(t), Some(lane_tracer)) = (tracer.as_deref_mut(), lane.tracer) {
            t.absorb(lane_tracer);
        }
    }
    (out, report_bytes)
}

/// Times the working set through a consistent-hash router over two
/// warmed backends, and directly against the workload's server, as
/// `net.router` and `net.direct` spans. Returns the failures.
fn route(live: &mut Live, tracer: &mut Tracer) -> Result<u64, String> {
    let backends = (0..2)
        .map(|_| serve(Arc::new(service(CACHE_BYTES))))
        .collect::<Result<Vec<(Server, String)>, String>>()?;
    let mut router = Router::bind(
        "127.0.0.1:0",
        backends.iter().map(|(_, addr)| addr.clone()).collect(),
        RouterConfig::default(),
    )
    .map_err(|e| format!("bind router: {e}"))?;
    let mut client = Client::connect(router.addr().to_string());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client
        .router_stats()
        .is_ok_and(|stats| stats.backends.iter().all(|b| b.healthy))
    {
        if Instant::now() > deadline {
            return Err("router backends never became healthy".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // One pass warms each backend's cache with its share of the set.
    let mut failed = warm(&mut client, &live.requests)?
        .iter()
        .zip(&live.warm)
        .filter(|(routed, warm)| routed.reports != warm.reports)
        .count() as u64;
    let direct = &mut live.clients[0];
    for pass in 0..ROUTER_PASSES {
        for (index, (request, warm)) in live.requests.iter().zip(&live.warm).enumerate() {
            let id = (pass * SET + index) as u64;
            let routed = tracer.span(id, "net.router", "request", || client.submit(request));
            let straight = tracer.span(id, "net.direct", "request", || direct.submit(request));
            let same = |r: &Result<BatchReport, _>| matches!(r, Ok(report) if report.reports == warm.reports);
            failed += u64::from(!same(&routed) || !same(&straight));
        }
    }
    drop(client);
    router.shutdown();
    Ok(failed)
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut live, setup_s) = timed_setups(|| setup(args.seed))?;
    let mut tracer = Tracer::new(Instant::now());
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    let stats_before = live.service.stats();
    let pool_before = rayon::global_pool_stats();
    let (base, _) = phase(
        &mut live,
        if args.trace {
            args.window / 2
        } else {
            args.window
        },
        None,
    );
    let pool_after = rayon::global_pool_stats();
    let stats_after = live.service.stats();
    let traced = args
        .trace
        .then(|| phase(&mut live, args.window / 2, Some(&mut tracer)));
    for p in std::iter::once(&base).chain(traced.as_ref().map(|(p, _)| p)) {
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    out.shots_per_request = SHOTS as u64;

    // Quality over the warm-up responses, and the accelerator model on
    // every planning problem of the set (each zone's tile for `Zones`).
    let mut quality = Quality::default();
    for report in &live.warm {
        for shot in &report.reports {
            quality.add_report(shot);
        }
    }
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    for (index, request) in live.requests.iter().enumerate() {
        let workload = request.spec.workload().map_err(|e| e.to_string())?;
        for truth in &workload.truths {
            for zone in &workload.zones {
                let (tile, target) = (zone.tile, zone.target);
                let grid = truth.subgrid(&tile).map_err(|e| e.to_string())?;
                let local = Rect::new(
                    target.row - tile.row,
                    target.col - tile.col,
                    target.height,
                    target.width,
                );
                let report = tracer
                    .span(index as u64, "fpga.model", "check", || {
                        accel.run(&grid, &local)
                    })
                    .map_err(|e| format!("accelerator model: {e}"))?;
                quality.add_fpga(&report);
            }
        }
    }

    if let Some((traced, report_bytes)) = traced {
        // The cached answers must equal a fresh computation.
        let fresh = service(0);
        for (request, warm) in live.requests.iter().zip(&live.warm) {
            out.attempted += 1;
            out.failed += u64::from(
                !fresh
                    .submit(request)
                    .is_ok_and(|r| r.reports == warm.reports),
            );
        }
        out.failed += route(&mut live, &mut tracer)?;
        let mut layers = Layers::new();
        let t = &tracer;
        let n = traced.attempted.max(1) as f64;
        let per_request = |name: &str| t.total_us(name) / n;
        let codec = per_request("wire.encode") + per_request("wire.decode");
        let http_self = per_request("net.http") - per_request("server.cache.hit") - codec;
        layers.set("server.cache.hit_us", t.mean_us("server.cache.hit"));
        let (c0, c1) = (stats_before.cache, stats_after.cache);
        layers.set(
            "server.cache.hit_ratio",
            (c1.hits - c0.hits) as f64 / (c1.lookups - c0.lookups).max(1) as f64,
        );
        let base_n = base.attempted.max(1) as f64;
        layers.set(
            "server.cache.insertions",
            (c1.insertions - c0.insertions) as f64 / base_n,
        );
        layers.set(
            "server.cache.evictions",
            (c1.evictions - c0.evictions) as f64 / base_n,
        );
        layers.set("wire.encode.us", per_request("wire.encode"));
        layers.set("wire.decode.us", per_request("wire.decode"));
        layers.set("wire.report_bytes", report_bytes as f64 / n);
        layers.set("net.http.self_us", http_self);
        layers.set(
            "net.router.self_us",
            t.mean_us("net.router") - t.mean_us("net.direct"),
        );
        pool_layers(&mut layers, &pool_before, &pool_after, base.attempted);
        quality.set_layers(&mut layers, t);
        layers.set_path(vec![
            ("net.http.self", http_self),
            ("wire.encode", per_request("wire.encode")),
            ("wire.decode", per_request("wire.decode")),
            ("server.cache.hit", per_request("server.cache.hit")),
        ]);
        layers.set_overhead(&traced.window, &base.window);
        save_spans(t, args, &mut layers)?;
        out.layers = Some(layers);
    }
    out.window = base.window;
    out.quality = quality;
    Ok(out)
}
