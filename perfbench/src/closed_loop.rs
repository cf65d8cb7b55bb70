//! `closed_loop_50`: one HTTP connection to a `qrm_net::Server` sends
//! 2-shot 50×50 `BatchSpec` submissions (uniform fill 0.55, a fresh seed
//! per request, the paper QRM planner, at most 3 rounds, no transport
//! loss), each waiting for its reply. The response cache is on with a
//! budget the run overflows, so every request misses, inserts and
//! eventually evicts: the cache's write path. Imaging dominates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qrm_control::awg::{AodCalibration, ToneProgram};
use qrm_control::pipeline::{
    Pipeline, PipelineConfig, PipelineReport, PlannerChoice, RoundReport, Zone,
};
use qrm_core::engine::dataflow::DataflowStats;
use qrm_core::executor::CollisionPolicy;
use qrm_core::grid::AtomGrid;
use qrm_core::planner::Planner;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};
use qrm_net::{Client, Server};
use qrm_server::{BatchReport, BatchSpec, PlanService, SubmitBatch};
use qrm_vision::prelude::{render, TrapLayout};
use qrm_wire::{FromJson, ToJson};
use rand::rngs::StdRng;

use crate::trace::{save_spans, Layers, Tracer};
use crate::{item_seed, pool_layers, serve, timed_setups, us_since, Args, Outcome, Phase, Quality};

const SIZE: usize = 50;
const SHOTS: usize = 2;
const FILL: f64 = 0.55;
const ROUNDS: usize = 3;
const PLANNER: &str = "qrm";
/// Requests whose responses make the deterministic metrics (400 shots).
const FIXED: u64 = 200;
/// Response-cache budget: room for about two dozen of this workload's
/// responses, so the cache starts evicting within the first second.
const CACHE_BYTES: usize = 64 << 10;
/// First request index of the traced run's untraced phase: fresh specs,
/// disjoint from the traced phase's, so neither phase hits the cache.
const BASELINE_OFFSET: u64 = 1 << 40;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        planner: PlannerChoice::Software(QrmConfig::paper()),
        workers: 0,
        loss_prob: 0.0,
        max_rounds: ROUNDS,
        ..PipelineConfig::default()
    }
}

fn service(cache_bytes: usize) -> PlanService {
    let config = pipeline_config();
    PlanService::builder()
        .cache_bytes(cache_bytes)
        .register(PLANNER, config.planner.clone(), config)
        .build()
}

fn request(seed: u64, index: u64) -> SubmitBatch {
    SubmitBatch::new(
        PLANNER,
        BatchSpec::new(SHOTS, SIZE, item_seed(seed, index)).with_fill(FILL),
    )
}

struct Live {
    service: Arc<PlanService>,
    client: Client,
    _server: Server,
}

fn setup(seed: u64) -> Result<Live, String> {
    let service = Arc::new(service(CACHE_BYTES));
    let (server, addr) = serve(Arc::clone(&service))?;
    let mut client = Client::connect(addr);
    // One request outside every measured index warms the pool and the
    // planner's contexts.
    client
        .submit(&request(seed, u64::MAX))
        .map_err(|e| format!("warm-up submit: {e}"))?;
    Ok(Live {
        service,
        client,
        _server: server,
    })
}

/// Re-runs a request layer by layer, in process, on the same inputs:
/// wire codec, cache-off `PlanService::submit`, `BatchSpec::workload`,
/// `Pipeline::run_batch_zones_tracked`, and each shot's rounds stage by
/// stage (render, detect, plan group, plan, kernel, AWG compile,
/// execute). Every stage's output must reproduce the served response.
struct Decomposition {
    tracer: Tracer,
    service: PlanService,
    pipeline: Pipeline,
    planner: Box<dyn Planner>,
    kernel: QrmScheduler,
    dataflow: DataflowStats,
    report_bytes: usize,
}

impl Decomposition {
    fn new(origin: Instant) -> Self {
        let config = pipeline_config();
        Decomposition {
            tracer: Tracer::new(origin),
            service: service(0),
            planner: config.planner.resolve(config.workers),
            pipeline: Pipeline::new(config),
            kernel: QrmScheduler::new(QrmConfig::paper()),
            dataflow: DataflowStats::default(),
            report_bytes: 0,
        }
    }

    /// Whether every layer reproduced `served`.
    fn decompose(&mut self, id: u64, request: &SubmitBatch, served: &BatchReport) -> bool {
        let t = &mut self.tracer;
        let text = t.span(id, "wire.encode", "net.http", || request.to_json());
        let decoded = t.span(id, "wire.decode", "net.http", || {
            SubmitBatch::from_json(&text)
        });
        let mut ok = decoded.as_ref() == Ok(request);
        let Ok(report) = t.span(id, "server.submit", "net.http", || {
            self.service.submit(request)
        }) else {
            return false;
        };
        ok &= report.reports == served.reports;
        let text = t.span(id, "wire.encode", "net.http", || report.to_json());
        self.report_bytes += text.len();
        let decoded = t.span(id, "wire.decode", "net.http", || {
            BatchReport::from_json(&text)
        });
        ok &= matches!(decoded, Ok(back) if back.reports == report.reports);
        let Ok(workload) = t.span(id, "server.workload", "server.submit", || {
            request.spec.workload()
        }) else {
            return false;
        };
        let Ok(run) = t.span(id, "control.pipeline", "server.submit", || {
            self.pipeline.run_batch_zones_tracked(
                &*self.planner,
                &workload.truths,
                &workload.zones,
                request.spec.seed,
            )
        }) else {
            return false;
        };
        ok &= run.reports == report.reports;
        self.dataflow.absorb(&run.stats);
        for (shot, (truth, expected)) in workload.truths.iter().zip(&run.reports).enumerate() {
            let rng = Pipeline::shot_rng(request.spec.seed, shot);
            ok &= self.shot_stages(id, truth, &workload.zones, rng).as_ref() == Ok(expected);
        }
        ok
    }

    /// One shot's closed loop stage by stage, as `Pipeline::run_zones`
    /// runs it for a single full-array zone; plan groups are single
    /// shots, as the dataflow run forms them on this workload.
    fn shot_stages(
        &mut self,
        id: u64,
        truth: &AtomGrid,
        zones: &[Zone],
        mut rng: StdRng,
    ) -> Result<PipelineReport, String> {
        let (height, width) = (truth.height(), truth.width());
        let [zone] = zones else {
            return Err("expected one zone".to_string());
        };
        if *zone != Zone::full_array(height, width, zone.target) {
            return Err("expected a full-array zone".to_string());
        }
        let target = zone.target;
        let config = self.pipeline.config();
        let layout = TrapLayout::new(height, width, config.pitch_px, 4.0);
        let executor = self
            .planner
            .executor()
            .with_collision_policy(CollisionPolicy::Eject);
        let t = &mut self.tracer;
        let err = |e: qrm_core::error::Error| e.to_string();
        let mut state = truth.clone();
        let mut rounds = Vec::new();
        for _ in 0..config.max_rounds {
            if state.is_filled(&target).map_err(err)? {
                break;
            }
            let frame = t.span(id, "vision.render", "control.pipeline", || {
                render(&state, &layout, &config.imaging, &mut rng)
            });
            let detection = t
                .span(id, "vision.detect", "control.pipeline", || {
                    config.detector.detect(&frame, &layout)
                })
                .map_err(err)?;
            let detection_fidelity = detection.fidelity(&state).map_err(err)?;
            let job = [(detection.grid, target)];
            let group = t
                .span(id, "core.engine", "control.pipeline", || {
                    self.planner.plan_batch(&job)
                })
                .map_err(err)?;
            let grid = &job[0].0;
            let plan = t
                .span(id, "core.plan", "core.engine", || {
                    self.planner.plan(grid, &target)
                })
                .map_err(err)?;
            t.span(id, "core.kernel", "core.plan", || {
                self.kernel.quadrant_outcomes(grid, &target)
            })
            .map_err(err)?;
            if group != [plan.clone()] {
                return Err("plan_batch differs from plan".to_string());
            }
            let program = t
                .span(id, "control.awg", "control.pipeline", || {
                    ToneProgram::compile(&plan.schedule, &AodCalibration::default(), &config.motion)
                })
                .map_err(err)?;
            let executed = t
                .span(id, "core.executor", "control.pipeline", || {
                    executor.run_with_loss(&state, &plan.schedule, config.loss_prob, &mut rng)
                })
                .map_err(err)?;
            state = executed.final_grid;
            let filled = state.is_filled(&target).map_err(err)?;
            rounds.push(RoundReport {
                detection_fidelity,
                moves: plan.schedule.len(),
                atoms_lost: executed.lost_atoms + executed.ejected_atoms,
                motion_us: program.total_duration_us(),
                state: state.clone(),
                filled,
            });
            if filled {
                break;
            }
        }
        let filled = state.is_filled(&target).map_err(err)?;
        Ok(PipelineReport {
            rounds,
            final_state: state,
            filled,
        })
    }
}

/// Sends requests `first, first + 1, …` until `window` passes, each
/// after the previous reply. Responses to the fixed set's indices are
/// kept for the deterministic metrics.
fn drive(
    live: &mut Live,
    seed: u64,
    first: u64,
    window: Duration,
    fixed: &mut [Option<Vec<PipelineReport>>],
    mut decomposition: Option<&mut Decomposition>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut index = first;
    while start.elapsed() < window {
        let request = request(seed, index);
        let t0 = Instant::now();
        let response = match decomposition.as_deref_mut() {
            Some(d) => d.tracer.span(index, "net.http", "request", || {
                live.client.submit(&request)
            }),
            None => live.client.submit(&request),
        };
        let us = us_since(t0);
        phase.attempted += 1;
        let ok = response.is_ok_and(|report| {
            let ok = report.planner == PLANNER
                && report.shots() == SHOTS
                && decomposition
                    .as_deref_mut()
                    .is_none_or(|d| d.decompose(index, &request, &report));
            if let Some(slot) = fixed.get_mut(index as usize) {
                *slot = Some(report.reports);
            }
            ok
        });
        if ok {
            phase.window.record(us);
        } else {
            phase.failed += 1;
        }
        index += 1;
    }
    phase.window.close(start);
    phase
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut live, setup_s) = timed_setups(|| setup(args.seed))?;
    let mut fixed: Vec<Option<Vec<PipelineReport>>> = vec![None; FIXED as usize];
    let mut decomposition = args.trace.then(|| Decomposition::new(Instant::now()));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    let (first, window) = if args.trace {
        (BASELINE_OFFSET, args.window / 2)
    } else {
        (0, args.window)
    };
    let stats_before = live.service.stats();
    let pool_before = rayon::global_pool_stats();
    let base = drive(&mut live, args.seed, first, window, &mut fixed, None);
    let pool_after = rayon::global_pool_stats();
    let stats_after = live.service.stats();
    let traced = decomposition.as_mut().map(|d| {
        drive(
            &mut live,
            args.seed,
            0,
            args.window / 2,
            &mut fixed,
            Some(d),
        )
    });
    for phase in std::iter::once(&base).chain(&traced) {
        out.attempted += phase.attempted;
        out.failed += phase.failed;
    }
    out.shots_per_request = SHOTS as u64;

    // The fixed set's remaining requests, untimed, so the deterministic
    // metrics never depend on how many requests fit in the window.
    let mut quality = Quality::default();
    for (index, slot) in fixed.iter_mut().enumerate() {
        if slot.is_none() {
            out.attempted += 1;
            match live.client.submit(&request(args.seed, index as u64)) {
                Ok(report) if report.planner == PLANNER && report.shots() == SHOTS => {
                    *slot = Some(report.reports);
                }
                _ => out.failed += 1,
            }
        }
        for report in slot.iter().flatten() {
            quality.add_report(report);
        }
    }
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    let mut untraced = Tracer::new(Instant::now());
    let tracer = match decomposition.as_mut() {
        Some(d) => &mut d.tracer,
        None => &mut untraced,
    };
    for index in 0..FIXED {
        let spec = request(args.seed, index).spec;
        let workload = spec.workload().map_err(|e| e.to_string())?;
        let target = spec.target().map_err(|e| e.to_string())?;
        for truth in &workload.truths {
            let report = tracer
                .span(index, "fpga.model", "check", || accel.run(truth, &target))
                .map_err(|e| format!("accelerator model: {e}"))?;
            quality.add_fpga(&report);
        }
    }

    if let (Some(d), Some(traced)) = (decomposition, traced) {
        let mut layers = Layers::new();
        let t = &d.tracer;
        let n = traced.attempted.max(1) as f64;
        let per_request = |name: &str| t.total_us(name) / n;
        let stages = [
            "vision.render",
            "vision.detect",
            "core.engine",
            "control.awg",
            "core.executor",
        ];
        let pipeline_self =
            per_request("control.pipeline") - stages.iter().map(|s| per_request(s)).sum::<f64>();
        let engine_self = per_request("core.engine") - per_request("core.plan");
        let merge_self = per_request("core.plan") - per_request("core.kernel");
        let codec = per_request("wire.encode") + per_request("wire.decode");
        let submit_self = per_request("server.submit")
            - per_request("server.workload")
            - per_request("control.pipeline");
        let http_self = per_request("net.http") - per_request("server.submit") - codec;

        layers.set("core.plan.us", t.mean_us("core.plan"));
        layers.set("core.kernel.us", t.mean_us("core.kernel"));
        layers.set(
            "core.merge.self_us",
            t.mean_us("core.plan") - t.mean_us("core.kernel"),
        );
        layers.set(
            "core.engine.self_us",
            (t.total_us("core.engine") - t.total_us("core.plan"))
                / t.count("core.engine").max(1) as f64,
        );
        layers.set("core.executor.us", t.mean_us("core.executor"));
        layers.set("control.awg.us", t.mean_us("control.awg"));
        layers.set("control.pipeline.us", per_request("control.pipeline"));
        layers.set("control.pipeline.self_us", pipeline_self);
        let groups = d.dataflow.plan_groups.max(1) as f64;
        layers.set(
            "control.dataflow.mean_group_size",
            d.dataflow.planned_shots as f64 / groups,
        );
        layers.set(
            "control.dataflow.rounds_overlapped",
            d.dataflow.rounds_overlapped as f64 / n,
        );
        layers.set(
            "control.dataflow.tasks",
            d.dataflow.tasks_dispatched as f64 / n,
        );
        layers.set("vision.render.us", t.mean_us("vision.render"));
        layers.set("vision.detect.us", t.mean_us("vision.detect"));
        layers.set("vision.frames", t.count("vision.render") as f64 / n);
        pool_layers(&mut layers, &pool_before, &pool_after, base.attempted);
        layers.set("server.workload.us", per_request("server.workload"));
        layers.set("server.submit.self_us", submit_self);
        let cache = (stats_before.cache, stats_after.cache);
        let base_n = base.attempted.max(1) as f64;
        layers.set(
            "server.cache.hit_ratio",
            (cache.1.hits - cache.0.hits) as f64
                / (cache.1.lookups - cache.0.lookups).max(1) as f64,
        );
        layers.set(
            "server.cache.insertions",
            (cache.1.insertions - cache.0.insertions) as f64 / base_n,
        );
        layers.set(
            "server.cache.evictions",
            (cache.1.evictions - cache.0.evictions) as f64 / base_n,
        );
        layers.set("wire.encode.us", per_request("wire.encode"));
        layers.set("wire.decode.us", per_request("wire.decode"));
        layers.set("wire.report_bytes", d.report_bytes as f64 / n);
        layers.set("net.http.self_us", http_self);
        quality.set_layers(&mut layers, t);
        layers.set_path(vec![
            ("net.http.self", http_self),
            ("wire.encode", per_request("wire.encode")),
            ("wire.decode", per_request("wire.decode")),
            ("server.submit.self", submit_self),
            ("server.workload", per_request("server.workload")),
            ("control.pipeline.self", pipeline_self),
            ("vision.render", per_request("vision.render")),
            ("vision.detect", per_request("vision.detect")),
            ("core.engine.self", engine_self),
            ("core.merge.self", merge_self),
            ("core.kernel", per_request("core.kernel")),
            ("control.awg", per_request("control.awg")),
            ("core.executor", per_request("core.executor")),
        ]);
        layers.set_overhead(&traced.window, &base.window);
        let served = stats_after.scheduler;
        layers.note(format!(
            "dataflow drain window: traced re-runs planned {} shots in {} groups ({} rounds overlapped); \
             the served run planned {} shots in {} groups ({} rounds overlapped)",
            d.dataflow.planned_shots,
            d.dataflow.plan_groups,
            d.dataflow.rounds_overlapped,
            served.planned_shots,
            served.plan_groups,
            served.rounds_overlapped
        ));
        save_spans(t, args, &mut layers)?;
        out.layers = Some(layers);
    }
    out.window = base.window;
    out.quality = quality;
    Ok(out)
}
