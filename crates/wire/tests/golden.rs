//! Golden-corpus wire tests: checked-in v1 encodings of every service
//! type must stay **decodable** and must **re-encode byte-identically**
//! for as long as the `/v1` protocol exists.
//!
//! The fixtures under `tests/golden/` were produced by this crate's own
//! encoder (see [`regenerate_fixtures`]) and frozen. The round-trip
//! tests in `roundtrip.rs` only prove that *today's* encoder and
//! decoder agree with each other; these tests prove that today's
//! decoder still agrees with *yesterday's* encoder — a field rename, a
//! serde-derive change, or a float-formatting tweak that silently
//! breaks deployed clients fails here first.
//!
//! When the protocol legitimately grows a `/v2`, add new fixtures; the
//! v1 files stay until v1 support is dropped (`docs/PROTOCOL.md`).

use qrm_server::{BatchReport, BatchSpec, ServiceStats, SubmitBatch};
use qrm_wire::{ErrorReply, FromJson, ToJson};

/// Decodes `fixture` as `T` and proves the decode→encode round trip
/// reproduces the checked-in bytes exactly (modulo the trailing
/// newline the files carry for POSIX hygiene).
fn assert_golden<T: FromJson + ToJson>(name: &str, fixture: &str) -> T {
    let text = fixture.trim_end_matches('\n');
    let value = T::from_json(text)
        .unwrap_or_else(|e| panic!("golden fixture {name} stopped decoding: {e}"));
    assert_eq!(
        value.to_json(),
        text,
        "golden fixture {name} no longer re-encodes byte-identically"
    );
    value
}

#[test]
fn batch_spec_v1_stays_decodable() {
    let spec: BatchSpec = assert_golden("batch_spec.v1", include_str!("golden/batch_spec.v1.json"));
    assert_eq!((spec.shots, spec.size, spec.seed), (4, 16, 7));
}

#[test]
fn submit_batch_v1_stays_decodable() {
    // This fixture predates the `scenario`/`trace` fields, so it doubles
    // as the pre-scenario peer regression: a client that has never heard
    // of scenarios must keep decoding to the defaults (uniform fill, no
    // trace) — the additive-evolution rule of `docs/PROTOCOL.md` proven
    // against real frozen bytes, not just specified. And because the
    // encoder omits both fields at their defaults, byte-identical
    // re-encoding still holds: this fixture is *not* decode-only.
    let request: SubmitBatch = assert_golden(
        "submit_batch.v1",
        include_str!("golden/submit_batch.v1.json"),
    );
    assert_eq!(request.planner, "qrm");
    assert_eq!(request.spec, BatchSpec::new(4, 16, 7));
    assert_eq!(request.spec.scenario, qrm_server::Scenario::UniformFill);
    assert!(!request.trace, "absent trace flag must decode as false");
}

#[test]
fn submit_batch_v1_scenario_stays_decodable() {
    let request: SubmitBatch = assert_golden(
        "submit_batch.v1.scenario",
        include_str!("golden/submit_batch.v1.scenario.json"),
    );
    assert_eq!(request.planner, "qrm");
    assert_eq!(
        request.spec.scenario,
        qrm_server::Scenario::Zones { rows: 2, cols: 2 }
    );
    assert!(request.trace, "fixture requests the move trace");
}

#[test]
fn batch_report_v1_stays_decodable() {
    let report: BatchReport = assert_golden(
        "batch_report.v1",
        include_str!("golden/batch_report.v1.json"),
    );
    // The payload fields (everything except wall-clock timing) came
    // from a deterministic seeded run; spot-check them so a decoder
    // that silently zeroes fields cannot pass the byte identity alone.
    assert_eq!(report.planner, "qrm");
    assert_eq!(report.shots(), 4);
    assert_eq!(
        report.filled(),
        report.reports.iter().filter(|r| r.filled).count()
    );
    assert!(report.wall_us > 0.0);
}

#[test]
fn batch_report_v1_trace_stays_decodable() {
    let report: BatchReport = assert_golden(
        "batch_report.v1.trace",
        include_str!("golden/batch_report.v1.trace.json"),
    );
    assert_eq!(report.planner, "qrm");
    // The decoded trace is not just schema-valid: replaying it on the
    // fixture spec's initial grids must land on the reported final
    // occupancy, so a decoder that scrambles transfer coordinates (but
    // keeps the bytes) cannot pass.
    let traces = report.trace.as_ref().expect("fixture carries a trace");
    let truths = BatchSpec::new(2, 12, 7)
        .workload()
        .expect("fixture workload")
        .truths;
    assert_eq!(traces.len(), truths.len());
    for (i, trace) in traces.iter().enumerate() {
        let replayed = qrm_core::trace::TraceReplayer::replay(&truths[i], trace)
            .expect("fixture trace must replay cleanly");
        assert_eq!(
            replayed, report.reports[i].final_state,
            "shot {i}: fixture trace replay != reported final grid"
        );
    }
}

#[test]
fn service_stats_v1_stays_decodable() {
    // Frozen **pre-dataflow** encoding: it predates the `scheduler`
    // field, so it is decode-only (re-encoding legitimately adds the
    // new key). Decoding it proves the additive-evolution rule of
    // `docs/PROTOCOL.md`: a missing `scheduler` reads as all zeros
    // instead of an error, so old peers keep interoperating.
    let text = include_str!("golden/service_stats.v1.json").trim_end_matches('\n');
    let stats = ServiceStats::from_json(text)
        .expect("pre-dataflow service_stats.v1 fixture stopped decoding");
    assert_eq!(stats.batches_served, 1);
    assert_eq!(stats.shots_served, 4);
    let planner = stats
        .planners
        .iter()
        .find(|p| p.name == "qrm")
        .expect("qrm registration present in fixture");
    assert_eq!(planner.batches, 1);
    assert!(planner.contexts.is_some(), "QRM pools contexts");
    assert_eq!(
        stats.scheduler,
        qrm_core::engine::dataflow::DataflowStats::default(),
        "absent scheduler key must decode as zeros"
    );
}

#[test]
fn service_stats_v1_dataflow_stays_decodable() {
    // Frozen **pre-cache** encoding: it has the `scheduler` field but
    // predates `cache`, so — like the pre-dataflow fixture above — it
    // is decode-only, proving the additive rule one generation on: a
    // missing `cache` key reads as all zeros instead of an error.
    let text = include_str!("golden/service_stats.v1.dataflow.json").trim_end_matches('\n');
    let stats = ServiceStats::from_json(text)
        .expect("pre-cache service_stats.v1.dataflow fixture stopped decoding");
    assert_eq!(stats.batches_served, 1);
    assert_eq!(stats.shots_served, 4);
    assert!(stats.scheduler.planned_shots >= 4);
    assert!(stats.scheduler.tasks_dispatched > 0);
    assert_eq!(
        stats.cache,
        qrm_server::CacheStats::default(),
        "absent cache key must decode as zeros"
    );
}

#[test]
fn service_stats_v1_cache_stays_decodable() {
    // Frozen **pre-net** encoding: it has `scheduler` and `cache` but
    // predates the `net` connection gauges, so — like the two older
    // generational fixtures above — it is now decode-only, proving the
    // additive rule one more generation on: a missing `net` key reads
    // as all zeros instead of an error.
    let text = include_str!("golden/service_stats.v1.cache.json").trim_end_matches('\n');
    let stats = ServiceStats::from_json(text)
        .expect("pre-net service_stats.v1.cache fixture stopped decoding");
    assert_eq!(stats.batches_served, 2);
    assert!(stats.scheduler.tasks_dispatched > 0);
    assert_eq!(stats.cache.lookups, 2);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.entries, 1);
    assert!(stats.cache.bytes > 0);
    assert!(stats.cache.budget_bytes > 0);
    assert_eq!(
        stats.net,
        qrm_server::NetStats::default(),
        "absent net key must decode as zeros"
    );
}

#[test]
fn service_stats_v1_net_stays_decodable() {
    // The current canonical encoding, with all three additive fields
    // (`scheduler`, `cache`, and the HTTP front end's `net` gauges):
    // byte-identity applies again. The net counters are visibly
    // nonzero so a decoder that silently zeroes the new block cannot
    // pass on byte identity alone.
    let stats: ServiceStats = assert_golden(
        "service_stats.v1.net",
        include_str!("golden/service_stats.v1.net.json"),
    );
    assert_eq!(stats.batches_served, 2);
    assert!(stats.cache.lookups > 0);
    assert_eq!(stats.net.open_connections, 2);
    assert_eq!(stats.net.peak_open, 3);
    assert_eq!(stats.net.accepted_total, 9);
    assert_eq!(stats.net.closed_total, 7);
    assert_eq!(stats.net.requests_served, 41);
    assert_eq!(stats.net.auth_failures, 1);
    assert_eq!(
        stats.net.closed_idle
            + stats.net.closed_request_timeout
            + stats.net.closed_write_stalled
            + stats.net.closed_peer
            + stats.net.closed_framing
            + stats.net.closed_shutdown
            + stats.net.closed_over_capacity,
        stats.net.closed_total,
        "fixture's per-cause close counts sum to its close total"
    );
}

#[test]
fn router_stats_v1_stays_decodable() {
    let stats: qrm_wire::RouterStats = assert_golden(
        "router_stats.v1",
        include_str!("golden/router_stats.v1.json"),
    );
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.relayed, 24);
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.backends.len(), 3);
    assert_eq!(
        stats.backends.iter().map(|b| b.routed).sum::<u64>(),
        stats.relayed,
        "fixture's per-backend counts sum to its relay total"
    );
    let dead = stats
        .backends
        .iter()
        .find(|b| !b.healthy)
        .expect("one dead");
    assert_eq!(dead.failed_over, 1);
}

#[test]
fn error_reply_v1_stays_decodable() {
    let reply: ErrorReply =
        assert_golden("error_reply.v1", include_str!("golden/error_reply.v1.json"));
    assert_eq!(reply.code, "unknown_planner");
}

/// Fixture (re)generator — run explicitly with
/// `cargo test -p qrm-wire --test golden -- --ignored` **only** when a
/// deliberate protocol revision requires new goldens; a regeneration
/// that changes existing files is a wire-format break and must be
/// called out as such in the PR that commits it.
#[test]
#[ignore = "writes tests/golden/*.json; run only for a deliberate protocol revision"]
fn regenerate_fixtures() {
    use qrm_control::pipeline::{PipelineConfig, PlannerChoice};
    use qrm_core::scheduler::QrmConfig;

    let spec = BatchSpec::new(4, 16, 7);
    let request = SubmitBatch::new("qrm", spec.clone());

    // One deterministic submission so the report/stats fixtures carry
    // realistic nested payloads (histograms, context pools, per-shot
    // pipeline reports) rather than hand-minimised ones.
    let service = qrm_server::PlanService::builder()
        .register(
            "qrm",
            PlannerChoice::Software(QrmConfig::paper()),
            PipelineConfig {
                workers: 1,
                max_rounds: 2,
                ..PipelineConfig::default()
            },
        )
        .build();
    let report = service.submit(&request).expect("fixture submission");
    let reply = ErrorReply::new("unknown_planner", "no planner registered as \"nope\"");

    // The scenario-era request fixture: a multi-zone workload with the
    // trace flag raised, pinning the externally tagged `Scenario`
    // encoding and the `trace` key.
    let scenario_request = SubmitBatch::new(
        "qrm",
        BatchSpec::new(4, 16, 7).with_scenario(qrm_server::Scenario::Zones { rows: 2, cols: 2 }),
    )
    .with_trace(true);
    // And the traced response fixture: a deterministic traced
    // submission whose exported per-shot move traces replay to the
    // reported final grids (asserted by the golden test).
    let traced_report = service
        .submit(&SubmitBatch::new("qrm", BatchSpec::new(2, 12, 7)).with_trace(true))
        .expect("traced fixture submission");

    // The cache fixture's service: cache on, same spec twice, so the
    // snapshot carries one miss, one hit, one resident entry.
    let cached_service = qrm_server::PlanService::builder()
        .register(
            "qrm",
            PlannerChoice::Software(QrmConfig::paper()),
            PipelineConfig {
                workers: 1,
                max_rounds: 2,
                ..PipelineConfig::default()
            },
        )
        .cache_bytes(1 << 20)
        .build();
    cached_service
        .submit(&request)
        .expect("cache-miss submission");
    cached_service
        .submit(&request)
        .expect("cache-hit submission");
    let mut net_stats = cached_service.stats();
    // The connection gauges are hand-built, like the router snapshot:
    // plain counters, and a literal keeps the fixture independent of
    // socket timing. Per-cause closes must sum to `closed_total` and
    // `accepted_total` must equal `open + closed` (the documented
    // invariants, asserted by the golden test).
    net_stats.net = qrm_server::NetStats {
        open_connections: 2,
        peak_open: 3,
        accepted_total: 9,
        closed_total: 7,
        requests_served: 41,
        auth_failures: 1,
        closed_idle: 3,
        closed_request_timeout: 1,
        closed_write_stalled: 0,
        closed_peer: 1,
        closed_framing: 1,
        closed_shutdown: 0,
        closed_over_capacity: 1,
    };

    // A router snapshot is hand-built: the counters are plain data and
    // a literal keeps the fixture independent of socket timing.
    let router_stats = qrm_wire::RouterStats {
        requests: 24,
        relayed: 24,
        failovers: 1,
        no_backend: 0,
        backends: vec![
            qrm_wire::BackendRouteStats {
                addr: "127.0.0.1:7101".to_string(),
                healthy: true,
                routed: 13,
                failed_over: 0,
            },
            qrm_wire::BackendRouteStats {
                addr: "127.0.0.1:7102".to_string(),
                healthy: false,
                routed: 5,
                failed_over: 1,
            },
            qrm_wire::BackendRouteStats {
                addr: "127.0.0.1:7103".to_string(),
                healthy: true,
                routed: 6,
                failed_over: 0,
            },
        ],
    };

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    // Fully deterministic payloads may be rewritten; payloads carrying
    // measured fields (wall_us, latency histograms) are written only
    // when absent, so a routine regeneration cannot churn bytes that
    // exist purely to pin the decoder. The frozen generational fixtures
    // (`service_stats.v1.json` pre-dataflow, `service_stats.v1.dataflow
    // .json` pre-cache, `service_stats.v1.cache.json` pre-net) are
    // NEVER rewritten: each is an old encoder's output, kept to prove
    // its missing-field decode path — today's encoder cannot reproduce
    // them.
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text + "\n").expect("write fixture");
    };
    // "Absent" includes a zero-length placeholder: `include_str!` needs
    // the file to exist before the first regeneration can compile.
    let write_if_absent = |name: &str, text: String| {
        let path = dir.join(name);
        if std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) == 0 {
            write(name, text);
        }
    };
    write("batch_spec.v1.json", spec.to_json());
    write("submit_batch.v1.json", request.to_json());
    write("submit_batch.v1.scenario.json", scenario_request.to_json());
    write("error_reply.v1.json", reply.to_json());
    write("router_stats.v1.json", router_stats.to_json());
    write_if_absent("batch_report.v1.json", report.to_json());
    write_if_absent("batch_report.v1.trace.json", traced_report.to_json());
    write_if_absent("service_stats.v1.net.json", net_stats.to_json());
}
