//! End-to-end and per-layer benchmark of the clique-mis workspace.
//!
//! The benchmark drives the library in-process through its public API —
//! generators, the `Execution` constructors, `BatchScheduler`/`JobSpec`,
//! `drive_observed`, `driver::resume`, the JSONL trace sink and `checks` —
//! on four workloads (see `README.md` next to this crate). End-to-end
//! metrics come from an untraced pass; per-layer metrics from a separate
//! pass that records a span around every call into a layer.

#![forbid(unsafe_code)]

pub mod adapters;
pub mod jobs;
pub mod span;
pub mod workloads;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("graph.build_s".into(), "s"),
        ("graph.edges".into(), "count"),
        ("graph.verify_s".into(), "s"),
    ];
    for alg in jobs::Alg::ALL {
        let a = alg.name();
        m.push((format!("core.{a}.new_s"), "s"));
        m.push((format!("core.{a}.step_s"), "s"));
        m.push((format!("core.{a}.steps"), "count"));
        m.push((format!("core.{a}.step_max_s"), "s"));
        m.push((format!("core.{a}.rounds"), "count"));
        m.push((format!("core.{a}.messages"), "count"));
        m.push((format!("core.{a}.bits"), "count"));
    }
    for (name, unit) in [
        ("core.lowdeg.gather_s", "s"),
        ("core.lowdeg.replay_s", "s"),
        ("runtime.ns_per_msg", "ns"),
        ("observer.events", "count"),
        ("trace.bytes", "B"),
        ("observer.sink_s", "s"),
        ("observer.overhead_s", "s"),
        ("observer.overhead_x", "ratio"),
        ("snapshot.save_s", "s"),
        ("snapshot.saves", "count"),
        ("snapshot.bytes", "B"),
        ("snapshot.restore_s", "s"),
        ("snapshot.restores", "count"),
        ("checkpoint.sink_s", "s"),
        ("checkpoint.bytes", "B"),
        ("scheduler.steps", "count"),
        ("scheduler.preemptions", "count"),
        ("scheduler.make_s", "s"),
        ("scheduler.self_s", "s"),
        ("shard.framed_s", "s"),
        ("shard.framed_over_direct_x", "ratio"),
        ("shard.recoveries", "count"),
        ("bench.span_overhead_x", "ratio"),
    ] {
        m.push((name.into(), unit));
    }
    m
}
