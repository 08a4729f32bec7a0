//! The timing adapters must be invisible to the library: wrapping an
//! execution, observer or checkpoint sink leaves outcome, ledger, snapshot
//! and trace bytes identical, and the traced pass's spans account for its
//! whole solve time.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use cc_mis_analysis::trace::JsonlTraceSink;
use cc_mis_graph::Graph;
use cc_mis_perfbench::adapters::{Timed, TimedObserver};
use cc_mis_perfbench::jobs::{build, Alg, GraphDef, JobOut};
use cc_mis_perfbench::span::{maybe_span, self_times, Tracer, NO_PARENT};
use cc_mis_perfbench::workloads::{run_pass, workload, JobDef, Mode, PassKind, Workload};
use cc_mis_perfbench::{per_layer, END_TO_END};
use cc_mis_sim::driver::{drive, drive_observed, drive_with_checkpoints, snapshot};
use cc_mis_sim::{Execution, Status};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("test scratch directory is creatable");
    dir
}

fn small_graphs() -> Vec<Graph> {
    vec![
        GraphDef {
            family: "gnp",
            n: 96,
            avg_deg: 8.0,
            seed: 11,
        }
        .build(),
        GraphDef {
            family: "regular",
            n: 64,
            avg_deg: 4.0,
            seed: 12,
        }
        .build(),
    ]
}

/// `(rounds, messages, bits, mis)` of a finished job.
fn key(out: JobOut) -> (u64, u64, u64, Vec<u32>) {
    let o = out.result.expect("small test graphs solve cleanly");
    let mis = o.mis.iter().map(|v| v.index() as u32).collect();
    (o.ledger.rounds, o.ledger.messages, o.ledger.bits, mis)
}

#[test]
fn timed_execution_leaves_outcome_ledger_and_snapshots_identical() {
    let graphs = small_graphs();
    for alg in Alg::ALL {
        let g = if alg == Alg::Lowdeg {
            &graphs[1]
        } else {
            &graphs[0]
        };
        let tracer = Rc::new(Tracer::new());
        let mut bare = build(alg, g, 5);
        let mut timed = Timed::new(build(alg, g, 5), Rc::clone(&tracer), 0, alg.step_span());
        for _ in 0..2 {
            assert!(matches!(bare.step(), Status::Running), "{alg:?}");
            assert!(matches!(timed.step(), Status::Running), "{alg:?}");
        }
        assert_eq!(snapshot(&bare), snapshot(&timed), "{alg:?} snapshot bytes");
        assert_eq!(key(drive(bare)), key(drive(timed)), "{alg:?} outcome");
        let steps = tracer
            .spans()
            .iter()
            .filter(|s| s.name == alg.step_span())
            .count();
        assert!(steps >= 3, "{alg:?}: {steps} step spans");
    }
}

#[test]
fn timed_observer_leaves_trace_bytes_identical() {
    let graphs = small_graphs();
    let dir = scratch("timed_observer");
    let run = |path: PathBuf, wrap: bool| {
        let sink = JsonlTraceSink::new(&path).shared();
        let tracer = Rc::new(Tracer::new());
        let observer = if wrap {
            TimedObserver::shared(Rc::clone(&sink), Rc::clone(&tracer), 0)
        } else {
            JsonlTraceSink::as_observer(&sink)
        };
        let out = key(drive_observed(
            build(Alg::Thm11, &graphs[0], 9),
            Some(observer),
        ));
        let events = JsonlTraceSink::finish_shared(&sink).expect("trace file is writable");
        let spans = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "observer.sink")
            .count() as u64;
        (
            out,
            std::fs::read(&path).expect("trace was written"),
            events,
            spans,
        )
    };
    let (bare_out, bare_bytes, events, _) = run(dir.join("bare.jsonl"), false);
    let (timed_out, timed_bytes, timed_events, spans) = run(dir.join("timed.jsonl"), true);
    assert_eq!(bare_out, timed_out);
    assert!(!bare_bytes.is_empty());
    assert_eq!(
        bare_bytes, timed_bytes,
        "trace bytes differ under the timing observer"
    );
    assert_eq!(events, timed_events);
    assert_eq!(spans, events, "one observer.sink span per event");
}

#[test]
fn timed_checkpoint_sink_leaves_checkpoints_identical() {
    let graphs = small_graphs();
    let run = |tracer: Option<Rc<Tracer>>| {
        let stream = RefCell::new(Vec::new());
        let out = drive_with_checkpoints(
            build(Alg::Sparsified, &graphs[0], 3),
            None,
            2,
            |steps, bytes| {
                maybe_span(tracer.as_deref(), "checkpoint.sink", 0, || {
                    stream.borrow_mut().push((steps, bytes.to_vec()));
                });
            },
        );
        (key(out), stream.into_inner())
    };
    let tracer = Rc::new(Tracer::new());
    let (bare_out, bare_stream) = run(None);
    let (timed_out, timed_stream) = run(Some(Rc::clone(&tracer)));
    assert_eq!(bare_out, timed_out);
    assert!(!bare_stream.is_empty());
    assert_eq!(
        bare_stream, timed_stream,
        "checkpoint stream differs under the timed sink"
    );
    assert_eq!(tracer.spans().len(), bare_stream.len());
}

/// A small batch mixing every mode and algorithm, preempted every 2 steps.
fn small_batch(name: &'static str) -> Workload {
    let graphs = vec![
        GraphDef {
            family: "gnp",
            n: 96,
            avg_deg: 8.0,
            seed: 11,
        },
        GraphDef {
            family: "regular",
            n: 64,
            avg_deg: 4.0,
            seed: 12,
        },
    ];
    let modes = [Mode::Observed, Mode::Checkpointed, Mode::Plain];
    let jobs = Alg::ALL
        .into_iter()
        .enumerate()
        .map(|(i, alg)| JobDef {
            label: format!("{i:03}:{}", alg.name()),
            alg,
            graph: usize::from(alg == Alg::Lowdeg || i % 2 == 1),
            seed: 100 + i as u64,
            mode: modes[i % 3],
            fault: None,
        })
        .collect();
    Workload {
        name,
        graphs,
        jobs,
        quantum: Some(2),
        shards: 0,
    }
}

#[test]
fn traced_pass_repeats_the_plain_pass_and_its_spans_add_up() {
    let w = small_batch("test_batch");
    let dir = scratch("traced_pass");
    let plain = run_pass(&w, PassKind::Plain, &dir);
    let traced = run_pass(&w, PassKind::Traced, &dir);
    for (p, t) in plain.jobs.iter().zip(&traced.jobs) {
        assert!(p.identity.is_some(), "{}: {:?}", p.label, p.error);
        assert!(t.identity.is_some(), "{}: {:?}", t.label, t.error);
        assert_eq!(p.identity, t.identity, "{}", p.label);
    }
    assert!(traced.layers["observer.events"] > 0.0);
    assert!(traced.layers["snapshot.restores"] > 0.0);
    assert!(traced.layers["checkpoint.bytes"] > 0.0);
    assert!(traced.layers["core.lowdeg.replay_s"] > 0.0);

    // Per-job self times plus the scheduler's own time are the solve time.
    let spans = &traced.spans;
    let selfs = self_times(spans);
    let run = spans
        .iter()
        .position(|s| s.name == "scheduler.run" && s.parent == NO_PARENT)
        .expect("the traced pass records its scheduler run");
    let under_run = |mut i: usize| loop {
        let p = spans[i].parent;
        if p == NO_PARENT {
            return false;
        }
        if p as usize == run {
            return true;
        }
        i = p as usize;
    };
    let mut per_job = vec![0u64; w.jobs.len()];
    for (i, s) in spans.iter().enumerate() {
        if under_run(i) {
            per_job[s.job as usize] += selfs[i];
        }
    }
    assert!(
        per_job.iter().all(|&ns| ns > 0),
        "every job has spans: {per_job:?}"
    );
    let run_ns = spans[run].dur_ns();
    assert_eq!(per_job.iter().sum::<u64>() + selfs[run], run_ns);
    assert!((traced.layers["scheduler.self_s"] - selfs[run] as f64 * 1e-9).abs() < 1e-12);
    assert!(
        (traced.solve_s - run_ns as f64 * 1e-9).abs() < 1e-3,
        "solve_s is the run span"
    );
}

#[test]
fn workloads_follow_their_seed() {
    let a = workload("batch_service", 1).expect("known workload");
    assert_eq!(a.jobs.len(), 120);
    assert_eq!(a.graphs.len(), 20);
    assert_eq!(
        a.jobs.iter().filter(|j| j.mode == Mode::Observed).count(),
        60
    );
    for alg in Alg::ALL.into_iter().filter(|&a| a != Alg::Lowdeg) {
        for n in [256, 512, 1024, 2048] {
            let modes: Vec<Mode> = a
                .jobs
                .iter()
                .filter(|j| j.alg == alg && a.graphs[j.graph].n == n)
                .map(|j| j.mode)
                .collect();
            assert!(
                modes.contains(&Mode::Observed) && modes.contains(&Mode::Checkpointed),
                "{alg:?} n={n}"
            );
        }
    }
    let again = workload("batch_service", 1).expect("known workload");
    let other = workload("batch_service", 2).expect("known workload");
    assert_eq!(a.graphs, again.graphs);
    assert!(a
        .graphs
        .iter()
        .zip(&other.graphs)
        .all(|(x, y)| x.seed != y.seed));
    assert!(a
        .jobs
        .iter()
        .zip(&other.jobs)
        .all(|(x, y)| x.seed != y.seed));
    let sharded = workload("sharded_dense", 7).expect("known workload");
    assert!(sharded.jobs.iter().all(|j| j.fault.is_some()));
    assert!(workload("nope", 1).is_none());
}

#[test]
fn benchmark_json_lists_every_metric_the_program_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let squashed: String = text.split_whitespace().collect();
    let listed = |name: &str, unit: &str| {
        squashed.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\""))
    };
    for (name, unit) in END_TO_END {
        assert!(listed(name, unit), "end-to-end {name} ({unit}) missing");
    }
    let layers = per_layer();
    for (name, unit) in &layers {
        assert!(listed(name, unit), "per-layer {name} ({unit}) missing");
    }
    let entries = squashed.matches("{\"name\":").count();
    assert_eq!(
        entries,
        4 + END_TO_END.len() + layers.len(),
        "no extra metrics"
    );
}
