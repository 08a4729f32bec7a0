//! The four workloads and the pass that runs one of them.
//!
//! A workload is data: the graphs to generate, the jobs to solve on them
//! (algorithm, seed, observed / checkpointed / faulted), and the scheduler
//! quantum. [`run_pass`] drives any workload through the library's public
//! API in one of three passes:
//!
//! * **plain** — no spans; the end-to-end numbers come from here;
//! * **traced** — every call into a layer is wrapped in a span, observed
//!   jobs are rerun unobserved and checkpointed jobs are resumed from their
//!   last checkpoint, and every outcome is compared;
//! * **direct** — the traced pass of a sharded workload rerun with direct
//!   delivery (its process runs with `CC_MIS_SHARDS=0`), no faults.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

use cc_mis_analysis::trace::JsonlTraceSink;
use cc_mis_core::MisOutcome;
use cc_mis_graph::{checks, Graph};
use cc_mis_sim::driver::{drive, drive_observed, resume};
use cc_mis_sim::shard::{fault_injections, shard_count, FaultPlan};
use cc_mis_sim::{BatchScheduler, BoxedExecution, JobResult, JobSpec};

use crate::adapters::{Timed, TimedObserver};
use crate::jobs::{build, derive_seed, mis_digest, Alg, Fnv, GraphDef, JobOut};
use crate::span::{maybe_span, now, self_times, Span, Tracer, NO_JOB, NO_PARENT};

/// Directory, relative to the working directory, for trace files and spans.
pub const OUT_DIR: &str = ".perfbench_out";

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "solo_large",
    "batch_service",
    "sharded_dense",
    "lowdeg_replay",
];

/// Shards a sharded workload delivers through.
pub const SHARDS: usize = 2;

/// Checkpoint cadence of checkpointed jobs, in steps.
pub const CHECKPOINT_EVERY: u64 = 4;

/// Delivery round (per transport) at which a faulted job loses a shard.
pub const FAULT_ROUND: u64 = 16;

/// How a job is watched while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Neither observed nor checkpointed.
    Plain,
    /// A JSONL trace sink observes every round.
    Observed,
    /// A snapshot goes to an in-memory store every [`CHECKPOINT_EVERY`] steps.
    Checkpointed,
}

/// One job of a workload.
#[derive(Debug, Clone)]
pub struct JobDef {
    /// Label, unique within the workload.
    pub label: String,
    /// Algorithm under test.
    pub alg: Alg,
    /// Index into [`Workload::graphs`].
    pub graph: usize,
    /// Algorithm seed.
    pub seed: u64,
    /// Observation.
    pub mode: Mode,
    /// Shard kill injected while the job runs (sharded workloads only).
    pub fault: Option<FaultPlan>,
}

/// A workload: its inputs, all derived from one seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// One of [`WORKLOADS`].
    pub name: &'static str,
    /// Graphs, generated during set-up.
    pub graphs: Vec<GraphDef>,
    /// Jobs, submitted to the scheduler in this order.
    pub jobs: Vec<JobDef>,
    /// Preemption quantum; `None` constructs every execution during set-up
    /// and runs each job to completion.
    pub quantum: Option<u64>,
    /// Shard count of the plain and traced passes (0 = direct delivery).
    pub shards: usize,
}

fn job(w: &mut Workload, seed: u64, alg: Alg, graph: usize, mode: Mode) {
    let i = w.jobs.len();
    w.jobs.push(JobDef {
        label: format!("{i:03}:{}:{}", alg.name(), w.graphs[graph].label()),
        alg,
        graph,
        seed: derive_seed(seed, 2, i as u64),
        mode,
        fault: None,
    });
}

fn graph(w: &mut Workload, seed: u64, family: &'static str, n: usize, avg_deg: f64) -> usize {
    let i = w.graphs.len();
    w.graphs.push(GraphDef {
        family,
        n,
        avg_deg,
        seed: derive_seed(seed, 1, i as u64),
    });
    i
}

/// The workload `name` for workload seed `seed`, or `None` for an unknown
/// name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let name = *WORKLOADS.iter().find(|&&w| w == name)?;
    let mut w = Workload {
        name,
        graphs: Vec::new(),
        jobs: Vec::new(),
        quantum: None,
        shards: 0,
    };
    match name {
        "solo_large" => {
            let g = graph(&mut w, seed, "kronecker", 1 << 17, 16.0);
            for alg in [Alg::Ghaffari16, Alg::Beeping, Alg::Sparsified, Alg::Thm11] {
                job(&mut w, seed, alg, g, Mode::Plain);
            }
        }
        "batch_service" => {
            w.quantum = Some(8);
            let algs = [
                Alg::Luby,
                Alg::Ghaffari16,
                Alg::G16Clique,
                Alg::Beeping,
                Alg::Sparsified,
                Alg::Thm11,
            ];
            let families = ["gnp", "ba", "kronecker", "geometric", "regular"];
            let sizes = [256, 512, 1024, 2048];
            for family in families {
                for n in sizes {
                    graph(&mut w, seed, family, n, 16.0);
                }
            }
            // Sizes vary fastest, so the costly n = 2048 jobs are spread
            // through the queue instead of closing every round-robin sweep;
            // turnaround percentiles then move smoothly with the job mix.
            for (fi, _) in families.iter().enumerate() {
                for (ai, alg) in algs.into_iter().enumerate() {
                    for (si, _) in sizes.iter().enumerate() {
                        // Families alternate per (algorithm, size), so each
                        // algorithm × size lands in both halves.
                        let mode = if (si + fi + ai) % 2 == 0 {
                            Mode::Observed
                        } else {
                            Mode::Checkpointed
                        };
                        job(&mut w, seed, alg, fi * sizes.len() + si, mode);
                    }
                }
            }
        }
        "sharded_dense" => {
            w.shards = SHARDS;
            for _ in 0..2 {
                let g = graph(&mut w, seed, "gnp", 2048, 128.0);
                for alg in [Alg::Thm11, Alg::Ghaffari16] {
                    job(&mut w, seed, alg, g, Mode::Plain);
                }
            }
            for (i, j) in w.jobs.iter_mut().enumerate() {
                j.fault = Some(FaultPlan {
                    kill_shard: (derive_seed(seed, 3, i as u64) % SHARDS as u64) as usize,
                    at_round: FAULT_ROUND,
                });
            }
        }
        "lowdeg_replay" => {
            let g = graph(&mut w, seed, "regular", 1024, 4.0);
            job(&mut w, seed, Alg::Lowdeg, g, Mode::Plain);
        }
        _ => unreachable!("every name in WORKLOADS has a table"),
    }
    Some(w)
}

/// Which pass [`run_pass`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Untraced; end-to-end metrics.
    Plain,
    /// Spans around every layer call, plus the cross-variant reruns.
    Traced,
    /// Traced with direct delivery and no faults.
    Direct,
}

impl PassKind {
    /// Command-line spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            PassKind::Plain => "plain",
            PassKind::Traced => "traced",
            PassKind::Direct => "direct",
        }
    }

    /// Parses [`PassKind::as_str`]'s spelling.
    pub fn parse(s: &str) -> Option<PassKind> {
        [PassKind::Plain, PassKind::Traced, PassKind::Direct]
            .into_iter()
            .find(|k| k.as_str() == s)
    }
}

/// The exact, simulated result of one job: what every variant must repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    /// Ledger rounds.
    pub rounds: u64,
    /// Ledger messages.
    pub messages: u64,
    /// Ledger bits.
    pub bits: u64,
    /// Digest of the MIS node list.
    pub mis: u64,
    /// Digest of the JSONL trace bytes (0 for unobserved jobs).
    pub trace: u64,
}

/// One job's result in a pass.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's label.
    pub label: String,
    /// `None` if the job failed (see `error`).
    pub identity: Option<Identity>,
    /// Why the job failed.
    pub error: Option<String>,
    /// Seconds from the scheduler's start to the job's outcome.
    pub turnaround_s: f64,
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// `(label, n, m)` of each graph.
    pub graphs: Vec<(String, usize, usize)>,
    /// Per-job results, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Graph generation plus up-front execution construction.
    pub setup_s: f64,
    /// The scheduler's run, first step to last outcome.
    pub solve_s: f64,
    /// Set-up, solve and verification, read with one clock.
    pub wall_s: f64,
    /// `VmHWM` of this process at the end of the pass.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced and direct passes only).
    pub layers: BTreeMap<String, f64>,
    /// The spans behind `layers` (traced and direct passes only).
    pub spans: Vec<Span>,
}

fn outcome_identity(o: &MisOutcome, trace: u64) -> Identity {
    Identity {
        rounds: o.ledger.rounds,
        messages: o.ledger.messages,
        bits: o.ledger.bits,
        mis: mis_digest(&o.mis),
        trace,
    }
}

/// Constructs a job's execution; in a traced pass the construction is a
/// `core.<a>.new` span and the execution is wrapped in [`Timed`].
fn make_exec<'g>(
    tracer: Option<&Rc<Tracer>>,
    job: u32,
    alg: Alg,
    g: &'g Graph,
    seed: u64,
) -> BoxedExecution<'g, JobOut> {
    match tracer {
        None => build(alg, g, seed),
        Some(t) => {
            let inner = t.span(alg.new_span(), job, || build(alg, g, seed));
            Box::new(Timed::new(inner, Rc::clone(t), job, alg.step_span()))
        }
    }
}

/// Peak resident set size of this process, in MiB (0 if unreadable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one pass of `w`. Trace files go to a private directory under
/// `out_dir` and are removed before returning; a traced pass leaves its
/// spans in `out_dir/spans-<workload>-<pass>.jsonl`.
pub fn run_pass(w: &Workload, kind: PassKind, out_dir: &Path) -> PassReport {
    let tracer = (kind != PassKind::Plain).then(|| Rc::new(Tracer::new()));
    let t = tracer.as_deref();
    let trace_dir = out_dir.join(format!(
        "traces-{}-{}-{}",
        w.name,
        kind.as_str(),
        std::process::id()
    ));
    if w.jobs.iter().any(|j| j.mode == Mode::Observed) {
        std::fs::create_dir_all(&trace_dir).expect("the output directory is writable");
    }

    // Set-up: graphs, then job specs (executions too, for solo jobs).
    let wall_start = now();
    let graphs: Vec<Graph> = w
        .graphs
        .iter()
        .map(|d| maybe_span(t, "graph.build", NO_JOB, || d.build()))
        .collect();
    let mut sinks: Vec<Option<Rc<RefCell<JsonlTraceSink>>>> = Vec::new();
    let mut stores: Vec<Rc<RefCell<Vec<u8>>>> = Vec::new();
    let mut specs: Vec<JobSpec<'_, JobOut>> = Vec::new();
    for (i, jd) in w.jobs.iter().enumerate() {
        let id = i as u32;
        let g = &graphs[jd.graph];
        let (alg, seed) = (jd.alg, jd.seed);
        let mut spec = match w.quantum {
            None => JobSpec::solo(make_exec(tracer.as_ref(), id, alg, g, seed)),
            Some(_) => {
                let tr = tracer.clone();
                JobSpec::new(jd.label.clone(), move || {
                    maybe_span(tr.as_deref(), "scheduler.make", id, || {
                        make_exec(tr.as_ref(), id, alg, g, seed)
                    })
                })
            }
        };
        let sink = (jd.mode == Mode::Observed)
            .then(|| JsonlTraceSink::new(trace_dir.join(format!("job-{i:03}.jsonl"))).shared());
        if let Some(sink) = &sink {
            spec = spec.observed(match &tracer {
                Some(tr) => TimedObserver::shared(Rc::clone(sink), Rc::clone(tr), id),
                None => JsonlTraceSink::as_observer(sink),
            });
        }
        let store = Rc::new(RefCell::new(Vec::new()));
        if jd.mode == Mode::Checkpointed {
            let (store, tr) = (Rc::clone(&store), tracer.clone());
            spec = spec.checkpointed(CHECKPOINT_EVERY, move |_, bytes| {
                maybe_span(tr.as_deref(), "checkpoint.sink", id, || {
                    let mut s = store.borrow_mut();
                    s.clear();
                    s.extend_from_slice(bytes);
                });
                if let Some(tr) = &tr {
                    tr.count("checkpoint.bytes", bytes.len() as u64);
                }
            });
        }
        if let (Some(plan), true) = (jd.fault, kind != PassKind::Direct) {
            spec = spec.faulted(plan);
        }
        sinks.push(sink);
        stores.push(store);
        specs.push(spec);
    }
    let setup_s = wall_start.elapsed().as_secs_f64();

    // Solve.
    let scheduler = match w.quantum {
        Some(q) => BatchScheduler::with_quantum(q),
        None => BatchScheduler::unbounded(),
    };
    let injections_before = fault_injections();
    let solve_start = now();
    let results = maybe_span(t, "scheduler.run", NO_JOB, || scheduler.run(specs));
    let solve_s = solve_start.elapsed().as_secs_f64();
    let recoveries = fault_injections() - injections_before;

    // Verify: every MIS, every trace, the fault count.
    let mut jobs = Vec::with_capacity(results.len());
    let mut trace_bytes = 0u64;
    for (i, (jd, res)) in w.jobs.iter().zip(&results).enumerate() {
        let g = &graphs[jd.graph];
        let mut trace = 0;
        if let Some(sink) = &sinks[i] {
            JsonlTraceSink::finish_shared(sink).expect("trace file is writable");
            let path = trace_dir.join(format!("job-{i:03}.jsonl"));
            let bytes = std::fs::read(&path).expect("trace file was just written");
            trace_bytes += bytes.len() as u64;
            let mut h = Fnv::default();
            h.write(&bytes);
            trace = h.finish();
        }
        let turnaround_s = res.outcome.done.duration_since(solve_start).as_secs_f64();
        let (identity, error) = match &res.outcome.result {
            Err(e) => (None, Some(e.clone())),
            Ok(o) => {
                if maybe_span(t, "graph.verify", NO_JOB, || {
                    checks::is_maximal_independent_set(g, &o.mis)
                }) {
                    (Some(outcome_identity(o, trace)), None)
                } else {
                    (None, Some("not a maximal independent set".to_string()))
                }
            }
        };
        jobs.push(JobRecord {
            label: jd.label.clone(),
            identity,
            error,
            turnaround_s,
        });
    }
    let faulted = w.jobs.iter().filter(|j| j.fault.is_some()).count() as u64;
    if kind != PassKind::Direct && w.shards > 0 && recoveries != faulted {
        for (rec, jd) in jobs.iter_mut().zip(&w.jobs) {
            if jd.fault.is_some() && rec.error.is_none() {
                rec.identity = None;
                rec.error = Some(format!(
                    "{recoveries} shard recoveries for {faulted} faulted jobs"
                ));
            }
        }
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    if trace_dir.exists() {
        std::fs::remove_dir_all(&trace_dir).expect("trace directory is removable");
    }

    let mut report = PassReport {
        graphs: w
            .graphs
            .iter()
            .zip(&graphs)
            .map(|(d, g)| (d.label(), g.node_count(), g.edge_count()))
            .collect(),
        jobs,
        setup_s,
        solve_s,
        wall_s,
        peak_rss_mb: peak_rss_mb(),
        layers: BTreeMap::new(),
        spans: Vec::new(),
    };
    if let Some(tracer) = &tracer {
        let rerun = rerun_variants(w, &graphs, &stores, &mut report);
        report.spans = tracer.spans();
        report.layers = layer_metrics(w, &report.spans, tracer, &rerun, &results);
        report.layers.insert(
            "graph.edges".into(),
            report.graphs.iter().map(|g| g.2 as f64).sum(),
        );
        report
            .layers
            .insert("trace.bytes".into(), trace_bytes as f64);
        report
            .layers
            .insert("shard.recoveries".into(), recoveries as f64);
        let path = out_dir.join(format!("spans-{}-{}.jsonl", w.name, kind.as_str()));
        tracer.write_jsonl(&path).expect("spans file is writable");
    }
    report
}

/// Runs the traced pass's extra variants and fails any job whose outcome
/// differs: observed jobs rerun unobserved through `drive_observed` (their
/// steps recorded by the returned tracer), checkpointed jobs resumed from
/// their last checkpoint and driven to the end.
fn rerun_variants(
    w: &Workload,
    graphs: &[Graph],
    stores: &[Rc<RefCell<Vec<u8>>>],
    report: &mut PassReport,
) -> Tracer {
    let rerun = Rc::new(Tracer::new());
    for (i, jd) in w.jobs.iter().enumerate() {
        let g = &graphs[jd.graph];
        let outcome = match jd.mode {
            Mode::Plain => continue,
            Mode::Observed => {
                let exec = Timed::new(
                    build(jd.alg, g, jd.seed),
                    Rc::clone(&rerun),
                    i as u32,
                    jd.alg.step_span(),
                );
                drive_observed(exec, None).result
            }
            Mode::Checkpointed => {
                let bytes = stores[i].borrow();
                if bytes.is_empty() {
                    continue;
                }
                let mut exec = build(jd.alg, g, jd.seed);
                match resume(&mut exec, &bytes) {
                    Ok(()) => drive(exec).result,
                    Err(e) => Err(format!("last checkpoint does not resume: {e}")),
                }
            }
        };
        let rec = &mut report.jobs[i];
        let Some(want) = rec.identity else { continue };
        let got = outcome.map(|o| outcome_identity(&o, want.trace));
        if got.as_ref() != Ok(&want) {
            rec.identity = None;
            rec.error = Some(format!(
                "{:?} variant differs: {got:?} vs {want:?}",
                jd.mode
            ));
        }
    }
    Rc::try_unwrap(rerun).expect("the rerun executions are dropped")
}

fn sum_dur(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-layer metrics of a traced pass, from its spans and outcomes.
fn layer_metrics(
    w: &Workload,
    spans: &[Span],
    tracer: &Tracer,
    rerun: &Tracer,
    results: &[JobResult<JobOut>],
) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("graph.build_s", secs(sum_dur(spans, "graph.build")));
    put("graph.verify_s", secs(sum_dur(spans, "graph.verify")));

    let is_step = |s: &Span| Alg::ALL.iter().any(|a| a.step_span() == s.name);
    let mut step_self_ns = 0u64;
    let mut messages = 0u64;
    for alg in Alg::ALL {
        let a = alg.name();
        let steps: Vec<(usize, &Span)> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == alg.step_span())
            .collect();
        let self_ns: u64 = steps.iter().map(|&(i, _)| selfs[i]).sum();
        step_self_ns += self_ns;
        put(
            &format!("core.{a}.new_s"),
            secs(sum_dur(spans, alg.new_span())),
        );
        put(&format!("core.{a}.step_s"), secs(self_ns));
        put(&format!("core.{a}.steps"), steps.len() as f64);
        put(
            &format!("core.{a}.step_max_s"),
            secs(steps.iter().map(|(_, s)| s.dur_ns()).max().unwrap_or(0)),
        );
        let (mut r, mut msg, mut b) = (0u64, 0u64, 0u64);
        for (jd, res) in w.jobs.iter().zip(results) {
            if let (true, Ok(o)) = (jd.alg == alg, &res.outcome.result) {
                r += o.ledger.rounds;
                msg += o.ledger.messages;
                b += o.ledger.bits;
            }
        }
        messages += msg;
        put(&format!("core.{a}.rounds"), r as f64);
        put(&format!("core.{a}.messages"), msg as f64);
        put(&format!("core.{a}.bits"), b as f64);
    }
    // The low-degree path's first step is the ball gather, its second the
    // local replay (`LowDegExecution`: gather → replay → clean-up → done).
    let mut lowdeg_step = BTreeMap::<u32, usize>::new();
    let (mut gather_ns, mut replay_ns) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name == Alg::Lowdeg.step_span() {
            let k = lowdeg_step.entry(s.job).or_insert(0);
            match *k {
                0 => gather_ns += selfs[i],
                1 => replay_ns += selfs[i],
                _ => {}
            }
            *k += 1;
        }
    }
    put("core.lowdeg.gather_s", secs(gather_ns));
    put("core.lowdeg.replay_s", secs(replay_ns));
    put("runtime.ns_per_msg", ratio(step_self_ns, messages));

    // Observation: the same jobs' steps observed (this pass) and not (the
    // rerun). Self time excludes the sink, so the difference is what the
    // runtime spends computing event statistics.
    let observed: Vec<u32> = w
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.mode == Mode::Observed)
        .map(|(i, _)| i as u32)
        .collect();
    let (mut obs_self, mut obs_total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if is_step(s) && observed.contains(&s.job) {
            obs_self += selfs[i];
            obs_total += s.dur_ns();
        }
    }
    let unobserved: u64 = rerun
        .spans()
        .iter()
        .filter(|s| is_step(s))
        .map(Span::dur_ns)
        .sum();
    put(
        "observer.events",
        spans.iter().filter(|s| s.name == "observer.sink").count() as f64,
    );
    put("observer.sink_s", secs(sum_dur(spans, "observer.sink")));
    put(
        "observer.overhead_s",
        (obs_self as f64 - unobserved as f64) * 1e-9,
    );
    put("observer.overhead_x", ratio(obs_total, unobserved));

    put("snapshot.save_s", secs(sum_dur(spans, "snapshot.save")));
    put(
        "snapshot.saves",
        spans.iter().filter(|s| s.name == "snapshot.save").count() as f64,
    );
    put("snapshot.bytes", tracer.counter("snapshot.bytes") as f64);
    put(
        "snapshot.restore_s",
        secs(sum_dur(spans, "snapshot.restore")),
    );
    put(
        "snapshot.restores",
        spans
            .iter()
            .filter(|s| s.name == "snapshot.restore")
            .count() as f64,
    );
    put("checkpoint.sink_s", secs(sum_dur(spans, "checkpoint.sink")));
    put(
        "checkpoint.bytes",
        tracer.counter("checkpoint.bytes") as f64,
    );

    put(
        "scheduler.steps",
        results.iter().map(|r| r.steps).sum::<u64>() as f64,
    );
    put(
        "scheduler.preemptions",
        results.iter().map(|r| r.preemptions).sum::<u64>() as f64,
    );
    put("scheduler.make_s", secs(sum_dur(spans, "scheduler.make")));
    let run = spans
        .iter()
        .position(|s| s.name == "scheduler.run" && s.parent == NO_PARENT);
    put("scheduler.self_s", run.map_or(0.0, |i| secs(selfs[i])));
    // Not a reported metric: the base of `shard.framed_over_direct_x`.
    put("step_s", secs(step_self_ns));
    put(
        "shard.framed_s",
        if shard_count() > 0 {
            secs(step_self_ns)
        } else {
            0.0
        },
    );
    m
}
