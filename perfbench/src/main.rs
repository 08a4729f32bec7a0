//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs workload `W` for about `S` seconds and prints every metric by name
//! with its unit, then one JSON line: `correct`, `attempted`, `failed`, and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).
//!
//! Each pass runs in a child process of its own (this binary with
//! `--pass plain|traced|direct`), one after another, so its peak RSS is the
//! workload's alone and its sharding comes from the `CC_MIS_*` environment
//! the library reads. A run repeats passes until `S` seconds have passed
//! (at least three plain passes, or two plain + traced pairs) and reports
//! medians.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use cc_mis_analysis::json::Json;
use cc_mis_perfbench::jobs::Fnv;
use cc_mis_perfbench::span::now;
use cc_mis_perfbench::workloads::{
    run_pass, workload, Identity, JobRecord, PassKind, PassReport, Workload, OUT_DIR, WORKLOADS,
};
use cc_mis_perfbench::{per_layer, END_TO_END};
use cc_mis_sim::{par_nodes, shard};

const USAGE: &str =
    "usage: perfbench --workload <solo_large|batch_service|sharded_dense|lowdeg_replay> \
                     --seed N --seconds S --trace 0|1";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pass: Option<PassKind>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let num = |k: &str| -> Result<u64, String> {
        let v = kv.get(k).ok_or_else(|| format!("--{k} is required"))?;
        v.parse()
            .map_err(|_| format!("--{k} must be a whole number, not '{v}'"))
    };
    let pass = kv.get("pass");
    let args = Args {
        workload: kv
            .get("workload")
            .cloned()
            .ok_or("--workload is required")?,
        seed: num("seed")?,
        // A child pass runs once; only the coordinator needs a duration.
        seconds: if pass.is_some() { 0 } else { num("seconds")? },
        trace: match if pass.is_some() { 0 } else { num("trace")? } {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        pass: match pass {
            None => None,
            Some(p) => Some(PassKind::parse(p).ok_or_else(|| format!("unknown --pass '{p}'"))?),
        },
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "pass"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = workload(&args.workload, args.seed).expect("parse_args checked the name");
    match args.pass {
        Some(kind) => child(&w, kind),
        None => coordinate(&w, &args),
    }
}

/// Child mode: run one pass and print it as tab-separated lines.
fn child(w: &Workload, kind: PassKind) -> ExitCode {
    let dir = std::path::Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).expect("the output directory is creatable");
    let r = run_pass(w, kind, dir);
    // conform: allow(R2) -- reads the host's core count for the run context; spawns nothing
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!("ctx\tnproc\t{nproc}");
    println!("ctx\tthreads\t{}", par_nodes::thread_count());
    println!("ctx\tshards\t{}", shard::shard_count());
    println!("ctx\tbackend\t{:?}", shard::effective_backend());
    println!(
        "ctx\tprofile\t{}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    for (label, n, m) in &r.graphs {
        println!("graph\t{label}\t{n}\t{m}");
    }
    for j in &r.jobs {
        match (&j.identity, &j.error) {
            (Some(id), _) => println!(
                "job\t{}\t{}\tok\t{}\t{}\t{}\t{:016x}\t{:016x}",
                j.label, j.turnaround_s, id.rounds, id.messages, id.bits, id.mis, id.trace
            ),
            (None, e) => println!(
                "job\t{}\t{}\tfail\t{}",
                j.label,
                j.turnaround_s,
                e.as_deref()
                    .unwrap_or("no outcome")
                    .replace(['\t', '\n'], " ")
            ),
        }
    }
    for (k, v) in [
        ("setup_s", r.setup_s),
        ("solve_s", r.solve_s),
        ("wall_s", r.wall_s),
        ("peak_rss_mb", r.peak_rss_mb),
    ] {
        println!("e2e\t{k}\t{v}");
    }
    for (k, v) in &r.layers {
        println!("layer\t{k}\t{v}");
    }
    ExitCode::SUCCESS
}

/// One child's output, parsed back.
#[derive(Default)]
struct ChildOut {
    ctx: Vec<(String, String)>,
    report: PassReport,
}

fn parse_child(stdout: &str) -> Result<ChildOut, String> {
    let mut out = ChildOut::default();
    let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number '{s}'"));
    let int = |s: &str| s.parse::<u64>().map_err(|_| format!("bad count '{s}'"));
    let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| format!("bad digest '{s}'"));
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["ctx", k, v] => out.ctx.push((k.to_string(), v.to_string())),
            ["graph", label, n, m] => {
                out.report
                    .graphs
                    .push((label.to_string(), int(n)? as usize, int(m)? as usize));
            }
            ["job", label, t, "ok", r, msg, b, mis, trace] => {
                out.report.jobs.push(JobRecord {
                    label: label.to_string(),
                    identity: Some(Identity {
                        rounds: int(r)?,
                        messages: int(msg)?,
                        bits: int(b)?,
                        mis: hex(mis)?,
                        trace: hex(trace)?,
                    }),
                    error: None,
                    turnaround_s: num(t)?,
                });
            }
            ["job", label, t, "fail", e] => {
                out.report.jobs.push(JobRecord {
                    label: label.to_string(),
                    identity: None,
                    error: Some(e.to_string()),
                    turnaround_s: num(t)?,
                });
            }
            ["e2e", k, v] => {
                let v = num(v)?;
                match *k {
                    "setup_s" => out.report.setup_s = v,
                    "solve_s" => out.report.solve_s = v,
                    "wall_s" => out.report.wall_s = v,
                    "peak_rss_mb" => out.report.peak_rss_mb = v,
                    _ => return Err(format!("unknown end-to-end value '{k}'")),
                }
            }
            ["layer", k, v] => {
                out.report.layers.insert(k.to_string(), num(v)?);
            }
            _ => return Err(format!("unparsable line '{line}'")),
        }
    }
    Ok(out)
}

/// Runs one pass in a child process with the environment it needs.
fn spawn_pass(w: &Workload, seed: u64, kind: PassKind) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let shards = if kind == PassKind::Direct {
        0
    } else {
        w.shards
    };
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--pass",
            kind.as_str(),
        ])
        .env_remove("CC_MIS_THREADS")
        .env_remove("CC_MIS_DENSE_PAIR_MAX")
        .env("CC_MIS_SHARDS", shards.to_string())
        .env("CC_MIS_SHARD_BACKEND", "channel")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {} pass: {e}", kind.as_str()))?;
    if !out.status.success() {
        return Err(format!("{} pass exited with {}", kind.as_str(), out.status));
    }
    parse_child(&String::from_utf8_lossy(&out.stdout))
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over paired passes of `num(a) / den(b)`, skipping zero bases.
fn median_ratio(
    a: &[PassReport],
    b: &[PassReport],
    num: impl Fn(&PassReport) -> f64,
    den: impl Fn(&PassReport) -> f64,
) -> f64 {
    median(
        a.iter()
            .zip(b)
            .filter(|(_, y)| den(y) > 0.0)
            .map(|(x, y)| num(x) / den(y))
            .collect(),
    )
}

/// Nearest-rank percentile `p` (0..=1) of a non-empty sample.
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Cross-pass bookkeeping: attempted/failed counts and the per-job
/// identity every pass must repeat.
#[derive(Default)]
struct Checker {
    reference: BTreeMap<String, Identity>,
    order: Vec<String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn check(&mut self, w: &Workload, kind: PassKind, out: &Result<ChildOut, String>) {
        let expected = w.jobs.len() as u64;
        self.attempted += expected;
        let out = match out {
            Ok(o) => o,
            Err(e) => return self.fail(expected, e.clone()),
        };
        let jobs = &out.report.jobs;
        if jobs.len() as u64 != expected {
            let missing = expected.saturating_sub(jobs.len() as u64).max(1);
            self.fail(
                missing,
                format!(
                    "{} pass reported {} of {expected} jobs",
                    kind.as_str(),
                    jobs.len()
                ),
            );
        }
        for j in jobs {
            let Some(id) = j.identity else {
                self.fail(
                    1,
                    format!(
                        "{} {}: {}",
                        kind.as_str(),
                        j.label,
                        j.error.as_deref().unwrap_or("")
                    ),
                );
                continue;
            };
            match self.reference.get(&j.label) {
                None => {
                    self.order.push(j.label.clone());
                    self.reference.insert(j.label.clone(), id);
                }
                Some(want) if *want == id => {}
                Some(want) => self.fail(
                    1,
                    format!(
                        "{} {}: {id:?} differs from {want:?}",
                        kind.as_str(),
                        j.label
                    ),
                ),
            }
        }
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for label in &self.order {
            let id = self.reference[label];
            h.write(label.as_bytes());
            for x in [id.rounds, id.messages, id.bits, id.mis, id.trace] {
                h.write(&x.to_le_bytes());
            }
        }
        h.finish()
    }
}

fn coordinate(w: &Workload, args: &Args) -> ExitCode {
    let start = now();
    let budget = Duration::from_secs(args.seconds);
    let min_reps = if args.trace { 2 } else { 3 };
    let mut checker = Checker::default();
    let (mut plain, mut traced, mut direct) = (Vec::new(), Vec::new(), Vec::new());
    let mut ctx = Vec::new();
    let mut graphs = Vec::new();
    loop {
        let mut passes = vec![PassKind::Plain];
        if args.trace {
            passes.push(PassKind::Traced);
            if w.shards > 0 {
                passes.push(PassKind::Direct);
            }
        }
        for kind in passes {
            let out = spawn_pass(w, args.seed, kind);
            checker.check(w, kind, &out);
            let Ok(out) = out else { continue };
            if ctx.is_empty() {
                ctx = out.ctx.clone();
                graphs = out.report.graphs.clone();
            }
            match kind {
                PassKind::Plain => plain.push(out.report),
                PassKind::Traced => traced.push(out.report),
                PassKind::Direct => direct.push(out.report),
            }
        }
        if (plain.len() >= min_reps && start.elapsed() >= budget) || checker.failed > 0 {
            break;
        }
    }

    // End-to-end: medians over the plain passes.
    let job_p = |p: f64| {
        median(
            plain
                .iter()
                .map(|r: &PassReport| {
                    percentile(r.jobs.iter().map(|j| j.turnaround_s).collect(), p)
                })
                .collect(),
        )
    };
    let med = |f: fn(&PassReport) -> f64| median(plain.iter().map(f).collect());
    let e2e: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", med(|r| r.setup_s)),
        ("solve_s", med(|r| r.solve_s)),
        ("wall_s", med(|r| r.wall_s)),
        ("job_p50_s", job_p(0.5)),
        ("job_p90_s", job_p(0.9)),
        ("peak_rss_mb", med(|r| r.peak_rss_mb)),
    ]);

    // Per-layer: medians over the traced passes, plus same-run ratios.
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if args.trace {
        for (name, _) in per_layer() {
            layers.insert(
                name.clone(),
                median(
                    traced
                        .iter()
                        .map(|r| r.layers.get(&name).copied().unwrap_or(0.0))
                        .collect(),
                ),
            );
        }
        let step_s = |r: &PassReport| r.layers.get("step_s").copied().unwrap_or(0.0);
        layers.insert(
            "bench.span_overhead_x".into(),
            median_ratio(&traced, &plain, |r| r.solve_s, |r| r.solve_s),
        );
        layers.insert(
            "shard.framed_over_direct_x".into(),
            median_ratio(&traced, &direct, step_s, step_s),
        );
    }

    // Report.
    println!(
        "perfbench: workload={} seed={} trace={} passes: plain={} traced={} direct={} in {:.1}s",
        w.name,
        args.seed,
        u8::from(args.trace),
        plain.len(),
        traced.len(),
        direct.len(),
        start.elapsed().as_secs_f64()
    );
    let ctx_line: Vec<String> = ctx.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("context: {}", ctx_line.join(" "));
    for (label, n, m) in &graphs {
        println!("graph: {label} n={n} m={m}");
    }
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    println!(
        "jobs: attempted={} failed={} failed_frac={failed_frac}; job_p50_s/job_p90_s: {} samples per pass, median of {} passes",
        checker.attempted,
        checker.failed,
        w.jobs.len(),
        plain.len()
    );
    println!("digest: {:016x}", checker.digest());
    for f in &checker.failures {
        println!("failure: {f}");
    }
    for (name, unit) in END_TO_END {
        println!("metric {name} = {} {unit}", e2e[name]);
    }
    let per_layer = per_layer();
    if args.trace {
        for (name, unit) in &per_layer {
            println!("metric {name} = {} {unit}", layers[name]);
        }
    }
    let metric =
        |v: f64, unit: &str| Json::obj(vec![("value", Json::Num(v)), ("unit", Json::from(unit))]);
    let metrics = if args.trace {
        Json::Obj(
            per_layer
                .iter()
                .map(|(n, u)| (n.clone(), metric(layers[n], u)))
                .collect(),
        )
    } else {
        Json::Obj(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), metric(e2e[n], u)))
                .collect(),
        )
    };
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(checker.failed == 0 && checker.attempted > 0),
        ),
        ("attempted", Json::UInt(checker.attempted)),
        ("failed", Json::UInt(checker.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
