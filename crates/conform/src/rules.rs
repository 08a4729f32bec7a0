//! The conformance rule set.
//!
//! Each rule enforces one contract the reproduction's guarantees rest on
//! (see DESIGN.md §8 for the rule ↔ contract table). Rules are lexical:
//! they run over the scanner's code channel, so comments, doc-examples,
//! and string contents never trip them, and most rules skip test code
//! (the contracts bind the simulation, not its assertions).

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, FnNode};
use crate::diag::Finding;
use crate::fixes::{self, Edit, Fix};
use crate::pragma::{self, Pragma};
use crate::scanner::{Line, SourceFile};
use crate::syntax::{
    self, ident_of, line_of, punct_of, walk_exprs, ExprCtx, FileSyntax, Tok, Token, Tree,
};

/// Static description of one rule, including the `--explain` material.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id used in diagnostics and pragmas.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The contract the rule enforces, stated as an invariant.
    pub contract: &'static str,
    /// Why the reproduction needs the contract.
    pub rationale: &'static str,
    /// Recipe for fixing a finding (or justifying a pragma).
    pub fix: &'static str,
}

/// All rules, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R1",
        summary: "no HashMap/HashSet in node-simulation library code (crates/core, crates/sim): \
                  unordered iteration breaks deterministic replay",
        contract: "library code under crates/core/src and crates/sim/src never names \
                   HashMap/HashSet or their module paths",
        rationale: "hash iteration order depends on RandomState; any node loop over a hash \
                    collection makes (seed, graph, params) stop fixing the run, breaking \
                    replay and the golden-ledger pins",
        fix: "use BTreeMap/BTreeSet, or an index-based Vec keyed by dense node ids",
    },
    RuleInfo {
        id: "R2",
        summary: "no std::thread outside crates/sim/src/par_nodes.rs: all parallelism flows \
                  through the deterministic node pool",
        contract: "std::thread (spawn/scope/Builder) appears only in \
                   crates/sim/src/par_nodes.rs",
        rationale: "par_map_nodes is the one parallel primitive proven bit-identical to \
                    sequential execution; ad-hoc threads reintroduce scheduling \
                    nondeterminism the equivalence tests cannot see",
        fix: "express the parallel loop as par_map_nodes over a node range",
    },
    RuleInfo {
        id: "R3",
        summary: "no ambient nondeterminism (thread_rng, SystemTime::now, Instant::now, \
                  RandomState) in library code: randomness must flow through seeded rng modules",
        contract: "library code draws randomness and time only through the seeded rng \
                   modules (SplitMix64, SharedRandomness)",
        rationale: "the paper's guarantees are statements about seeded executions; an \
                    ambient source anywhere in a charged path makes runs unreproducible",
        fix: "thread a seed or a SharedRandomness stream down to the call site; bench \
              timing belongs in test/bench targets (which the rule skips)",
    },
    RuleInfo {
        id: "R4",
        summary: "every crate root (src/lib.rs, src/main.rs) carries #![forbid(unsafe_code)]",
        contract: "each crate root declares #![forbid(unsafe_code)]",
        rationale: "forbid (not deny) means no module can opt back in; the simulators have \
                    no business with unsafe and the audit surface stays zero",
        fix: "add `#![forbid(unsafe_code)]` at the top of src/lib.rs / src/main.rs",
    },
    RuleInfo {
        id: "R5",
        summary: "no unwrap()/short expect() in crates/core and crates/sim library code: \
                  panics must name the violated invariant",
        contract: "library panics in crates/core and crates/sim carry an \
                   expect(\"<invariant>\") message of at least 4 characters",
        rationale: "a bare unwrap in a charged path turns a model violation into an \
                    anonymous panic; naming the invariant makes ledger-corrupting states \
                    diagnosable from the panic alone",
        fix: "replace `.unwrap()` with `.expect(\"<which invariant holds and why>\")` or \
              return a typed error",
    },
    RuleInfo {
        id: "R6",
        summary: "ledger charges go through counters declared in crates/sim/src/metrics.rs; \
                  no direct += on ledger counter fields elsewhere",
        contract: "every charge_* call names a method declared in metrics.rs, and no code \
                   outside metrics.rs mutates ledger counter fields directly",
        rationale: "the E-series tables are read straight off the ledger; an ad-hoc \
                    counter or direct field bump silently forks the accounting model",
        fix: "add the counter as a RoundLedger method in metrics.rs and call it",
    },
    RuleInfo {
        id: "R7",
        summary: "engine bandwidth arguments in library code reference the named O(log n) \
                  word-size constants (cc_mis_sim::bits), never magic literals",
        contract: "engine constructors receive bandwidth expressions built from \
                   cc_mis_sim::bits constants, not integer literals",
        rationale: "the Lemma 2.12/2.14 bounds are stated in O(log n)-bit words; a magic \
                    literal hides whether an experiment ran in the model or beside it",
        fix: "use standard_bandwidth(n) (or a named constant derived from it)",
    },
    RuleInfo {
        id: "R8",
        summary: "no registry dependencies in any Cargo.toml: every entry must be a path or \
                  workspace dependency (offline-build guard)",
        contract: "every dependency entry in every manifest resolves in-tree (path = … or \
                   workspace = true)",
        rationale: "the workspace builds fully offline; one registry entry breaks the \
                    build everywhere the registry is unreachable",
        fix: "vendor the code in-tree as a workspace crate, or drop the dependency",
    },
    RuleInfo {
        id: "R9",
        summary: "in crates/sim, RoundLedger charge calls appear only in runtime.rs and \
                  metrics.rs: every engine bills through the unified round core",
        contract: "within crates/sim, .charge_*() call sites exist only in runtime.rs and \
                   metrics.rs",
        rationale: "PR 3 unified all engine billing in RoundCore so charges are \
                    byte-identical across engines; a charge elsewhere in the simulator \
                    forks that single audited path",
        fix: "route the charge through RoundCore (emit/record_schedule/finish_round) or \
              add a RoundLedger method and bill from the core",
    },
    RuleInfo {
        id: "R10",
        summary: "every call path that reaches a RoundLedger charge or Transport send stays \
                  inside RoundCore round execution (interprocedural closure of R9)",
        contract: "no library function in crates/core or crates/sim outside \
                   runtime.rs/metrics.rs charges a ledger, directly or through any chain \
                   of calls that reaches an unsanctioned charge site",
        rationale: "R9 pins charge call sites path-wise inside crates/sim; R10 closes the \
                    interprocedural gap — a core-side helper that bills a ledger it owns \
                    bypasses the round core just as surely, and so does any caller of such \
                    a helper",
        fix: "drive the communication through an engine round (RoundCore charges it), or — \
              for analytic replay accounting in crates/core — keep the charge and justify \
              it with `// conform: allow(R10) -- <which lemma the replay implements>`; a \
              justified site stops the caller-side propagation",
    },
    RuleInfo {
        id: "R11",
        summary: "RNG-stream discipline: seeded per-node streams are never .clone()d, and \
                  never re-seeded inside loops in library code",
        contract: "library code does not clone RNG stream state and does not construct \
                   SplitMix64/SharedRandomness inside a loop body; inside the rng modules \
                   themselves no .clone() appears at all without a pragma",
        rationale: "a cloned or re-seeded stream silently replays the same coins, which \
                    breaks the independence assumptions behind every concentration bound \
                    in the paper (and is invisible to the golden-ledger tests, which pin \
                    totals, not distributions)",
        fix: "pass `&mut` to the one stream, or derive an independent per-node stream \
              through the Stream enum / mix3 keying; hoist constructors out of the loop",
    },
    RuleInfo {
        id: "R12",
        summary: "panic/overflow audit on charged paths: no truncating `as` casts, no \
                  64-bit→usize index casts, no bare +/* on ledger counters",
        contract: "inside functions on a charge path in crates/sim: no `as \
                   u8/u16/u32/i8/i16/i32` casts, no `as usize` cast whose operand names a \
                   64-bit type (unchecked index truncation), and no bare `+`/`*` on a \
                   ledger counter field",
        rationale: "ledger math must be provably non-truncating: a silent cast wrap or \
                    counter overflow corrupts the Theorem 1.1 numbers without failing any \
                    test; a checked conversion turns the same bug into a named panic",
        fix: "use the width-safe helpers (cc_mis_sim::bits::idx_u32/idx_usize) or \
              TryFrom with an invariant-naming expect; use \
              checked_add(...).expect(\"<invariant>\") for counter arithmetic",
    },
    RuleInfo {
        id: "R13",
        summary: "no floating point in the accounting modules (metrics.rs, runtime.rs, \
                  routing.rs): ledger bookkeeping is integer-exact",
        contract: "library code in the accounting modules contains no f32/f64 tokens and \
                   no float literals",
        rationale: "float accumulation is rounding-order dependent, so one reassociated \
                    sum would make ledgers diverge across refactors; probability math in \
                    crates/core is exempt — it never writes a ledger",
        fix: "keep counters u64 and compare via cross-multiplication instead of ratios; \
              floats belong in analysis/reporting crates",
    },
    RuleInfo {
        id: "R14",
        summary: "in crates/core, engine rounds are opened only by step-driven runner \
                  modules (files with an `impl Execution for`) or the sanctioned round \
                  substrate: ad-hoc round loops bypass the driver",
        contract: "every non-test `begin_round` call site in crates/core/src sits in a \
                   module that implements the `Execution` trait, or in the round \
                   substrate (cleanup.rs)",
        rationale: "checkpoint/resume is sound only if all round progress flows through \
                    `Execution::step`, where the driver counts steps and snapshots at \
                    boundaries; a round opened outside a runner module advances engine \
                    and ledger state the snapshot layer never sees",
        fix: "move the round loop into an `Execution::step` implementation (driving it \
              via `drive`/`drive_observed`), or — for shared leader-election style \
              subroutines called from `step` — house it in the round substrate module",
    },
    RuleInfo {
        id: "R15",
        summary: "the round hot paths (`Round::send` / `Round::deliver`) are \
                  allocation-free: no `Vec::new` / `with_capacity` / `vec!` / `to_vec` \
                  outside the RoundBuffers pool",
        contract: "in crates/sim/src/runtime.rs, the bodies of non-test `send` and \
                   `deliver` functions on `Round` contain no allocation constructors \
                   (`Vec::new`, `with_capacity`, `vec!`, `to_vec`)",
        rationale: "a per-call or per-round allocation on the send/deliver path turns \
                    the O(n^2)-messages clique round into an allocator benchmark; the \
                    pooled RoundBuffers make steady-state rounds allocation-free, and \
                    this rule keeps refactors from quietly reintroducing the cost",
        fix: "route the buffer through crates/sim/src/pool.rs (take_*/retire_* on \
              RoundBuffers) or hoist the allocation out of the hot path (e.g. into an \
              observer-gated diagnostics helper)",
    },
    RuleInfo {
        id: "R16",
        summary: "pooled buffers are paired: every `RoundBuffers::take_*` / \
                  `take_arena_parts` is retired (or moved out) on every exit path",
        contract: "in crates/core and crates/sim non-test code, a binding holding the \
                   result of `take_sparse` / `take_outbox` / `take_frame` / \
                   `take_arena_parts` is passed to the matching `retire_*` (or `retire`), \
                   returned, stored into a struct/field, before any early `return` or \
                   `?` exit and before the function ends",
        rationale: "a leaked pool buffer silently degrades PR 6's allocation-free \
                    steady state back to per-round allocation — the runs stay correct, \
                    so nothing but this rule would ever notice",
        fix: "retire the buffer on the early-exit path (or restructure so ownership \
              moves into the returned value), or carry a justified allow(R16) if the \
              leak is deliberate (e.g. teardown)",
    },
    RuleInfo {
        id: "R17",
        summary: "snapshot parity: each `impl Execution` writes and reads the same \
                  field sequence (names, widths, order) in `save` and `restore`",
        contract: "for every `impl Execution for T`, the ordered sequence of \
                   `SnapshotWriter` calls in `save` structurally matches the ordered \
                   `read_*` / `expect_*` calls in `restore` — same widths in the same \
                   order, loops and conditionals mirrored, and `expect_*` identity \
                   expressions equal to what `save` wrote",
        rationale: "checkpoint-format drift is the worst failure mode of PR 5: a \
                    same-width reorder restores without any `SnapshotError` and \
                    silently diverges from the straight run, voiding the \
                    resume-equivalence guarantee",
        fix: "make `restore` read exactly what `save` writes, in order; grow the \
              format only by appending fields to both sides",
    },
    RuleInfo {
        id: "R18",
        summary: "observers are diagnostics-only: `RoundObserver` impls never reach \
                  ledger charging or round mutation",
        contract: "no method of a `RoundObserver` impl reaches, through the call \
                   graph, a `.charge_*` call or a `Round`/`RoundCore` mutator in \
                   crates/sim/src/runtime.rs",
        rationale: "the traced and untraced runs are pinned to identical ledgers; an \
                    observer that charges or mutates rounds would make `--trace` \
                    perturb the golden numbers it exists to explain",
        fix: "keep observers to recording (own fields, sinks); move any accounting \
              into the round core where R9/R10 govern it",
    },
    RuleInfo {
        id: "R19",
        summary: "shard isolation: closures given to the `par_nodes` helpers index \
                  captured state only through their shard arguments",
        contract: "a closure passed to `par_zip_shards` / `par_scatter_shards` indexes \
                   mutable state only via its shard-slice parameters (any captured \
                   indexing is flagged); a `par_map_nodes` closure may read captured \
                   slices but not index-write them",
        rationale: "the deterministic thread pool only guarantees bit-identical runs \
                    because shards own disjoint slices; one captured `&mut` index \
                    crossing a shard boundary is a data race the tests can't reliably \
                    catch",
        fix: "pass the state in as a sharded argument, or carry a justified \
              allow(R19) citing the disjointness argument (as the audited scatter \
              core does)",
    },
    RuleInfo {
        id: "R20",
        summary: "executions are driven, not hand-stepped: outside the driver and the \
                  batch scheduler, library code never calls `.step()` directly",
        contract: "in crates/core and crates/sim non-test code, a `.step()` call \
                   appears only in crates/sim/src/driver.rs, in \
                   crates/sim/src/scheduler.rs, or inside a function itself named \
                   `step` (an `Execution` delegating to an inner execution)",
        rationale: "the scheduler's preemption accounting and the driver's \
                    checkpoint cadence both hinge on owning every step boundary; a \
                    hand-rolled `while let Status::Running = exec.step()` loop \
                    advances an execution the step counters and snapshot policy \
                    never see, so batch runs would silently drift from solo runs",
        fix: "drive the execution through `drive`/`drive_observed`/\
              `drive_with_checkpoints` or submit it to `BatchScheduler`; wrappers \
              that forward to an inner execution belong in their own `fn step`",
    },
    RuleInfo {
        id: "R21",
        summary: "determinism taint: shard indices, thread counts, and CC_MIS_* env reads \
                  never flow into ledger charges, RNG seeding, or snapshot writes",
        contract: "in crates/core and crates/sim library code, no value derived from a \
                   par_nodes shard index, thread_count()/available_parallelism(), or a \
                   std::env read appears as an argument to a .charge_* call, a \
                   SplitMix64/SharedRandomness constructor, or a SnapshotWriter write_*",
        rationale: "scheduling identity is the one input allowed to vary between runs of \
                    the same (seed, graph, params); the moment it seeds a stream, bills \
                    a ledger, or lands in a checkpoint, bit-determinism and \
                    resume-equivalence silently depend on the machine",
        fix: "derive the value from simulation state (node ids, round numbers, the \
              seed) instead; thread counts and shard indices may steer scheduling only",
    },
    RuleInfo {
        id: "R22",
        summary: "snapshot-format pinning: each `impl Execution` save() write sequence is \
                  fingerprinted against crates/conform/snapshot_manifest.txt",
        contract: "the ordered SnapshotWriter call sequence of every non-test \
                   `Execution::save` matches the committed manifest entry for that impl; \
                   changing a sequence requires bumping the snapshot VERSION or \
                   regenerating the manifest (conform --update-snapshot-manifest)",
        rationale: "checkpoint fault tolerance depends on old snapshots restoring \
                    byte-exactly; a silent field reorder under an unchanged VERSION \
                    restores garbage without a SnapshotError, and R17 cannot see it \
                    because save and restore drift together",
        fix: "bump `snapshot::VERSION` for a deliberate format change, then run \
              `conform --update-snapshot-manifest` to re-pin the sequences",
    },
    RuleInfo {
        id: "R23",
        summary: "env-read discipline: std::env reads in crates/core and crates/sim live \
                  only in crates/sim/src/config.rs",
        contract: "library code in crates/core/src and crates/sim/src calls \
                   env::var/env::var_os/env::vars only inside the central config module",
        rationale: "environment variables are ambient per-process state; funneling every \
                    read through one module keeps the full set of knobs auditable and \
                    lets R21 verify each one is scheduling-only",
        fix: "add an accessor to crates/sim/src/config.rs and call that",
    },
    RuleInfo {
        id: "R24",
        summary: "process/socket confinement: raw std::process and socket APIs in \
                  crates/core and crates/sim live only in crates/sim/src/shard.rs",
        contract: "library code in crates/core/src and crates/sim/src names \
                   UnixListener/UnixStream/TcpListener/TcpStream, Command::new, \
                   Stdio::, or .kill() only inside the sharded-transport module",
        rationale: "worker processes and byte links are scheduling machinery: every \
                    serialization boundary must speak the checksummed frame codec and \
                    every child must be covered by checkpoint recovery; a stray socket \
                    or spawn elsewhere is a side channel the fault matrix never kills \
                    and the determinism story cannot audit",
        fix: "route the spawn or connection through the FrameLink backends in \
              crates/sim/src/shard.rs",
    },
    RuleInfo {
        id: "P1",
        summary: "conform pragmas must be well-formed, name known rules, and carry a \
                  justification",
        contract: "every `conform: allow(...)` pragma parses, names existing rules, and \
                   ends with `-- <justification>`",
        rationale: "the escape hatch is part of the audit trail: an unjustified allow is \
                    indistinguishable from a silenced bug",
        fix: "write `// conform: allow(Rn) -- <why this site is sound>`",
    },
    RuleInfo {
        id: "P2",
        summary: "stale pragmas: a justified allow(RN) that no longer suppresses any \
                  finding at its site is reported so pragma debt cannot accrete",
        contract: "every rule named by a conform pragma actually fires (and is \
                   suppressed) at the pragma's site during the run",
        rationale: "a pragma that outlives its finding is pure audit noise: it documents \
                    a waiver for a hazard that no longer exists, and it would silently \
                    re-arm if the hazard ever returned in a different shape",
        fix: "delete the pragma (or the rule id within it) once the code it excused \
              has been fixed or removed",
    },
];

/// True if `id` names a rule (usable in a pragma).
pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

pub(crate) fn in_sim_core(path: &str) -> bool {
    path.starts_with("crates/core/src") || path.starts_with("crates/sim/src")
}

fn is_metrics(path: &str) -> bool {
    path == "crates/sim/src/metrics.rs"
}

fn is_par_nodes(path: &str) -> bool {
    path == "crates/sim/src/par_nodes.rs"
}

fn is_runtime(path: &str) -> bool {
    path == "crates/sim/src/runtime.rs"
}

fn is_routing(path: &str) -> bool {
    path == "crates/sim/src/routing.rs"
}

/// The two seeded-stream modules, where R11 forbids any `.clone()`.
fn is_rng_module(path: &str) -> bool {
    path == "crates/sim/src/rng.rs" || path == "crates/graph/src/rng.rs"
}

/// The files where ledger charging is sanctioned (the round core and the
/// ledger itself).
fn is_charge_barrier(path: &str) -> bool {
    is_metrics(path) || is_runtime(path)
}

/// The crates/core round substrate: shared subroutines (leader-election
/// clean-up) that open engine rounds on behalf of a runner's `step`.
fn is_round_substrate(path: &str) -> bool {
    path == "crates/core/src/cleanup.rs"
}

fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs")
}

/// Extracts the `charge_*` counter names declared (`fn charge_x`) in
/// `metrics.rs`-scanned files.
pub fn declared_counters(files: &[SourceFile]) -> Vec<String> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| is_metrics(&f.effective)) {
        for line in &f.lines {
            let mut rest = line.code.as_str();
            while let Some(at) = rest.find("fn charge_") {
                let ident_start = at + "fn ".len();
                let name: String = rest[ident_start..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && !out.contains(&name) {
                    out.push(name);
                }
                rest = &rest[ident_start..];
            }
        }
    }
    out.sort();
    out
}

/// Runs rules R1–R7 over one scanned file, appending findings.
pub fn check_file(file: &SourceFile, counters: &[String], findings: &mut Vec<Finding>) {
    let path = file.effective.as_str();
    // R14 marker: a file that implements the `Execution` trait is a
    // driver-sanctioned runner module and may open engine rounds.
    let is_runner_module = file
        .lines
        .iter()
        .any(|l| l.code.contains("impl Execution for"));
    let mut has_forbid = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if code.contains("#![forbid(unsafe_code)]") {
            has_forbid = true;
        }
        if line.in_test {
            continue;
        }

        // R1 — deterministic collections in simulation code.
        if in_sim_core(path) {
            for pat in ["HashMap", "HashSet", "hash_map::", "hash_set::"] {
                if code.contains(pat) {
                    let finding = Finding::new(
                        path,
                        lineno,
                        "R1",
                        format!(
                            "`{pat}` in node-simulation code: unordered iteration breaks the \
                             deterministic-replay contract; use BTreeMap/BTreeSet or an \
                             index-based Vec"
                        ),
                    );
                    findings.push(match r1_fix(line, lineno) {
                        Some(fix) => finding.with_fix(fix),
                        None => finding,
                    });
                    break;
                }
            }
        }

        // R2 — parallelism flows through the deterministic node pool.
        if !is_par_nodes(path) {
            for pat in [
                "std::thread",
                "thread::spawn(",
                "thread::scope(",
                "thread::Builder",
            ] {
                if code.contains(pat) {
                    findings.push(Finding::new(
                        path,
                        lineno,
                        "R2",
                        format!(
                            "`{pat}` outside crates/sim/src/par_nodes.rs: all parallelism must \
                             go through par_map_nodes so runs stay bit-identical to sequential"
                        ),
                    ));
                    break;
                }
            }
        }

        // R3 — no ambient nondeterminism in library code.
        for pat in [
            "thread_rng",
            "SystemTime::now",
            "Instant::now",
            "rand::random",
            "RandomState",
            "from_entropy",
        ] {
            if code.contains(pat) {
                findings.push(Finding::new(
                    path,
                    lineno,
                    "R3",
                    format!(
                        "`{pat}` is ambient nondeterminism: all randomness and time must flow \
                         through the seeded rng modules so (seed, graph, params) fixes the run"
                    ),
                ));
                break;
            }
        }

        // R5 — panics must state the violated invariant.
        if in_sim_core(path) {
            if code.contains(".unwrap()") {
                let finding = Finding::new(
                    path,
                    lineno,
                    "R5",
                    "bare `unwrap()` in library code: use `expect(\"<invariant>\")` or a typed \
                     error so a panic names the broken invariant",
                );
                findings.push(match r5_unwrap_fix(line, lineno) {
                    Some(fix) => finding.with_fix(fix),
                    None => finding,
                });
            }
            if let Some(msg) = short_expect_message(line) {
                let finding = Finding::new(
                    path,
                    lineno,
                    "R5",
                    format!("`expect(\"{msg}\")` message too short to state an invariant"),
                );
                findings.push(match r5_expect_fix(line, lineno, &msg) {
                    Some(fix) => finding.with_fix(fix),
                    None => finding,
                });
            }
        }

        // R6 — charges go through declared counters; no direct field bumps.
        if !is_metrics(path) {
            if !counters.is_empty() {
                for name in charge_calls(code) {
                    if !counters.contains(&name) {
                        findings.push(Finding::new(
                            path,
                            lineno,
                            "R6",
                            format!(
                                "`{name}()` is not declared in crates/sim/src/metrics.rs: \
                                 stale or ad-hoc counter (declared: {})",
                                counters.join(", ")
                            ),
                        ));
                    }
                }
            }
            if in_sim_core(path) {
                for pat in [".rounds +=", ".messages +=", ".bits +=", ".violations +="] {
                    if code.contains(pat) {
                        findings.push(Finding::new(
                            path,
                            lineno,
                            "R6",
                            format!(
                                "direct `{pat}` on a ledger counter bypasses the charge_* API; \
                                 add or use a RoundLedger method so charges stay byte-identical \
                                 and auditable"
                            ),
                        ));
                        break;
                    }
                }
            }
        }

        // R9 — in the simulator crate, ledger charging is the round core's
        // job: engines describe transports, the core bills them.
        if path.starts_with("crates/sim/src") && !is_metrics(path) && !is_runtime(path) {
            for name in charge_calls(code) {
                findings.push(Finding::new(
                    path,
                    lineno,
                    "R9",
                    format!(
                        "`{name}()` charges a ledger outside the round core: in crates/sim \
                         all RoundLedger charging lives in runtime.rs (or metrics.rs itself) \
                         so every engine bills through one audited path"
                    ),
                ));
            }
        }

        // R14 — in crates/core, engine rounds open only under the driver:
        // inside a runner module (one with an `impl Execution for`) or the
        // sanctioned round substrate. Anywhere else, round progress would
        // escape step counting and checkpoint boundaries.
        if path.starts_with("crates/core/src")
            && !is_round_substrate(path)
            && !is_runner_module
            && code.contains("begin_round")
        {
            findings.push(Finding::new(
                path,
                lineno,
                "R14",
                "`begin_round` outside a runner module: rounds in crates/core must be \
                 opened from an `Execution::step` implementation (or the round \
                 substrate) so the driver sees every step boundary for \
                 checkpoint/resume",
            ));
        }

        // R7 — engine bandwidth must reference named constants.
        check_bandwidth_literals(file, idx, findings);
    }

    // R4 — crate roots forbid unsafe code.
    if is_crate_root(path) && !has_forbid && !file.lines.is_empty() {
        findings.push(Finding::new(
            path,
            1,
            "R4",
            "crate root is missing `#![forbid(unsafe_code)]`",
        ));
    }
}

/// Yields the names of `.charge_*()` method calls in `code`.
fn charge_calls(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find(".charge_") {
        let ident_start = at + 1;
        let name: String = rest[ident_start..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if rest[ident_start + name.len()..].starts_with('(') {
            out.push(name);
        }
        rest = &rest[ident_start..];
    }
    out
}

/// If the line calls `.expect("...")` with a string literal shorter than 4
/// characters, returns the literal (from the raw channel, where string
/// contents survive).
fn short_expect_message(line: &Line) -> Option<String> {
    let at = line.code.find(".expect(\"")?;
    // The code channel blanks string contents, so the literal must be read
    // from the raw text at its own offset.
    let raw_at = line.raw.find(".expect(\"")?;
    let _ = at;
    let msg_start = raw_at + ".expect(\"".len();
    let rest = &line.raw[msg_start..];
    let close = rest.find('"')?;
    let msg = &rest[..close];
    (msg.chars().count() < 4).then(|| msg.to_string())
}

/// R1 autofix: swap every hash-collection token on the line for its ordered
/// counterpart. All four patterns are rewritten at once (one finding per
/// line, but the fix must leave the line clean), via the code channel so
/// strings and comments are untouched.
fn r1_fix(line: &Line, lineno: usize) -> Option<Fix> {
    const SWAPS: &[(&str, &str)] = &[
        ("HashMap", "BTreeMap"),
        ("HashSet", "BTreeSet"),
        ("hash_map::", "btree_map::"),
        ("hash_set::", "btree_set::"),
    ];
    let chars: Vec<char> = line.code.chars().collect();
    let mut edits = Vec::new();
    for (pat, repl) in SWAPS {
        for at in fixes::find_all(&chars, pat) {
            let span = fixes::code_span(line, lineno, at, at + pat.chars().count())?;
            edits.push(Edit {
                span,
                replacement: repl.to_string(),
            });
        }
    }
    (!edits.is_empty()).then(|| Fix {
        title: "replace hash collections with BTree counterparts".to_string(),
        edits,
    })
}

/// R5 autofix for bare `.unwrap()`: rewrite every occurrence on the line to
/// an invariant-naming `.expect` (the placeholder message passes the rule
/// and tells the reader exactly what to refine).
fn r5_unwrap_fix(line: &Line, lineno: usize) -> Option<Fix> {
    let chars: Vec<char> = line.code.chars().collect();
    let pat = ".unwrap()";
    let edits: Vec<Edit> = fixes::find_all(&chars, pat)
        .into_iter()
        .filter_map(|at| {
            Some(Edit {
                span: fixes::code_span(line, lineno, at, at + pat.len())?,
                replacement: ".expect(\"invariant violated\")".to_string(),
            })
        })
        .collect();
    (!edits.is_empty()).then(|| Fix {
        title: "replace bare unwrap() with an invariant-naming expect".to_string(),
        edits,
    })
}

/// R5 autofix for a too-short `expect("…")` message: prefix it with
/// `invariant: ` (spans computed on the raw channel, where string contents
/// survive — the string literal is exactly what changes).
fn r5_expect_fix(line: &Line, lineno: usize, msg: &str) -> Option<Fix> {
    let raw_at = line.raw.find(".expect(\"")?;
    let open = raw_at + ".expect(".len();
    let close = open + 1 + msg.len();
    if line.raw.as_bytes().get(close) != Some(&b'"') {
        return None;
    }
    let start_col = line.raw[..open].chars().count() + 1;
    let end_col = line.raw[..=close].chars().count() + 1;
    Some(Fix {
        title: "prefix the expect message with the invariant marker".to_string(),
        edits: vec![Edit {
            span: fixes::Span {
                line: lineno,
                start_col,
                end_col,
            },
            replacement: format!("\"invariant: {msg}\""),
        }],
    })
}

const ENGINE_CTORS: &[&str] = &[
    "CliqueEngine::strict(",
    "CliqueEngine::audit(",
    "CliqueEngine::new(",
    "CongestEngine::strict(",
    "CongestEngine::audit(",
    "CongestEngine::new(",
];

/// R7: flags engine constructions whose bandwidth argument is a bare
/// integer literal (library code in crates/core and crates/sim only).
fn check_bandwidth_literals(file: &SourceFile, idx: usize, findings: &mut Vec<Finding>) {
    let path = file.effective.as_str();
    if !in_sim_core(path) {
        return;
    }
    let code = file.lines[idx].code.as_str();
    for pat in ENGINE_CTORS {
        let Some(at) = code.find(pat) else { continue };
        // Join up to 3 following lines so multi-line constructor calls
        // still parse; the args end at the matching close paren.
        let mut text = code[at + pat.len()..].to_string();
        for follow in file.lines.iter().skip(idx + 1).take(3) {
            text.push(' ');
            text.push_str(&follow.code);
        }
        let Some(args) = top_level_args(&text) else {
            continue;
        };
        if let Some(bandwidth) = args.get(1) {
            let b = bandwidth
                .trim()
                .trim_end_matches("u64")
                .trim_end_matches('_');
            if !b.is_empty() && b.chars().all(|c| c.is_ascii_digit() || c == '_') {
                let finding = Finding::new(
                    path,
                    idx + 1,
                    "R7",
                    format!(
                        "magic bandwidth literal `{b}` in `{}`: reference the named O(log n) \
                         word-size constants (cc_mis_sim::bits::standard_bandwidth and friends) \
                         so the Lemma 2.12/2.14 bounds stay auditable",
                        pat.trim_end_matches('(')
                    ),
                );
                let fix = r7_fix(&file.lines[idx], idx + 1, at, pat, &args);
                findings.push(match fix {
                    Some(fix) => finding.with_fix(fix),
                    None => finding,
                });
            }
        }
    }
}

/// R7 autofix: replace the magic bandwidth literal with the named O(log n)
/// constant derived from the constructor's own node-count argument.
/// Attached only when the whole argument list sits on the call line, so the
/// span is a plain single-line replacement.
fn r7_fix(line: &Line, lineno: usize, at: usize, pat: &str, args: &[String]) -> Option<Fix> {
    let tail = &line.code[at + pat.len()..];
    let line_args = top_level_args(tail)?;
    if line_args.len() < 2 || line_args.get(1) != args.get(1) {
        return None;
    }
    let n_expr = line_args[0].trim();
    if n_expr.is_empty() {
        return None;
    }
    let lead = line_args[1]
        .chars()
        .take_while(|c| c.is_whitespace())
        .count();
    let start =
        line.code[..at + pat.len()].chars().count() + line_args[0].chars().count() + 1 + lead;
    let end = start + line_args[1].chars().count() - lead;
    Some(Fix {
        title: "derive the bandwidth from the named O(log n) constant".to_string(),
        edits: vec![Edit {
            span: fixes::code_span(line, lineno, start, end)?,
            replacement: format!("cc_mis_sim::bits::standard_bandwidth({n_expr})"),
        }],
    })
}

/// Splits the text of an argument list (starting just after the opening
/// paren) at top-level commas; returns `None` if the close paren is never
/// found in the provided text.
fn top_level_args(text: &str) -> Option<Vec<String>> {
    let mut depth = 0i32;
    let mut args = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '(' | '[' | '{' => {
                depth += 1;
                cur.push(c);
            }
            ')' | ']' | '}' if depth > 0 => {
                depth -= 1;
                cur.push(c);
            }
            ')' => {
                args.push(cur);
                return Some(args);
            }
            ',' if depth == 0 => args.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    None
}

/// R8: checks one `Cargo.toml` for registry dependencies. Every entry in a
/// dependency table must resolve in-tree (`path = …` or `workspace = true`).
pub fn check_manifest(path: &str, text: &str, findings: &mut Vec<Finding>) {
    #[derive(PartialEq)]
    enum Section {
        Deps,
        /// `[dependencies.foo]` — judged when the section closes.
        DepEntry {
            name: String,
            line: usize,
            ok: bool,
        },
        Other,
    }
    let mut section = Section::Other;
    let close_entry = |section: &Section, findings: &mut Vec<Finding>| {
        if let Section::DepEntry { name, line, ok } = section {
            if !ok {
                findings.push(registry_finding(path, *line, name));
            }
        }
    };
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            close_entry(&section, findings);
            let name = line.trim_start_matches('[').trim_end_matches(']');
            section = if let Some(entry) = name
                .strip_prefix("dependencies.")
                .or_else(|| name.strip_prefix("dev-dependencies."))
                .or_else(|| name.strip_prefix("build-dependencies."))
                .or_else(|| name.strip_prefix("workspace.dependencies."))
            {
                Section::DepEntry {
                    name: entry.to_string(),
                    line: lineno,
                    ok: false,
                }
            } else if name.ends_with("dependencies") {
                Section::Deps
            } else {
                Section::Other
            };
            continue;
        }
        match &mut section {
            Section::Deps => {
                let Some((key, value)) = line.split_once('=') else {
                    continue;
                };
                let value = value.trim();
                if !value.contains("path") && !value.contains("workspace = true") {
                    findings.push(registry_finding(path, lineno, key.trim()));
                }
            }
            Section::DepEntry { ok, .. } => {
                let key = line.split('=').next().unwrap_or("").trim();
                if key == "path" || (key == "workspace" && line.contains("true")) {
                    *ok = true;
                }
            }
            Section::Other => {}
        }
    }
    close_entry(&section, findings);
}

fn registry_finding(path: &str, line: usize, name: &str) -> Finding {
    Finding::new(
        path,
        line,
        "R8",
        format!(
            "dependency `{name}` resolves to a registry crate: the workspace must build fully \
             offline — use a path/workspace dependency or vendor the code in-tree"
        ),
    )
}

/// Runs the structural rules R10–R13, R15, and R20 over the whole parsed
/// workspace.
///
/// `syntaxes`, `pragmas`, and `hits` must be index-aligned with the `.rs`
/// sources the call graph was built from. Pragmas are consulted here (not
/// only in the caller's final filter) because a justified `allow(R10)` on a
/// charge site must also stop the caller-side propagation; every
/// suppression is recorded in `hits` as `(pragma_line, rule)` so the P2
/// stale-pragma pass can see which pragmas earned their keep.
pub fn check_structural(
    sources: &[SourceFile],
    syntaxes: &[FileSyntax],
    graph: &CallGraph,
    pragmas: &[Vec<Pragma>],
    hits: &mut [Vec<(usize, String)>],
    findings: &mut Vec<Finding>,
) {
    check_r10(syntaxes, graph, pragmas, hits, findings);
    check_r11(syntaxes, findings);
    check_r12(syntaxes, graph, findings);
    check_r13(sources, syntaxes, findings);
    check_r15(sources, syntaxes, findings);
    check_r20(sources, syntaxes, findings);
}

/// R10: interprocedural closure of R9 — any library function outside the
/// round core that charges a ledger is flagged, and so is every library
/// caller that can reach it.
fn check_r10(
    syntaxes: &[FileSyntax],
    graph: &CallGraph,
    pragmas: &[Vec<Pragma>],
    hits: &mut [Vec<(usize, String)>],
    findings: &mut Vec<Finding>,
) {
    let admit = |n: &FnNode| {
        let p = syntaxes[n.file].effective.as_str();
        !n.is_test && in_sim_core(p) && !is_charge_barrier(p)
    };
    // Seeds: admitted fns with at least one unsuppressed direct charge.
    let mut seeds = BTreeSet::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !admit(node) {
            continue;
        }
        for call in &node.calls {
            if call.method && call.name.starts_with("charge_") {
                if let Some(pline) = pragma::suppressing(&pragmas[node.file], "R10", call.line) {
                    hits[node.file].push((pline, "R10".to_string()));
                    continue;
                }
                findings.push(Finding::new(
                    &syntaxes[node.file].effective,
                    call.line,
                    "R10",
                    format!(
                        "`{}` calls `.{}()` outside RoundCore round execution: library \
                         charges must flow through the round core, or carry a justified \
                         allow(R10) for analytic replay accounting",
                        node.name, call.name
                    ),
                ));
                seeds.insert(i);
            }
        }
    }
    if seeds.is_empty() {
        return;
    }
    // Every admitted caller that can reach a dirty fn is itself dirty: the
    // charge happens whenever the caller runs, still outside the core.
    let reach = graph.closure(seeds.iter().copied(), true, false, admit);
    for &c in &reach {
        if seeds.contains(&c) {
            continue;
        }
        let node = &graph.nodes[c];
        let mut seen: BTreeSet<(usize, &str)> = BTreeSet::new();
        for call in &node.calls {
            if graph.resolve(c, call).iter().any(|t| reach.contains(t))
                && seen.insert((call.line, call.name.as_str()))
            {
                findings.push(Finding::new(
                    &syntaxes[node.file].effective,
                    call.line,
                    "R10",
                    format!(
                        "`{}` calls `{}`, which reaches a ledger charge outside the round \
                         core: the whole chain must run under RoundCore round execution",
                        node.name, call.name
                    ),
                ));
            }
        }
    }
}

/// R11: RNG-stream discipline — no `.clone()` on stream state, no stream
/// construction inside loops, in library code. Inside the rng modules
/// themselves, any `.clone()` (test code included) needs a pragma.
fn check_r11(syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for fs in syntaxes {
        let path = fs.effective.as_str();
        let strict = is_rng_module(path);
        if !strict && !path.contains("/src/") {
            continue;
        }
        for span in &fs.fns {
            if span.is_test && !strict {
                continue;
            }
            let in_lib = !span.is_test;
            walk_exprs(fs.body_of(span), ExprCtx::default(), &mut |sibs, i, ctx| {
                if ctx.in_macro {
                    return;
                }
                // `.clone()` on a receiver that names an RNG stream (any
                // receiver at all inside the rng modules).
                if ident_of(&sibs[i]) == Some("clone")
                    && i >= 2
                    && punct_of(&sibs[i - 1]) == Some('.')
                    && matches!(sibs.get(i + 1), Some(Tree::Group(g)) if g.delim == '(')
                {
                    let receiver = sibs.get(i - 2).and_then(ident_of).unwrap_or("");
                    let lower = receiver.to_ascii_lowercase();
                    let rng_ish = lower.contains("rng") || lower.contains("rand");
                    if (in_lib && rng_ish) || strict {
                        findings.push(Finding::new(
                            path,
                            line_of(&sibs[i]),
                            "R11",
                            format!(
                                "`{}.clone()` duplicates seeded stream state: a cloned \
                                 stream replays the same coins, breaking independence; \
                                 pass `&mut` to the one stream or derive a keyed substream",
                                if receiver.is_empty() {
                                    "<expr>"
                                } else {
                                    receiver
                                }
                            ),
                        ));
                    }
                }
                // `SplitMix64::…` / `SharedRandomness::…` inside a loop body
                // re-seeds a stream per iteration.
                if in_lib
                    && ctx.in_loop
                    && matches!(ident_of(&sibs[i]), Some("SplitMix64" | "SharedRandomness"))
                    && punct_of(sibs.get(i + 1).unwrap_or(&sibs[i])) == Some(':')
                {
                    findings.push(Finding::new(
                        path,
                        line_of(&sibs[i]),
                        "R11",
                        format!(
                            "`{}` constructed inside a loop: re-seeding per iteration \
                             correlates draws across iterations; hoist the stream out of \
                             the loop or key a substream per index (mix3)",
                            ident_of(&sibs[i]).unwrap_or("stream")
                        ),
                    ));
                }
            });
        }
    }
}

/// Ledger counter field names (RoundLedger and PhaseRecord).
const LEDGER_FIELDS: &[&str] = &["rounds", "messages", "bits", "violations"];

/// R12: panic/overflow audit of functions on a charge path in crates/sim.
///
/// The charge-path set is computed in two stages: the caller closure of
/// every charge site (who can trigger a charge), intersected with
/// crates/sim, then the callee closure of that set within crates/sim
/// (everything such a function runs on the way). Core algorithm code is
/// deliberately out of scope — its arithmetic is probability math, not
/// ledger bookkeeping.
fn check_r12(syntaxes: &[FileSyntax], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let mut seeds = BTreeSet::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.is_test {
            continue;
        }
        if node.name.starts_with("charge_")
            || node
                .calls
                .iter()
                .any(|c| c.method && c.name.starts_with("charge_"))
        {
            seeds.insert(i);
        }
    }
    let callers = graph.closure(seeds.iter().copied(), true, false, |n| !n.is_test);
    let in_sim =
        |n: &FnNode| !n.is_test && syntaxes[n.file].effective.starts_with("crates/sim/src");
    let sim_roots: Vec<usize> = callers
        .iter()
        .copied()
        .filter(|&i| in_sim(&graph.nodes[i]))
        .collect();
    let charged = graph.closure(sim_roots, false, true, in_sim);
    for &i in &charged {
        let node = &graph.nodes[i];
        if !in_sim(node) {
            continue;
        }
        let fs = &syntaxes[node.file];
        let path = fs.effective.as_str();
        let body = fs.body_of(&fs.fns[node.item]);
        let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();
        walk_exprs(body, ExprCtx::default(), &mut |sibs, j, ctx| {
            if ctx.in_macro {
                return;
            }
            let line = line_of(&sibs[j]);
            // (a)/(b): `as` casts.
            if ident_of(&sibs[j]) == Some("as") {
                match sibs.get(j + 1).and_then(ident_of) {
                    Some(t @ ("u8" | "u16" | "u32" | "i8" | "i16" | "i32"))
                        if seen.insert((line, "cast")) =>
                    {
                        findings.push(Finding::new(
                            path,
                            line,
                            "R12",
                            format!(
                                "truncating `as {t}` in `{}`, which is on a charge \
                                 path: a silent wrap corrupts ledger math; use \
                                 cc_mis_sim::bits::idx_u32 or TryFrom with an \
                                 invariant-naming expect",
                                node.name
                            ),
                        ));
                    }
                    Some("usize")
                        if operand_mentions_64bit(sibs, j) && seen.insert((line, "idx")) =>
                    {
                        let where_ = if ctx.in_index {
                            "an index expression"
                        } else {
                            "a charge path"
                        };
                        findings.push(Finding::new(
                            path,
                            line,
                            "R12",
                            format!(
                                "`as usize` on a 64-bit operand in `{}` (inside \
                                 {where_}): on 32-bit targets this truncates; use \
                                 cc_mis_sim::bits::idx_usize or usize::try_from",
                                node.name
                            ),
                        ));
                    }
                    _ => {}
                }
            }
            // (c): bare `+`/`*` on a ledger counter field (`+=` is R6's
            // business; this closes the `x = x + y` loophole).
            if let Some(field) = ident_of(&sibs[j]).filter(|f| LEDGER_FIELDS.contains(f)) {
                let dotted = j > 0 && punct_of(&sibs[j - 1]) == Some('.');
                let op = sibs.get(j + 1).and_then(punct_of);
                let compound = sibs.get(j + 2).and_then(punct_of) == Some('=');
                if dotted
                    && matches!(op, Some('+' | '*'))
                    && !compound
                    && seen.insert((line, "arith"))
                {
                    findings.push(Finding::new(
                        path,
                        line,
                        "R12",
                        format!(
                            "bare `{}` on ledger counter `.{field}` in `{}`: counter \
                             arithmetic on a charge path must be \
                             checked_add(...).expect(\"<invariant>\") so overflow panics \
                             instead of corrupting the ledger",
                            op.unwrap_or('+'),
                            node.name
                        ),
                    ));
                }
            }
        });
    }
}

/// True if the expression ending just before the `as` at `sibs[as_at]`
/// mentions a 64-bit integer type. Token-level: walks backwards over the
/// operand trees (including group contents) looking for `u64`/`i64`.
/// Misses variables whose 64-bit type is only in a declaration elsewhere —
/// a documented approximation (DESIGN.md §8).
fn operand_mentions_64bit(sibs: &[Tree], as_at: usize) -> bool {
    let mut j = as_at;
    while j > 0 {
        let prev = &sibs[j - 1];
        let expr_ish = match prev {
            Tree::Group(_) => true,
            Tree::Leaf(Token {
                tok: Tok::Ident(s), ..
            }) => !syntax::is_keyword(s) || matches!(s.as_str(), "self" | "Self" | "as"),
            Tree::Leaf(Token {
                tok: Tok::Num(_) | Tok::Lit,
                ..
            }) => true,
            Tree::Leaf(Token {
                tok: Tok::Punct(c), ..
            }) => matches!(c, '.' | ':' | '?'),
        };
        if !expr_ish {
            return false;
        }
        if tree_mentions_64bit(prev) {
            return true;
        }
        j -= 1;
    }
    false
}

fn tree_mentions_64bit(tree: &Tree) -> bool {
    match tree {
        Tree::Leaf(Token {
            tok: Tok::Ident(s), ..
        }) => s == "u64" || s == "i64",
        Tree::Leaf(Token {
            tok: Tok::Num(s), ..
        }) => s.contains("u64") || s.contains("i64"),
        Tree::Leaf(_) => false,
        Tree::Group(g) => g.children.iter().any(tree_mentions_64bit),
    }
}

/// R13: the accounting modules are integer-exact — no float types or
/// literals in library lines of metrics.rs, runtime.rs, or routing.rs.
fn check_r13(sources: &[SourceFile], syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for (fi, fs) in syntaxes.iter().enumerate() {
        let path = fs.effective.as_str();
        if !(is_metrics(path) || is_runtime(path) || is_routing(path)) {
            continue;
        }
        let lines = &sources[fi].lines;
        // Per offending line: the first offense description, and whether a
        // float *literal* appears (which blocks the mechanical type fix).
        let mut offenses: Vec<(usize, String, bool)> = Vec::new();
        visit_float_tokens(&fs.roots, &mut |line, what| {
            let lit = what == "float literal";
            match offenses.iter_mut().find(|(l, _, _)| *l == line) {
                Some(slot) => slot.2 |= lit,
                None => offenses.push((line, what.to_string(), lit)),
            }
        });
        offenses.sort_by_key(|&(l, _, _)| l);
        for (lineno, what, has_literal) in offenses {
            let Some(line) = lines.get(lineno - 1) else {
                continue;
            };
            if line.in_test {
                continue;
            }
            let finding = Finding::new(
                path,
                lineno,
                "R13",
                format!(
                    "{what} in an accounting module: ledger bookkeeping must be \
                     integer-exact (float accumulation is rounding-order dependent); \
                     keep counters u64 and compare via cross-multiplication"
                ),
            );
            // Fix only when every offense on the line is a type token: a
            // width swap (f64→u64, f32→u32) is mechanical, a literal is not.
            let fix = (!has_literal).then(|| r13_fix(line, lineno)).flatten();
            findings.push(match fix {
                Some(fix) => finding.with_fix(fix),
                None => finding,
            });
        }
    }
}

/// R13 autofix: rewrite every standalone `f64`/`f32` type token on the line
/// to the matching integer width.
fn r13_fix(line: &Line, lineno: usize) -> Option<Fix> {
    let chars: Vec<char> = line.code.chars().collect();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut edits = Vec::new();
    for (pat, repl) in [("f64", "u64"), ("f32", "u32")] {
        for at in fixes::find_all(&chars, pat) {
            let end = at + 3;
            let standalone =
                (at == 0 || !ident(chars[at - 1])) && (end == chars.len() || !ident(chars[end]));
            if !standalone {
                continue;
            }
            edits.push(Edit {
                span: fixes::code_span(line, lineno, at, end)?,
                replacement: repl.to_string(),
            });
        }
    }
    (!edits.is_empty()).then(|| Fix {
        title: "replace float accounting types with integer widths".to_string(),
        edits,
    })
}

/// R15: the round hot paths are allocation-free — the bodies of
/// `Round::send` and `Round::deliver` in runtime.rs contain no allocation
/// constructors. Steady-state rounds must recycle pooled buffers; a stray
/// `Vec::new`/`vec!` here costs an allocation per round (or per message)
/// on the O(n²) clique path.
fn check_r15(sources: &[SourceFile], syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    const BANNED: [&str; 4] = ["Vec::new", "with_capacity", "vec!", "to_vec("];
    for (fi, fs) in syntaxes.iter().enumerate() {
        let path = fs.effective.as_str();
        if !is_runtime(path) {
            continue;
        }
        let lines = &sources[fi].lines;
        for f in &fs.fns {
            if f.is_test
                || f.self_type.as_deref() != Some("Round")
                || !(f.name == "send" || f.name == "deliver")
            {
                continue;
            }
            for lineno in f.start_line..=f.end_line {
                let Some(line) = lines.get(lineno - 1) else {
                    continue;
                };
                if line.in_test {
                    continue;
                }
                for pat in BANNED {
                    if line.code.contains(pat) {
                        findings.push(Finding::new(
                            path,
                            lineno,
                            "R15",
                            format!(
                                "`{pat}` inside `Round::{}`: the round hot path must stay \
                                 allocation-free — take the buffer from the RoundBuffers \
                                 pool (crates/sim/src/pool.rs) or hoist the allocation out \
                                 of send/deliver",
                                f.name
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }
}

/// R20: executions are driven, not hand-stepped — in sim-core library
/// code, `.step()` is called only by the driver, the batch scheduler, or a
/// `fn step` forwarding to an inner execution. Any other call site
/// advances an execution outside the step accounting that preemption and
/// checkpoint cadence are built on.
fn check_r20(sources: &[SourceFile], syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for (fi, fs) in syntaxes.iter().enumerate() {
        let path = fs.effective.as_str();
        if !in_sim_core(path) || is_step_owner(path) {
            continue;
        }
        let lines = &sources[fi].lines;
        for f in &fs.fns {
            if f.is_test || f.name == "step" {
                continue;
            }
            for lineno in f.start_line..=f.end_line {
                let Some(line) = lines.get(lineno - 1) else {
                    continue;
                };
                if line.in_test || !line.code.contains(".step()") {
                    continue;
                }
                findings.push(Finding::new(
                    path,
                    lineno,
                    "R20",
                    format!(
                        "`.step()` called in `{}`, outside the driver/scheduler: a \
                         hand-rolled step loop bypasses the step counters that \
                         preemption and checkpoint cadence rely on — drive the \
                         execution via `drive*` or `BatchScheduler`, or forward from \
                         a `fn step`",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// The two modules sanctioned to advance executions step-by-step: the
/// solo driver and the batch scheduler.
fn is_step_owner(path: &str) -> bool {
    path == "crates/sim/src/driver.rs" || path == "crates/sim/src/scheduler.rs"
}

/// Calls `f(line, description)` for every float type name or float literal
/// in `trees` (recursively).
fn visit_float_tokens(trees: &[Tree], f: &mut impl FnMut(usize, &str)) {
    for t in trees {
        match t {
            Tree::Leaf(Token {
                tok: Tok::Ident(s),
                line,
            }) if s == "f64" || s == "f32" => f(*line, "float type `f64`/`f32`"),
            Tree::Leaf(Token {
                tok: Tok::Num(s),
                line,
            }) if s.contains('.') || s.contains("f64") || s.contains("f32") => {
                f(*line, "float literal")
            }
            Tree::Group(g) => visit_float_tokens(&g.children, f),
            Tree::Leaf(_) => {}
        }
    }
}
