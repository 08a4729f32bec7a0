//! Determinism-taint rules R21–R24.
//!
//! The bit-determinism story says a run is a pure function of
//! `(seed, graph, params)`. Scheduling identity — how many worker threads
//! ran, which shard a value landed in, what `CC_MIS_*` knobs the process
//! environment carried — is explicitly allowed to vary between runs, so it
//! must never reach the three places where it would become observable:
//! ledger charges, RNG seeding, and snapshot bytes.
//!
//! * **R21** tracks that taint intraprocedurally over the token-tree layer:
//!   sources are `thread_count()` / `available_parallelism()` /
//!   `std::env` reads (and the `config::env_*` accessors wrapping them),
//!   plus the shard-index parameter of closures handed to
//!   `par_zip_shards` / `par_scatter_shards`. `let`-bindings propagate
//!   taint to a fixpoint; sinks are `.charge_*` arguments,
//!   `SplitMix64`/`SharedRandomness` constructor arguments, and
//!   `SnapshotWriter` `.write_*` arguments. The lattice is the trivial
//!   clean < tainted, with no kills — a value once derived from scheduling
//!   identity stays suspect for the rest of the function.
//! * **R22** pins the snapshot wire format: the ordered `write_*` sequence
//!   of every non-test `Execution::save` (extracted with the same machinery
//!   R17 uses for save/restore parity) is compared against the committed
//!   manifest `crates/conform/snapshot_manifest.txt`. R17 cannot catch a
//!   save+restore pair that drifts *together*; R22 can, because the
//!   manifest is a third copy under version control. A mismatch is
//!   tolerated only while the recorded snapshot VERSION differs from the
//!   current one (a sanctioned format bump); regenerate with
//!   `--update-snapshot-manifest`.
//! * **R23** confines `std::env` reads in crates/core and crates/sim to
//!   the central config module, so R21's env-source list stays auditable.
//! * **R24** confines raw `std::process` and socket APIs in crates/core
//!   and crates/sim to the sharded-transport module, so every process
//!   boundary speaks the checksummed frame codec and sits behind the
//!   checkpoint-recovery machinery the fault matrix exercises.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::{
    call_at, contains_ident, extract_ops, fn_param_names, normalize, split_commas, trait_impls,
    OpNode,
};
use crate::diag::Finding;
use crate::rules::in_sim_core;
use crate::scanner::SourceFile;
use crate::syntax::{group_of, ident_of, punct_of, FileSyntax, Tree};

/// The path every core/sim env read must live in (R23), and the one module
/// whose env sources R21 treats as its own.
const CONFIG_MODULE: &str = "crates/sim/src/config.rs";

/// The file a `snapshot_manifest.txt` input pins (R22 runs only when the
/// manifest is among the inputs).
const SNAPSHOT_MODULE: &str = "crates/sim/src/snapshot.rs";

/// The one core/sim module sanctioned to spawn worker processes and open
/// sockets (R24): the sharded transport, whose FrameLink backends own the
/// frame codec and the checkpoint-recovery protocol.
const SHARD_MODULE: &str = "crates/sim/src/shard.rs";

/// Runs the taint phase. `manifest` is the `(path, text)` of the committed
/// snapshot manifest when one is among the inputs; without it R22 is
/// skipped (explicit-path lint runs of single files stay meaningful).
pub fn check(
    sources: &[SourceFile],
    syntaxes: &[FileSyntax],
    manifest: Option<(&str, &str)>,
    findings: &mut Vec<Finding>,
) {
    check_r21(syntaxes, findings);
    if let Some((mpath, mtext)) = manifest {
        check_r22(sources, syntaxes, mpath, mtext, findings);
    }
    check_r23(sources, findings);
    check_r24(sources, findings);
}

// ---------------------------------------------------------------------------
// R21 — scheduling identity must not reach charges, RNG seeds, or snapshots
// ---------------------------------------------------------------------------

/// Calls whose results carry scheduling identity. `thread_count` and the
/// `config::env_*` accessors are name-based (the call graph's resolution is
/// overkill here: the names are unique in-tree and the rule is
/// intraprocedural by design).
const SOURCE_CALLS: &[&str] = &[
    "thread_count",
    "available_parallelism",
    "env_threads",
    "env_shards",
    "env_shard_backend",
    "env_worker_bin",
    "env_worker_log_dir",
];

/// Helpers whose closure's first parameter is a shard index.
const SHARD_HELPERS: &[&str] = &["par_zip_shards", "par_scatter_shards"];

fn check_r21(syntaxes: &[FileSyntax], findings: &mut Vec<Finding>) {
    for fs in syntaxes {
        let path = fs.effective.as_str();
        if !in_sim_core(path) {
            continue;
        }
        for f in &fs.fns {
            if f.is_test {
                continue;
            }
            let body = fs.body_of(f);
            let mut tainted: BTreeSet<String> = BTreeSet::new();
            collect_shard_params(body, &mut tainted);
            // `let` propagation to a fixpoint (no kills: rebinding a name
            // to a clean value later is rare enough to not carve out).
            loop {
                let before = tainted.len();
                collect_let_taint(body, &mut tainted);
                if tainted.len() == before {
                    break;
                }
            }
            let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();
            scan_sinks(body, &tainted, path, &f.name, &mut seen, findings);
        }
    }
}

/// True if the expression slice derives from scheduling identity: it names
/// a tainted binding or contains a source call.
fn slice_tainted(trees: &[Tree], tainted: &BTreeSet<String>) -> bool {
    slice_has_source(trees) || tainted.iter().any(|t| contains_ident(trees, t))
}

/// True if the slice contains a call to one of the taint sources.
fn slice_has_source(trees: &[Tree]) -> bool {
    for (i, t) in trees.iter().enumerate() {
        if let Some(g) = group_of(t) {
            if slice_has_source(&g.children) {
                return true;
            }
            continue;
        }
        let Some(id) = ident_of(t) else { continue };
        let called = matches!(trees.get(i + 1), Some(Tree::Group(g)) if g.delim == '(');
        if !called {
            continue;
        }
        if SOURCE_CALLS.contains(&id) {
            return true;
        }
        // `env::var(…)` / `env::var_os(…)` / `env::vars(…)`.
        if matches!(id, "var" | "var_os" | "vars")
            && i >= 3
            && punct_of(&trees[i - 1]) == Some(':')
            && punct_of(&trees[i - 2]) == Some(':')
            && ident_of(&trees[i - 3]) == Some("env")
        {
            return true;
        }
    }
    false
}

/// Taints the first (shard-index) parameter of closures passed to the
/// shard-parallel helpers.
fn collect_shard_params(trees: &[Tree], tainted: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            collect_shard_params(&g.children, tainted);
            i += 1;
            continue;
        }
        if let Some(call) = call_at(trees, i) {
            if SHARD_HELPERS.contains(&call.name) {
                if let Some(first) = closure_first_param(&call.args.children) {
                    tainted.insert(first);
                }
            }
        }
        i += 1;
    }
}

/// The first parameter name of the first top-level closure in an argument
/// slice (`|shard, chunk, row| …` → `shard`).
fn closure_first_param(args: &[Tree]) -> Option<String> {
    let open = args.iter().position(|t| punct_of(t) == Some('|'))?;
    let close = open
        + 1
        + args[open + 1..]
            .iter()
            .position(|t| punct_of(t) == Some('|'))?;
    let params = &args[open + 1..close];
    let first = split_commas(params).first().copied()?;
    let mut ids = Vec::new();
    crate::dataflow::pattern_idents(first, &mut ids);
    ids.into_iter().next()
}

/// One pass of `let` propagation: any binding whose initializer is tainted
/// taints its pattern identifiers. Recurses into every group, so closure
/// and block bodies are covered.
fn collect_let_taint(trees: &[Tree], tainted: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            collect_let_taint(&g.children, tainted);
            i += 1;
            continue;
        }
        if ident_of(&trees[i]) == Some("let") {
            // Find the initializer `=` (skipping `==` and `=>`), then the
            // terminating `;` at this nesting level.
            let mut j = i + 1;
            let mut eq = None;
            while j < trees.len() {
                match punct_of(&trees[j]) {
                    Some(';') => break,
                    Some('=') => {
                        let next = trees.get(j + 1).and_then(punct_of);
                        if matches!(next, Some('=' | '>')) {
                            j += 2;
                            continue;
                        }
                        eq = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(eq) = eq {
                let mut end = eq + 1;
                while end < trees.len() && punct_of(&trees[end]) != Some(';') {
                    end += 1;
                }
                if slice_tainted(&trees[eq + 1..end], tainted) {
                    let mut ids = Vec::new();
                    crate::dataflow::pattern_idents(&trees[i + 1..eq], &mut ids);
                    for id in ids {
                        tainted.insert(id);
                    }
                }
            }
        }
        i += 1;
    }
}

/// Flags every sink whose arguments are tainted: ledger charges, RNG
/// constructors, snapshot writes.
fn scan_sinks(
    trees: &[Tree],
    tainted: &BTreeSet<String>,
    path: &str,
    fn_name: &str,
    seen: &mut BTreeSet<(usize, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < trees.len() {
        if let Some(g) = group_of(&trees[i]) {
            scan_sinks(&g.children, tainted, path, fn_name, seen, findings);
            i += 1;
            continue;
        }
        if let Some(call) = call_at(trees, i) {
            let args = &call.args.children;
            let rng_ctor = i >= 3
                && punct_of(&trees[i - 1]) == Some(':')
                && punct_of(&trees[i - 2]) == Some(':')
                && matches!(
                    ident_of(&trees[i - 3]),
                    Some("SplitMix64" | "SharedRandomness")
                );
            let sink: Option<(&'static str, &'static str)> =
                if call.method && call.name.starts_with("charge_") {
                    Some((
                        "charge",
                        "bills a ledger with it — totals would depend on the machine, \
                         not on (seed, graph, params)",
                    ))
                } else if call.method && call.name.starts_with("write_") {
                    Some((
                        "write",
                        "writes it into a snapshot — checkpoints taken on different \
                         machines (or thread counts) would diverge byte-wise, voiding \
                         resume equivalence",
                    ))
                } else if rng_ctor {
                    Some((
                        "seed",
                        "seeds an RNG stream with it — the coin sequence would change \
                         with the thread count, which no replay can reproduce",
                    ))
                } else {
                    None
                };
            if let Some((kind, why)) = sink {
                if slice_tainted(args, tainted) && seen.insert((call.line, kind)) {
                    findings.push(Finding::new(
                        path,
                        call.line,
                        "R21",
                        format!(
                            "`{fn_name}` derives a value from scheduling identity (thread \
                             count, shard index, or env read) and {why}; derive it from \
                             simulation state instead — scheduling identity may steer \
                             scheduling only"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// R22 — snapshot-format pinning against the committed manifest
// ---------------------------------------------------------------------------

/// The canonical save-sequence fingerprints of every non-test
/// `impl Execution` in the parsed inputs, sorted by (path, type).
fn save_fingerprints(
    sources: &[SourceFile],
    syntaxes: &[FileSyntax],
) -> Vec<(String, String, String, usize)> {
    let mut out = Vec::new();
    for (fi, fs) in syntaxes.iter().enumerate() {
        let impls = trait_impls(fs, "Execution");
        if impls.is_empty() {
            continue;
        }
        let src = &sources[fi];
        for im in &impls {
            let save = fs.fns.iter().find(|f| {
                f.name == "save"
                    && !f.is_test
                    && f.self_type.as_deref() == Some(im.self_type.as_str())
                    && f.start_line >= im.open_line
                    && f.end_line <= im.close_line
            });
            let Some(save) = save else { continue };
            let seq = normalize(extract_ops(
                fs.body_of(save),
                &fn_param_names(fs, save),
                fs,
                src,
                1,
            ));
            out.push((
                fs.effective.clone(),
                im.self_type.clone(),
                render_seq(&seq),
                save.start_line,
            ));
        }
    }
    out.sort();
    out
}

/// Renders an op sequence as the canonical manifest string. Order-sensitive
/// and expression-sensitive: a same-width reorder of two `write_u64` fields
/// still changes the string.
fn render_seq(nodes: &[OpNode]) -> String {
    let parts: Vec<String> = nodes.iter().map(render_node).collect();
    parts.join(" ")
}

fn render_node(n: &OpNode) -> String {
    match n {
        OpNode::Op { raw, expr, .. } => match expr {
            Some(e) => format!("{raw}({e})"),
            None => format!("{raw}()"),
        },
        OpNode::Opaque { .. } => "<opaque>".to_string(),
        OpNode::Loop { body, .. } => format!("loop{{{}}}", render_seq(body)),
        OpNode::Branch { arms, .. } => {
            let rendered: Vec<String> = arms.iter().map(|a| render_seq(a)).collect();
            format!("branch{{{}}}", rendered.join(" | "))
        }
    }
}

/// The current `snapshot::VERSION`, read off the snapshot module when it is
/// among the inputs.
fn current_version(sources: &[SourceFile]) -> Option<u32> {
    let snap = sources.iter().find(|s| s.effective == SNAPSHOT_MODULE)?;
    for line in &snap.lines {
        let Some(at) = line.code.find("const VERSION") else {
            continue;
        };
        let after_eq = line.code[at..].split('=').nth(1)?;
        let digits: String = after_eq
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        return digits.parse().ok();
    }
    None
}

/// Parses the committed manifest: a `version N` line plus
/// `path<TAB>type<TAB>sequence` entries (`#` lines are comments).
fn parse_manifest(text: &str) -> (Option<u32>, BTreeMap<(String, String), String>) {
    let mut version = None;
    let mut entries = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(v) = line.strip_prefix("version ") {
            version = v.trim().parse().ok();
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        if let (Some(p), Some(t), Some(s)) = (parts.next(), parts.next(), parts.next()) {
            entries.insert((p.to_string(), t.to_string()), s.to_string());
        }
    }
    (version, entries)
}

/// Renders the manifest for the current inputs (`--update-snapshot-manifest`).
pub fn render_manifest(sources: &[SourceFile], syntaxes: &[FileSyntax]) -> String {
    let mut out = String::new();
    out.push_str(
        "# cc-mis-conform snapshot manifest — ordered `Execution::save` write sequences.\n\
         # One entry per impl: <file>\\t<type>\\t<sequence>. R22 fails the lint when a\n\
         # sequence changes under an unchanged snapshot VERSION. Regenerate after a\n\
         # deliberate format change with:\n\
         #   cargo run -p cc-mis-conform -- --update-snapshot-manifest\n",
    );
    out.push_str(&format!(
        "version {}\n",
        current_version(sources).unwrap_or(0)
    ));
    for (path, ty, seq, _) in save_fingerprints(sources, syntaxes) {
        out.push_str(&format!("{path}\t{ty}\t{seq}\n"));
    }
    out
}

fn check_r22(
    sources: &[SourceFile],
    syntaxes: &[FileSyntax],
    manifest_path: &str,
    manifest_text: &str,
    findings: &mut Vec<Finding>,
) {
    let (recorded_version, entries) = parse_manifest(manifest_text);
    let cur = current_version(sources);
    // A differing VERSION is the sanctioned way to change the format; the
    // next manifest regeneration re-pins under the new version.
    let version_bumped = matches!((recorded_version, cur), (Some(a), Some(b)) if a != b);
    for (path, ty, seq, line) in save_fingerprints(sources, syntaxes) {
        match entries.get(&(path.clone(), ty.clone())) {
            None => findings.push(Finding::new(
                &path,
                line,
                "R22",
                format!(
                    "`impl Execution for {ty}` has no entry in {manifest_path}: every \
                     save() write sequence must be pinned — run \
                     `conform --update-snapshot-manifest` and commit the result"
                ),
            )),
            Some(recorded) if *recorded != seq && !version_bumped => {
                findings.push(Finding::new(
                    &path,
                    line,
                    "R22",
                    format!(
                        "`{ty}::save` write sequence changed without a snapshot VERSION \
                         bump (manifest has `{recorded}`, code has `{seq}`): old \
                         checkpoints would restore garbage without a SnapshotError — \
                         bump snapshot::VERSION or regenerate the manifest"
                    ),
                ));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// R23 — env reads live only in the config module
// ---------------------------------------------------------------------------

fn check_r23(sources: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in sources {
        let path = f.effective.as_str();
        if !in_sim_core(path) || path == CONFIG_MODULE {
            continue;
        }
        for (idx, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = line.code.as_str();
            let Some(at) = code.find("env::var") else {
                continue;
            };
            // Reject `my_env::var`-style matches: the char before `env`
            // must not be part of an identifier.
            let pre = code[..at].chars().next_back();
            if pre.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            findings.push(Finding::new(
                path,
                idx + 1,
                "R23",
                format!(
                    "environment read outside the config module: every std::env read in \
                     crates/core and crates/sim belongs in {CONFIG_MODULE}, so the full \
                     set of ambient knobs stays auditable in one place"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// R24 — process and socket APIs live only in the sharded-transport module
// ---------------------------------------------------------------------------

/// Tokens that open a process or byte-stream boundary. `Command::new` (not
/// the bare path `std::process`) keeps `ExitCode`-style uses clean; `.kill()`
/// catches hand-rolled child teardown outside the recovery protocol.
const PROCESS_TOKENS: &[&str] = &[
    "UnixListener",
    "UnixStream",
    "TcpListener",
    "TcpStream",
    "Command::new",
    "Stdio::",
    ".kill()",
];

fn check_r24(sources: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in sources {
        let path = f.effective.as_str();
        if !in_sim_core(path) || path == SHARD_MODULE {
            continue;
        }
        for (idx, line) in f.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = line.code.as_str();
            let Some(pat) = PROCESS_TOKENS.iter().find(|p| code.contains(*p)) else {
                continue;
            };
            findings.push(Finding::new(
                path,
                idx + 1,
                "R24",
                format!(
                    "`{pat}` outside the sharded-transport module: process spawns and \
                     sockets in crates/core and crates/sim belong in {SHARD_MODULE}, \
                     behind the frame codec and checkpoint recovery"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan_str;
    use crate::syntax::parse_file;

    fn indexed(path: &str, src: &str) -> (Vec<SourceFile>, Vec<FileSyntax>) {
        let file = scan_str(path, src);
        let fs = parse_file(&file);
        (vec![file], vec![fs])
    }

    #[test]
    fn r21_flags_tainted_charge_and_clean_pool_use() {
        let (src, fs) = indexed(
            "crates/sim/src/demo.rs",
            "pub fn run(ledger: &mut RoundLedger) {\n\
             \x20   let threads = thread_count();\n\
             \x20   let pool = threads.min(8);\n\
             \x20   let salt = pool + 1;\n\
             \x20   ledger.charge_bits(salt as u64);\n\
             }\n",
        );
        let mut findings = Vec::new();
        check(&src, &fs, None, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R21");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn r21_allows_scheduling_only_use() {
        let (src, fs) = indexed(
            "crates/sim/src/demo.rs",
            "pub fn run(ledger: &mut RoundLedger, n: u64) {\n\
             \x20   let threads = thread_count();\n\
             \x20   let _chunk = n as usize / threads.max(1);\n\
             \x20   ledger.charge_bits(n);\n\
             }\n",
        );
        let mut findings = Vec::new();
        check(&src, &fs, None, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn r21_flags_shard_index_seeding_an_rng() {
        let (src, fs) = indexed(
            "crates/sim/src/demo.rs",
            "pub fn run(outs: &mut [u64], rows: &mut [u64]) {\n\
             \x20   par_zip_shards(outs, rows, 4, |shard, chunk, row| {\n\
             \x20       let rng = SplitMix64::new(shard as u64);\n\
             \x20       let _ = rng;\n\
             \x20       let _ = (chunk, row);\n\
             \x20   });\n\
             }\n",
        );
        let mut findings = Vec::new();
        check(&src, &fs, None, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R21");
    }

    #[test]
    fn r23_confines_env_reads_to_the_config_module() {
        let (src, fs) = indexed(
            "crates/sim/src/worker.rs",
            "pub fn knob() -> bool {\n    std::env::var(\"CC_MIS_X\").is_ok()\n}\n",
        );
        let mut findings = Vec::new();
        check(&src, &fs, None, &mut findings);
        // The env read itself is an R21 *source*, not a sink — only R23 fires.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R23");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn manifest_round_trips_and_pins_reorders() {
        let code = "struct Demo;\n\
                    impl Execution for Demo {\n\
                    \x20   fn save(&self, w: &mut SnapshotWriter) {\n\
                    \x20       w.write_u64(self.steps);\n\
                    \x20       w.write_bool(self.done);\n\
                    \x20   }\n\
                    \x20   fn restore(&mut self, r: &mut SnapshotReader) {\n\
                    \x20       self.steps = r.read_u64();\n\
                    \x20       self.done = r.read_bool();\n\
                    \x20   }\n\
                    }\n";
        let (src, fs) = indexed("crates/core/src/demo_snap.rs", code);
        let manifest = render_manifest(&src, &fs);
        assert!(manifest.contains("crates/core/src/demo_snap.rs\tDemo\t"));
        // Matching manifest: clean.
        let mut findings = Vec::new();
        check_r22(&src, &fs, "m.txt", &manifest, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        // Reordered code vs. recorded manifest, no version bump: fires.
        let reordered = code.replace(
            "w.write_u64(self.steps);\n\x20       w.write_bool(self.done);",
            "w.write_bool(self.done);\n\x20       w.write_u64(self.steps);",
        );
        let (src2, fs2) = indexed("crates/core/src/demo_snap.rs", &reordered);
        let mut findings = Vec::new();
        check_r22(&src2, &fs2, "m.txt", &manifest, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R22");
    }
}
