//! Fixture-driven tests: one firing + one clean fixture per rule.
//!
//! Each `.rs` fixture begins with a `conform-fixture:` path override so a
//! file that physically lives under `tests/fixtures/` is scoped as if it
//! sat anywhere in the tree (see `scanner::fixture_override`). The
//! workspace walker skips `fixtures/` directories, so the deliberately
//! violating files here never fail the live-tree scan.

use cc_mis_conform::{check, fixes, Finding, Input};

/// Loads a fixture by file name, keyed to the crate's own manifest dir so
/// the test works from any working directory.
fn fixture(name: &str) -> Input {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} must be readable: {e}"));
    // Manifest fixtures are fed under the path their header comment names;
    // .rs fixtures carry the override in-band and any placeholder works.
    let effective = match name {
        "r8_fires.toml" | "r8_clean.toml" => "crates/demo/Cargo.toml".to_string(),
        _ => format!("crates/conform/tests/fixtures/{name}"),
    };
    Input {
        path: effective,
        text,
    }
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

/// Asserts the firing fixture reports `rule` and the clean one reports
/// nothing at all.
fn assert_fires_and_clean(rule: &str, fires: &str, clean: &str) {
    let firing = check(&[fixture(fires)]);
    assert!(
        firing.iter().any(|f| f.rule == rule),
        "{fires} should report {rule}, got {firing:?}"
    );
    let clean_findings = check(&[fixture(clean)]);
    assert!(
        clean_findings.is_empty(),
        "{clean} should be clean, got {clean_findings:?}"
    );
}

#[test]
fn r1_hash_collections_in_charged_crates() {
    assert_fires_and_clean("R1", "r1_fires.rs", "r1_clean.rs");
}

#[test]
fn r2_threads_outside_par_nodes() {
    assert_fires_and_clean("R2", "r2_fires.rs", "r2_clean.rs");
}

#[test]
fn r3_ambient_nondeterminism() {
    assert_fires_and_clean("R3", "r3_fires.rs", "r3_clean.rs");
}

#[test]
fn r4_crate_roots_forbid_unsafe() {
    assert_fires_and_clean("R4", "r4_fires.rs", "r4_clean.rs");
    // R4 anchors to line 1 so the diagnostic stays stable as files grow.
    let firing = check(&[fixture("r4_fires.rs")]);
    assert!(firing.iter().any(|f| f.rule == "R4" && f.line == 1));
}

#[test]
fn r5_unwrap_and_short_expect() {
    let firing = check(&[fixture("r5_fires.rs")]);
    let rules = rules_of(&firing);
    // Both the bare unwrap and the non-invariant expect message fire.
    assert_eq!(
        rules.iter().filter(|r| **r == "R5").count(),
        2,
        "{firing:?}"
    );
    let clean = check(&[fixture("r5_clean.rs")]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r6_stale_counters_and_direct_mutation() {
    // R6 needs the (fixture) metrics.rs in the same input set: the declared
    // counter set is extracted from whatever file scopes as metrics.rs.
    let firing = check(&[fixture("r6_metrics.rs"), fixture("r6_fires.rs")]);
    let r6: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R6").collect();
    assert_eq!(r6.len(), 2, "stale call + direct `+=` expected: {firing:?}");
    assert!(
        r6.iter().any(|f| f.message.contains("charge_probe")),
        "{firing:?}"
    );
    let clean = check(&[fixture("r6_metrics.rs"), fixture("r6_clean.rs")]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r6_is_skipped_without_a_metrics_file() {
    // Checking a single file in isolation must not produce false stale-call
    // findings just because metrics.rs was not part of the input set.
    let findings = check(&[fixture("r6_clean.rs")]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r7_magic_bandwidth_literals() {
    assert_fires_and_clean("R7", "r7_fires.rs", "r7_clean.rs");
}

#[test]
fn r8_registry_dependencies() {
    let firing = check(&[fixture("r8_fires.toml")]);
    let r8: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R8").collect();
    // serde, rand, and the [dev-dependencies.criterion] subsection.
    assert_eq!(r8.len(), 3, "{firing:?}");
    let clean = check(&[fixture("r8_clean.toml")]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r9_sim_charges_outside_the_round_core() {
    assert_fires_and_clean("R9", "r9_fires.rs", "r9_clean.rs");
    // Both charge lines in the firing fixture are reported individually.
    let firing = check(&[fixture("r9_fires.rs")]);
    assert_eq!(
        firing.iter().filter(|f| f.rule == "R9").count(),
        2,
        "{firing:?}"
    );
}

#[test]
fn r10_charges_reachable_outside_the_round_core() {
    assert_fires_and_clean("R10", "r10_fires.rs", "r10_clean.rs");
    // The direct charge AND the caller that reaches it are both reported.
    let firing = check(&[fixture("r10_fires.rs")]);
    let r10: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R10").collect();
    assert_eq!(r10.len(), 2, "{firing:?}");
    assert!(
        r10.iter()
            .any(|f| f.message.contains("`driver` calls `bill_directly`")),
        "propagated caller finding expected: {firing:?}"
    );
}

#[test]
fn r10_justified_charge_stops_caller_propagation() {
    // The clean twin has the same call chain; the allow(R10) on the charge
    // site must also clear `driver`, which only reaches the justified site.
    let findings = check(&[fixture("r10_clean.rs")]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r11_stream_clone_and_reseeding_in_loop() {
    assert_fires_and_clean("R11", "r11_fires.rs", "r11_clean.rs");
    let firing = check(&[fixture("r11_fires.rs")]);
    let r11: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R11").collect();
    // One for the in-loop constructor, one for the stream clone.
    assert_eq!(r11.len(), 2, "{firing:?}");
    assert!(r11.iter().any(|f| f.message.contains("inside a loop")));
    assert!(r11.iter().any(|f| f.message.contains("clone()")));
}

#[test]
fn r12_overflow_audit_on_charge_paths() {
    assert_fires_and_clean("R12", "r12_fires.rs", "r12_clean.rs");
    let firing = check(&[fixture("r12_fires.rs")]);
    let r12: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R12").collect();
    // Truncating `as u32`, 64-bit `as usize` in an index, bare `+` on a
    // ledger counter — three distinct hazards, three findings.
    assert_eq!(r12.len(), 3, "{firing:?}");
    assert!(r12
        .iter()
        .any(|f| f.message.contains("truncating `as u32`")));
    assert!(r12
        .iter()
        .any(|f| f.message.contains("`as usize` on a 64-bit operand")));
    assert!(r12
        .iter()
        .any(|f| f.message.contains("bare `+` on ledger counter `.bits`")));
}

#[test]
fn r13_floats_in_accounting_modules() {
    assert_fires_and_clean("R13", "r13_fires.rs", "r13_clean.rs");
}

#[test]
fn r14_rounds_outside_runner_modules() {
    assert_fires_and_clean("R14", "r14_fires.rs", "r14_clean.rs");
    // The clean twin opens the same round, but from inside an `impl
    // Execution for` module — the driver-sanctioned place to do it.
    let firing = check(&[fixture("r14_fires.rs")]);
    assert!(
        firing
            .iter()
            .any(|f| f.rule == "R14" && f.message.contains("outside a runner module")),
        "{firing:?}"
    );
}

#[test]
fn r15_allocation_in_round_hot_paths() {
    assert_fires_and_clean("R15", "r15_fires.rs", "r15_clean.rs");
    // Both hot paths are policed, and the message names the offending fn.
    let firing = check(&[fixture("r15_fires.rs")]);
    for method in ["send", "deliver"] {
        assert!(
            firing
                .iter()
                .any(|f| f.rule == "R15" && f.message.contains(&format!("`Round::{method}`"))),
            "R15 should fire inside Round::{method}: {firing:?}"
        );
    }
}

#[test]
fn r16_pool_take_without_retire() {
    assert_fires_and_clean("R16", "r16_fires.rs", "r16_clean.rs");
    let firing = check(&[fixture("r16_fires.rs")]);
    let r16: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R16").collect();
    // One fall-through leak, one early `?` exit with an open obligation.
    assert_eq!(r16.len(), 2, "{firing:?}");
    assert!(
        r16.iter()
            .any(|f| f.message.contains("never retired") && f.message.contains("take_sparse")),
        "{firing:?}"
    );
    assert!(
        r16.iter()
            .any(|f| f.message.contains("exits via `?`") && f.message.contains("take_sparse")),
        "{firing:?}"
    );
    // Pool leaks are state corruption: error severity, exit-3 class.
    assert!(r16.iter().all(|f| f.severity() == "error"), "{firing:?}");
}

#[test]
fn r17_save_restore_parity() {
    assert_fires_and_clean("R17", "r17_fires.rs", "r17_clean.rs");
    let firing = check(&[fixture("r17_fires.rs")]);
    let r17: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R17").collect();
    assert_eq!(r17.len(), 1, "first divergence only: {firing:?}");
    assert!(
        r17[0].message.contains("impl Execution for DemoExec")
            && r17[0].message.contains("write_u64")
            && r17[0].message.contains("read_bool"),
        "{firing:?}"
    );
    assert_eq!(r17[0].severity(), "error", "{firing:?}");
}

#[test]
fn r18_observer_purity() {
    assert_fires_and_clean("R18", "r18_fires.rs", "r18_clean.rs");
    let firing = check(&[fixture("r18_fires.rs")]);
    assert!(
        firing.iter().any(|f| f.rule == "R18"
            && f.message.contains("`on_round_end`")
            && f.message.contains("charge_bits")),
        "{firing:?}"
    );
}

#[test]
fn r19_shard_closure_isolation() {
    assert_fires_and_clean("R19", "r19_fires.rs", "r19_clean.rs");
    let firing = check(&[fixture("r19_fires.rs")]);
    let r19: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R19").collect();
    // One aggregated finding per offending closure: the scatter closure
    // (two captured roots) and the map closure (one index-write).
    assert_eq!(r19.len(), 2, "{firing:?}");
    assert!(
        r19.iter().any(|f| f.message.contains("cuts, totals")),
        "offending roots are aggregated and sorted: {firing:?}"
    );
    assert!(
        r19.iter()
            .any(|f| f.message.contains("index-writes captured state")),
        "{firing:?}"
    );
}

#[test]
fn r19_justified_pragma_clears_an_audited_closure() {
    // The live scatter core carries exactly this shape: a justified
    // allow(R19) on the offense line inside the closure.
    let src = "// conform-fixture: crates/sim/src/scatter_demo.rs\n\
               pub fn scatter(cuts: &[usize], chunks: &mut [Chunk]) {\n\
                   par_scatter_shards(chunks, |shard, chunk| {\n\
                       // conform: allow(R19) -- shard ranges are disjoint by construction\n\
                       let base = cuts[shard];\n\
                       chunk.fill(base);\n\
                   });\n\
               }\n";
    let findings = check(&[Input {
        path: "crates/conform/tests/fixtures/inline.rs".to_string(),
        text: src.to_string(),
    }]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r20_step_calls_stay_in_the_driver_and_scheduler() {
    assert_fires_and_clean("R20", "r20_fires.rs", "r20_clean.rs");
    let firing = check(&[fixture("r20_fires.rs")]);
    assert!(
        firing.iter().any(|f| f.rule == "R20"
            && f.message.contains("`solve_inline`")
            && f.message.contains("BatchScheduler")),
        "{firing:?}"
    );
    // The same code is fine where the step loop legitimately lives: the
    // driver and the batch scheduler own step boundaries.
    for owner in ["crates/sim/src/driver.rs", "crates/sim/src/scheduler.rs"] {
        let src = std::fs::read_to_string(format!(
            "{}/tests/fixtures/r20_fires.rs",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("fixture must be readable")
        .replace("crates/core/src/harness.rs", owner);
        let findings = check(&[Input {
            path: "crates/conform/tests/fixtures/inline.rs".to_string(),
            text: src,
        }]);
        assert!(
            !findings.iter().any(|f| f.rule == "R20"),
            "{owner} owns step boundaries: {findings:?}"
        );
    }
}

#[test]
fn r21_scheduling_identity_must_not_reach_charges_seeds_or_snapshots() {
    let firing = check(&[fixture("r21_fires.rs")]);
    let r21: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R21").collect();
    // The shard-index RNG seed and the thread-count snapshot write.
    assert_eq!(r21.len(), 2, "{firing:?}");
    assert!(
        r21.iter()
            .any(|f| f.message.contains("seeds an RNG stream")),
        "{firing:?}"
    );
    assert!(
        r21.iter()
            .any(|f| f.message.contains("writes it into a snapshot")),
        "{firing:?}"
    );
    // Determinism taint voids replay equivalence: error severity.
    assert!(r21.iter().all(|f| f.severity() == "error"), "{firing:?}");
    let clean = check(&[fixture("r21_clean.rs")]);
    assert!(clean.is_empty(), "scheduling-only use is fine: {clean:?}");
}

#[test]
fn r22_write_sequence_drift_without_a_version_bump() {
    // save/restore agree (R17 silent) but the order drifted from the
    // committed manifest: exactly the co-drift only a third copy can see.
    let firing = check(&[
        fixture("r22_fires.rs"),
        fixture("r22_fires_snapshot_manifest.txt"),
    ]);
    let r22: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R22").collect();
    assert_eq!(r22.len(), 1, "{firing:?}");
    assert!(
        r22[0].message.contains("without a snapshot VERSION bump")
            && r22[0].message.contains("DemoSnap"),
        "{firing:?}"
    );
    assert!(!firing.iter().any(|f| f.rule == "R17"), "{firing:?}");
    assert_eq!(r22[0].severity(), "error", "{firing:?}");
    let clean = check(&[
        fixture("r22_clean.rs"),
        fixture("r22_clean_snapshot_manifest.txt"),
    ]);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn r22_is_skipped_without_a_manifest_input() {
    // Explicit-path runs of single files stay meaningful: no manifest in
    // the input set means the pinning check simply does not run.
    let findings = check(&[fixture("r22_fires.rs")]);
    assert!(!findings.iter().any(|f| f.rule == "R22"), "{findings:?}");
}

#[test]
fn r23_env_reads_belong_in_the_config_module() {
    assert_fires_and_clean("R23", "r23_fires.rs", "r23_clean.rs");
    let firing = check(&[fixture("r23_fires.rs")]);
    assert!(
        firing
            .iter()
            .any(|f| f.rule == "R23" && f.message.contains("crates/sim/src/config.rs")),
        "{firing:?}"
    );
}

#[test]
fn r24_process_and_socket_apis_belong_in_the_shard_module() {
    assert_fires_and_clean("R24", "r24_fires.rs", "r24_clean.rs");
    let firing = check(&[fixture("r24_fires.rs")]);
    let r24: Vec<&Finding> = firing.iter().filter(|f| f.rule == "R24").collect();
    // One finding per boundary line: the spawn and the socket connect.
    assert_eq!(r24.len(), 2, "{firing:?}");
    assert!(
        r24.iter()
            .all(|f| f.message.contains("crates/sim/src/shard.rs")),
        "{firing:?}"
    );
    assert!(r24.iter().all(|f| f.severity() == "warning"), "{firing:?}");
}

#[test]
fn p2_stale_pragma_is_audited() {
    let firing = check(&[fixture("p2_stale.rs")]);
    let p2: Vec<&Finding> = firing.iter().filter(|f| f.rule == "P2").collect();
    assert_eq!(p2.len(), 1, "{firing:?}");
    assert!(p2[0].message.contains("suppresses nothing"), "{firing:?}");
    // A live pragma (pragma_justified.rs) is covered by
    // justified_pragma_suppresses: suppressing a real finding is the
    // clean state, not a P2.
}

#[test]
fn mechanical_fixes_apply_cleanly_and_are_idempotent() {
    // Every fixable rule: applying its fixes silences the rule, and a
    // second --fix pass is a no-op (no oscillating rewrites).
    for (rule, name) in [
        ("R1", "r1_fires.rs"),
        ("R5", "r5_fires.rs"),
        ("R7", "r7_fires.rs"),
        ("R13", "r13_fires.rs"),
    ] {
        let input = fixture(name);
        let findings = check(std::slice::from_ref(&input));
        let edits: Vec<fixes::Edit> = findings
            .iter()
            .filter(|f| f.rule == rule)
            .filter_map(|f| f.fix.as_ref())
            .flat_map(|fix| fix.edits.iter().cloned())
            .collect();
        assert!(!edits.is_empty(), "{name} should carry {rule} fixes");
        let (fixed, applied) = fixes::apply(&input.text, &edits);
        assert_eq!(applied, edits.len(), "every {rule} edit in {name} applies");
        let after = check(&[Input {
            path: input.path.clone(),
            text: fixed.clone(),
        }]);
        assert!(
            !after.iter().any(|f| f.rule == rule),
            "{name} still fires {rule} after --fix: {after:?}"
        );
        // Second pass gathers whatever fixes remain (there should be none
        // for this rule) and must leave the text untouched.
        let edits2: Vec<fixes::Edit> = after
            .iter()
            .filter(|f| f.rule == rule)
            .filter_map(|f| f.fix.as_ref())
            .flat_map(|fix| fix.edits.iter().cloned())
            .collect();
        let (fixed2, applied2) = fixes::apply(&fixed, &edits2);
        assert_eq!(applied2, 0, "{name}: second --fix pass must be a no-op");
        assert_eq!(fixed2, fixed, "{name}: fix engine must be idempotent");
    }
}

/// Maps a rule id to its (firing, clean) fixture input sets. Most rules
/// need exactly one file per side; R6 pulls in the declared-counter file
/// and R22 only runs with a snapshot manifest among the inputs, so those
/// list every file each side needs.
fn fixture_pair(id: &str) -> (Vec<String>, Vec<String>) {
    let one = |f: &str, c: &str| (vec![f.to_string()], vec![c.to_string()]);
    match id {
        "P1" => one("pragma_unjustified.rs", "pragma_justified.rs"),
        // P2's clean side is any live pragma: justified AND still earning
        // its keep by suppressing a real finding.
        "P2" => one("p2_stale.rs", "pragma_justified.rs"),
        "R6" => (
            vec!["r6_metrics.rs".to_string(), "r6_fires.rs".to_string()],
            vec!["r6_clean.rs".to_string()],
        ),
        "R8" => one("r8_fires.toml", "r8_clean.toml"),
        "R22" => (
            vec![
                "r22_fires.rs".to_string(),
                "r22_fires_snapshot_manifest.txt".to_string(),
            ],
            vec![
                "r22_clean.rs".to_string(),
                "r22_clean_snapshot_manifest.txt".to_string(),
            ],
        ),
        other => {
            let stem = other.to_lowercase();
            (
                vec![format!("{stem}_fires.rs")],
                vec![format!("{stem}_clean.rs")],
            )
        }
    }
}

#[test]
fn every_rule_has_a_firing_and_a_clean_fixture() {
    // Meta-test: adding a rule to RULES without fixture coverage fails here,
    // and the firing/clean contract is enforced uniformly for all of them.
    for rule in cc_mis_conform::rules::RULES {
        let (fires, clean) = fixture_pair(rule.id);
        let firing_inputs: Vec<Input> = fires.iter().map(|n| fixture(n)).collect();
        let firing = check(&firing_inputs);
        assert!(
            firing.iter().any(|f| f.rule == rule.id),
            "{fires:?} should report {}: {firing:?}",
            rule.id
        );
        let clean_inputs: Vec<Input> = clean.iter().map(|n| fixture(n)).collect();
        let clean_findings = check(&clean_inputs);
        assert!(
            clean_findings.is_empty(),
            "{clean:?} should be clean, got {clean_findings:?}"
        );
    }
}

#[test]
fn every_rule_has_explain_text_and_the_id_set_is_complete() {
    // --explain prints summary/contract/rationale/fix verbatim; none may be
    // empty, and the rule set itself is pinned so a dropped entry fails
    // loudly rather than silently losing coverage.
    let ids: Vec<&str> = cc_mis_conform::rules::RULES.iter().map(|r| r.id).collect();
    let expected: Vec<String> = (1..=24)
        .map(|n| format!("R{n}"))
        .chain(["P1".to_string(), "P2".to_string()])
        .collect();
    assert_eq!(ids, expected, "rule registry drifted");
    for rule in cc_mis_conform::rules::RULES {
        for (what, text) in [
            ("summary", rule.summary),
            ("contract", rule.contract),
            ("rationale", rule.rationale),
            ("fix", rule.fix),
        ] {
            assert!(
                !text.trim().is_empty(),
                "{} has an empty --explain {what}",
                rule.id
            );
        }
    }
}

#[test]
fn dataflow_sarif_snapshot_is_frozen() {
    // Golden SARIF over the dataflow and taint firing fixtures plus one
    // fix-carrying lexical fixture, checked as one input set. Pins rule
    // metadata, severity levels (R16/R17/R21/R22 error, R18/R19/R23
    // warning), locations, message wording, and the `fixes` property on
    // the R1 results; regenerate from the repo root (full relative paths,
    // so the R22 message's manifest path matches this test's inputs) with
    //   cargo run -p cc-mis-conform -- \
    //     --sarif crates/conform/tests/fixtures/dataflow_golden.sarif \
    //     $(for f in r16 r17 r18 r19 r21 r22 r23 r1; do \
    //         echo crates/conform/tests/fixtures/${f}_fires.rs; done) \
    //     crates/conform/tests/fixtures/r22_fires_snapshot_manifest.txt
    // and review the diff before committing.
    let findings = check(&[
        fixture("r16_fires.rs"),
        fixture("r17_fires.rs"),
        fixture("r18_fires.rs"),
        fixture("r19_fires.rs"),
        fixture("r21_fires.rs"),
        fixture("r22_fires.rs"),
        fixture("r22_fires_snapshot_manifest.txt"),
        fixture("r23_fires.rs"),
        fixture("r1_fires.rs"),
    ]);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    for id in ["R16", "R17", "R18", "R19", "R21", "R22", "R23", "R1"] {
        assert!(
            rules.contains(&id),
            "mixed run must fire {id}: {findings:?}"
        );
    }
    let sarif = cc_mis_conform::diag::to_sarif(&findings);
    let golden_path = format!(
        "{}/tests/fixtures/dataflow_golden.sarif",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("golden SARIF must be committed at {golden_path}: {e}"));
    assert_eq!(
        sarif.trim_end(),
        golden.trim_end(),
        "SARIF output drifted from the committed golden snapshot"
    );
}

#[test]
fn json_schema_is_frozen() {
    // Snapshot of the machine-readable schema consumed by CI tooling.
    // Extend the document append-only; editing existing fields is a breaking
    // change and must fail this test.
    let findings = vec![
        Finding::new("crates/sim/src/lib.rs", 3, "R1", "no hash iteration"),
        Finding::new("crates/sim/src/lib.rs", 9, "P1", "unjustified pragma"),
    ];
    let expected = r#"{
  "findings": [
    {
      "path": "crates/sim/src/lib.rs",
      "line": 3,
      "rule": "R1",
      "severity": "warning",
      "message": "no hash iteration"
    },
    {
      "path": "crates/sim/src/lib.rs",
      "line": 9,
      "rule": "P1",
      "severity": "error",
      "message": "unjustified pragma"
    }
  ],
  "count": 2
}"#;
    assert_eq!(
        cc_mis_conform::diag::to_json(&findings).trim_end(),
        expected
    );
}

#[test]
fn sarif_log_carries_rules_and_results() {
    let findings = vec![Finding::new("crates/sim/src/lib.rs", 3, "R12", "cast")];
    let sarif = cc_mis_conform::diag::to_sarif(&findings);
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\": \"cc-mis-conform\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\": \"R12\""), "{sarif}");
    assert!(sarif.contains("\"startLine\": 3"), "{sarif}");
    // Every rule's metadata rides along in tool.driver.rules.
    for rule in cc_mis_conform::rules::RULES {
        assert!(
            sarif.contains(&format!("\"id\": \"{}\"", rule.id)),
            "missing metadata for {}",
            rule.id
        );
    }
}

#[test]
fn justified_pragma_suppresses() {
    let findings = check(&[fixture("pragma_justified.rs")]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unjustified_pragma_reports_p1_and_does_not_suppress() {
    let findings = check(&[fixture("pragma_unjustified.rs")]);
    let rules = rules_of(&findings);
    assert!(rules.contains(&"P1"), "{findings:?}");
    assert!(rules.contains(&"R1"), "{findings:?}");
}

#[test]
fn diagnostics_use_the_effective_path() {
    // The rendered diagnostic points at the virtual location the fixture
    // claims, so pragma/grep workflows behave the same as on real files.
    let firing = check(&[fixture("r1_fires.rs")]);
    assert!(
        firing
            .iter()
            .all(|f| f.path == "crates/core/src/fixture_demo.rs"),
        "{firing:?}"
    );
}
