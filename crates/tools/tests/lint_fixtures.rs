//! Seeded regressions for the pressio-lint v2 analyses: known-bad sources
//! under `tests/fixtures/` are fed to [`lint::scan_source`] and the rules
//! that once caught (or should have caught) real bugs must keep firing.

use pressio_tools::lint;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn taint_rules_catch_the_sz_unbounded_allocation_pattern() {
    let src = fixture("sz_unbounded_alloc.rs");
    let findings = lint::scan_source("crates/sz/src/fixture.rs", &src);

    let alloc: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == lint::RULE_TAINT_ALLOC)
        .collect();
    let arith: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == lint::RULE_TAINT_ARITH)
        .collect();

    assert_eq!(
        alloc.len(),
        1,
        "the unvalidated vec![0.0; n] must be flagged exactly once (not the \
         checked_geometry-dominated twin): {findings:?}"
    );
    assert!(
        alloc[0].line <= 33,
        "the flagged allocation must be in decompress_unvalidated: {:?}",
        alloc[0]
    );
    assert!(
        !arith.is_empty(),
        "the unchecked nz * ny * nx product must be flagged: {findings:?}"
    );
    assert!(
        arith.iter().all(|f| f.line <= 33),
        "no arithmetic finding may leak into the validated twin: {arith:?}"
    );
}

#[test]
fn a_count_guarded_by_another_wire_value_is_caught() {
    let src = fixture("tainted_bound_alloc.rs");
    let findings = lint::scan_source("crates/sz/src/fixture.rs", &src);
    let flagged: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == lint::RULE_TAINT_ALLOC)
        .map(|f| src.lines().nth(f.line - 1).unwrap_or("").trim())
        .collect();
    assert_eq!(
        flagged,
        [
            "let mut bodies = Vec::with_capacity(n_bodies);",
            "*output = Data::owned(dtype, dims);"
        ],
        "the reservation behind `n_bodies > dims[0]` and the unchecked output buffer, \
         nothing else: {findings:?}"
    );
}

#[test]
fn par_closure_alloc_pattern_keeps_firing() {
    let src = fixture("par_closure_alloc.rs");
    let findings = lint::scan_source("crates/codecs/src/fixture.rs", &src);

    let allocs: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == lint::RULE_NO_ALLOC_IN_PAR_CLOSURE)
        .collect();
    assert_eq!(
        allocs.len(),
        3,
        "with_capacity, vec![..], and Vec::new() in the allocating twin must \
         each be flagged exactly once: {findings:?}"
    );
    assert!(
        allocs.iter().all(|f| f.line <= 17),
        "no allocation finding may leak into the scratch-routed twin: {allocs:?}"
    );
}

#[test]
fn fixture_is_not_reachable_by_the_workspace_walk() {
    // The fixture deliberately contains a violation; the real lint run
    // must never see it (tests/ directories are excluded from the walk),
    // otherwise ci.sh would fail on its own regression corpus.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let report = lint::run(root, &lint::Allowlist::default()).expect("lint walk");
    assert!(
        !report.findings.iter().any(|f| f.file.contains("fixtures/")),
        "the fixture corpus leaked into the workspace lint walk"
    );
}
