//! Negative-path suite for the bench regression gate
//! (`ptherm_bench::check` + the `benchcheck` binary): every way an
//! artifact or bounds file can go bad must fail with its **own**
//! diagnostic — previously these paths were only verified by hand
//! (PR 4 notes). Covers perturbed bounds, missing/nulled/non-numeric
//! fields, unreadable and malformed artifacts, malformed bounds files,
//! and the binary's exit codes.

use ptherm_bench::check::{check_artifact, parse_bounds, BoundKind};
use std::process::Command;

const BOUNDS: &str = r#"[
  {"file": "BENCH_neg.json",
   "min": {"speedup": 10.0},
   "max": {"gap_k": 1e-9}}
]"#;

fn artifact(speedup: &str, gap: &str) -> String {
    format!(r#"{{"bench": "neg", "speedup": {speedup}, "gap_k": {gap}}}"#)
}

/// The single failing check of a run that must fail exactly one bound.
fn single_failure(content: &str) -> ptherm_bench::ShapeCheck {
    let specs = parse_bounds(BOUNDS).unwrap();
    let checks = check_artifact(&specs[0], Some(content));
    let mut failed: Vec<_> = checks.into_iter().filter(|c| !c.pass).collect();
    assert_eq!(failed.len(), 1, "expected exactly one failing bound");
    failed.remove(0)
}

#[test]
fn perturbed_min_and_max_bounds_fail_with_measured_values() {
    // Speedup below the floor: the diagnostic carries the measurement.
    let c = single_failure(&artifact("9.9", "1e-12"));
    assert!(c.claim.contains("speedup"), "{}", c.claim);
    assert!(c.detail.contains("measured 9.9"), "{}", c.detail);
    // Gap above the ceiling.
    let c = single_failure(&artifact("12.0", "2e-9"));
    assert!(c.claim.contains("gap_k"), "{}", c.claim);
    assert!(c.detail.contains("measured 2e-9"), "{}", c.detail);
    // Boundary values pass on both sides (>= and <= are inclusive).
    let specs = parse_bounds(BOUNDS).unwrap();
    assert!(check_artifact(&specs[0], Some(&artifact("10.0", "1e-9")))
        .iter()
        .all(|c| c.pass));
}

/// The spectral gate's scaling-exponent ceiling is a max bound like any
/// other: a ladder whose fitted slope drifts to quadratic must fail the
/// `scaling_exponent <= 1.5` spec with the measured slope in the
/// diagnostic, and a sub-quadratic slope must pass.
#[test]
fn a_quadratic_scaling_exponent_fails_the_spectral_bound() {
    let bounds = r#"[
      {"file": "BENCH_spectral.json",
       "min": {"speedup_vs_dense_at_largest": 10.0},
       "max": {"scaling_exponent": 1.5,
               "max_gap_vs_dense_k": 1e-6}}
    ]"#;
    let specs = parse_bounds(bounds).unwrap();
    let artifact = |exponent: &str| {
        format!(
            r#"{{"bench": "spectral", "speedup_vs_dense_at_largest": 2.7e3,
                 "scaling_exponent": {exponent}, "max_gap_vs_dense_k": 7.4e-11}}"#
        )
    };
    // A healthy near-linear fit clears every bound.
    assert!(check_artifact(&specs[0], Some(&artifact("0.97")))
        .iter()
        .all(|c| c.pass));
    // A regression back to dense-like quadratic scaling fails exactly
    // the exponent ceiling, naming the measurement.
    let failed: Vec<_> = check_artifact(&specs[0], Some(&artifact("1.98")))
        .into_iter()
        .filter(|c| !c.pass)
        .collect();
    assert_eq!(failed.len(), 1, "only the exponent bound should fail");
    assert!(
        failed[0].claim.contains("scaling_exponent"),
        "{}",
        failed[0].claim
    );
    assert!(
        failed[0].detail.contains("measured 1.98"),
        "{}",
        failed[0].detail
    );
}

/// The fault-tolerance gate is max-bounds only: a chaos run whose
/// recovery overhead creeps past the ceiling — or that perturbs even a
/// single unaffected result line — must fail with the measurement, and
/// a healthy run clears every bound.
#[test]
fn a_slow_or_leaky_chaos_run_fails_the_faults_bounds() {
    let bounds = r#"[
      {"file": "BENCH_faults.json",
       "max": {"recovery_overhead_ratio": 1.05,
               "unfaulted_line_mismatches": 0,
               "drained_line_mismatches": 0}}
    ]"#;
    let specs = parse_bounds(bounds).unwrap();
    let artifact = |ratio: &str, mismatches: &str| {
        format!(
            r#"{{"bench": "faults", "recovery_overhead_ratio": {ratio},
                 "unfaulted_line_mismatches": {mismatches},
                 "drained_line_mismatches": 0}}"#
        )
    };
    // A healthy chaos run clears every bound.
    assert!(check_artifact(&specs[0], Some(&artifact("1.02", "0")))
        .iter()
        .all(|c| c.pass));
    // Recovery overhead above the 5% ceiling fails exactly that bound,
    // naming the measured ratio.
    let failed: Vec<_> = check_artifact(&specs[0], Some(&artifact("1.31", "0")))
        .into_iter()
        .filter(|c| !c.pass)
        .collect();
    assert_eq!(failed.len(), 1, "only the overhead bound should fail");
    assert!(
        failed[0].claim.contains("recovery_overhead_ratio"),
        "{}",
        failed[0].claim
    );
    assert!(
        failed[0].detail.contains("measured 1.31"),
        "{}",
        failed[0].detail
    );
    // A single perturbed unaffected line breaks isolation: the
    // zero-mismatch ceiling fails.
    let failed: Vec<_> = check_artifact(&specs[0], Some(&artifact("1.02", "1")))
        .into_iter()
        .filter(|c| !c.pass)
        .collect();
    assert_eq!(failed.len(), 1, "only the mismatch bound should fail");
    assert!(
        failed[0].claim.contains("unfaulted_line_mismatches"),
        "{}",
        failed[0].claim
    );
}

/// The scenario-space gate mixes a min bound (every fiber bracketed)
/// with max bounds (solve ratio, agreement): a lost bracket, a
/// bisection that degenerates toward the exhaustive march, or a single
/// boundary disagreement must each fail its own bound with the
/// measured value.
#[test]
fn a_regressed_envelope_run_fails_the_scenario_space_bounds() {
    let bounds = r#"[
      {"file": "BENCH_envelope.json",
       "min": {"bracketed_fibers": 4},
       "max": {"bisection_solve_ratio": 0.25,
               "boundary_disagreements": 0}}
    ]"#;
    let specs = parse_bounds(bounds).unwrap();
    let artifact = |bracketed: &str, solves: &str, disagreements: &str| {
        format!(
            r#"{{"bench": "envelope", "bracketed_fibers": {bracketed},
                 "bisection_solve_ratio": {solves},
                 "boundary_disagreements": {disagreements}}}"#
        )
    };
    // A healthy run clears every bound.
    assert!(check_artifact(&specs[0], Some(&artifact("4", "0.07", "0")))
        .iter()
        .all(|c| c.pass));
    // A fiber that no longer brackets its boundary: exactly the min
    // bound fails, naming the measurement.
    let failed: Vec<_> = check_artifact(&specs[0], Some(&artifact("3", "0.07", "0")))
        .into_iter()
        .filter(|c| !c.pass)
        .collect();
    assert_eq!(failed.len(), 1, "only the bracket count should fail");
    assert!(
        failed[0].claim.contains("bracketed_fibers"),
        "{}",
        failed[0].claim
    );
    assert!(
        failed[0].detail.contains("measured 3"),
        "{}",
        failed[0].detail
    );
    // Bisection degenerated past the 25% solve budget.
    let failed: Vec<_> = check_artifact(&specs[0], Some(&artifact("4", "0.4", "0")))
        .into_iter()
        .filter(|c| !c.pass)
        .collect();
    assert_eq!(failed.len(), 1, "only the solve ratio should fail");
    assert!(
        failed[0].claim.contains("bisection_solve_ratio"),
        "{}",
        failed[0].claim
    );
    // One fiber disagreeing with the exhaustive oracle breaks the gate.
    let failed: Vec<_> = check_artifact(&specs[0], Some(&artifact("4", "0.07", "1")))
        .into_iter()
        .filter(|c| !c.pass)
        .collect();
    assert_eq!(failed.len(), 1, "only the agreement bound should fail");
    assert!(
        failed[0].claim.contains("boundary_disagreements"),
        "{}",
        failed[0].claim
    );
}

#[test]
fn missing_nulled_and_mistyped_fields_have_a_distinct_diagnostic() {
    let field_diag = "field missing, non-numeric or nulled (non-finite at emit time)";
    // Field absent entirely.
    let c = single_failure(r#"{"bench": "neg", "gap_k": 1e-12}"#);
    assert!(c.claim.contains("speedup"));
    assert_eq!(c.detail, field_diag);
    // Field nulled by the hardened emitter (was non-finite).
    let c = single_failure(&artifact("null", "1e-12"));
    assert_eq!(c.detail, field_diag);
    // Field present but a string.
    let c = single_failure(&artifact("\"fast\"", "1e-12"));
    assert_eq!(c.detail, field_diag);
}

#[test]
fn unreadable_and_malformed_artifacts_fail_every_bound_distinctly() {
    let specs = parse_bounds(BOUNDS).unwrap();
    // Missing file: every bound fails with the missing-artifact text.
    let checks = check_artifact(&specs[0], None);
    assert_eq!(checks.len(), 2);
    assert!(checks
        .iter()
        .all(|c| !c.pass && c.detail == "artifact missing or unreadable"));
    // Unparsable artifact: every bound fails with the JSON diagnosis
    // (which names the parse error, not the missing-field text).
    let checks = check_artifact(&specs[0], Some("{not json"));
    assert!(checks
        .iter()
        .all(|c| !c.pass && c.detail.starts_with("invalid JSON:")));
}

#[test]
fn malformed_bounds_files_are_rejected_with_their_own_errors() {
    // Each malformation names its problem — a broken gate config can
    // never be mistaken for a passing (or vacuous) gate.
    let cases: [(&str, &str); 6] = [
        ("{not json", "not valid JSON"),
        (r#"{"file": "x"}"#, "must be a JSON array"),
        (r#"[{"min": {"a": 1}}]"#, "needs a string \"file\""),
        (r#"[{"file": "x", "min": [1]}]"#, "must be an object"),
        (
            r#"[{"file": "x", "min": {"a": "fast"}}]"#,
            "must be a number",
        ),
        (r#"[{"file": "x"}]"#, "declares no bounds"),
    ];
    for (text, needle) in cases {
        let err = parse_bounds(text).expect_err(text);
        assert!(err.contains(needle), "{text:?} -> {err:?}");
    }
    // And parsing a healthy file keeps both kinds in declaration order.
    let specs = parse_bounds(BOUNDS).unwrap();
    assert_eq!(specs[0].bounds[0].kind, BoundKind::Min);
    assert_eq!(specs[0].bounds[1].kind, BoundKind::Max);
}

// ---------------------------------------------------------------------
// Binary-level: exit codes and printed verdicts of `benchcheck` itself.
// ---------------------------------------------------------------------

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("ptherm-benchcheck-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn write(&self, name: &str, content: &str) -> std::path::PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, content).expect("write temp file");
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_benchcheck(dir: &TempDir, bounds: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchcheck"))
        .current_dir(&dir.0)
        .args(bounds)
        .output()
        .expect("benchcheck runs");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn benchcheck_exit_codes_separate_pass_fail_and_usage() {
    let dir = TempDir::new("exit");
    dir.write("BENCH_neg.json", &artifact("12.0", "1e-12"));
    let bounds = dir.write("bounds.json", BOUNDS);
    let bounds = bounds.to_str().unwrap();

    // All bounds clear: exit 0, PASS verdicts.
    let (code, stdout) = run_benchcheck(&dir, &[bounds]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("[PASS]"));
    assert!(!stdout.contains("[FAIL]"));

    // A perturbed bound: exit 1 and a FAIL naming the field.
    dir.write("BENCH_neg.json", &artifact("1.5", "1e-12"));
    let (code, stdout) = run_benchcheck(&dir, &[bounds]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[FAIL]") && stdout.contains("speedup"));

    // No arguments at all: usage error, exit 2.
    let (code, _) = run_benchcheck(&dir, &[]);
    assert_eq!(code, 2);
}

#[test]
fn benchcheck_missing_inputs_are_failing_checks_not_vacuous_passes() {
    let dir = TempDir::new("missing");
    // Bounds file that does not exist: the gate reports it unreadable
    // and exits non-zero (never "0 of 0 checks passed").
    let (code, stdout) = run_benchcheck(&dir, &["nonexistent-bounds.json"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("is readable"));
    // Bounds file that fails to parse: same story, different check.
    let bad = dir.write("bad-bounds.json", "[{\"file\": \"x\"}]");
    let (code, stdout) = run_benchcheck(&dir, &[bad.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("parses") && stdout.contains("declares no bounds"));
    // Artifact referenced by healthy bounds is absent: the artifact's
    // bounds fail.
    let bounds = dir.write("bounds.json", BOUNDS);
    let (code, stdout) = run_benchcheck(&dir, &[bounds.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("artifact missing or unreadable"));
}

#[test]
fn every_full_mode_bound_names_a_checked_in_baseline() {
    // Full-mode baselines are never regenerated in CI, so a bounds entry
    // whose artifact was never checked in fails the gate on every run.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("ci/bench_bounds.full.json")).unwrap();
    let specs = parse_bounds(&text).unwrap();
    assert!(!specs.is_empty());
    let missing: Vec<&str> = specs
        .iter()
        .map(|spec| spec.file.as_str())
        .filter(|file| !root.join(file).is_file())
        .collect();
    assert!(missing.is_empty(), "no checked-in baseline for {missing:?}");
}
