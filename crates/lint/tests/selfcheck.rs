//! The lint runs green on its own workspace: zero unjustified
//! violations, and the unsafe inventory manifest matches the tree.
//! This is the same invariant CI's `lint` job gates on, pinned as a
//! plain test so `cargo test` alone catches drift.

use ptherm_lint::{
    find_workspace_root, lint_workspace, load_inventory, rules_for, UNSAFE_INVENTORY,
};
use std::path::Path;

fn root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint lives inside the workspace")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&root()).expect("workspace scan");
    assert!(
        report.violations.is_empty(),
        "the workspace must lint clean, found:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("{}:{}:{} {} {}", v.file, v.line, v.col, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walk really covered the tree (all crates + root src/tests).
    assert!(
        report.files_scanned > 100,
        "only {} files scanned — walker lost the tree?",
        report.files_scanned
    );
}

#[test]
fn unsafe_inventory_manifest_matches_tree() {
    let report = lint_workspace(&root()).expect("workspace scan");
    let manifest = load_inventory(&root().join(UNSAFE_INVENTORY))
        .expect("ci/unsafe_inventory.json is checked in");
    assert_eq!(
        report.unsafe_inventory, manifest,
        "unsafe inventory drift — regenerate with `ptherm-lint --write-inventory`"
    );
    // The audited unsafe surface is exactly the SIMD kernels plus the
    // one signal(2) binding `fleet serve` uses for graceful drain.
    for file in manifest.keys() {
        assert!(
            file.starts_with("crates/math/src/") || file == "crates/bench/src/bin/fleet.rs",
            "unexpected unsafe outside the audited surface: {file}"
        );
    }
}

/// The scenario-space additions sit inside the gated scopes: the
/// envelope bisector and biased power law ride R1's cosim hot-path
/// prefix, the serve-mode job queue lives in `fleet/src/server.rs`,
/// and the delta result-cache fingerprint in `fleet/src/jobs.rs`
/// stays under R2's determinism rules. Pinned so a future scope
/// refactor cannot silently drop them.
#[test]
fn scenario_space_sources_are_inside_the_gated_scopes() {
    for hot in [
        "crates/core/src/cosim/sweep.rs",
        "crates/core/src/cosim/envelope.rs",
        "crates/core/src/cosim/biased.rs",
        "crates/fleet/src/engine.rs",
        "crates/fleet/src/cache.rs",
        "crates/fleet/src/server.rs",
    ] {
        let rules = rules_for(hot);
        assert!(rules.panic_freedom, "{hot} must carry R1 panic-freedom");
        assert!(rules.float_compare, "{hot} must carry R4 float-compare");
    }
    let jobs = rules_for("crates/fleet/src/jobs.rs");
    assert!(
        jobs.determinism,
        "the delta result-cache fingerprint lives in jobs.rs — R2 must apply"
    );
}

/// The operator builds' inner loop moved out of `cosim/` into the
/// shared image-sum routine; it keeps the gates it had there, and the
/// rest of `thermal/` stays outside them.
#[test]
fn the_image_sum_routine_keeps_the_hot_path_gates() {
    let rules = rules_for("crates/core/src/thermal/image_sum.rs");
    assert!(
        rules.panic_freedom,
        "image_sum.rs must carry R1 panic-freedom"
    );
    assert!(
        rules.float_compare,
        "image_sum.rs must carry R4 float-compare"
    );
    assert!(!rules_for("crates/core/src/thermal/profile.rs").panic_freedom);
}
