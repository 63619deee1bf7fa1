//! Workspace smoke test: every example target must build and run to
//! completion, so examples can never silently rot.
//!
//! Examples are run in release mode (they push six-figure tuple counts
//! through the cache simulator); the outer `cargo test` run is free to
//! stay in debug.

use std::path::Path;
use std::process::Command;

const EXAMPLES: &[&str] = &[
    "quickstart",
    "cost_from_text",
    "io_cost",
    "join_planner",
    "optimize_query",
    "partition_tuning",
    "serve_mixed_tenants",
    "calibrate_then_model",
    "native_validation",
    "explain_analyze",
    "host_report",
    "net_demo",
];

#[test]
fn every_example_runs_to_completion() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    for name in EXAMPLES {
        let source = Path::new(manifest_dir)
            .join("examples")
            .join(format!("{name}.rs"));
        assert!(
            source.is_file(),
            "example source missing: {}",
            source.display()
        );
        let output = Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--release", "--example", name])
            .current_dir(manifest_dir)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
        assert!(
            output.status.success(),
            "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}

#[test]
fn example_list_is_complete() {
    // If someone adds an example without extending EXAMPLES above, fail
    // loudly instead of silently skipping it.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/ directory")
        .filter_map(|e| {
            let path = e.expect("readable dir entry").path();
            (path.extension().is_some_and(|x| x == "rs"))
                .then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = EXAMPLES.iter().map(|s| s.to_string()).collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "examples/*.rs and the smoke-test list diverge"
    );
}
