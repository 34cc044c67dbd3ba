//! Binary-level contract of the `fleet` serve mode: exit codes separate
//! "all jobs ok" (0) / "some job errored" (1) / "request or flags
//! refused" (2), stdout carries *only* JSONL result lines, and the last
//! stderr line is a machine-readable JSON summary
//! (`jobs`/`ok`/`errors`/`retries`/`panics`) a supervisor can parse
//! without touching stdout.

use std::process::Command;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ptherm-serve-{tag}-{}", std::process::id()));
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

fn run_fleet(dir: &TempDir, args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .current_dir(&dir.0)
        .args(args)
        .output()
        .expect("fleet runs");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Parse the final stderr line as the machine-readable summary and
/// return the value of `field`.
fn summary_field(stderr: &str, field: &str) -> f64 {
    let line = stderr.lines().last().expect("a summary line");
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "last stderr line is not a JSON object: {line:?}"
    );
    let needle = format!("\"{field}\":");
    let at = line.find(&needle).unwrap_or_else(|| {
        panic!("summary line lacks {field:?}: {line:?}");
    });
    let rest = &line[at + needle.len()..];
    let end = rest.find([',', '}']).expect("terminated value");
    rest[..end].trim().parse::<f64>().expect("numeric field")
}

const OK_REQUEST: &str = r#"
{"type": "floorplan", "name": "a", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 1}}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03, "vdd_scales": [0.9, 1.0, 1.1]}
{"type": "transient", "floorplan": "a", "dynamic_w": 0.25, "leakage_w": 0.02, "dt_s": 2e-4, "steps": 20}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.2, "leakage_w": 0.02}
"#;

#[test]
fn a_clean_request_exits_zero_with_pure_jsonl_stdout_and_a_summary_line() {
    let dir = TempDir::new("ok");
    let jobs = dir.write("jobs.jsonl", OK_REQUEST);
    let (code, stdout, stderr) =
        run_fleet(&dir, &["--jobs", jobs.to_str().unwrap(), "--threads", "2"]);
    assert_eq!(code, 0, "stderr: {stderr}");

    // stdout is result lines only: one JSON object per job, nothing else.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line:?}");
        assert!(line.contains("\"ok\":true"), "{line:?}");
    }

    // The final stderr line is the parseable summary.
    assert_eq!(summary_field(&stderr, "jobs"), 3.0);
    assert_eq!(summary_field(&stderr, "ok"), 3.0);
    assert_eq!(summary_field(&stderr, "errors"), 0.0);
    assert_eq!(summary_field(&stderr, "retries"), 0.0);
    assert_eq!(summary_field(&stderr, "panics"), 0.0);
}

#[test]
fn a_job_error_exits_one_and_the_summary_counts_it() {
    let dir = TempDir::new("err");
    // Floorplan "c" is two irregular explicit blocks no uniform grid
    // aligns, so the forced spectral backend fails at run time with a
    // typed backend error — a job failure, not a request refusal.
    let jobs = dir.write(
        "jobs.jsonl",
        r#"
{"type": "floorplan", "name": "a", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 1}}
{"type": "floorplan", "name": "c", "blocks": [{"name": "hot", "cx": 0.5e-3, "cy": 0.5e-3, "w": 0.3e-3, "l": 0.3e-3, "power": 0.2}, {"name": "cool", "cx": 0.15e-3, "cy": 0.2e-3, "w": 0.1e-3, "l": 0.25e-3, "power": 0.05}]}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03}
{"type": "steady", "floorplan": "c", "dynamic_w": 0.1, "leakage_w": 0.01, "backend": "spectral"}
"#,
    );
    let (code, stdout, stderr) = run_fleet(&dir, &["--jobs", jobs.to_str().unwrap()]);
    assert_eq!(code, 1, "stderr: {stderr}");

    // Both jobs still get a result line; the failed one is typed.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(
        lines[1].contains("\"ok\":false") && lines[1].contains("\"error\":"),
        "{}",
        lines[1]
    );

    assert_eq!(summary_field(&stderr, "jobs"), 2.0);
    assert_eq!(summary_field(&stderr, "ok"), 1.0);
    assert_eq!(summary_field(&stderr, "errors"), 1.0);
    assert_eq!(summary_field(&stderr, "panics"), 0.0);
}

#[test]
fn refused_requests_and_flags_exit_two_with_empty_stdout() {
    let dir = TempDir::new("refuse");

    // Malformed JSONL: refused before any job runs.
    let bad = dir.write("bad.jsonl", "{not json\n");
    let (code, stdout, stderr) = run_fleet(&dir, &["--jobs", bad.to_str().unwrap()]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("invalid request"), "{stderr}");

    // Unreadable request file.
    let (code, stdout, stderr) = run_fleet(&dir, &["--jobs", "no-such-file.jsonl"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("could not read"), "{stderr}");

    // A malformed flag value refuses to run rather than falling back.
    let jobs = dir.write("jobs.jsonl", OK_REQUEST);
    let (code, stdout, stderr) =
        run_fleet(&dir, &["--jobs", jobs.to_str().unwrap(), "--threads", "0"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("--threads"), "{stderr}");

    // An unknown flag — a retired one or a typo — refuses to run in
    // every mode instead of running on defaults.
    let jobs = jobs.to_str().unwrap();
    for args in [
        &["--jobs", jobs, "--no-cache"][..],
        &["--jobs", jobs, "--thread", "4"],
        &["serve", "--threads", "2", "--listen-on", "127.0.0.1:0"],
        &["client", "--jobs", jobs, "--conect", "127.0.0.1:7411"],
        &["--quick", "--full"],
    ] {
        let (code, stdout, stderr) = run_fleet(&dir, args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_deadline_blown_in_serve_mode_is_a_typed_result_line_not_a_crash() {
    let dir = TempDir::new("deadline");
    // An absurd deadline of 0 is refused by the parser; 1 ms against a
    // multi-scenario sweep on a 6x6 grid blows deterministically only if
    // the machine is slow, so give the job real work and a deadline the
    // first Picard checkpoint has already passed: deadline_ms is checked
    // cooperatively, so even a blown deadline yields a typed line.
    let jobs = dir.write(
        "jobs.jsonl",
        r#"
{"type": "floorplan", "name": "a", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 1}}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03, "deadline_ms": 600000}
"#,
    );
    let (code, stdout, stderr) = run_fleet(&dir, &["--jobs", jobs.to_str().unwrap()]);
    // A generous deadline resolves normally…
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.lines().next().unwrap().contains("\"ok\":true"));

    // …and a non-positive one is refused at parse time (exit 2).
    let bad = dir.write(
        "bad.jsonl",
        r#"
{"type": "floorplan", "name": "a", "tiles": {"rows": 2, "cols": 2, "p_min": 0.01, "p_max": 0.05, "seed": 1}}
{"type": "steady", "floorplan": "a", "dynamic_w": 0.3, "leakage_w": 0.03, "deadline_ms": 0}
"#,
    );
    let (code, stdout, stderr) = run_fleet(&dir, &["--jobs", bad.to_str().unwrap()]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("deadline_ms"), "{stderr}");
}
