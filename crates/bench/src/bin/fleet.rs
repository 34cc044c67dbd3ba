//! Fleet front end: serve line-delimited JSON job requests, or measure
//! cache-amortized fleet throughput and emit `BENCH_fleet.json`.
//!
//! Modes:
//!
//! * **batch** — `fleet --jobs <path|->`: parse a JSONL request
//!   (`ptherm_fleet::jobs` schema, documented in
//!   `docs/ARCHITECTURE.md`), run it on the fleet engine and print
//!   one JSON result line per job to stdout (stdout carries *only*
//!   result lines; diagnostics go to stderr). Flags: `--threads N`,
//!   `--cache-capacity N`.
//! * **serve** / **client** — `fleet serve` runs the persistent socket
//!   service, `fleet client` streams a request to it.
//! * **bench** (default; `--quick` for the CI smoke shape) — a
//!   synthetic fleet of distinct floorplans each served many small
//!   mixed jobs, run twice: factor-per-job (the cold baseline: every
//!   job on a fresh engine, paying its own assembly + factorization)
//!   and cache-amortized (the production path, one shared engine).
//!   Audits: the two runs must agree bitwise on every temperature (a
//!   cache hit may never change a result), and the amortized run must
//!   clear the documented throughput bar (`docs/PERFORMANCE.md`; ≥10×
//!   on the full 16-floorplan workload).
//!
//! Every mode refuses an argument it does not know with exit code 2,
//! the code for a refused request or flag.

use ptherm_bench::{header, report, JsonObject, ShapeCheck, Table};
use ptherm_fleet::{
    parse_jsonl, FleetConfig, FleetEngine, FleetEngineBuilder, JobRecord, JobReport, JobSpec,
    SteadyJob, TransientJob,
};
use ptherm_floorplan::{generator, ChipGeometry, Floorplan};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

struct BenchConfig {
    floorplans: usize,
    tile_rows: usize,
    tile_cols: usize,
    jobs_per_floorplan: usize,
    speedup_bar: f64,
    label: &'static str,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => serve_mode(&args[1..]),
        Some("client") => client_mode(&args[1..]),
        _ if args.iter().any(|a| a == "--jobs") => serve(&args),
        _ => bench(&args),
    };
    std::process::exit(code);
}

/// Value of `--flag <value>` in `args`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Whether every argument is a flag `mode` knows (`valued` flags take
/// the argument after them). Reports the first unknown one: a typo or a
/// retired flag must refuse to run, not run on defaults.
fn known_flags(mode: &str, args: &[String], valued: &[&str], switches: &[&str]) -> bool {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if !switches.contains(&arg.as_str()) {
            eprintln!("{mode}: unknown argument {arg:?}");
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------
// Serve mode
// ---------------------------------------------------------------------

fn serve(args: &[String]) -> i32 {
    if !known_flags(
        "fleet",
        args,
        &["--jobs", "--threads", "--cache-capacity"],
        &[],
    ) {
        return 2;
    }
    let path = flag_value(args, "--jobs").unwrap_or("-");
    let text = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf) {
            eprintln!("fleet: could not read stdin: {e}");
            return 2;
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("fleet: could not read {path}: {e}");
                return 2;
            }
        }
    };
    let request = match parse_jsonl(&text) {
        Ok(request) => request,
        Err(e) => {
            eprintln!("fleet: invalid request: {e}");
            return 2;
        }
    };
    let mut config = FleetConfig::default();
    // A malformed flag value must refuse to run, not silently fall back
    // to a default the operator did not ask for.
    for (flag, slot) in [
        ("--threads", &mut config.threads),
        ("--cache-capacity", &mut config.cache_capacity),
    ] {
        if let Some(raw) = flag_value(args, flag) {
            match raw.parse::<usize>() {
                Ok(value) if value > 0 => *slot = value,
                _ => {
                    eprintln!("fleet: {flag} needs a positive integer, got {raw:?}");
                    return 2;
                }
            }
        }
    }
    let engine = match FleetEngineBuilder::new()
        .config(config)
        .request(&request)
        .build()
    {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("invalid fleet configuration: {e}");
            return 2;
        }
    };
    let fleet_report = engine.run(&request.jobs);
    for record in &fleet_report.jobs {
        println!("{}", record.to_json(&request.jobs[record.index]).render());
    }
    let steady = fleet_report.steady_cache;
    let transient = fleet_report.transient_cache;
    let map = fleet_report.map_cache;
    eprintln!(
        "fleet: {} jobs, {} ok; steady cache {}h/{}m/{}e, transient cache {}h/{}m/{}e, \
         map cache {}h/{}m/{}e",
        fleet_report.jobs.len(),
        fleet_report.ok_count(),
        steady.hits,
        steady.misses,
        steady.evictions,
        transient.hits,
        transient.misses,
        transient.evictions,
        map.hits,
        map.misses,
        map.evictions,
    );
    // Final stderr line is machine-readable: one JSON object an
    // operator's supervisor can parse without touching stdout (which
    // carries only result lines).
    let summary = ptherm_fleet::Json::Object(vec![
        (
            "jobs".into(),
            ptherm_fleet::Json::Number(fleet_report.jobs.len() as f64),
        ),
        (
            "ok".into(),
            ptherm_fleet::Json::Number(fleet_report.ok_count() as f64),
        ),
        (
            "errors".into(),
            ptherm_fleet::Json::Number(fleet_report.error_count() as f64),
        ),
        (
            "retries".into(),
            ptherm_fleet::Json::Number(fleet_report.retry_count() as f64),
        ),
        (
            "panics".into(),
            ptherm_fleet::Json::Number(fleet_report.panic_count() as f64),
        ),
    ]);
    eprintln!("{}", summary.render());
    i32::from(fleet_report.ok_count() != fleet_report.jobs.len())
}

// ---------------------------------------------------------------------
// Persistent service (`fleet serve`) and its line client
// ---------------------------------------------------------------------

/// Raised by the SIGTERM/SIGINT handler; a watchdog thread forwards it
/// to the server's shutdown handle (signal handlers must not touch
/// anything but this atomic).
static SIGNALED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, std::sync::atomic::Ordering::SeqCst);
}

// `signal(2)` — std exposes no signal API and the workspace builds
// offline (no `libc` crate), so the binding is declared directly.
// Handlers are `usize`-sized function pointers on every supported
// target.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn install_signal_handlers() {
    // SAFETY: `on_signal` is async-signal-safe (it performs a single
    // relaxed-compatible atomic store and touches no locks, no
    // allocator and no stdio), and SIGINT/SIGTERM are valid signal
    // numbers on every platform this builds for. The previous handler
    // (the default) is intentionally discarded.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// `fleet serve`: the persistent socket service over one long-lived
/// engine. Flags: `--listen <addr>` (TCP, default `127.0.0.1:0`),
/// `--unix <path>` (additional Unix-domain listener), `--threads N`,
/// `--cache-capacity N`, `--queue-capacity N`, `--manifest <path>`
/// (cache warm/persist across restarts), `--stdin-shutdown` (drain
/// when stdin closes — for supervisors that manage children through
/// pipes). Prints one `{"type": "ready", ...}` line to stdout once
/// every listener is bound, then serves until SIGTERM/SIGINT, a
/// `{"type": "shutdown"}` control record, or stdin close (opt-in);
/// the final stats line goes to stdout on exit.
fn serve_mode(args: &[String]) -> i32 {
    let valued = [
        "--listen",
        "--unix",
        "--threads",
        "--cache-capacity",
        "--queue-capacity",
        "--manifest",
    ];
    if !known_flags("fleet serve", args, &valued, &["--stdin-shutdown"]) {
        return 2;
    }
    let mut config = FleetConfig::default();
    let mut queue_capacity = ptherm_fleet::ServeConfig::default().queue_capacity;
    for (flag, slot) in [
        ("--threads", &mut config.threads),
        ("--cache-capacity", &mut config.cache_capacity),
        ("--queue-capacity", &mut queue_capacity),
    ] {
        if let Some(raw) = flag_value(args, flag) {
            match raw.parse::<usize>() {
                Ok(value) if value > 0 => *slot = value,
                _ => {
                    eprintln!("fleet serve: {flag} needs a positive integer, got {raw:?}");
                    return 2;
                }
            }
        }
    }
    let engine = match FleetEngineBuilder::new().config(config).build() {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("fleet serve: invalid configuration: {e}");
            return 2;
        }
    };
    let serve_config = ptherm_fleet::ServeConfig {
        queue_capacity,
        manifest_path: flag_value(args, "--manifest").map(std::path::PathBuf::from),
    };

    let mut listeners = Vec::new();
    let mut ready = vec![(
        "type".to_string(),
        ptherm_fleet::Json::String("ready".into()),
    )];
    let addr = flag_value(args, "--listen").unwrap_or("127.0.0.1:0");
    match std::net::TcpListener::bind(addr) {
        Ok(listener) => {
            let bound = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.to_string());
            ready.push(("tcp".into(), ptherm_fleet::Json::String(bound)));
            listeners.push(ptherm_fleet::ServeListener::Tcp(listener));
        }
        Err(e) => {
            eprintln!("fleet serve: could not bind {addr}: {e}");
            return 2;
        }
    }
    let unix_path = flag_value(args, "--unix").map(std::path::PathBuf::from);
    if let Some(path) = &unix_path {
        // A previous unclean exit leaves the socket file behind;
        // rebinding requires removing it first.
        let _ = std::fs::remove_file(path);
        match std::os::unix::net::UnixListener::bind(path) {
            Ok(listener) => {
                ready.push((
                    "unix".into(),
                    ptherm_fleet::Json::String(path.display().to_string()),
                ));
                listeners.push(ptherm_fleet::ServeListener::Unix(listener));
            }
            Err(e) => {
                eprintln!("fleet serve: could not bind {}: {e}", path.display());
                return 2;
            }
        }
    }

    let server = ptherm_fleet::FleetServer::new(engine, serve_config);
    let shutdown = server.shutdown_handle();
    install_signal_handlers();
    {
        let shutdown = std::sync::Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if SIGNALED.load(std::sync::atomic::Ordering::SeqCst) {
                shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    if args.iter().any(|a| a == "--stdin-shutdown") {
        let shutdown = std::sync::Arc::clone(&shutdown);
        std::thread::spawn(move || {
            // Block until the supervisor closes our stdin, then drain.
            let mut sink = String::new();
            let _ = std::io::Read::read_to_string(&mut std::io::stdin(), &mut sink);
            shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        });
    }

    println!("{}", ptherm_fleet::Json::Object(ready).render());
    let summary = match server.serve(listeners) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("fleet serve: {e}");
            return 1;
        }
    };
    if let Some(path) = &unix_path {
        let _ = std::fs::remove_file(path);
    }
    if let Some(warm) = summary.warm {
        eprintln!(
            "fleet serve: warmed {} cache entr{} ({} stale skipped)",
            warm.rebuilt,
            if warm.rebuilt == 1 { "y" } else { "ies" },
            warm.skipped
        );
    }
    if summary.manifest_saved {
        eprintln!("fleet serve: cache manifest saved");
    }
    println!("{}", summary.stats.render());
    0
}

/// `fleet client`: stream a JSONL request to a serving `fleet serve`
/// process and print every response line. Flags: `--connect <addr>`
/// (TCP) or `--unix <path>`, `--jobs <path|->` (default stdin),
/// `--shutdown` (append a shutdown control record, draining the
/// server). Exits 0 once the server closes the connection.
fn client_mode(args: &[String]) -> i32 {
    let valued = ["--connect", "--unix", "--jobs"];
    if !known_flags("fleet client", args, &valued, &["--shutdown"]) {
        return 2;
    }
    let path = flag_value(args, "--jobs").unwrap_or("-");
    let mut text = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf) {
            eprintln!("fleet client: could not read stdin: {e}");
            return 2;
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("fleet client: could not read {path}: {e}");
                return 2;
            }
        }
    };
    if !text.ends_with('\n') {
        text.push('\n');
    }
    if args.iter().any(|a| a == "--shutdown") {
        text.push_str("{\"type\": \"shutdown\"}\n");
    }

    let stream: Box<dyn ReadWrite> = if let Some(path) = flag_value(args, "--unix") {
        match std::os::unix::net::UnixStream::connect(path) {
            Ok(stream) => Box::new(stream),
            Err(e) => {
                eprintln!("fleet client: could not connect to {path}: {e}");
                return 2;
            }
        }
    } else {
        let addr = flag_value(args, "--connect").unwrap_or("127.0.0.1:7411");
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => Box::new(stream),
            Err(e) => {
                eprintln!("fleet client: could not connect to {addr}: {e}");
                return 2;
            }
        }
    };
    let mut write_half = match stream.try_clone_box() {
        Ok(clone) => clone,
        Err(e) => {
            eprintln!("fleet client: {e}");
            return 2;
        }
    };
    let sender = std::thread::spawn(move || {
        let _ = write_half.write_all(text.as_bytes());
        let _ = write_half.flush();
        let _ = write_half.shutdown_write();
    });
    let reader = std::io::BufReader::new(stream);
    for line in std::io::BufRead::lines(reader) {
        match line {
            Ok(line) => println!("{line}"),
            Err(_) => break,
        }
    }
    let _ = sender.join();
    0
}

/// Object-safe read+write+clone over TCP and Unix streams, so the
/// client treats both transports uniformly.
trait ReadWrite: std::io::Read + Send {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn ReadWrite>>;
    fn shutdown_write(&self) -> std::io::Result<()>;
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()>;
    fn flush(&mut self) -> std::io::Result<()>;
}

impl ReadWrite for std::net::TcpStream {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn ReadWrite>> {
        self.try_clone().map(|s| Box::new(s) as Box<dyn ReadWrite>)
    }
    fn shutdown_write(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        std::io::Write::write_all(self, buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        std::io::Write::flush(self)
    }
}

impl ReadWrite for std::os::unix::net::UnixStream {
    fn try_clone_box(&self) -> std::io::Result<Box<dyn ReadWrite>> {
        self.try_clone().map(|s| Box::new(s) as Box<dyn ReadWrite>)
    }
    fn shutdown_write(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        std::io::Write::write_all(self, buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        std::io::Write::flush(self)
    }
}

// ---------------------------------------------------------------------
// Bench mode
// ---------------------------------------------------------------------

/// The synthetic fleet: `floorplans` genuinely distinct floorplans and
/// an interleaved mixed job queue over them. Each plan gets its own die
/// width: tilings that differ only by power seed share a geometry
/// fingerprint (the operator is power-blind), which would let one cache
/// entry serve the whole "fleet" and overstate the win.
fn synthetic_fleet(cfg: &BenchConfig) -> (Vec<(String, Floorplan)>, Vec<JobSpec>) {
    let mut floorplans = Vec::with_capacity(cfg.floorplans);
    for i in 0..cfg.floorplans {
        // Distinct die widths make every floorplan a genuinely distinct
        // geometry (distinct operator fingerprint and cache entry).
        let geometry = ChipGeometry {
            width: 1e-3 * (1.0 + 0.02 * i as f64),
            ..ChipGeometry::paper_1mm()
        };
        let plan = generator::tiled(
            geometry,
            cfg.tile_rows,
            cfg.tile_cols,
            0.005,
            0.02,
            i as u64 + 1,
        )
        .expect("valid tiling");
        floorplans.push((format!("fp{i}"), plan));
    }
    let mut jobs = Vec::with_capacity(cfg.floorplans * cfg.jobs_per_floorplan);
    for round in 0..cfg.jobs_per_floorplan {
        for (name, _) in &floorplans {
            let base = SteadyJob {
                floorplan: name.clone(),
                dynamic_w: 0.3,
                leakage_w: 0.03,
                vdd_scales: vec![0.95, 1.0, 1.05],
                activities: vec![0.5, 1.0],
                ambients_k: None,
                backend: ptherm_core::cosim::SweepBackend::Auto,
                deadline_ms: None,
                name: None,
                power: ptherm_fleet::PowerSpec::Scaled,
                v: None,
            };
            // Alternate job kinds per round so every worker's local run
            // of the queue mixes sweeps and transients.
            if round % 2 == 0 {
                jobs.push(JobSpec::Steady(base));
            } else {
                jobs.push(JobSpec::Transient(TransientJob {
                    base: SteadyJob {
                        vdd_scales: vec![1.0],
                        activities: vec![1.0],
                        ..base
                    },
                    dt_s: 2e-4,
                    steps: 40,
                    scheme: ptherm_math::ode::ImplicitScheme::Trapezoidal,
                    waveforms: Vec::new(),
                }));
            }
        }
    }
    (floorplans, jobs)
}

fn build_engine(floorplans: &[(String, Floorplan)], threads: usize) -> FleetEngine {
    let mut builder = FleetEngineBuilder::new().threads(threads);
    for (name, plan) in floorplans {
        builder = builder.floorplan(name.clone(), plan.clone());
    }
    builder.build().expect("valid bench configuration")
}

/// The factor-per-job baseline: every job on a fresh single-worker
/// engine, `threads` jobs at a time, so each job pays its own operator
/// assembly and factorization. Returns the records in submission order
/// and the cache hits summed over every per-job engine (zero: no job
/// can reuse another's build).
fn run_cold(
    floorplans: &[(String, Floorplan)],
    jobs: &[JobSpec],
    threads: usize,
) -> (Vec<JobRecord>, u64) {
    let plans: HashMap<&str, Arc<Floorplan>> = floorplans
        .iter()
        .map(|(name, plan)| (name.as_str(), Arc::new(plan.clone())))
        .collect();
    let runs = ptherm_par::par_map(threads, jobs, |index, job| {
        let engine = FleetEngineBuilder::new()
            .threads(1)
            .build()
            .expect("valid bench configuration");
        let record = engine.run_resolved(job, &plans[job.floorplan()], index);
        let cache = engine.cache();
        let hits = [
            cache.steady_stats(),
            cache.transient_stats(),
            cache.map_stats(),
            cache.spectral_stats(),
            cache.result_stats(),
        ]
        .iter()
        .map(|stats| stats.hits)
        .sum::<u64>();
        (record, hits)
    });
    let hits = runs.iter().map(|(_, hits)| hits).sum();
    (runs.into_iter().map(|(record, _)| record).collect(), hits)
}

/// Max absolute block-temperature gap between two runs of the same job
/// queue (steady operating points and transient final states).
fn max_temperature_gap(a: &[JobRecord], b: &[JobRecord]) -> f64 {
    use ptherm_core::cosim::SweepOutcome;
    let mut gap: f64 = 0.0;
    let mut pairwise = |xs: &[f64], ys: &[f64]| {
        for (x, y) in xs.iter().zip(ys) {
            gap = gap.max((x - y).abs());
        }
    };
    for (ra, rb) in a.iter().zip(b) {
        match (&ra.outcome, &rb.outcome) {
            (Ok(JobReport::Steady(p)), Ok(JobReport::Steady(q))) => {
                for (oa, ob) in p.outcomes.iter().zip(&q.outcomes) {
                    match (oa, ob) {
                        (
                            SweepOutcome::Converged {
                                block_temperatures: ta,
                                ..
                            },
                            SweepOutcome::Converged {
                                block_temperatures: tb,
                                ..
                            },
                        ) => pairwise(ta, tb),
                        // Non-converged pairs must at least agree on the
                        // outcome — a cache flipping one scenario from
                        // converged to runaway must poison the audit,
                        // not be skipped.
                        (oa, ob) if oa == ob => {}
                        _ => return f64::INFINITY,
                    }
                }
            }
            (Ok(JobReport::Transient(p)), Ok(JobReport::Transient(q))) => {
                for (oa, ob) in p.outcomes.iter().zip(&q.outcomes) {
                    match (oa.final_temperatures(), ob.final_temperatures()) {
                        (Some(ta), Some(tb)) => pairwise(ta, tb),
                        _ if oa == ob => {}
                        _ => return f64::INFINITY,
                    }
                }
            }
            _ => return f64::INFINITY, // outcome kinds diverged: report loudly
        }
    }
    gap
}

fn bench(args: &[String]) -> i32 {
    if !known_flags("fleet", args, &[], &["--quick"]) {
        return 2;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let cfg = if quick {
        BenchConfig {
            floorplans: 4,
            tile_rows: 3,
            tile_cols: 3,
            jobs_per_floorplan: 6,
            speedup_bar: 1.2,
            label: "quick (CI smoke): 4 floorplans x 9 blocks, 24 mixed jobs",
        }
    } else {
        BenchConfig {
            floorplans: 16,
            tile_rows: 6,
            tile_cols: 6,
            jobs_per_floorplan: 24,
            speedup_bar: 10.0,
            label: "16 floorplans x 36 blocks, 384 mixed jobs",
        }
    };
    header(
        "Fleet",
        &format!(
            "cache-amortized fleet vs factor-per-job, {} ({} threads)",
            cfg.label,
            ptherm_par::default_threads()
        ),
    );

    let threads = ptherm_par::default_threads();
    let (floorplans, jobs) = synthetic_fleet(&cfg);
    let steady_jobs = jobs
        .iter()
        .filter(|j| matches!(j, JobSpec::Steady(_)))
        .count();
    let transient_jobs = jobs.len() - steady_jobs;

    // --- factor-per-job baseline (cold path oracle) ----------------------
    let t0 = Instant::now();
    let (cold, cold_hits) = run_cold(&floorplans, &jobs, threads);
    let cold_s = t0.elapsed().as_secs_f64();
    let cold_ok = cold.iter().filter(|r| r.outcome.is_ok()).count();

    // --- cache-amortized fleet -------------------------------------------
    // A fresh engine each run: the timed run pays its own compulsory
    // misses (one build per distinct floorplan), which is the honest
    // serving cost — not a pre-warmed cache.
    let amortized_engine = build_engine(&floorplans, threads);
    let t0 = Instant::now();
    let amortized = amortized_engine.run(&jobs);
    let amortized_s = t0.elapsed().as_secs_f64();

    let cold_jobs_per_s = jobs.len() as f64 / cold_s;
    let amortized_jobs_per_s = jobs.len() as f64 / amortized_s;
    let speedup = amortized_jobs_per_s / cold_jobs_per_s;
    let gap = max_temperature_gap(&amortized.jobs, &cold);
    let steady_stats = amortized.steady_cache;
    let transient_stats = amortized.transient_cache;

    let mut out = Table::new(["configuration", "jobs", "wall_s", "jobs_per_s", "speedup"]);
    out.row([
        "factor-per-job (cold)".into(),
        jobs.len().to_string(),
        format!("{cold_s:.3}"),
        format!("{cold_jobs_per_s:.1}"),
        "1.0".into(),
    ]);
    out.row([
        format!(
            "cache-amortized, {} entries",
            amortized_engine.config().cache_capacity
        ),
        jobs.len().to_string(),
        format!("{amortized_s:.3}"),
        format!("{amortized_jobs_per_s:.1}"),
        format!("{speedup:.1}"),
    ]);
    println!("{}", out.render());
    println!(
        "steady cache: {} hits / {} misses / {} evictions; transient cache: {} / {} / {}",
        steady_stats.hits,
        steady_stats.misses,
        steady_stats.evictions,
        transient_stats.hits,
        transient_stats.misses,
        transient_stats.evictions,
    );

    // --- BENCH_fleet.json -------------------------------------------------
    let mut json = JsonObject::new();
    json.string("bench", "fleet")
        .string("mode", if quick { "quick" } else { "full" })
        .integer("floorplans", cfg.floorplans as u64)
        .integer(
            "blocks_per_floorplan",
            (cfg.tile_rows * cfg.tile_cols) as u64,
        )
        .integer("jobs", jobs.len() as u64)
        .integer("steady_jobs", steady_jobs as u64)
        .integer("transient_jobs", transient_jobs as u64)
        .integer("threads", threads as u64)
        .integer(
            "cache_capacity",
            amortized_engine.config().cache_capacity as u64,
        )
        .number("cold_wall_s", cold_s)
        .number("amortized_wall_s", amortized_s)
        .number("cold_jobs_per_s", cold_jobs_per_s)
        .number("amortized_jobs_per_s", amortized_jobs_per_s)
        .number("speedup_amortized_vs_factor_per_job", speedup)
        .integer("steady_cache_hits", steady_stats.hits)
        .integer("steady_cache_misses", steady_stats.misses)
        .integer("steady_cache_evictions", steady_stats.evictions)
        .integer("transient_cache_hits", transient_stats.hits)
        .integer("transient_cache_misses", transient_stats.misses)
        .integer("transient_cache_evictions", transient_stats.evictions)
        .number("max_temp_gap_vs_cold_k", gap);
    let default_path = if quick {
        "BENCH_fleet.quick.json"
    } else {
        "BENCH_fleet.json"
    };
    let json_path = std::env::var("BENCH_FLEET_JSON").unwrap_or_else(|_| default_path.into());
    match std::fs::write(&json_path, json.render()) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }

    let checks = vec![
        json.finiteness_check(),
        ShapeCheck::new(
            "every job resolves in both runs",
            cold_ok == jobs.len() && amortized.ok_count() == jobs.len(),
            format!(
                "{}/{} cold, {}/{} amortized",
                cold_ok,
                jobs.len(),
                amortized.ok_count(),
                jobs.len()
            ),
        ),
        ShapeCheck::new(
            format!(
                "cache-amortized fleet >= {}x factor-per-job throughput",
                cfg.speedup_bar
            ),
            speedup >= cfg.speedup_bar,
            format!("{amortized_jobs_per_s:.1} vs {cold_jobs_per_s:.1} jobs/s ({speedup:.2}x)"),
        ),
        ShapeCheck::new(
            "cache hits never change results (max gap vs cold oracle <= 1e-9 K)",
            gap <= 1e-9,
            format!("max block-temperature gap {gap:.2e} K"),
        ),
        ShapeCheck::new(
            "steady cache amortizes: one miss per distinct floorplan",
            steady_stats.misses == cfg.floorplans as u64
                && steady_stats.hits + steady_stats.misses == jobs.len() as u64,
            format!(
                "{} misses for {} floorplans, {} hits",
                steady_stats.misses, cfg.floorplans, steady_stats.hits
            ),
        ),
        ShapeCheck::new(
            "transient cache amortizes: one factorization per distinct propagator",
            transient_stats.misses == cfg.floorplans as u64
                && transient_stats.hits + transient_stats.misses == transient_jobs as u64,
            format!(
                "{} misses for {} floorplans, {} hits",
                transient_stats.misses, cfg.floorplans, transient_stats.hits
            ),
        ),
        ShapeCheck::new(
            "every per-job reference engine reports zero cache hits",
            cold_hits == 0,
            format!("{cold_hits} hits across {} per-job engines", jobs.len()),
        ),
    ];
    report(&checks)
}
