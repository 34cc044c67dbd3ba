//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then the result line
//! (`{"correct", "attempted", "failed", "metrics"}`) as the last line of
//! standard output. Exits 1 if any answer was wrong, 2 on bad
//! arguments or a service failure, 3 if the load generator fell behind
//! its schedule (the run measured the generator, not the service).

use servebench::corpus::Workload;
use servebench::report::{result_line, unit};
use servebench::run::{run, Options, GEN_LAG_BOUND_MS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("servebench: run failed: {e}");
            return ExitCode::from(2);
        }
    };
    if outcome.gen_lag_p99_ms > GEN_LAG_BOUND_MS {
        eprintln!(
            "servebench: invalid run: generator lag p99 {:.3} ms exceeds {GEN_LAG_BOUND_MS} ms",
            outcome.gen_lag_p99_ms
        );
        return ExitCode::from(3);
    }
    for m in &outcome.metrics {
        println!(
            "{:<34} {:>16.6} {}",
            m.name,
            m.value,
            unit(m.name).unwrap_or("")
        );
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
