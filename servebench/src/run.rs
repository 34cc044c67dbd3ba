//! One benchmark run: set the service up, drive the timed phases over
//! the socket, check every answer against its reference, and compute
//! the metrics.

use crate::check;
use crate::client::{Client, Sent};
use crate::corpus::{Arrival, Corpus, Preamble, Workload};
use crate::layers;
use crate::report::Metric;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use ptherm_fleet::{CacheStats, FleetEngineBuilder, FleetServer, Json, ServeConfig, ServeListener};
use std::io;
use std::ops::Range;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

/// Share of `--seconds` given to the paced phase; the rest saturates.
const PACED_SHARE: f64 = 0.7;
/// Each phase is cut into this many blocks, run alternately (paced,
/// saturation, paced, ...), so both phases sample the whole run rather
/// than one stretch of a shared machine's time. Every metric pools its
/// blocks: latencies over all paced lines, and throughput as all
/// saturation answers over the summed time from each block's start to
/// its last answer.
const BLOCKS: usize = 5;
/// A run whose generator sent its paced lines later than this (p99)
/// measured the generator, not the service, and is refused.
pub const GEN_LAG_BOUND_MS: f64 = 25.0;
/// Lines each connection keeps outstanding in a saturation block.
const WINDOW: usize = 4;
/// Interval of the traced run's `stats` probes.
const PROBE_EVERY: Duration = Duration::from_millis(50);
/// Length of each connection's saturation template sequence (cycled if
/// a run ever sends more).
const CLOSED_LEN: usize = 50_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload.
    pub workload: Workload,
    /// Schedule seed.
    pub seed: u64,
    /// Timed seconds (paced + saturation).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the socket and the span dump.
    pub out_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every answer matched its reference and none was missing.
    pub correct: bool,
    /// Job lines sent in timed phases.
    pub attempted: usize,
    /// Of those, lines with an error, refusal, missing or wrong answer.
    pub failed: usize,
    /// The reported metrics, in registry order.
    pub metrics: Vec<Metric>,
    /// The paced generator's p99 lateness, ms.
    pub gen_lag_p99_ms: f64,
}

/// A served session: both connections plus what setup cost.
struct Session<R> {
    setup_s: f64,
    clients: [Client; 2],
    body: R,
}

/// Job-index ranges of one phase on each connection.
type Ranges = [Range<usize>; 2];

/// Starts a service with `threads` workers on `sock`, runs setup (engine
/// build, bind, warm pass through the socket), then `body`, then drains
/// the service.
fn session<R>(
    corpus: &Corpus,
    threads: usize,
    sock: &Path,
    body: impl FnOnce(&FleetServer, &mut [Client; 2]) -> io::Result<R>,
) -> io::Result<Session<R>> {
    let _ = std::fs::remove_file(sock);
    let t0 = Instant::now();
    let engine = FleetEngineBuilder::new()
        .threads(threads)
        .build()
        .map_err(io::Error::other)?;
    let server = FleetServer::new(engine, ServeConfig::default());
    let listener = UnixListener::bind(sock)?;
    let stop = server.shutdown_handle();
    let outcome = thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(vec![ServeListener::Unix(listener)]));
        let outcome = (|| {
            let mut clients = [Client::connect(sock)?, Client::connect(sock)?];
            warm(corpus, &mut clients)?;
            let setup_s = t0.elapsed().as_secs_f64();
            let body = body(&server, &mut clients)?;
            Ok(Session {
                setup_s,
                clients,
                body,
            })
        })();
        stop.store(true, Ordering::SeqCst);
        match serving.join() {
            Ok(Ok(_)) => outcome,
            Ok(Err(e)) => Err(e),
            Err(_) => Err(io::Error::other("serve thread panicked")),
        }
    });
    let _ = std::fs::remove_file(sock);
    outcome
}

/// Setup's socket traffic: each connection defines the floorplans and
/// its delta bases, then the warm set is split over both connections.
fn warm(corpus: &Corpus, clients: &mut [Client; 2]) -> io::Result<()> {
    for client in clients.iter_mut() {
        for line in &corpus.preamble {
            match line {
                Preamble::Floorplan(text) => client.define(text)?,
                Preamble::Base(t) => {
                    client.send_job(*t, &corpus.templates[*t], Instant::now())?;
                }
            }
        }
    }
    // One connection admits the warm set in corpus order, so workers
    // claim the builds in the same order every run.
    for &t in &corpus.warm {
        clients[0].send_job(t, &corpus.templates[t], Instant::now())?;
    }
    for client in clients.iter_mut() {
        client.drain()?;
    }
    Ok(())
}

/// Runs `f` on both connections at once: connection 1 on a second
/// thread, connection 0 on this one.
fn both<F>(clients: &mut [Client; 2], f: F) -> io::Result<Ranges>
where
    F: Fn(usize, &mut Client) -> io::Result<()> + Sync,
{
    let before = [clients[0].jobs.len(), clients[1].jobs.len()];
    let (first, second) = clients.split_at_mut(1);
    thread::scope(|scope| {
        let other = scope.spawn(|| f(1, &mut second[0]));
        let mine = f(0, &mut first[0]);
        let other = other
            .join()
            .map_err(|_| io::Error::other("client thread panicked"))?;
        mine.and(other)
    })?;
    Ok([
        before[0]..clients[0].jobs.len(),
        before[1]..clients[1].jobs.len(),
    ])
}

/// An open-loop block: arrival `i` goes out on connection `i % 2` at
/// its due time (seconds after `offset_s`), whatever the service is
/// doing.
fn paced(
    corpus: &Corpus,
    clients: &mut [Client; 2],
    arrivals: &[Arrival],
    offset_s: f64,
    probe: bool,
) -> io::Result<Ranges> {
    let start = Instant::now() + Duration::from_millis(20);
    both(clients, |c, client| {
        let probing = probe && c == 0;
        let mut next_probe = start;
        for arrival in arrivals.iter().skip(c).step_by(2) {
            let due = start + Duration::from_secs_f64(arrival.due_s - offset_s);
            loop {
                let now = Instant::now();
                if probing && now >= next_probe {
                    client.probe()?;
                    next_probe += PROBE_EVERY;
                }
                if now >= due {
                    break;
                }
                client.pump(if probing { due.min(next_probe) } else { due })?;
            }
            let t = arrival.template;
            client.send_job(t, &corpus.templates[t], due)?;
        }
        client.drain()
    })
}

/// A closed-loop block: each connection keeps [`WINDOW`] lines
/// outstanding for `seconds`, continuing its template sequence from its
/// cursor, then waits for its last answers. Returns the ranges and the
/// block start.
fn saturate(
    corpus: &Corpus,
    clients: &mut [Client; 2],
    seqs: &[Vec<usize>; 2],
    cursors: &mut [usize; 2],
    seconds: f64,
    probe: bool,
) -> io::Result<(Ranges, Instant)> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let ranges = both(clients, |c, client| {
        let probing = probe && c == 0;
        let mut next_probe = start;
        let mut i = cursors[c];
        while Instant::now() < end {
            while client.outstanding < WINDOW {
                let t = seqs[c][i % seqs[c].len()];
                i += 1;
                client.send_job(t, &corpus.templates[t], Instant::now())?;
            }
            if probing && Instant::now() >= next_probe {
                client.probe()?;
                next_probe += PROBE_EVERY;
            }
            client.pump(if probing { end.min(next_probe) } else { end })?;
        }
        client.drain()
    })?;
    for c in 0..2 {
        cursors[c] += ranges[c].len();
    }
    Ok((ranges, start))
}

/// One pass of the timed phases: paced and saturation blocks, alternating.
struct Pass {
    paced: Vec<Ranges>,
    /// Each saturation block's ranges and start.
    saturation: Vec<(Ranges, Instant)>,
}

/// Runs a pass. With `paced_s == 0` it is saturation only.
#[allow(clippy::too_many_arguments)]
fn pass(
    corpus: &Corpus,
    clients: &mut [Client; 2],
    arrivals: &[Arrival],
    paced_s: f64,
    seqs: &[Vec<usize>; 2],
    sat_s: f64,
    probe: bool,
) -> io::Result<Pass> {
    let mut cursors = [0, 0];
    let mut out = Pass {
        paced: Vec::new(),
        saturation: Vec::new(),
    };
    let block_s = paced_s / BLOCKS as f64;
    for b in 0..BLOCKS {
        if paced_s > 0.0 {
            let (lo, hi) = (b as f64 * block_s, (b + 1) as f64 * block_s);
            let block: Vec<Arrival> = arrivals
                .iter()
                .filter(|a| a.due_s >= lo && a.due_s < hi)
                .copied()
                .collect();
            out.paced.push(paced(corpus, clients, &block, lo, probe)?);
        }
        out.saturation.push(saturate(
            corpus,
            clients,
            seqs,
            &mut cursors,
            sat_s / BLOCKS as f64,
            probe,
        )?);
    }
    Ok(out)
}

impl Pass {
    /// Paced lines of every block.
    fn paced_jobs<'a>(&'a self, clients: &'a [Client; 2]) -> impl Iterator<Item = &'a Sent> + 'a {
        self.paced.iter().flat_map(move |r| jobs(clients, r))
    }

    /// Saturation throughput (answers over the summed time from each
    /// block's start to its last answer), the answers counted, and the
    /// mean number of workers busy (Σ `wall_ns` over that time).
    fn throughput(&self, clients: &[Client; 2]) -> (f64, f64, f64) {
        let (mut done, mut span_s, mut busy_s) = (0.0, 0.0, 0.0);
        for (ranges, start) in &self.saturation {
            let mut last = *start;
            for job in jobs(clients, ranges) {
                let (Some(recv), Some(answer)) = (job.recv, job.answer) else {
                    continue;
                };
                done += 1.0;
                busy_s += answer.wall_ns.unwrap_or(0) as f64 * 1e-9;
                last = last.max(recv);
            }
            span_s += last.duration_since(*start).as_secs_f64();
        }
        (done / span_s, done, busy_s / span_s)
    }

    /// Index of the pass's first line on connection `c`.
    fn first(&self, c: usize) -> usize {
        self.paced
            .first()
            .or(self.saturation.first().map(|(r, _)| r))
            .map_or(usize::MAX, |r| r[c].start)
    }
}

fn jobs<'a>(clients: &'a [Client; 2], ranges: &'a Ranges) -> impl Iterator<Item = &'a Sent> + 'a {
    (0..2).flat_map(move |c| clients[c].jobs[ranges[c].clone()].iter())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn cache_stats(server: &FleetServer) -> [CacheStats; 5] {
    let cache = server.engine().cache();
    [
        cache.steady_stats(),
        cache.transient_stats(),
        cache.map_stats(),
        cache.spectral_stats(),
        cache.result_stats(),
    ]
}

fn hit_rate(before: &CacheStats, after: &CacheStats) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    if lookups > 0.0 {
        hits / lookups
    } else {
        0.0
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn stats_field(line: &str, key: &str) -> f64 {
    Json::parse(line)
        .ok()
        .and_then(|j| j.get(key).and_then(Json::as_f64))
        .unwrap_or(0.0)
}

/// What the main session's timed phases produced.
struct Phases {
    timed: Pass,
    caches: [CacheStats; 5],
    caches_after: [CacheStats; 5],
    traced: Option<Pass>,
    final_stats: String,
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Socket or service failures; a failed answer is not an error but a
/// `failed` count.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    // Span times count from here; only a traced run records spans.
    let mut tracer = Tracer::new();
    let corpus = Corpus::generate(opts.workload);
    let resolved = check::resolve(&corpus);
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    // A traced run measures the same total time as an untraced one,
    // split over its untraced and traced passes.
    let pass_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let paced_s = pass_s * PACED_SHARE;
    let sat_s = pass_s - paced_s;
    let arrivals = corpus.paced(opts.seed, paced_s);
    let seqs = [
        corpus.closed(opts.seed, 0, CLOSED_LEN),
        corpus.closed(opts.seed, 1, CLOSED_LEN),
    ];
    // Socket paths are short relative paths in the output directory:
    // a Unix socket path must fit in 108 bytes wherever the checkout is.
    std::fs::create_dir_all(&opts.out_dir)?;
    std::env::set_current_dir(&opts.out_dir)?;
    let sock = PathBuf::from(format!("{}.sock", std::process::id()));

    // Every connection of every session, with the index of its first
    // timed job line (setup-only sessions have none).
    let mut checked: Vec<(Client, usize)> = Vec::new();
    let mut setups = Vec::new();
    // The last setup serves the timed phases. A traced run reports no
    // setup time, so it sets up once.
    let reps = if opts.trace {
        1
    } else {
        opts.workload.setup_reps()
    };
    for _ in 1..reps {
        let s = session(&corpus, workers, &sock, |_, _| Ok(()))?;
        setups.push(s.setup_s);
        checked.extend(s.clients.into_iter().map(|c| (c, usize::MAX)));
    }
    let main = session(&corpus, workers, &sock, |server, clients| {
        let caches = cache_stats(server);
        let timed = pass(&corpus, clients, &arrivals, paced_s, &seqs, sat_s, false)?;
        let caches_after = cache_stats(server);
        let traced = if opts.trace {
            Some(pass(
                &corpus, clients, &arrivals, paced_s, &seqs, sat_s, true,
            )?)
        } else {
            None
        };
        let final_stats = server.metrics().stats_json(0, 0, &[]).render();
        Ok(Phases {
            timed,
            caches,
            caches_after,
            traced,
            final_stats,
        })
    })?;
    setups.push(main.setup_s);
    let rss = peak_rss_mib();
    let one = if opts.trace {
        Some(session(&corpus, 1, &sock, |_, clients| {
            pass(&corpus, clients, &[], 0.0, &seqs, sat_s, false)
        })?)
    } else {
        None
    };

    // Reference check over every job line of every session.
    let mut wanted = vec![false; corpus.templates.len()];
    let sessions = checked
        .iter()
        .map(|(c, _)| c)
        .chain(&main.clients)
        .chain(one.iter().flat_map(|s| &s.clients));
    for job in sessions.flat_map(|c| &c.jobs) {
        wanted[job.template] = true;
    }
    let references = check::references(&check::reference_engine(), &resolved, &wanted, workers);
    let ok = |job: &Sent| match (job.answer, &references[job.template]) {
        (Some(answer), Some((reference, _))) => answer.digest == *reference,
        _ => false,
    };
    let (mut attempted, mut failed, mut setup_failed) = (0, 0, 0);
    let mut tally = |client: &Client, timed_from: usize| {
        for (i, job) in client.jobs.iter().enumerate() {
            let good = ok(job);
            if i >= timed_from {
                attempted += 1;
                failed += usize::from(!good);
            } else {
                setup_failed += usize::from(!good);
            }
        }
        setup_failed += client.stray.len();
    };
    for (client, timed_from) in &checked {
        tally(client, *timed_from);
    }
    for c in 0..2 {
        tally(&main.clients[c], main.body.timed.first(c));
        if let Some(one) = &one {
            tally(&one.clients[c], one.body.first(c));
        }
    }

    let phases = &main.body;
    let clients = &main.clients;
    let paced_jobs: Vec<&Sent> = phases.timed.paced_jobs(clients).collect();
    let latencies: Vec<f64> = paced_jobs
        .iter()
        .filter_map(|j| j.latency().map(ms))
        .collect();
    let lags: Vec<f64> = paced_jobs
        .iter()
        .map(|j| ms(j.start.saturating_duration_since(j.due)))
        .collect();
    let gen_lag_p99_ms = quantile(&lags, 0.99);
    eprintln!(
        "servebench: {} paced latency samples ({} above p95), {} setups",
        latencies.len(),
        latencies.len() / 20,
        setups.len()
    );
    let (jobs_per_s, sat_jobs, busy_workers) = phases.timed.throughput(clients);

    let mut metrics = Vec::new();
    let mut push = |name: &'static str, value: f64| metrics.push(Metric { name, value });
    if let (Some(traced), Some(one)) = (&phases.traced, &one) {
        for job in traced.paced_jobs(clients) {
            tracer.line(job);
        }
        let traced_jps = traced.throughput(clients).0;
        let one_jps = one.body.throughput(&one.clients).0;

        // Queue wait vs service time, from the traced paced phase.
        let answered: Vec<(f64, f64)> = traced
            .paced_jobs(clients)
            .filter_map(|j| {
                let service = j.answer?.wall_ns? as f64 * 1e-6;
                Some((ms(j.latency()?), service))
            })
            .collect();
        let service: Vec<f64> = answered.iter().map(|(_, s)| *s).collect();
        let waits: Vec<f64> = answered.iter().map(|(l, s)| l - s).collect();
        let depth_max = clients[0]
            .stats
            .iter()
            .map(|(_, line)| stats_field(line, "queue_depth"))
            .fold(0.0, f64::max);
        let (b, a) = (&phases.caches, &phases.caches_after);
        let evictions: u64 = (0..5).map(|k| a[k].evictions - b[k].evictions).sum();
        let layer = layers::replay(&corpus, &resolved, &references, &mut tracer);

        push("sweep.us_per_scenario", layer.sweep_us_per_scenario);
        push(
            "sweep.iterations_per_scenario",
            layer.iterations_per_scenario,
        );
        push("multivec.mul_into_us", layer.mul_into_us);
        push("expv.ns_per_elem", layer.expv_ns_per_elem);
        push("envelope.ms_per_job", layer.envelope_ms_per_job);
        push("envelope.solves_per_fiber", layer.envelope_solves_per_fiber);
        push("sweep.seeded_us_per_scenario", layer.seeded_us_per_scenario);
        push("cache.results.hit_rate", hit_rate(&b[4], &a[4]));
        push("operator.build_ms", layer.operator_build_ms);
        push("transient.factor_ms", layer.transient_factor_ms);
        push("map.build_ms", layer.map_build_ms);
        push("cache.steady.hit_rate", hit_rate(&b[0], &a[0]));
        push("cache.transient.hit_rate", hit_rate(&b[1], &a[1]));
        push("cache.map.hit_rate", hit_rate(&b[2], &a[2]));
        push("cache.evictions", evictions as f64);
        push(
            "transient.ns_per_lane_step",
            layer.transient_ns_per_lane_step,
        );
        push("map.render_us", layer.map_render_us);
        push("spectral.build_ms", layer.spectral_build_ms);
        push("spectral.us_per_scenario", layer.spectral_us_per_scenario);
        push("spectral.rises_us", layer.spectral_rises_us);
        push("fft.fft2_us", layer.fft2_us);
        push("cache.spectral.hit_rate", hit_rate(&b[3], &a[3]));
        push("jobs.parse_us_per_line", layer.parse_us_per_line);
        push("json.render_us_per_line", layer.render_us_per_line);
        push("server.queue_wait_p50_ms", median(&waits));
        push("server.queue_wait_p99_ms", quantile(&waits, 0.99));
        push("server.service_p50_ms", median(&service));
        push("server.queue_depth_max", depth_max);
        push(
            "server.refused_backpressure",
            stats_field(&phases.final_stats, "refused_backpressure"),
        );
        push("engine.worker_busy_frac", busy_workers / workers as f64);
        push("engine.scaling_2v1", jobs_per_s / one_jps);
        push(
            "engine.retries",
            stats_field(&phases.final_stats, "retries"),
        );
        push("bench.gen_lag_p99_ms", gen_lag_p99_ms);
        push(
            "bench.trace_overhead_frac",
            (jobs_per_s - traced_jps) / jobs_per_s,
        );
        push("bench.paced_samples", latencies.len() as f64);
        push("bench.saturation_jobs", sat_jobs);
        push("bench.workers", workers as f64);
        push("failed_frac", failed as f64 / attempted.max(1) as f64);
        push("latency_p99_ms", quantile(&latencies, 0.99));
        push("jobs_per_s.traced", traced_jps);
        push("jobs_per_s.one_worker", one_jps);

        let spans = opts.out_dir.join(format!(
            "{}-{}.spans.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = tracer.write(&spans) {
            eprintln!("servebench: could not write {}: {e}", spans.display());
        }
        eprint!("{}", tracer.self_time_table());
    } else {
        push("setup_s", median(&setups));
        push("jobs_per_s", jobs_per_s);
        push("latency_p50_ms", median(&latencies));
        push("latency_p95_ms", quantile(&latencies, 0.95));
        push("peak_rss_mib", rss);
    }
    Ok(Outcome {
        correct: failed == 0 && setup_failed == 0,
        attempted,
        failed,
        metrics,
        gen_lag_p99_ms,
    })
}
