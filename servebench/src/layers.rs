//! The traced run's layer replay: each distinct job template is run
//! again one layer at a time through the program's public calls, with
//! one span around each call. A layer the workload never exercises
//! reads 0.

use crate::check::{strip_name, Resolved};
use crate::corpus::{Corpus, Preamble};
use crate::stats::mean;
use crate::trace::Tracer;
use ptherm_core::cosim::spectral::DEFAULT_REFINEMENT_TOLERANCE;
use ptherm_core::cosim::sweep::ScaledTechPower;
use ptherm_core::cosim::{
    ElectroThermalSolver, EnvelopeSpec, RunOptions, ScenarioGrid, SpectralOperator,
    SpectralScratch, SweepEngine, SweepOutcome, SweepReport, ThermalOperator, TransientConfig,
};
use ptherm_core::MapWorkspace;
use ptherm_fleet::{FleetConfig, JobRecord, JobSpec, PowerSpec, RequestParser, SteadyJob};
use ptherm_floorplan::Floorplan;
use ptherm_math::expv::exp_into;
use ptherm_math::fft::{Fft2, Fft2Scratch};
use ptherm_math::MultiVec;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Templates replayed per job kind.
const PER_KIND: usize = 8;
/// Repetitions of each cheap kernel call (the mean is reported).
const KERNEL_REPS: usize = 20;

/// What the replay measured (field names follow the metric names).
#[derive(Debug, Clone, Default)]
pub struct LayerMetrics {
    pub sweep_us_per_scenario: f64,
    pub iterations_per_scenario: f64,
    pub mul_into_us: f64,
    pub expv_ns_per_elem: f64,
    pub envelope_ms_per_job: f64,
    pub envelope_solves_per_fiber: f64,
    pub seeded_us_per_scenario: f64,
    pub operator_build_ms: f64,
    pub transient_factor_ms: f64,
    pub map_build_ms: f64,
    pub transient_ns_per_lane_step: f64,
    pub map_render_us: f64,
    pub spectral_build_ms: f64,
    pub spectral_us_per_scenario: f64,
    pub spectral_rises_us: f64,
    pub fft2_us: f64,
    pub parse_us_per_line: f64,
    pub render_us_per_line: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The scenario grid a fleet engine builds for `job`.
fn grid(cfg: &FleetConfig, job: &SteadyJob) -> ScenarioGrid {
    let grid = ScenarioGrid::new(cfg.technologies.clone())
        .vdd_scales(job.vdd_scales.clone())
        .activities(job.activities.clone());
    match &job.ambients_k {
        Some(ambients) => grid.ambients_k(ambients.clone()),
        None => grid,
    }
}

fn solver(cfg: &FleetConfig, plan: &Floorplan) -> ElectroThermalSolver {
    let mut solver = ElectroThermalSolver::new(plan.clone());
    solver.lateral_order = cfg.lateral_order;
    solver.z_order = cfg.z_order;
    solver
}

/// Area-weighted block powers of a chip budget (what the render and
/// rise kernels are fed).
fn block_powers(plan: &Floorplan, total_w: f64) -> Vec<f64> {
    let area: f64 = plan.blocks().iter().map(|b| b.area()).sum();
    plan.blocks()
        .iter()
        .map(|b| total_w * b.area() / area)
        .collect()
}

fn iterations(report: &SweepReport) -> usize {
    report
        .outcomes
        .iter()
        .map(|o| match o {
            SweepOutcome::Converged { iterations, .. } => *iterations,
            SweepOutcome::Runaway { iteration, .. } => *iteration,
            _ => 0,
        })
        .sum()
}

/// Mean time of `reps` calls of `f`, after one untimed warm call.
fn per_call(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed() / reps as u32
}

/// Replays up to [`PER_KIND`] templates of each kind.
pub fn replay(
    corpus: &Corpus,
    resolved: &[Resolved],
    references: &[Option<(u64, JobRecord)>],
    tracer: &mut Tracer,
) -> LayerMetrics {
    let cfg = FleetConfig::default();
    let lanes = cfg.batch_lanes;
    let mut m = LayerMetrics::default();
    // One sample per replayed call; each metric is its samples' mean.
    let (mut sweep_us, mut iters, mut seeded_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut env_ms, mut env_solves) = (Vec::new(), Vec::new());
    let (mut build_ms, mut mul_us, mut exp_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut factor_ms, mut step_ns) = (Vec::new(), Vec::new());
    let (mut map_ms, mut render_us) = (Vec::new(), Vec::new());
    let (mut sp_build, mut sp_us, mut sp_rises, mut sp_exp, mut fft_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());

    // Dense operators, one per distinct floorplan replayed.
    let mut dense: Vec<(Arc<Floorplan>, Arc<ThermalOperator>)> = Vec::new();
    let mut dense_op = |tracer: &mut Tracer, parent: usize, plan: &Arc<Floorplan>| {
        if let Some((_, op)) = dense.iter().find(|(p, _)| Arc::ptr_eq(p, plan)) {
            return Arc::clone(op);
        }
        let (op, took) = tracer.time("operator.build", Some(parent), |_, _| {
            ThermalOperator::with_image_orders_threaded(plan, cfg.lateral_order, cfg.z_order, 1)
        });
        build_ms.push(took.as_secs_f64() * 1e3);
        let op = Arc::new(op);
        let n = op.len();
        let mut x = MultiVec::zeros(n, lanes);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = 1e-3 * (1 + i % 7) as f64;
        }
        let mut y = MultiVec::zeros(n, lanes);
        let (took, _) = tracer.time("multivec.mul_into", Some(parent), |_, _| {
            per_call(KERNEL_REPS, || {
                op.influence().mul_into(black_box(&x), &mut y)
            })
        });
        mul_us.push(us(took));
        exp_ns.push(expv_ns_per_elem(tracer, parent, n * lanes));
        dense.push((Arc::clone(plan), Arc::clone(&op)));
        op
    };

    // Up to PER_KIND templates of each kind, evenly spaced through the
    // kind's templates so every floorplan size gets its share.
    let mut by_kind: Vec<(&'static str, Vec<&Resolved>)> = Vec::new();
    for r in resolved {
        match by_kind.iter_mut().find(|(k, _)| *k == r.spec.kind()) {
            Some((_, list)) => list.push(r),
            None => by_kind.push((r.spec.kind(), vec![r])),
        }
    }
    let picked: Vec<&Resolved> = by_kind
        .iter()
        .flat_map(|(_, list)| {
            let n = list.len().min(PER_KIND);
            (0..n).map(move |j| list[j * list.len() / n])
        })
        .collect();
    let mut spectral: Vec<(Arc<Floorplan>, Arc<SpectralOperator>)> = Vec::new();
    for r in picked {
        let plan = &r.plan;
        tracer.time("replay", None, |tracer, parent| match &r.spec {
            JobSpec::Steady(job) if corpus.workload.spectral() => {
                let grid = grid(&cfg, job);
                let model = power(job, plan, &grid);
                let op = match spectral.iter().find(|(p, _)| Arc::ptr_eq(p, plan)) {
                    Some((_, op)) => Arc::clone(op),
                    None => {
                        let (op, took) = tracer.time("spectral.build", Some(parent), |_, _| {
                            SpectralOperator::with_image_orders_threaded(
                                plan,
                                cfg.lateral_order,
                                cfg.z_order,
                                DEFAULT_REFINEMENT_TOLERANCE,
                                1,
                            )
                            .expect("spectral corpus floorplans are grid-coincident")
                        });
                        sp_build.push(took.as_secs_f64() * 1e3);
                        let op = Arc::new(op);
                        spectral.push((Arc::clone(plan), Arc::clone(&op)));
                        op
                    }
                };
                let powers = block_powers(plan, job.dynamic_w);
                let mut scratch = SpectralScratch::new();
                let mut rises = vec![0.0; powers.len()];
                let (took, _) = tracer.time("spectral.rises_into", Some(parent), |_, _| {
                    per_call(KERNEL_REPS, || {
                        op.rises_into(black_box(&powers), &mut scratch, &mut rises)
                    })
                });
                sp_rises.push(us(took));
                sp_exp.push(expv_ns_per_elem(tracer, parent, powers.len() * lanes));
                let (mx, my) = (
                    (2 * op.nx()).next_power_of_two(),
                    (2 * op.ny()).next_power_of_two(),
                );
                let fft = Fft2::new(mx, my);
                let mut re: Vec<f64> = (0..mx * my).map(|i| (i % 13) as f64).collect();
                let mut im = vec![0.0; mx * my];
                let mut fs = Fft2Scratch::new();
                let (took, _) = tracer.time("fft.fft2", Some(parent), |_, _| {
                    per_call(KERNEL_REPS, || fft.forward(&mut re, &mut im, &mut fs))
                });
                fft_us.push(us(took));
                let engine = SweepEngine::with_spectral_operator(solver(&cfg, plan), op)
                    .threads(1)
                    .batch_lanes(lanes);
                let (report, took) = tracer.time("spectral.sweep", Some(parent), |_, _| {
                    engine.sweep(&grid, &model, RunOptions::new())
                });
                sp_us.push(us(took) / report.len() as f64);
                iters.push(iterations(&report) as f64 / report.len() as f64);
            }
            JobSpec::Steady(job) => {
                let engine = dense_engine(&cfg, plan, dense_op(tracer, parent, plan));
                let grid = grid(&cfg, job);
                let model = power(job, plan, &grid);
                let (report, took) = tracer.time("sweep", Some(parent), |_, _| {
                    engine.sweep(&grid, &model, RunOptions::new())
                });
                sweep_us.push(us(took) / report.len() as f64);
                iters.push(iterations(&report) as f64 / report.len() as f64);
            }
            JobSpec::Delta(job) => {
                let engine = dense_engine(&cfg, plan, dense_op(tracer, parent, plan));
                let base_grid = grid(&cfg, &job.base);
                let base_model = power(&job.base, plan, &base_grid);
                let base = engine.sweep(&base_grid, &base_model, RunOptions::new());
                let grid = grid(&cfg, &job.job);
                let model = power(&job.job, plan, &grid);
                let sink_k = plan.geometry().sink_temperature;
                let seeds = nearest_seeds(&base, &base_grid, &grid, sink_k);
                let seed_of = |id: usize| seeds[id].clone();
                let (report, took) = tracer.time("sweep.seeded", Some(parent), |_, _| {
                    engine.sweep_seeded(&grid, &model, &seed_of, RunOptions::new())
                });
                seeded_us.push(us(took) / report.len() as f64);
            }
            JobSpec::Envelope(job) => {
                let engine = dense_engine(&cfg, plan, dense_op(tracer, parent, plan));
                let grid = grid(&cfg, &job.base);
                let model = power(&job.base, plan, &grid);
                let spec = EnvelopeSpec {
                    axis: job.axis,
                    lo: job.lo,
                    hi: job.hi,
                    tolerance: job.tolerance,
                };
                let (report, took) = tracer.time("envelope", Some(parent), |_, _| {
                    engine.map_envelope(&grid, &model, &spec, RunOptions::new())
                });
                let report = report.expect("corpus envelope specs are valid");
                env_ms.push(took.as_secs_f64() * 1e3);
                env_solves.push(report.solves as f64 / report.len().max(1) as f64);
            }
            JobSpec::Transient(job) => {
                let engine = dense_engine(&cfg, plan, dense_op(tracer, parent, plan));
                let grid = grid(&cfg, &job.base);
                let model = power(&job.base, plan, &grid);
                let tcfg = TransientConfig::new(job.dt_s, job.steps)
                    .scheme(job.scheme)
                    .waveforms(job.waveforms.clone());
                let (top, took) = tracer.time("transient.factor", Some(parent), |_, _| {
                    engine.transient_operator(&tcfg)
                });
                let top = top.expect("corpus transient configs are valid");
                factor_ms.push(took.as_secs_f64() * 1e3);
                let (report, took) = tracer.time("transient.run", Some(parent), |_, _| {
                    engine.transient(&grid, &model, &tcfg, RunOptions::new().operator(&top))
                });
                let lane_steps = report.map_or(1, |r| r.len()) * job.steps;
                step_ns.push(took.as_secs_f64() * 1e9 / lane_steps.max(1) as f64);
            }
            JobSpec::Map(job) => {
                let engine = dense_engine(&cfg, plan, dense_op(tracer, parent, plan));
                let (op, took) = tracer.time("map.build", Some(parent), |_, _| {
                    engine.map_operator(job.nx, job.ny)
                });
                map_ms.push(took.as_secs_f64() * 1e3);
                let powers = block_powers(plan, job.base.dynamic_w);
                let mut ws = MapWorkspace::new();
                let mut out = vec![0.0; job.nx * job.ny];
                let (took, _) = tracer.time("map.rise_map_into", Some(parent), |_, _| {
                    per_call(KERNEL_REPS, || {
                        op.rise_map_into(black_box(&powers), &mut ws, &mut out)
                    })
                });
                render_us.push(us(took));
                let (mx, my) = (
                    (2 * job.nx).next_power_of_two(),
                    (2 * job.ny).next_power_of_two(),
                );
                let fft = Fft2::new(mx, my);
                let mut re: Vec<f64> = (0..mx * my).map(|i| (i % 13) as f64).collect();
                let mut im = vec![0.0; mx * my];
                let mut fs = Fft2Scratch::new();
                let (took, _) = tracer.time("fft.fft2", Some(parent), |_, _| {
                    per_call(KERNEL_REPS, || fft.forward(&mut re, &mut im, &mut fs))
                });
                fft_us.push(us(took));
            }
        });
    }

    // Protocol layers: parse every template line, render every answer.
    let mut parser = RequestParser::new();
    for line in &corpus.preamble {
        if let Preamble::Floorplan(text) = line {
            let _ = parser.parse_line(text);
        }
    }
    let lines: Vec<String> = corpus.templates.iter().map(|t| strip_name(t)).collect();
    let ((), took) = tracer.time("jobs.parse_line", None, |_, _| {
        for line in &lines {
            let _ = black_box(parser.parse_line(line));
        }
    });
    m.parse_us_per_line = us(took) / lines.len() as f64;
    let rendered: Vec<(&JobRecord, &JobSpec)> = references
        .iter()
        .zip(resolved)
        .filter_map(|(r, t)| r.as_ref().map(|(_, record)| (record, &t.spec)))
        .collect();
    let (took, _) = tracer.time("json.render", None, |_, _| {
        per_call(KERNEL_REPS, || {
            for (record, spec) in &rendered {
                black_box(record.to_json(spec).render());
            }
        })
    });
    m.render_us_per_line = us(took) / rendered.len().max(1) as f64;

    m.sweep_us_per_scenario = mean(&sweep_us);
    m.iterations_per_scenario = mean(&iters);
    m.mul_into_us = mean(&mul_us);
    exp_ns.extend(sp_exp);
    m.expv_ns_per_elem = mean(&exp_ns);
    m.envelope_ms_per_job = mean(&env_ms);
    m.envelope_solves_per_fiber = mean(&env_solves);
    m.seeded_us_per_scenario = mean(&seeded_us);
    m.operator_build_ms = mean(&build_ms);
    m.transient_factor_ms = mean(&factor_ms);
    m.map_build_ms = mean(&map_ms);
    m.transient_ns_per_lane_step = mean(&step_ns);
    m.map_render_us = mean(&render_us);
    m.spectral_build_ms = mean(&sp_build);
    m.spectral_us_per_scenario = mean(&sp_us);
    m.spectral_rises_us = mean(&sp_rises);
    m.fft2_us = mean(&fft_us);
    m
}

/// Time per element of `exp_into` over `len` elements (the batched
/// power evaluation's size: blocks × lanes).
fn expv_ns_per_elem(tracer: &mut Tracer, parent: usize, len: usize) -> f64 {
    let xs: Vec<f64> = (0..len).map(|i| -((i % 97) as f64) / 20.0).collect();
    let mut out = vec![0.0; len];
    let (took, _) = tracer.time("expv.exp_into", Some(parent), |_, _| {
        per_call(KERNEL_REPS, || exp_into(black_box(&xs), &mut out))
    });
    took.as_secs_f64() * 1e9 / len as f64
}

fn dense_engine(cfg: &FleetConfig, plan: &Floorplan, op: Arc<ThermalOperator>) -> SweepEngine {
    SweepEngine::with_operator(solver(cfg, plan), op)
        .threads(1)
        .batch_lanes(cfg.batch_lanes)
}

/// The job's power model (the corpora only use the scaled law).
fn power(job: &SteadyJob, plan: &Floorplan, grid: &ScenarioGrid) -> ScaledTechPower {
    assert_eq!(
        job.power,
        PowerSpec::Scaled,
        "corpora use the scaled power law"
    );
    ScaledTechPower::area_weighted(plan, job.dynamic_w, job.leakage_w).prepared_for(grid)
}

/// Per delta scenario, the fixed point of the nearest converged base
/// scenario of the same technology (the rule fleet delta jobs seed by).
fn nearest_seeds(
    base: &SweepReport,
    base_grid: &ScenarioGrid,
    grid: &ScenarioGrid,
    sink_k: f64,
) -> Vec<Option<Vec<f64>>> {
    let points: Vec<_> = base
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(id, o)| match o {
            SweepOutcome::Converged {
                block_temperatures, ..
            } => Some((base_grid.scenario(id, sink_k), block_temperatures)),
            _ => None,
        })
        .collect();
    (0..grid.len())
        .map(|id| {
            let target = grid.scenario(id, sink_k);
            let mut best: Option<(f64, &Vec<f64>)> = None;
            for (c, temps) in &points {
                if c.tech_index != target.tech_index {
                    continue;
                }
                let d = (c.vdd_scale - target.vdd_scale).powi(2)
                    + (c.activity - target.activity).powi(2)
                    + (c.ambient_k - target.ambient_k).powi(2);
                if best.is_none_or(|(b, _)| d < b) {
                    best = Some((d, temps));
                }
            }
            best.map(|(_, t)| t.clone())
        })
        .collect()
}
