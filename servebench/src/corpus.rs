//! Seeded JSONL corpora: the only input the service under test sees.
//!
//! A [`Corpus`] holds a workload's floorplan definitions, named delta
//! bases, pool of distinct job lines ("templates") and the warm set run
//! during setup. The seed picks the schedule: which template each phase
//! line sends and when each paced line is due. The same seed always
//! yields the same bytes ([`Corpus::transcript`] pins that in the
//! self-tests).
//!
//! Template values (die sizes, power budgets, axis values) are drawn
//! once from a fixed stream, not per seed: a seed that drew a hotter
//! die or a slower-converging sweep would change how much work a run
//! asks for, and run-to-run spread would measure the draw rather than
//! the service. Phase lines deal templates from decks holding each
//! template in proportion to its weight, so every seed sends the same
//! mix in its own order.

use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 warmed ~64-block floorplans; dense steady, delta and envelope
    /// jobs; every operator lookup hits.
    HotDense,
    /// 64 floorplans of 16–49 blocks drawn Zipf(1) against 32-entry
    /// caches; steady, transient and map jobs; many lookups miss.
    ChurnMixed,
    /// 4 grid-coincident floorplans of 1024–2304 blocks on the
    /// spectral backend; few, large steady sweeps.
    SpectralLarge,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HotDense,
        Workload::ChurnMixed,
        Workload::SpectralLarge,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotDense => "hot_dense",
            Workload::ChurnMixed => "churn_mixed",
            Workload::SpectralLarge => "spectral_large",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop arrival rate of the paced phase, lines per second:
    /// below what two workers sustain, and for `spectral_large` just
    /// high enough for the 200 samples that leave 10 above p95.
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::HotDense => 120.0,
            Workload::ChurnMixed => 40.0,
            Workload::SpectralLarge => 13.0,
        }
    }

    /// Whether the workload's steady jobs resolve to the spectral backend.
    pub fn spectral(self) -> bool {
        self == Workload::SpectralLarge
    }

    /// Setups per run (`setup_s` is their median): more where a setup
    /// is cheap and so noisier.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::HotDense => 5,
            Workload::ChurnMixed => 7,
            Workload::SpectralLarge => 5,
        }
    }
}

/// One line a connection sends before any timed phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Preamble {
    /// A floorplan definition (no result line).
    Floorplan(String),
    /// A named steady job other lines use as a delta base (one result
    /// line, like any job).
    Base(usize),
}

/// Slots in one deck of phase lines.
const DECK: usize = 2000;

/// A workload's generated input.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Which workload this is.
    pub workload: Workload,
    /// Lines every connection sends first, in order.
    pub preamble: Vec<Preamble>,
    /// Distinct job lines; every job line sent is one of these.
    pub templates: Vec<String>,
    /// Templates sent through the socket during setup, in order.
    pub warm: Vec<usize>,
    /// Each template's share of phase lines (0 for delta bases).
    pub weights: Vec<f64>,
}

/// A paced-phase line: when it is due (seconds from phase start) and
/// which template it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, seconds after the phase starts.
    pub due_s: f64,
    /// Template index.
    pub template: usize,
}

/// Evenly spaced values from `lo` to `hi`, rounded to 4 decimals so
/// the request text stays short.
fn axis(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let v = if n == 1 {
                lo
            } else {
                lo + (hi - lo) * i as f64 / (n - 1) as f64
            };
            (v * 1e4).round() / 1e4
        })
        .collect()
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(", "))
}

/// A die of `rows × cols` gutter-separated tiles with a drawn size in
/// micrometres, so every floorplan has its own operator fingerprint.
fn floorplan_line(
    name: &str,
    rows: usize,
    cols: usize,
    width_um: usize,
    length_um: usize,
) -> String {
    format!(
        r#"{{"type": "floorplan", "name": "{name}", "geometry": {{"width": {}, "length": {}}}, "tiles": {{"rows": {rows}, "cols": {cols}}}}}"#,
        width_um as f64 * 1e-6,
        length_um as f64 * 1e-6
    )
}

/// Distinct die sizes: `count` (width, length) pairs in micrometres.
fn die_sizes(rng: &mut Rng, count: usize, lo_um: usize, hi_um: usize) -> Vec<(usize, usize)> {
    let mut sizes: Vec<(usize, usize)> = Vec::with_capacity(count);
    while sizes.len() < count {
        let size = (rng.int(lo_um, hi_um), rng.int(lo_um, hi_um));
        if !sizes.contains(&size) {
            sizes.push(size);
        }
    }
    sizes
}

impl Corpus {
    /// Generates `workload`'s corpus.
    pub fn generate(workload: Workload) -> Corpus {
        let mut rng = Rng::new(0, 1);
        match workload {
            Workload::HotDense => hot_dense(&mut rng),
            Workload::ChurnMixed => churn_mixed(&mut rng),
            Workload::SpectralLarge => spectral_large(&mut rng),
        }
    }

    /// Copies of each template in one deck: proportional to its weight,
    /// largest-remainder rounded to [`DECK`] slots.
    fn deck_counts(&self) -> Vec<usize> {
        let total: f64 = self.weights.iter().sum();
        let exact: Vec<f64> = self
            .weights
            .iter()
            .map(|w| w / total * DECK as f64)
            .collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = DECK - counts.iter().sum::<usize>();
        for &t in by_remainder.iter().take(short) {
            counts[t] += 1;
        }
        counts
    }

    /// `count` phase-line templates dealt from successive decks. Each
    /// deck spreads a template's copies evenly at a seeded phase, so
    /// every stretch of lines carries the mix in proportion, not just
    /// the whole deck.
    fn deal(&self, rng: &mut Rng, count: usize) -> Vec<usize> {
        let counts = self.deck_counts();
        let mut out = Vec::with_capacity(count + DECK);
        while out.len() < count {
            let mut deck: Vec<(f64, usize)> = Vec::with_capacity(DECK);
            for (t, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
                let phase = rng.unit();
                deck.extend((0..n).map(|j| ((j as f64 + phase) / n as f64, t)));
            }
            deck.sort_by(|a, b| a.0.total_cmp(&b.0));
            out.extend(deck.into_iter().map(|(_, t)| t));
        }
        out.truncate(count);
        out
    }

    /// The paced phase's open-loop schedule over `seconds`: one arrival
    /// per `1/rate` slot at a seeded offset within the slot, so the rate
    /// is exact and arrivals never bunch more than two to a slot.
    pub fn paced(&self, seed: u64, seconds: f64) -> Vec<Arrival> {
        let mut rng = Rng::new(seed, 2);
        let rate = self.workload.paced_rate();
        let count = (seconds * rate).floor() as usize;
        let templates = self.deal(&mut rng, count);
        templates
            .into_iter()
            .enumerate()
            .map(|(i, template)| Arrival {
                due_s: (i as f64 + rng.unit()) / rate,
                template,
            })
            .collect()
    }

    /// The saturation phase's template sequence for connection `conn`
    /// (`count` lines; the closed loop sends a prefix of it).
    pub fn closed(&self, seed: u64, conn: usize, count: usize) -> Vec<usize> {
        self.deal(&mut Rng::new(seed, 3 + conn as u64), count)
    }

    /// Everything a seed determines, as the JSONL bytes a connection
    /// would carry: preamble, warm set, paced lines, then the first
    /// `closed` saturation lines of connection 0.
    pub fn transcript(&self, seed: u64, paced_s: f64, closed: usize) -> String {
        let mut out = String::new();
        for line in &self.preamble {
            match line {
                Preamble::Floorplan(text) => out.push_str(text),
                Preamble::Base(t) => out.push_str(&self.templates[*t]),
            }
            out.push('\n');
        }
        let paced = self.paced(seed, paced_s).into_iter().map(|a| a.template);
        for t in self
            .warm
            .iter()
            .copied()
            .chain(paced)
            .chain(self.closed(seed, 0, closed))
        {
            let _ = writeln!(out, "{}", self.templates[t]);
        }
        out
    }
}

/// Power budgets (dynamic W, leakage W) from per-mm² densities, so
/// the power density — and so the runaway boundary — stays comparable
/// across die sizes.
fn budgets(rng: &mut Rng, area_mm2: f64, dynamic: (f64, f64), leakage: (f64, f64)) -> (f64, f64) {
    let draw = |rng: &mut Rng, (lo, hi): (f64, f64)| {
        (area_mm2 * (lo + (hi - lo) * rng.unit()) * 1e3).round() / 1e3
    };
    (draw(rng, dynamic), draw(rng, leakage))
}

fn area_mm2((w, l): (usize, usize)) -> f64 {
    (w * l) as f64 * 1e-6
}

fn steady_line(
    floorplan: &str,
    name: Option<&str>,
    (dynamic, leakage): (f64, f64),
    vdd: &[f64],
    act: &[f64],
    amb: &[f64],
) -> String {
    let name = name.map_or(String::new(), |n| format!(r#""name": "{n}", "#));
    format!(
        r#"{{"type": "steady", "floorplan": "{floorplan}", {name}"dynamic_w": {dynamic}, "leakage_w": {leakage}, "vdd_scales": {}, "activities": {}, "ambients_k": {}}}"#,
        list(vdd),
        list(act),
        list(amb)
    )
}

/// A steady sweep over `(vdd, activity, ambient)` axis counts with
/// drawn axis values.
fn sweep_line(
    rng: &mut Rng,
    floorplan: &str,
    budget: (f64, f64),
    (nv, na, nt): (usize, usize, usize),
) -> String {
    let lo = 0.82 + 0.04 * rng.unit();
    let vdd = axis(nv, lo, lo + 0.3);
    let act = axis(na, 0.45 + 0.1 * rng.unit(), 1.0);
    let amb = axis(nt, 300.0, 330.0 + 10.0 * rng.unit());
    steady_line(floorplan, None, budget, &vdd, &act, &amb)
}

fn hot_dense(rng: &mut Rng) -> Corpus {
    const PLANS: usize = 8;
    const SHAPES: [(usize, usize); PLANS] = [
        (8, 8),
        (7, 9),
        (9, 7),
        (8, 8),
        (8, 8),
        (7, 9),
        (9, 7),
        (8, 8),
    ];
    // 12 to 48 scenarios: (vdd, activity, ambient) counts.
    const AXES: [(usize, usize, usize); 8] = [
        (6, 2, 1),
        (4, 2, 2),
        (5, 2, 2),
        (4, 3, 2),
        (8, 3, 1),
        (8, 2, 2),
        (6, 3, 2),
        (8, 3, 2),
    ];
    let sizes = die_sizes(rng, PLANS, 1150, 1250);
    let mut preamble = Vec::new();
    let mut templates = Vec::new();
    let mut weights = Vec::new();
    let mut plan_budgets = Vec::new();
    for (i, (&(rows, cols), &size)) in SHAPES.iter().zip(&sizes).enumerate() {
        preamble.push(Preamble::Floorplan(floorplan_line(
            &format!("h{i}"),
            rows,
            cols,
            size.0,
            size.1,
        )));
        plan_budgets.push(budgets(rng, area_mm2(size), (0.95, 1.05), (0.28, 0.32)));
    }
    // Two named bases per floorplan: 16 result-cache entries, well
    // inside the 32-entry cache.
    let mut base_names = Vec::new();
    for (i, &budget) in plan_budgets.iter().enumerate() {
        for j in 0..2 {
            let name = format!("b{i}x{j}");
            let vdd = axis(4, 0.85, 1.15);
            let act = axis(2, 0.5, 1.0);
            let amb = axis(2, 300.0, 300.0 + 20.0 * (j + 1) as f64);
            templates.push(steady_line(
                &format!("h{i}"),
                Some(&name),
                budget,
                &vdd,
                &act,
                &amb,
            ));
            weights.push(0.0);
            preamble.push(Preamble::Base(templates.len() - 1));
            base_names.push(name);
        }
    }
    for k in 0..48 {
        let i = k % PLANS;
        templates.push(sweep_line(
            rng,
            &format!("h{i}"),
            plan_budgets[i],
            AXES[(k + k / PLANS) % AXES.len()],
        ));
        weights.push(0.60 / 48.0);
    }
    let mut warm = Vec::new();
    for k in 0..32 {
        let base = &base_names[k % base_names.len()];
        let line = if k % 2 == 0 {
            let lo = 0.85 + 0.1 * rng.unit();
            let vdd = axis(2 + k % 5, lo, lo + 0.2);
            format!(
                r#"{{"type": "delta", "base": "{base}", "vdd_scales": {}}}"#,
                list(&vdd)
            )
        } else {
            let amb = axis(1 + k % 3, 305.0, 330.0 + 5.0 * rng.unit());
            format!(
                r#"{{"type": "delta", "base": "{base}", "ambients_k": {}}}"#,
                list(&amb)
            )
        };
        templates.push(line);
        weights.push(0.25 / 32.0);
        // Setup fills the result cache: one delta per base.
        if k < base_names.len() {
            warm.push(templates.len() - 1);
        }
    }
    for k in 0..16 {
        let i = k % PLANS;
        let (dynamic, leakage) = plan_budgets[i];
        let tolerance = [0.02, 0.05][k / PLANS];
        templates.push(format!(
            r#"{{"type": "envelope", "floorplan": "h{i}", "dynamic_w": {dynamic}, "leakage_w": {leakage}, "activities": [0.5, 1], "ambients_k": [300, 340], "axis": "vdd_scale", "lo": 0.5, "hi": 3, "tolerance": {tolerance}}}"#
        ));
        weights.push(0.15 / 16.0);
    }
    Corpus {
        workload: Workload::HotDense,
        preamble,
        templates,
        warm,
        weights,
    }
}

fn churn_mixed(rng: &mut Rng) -> Corpus {
    const PLANS: usize = 64;
    const DT_S: [f64; 3] = [5e-5, 1e-4, 2e-4];
    // 4 to 8 scenarios and 30 steps: the cheap (cache-hit) jobs stay
    // alike, so the median line sits inside their mode rather than on
    // the edge between hits and misses.
    const AXES: [(usize, usize, usize); 4] = [(4, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1)];
    const STEPS: usize = 30;
    let sizes = die_sizes(rng, PLANS, 1000, 1200);
    let mut preamble = Vec::new();
    let mut templates = Vec::new();
    let mut weights = Vec::new();
    let mut warm = Vec::new();
    // Plan `r` is the (r+1)-th most popular: Zipf(s = 1) over ranks.
    // Block counts cycle through every rows × cols in 4..=7 so each
    // popularity band holds the same mix of sizes.
    for (r, &size) in sizes.iter().enumerate() {
        let name = format!("c{r}");
        let (rows, cols) = (4 + r % 4, 4 + (r / 4 + r) % 4);
        preamble.push(Preamble::Floorplan(floorplan_line(
            &name, rows, cols, size.0, size.1,
        )));
        let budget = budgets(rng, area_mm2(size), (0.55, 0.65), (0.10, 0.12));
        let (dynamic, leakage) = budget;
        let popularity = 1.0 / (r + 1) as f64;
        let first = templates.len();
        templates.push(sweep_line(rng, &name, budget, AXES[r % AXES.len()]));
        weights.push(0.45 * popularity);
        for dt in DT_S {
            templates.push(format!(
                r#"{{"type": "transient", "floorplan": "{name}", "dynamic_w": {dynamic}, "leakage_w": {leakage}, "vdd_scales": [0.9, 1.1], "dt_s": {dt}, "steps": {STEPS}, "waveforms": ["step", {{"square": {{"frequency": 2000, "duty": 0.5}}}}]}}"#
            ));
            weights.push(0.40 / DT_S.len() as f64 * popularity);
        }
        let hot_k = 330.0 + (5.0 * rng.unit()).round();
        templates.push(format!(
            r#"{{"type": "map", "floorplan": "{name}", "dynamic_w": {dynamic}, "leakage_w": {leakage}, "ambients_k": [300, {hot_k}], "grid": {{"nx": 64, "ny": 64}}}}"#
        ));
        weights.push(0.15 * popularity);
        // Setup warms every artifact of the 8 most popular floorplans.
        if r < 8 {
            warm.extend(first..templates.len());
        }
    }
    Corpus {
        workload: Workload::ChurnMixed,
        preamble,
        templates,
        warm,
        weights,
    }
}

fn spectral_large(rng: &mut Rng) -> Corpus {
    const GRIDS: [(usize, usize); 4] = [(32, 32), (32, 48), (48, 32), (48, 48)];
    // 4 to 16 scenarios.
    const AXES: [(usize, usize, usize); 8] = [
        (4, 1, 1),
        (2, 2, 1),
        (3, 2, 1),
        (4, 2, 1),
        (8, 1, 1),
        (3, 3, 1),
        (6, 2, 1),
        (8, 2, 1),
    ];
    let sizes = die_sizes(rng, GRIDS.len(), 2800, 3200);
    let mut preamble = Vec::new();
    let mut templates = Vec::new();
    let mut warm = Vec::new();
    for (i, (&(rows, cols), &size)) in GRIDS.iter().zip(&sizes).enumerate() {
        let name = format!("s{i}");
        preamble.push(Preamble::Floorplan(floorplan_line(
            &name, rows, cols, size.0, size.1,
        )));
        let budget = budgets(rng, area_mm2(size), (0.55, 0.65), (0.10, 0.12));
        for &axes in &AXES {
            templates.push(sweep_line(rng, &name, budget, axes));
        }
        // Setup builds every floorplan's spectral operator, largest
        // first so two workers finish the builds together.
        warm.insert(0, templates.len() - 1);
    }
    let weights = vec![1.0; templates.len()];
    Corpus {
        workload: Workload::SpectralLarge,
        preamble,
        templates,
        warm,
        weights,
    }
}
