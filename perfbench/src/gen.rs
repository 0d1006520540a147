//! Seeded scenario generation.
//!
//! Each workload is one TOML document produced from the workload seed. A
//! seed varies only values — thresholds, `dag`/`video-analytics`/synthetic
//! generator seeds and the order of the policy axis — never the case count,
//! the step count or the platform, so the figures of two seeds compare. The
//! program sees nothing but the generated text, loaded through
//! `load_toml_file`.

use std::fmt::Write as _;

/// Seed the stored reference digests were produced with.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning; a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_080_310;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper_sweep", "manycore_lanes", "warm_rerun", "sweepd_2w"];

const POLICIES: [&str; 3] = ["thermal-balancing", "stop-and-go", "energy-balancing"];

/// Sizes of one workload's scenario: the shape a seed may not change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Expanded cases per batch.
    pub cases: usize,
    /// Co-simulation steps per case.
    pub steps_per_case: u64,
}

/// SplitMix64: a tiny, fixed generator owned by the benchmark, so a change
/// to the program's own PRNG cannot change the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A generator seed small enough for any TOML integer reader.
    fn small_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_007
    }
}

/// `count` distinct thresholds from the 0.25 °C grid over 1–4 °C, in
/// seed-drawn order.
fn thresholds(rng: &mut Rng, count: usize) -> Vec<f64> {
    let mut grid: Vec<f64> = (0..=12).map(|k| 1.0 + 0.25 * f64::from(k)).collect();
    rng.shuffle(&mut grid);
    grid.truncate(count);
    grid
}

/// `count` distinct generator seeds.
fn seeds(rng: &mut Rng, count: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(count);
    while out.len() < count {
        let s = rng.small_seed();
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

fn policies(rng: &mut Rng) -> Vec<&'static str> {
    let mut order = POLICIES.to_vec();
    rng.shuffle(&mut order);
    order
}

fn list<T: std::fmt::Debug>(items: &[T]) -> String {
    let parts: Vec<String> = items.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", parts.join(", "))
}

// The paper's 3-core platform, 5 ms Euler: its 8 s warm-up, then 112 s
// measured, so one sweep is seconds of host time.
const PAPER_WARMUP_S: f64 = 8.0;
const PAPER_DURATION_S: f64 = 112.0;
const PAPER_STEP_MS: f64 = 5.0;

// 32 cores, RK4 at 50 ms: 5 s warm-up + 160 s measured.
const MANY_CORES: usize = 32;
const MANY_WARMUP_S: f64 = 5.0;
const MANY_DURATION_S: f64 = 160.0;
const MANY_STEP_MS: f64 = 50.0;
const MANY_SEEDS: usize = 2;

// Short dag cases: 0.05 s warm-up + 0.1 s measured at 5 ms.
const WARM_WARMUP_S: f64 = 0.05;
const WARM_DURATION_S: f64 = 0.1;
const WARM_THRESHOLDS: usize = 8;
const WARM_SEEDS: usize = 125;

// Default dag cases of about 1 ms of compute each (1 s warm-up + 6 s):
// below the worker's 5 ms poll of its compute thread even on a host running
// at half speed, so per-lease overhead, not compute, sets the pace.
const SWEEPD_WARMUP_S: f64 = 1.0;
const SWEEPD_DURATION_S: f64 = 6.0;
const SWEEPD_THRESHOLDS: usize = 4;
const SWEEPD_SEEDS: usize = 42;

fn steps(warmup: f64, duration: f64, step_ms: f64) -> u64 {
    ((warmup + duration) * 1e3 / step_ms).round() as u64
}

/// The fixed shape of `workload`.
pub fn shape(workload: &str) -> Option<Shape> {
    Some(match workload {
        "paper_sweep" => Shape {
            cases: 2 * 3 * 3 * 4,
            steps_per_case: steps(PAPER_WARMUP_S, PAPER_DURATION_S, PAPER_STEP_MS),
        },
        "manycore_lanes" => Shape {
            cases: 3 * 4 * MANY_SEEDS,
            steps_per_case: steps(MANY_WARMUP_S, MANY_DURATION_S, MANY_STEP_MS),
        },
        "warm_rerun" => Shape {
            cases: 3 * WARM_THRESHOLDS * WARM_SEEDS,
            steps_per_case: steps(WARM_WARMUP_S, WARM_DURATION_S, PAPER_STEP_MS),
        },
        "sweepd_2w" => Shape {
            cases: 2 * 3 * SWEEPD_THRESHOLDS * SWEEPD_SEEDS,
            steps_per_case: steps(SWEEPD_WARMUP_S, SWEEPD_DURATION_S, PAPER_STEP_MS),
        },
        _ => return None,
    })
}

/// The scenario TOML of `workload` at `seed`, or `None` for an unknown
/// workload name.
pub fn scenario_toml(workload: &str, seed: u64) -> Option<String> {
    let mut rng = Rng::new(seed);
    let mut out = format!("# perfbench workload `{workload}`, seed {seed}\n");
    let w = &mut out;
    match workload {
        "paper_sweep" => {
            let gen_seed = rng.small_seed();
            let order = policies(&mut rng);
            let ts = thresholds(&mut rng, 4);
            let _ = writeln!(w, "name = \"paper-sweep\"");
            let _ = writeln!(w, "\n[workload]\nseed = {gen_seed}");
            let _ = writeln!(
                w,
                "\n[workload.dag]\ndepth = 3\nwidth = 3\nskew = 0.8\ntotal_load = 1.5\n\
                 arrivals = \"Bursty\"\nburst = 4"
            );
            let _ = writeln!(
                w,
                "\n[workload.video]\nstreams = 2\ndecode_load = 0.15\ndetect_load = 0.35\n\
                 track_load = 0.25\nsink_load = 0.2"
            );
            schedule(w, PAPER_WARMUP_S, PAPER_DURATION_S, PAPER_STEP_MS, None);
            let _ = writeln!(
                w,
                "\n[sweep]\npackages = [\"MobileEmbedded\", \"HighPerformance\"]\n\
                 workloads = [\"Sdr\", \"Dag\", \"VideoAnalytics\"]\npolicies = {}\nthresholds = {}",
                list(&order),
                list(&ts)
            );
        }
        "manycore_lanes" => {
            let order = policies(&mut rng);
            let ts = thresholds(&mut rng, 4);
            let gen_seeds = seeds(&mut rng, MANY_SEEDS);
            let _ = writeln!(
                w,
                "name = \"manycore-lanes\"\npackage = \"HighPerformance\""
            );
            let _ = writeln!(
                w,
                "\n[platform]\ncores = {MANY_CORES}\nsolver = \"RungeKutta4\""
            );
            let _ = writeln!(
                w,
                "\n[workload]\nkind = \"Synthetic\"\nnum_tasks = {}\nnum_cores = {MANY_CORES}\n\
                 total_fse_load = 16.0",
                2 * MANY_CORES
            );
            // The policy may run no more often than the 50 ms step.
            schedule(
                w,
                MANY_WARMUP_S,
                MANY_DURATION_S,
                MANY_STEP_MS,
                Some(MANY_STEP_MS),
            );
            let _ = writeln!(
                w,
                "\n[sweep]\npolicies = {}\nthresholds = {}\nseeds = {}",
                list(&order),
                list(&ts),
                list(&gen_seeds)
            );
        }
        "warm_rerun" => {
            let order = policies(&mut rng);
            let ts = thresholds(&mut rng, WARM_THRESHOLDS);
            let gen_seeds = seeds(&mut rng, WARM_SEEDS);
            let _ = writeln!(w, "name = \"warm-rerun\"");
            let _ = writeln!(w, "\n[workload]\nkind = \"Dag\"");
            let _ = writeln!(
                w,
                "\n[workload.dag]\ndepth = 2\nwidth = 3\nskew = 0.5\ntotal_load = 1.2\n\
                 arrivals = \"Uniform\""
            );
            schedule(w, WARM_WARMUP_S, WARM_DURATION_S, PAPER_STEP_MS, None);
            let _ = writeln!(
                w,
                "\n[sweep]\npolicies = {}\nthresholds = {}\nseeds = {}",
                list(&order),
                list(&ts),
                list(&gen_seeds)
            );
        }
        "sweepd_2w" => {
            let order = policies(&mut rng);
            let ts = thresholds(&mut rng, SWEEPD_THRESHOLDS);
            let gen_seeds = seeds(&mut rng, SWEEPD_SEEDS);
            let _ = writeln!(w, "name = \"sweepd-2w\"");
            let _ = writeln!(w, "\n[workload]\nkind = \"Dag\"");
            schedule(w, SWEEPD_WARMUP_S, SWEEPD_DURATION_S, PAPER_STEP_MS, None);
            let _ = writeln!(
                w,
                "\n[sweep]\npackages = [\"MobileEmbedded\", \"HighPerformance\"]\n\
                 policies = {}\nthresholds = {}\nseeds = {}",
                list(&order),
                list(&ts),
                list(&gen_seeds)
            );
        }
        _ => return None,
    }
    Some(out)
}

fn schedule(w: &mut String, warmup: f64, duration: f64, step_ms: f64, policy_ms: Option<f64>) {
    let _ = writeln!(
        w,
        "\n[schedule]\nwarmup = {warmup:?}\nduration = {duration:?}\ntime_step_ms = {step_ms:?}"
    );
    if let Some(ms) = policy_ms {
        let _ = writeln!(w, "policy_period_ms = {ms:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbp_core::ScenarioSpec;

    fn steps_of(case: &ScenarioSpec) -> u64 {
        let schedule = case.schedule();
        (case.total_duration().as_secs() / schedule.time_step.as_secs()).round() as u64
    }

    #[test]
    fn same_seed_gives_identical_toml() {
        for workload in WORKLOADS {
            assert_eq!(
                scenario_toml(workload, DEFAULT_SEED),
                scenario_toml(workload, DEFAULT_SEED),
                "{workload}"
            );
        }
    }

    #[test]
    fn another_seed_changes_values_but_not_the_shape() {
        for workload in WORKLOADS {
            let shape = shape(workload).expect("known workload");
            let mut texts = Vec::new();
            for seed in [DEFAULT_SEED, HELD_OUT_SEED, 2, 3] {
                let text = scenario_toml(workload, seed).expect("known workload");
                let spec = ScenarioSpec::from_toml_str(&text).expect("generated TOML loads");
                let cases = spec.expand();
                assert_eq!(cases.len(), shape.cases, "{workload} seed {seed}");
                let platform = format!("{:?}|{:?}", cases[0].platform, cases[0].schedule());
                for case in &cases {
                    assert_eq!(
                        steps_of(case),
                        shape.steps_per_case,
                        "{workload} seed {seed}"
                    );
                    let solver = format!("{:?}", case.platform);
                    assert_eq!(solver, format!("{:?}", cases[0].platform));
                }
                texts.push((
                    platform,
                    text.lines().skip(1).collect::<Vec<_>>().join("\n"),
                ));
            }
            for (platform, body) in &texts[1..] {
                assert_eq!(platform, &texts[0].0, "{workload}: the platform moved");
                assert_ne!(body, &texts[0].1, "{workload}: the seed changed nothing");
            }
        }
    }

    #[test]
    fn seeds_only_move_values() {
        // Same lines, same keys: a seed never adds or drops a TOML entry.
        for workload in WORKLOADS {
            let a = scenario_toml(workload, DEFAULT_SEED).expect("known workload");
            let b = scenario_toml(workload, HELD_OUT_SEED).expect("known workload");
            let keys = |t: &str| -> Vec<String> {
                t.lines()
                    .skip(1)
                    .map(|l| l.split('=').next().unwrap_or("").trim().to_string())
                    .collect()
            };
            assert_eq!(keys(&a), keys(&b), "{workload}");
        }
    }
}
