//! The workloads' set-up, timed regions and output checks.
//!
//! Timed regions call the public API a user's sweep goes through and
//! nothing else; every check runs outside them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tbp_core::scenario::{load_toml_file, BatchReport, FsCache, Runner, ScenarioSpec};
use tbp_obs::metrics::MetricsRegistry;
use tbp_sweepd::{
    CoordConfig, CoordMetrics, Coordinator, Worker, WorkerConfig, WorkerMetrics, WorkerOutcome,
};

use crate::gen::{self, Shape};
use crate::stats::{cpu_s, sha256_hex};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Lanes of the `manycore_lanes` runner.
pub const LANES: usize = 8;
/// Warm passes over the whole batch in one timed `warm_rerun` region.
pub const WARM_PASSES: usize = 5;
/// Workers of `sweepd_2w`.
pub const SWEEP_WORKERS: usize = 2;

/// SHA-256 of each workload's CSV at [`gen::DEFAULT_SEED`], produced by the
/// plain path (sequential, one lane, no cache). Regenerate with
/// `--reference` after a change that is meant to alter report bytes.
pub fn reference_sha(workload: &str) -> Option<&'static str> {
    Some(match workload {
        "paper_sweep" => "7e6a0bc0d247afacc3c429a63aaa04eae53cdb86e4da505ca439dff11ed902dc",
        "manycore_lanes" => "5686db002ab2d21e7861b700b78951dc7c6c55d027a079be15594fcc32555848",
        "warm_rerun" => "7419a898a1a271d6a1686f8fd19312e8f1dd63c084ee113b16577134576105b3",
        "sweepd_2w" => "47c3286ce14e18d893800e7fec0b70721b7ab10f7c7f9167b7e64de01c3108f2",
        _ => return None,
    })
}

/// Set-ups repeat in blocks; a block counts the median of its repetitions
/// and `setup_s` is the median block. A block repeats at least `.0` times
/// and for at least `.1`.
pub fn setup_block(workload: &str) -> (usize, Duration) {
    match workload {
        "warm_rerun" => (3, Duration::ZERO),
        "sweepd_2w" => (5, Duration::from_millis(250)),
        _ => (5, Duration::from_millis(25)),
    }
}

/// Whether a block of set-ups runs before every timed region, so the
/// blocks meet the host in the states the regions meet, or once up front:
/// a cold fill or a coordinator bind is too slow to repeat that often.
pub fn setup_every_region(workload: &str) -> bool {
    !matches!(workload, "warm_rerun" | "sweepd_2w")
}

/// One workload, set up: the loaded spec and what the timed region reuses.
pub struct Prepared {
    pub workload: &'static str,
    pub specs: Vec<ScenarioSpec>,
    pub shape: Shape,
    /// `warm_rerun`: the cache its cold fill wrote, and the fill's CSV.
    pub warm: Option<(Arc<FsCache>, String)>,
    /// `sweepd_2w`: a bound coordinator and its connected-to-be workers.
    pub sweep: Option<Sweep>,
}

/// Generates the seed's scenario TOML and returns the path of its file in
/// `work`. One seed's text never changes, so only the first call writes the
/// file: a set-up generates, loads and expands, and a write would time the
/// shared disk's journal instead.
pub fn write_toml(workload: &str, seed: u64, work: &Path) -> Res<PathBuf> {
    let text = gen::scenario_toml(workload, seed).ok_or("unknown workload")?;
    let path = work.join(format!("{workload}.toml"));
    if !path.exists() {
        std::fs::write(&path, text)?;
    }
    Ok(path)
}

/// Checks the expansion against the workload's fixed shape.
pub fn check_shape(workload: &str, specs: &[ScenarioSpec]) -> Res<Shape> {
    let shape = gen::shape(workload).ok_or("unknown workload")?;
    let cases: usize = specs.iter().map(|s| s.expand().len()).sum();
    if cases != shape.cases {
        return Err(format!(
            "{workload}: expanded {cases} cases, expected {}",
            shape.cases
        )
        .into());
    }
    Ok(shape)
}

/// Everything before the timed region: generate, write, load and expand
/// the scenario, plus the cold fill (`warm_rerun`) or the coordinator bind
/// and worker set-up (`sweepd_2w`). `rep` keeps each repetition's files
/// apart.
pub fn set_up(workload: &'static str, seed: u64, work: &Path, rep: usize) -> Res<Prepared> {
    let path = write_toml(workload, seed, work)?;
    let specs = vec![load_toml_file(&path)?];
    let shape = check_shape(workload, &specs)?;
    let mut prepared = Prepared {
        workload,
        specs,
        shape,
        warm: None,
        sweep: None,
    };
    match workload {
        "warm_rerun" => {
            let cache = Arc::new(FsCache::open(work.join(format!("cold-{rep}")))?);
            let runner = Runner::sequential().with_cache_arc(cache.clone());
            let csv = runner.run(&prepared.specs)?.to_csv();
            if runner.stats().simulated != shape.cases as u64 {
                return Err("warm_rerun: the cold fill was not cold".into());
            }
            prepared.warm = Some((cache, csv));
        }
        "sweepd_2w" => prepared.sweep = Some(Sweep::bind(&prepared.specs, None)?),
        _ => {}
    }
    Ok(prepared)
}

/// A bound coordinator and the workers that will serve it.
pub struct Sweep {
    coordinator: Coordinator,
    workers: Vec<Worker>,
}

impl Sweep {
    /// Binds a coordinator on a loopback port and prepares the workers:
    /// each a sequential runner with no cache, default configs, no faults.
    pub fn bind(specs: &[ScenarioSpec], metrics: Option<&MetricsRegistry>) -> Res<Sweep> {
        let config = CoordConfig {
            // A safety net so a hang ends the run; a healthy batch finishes
            // in seconds.
            completion_timeout: Some(Duration::from_secs(120)),
            ..CoordConfig::default()
        };
        let mut coordinator = Coordinator::bind("127.0.0.1:0", specs, config)?;
        if let Some(registry) = metrics {
            coordinator = coordinator.with_metrics(CoordMetrics::register(registry));
        }
        let addr = coordinator.local_addr()?.to_string();
        let mut workers = Vec::with_capacity(SWEEP_WORKERS);
        for _ in 0..SWEEP_WORKERS {
            let mut worker = Worker::new(
                addr.clone(),
                specs,
                Runner::sequential(),
                WorkerConfig::default(),
            )?;
            if let Some(registry) = metrics {
                worker = worker.with_metrics(WorkerMetrics::register(registry));
            }
            workers.push(worker);
        }
        Ok(Sweep {
            coordinator,
            workers,
        })
    }

    /// Serves the batch: workers on their own threads, the coordinator on
    /// this one. Returns the merged report once every worker has ended.
    pub fn run(self) -> Res<BatchReport> {
        let Sweep {
            coordinator,
            workers,
        } = self;
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|worker| scope.spawn(move || worker.run()))
                .collect();
            let merged = coordinator.run();
            for handle in handles {
                match handle.join() {
                    Ok(Ok(WorkerOutcome::Served { .. })) => {}
                    Ok(Ok(other)) => return Err(format!("worker ended as {other:?}").into()),
                    Ok(Err(e)) => return Err(format!("worker failed: {e}").into()),
                    Err(_) => return Err("worker thread panicked".into()),
                }
            }
            Ok(merged?)
        })
    }
}

/// One timed region: its host and CPU time and the CSV of every batch it
/// produced (an `Err` for a batch that failed).
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub outputs: Vec<Result<String, String>>,
    /// A problem the outputs cannot show, such as a warm pass that missed.
    pub fault: Option<String>,
}

/// Runs one timed region of `p`. `iter` keeps each region's files apart.
pub fn timed_region(p: &mut Prepared, work: &Path, iter: usize) -> Res<Timed> {
    let cases = p.shape.cases as u64;
    match p.workload {
        "paper_sweep" => {
            let dir = work.join(format!("cache-{iter}"));
            let runner = Runner::sequential().with_cache(FsCache::open(&dir)?);
            let (wall_s, cpu_s, csv) = measure(|| runner.run(&p.specs).map(|b| b.to_csv()));
            let stats = runner.stats();
            let fault = (stats.simulated != cases || stats.cache_hits != 0)
                .then(|| format!("paper_sweep: expected a cold cache, got {stats:?}"));
            std::fs::remove_dir_all(&dir)?;
            Ok(Timed {
                wall_s,
                cpu_s,
                outputs: vec![csv.map_err(|e| e.to_string())],
                fault,
            })
        }
        "manycore_lanes" => {
            let runner = Runner::sequential().with_lanes(LANES);
            let (wall_s, cpu_s, csv) = measure(|| runner.run(&p.specs).map(|b| b.to_csv()));
            Ok(Timed {
                wall_s,
                cpu_s,
                outputs: vec![csv.map_err(|e| e.to_string())],
                fault: None,
            })
        }
        "warm_rerun" => {
            let (cache, _) = p.warm.as_ref().ok_or("warm_rerun was not set up")?;
            let runner = Runner::sequential().with_cache_arc(cache.clone());
            let (wall_s, cpu_s, outputs) = measure(|| {
                (0..WARM_PASSES)
                    .map(|_| {
                        runner
                            .run(&p.specs)
                            .map(|b| b.to_csv())
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Vec<_>>()
            });
            let stats = runner.stats();
            let fault = (stats.cache_hits != cases * WARM_PASSES as u64 || stats.misses() != 0)
                .then(|| format!("warm_rerun: expected every lookup to hit, got {stats:?}"));
            Ok(Timed {
                wall_s,
                cpu_s,
                outputs,
                fault,
            })
        }
        "sweepd_2w" => {
            let sweep = match p.sweep.take() {
                Some(sweep) => sweep,
                None => Sweep::bind(&p.specs, None)?,
            };
            let (wall_s, cpu_s, merged) = measure(|| sweep.run().map(|b| b.to_csv()));
            Ok(Timed {
                wall_s,
                cpu_s,
                outputs: vec![merged.map_err(|e| e.to_string())],
                fault: None,
            })
        }
        other => Err(format!("unknown workload `{other}`").into()),
    }
}

/// Host seconds, CPU seconds and result of `f`.
fn measure<T>(f: impl FnOnce() -> T) -> (f64, f64, T) {
    let cpu0 = cpu_s();
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let wall = start.elapsed().as_secs_f64();
    (wall, cpu_s() - cpu0, out)
}

/// The plain path every other path must match byte for byte: sequential,
/// one lane, no cache.
pub fn plain_csv(specs: &[ScenarioSpec]) -> Res<String> {
    Ok(Runner::sequential().run(specs)?.to_csv())
}

/// Output digests collected while timing; compared with the reference
/// after the timed regions end.
#[derive(Default)]
pub struct Outputs {
    /// The first successful output, kept to attribute a mismatch to rows.
    first: Option<String>,
    /// SHA-256 of each output, or its error.
    digests: Vec<Result<String, String>>,
}

impl Outputs {
    pub fn record(&mut self, output: Result<String, String>) {
        let digest = output.as_ref().map(|csv| sha256_hex(csv.as_bytes()));
        if let (Ok(csv), None) = (&output, &self.first) {
            self.first = Some(csv.clone());
        }
        if let Err(e) = &output {
            eprintln!("perfbench: a batch failed: {e}");
        }
        self.digests.push(digest.map_err(|e| e.clone()));
    }

    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Failed operations among `cases` per output. The reference is the
    /// stored digest at the default seed, else the plain path's bytes; the
    /// plain path runs (through `plain`) only when it is needed.
    pub fn failures(
        &self,
        workload: &str,
        seed: u64,
        cases: usize,
        plain: impl FnOnce() -> Res<String>,
    ) -> usize {
        let stored = (seed == gen::DEFAULT_SEED)
            .then(|| reference_sha(workload))
            .flatten();
        let all_match = |sha: &str| self.digests.iter().all(|d| d.as_deref() == Ok(sha));
        if stored.is_some_and(all_match) {
            return 0;
        }
        let reference = match plain() {
            Ok(csv) => csv,
            Err(e) => {
                eprintln!("perfbench: the plain path failed: {e}");
                return cases * self.len();
            }
        };
        let ref_sha = sha256_hex(reference.as_bytes());
        if let Some(stored) = stored.filter(|s| *s != ref_sha) {
            eprintln!(
                "perfbench: {workload}: the plain path's CSV (sha256 {ref_sha}) is not the \
                 recorded reference ({stored}); every operation counts as failed"
            );
            return cases * self.len();
        }
        let first_sha = self.first.as_ref().map(|csv| sha256_hex(csv.as_bytes()));
        self.digests
            .iter()
            .map(|digest| match digest {
                Ok(sha) if *sha == ref_sha => 0,
                // Row attribution needs the text, kept for the first output.
                Ok(sha) if Some(sha) == first_sha.as_ref() => {
                    failed_rows(self.first.as_deref().unwrap_or(""), &reference, cases)
                }
                _ => cases,
            })
            .sum()
    }
}

/// Scenario rows of `out` that differ from `reference` (at least one when
/// the documents differ at all, all of them when the headers differ).
fn failed_rows(out: &str, reference: &str, cases: usize) -> usize {
    if out == reference {
        return 0;
    }
    let mut o = out.lines();
    let mut r = reference.lines();
    if o.next() != r.next() {
        return cases;
    }
    let (o, r): (Vec<&str>, Vec<&str>) = (o.collect(), r.collect());
    let differing = (0..cases).filter(|&i| o.get(i) != r.get(i)).count();
    differing.clamp(1, cases)
}

#[cfg(test)]
mod tests {
    use super::failed_rows;

    #[test]
    fn failed_rows_attributes_a_difference_to_rows() {
        let reference = "h\na,1\nb,2\nc,3\n";
        assert_eq!(failed_rows(reference, reference, 3), 0);
        assert_eq!(failed_rows("h\na,1\nb,9\nc,3\n", reference, 3), 1);
        assert_eq!(failed_rows("h\na,1\nb,2\n", reference, 3), 1);
        assert_eq!(failed_rows("h\na,1\nb,2\nc,3", reference, 3), 1);
        assert_eq!(failed_rows("x\na,1\nb,2\nc,3\n", reference, 3), 3);
    }
}
