//! Offline shim for the subset of `criterion` this workspace's benches use.
//!
//! Implements real wall-clock measurement (adaptive batch sizing, multiple
//! samples, median-of-samples reporting) behind criterion's builder API:
//! `Criterion`, `BenchmarkGroup`, `BenchmarkId`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros. Supports the CLI surface
//! cargo and CI rely on: a positional substring filter, `--test` (run each
//! benchmark body once, no timing — the smoke mode), and ignores the
//! `--bench` flag cargo passes to `harness = false` targets.

use std::fmt::Write as _;
use std::hint::black_box as std_black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Re-export so `criterion::black_box` callers work.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

#[derive(Clone)]
struct RunConfig {
    filter: Option<String>,
    test_mode: bool,
}

static RUN_CONFIG: Mutex<Option<RunConfig>> = Mutex::new(None);

/// One measured benchmark: id and median ns/iter. Exposed so harness code
/// (e.g. JSON emitters) can post-process a run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    pub id: String,
    pub ns_per_iter: f64,
    pub samples: usize,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// Parse CLI args; called by `criterion_main!`.
pub fn init_from_args() {
    let mut cfg = RunConfig {
        filter: None,
        test_mode: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => cfg.test_mode = true,
            s if s.starts_with('-') => {} // --bench, --verbose, ... : ignore
            s => cfg.filter = Some(s.to_string()),
        }
    }
    *RUN_CONFIG.lock().unwrap() = Some(cfg);
}

fn run_config() -> RunConfig {
    RUN_CONFIG.lock().unwrap().clone().unwrap_or(RunConfig {
        filter: None,
        test_mode: false,
    })
}

/// All results measured so far in this process.
pub fn all_results() -> Vec<BenchResult> {
    RESULTS.lock().unwrap().clone()
}

/// Print a one-line run summary; called by `criterion_main!` at exit.
pub fn final_summary() {
    let results = RESULTS.lock().unwrap();
    if run_config().test_mode {
        eprintln!(
            "criterion-shim: smoke mode, {} benchmarks executed",
            results.len()
        );
    } else {
        eprintln!("criterion-shim: {} benchmarks measured", results.len());
    }
}

/// Identifier `function/parameter`, as in criterion.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Accept both `&str` and `BenchmarkId` where criterion does.
pub trait IntoBenchmarkId {
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

#[derive(Clone)]
struct MeasureConfig {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            sample_size: 10,
            measurement_time: Duration::from_millis(400),
        }
    }
}

#[derive(Default)]
pub struct Criterion {
    cfg: MeasureConfig,
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.cfg.sample_size = n.max(2);
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.cfg.measurement_time = d;
        self
    }

    pub fn warm_up_time(self, _d: Duration) -> Self {
        self
    }

    pub fn noise_threshold(self, _t: f64) -> Self {
        self
    }

    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            cfg: self.cfg.clone(),
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(id.into_id(), &self.cfg, f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    cfg: MeasureConfig,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.cfg.sample_size = n.max(2);
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.cfg.measurement_time = d;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_id());
        run_benchmark(full, &self.cfg, &mut f);
        self
    }

    pub fn bench_with_input<P: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &P,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &P),
    {
        let full = format!("{}/{}", self.name, id.id);
        run_benchmark(full, &self.cfg, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    test_mode: bool,
    cfg: MeasureConfig,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measure `f`, criterion-style: warm up, pick a batch size targeting
    /// ~`measurement_time / sample_size` per batch, record per-iteration
    /// wall time for each batch.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.test_mode {
            std_black_box(f());
            return;
        }
        // Warm-up and batch-size calibration.
        let t0 = Instant::now();
        std_black_box(f());
        let mut once = t0.elapsed().as_nanos().max(1) as f64;
        if once < 1_000.0 {
            // Too fast to trust one call: time a tight block of 64.
            let t = Instant::now();
            for _ in 0..64 {
                std_black_box(f());
            }
            once = (t.elapsed().as_nanos() as f64 / 64.0).max(1.0);
        }
        let budget = self.cfg.measurement_time.as_nanos() as f64;
        let samples = self.cfg.sample_size.max(2);
        let per_batch = (budget / samples as f64 / once).clamp(1.0, 1e9) as u64;

        let deadline = Instant::now() + self.cfg.measurement_time;
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..per_batch {
                std_black_box(f());
            }
            self.samples_ns
                .push(t.elapsed().as_nanos() as f64 / per_batch as f64);
            if Instant::now() > deadline {
                break;
            }
        }
    }

    /// `iter_batched` collapses to `iter` with fresh setup per batch.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut f: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        self.iter(|| f(setup()));
    }
}

pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: String, cfg: &MeasureConfig, mut f: F) {
    let run = run_config();
    if let Some(filter) = &run.filter {
        if !id.contains(filter.as_str()) {
            return;
        }
    }
    let mut bencher = Bencher {
        test_mode: run.test_mode,
        cfg: cfg.clone(),
        samples_ns: Vec::new(),
    };
    f(&mut bencher);
    if run.test_mode {
        eprintln!("test {id} ... ok");
        return;
    }
    let samples = bencher.samples_ns.len();
    let ns = median(&mut bencher.samples_ns);
    let mut line = String::new();
    let _ = write!(
        line,
        "{id:<48} time: {:>12}/iter ({samples} samples)",
        format_ns(ns)
    );
    eprintln!("{line}");
    RESULTS.lock().unwrap().push(BenchResult {
        id,
        ns_per_iter: ns,
        samples,
    });
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::init_from_args();
            $($group();)+
            $crate::final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        init_from_args();
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10));
        c.bench_function("shim_smoke", |b| b.iter(|| black_box(3u64.pow(7))));
        assert!(all_results().iter().any(|r| r.id == "shim_smoke"));
    }

    #[test]
    fn group_ids_are_namespaced() {
        init_from_args();
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10));
        let mut g = c.benchmark_group("grp");
        g.bench_with_input(BenchmarkId::new("f", 4), &4usize, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        g.finish();
        assert!(all_results().iter().any(|r| r.id == "grp/f/4"));
    }

    #[test]
    fn median_of_odd_set() {
        let mut xs = vec![5.0, 1.0, 9.0];
        assert_eq!(median(&mut xs), 5.0);
    }
}
