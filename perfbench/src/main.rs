//! End-to-end host-time benchmark of the OSIRIS simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <unixbench|campaign_boot|campaign_forge> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics on the
//! workload's worker threads; with `--trace 1` it runs each operation
//! single-threaded twice in a row, untraced and then traced, and reports
//! the per-layer metrics plus the tracing overhead. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Diagnostics go to standard error; the traced run's spans go to
//! `target/perfbench/`. See `perfbench/README.md` for the metric
//! definitions and why each workload exists.

osiris_bench::counting_allocator!();

mod campaign_boot;
mod campaign_forge;
mod layers;
mod probe;
mod stats;
mod unixbench;

use std::time::{Duration, Instant};

/// Worker threads for the end-to-end runs: at most the host's cores.
const MAX_WORKERS: usize = 2;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.clamp(1, 120)),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }

    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted (program runs or injections).
    pub attempted: u64,
    /// Operations that did not complete or whose simulated result differs
    /// from the pinned one.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report over the operations' results (`true` when an operation
    /// matched its pin). An empty metric list means a measurement check
    /// failed, which counts as one more failed operation.
    pub fn new(oks: impl IntoIterator<Item = bool>, metrics: Vec<Metric>) -> Report {
        let (mut attempted, mut failed) = (0, u64::from(metrics.is_empty()));
        for ok in oks {
            attempted += 1;
            failed += u64::from(!ok);
        }
        Report {
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v:?}")
}

/// Runs `setup` `reps` times and returns the last result with the median
/// wall time in seconds: set-up cost is reported on its own so that work
/// moved into set-up shows.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// The end-to-end metrics every workload reports from its untraced run.
pub struct EndToEnd {
    /// Simulated syscalls completed in the measured interval.
    pub syscalls: u64,
    /// Per-operation wall times, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations completed in the measured interval (`op_ms.len()` unless
    /// operations are only observable in batches).
    pub ops: u64,
    /// Complete passes over the workload.
    pub passes: u64,
    /// Measured interval.
    pub elapsed: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let (p50, p98) = (stats::median(&self.op_ms), stats::tail(&self.op_ms));
        eprintln!(
            "[perfbench] {} ops in {} passes over {:.3} s; op latency from {} samples, tail at p{:.1}",
            self.ops,
            self.passes,
            self.elapsed,
            self.op_ms.len(),
            stats::tail_percentile(self.op_ms.len())
        );
        vec![
            Metric {
                name: "sim_syscalls_per_s",
                value: self.syscalls as f64 / self.elapsed,
                unit: "1/s",
            },
            Metric {
                name: "ops_per_s",
                value: self.ops as f64 / self.elapsed,
                unit: "1/s",
            },
            Metric {
                name: "op_ms_p50",
                value: p50,
                unit: "ms",
            },
            Metric {
                name: "op_ms_p98",
                value: p98,
                unit: "ms",
            },
            Metric {
                name: "wall_s",
                value: self.elapsed / self.passes as f64,
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: self.setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
        ]
    }
}

/// Peak resident set size of this process (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Hands out operation indices to worker threads in whole passes: once the
/// budget is spent, the next pass is not started, and every started pass
/// runs to its end.
pub struct Dispenser {
    pass_len: usize,
    budget: Duration,
    start: Instant,
    state: std::sync::Mutex<(usize, bool)>,
}

impl Dispenser {
    pub fn new(pass_len: usize, budget: Duration) -> Dispenser {
        Dispenser {
            pass_len,
            budget,
            start: Instant::now(),
            state: std::sync::Mutex::new((0, false)),
        }
    }

    /// The next operation index, or `None` when the run is over.
    pub fn next(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("dispenser lock");
        if st.1 {
            return None;
        }
        if st.0.is_multiple_of(self.pass_len) && st.0 > 0 && self.start.elapsed() >= self.budget {
            st.1 = true;
            return None;
        }
        st.0 += 1;
        Some(st.0 - 1)
    }

    /// Runs `op` over the dispensed indices on `workers` threads; returns
    /// the results in index order and the elapsed wall time.
    pub fn run<T: Send>(
        self,
        workers: usize,
        op: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, f64, usize) {
        let done: std::sync::Mutex<Vec<(usize, T)>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(i) = self.next() {
                        let r = op(i);
                        done.lock().expect("results lock").push((i, r));
                    }
                });
            }
        });
        let elapsed = self.start.elapsed().as_secs_f64();
        let mut done = done.into_inner().expect("results lock");
        done.sort_by_key(|(i, _)| *i);
        let passes = done.len() / self.pass_len;
        (done.into_iter().map(|(_, r)| r).collect(), elapsed, passes)
    }
}

/// A seeded permutation of `0..n` for pass `pass`: the seed fixes the order
/// in which a pass issues its operations, never what they compute.
pub fn permutation(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut rng = osiris_rng::Rng::new(osiris_rng::mix64(seed ^ pass.wrapping_mul(0x9e37_79b9)));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below_usize(i + 1));
    }
    order
}

/// The whitespace-separated fields of each row of a pin table, skipping
/// blank lines and `#` comments.
pub fn pin_rows(table: &str) -> impl Iterator<Item = Vec<&str>> {
    table
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
}

/// Worker threads to use.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_WORKERS)
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    osiris_kernel::install_quiet_panic_hook();
    eprintln!(
        "[perfbench] workload {} seed {} seconds {} trace {} workers {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        workers()
    );
    let report = match args.workload.as_str() {
        "unixbench" => unixbench::run(&args),
        "campaign_boot" => campaign_boot::run(&args),
        "campaign_forge" => campaign_forge::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json());
}
