//! The experiments behind every table and figure of the paper.

use osiris_core::{EscalationPolicy, PolicyKind};
use osiris_faults::{
    campaign::model_label, classify_run, plan_faults, run_parallel, Campaign, DoubleInjector,
    FaultKind, FaultModel, FaultPlan, InjectionRecord, Injector, Outcome, PeriodicCrash, Recorder,
    RecoveryActionTag, SiteProfile, Tally,
};
use osiris_kernel::FaultHook;
use osiris_kernel::{Instrumentation, OsEngine, ProgramRegistry};
use osiris_monolith::Monolith;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{
    default_iters, register_unixbench, run_benchmark_with, run_suite_with, BENCHMARKS,
};

use crate::geomean;

/// The five core servers of Tables I/II/III/VI, in paper order.
pub const SERVERS: [&str; 5] = ["pm", "vfs", "vm", "ds", "rs"];

fn campaign_config(policy: PolicyKind) -> OsConfig {
    OsConfig {
        policy,
        // A smaller frame pool keeps stateless-restart image copies cheap
        // during the thousands of campaign runs; recovery semantics are
        // unaffected.
        vm_frames: 8192,
        ..Default::default()
    }
}

/// Campaign config for injected runs: flight-record quietly (small ring,
/// kernel auto-dump off) so a run that ends in an uncontrolled crash can
/// hand its trace tail to the campaign observer's black-box dump.
fn injection_config(policy: PolicyKind) -> OsConfig {
    let mut cfg = campaign_config(policy);
    cfg.trace = osiris_trace::TraceConfig {
        enabled: true,
        capacity: 2048,
        blackbox_tail: 0,
        ..Default::default()
    };
    // Retain the axiom so each injection's MTTR can be decomposed into its
    // recovery critical path (detect → execute → replay) after the run.
    cfg.axiom = osiris_axiom::AxiomConfig::on();
    cfg
}

// ---------------------------------------------------------------------
// Table I: recovery coverage
// ---------------------------------------------------------------------

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct CoverageRow {
    /// Server name.
    pub server: String,
    /// Coverage (%) under the pessimistic policy.
    pub pessimistic: f64,
    /// Coverage (%) under the enhanced policy.
    pub enhanced: f64,
}

/// Table I: percentage of execution spent inside recovery windows.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Per-server rows.
    pub rows: Vec<CoverageRow>,
    /// Mean weighted by time spent running each server (pessimistic).
    pub weighted_pessimistic: f64,
    /// Mean weighted by time spent running each server (enhanced).
    pub weighted_enhanced: f64,
}

fn coverage_run(policy: PolicyKind) -> Vec<(String, f64, u64)> {
    let (_, os) = run_suite_with(campaign_config(policy), None);
    os.reports()
        .into_iter()
        .filter(|r| SERVERS.contains(&r.name))
        .map(|r| {
            (
                r.name.to_string(),
                100.0 * r.window.coverage_by_sites(),
                r.cycles,
            )
        })
        .collect()
}

/// Runs the Table I experiment: the prototype test suite under each OSIRIS
/// policy, counting instrumentation sites (basic-block analogs) executed
/// inside vs outside recovery windows.
pub fn table1() -> Table1 {
    let pess = coverage_run(PolicyKind::Pessimistic);
    let enh = coverage_run(PolicyKind::Enhanced);
    let mut rows = Vec::new();
    let mut wp = 0.0;
    let mut we = 0.0;
    let mut cycles_p = 0.0;
    let mut cycles_e = 0.0;
    for server in SERVERS {
        let (pc, pw) = pess
            .iter()
            .find(|(n, _, _)| n == server)
            .map(|(_, c, w)| (*c, *w as f64))
            .unwrap_or((0.0, 0.0));
        let (ec, ew) = enh
            .iter()
            .find(|(n, _, _)| n == server)
            .map(|(_, c, w)| (*c, *w as f64))
            .unwrap_or((0.0, 0.0));
        wp += pc * pw;
        cycles_p += pw;
        we += ec * ew;
        cycles_e += ew;
        rows.push(CoverageRow {
            server: server.to_string(),
            pessimistic: pc,
            enhanced: ec,
        });
    }
    Table1 {
        rows,
        weighted_pessimistic: if cycles_p > 0.0 { wp / cycles_p } else { 0.0 },
        weighted_enhanced: if cycles_e > 0.0 { we / cycles_e } else { 0.0 },
    }
}

impl Table1 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table I: recovery coverage (% of executed sites inside windows)\n");
        out.push_str(&format!(
            "{:<10} {:>12} {:>12}\n",
            "Server", "Pessimistic", "Enhanced"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>12.1} {:>12.1}\n",
                r.server, r.pessimistic, r.enhanced
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>12.1} {:>12.1}\n",
            "weighted", self.weighted_pessimistic, self.weighted_enhanced
        ));
        out
    }
}

// ---------------------------------------------------------------------
// Tables II/III: survivability under fault injection
// ---------------------------------------------------------------------

/// Tables II/III: outcome distribution per recovery policy.
#[derive(Clone, Debug)]
pub struct SurvivabilityTable {
    /// Fault model used.
    pub model: FaultModel,
    /// Number of faults injected (one run each, per policy).
    pub faults: usize,
    /// Outcome tallies, in policy order.
    pub rows: Vec<(PolicyKind, Tally)>,
    /// Per-injection records (site, fault, outcome, recovery action,
    /// latency), in completion order across all policies.
    pub records: Vec<InjectionRecord>,
    /// The campaign observer's final report document — the payload of
    /// `campaign_report.json`.
    pub report: osiris_trace::Json,
}

/// Profiles the suite once (paper: "a separate profiling run to determine
/// which fault candidates actually get triggered") and restricts the sites
/// to the five core servers.
pub fn profile_suite() -> SiteProfile {
    let recorder = Recorder::new();
    let handle = recorder.clone();
    let (_, _) = run_suite_with(
        campaign_config(PolicyKind::Enhanced),
        Some(Box::new(recorder)),
    );
    handle.profile().restrict_to(&SERVERS)
}

/// Runs one survivability campaign: every planned fault, injected in its
/// own fresh run, for each of the four recovery policies.
pub fn survivability(model: FaultModel, threads: usize, seed: u64) -> SurvivabilityTable {
    survivability_for(&PolicyKind::STANDARD, model, threads, seed)
}

/// Runs the benchmark suite once fault-free under the default policy and
/// writes the kernel's metrics registry as Prometheus text plus JSON,
/// rooted at `base` (producing `<base>.prom` and `<base>.json`).
pub fn export_suite_metrics(
    base: &str,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    let (_, os) = run_suite_with(OsConfig::default(), None);
    os.write_metrics(base)
}

/// Like [`survivability`], for an arbitrary policy set (used by the
/// kill-requester ablation of paper §VII).
pub fn survivability_for(
    policies: &[PolicyKind],
    model: FaultModel,
    threads: usize,
    seed: u64,
) -> SurvivabilityTable {
    let profile = profile_suite();
    let plans = plan_faults(&profile, model, seed);
    // Recovery-path models plan *secondary* faults (sites that only execute
    // during a recovery); each run pairs one with a deterministic primary
    // crash that triggers the recovery in the first place.
    let primary =
        matches!(model, FaultModel::DuringRecovery | FaultModel::DoubleFault).then(|| {
            let sites = profile.triggered_sites();
            let site = sites
                .iter()
                .find(|s| s.component == "vfs")
                .or_else(|| sites.first())
                .expect("profiled workload triggered at least one site")
                .clone();
            FaultPlan {
                site,
                kind: FaultKind::Crash,
                transient: true,
            }
        });
    let campaign = Campaign::new(model_label(model), model, plans.len() * policies.len());
    let mut rows = Vec::new();
    for (policy_i, &policy) in policies.iter().enumerate() {
        // Slot-addressed recording: each worker writes its own plan-index
        // slot, so records, axiom chain and report are identical on every
        // thread count.
        let jobs: Vec<_> = plans.iter().cloned().enumerate().collect();
        let campaign = &campaign;
        let primary = &primary;
        let runs = plans.len();
        let outcomes: Vec<Outcome> = run_parallel(jobs, threads, |(idx, plan)| {
            let injector: Box<dyn FaultHook> = match primary {
                Some(p) => Box::new(DoubleInjector::new(p, &plan)),
                None => Box::new(Injector::new(&plan)),
            };
            let (outcome, os) = run_suite_with(injection_config(policy), Some(injector));
            let violations = if outcome.completed() {
                os.audit().len()
            } else {
                0
            };
            let m = os.metrics();
            let class = classify_run(&outcome, violations, m.quarantines);
            // An uncontrolled crash carries its flight-recorder tail so the
            // campaign observer can dump a post-mortem black box.
            let blackbox = (class == Outcome::Crash).then(|| {
                let tail = os.trace_handle().with(|t| t.tail_per_comp(12));
                osiris_trace::render_text(&tail, &os.kernel().trace_names())
            });
            // Join the run's axiom + span metrics into the per-injection
            // MTTR critical path and request-latency split.
            let (critical_path, span_latency_clean, span_latency_recovery) =
                osiris_faults::run_attribution(
                    os.kernel().axiom().records(),
                    &os.metrics_snapshot(),
                );
            campaign.record_at(
                policy_i * runs + idx,
                InjectionRecord {
                    site: plan.site.clone(),
                    kind: plan.kind,
                    policy: policy.to_string(),
                    outcome: class,
                    action: RecoveryActionTag::from_counts(
                        m.recovered_rollback,
                        m.recovered_fresh,
                        m.recovered_quiescent,
                        m.recovered_naive,
                        m.controlled_shutdowns,
                    ),
                    run_cycles: os.kernel().now(),
                    recoveries: m.recovered_rollback
                        + m.recovered_fresh
                        + m.recovered_quiescent
                        + m.recovered_naive,
                    recovery_cycles: m.recovery_cycles,
                    critical_path,
                    span_latency_clean,
                    span_latency_recovery,
                    blackbox,
                },
            );
            class
        });
        rows.push((policy, outcomes.into_iter().collect()));
    }
    SurvivabilityTable {
        model,
        faults: plans.len(),
        rows,
        records: campaign.records(),
        report: campaign.report_json(),
    }
}

impl SurvivabilityTable {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let which = match self.model {
            FaultModel::FailStop => "II (fail-stop faults)",
            FaultModel::TransientFailStop => "II-t (transient fail-stop faults)",
            FaultModel::FullEdfi => "III (full EDFI faults)",
            FaultModel::DuringRecovery => "II-r (faults during recovery)",
            FaultModel::DoubleFault => "II-d (persistent double faults)",
            FaultModel::FailSilent => "II-s (fail-silent faults)",
        };
        let mut out = format!(
            "Table {}: survivability under {} injected faults per policy\n",
            which, self.faults
        );
        out.push_str(&format!(
            "{:<14} {:>8} {:>8} {:>10} {:>12} {:>10} {:>8}\n",
            "Recovery mode", "Pass", "Fail", "Degraded", "Quarantined", "Shutdown", "Crash"
        ));
        for (policy, t) in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>7.1}% {:>7.1}% {:>9.1}% {:>11.1}% {:>9.1}% {:>7.1}%\n",
                policy.to_string(),
                t.pct(t.pass),
                t.pct(t.fail),
                t.pct(t.degraded),
                t.pct(t.quarantined),
                t.pct(t.shutdown),
                t.pct(t.crash)
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Table IV: microkernel baseline vs monolith
// ---------------------------------------------------------------------

/// One Table IV row.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Benchmark name.
    pub bench: String,
    /// Monolith ("Linux") score.
    pub monolith: f64,
    /// OSIRIS baseline (no recovery instrumentation) score.
    pub osiris: f64,
    /// Slowdown factor (monolith / OSIRIS; > 1 means OSIRIS slower).
    pub slowdown: f64,
}

fn ub_registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    register_unixbench(&mut r);
    r
}

fn osiris_engine(policy: PolicyKind, instr: Instrumentation) -> Os {
    Os::new(OsConfig {
        policy,
        instrumentation: instr,
        ..Default::default()
    })
}

fn bench_score<E: OsEngine + Send + 'static>(engine: E, bench: &str, scale: f64) -> f64 {
    let iters = ((default_iters(bench) as f64 * scale) as u64).max(2);
    let r = run_benchmark_with(engine, ub_registry(), bench, iters, false);
    assert!(r.ok, "benchmark {} failed", bench);
    r.score
}

/// Runs Table IV: every Unixbench analog on the monolith and on the
/// uninstrumented OSIRIS baseline. `scale` multiplies iteration counts.
pub fn table4(scale: f64) -> Vec<Table4Row> {
    BENCHMARKS
        .iter()
        .map(|bench| {
            let monolith = bench_score(
                Monolith::with_cost(Default::default(), 64, 65_536),
                bench,
                scale,
            );
            let osiris = bench_score(
                osiris_engine(PolicyKind::Enhanced, Instrumentation::Off),
                bench,
                scale,
            );
            Table4Row {
                bench: bench.to_string(),
                monolith,
                osiris,
                slowdown: monolith / osiris,
            }
        })
        .collect()
}

/// Renders Table IV.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    out.push_str("Table IV: baseline performance vs the monolith (scores, higher is better)\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>10}\n",
        "Benchmark", "Monolith", "OSIRIS", "Slowdown"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>12.1} {:>12.1} {:>9.2}x\n",
            r.bench, r.monolith, r.osiris, r.slowdown
        ));
    }
    let gm = geomean(&rows.iter().map(|r| r.slowdown).collect::<Vec<_>>());
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>9.2}x\n",
        "geomean", "", "", gm
    ));
    out
}

// ---------------------------------------------------------------------
// Table V: recovery-instrumentation slowdown
// ---------------------------------------------------------------------

/// One Table V row: slowdown ratios relative to the uninstrumented
/// baseline (lower is better).
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Benchmark name.
    pub bench: String,
    /// Full instrumentation, never gated (the paper's "Without opt.").
    pub without_opt: f64,
    /// Window-gated, pessimistic policy.
    pub pessimistic: f64,
    /// Window-gated, enhanced policy.
    pub enhanced: f64,
}

/// Runs Table V: each benchmark under baseline / always-on / pessimistic /
/// enhanced instrumentation.
pub fn table5(scale: f64) -> Vec<Table5Row> {
    BENCHMARKS
        .iter()
        .map(|bench| {
            let base = bench_score(
                osiris_engine(PolicyKind::Enhanced, Instrumentation::Off),
                bench,
                scale,
            );
            let noopt = bench_score(
                osiris_engine(PolicyKind::Enhanced, Instrumentation::Always),
                bench,
                scale,
            );
            let pess = bench_score(
                osiris_engine(PolicyKind::Pessimistic, Instrumentation::WindowGated),
                bench,
                scale,
            );
            let enh = bench_score(
                osiris_engine(PolicyKind::Enhanced, Instrumentation::WindowGated),
                bench,
                scale,
            );
            Table5Row {
                bench: bench.to_string(),
                without_opt: base / noopt,
                pessimistic: base / pess,
                enhanced: base / enh,
            }
        })
        .collect()
}

/// Renders Table V.
pub fn render_table5(rows: &[Table5Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table V: slowdown of recovery instrumentation (ratio vs baseline, lower is better)\n",
    );
    out.push_str(&format!(
        "{:<18} {:>13} {:>13} {:>13}\n",
        "Benchmark", "Without opt.", "Pessimistic", "Enhanced"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>13.3} {:>13.3} {:>13.3}\n",
            r.bench, r.without_opt, r.pessimistic, r.enhanced
        ));
    }
    let gm = |f: fn(&Table5Row) -> f64| geomean(&rows.iter().map(f).collect::<Vec<_>>());
    out.push_str(&format!(
        "{:<18} {:>13.3} {:>13.3} {:>13.3}\n",
        "geomean",
        gm(|r| r.without_opt),
        gm(|r| r.pessimistic),
        gm(|r| r.enhanced)
    ));
    out
}

// ---------------------------------------------------------------------
// Table VI: memory overhead
// ---------------------------------------------------------------------

/// One Table VI row, in kilobytes.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// Server name.
    pub server: String,
    /// Resident state after the workload.
    pub base_kb: f64,
    /// Deduplicated store bytes the spare clone image actually adds: each
    /// chunk of the content-addressed pool is charged once, to the first
    /// component referencing it. This is the honest "+clone" cost.
    pub clone_dedup_kb: f64,
    /// Spare clone image under the historical per-copy accounting (what a
    /// non-shared deep copy would cost), kept for comparison.
    pub clone_kb: f64,
    /// Peak undo-log size sampled at window close (equal to the append-time
    /// peak under window-gated instrumentation; excludes out-of-window log
    /// growth under `Always`, which matters for long runs).
    pub undo_kb: f64,
    /// Recovery-latency distribution (virtual cycles per recovery) from the
    /// faulted companion run.
    pub recovery_latency: osiris_trace::HistSummary,
}

impl Table6Row {
    /// Total recovery overhead (deduped clone + undo log).
    pub fn overhead_kb(&self) -> f64 {
        self.clone_dedup_kb + self.undo_kb
    }
}

/// Runs Table VI: the test suite under the enhanced policy at full VM
/// scale, reporting per-server memory. A second, faulted pass (periodic
/// fail-stop crashes in PM) populates the recovery-latency histograms the
/// fault-free memory pass cannot produce.
pub fn table6() -> Vec<Table6Row> {
    let (_, os) = run_suite_with(OsConfig::with_policy(PolicyKind::Enhanced), None);
    let (_, faulted) = {
        let mut cfg = OsConfig::with_policy(PolicyKind::Enhanced);
        cfg.vm_frames = 8192;
        // The periodic-crash companion run measures recovery latency, not
        // the escalation ladder: restart forever so every crash recovers.
        cfg.escalation = EscalationPolicy::unbounded();
        run_suite_with(cfg, Some(Box::new(PeriodicCrash::new("pm", 200_000))))
    };
    let latencies: Vec<(String, osiris_trace::HistSummary)> = faulted
        .reports()
        .into_iter()
        .map(|r| (r.name.to_string(), r.recovery_latency))
        .collect();
    os.reports()
        .into_iter()
        .filter(|r| SERVERS.contains(&r.name))
        .map(|r| Table6Row {
            server: r.name.to_string(),
            base_kb: r.heap_bytes as f64 / 1024.0,
            clone_dedup_kb: r.clone_dedup_bytes as f64 / 1024.0,
            clone_kb: r.clone_bytes as f64 / 1024.0,
            undo_kb: r.undo_window_peak_bytes as f64 / 1024.0,
            recovery_latency: latencies
                .iter()
                .find(|(n, _)| *n == r.name)
                .map(|(_, h)| *h)
                .unwrap_or_default(),
        })
        .collect()
}

/// Renders Table VI.
pub fn render_table6(rows: &[Table6Row]) -> String {
    let mut out = String::new();
    out.push_str("Table VI: per-component memory overhead (kB)\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>14}\n",
        "Server", "Base", "+clone", "(per-copy)", "+undo log", "Total overhead"
    ));
    let mut totals = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>10.1} {:>10.1} {:>12.1} {:>12.1} {:>14.1}\n",
            r.server,
            r.base_kb,
            r.clone_dedup_kb,
            r.clone_kb,
            r.undo_kb,
            r.overhead_kb()
        ));
        totals.0 += r.base_kb;
        totals.1 += r.clone_dedup_kb;
        totals.2 += r.clone_kb;
        totals.3 += r.undo_kb;
        totals.4 += r.overhead_kb();
    }
    out.push_str(&format!(
        "{:<10} {:>10.1} {:>10.1} {:>12.1} {:>12.1} {:>14.1}\n",
        "total", totals.0, totals.1, totals.2, totals.3, totals.4
    ));
    out.push_str(
        "(+clone is the deduplicated content-addressed pool cost; per-copy is the\n \
         historical non-shared accounting kept for comparison)\n",
    );
    out.push_str("\nRecovery latency (virtual cycles, faulted companion run)\n");
    out.push_str(&format!(
        "{:<10} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
        "Server", "n", "min", "p50", "p99", "max"
    ));
    for r in rows {
        let h = &r.recovery_latency;
        if h.count == 0 {
            out.push_str(&format!("{:<10} {:>7}\n", r.server, 0));
        } else {
            out.push_str(&format!(
                "{:<10} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
                r.server, h.count, h.min, h.p50, h.p99, h.max
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 3: service disruption
// ---------------------------------------------------------------------

/// One point of Figure 3.
#[derive(Clone, Debug)]
pub struct Fig3Point {
    /// Benchmark name.
    pub bench: String,
    /// Injection interval in cycles (larger = fewer faults).
    pub interval: u64,
    /// Benchmark score under that fault load.
    pub score: f64,
    /// PM crashes injected during the run.
    pub crashes: u64,
    /// Whether the benchmark completed without functional degradation.
    pub ok: bool,
}

/// Runs Figure 3: each Unixbench analog under periodic fail-stop faults
/// injected into PM inside its recovery window, across the given intervals.
pub fn figure3(intervals: &[u64], scale: f64) -> Vec<Fig3Point> {
    let mut points = Vec::new();
    for bench in BENCHMARKS {
        for &interval in intervals {
            // Figure 3 measures throughput under sustained crash-recover
            // cycles: the escalation ladder must not bench PM mid-run.
            let mut os = Os::new(OsConfig {
                policy: PolicyKind::Enhanced,
                instrumentation: Instrumentation::WindowGated,
                escalation: EscalationPolicy::unbounded(),
                ..Default::default()
            });
            os.set_fault_hook(Box::new(PeriodicCrash::new("pm", interval)));
            let iters = ((default_iters(bench) as f64 * scale) as u64).max(2);
            let r = run_benchmark_with(os, ub_registry(), bench, iters, true);
            points.push(Fig3Point {
                bench: bench.to_string(),
                interval,
                score: r.score,
                crashes: 0, // filled below if the engine were retained
                ok: r.ok,
            });
        }
    }
    points
}

/// Renders Figure 3 as a score matrix (benchmarks × intervals).
pub fn render_figure3(points: &[Fig3Point], intervals: &[u64]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 3: Unixbench score vs service-disruption interval (PM faults in-window)\n",
    );
    out.push_str(&format!("{:<18}", "Benchmark"));
    for i in intervals {
        out.push_str(&format!(" {:>10}", format!("{}k", i / 1000)));
    }
    out.push('\n');
    for bench in BENCHMARKS {
        out.push_str(&format!("{:<18}", bench));
        for &interval in intervals {
            let p = points
                .iter()
                .find(|p| p.bench == bench && p.interval == interval)
                .expect("point computed");
            let marker = if p.ok { ' ' } else { '!' };
            out.push_str(&format!(" {:>9.1}{}", p.score, marker));
        }
        out.push('\n');
    }
    out.push_str("('!' marks runs with functional degradation)\n");
    out
}
