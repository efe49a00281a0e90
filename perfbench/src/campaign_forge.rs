//! `campaign_forge`: the snapshot-fork forge in its `campaign_coverage`
//! configuration (1024-run budget, frontier wave, fail-silent wave under
//! the watchdog config). `ScriptWorkload` drives `OsEngine` directly, so
//! this workload bypasses `Host`: it is dominated by CAS snapshot and
//! re-adoption, O(dirty) restore, recovery and the watchdog.
//!
//! `Forge::run_plan` is opaque from outside, so the traced run replays the
//! plan single-threaded through the engine-boundary wrapper instead: the
//! prefix snapshot pass, then per variant a re-adoption (or fork) of its
//! boundary snapshot, the injected suffix and the post-run sinks. Each
//! replayed record must equal the forge's own.

use std::collections::BTreeMap;
use std::time::Instant;

use osiris_checkpoint::ChunkStore;
use osiris_faults::{
    classify_run, forge_config_fail_silent, run_attribution, DoubleInjector, Forge, ForgeConfig,
    ForgePlan, ForgeVariant, InjectionRecord, Injector, RecoveryActionTag, ScriptWorkload,
};
use osiris_kernel::{FaultHook, NoFaults};
use osiris_servers::{Os, OsSnapshot};

use crate::layers::{traced_pass, Tracer};
use crate::probe::Probed;
use crate::{timed_setup, workers, Args, Dispenser, EndToEnd, Report};

/// Pinned at the benchmark's defining commit: the digest of one sweep's
/// campaign records and its injection count.
const PINS: &str = include_str!("../pins/campaign_forge.tsv");

fn forge() -> Forge {
    Forge::new(ForgeConfig {
        fail_silent_wave: true,
        os_config: forge_config_fail_silent,
        budget: 1024,
        threads: workers(),
        ..ForgeConfig::default()
    })
}

fn pinned() -> (u64, usize) {
    let row = crate::pin_rows(PINS).next().expect("forge pin row");
    let digest = u64::from_str_radix(row[0], 16).expect("hex digest");
    (digest, row[1].parse().expect("injection count"))
}

/// The simulated result of one injection, as pinned and compared.
fn outcome_of(r: &InjectionRecord) -> (String, &'static str, u64) {
    (r.outcome.to_string(), r.action.label(), r.run_cycles)
}

/// FNV-1a over every record's (policy, site, fault kind, outcome class,
/// recovery action, run cycles), in plan order.
fn digest(records: &[InjectionRecord]) -> u64 {
    records.iter().fold(osiris_axiom::CHAIN_SEED, |h, r| {
        let (outcome, action, cycles) = outcome_of(r);
        let line = format!(
            "{}|{}:{}|{}|{outcome}|{action}|{cycles}\n",
            r.policy,
            r.site.component,
            r.site.site,
            osiris_faults::campaign::kind_label(r.kind)
        );
        osiris_axiom::fnv1a(h, line.as_bytes())
    })
}

struct Sweep {
    ok: bool,
    injections: u64,
    stats: osiris_faults::forge::ForgeStats,
    syscalls: u64,
    ns: u64,
}

/// One full forge sweep, checked against the pinned digest and the
/// coverage gates of `campaign_coverage`; returns its records too.
fn sweep(forge: &Forge, plan: &ForgePlan) -> (Sweep, Vec<InjectionRecord>) {
    let t0 = Instant::now();
    let result = forge.run_plan(plan);
    let ns = t0.elapsed().as_nanos() as u64;
    let records = result.campaign.records();
    let report = &result.report;
    let (want_digest, want_injections) = pinned();
    let got = digest(&records);
    let ok = got == want_digest
        && report.injections == want_injections
        && records.len() == want_injections
        && report.dropped == 0
        && report.fail_stop_pct() == 100.0
        && report.fail_silent_hang_pct() == 100.0
        && report.fail_silent_reply_drop_pct() == 100.0;
    if !ok {
        eprintln!(
            "[perfbench] campaign_forge sweep {got:016x} {}: dropped {}, coverage fail-stop {:.1}% \
             hang {:.1}% reply-drop {:.1}%, pinned {want_digest:016x} {want_injections}",
            report.injections,
            report.dropped,
            report.fail_stop_pct(),
            report.fail_silent_hang_pct(),
            report.fail_silent_reply_drop_pct()
        );
    }
    // Each forked run's registry carries its adopted prefix, so its
    // completed request spans count the syscalls of the whole run it
    // stands for, prefix included.
    let syscalls = records
        .iter()
        .map(|r| r.span_latency_clean.count + r.span_latency_recovery.count)
        .sum();
    let sweep = Sweep {
        ok,
        injections: report.injections as u64,
        stats: report.stats,
        syscalls,
        ns,
    };
    (sweep, records)
}

/// Operation id of the spans of the shared prefix pass.
const PREFIX_OP: u64 = u64::MAX;

/// Replay state of the traced run: the boundary snapshots and the worker
/// OS re-adopted across variants.
struct Replay<'a> {
    forge: &'a Forge,
    plan: &'a ForgePlan,
    store: ChunkStore,
    snapshots: BTreeMap<(usize, usize), OsSnapshot>,
    worker: Option<Os>,
}

impl Replay<'_> {
    /// Drives `steps` of the script on `os` through the wrapper.
    fn drive(
        &self,
        t: &mut Tracer,
        op: u64,
        os: Os,
        steps: std::ops::Range<usize>,
    ) -> (Os, osiris_faults::forge::ScriptRun) {
        let traced = t.on;
        let script = *self.forge.script();
        let ((os, run), _) = t.drive("script.run", op, || {
            let mut probed = Probed::new(os, traced);
            let run = script.run_range(&mut probed, steps);
            let counts = probed.counts();
            ((probed.into_inner(), run), counts)
        });
        (os, run)
    }

    /// The forge's prefix pass: per policy, one boot and one clean script
    /// run, snapshotted at every boundary a variant forks from.
    fn snapshot_prefixes(&mut self, t: &mut Tracer) {
        self.release();
        let mut bounds: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for v in &self.plan.variants {
            bounds.entry(v.policy_idx).or_default().push(v.boundary);
        }
        for (policy_idx, mut bs) in bounds {
            bs.sort_unstable();
            bs.dedup();
            let policy = self.forge.config().policies[policy_idx];
            let mut os = t.boot(PREFIX_OP, || Os::new(forge_config_fail_silent(policy)));
            let (mut at, mut prev) = (0, None);
            for b in bs {
                let (next, run) = self.drive(t, PREFIX_OP, os, at..b);
                assert!(
                    run.clean(),
                    "clean prefix under {policy}: {:?}",
                    run.outcome
                );
                os = next;
                let store = &mut self.store;
                let prev_snap = prev.and_then(|k| self.snapshots.get(&k));
                let snap = t.snapshot(PREFIX_OP, || os.snapshot_into(store, prev_snap));
                self.snapshots.insert((policy_idx, b), snap);
                prev = Some((policy_idx, b));
                at = b;
            }
        }
    }

    /// Returns every snapshot's chunks to the store and drops the worker.
    fn release(&mut self) {
        for (_, snap) in std::mem::take(&mut self.snapshots) {
            snap.release(&mut self.store);
        }
        self.worker = None;
    }

    /// Replays one variant exactly as the forge executes it.
    fn execute(&mut self, t: &mut Tracer, op: u64, v: &ForgeVariant) -> InjectionRecord {
        let snap = &self.snapshots[&(v.policy_idx, v.boundary)];
        let (store, worker) = (&self.store, self.worker.take());
        let mut os = t.adopt(op, || {
            if let Some(mut os) = worker {
                if let Some(rs) = os.try_readopt(snap, store) {
                    return (os, true, rs.bytes_restored as u64);
                }
            }
            let (os, rs) = Os::fork_from(snap, store);
            (os, false, rs.bytes_restored as u64)
        });
        let before = t.registry(&os);
        let hook: Box<dyn FaultHook> = match &v.primary {
            Some(p) => Box::new(DoubleInjector::new(p, &v.plan)),
            None => Box::new(Injector::new(&v.plan)),
        };
        os.set_fault_hook(hook);
        let (mut os, run) = self.drive(t, op, os, v.boundary..ScriptWorkload::STEPS);
        let record = t.postprocess(op, || {
            let violations = if run.outcome.completed() {
                os.audit().len()
            } else {
                0
            };
            let m = os.metrics();
            let class = classify_run(&run.outcome, violations, m.quarantines);
            let blackbox = (class == osiris_faults::Outcome::Crash)
                .then(|| os.blackbox())
                .flatten();
            let (critical_path, span_latency_clean, span_latency_recovery) =
                run_attribution(os.kernel().axiom().records(), &os.metrics_snapshot());
            InjectionRecord {
                site: v.plan.site.clone(),
                kind: v.plan.kind,
                policy: v.policy.to_string(),
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
            }
        });
        t.registry_since(&os, before);
        os.set_fault_hook(Box::new(NoFaults));
        self.worker = Some(os);
        record
    }
}

pub fn run(args: &Args) -> Report {
    let forge = forge();
    let (plan, setup_s) = timed_setup(3, || forge.plan());

    if args.trace {
        // The forge's own records are the reference every replayed
        // variant must reproduce.
        let (reference, records) = sweep(&forge, &plan);
        let replay = std::cell::RefCell::new(Replay {
            forge: &forge,
            plan: &plan,
            store: ChunkStore::new(),
            snapshots: BTreeMap::new(),
            worker: None,
        });
        let n = plan.variants.len();
        let start = (args.seed as usize) % n;
        let order: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
        let prologue = |t: &mut Tracer| replay.borrow_mut().snapshot_prefixes(t);
        let (results, mut metrics) = traced_pass(args, &order, prologue, |j, op, t| {
            let rec = replay.borrow_mut().execute(t, op, &plan.variants[j]);
            let ok = outcome_of(&rec) == outcome_of(&records[j]);
            if !ok {
                eprintln!(
                    "[perfbench] campaign_forge variant {j}: replay {:?}, forge {:?}",
                    outcome_of(&rec),
                    outcome_of(&records[j])
                );
            }
            ok
        });
        replay.into_inner().release();
        // Fork-versus-readopt choices depend on the forge's worker
        // schedule: take them from its own statistics, not the replay's.
        let s = &reference.stats;
        for m in &mut metrics {
            match m.name {
                "forge.readopt_ratio" => {
                    m.value = s.readopts as f64 / (s.forks + s.readopts) as f64
                }
                "checkpoint.fork_dirty_kb_per_op" => {
                    m.value = s.fork_dirty_bytes as f64 / 1024.0 / reference.injections as f64
                }
                _ => {}
            }
        }
        let sweep_oks = std::iter::repeat_n(reference.ok, reference.injections as usize);
        return Report::new(results.into_iter().chain(sweep_oks), metrics);
    }

    let (sweeps, elapsed, passes) =
        Dispenser::new(1, args.budget()).run(1, |_| sweep(&forge, &plan).0);
    let injections: u64 = sweeps.iter().map(|s| s.injections).sum();
    let e2e = EndToEnd {
        syscalls: sweeps.iter().map(|s| s.syscalls).sum(),
        // Single injections are not observable inside a sweep: each
        // sample is one sweep's wall time per injection.
        op_ms: sweeps
            .iter()
            .map(|s| s.ns as f64 / 1e6 / s.injections as f64)
            .collect(),
        ops: injections,
        passes: passes as u64,
        elapsed,
        setup_s,
    };
    // A sweep that misses its pin fails every injection it ran.
    let oks = sweeps
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.ok, s.injections as usize));
    Report::new(oks, e2e.metrics())
}
