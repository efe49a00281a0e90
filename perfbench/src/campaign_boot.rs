//! `campaign_boot`: the Table II FailStop campaign from boot. Every
//! injection boots an OS with the campaign injection config, runs the
//! prototype suite through `Host`, then audits, classifies and attributes
//! the run, exactly as the bench crate's `survivability_for` does.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use osiris_core::PolicyKind;
use osiris_faults::{
    classify_run, plan_faults, run_attribution, Campaign, FaultModel, FaultPlan, InjectionRecord,
    Injector, Outcome, RecoveryActionTag,
};
use osiris_kernel::Host;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::build_testsuite;

use crate::layers::{traced_pass, Tracer};
use crate::probe::Probed;
use crate::{permutation, timed_setup, workers, Args, Dispenser, EndToEnd, Report};

/// The Table II fault-plan seed.
const PLAN_SEED: u64 = 0xfa11_5709;

/// Pinned at the benchmark's defining commit, one row per injection in
/// (policy, plan index) order: policy, plan index, outcome class, recovery
/// action, virtual cycles of the run.
const PINS: &str = include_str!("../pins/campaign_boot.tsv");

/// The bench crate's injection config: small frame pool, quiet flight
/// recorder (2048-event ring, no automatic black-box dump), axiom on.
fn injection_config(policy: PolicyKind) -> OsConfig {
    let mut cfg = OsConfig::with_policy(policy);
    cfg.vm_frames = 8192;
    cfg.trace = osiris_trace::TraceConfig {
        enabled: true,
        capacity: 2048,
        blackbox_tail: 0,
        ..Default::default()
    };
    cfg.axiom = osiris_axiom::AxiomConfig::on();
    cfg
}

/// The pinned simulated result of one injection.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pin {
    outcome: String,
    action: String,
    cycles: u64,
}

struct Injected {
    ok: bool,
    submits: u64,
    ns: u64,
}

struct Ctx {
    plans: Vec<FaultPlan>,
    pins: Vec<Pin>,
    /// One campaign observer per pass, as each Table II run has its own,
    /// with the number of records it has taken; dropped once full.
    campaigns: Mutex<BTreeMap<usize, (Arc<Campaign>, usize)>>,
}

impl Ctx {
    fn jobs(&self) -> usize {
        self.plans.len() * PolicyKind::STANDARD.len()
    }

    /// Records `rec` in the campaign of pass `pass`.
    fn record(&self, pass: usize, rec: InjectionRecord) {
        let jobs = self.jobs();
        let campaign = {
            let mut all = self.campaigns.lock().expect("campaigns lock");
            let entry = all.entry(pass).or_insert_with(|| {
                let c = Campaign::new("perfbench", FaultModel::FailStop, jobs).quiet();
                (Arc::new(c), 0)
            });
            entry.1 += 1;
            let campaign = Arc::clone(&entry.0);
            if entry.1 == jobs {
                all.remove(&pass);
            }
            campaign
        };
        campaign.record(rec);
    }
}

/// Runs injection `job` (policy-major: `job = policy * plans + plan`).
fn inject(ctx: &Ctx, job: usize, op: u64, t: &mut Tracer) -> Injected {
    let (policy_i, plan_i) = (job / ctx.plans.len(), job % ctx.plans.len());
    let policy = PolicyKind::STANDARD[policy_i];
    let plan = &ctx.plans[plan_i];
    let t0 = Instant::now();
    let mut os = t.boot(op, || Os::new(injection_config(policy)));
    t.checkpoint_probe(&mut os, op);
    let before = t.registry(&os);
    os.set_fault_hook(Box::new(Injector::new(plan)));
    let (registry, _) = build_testsuite();
    let traced = t.on;
    let ((outcome, os), counts) = t.drive("host.run", op, || {
        let mut host = Host::new(Probed::new(os, traced), registry);
        let outcome = host.run("suite", &[]);
        let probed = host.into_engine();
        let counts = probed.counts();
        ((outcome, probed.into_inner()), counts)
    });
    let record = t.postprocess(op, || {
        let violations = if outcome.completed() {
            os.audit().len()
        } else {
            0
        };
        let m = os.metrics();
        let class = classify_run(&outcome, violations, m.quarantines);
        let blackbox = (class == Outcome::Crash).then(|| {
            let tail = os.trace_handle().with(|t| t.tail_per_comp(12));
            osiris_trace::render_text(&tail, &os.kernel().trace_names())
        });
        let (critical_path, span_latency_clean, span_latency_recovery) =
            run_attribution(os.kernel().axiom().records(), &os.metrics_snapshot());
        let record = InjectionRecord {
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
        };
        ctx.record(op as usize / ctx.jobs(), record.clone());
        record
    });
    let ns = t0.elapsed().as_nanos() as u64;
    t.registry_since(&os, before);
    let got = Pin {
        outcome: record.outcome.to_string(),
        action: record.action.label().to_string(),
        cycles: record.run_cycles,
    };
    let ok = got == ctx.pins[job];
    if !ok {
        eprintln!(
            "[perfbench] campaign_boot {policy} {plan_i} {} {} {}: pinned {:?}",
            got.outcome, got.action, got.cycles, ctx.pins[job]
        );
    }
    Injected {
        ok,
        submits: counts.submits,
        ns,
    }
}

fn load_pins(plans: usize) -> Vec<Pin> {
    let pins: Vec<Pin> = crate::pin_rows(PINS)
        .enumerate()
        .map(|(job, f)| {
            assert_eq!(
                (f[0], f[1].parse::<usize>().expect("plan index")),
                (
                    PolicyKind::STANDARD[job / plans].to_string().as_str(),
                    job % plans
                ),
                "pin rows are in (policy, plan index) order"
            );
            f
        })
        .map(|f| Pin {
            outcome: f[2].to_string(),
            action: f[3].to_string(),
            cycles: f[4].parse().expect("pinned cycles"),
        })
        .collect();
    assert_eq!(
        pins.len(),
        plans * PolicyKind::STANDARD.len(),
        "one pin per planned injection"
    );
    pins
}

pub fn run(args: &Args) -> Report {
    let (plans, setup_s) = timed_setup(3, || {
        let profile = osiris_bench::profile_suite();
        plan_faults(&profile, FaultModel::FailStop, PLAN_SEED)
    });
    let ctx = Ctx {
        pins: load_pins(plans.len()),
        plans,
        campaigns: Mutex::new(BTreeMap::new()),
    };
    let n = ctx.jobs();
    let job = |i: usize| permutation(args.seed, (i / n) as u64, n)[i % n];

    if args.trace {
        let order: Vec<usize> = (0..n).map(job).collect();
        let (results, metrics) =
            traced_pass(args, &order, |_| (), |j, op, t| inject(&ctx, j, op, t));
        return Report::new(results.iter().map(|r| r.ok), metrics);
    }

    let (results, elapsed, passes) = Dispenser::new(n, args.budget()).run(workers(), |i| {
        inject(&ctx, job(i), i as u64, &mut Tracer::new(false))
    });
    let e2e = EndToEnd {
        syscalls: results.iter().map(|r| r.submits).sum(),
        op_ms: results.iter().map(|r| r.ns as f64 / 1e6).collect(),
        ops: results.len() as u64,
        passes: passes as u64,
        elapsed,
        setup_s,
    };
    Report::new(results.iter().map(|r| r.ok), e2e.metrics())
}
