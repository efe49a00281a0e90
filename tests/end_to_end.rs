//! Workspace-level integration tests spanning every crate: full-OS runs,
//! engine parity, determinism, and policy behaviour.

use osiris::workloads::{build_testsuite, run_suite_on, run_suite_on_osiris};
use osiris::{Host, Monolith, Os, OsConfig, OsEngine, PolicyKind, ProgramRegistry, RunOutcome};

#[test]
fn suite_green_on_every_standard_policy_without_faults() {
    // With no faults injected, every policy must run the full suite clean:
    // recovery machinery must be invisible during normal operation.
    for policy in PolicyKind::STANDARD {
        let (outcome, os) = run_suite_on_osiris(policy);
        match outcome {
            RunOutcome::Completed { init_code, .. } => {
                assert_eq!(init_code, 0, "{policy}: {init_code} failing tests")
            }
            other => panic!("{policy}: suite did not complete: {other:?}"),
        }
        assert!(os.audit().is_empty(), "{policy}: audit {:?}", os.audit());
    }
}

#[test]
fn suite_green_on_monolith() {
    let (outcome, _) = run_suite_on(Monolith::new());
    match outcome {
        RunOutcome::Completed { init_code, .. } => assert_eq!(init_code, 0),
        other => panic!("monolith: {other:?}"),
    }
}

#[test]
fn runs_are_deterministic() {
    // Two identical runs must agree on virtual time and every per-component
    // counter — the fault-injection experiments rely on this.
    let run = || {
        let (outcome, os) = run_suite_on_osiris(PolicyKind::Enhanced);
        let reports: Vec<(String, u64, u64, u64)> = os
            .reports()
            .into_iter()
            .map(|r| (r.name.to_string(), r.cycles, r.messages, r.writes))
            .collect();
        (outcome, os.now(), reports)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "virtual clock diverged");
    assert_eq!(a.2, b.2, "per-component counters diverged");
}

#[test]
fn microkernel_and_monolith_agree_on_results() {
    // The same program must compute identical results on both engines
    // (timing differs, semantics must not). The program folds everything it
    // observes — file contents, child exit codes, data-store state — into
    // its exit code.
    fn run_on<E: OsEngine + Send + 'static>(engine: E) -> RunOutcome {
        let mut registry = ProgramRegistry::new();
        registry.register("main", |sys| {
            use osiris::kernel::abi::{OpenFlags, SeekFrom};
            let fd = sys.open("/tmp/x", OpenFlags::RDWR_CREATE).unwrap();
            sys.write(fd, b"abcdef").unwrap();
            sys.seek(fd, SeekFrom::Start(2)).unwrap();
            let part = sys.read(fd, 3).unwrap();
            sys.ds_put("result", &part).unwrap();
            let child = sys
                .fork_run(|c| i32::from(c.getpid().unwrap().0 > 1))
                .unwrap();
            let code = sys.waitpid(child).unwrap();
            let stored = sys.ds_get("result").unwrap();
            let mut acc = code;
            for b in stored {
                acc = acc.wrapping_mul(31).wrapping_add(i32::from(b));
            }
            acc & 0x7f
        });
        let mut host = Host::new(engine, registry);
        host.run("main", &[])
    }
    let a = run_on(Os::new(OsConfig::default()));
    let b = run_on(Monolith::new());
    match (&a, &b) {
        (
            RunOutcome::Completed { init_code: ca, .. },
            RunOutcome::Completed { init_code: cb, .. },
        ) => assert_eq!(ca, cb, "engines disagree"),
        other => panic!("unexpected outcomes: {other:?}"),
    }
}

#[test]
fn enhanced_policy_never_leaves_inconsistent_state() {
    // The paper's core claim, as an invariant: under the enhanced policy, a
    // single fail-stop fault anywhere in PM must never cause an
    // *uncontrolled kernel crash* and must never leave cross-component
    // state inconsistent. (Workload-level deadlocks — e.g. a test whose
    // failed `kill` orphans a blocked child — are still possible and are
    // what the paper's residual "crash" percentage counts.)
    use osiris::faults::{plan_faults, FaultModel, Injector, Recorder};
    use osiris::ShutdownKind;
    osiris::install_quiet_panic_hook();

    let recorder = Recorder::new();
    let handle = recorder.clone();
    let (_, _) = osiris::workloads::run_suite_with(
        OsConfig::with_policy(PolicyKind::Enhanced),
        Some(Box::new(recorder)),
    );
    let profile = handle.profile().restrict_to(&["pm"]);
    let plans = plan_faults(&profile, FaultModel::FailStop, 3);
    assert!(plans.len() > 10, "too few PM fault sites: {}", plans.len());

    // Persistent hot-site faults would trip the escalation ladder long
    // before the suite ends; this test is about the per-incident recovery
    // invariant, so let PM restart forever.
    let unbounded = || {
        let mut cfg = OsConfig::with_policy(PolicyKind::Enhanced);
        cfg.escalation = osiris::EscalationPolicy::unbounded();
        cfg
    };
    for plan in plans {
        let (outcome, os) =
            osiris::workloads::run_suite_with(unbounded(), Some(Box::new(Injector::new(&plan))));
        if let RunOutcome::Shutdown(kind) = &outcome {
            assert!(
                matches!(kind, ShutdownKind::Controlled(_)),
                "uncontrolled kernel crash on {:?}: {:?}",
                plan,
                kind
            );
        }
        if outcome.completed() {
            assert!(
                os.audit().is_empty(),
                "inconsistent state after {:?}: {:?}",
                plan,
                os.audit()
            );
        }
    }
}

#[test]
fn stateless_policy_loses_state_where_enhanced_does_not() {
    use osiris::faults::{FaultKind, FaultPlan, Injector, SiteId, SiteKindTag};
    osiris::install_quiet_panic_hook();
    // A persistent crash at PM's wait path: enhanced error-virtualizes it;
    // stateless resets the whole process table.
    let plan = FaultPlan {
        site: SiteId {
            component: "pm".into(),
            site: "pm.wait.entry".into(),
            kind: SiteKindTag::Block,
        },
        kind: FaultKind::Crash,
        transient: false,
    };
    let restart_forever = |policy: PolicyKind| {
        let mut cfg = OsConfig::with_policy(policy);
        cfg.escalation = osiris::EscalationPolicy::unbounded();
        cfg
    };
    let (enhanced, _) = osiris::workloads::run_suite_with(
        restart_forever(PolicyKind::Enhanced),
        Some(Box::new(Injector::new(&plan))),
    );
    // Enhanced completes (waits fail with E_CRASH but the system lives).
    match enhanced {
        RunOutcome::Completed { init_code, .. } => assert!(init_code > 0),
        other => panic!("enhanced should complete with failures: {other:?}"),
    }
    let (stateless, _) = osiris::workloads::run_suite_with(
        restart_forever(PolicyKind::Stateless),
        Some(Box::new(Injector::new(&plan))),
    );
    // Stateless loses the process table: the suite cannot finish cleanly.
    match stateless {
        RunOutcome::Completed { init_code, .. } => assert!(init_code != 0),
        RunOutcome::Hang(_) | RunOutcome::Shutdown(_) => {}
    }
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time check that the facade exposes the advertised surface.
    let _policy: osiris::PolicyKind = osiris::PolicyKind::Enhanced;
    let _heap = osiris::Heap::new("facade");
    let (registry, names) = build_testsuite();
    assert!(names.len() >= 89);
    assert!(registry.get("suite").is_some());
}
