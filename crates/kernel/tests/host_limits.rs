//! Host-level behaviours: run limits, hang detection, kill events and
//! teardown — using the monolith-free mini engine from `kernel_direct` is
//! unnecessary here; a trivial engine suffices.

use osiris_kernel::abi::{Pid, SysReply, Syscall};
use osiris_kernel::{
    Host, HostConfig, OsEngine, ProgramRegistry, RunOutcome, ShutdownKind, SyscallId,
};

/// An engine that answers `getpid` and swallows everything else (so any
/// other call blocks forever) — a deliberately broken OS for limit tests.
#[derive(Default)]
struct BlackHole {
    replies: Vec<(SyscallId, Pid, SysReply)>,
    now: u64,
}

impl OsEngine for BlackHole {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.now += 100;
        match call {
            Syscall::GetPid => self.replies.push((sid, pid, SysReply::Proc(pid))),
            Syscall::Exit { .. } => {}
            _ => {} // swallowed: the caller blocks forever
        }
    }
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        std::mem::take(&mut self.replies)
    }
    fn take_kill_events(&mut self) -> Vec<Pid> {
        Vec::new()
    }
    fn fire_next_timer(&mut self) -> bool {
        false
    }
    fn shutdown_state(&self) -> Option<ShutdownKind> {
        None
    }
    fn now(&self) -> u64 {
        self.now
    }
    fn charge_user(&mut self, units: u64) {
        self.now += units;
    }
}

/// An engine that answers every sleep with `ECRASH` — a server stuck in a
/// permanent crash loop (or quarantined) from the caller's point of view.
#[derive(Default)]
struct AlwaysCrashed {
    replies: Vec<(SyscallId, Pid, SysReply)>,
    sleep_submissions: u32,
    now: u64,
}

impl OsEngine for AlwaysCrashed {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.now += 100;
        match call {
            Syscall::GetPid => self.replies.push((sid, pid, SysReply::Proc(pid))),
            Syscall::Sleep { .. } => {
                self.sleep_submissions += 1;
                self.replies
                    .push((sid, pid, SysReply::Err(osiris_kernel::abi::Errno::ECRASH)));
            }
            _ => {}
        }
    }
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        std::mem::take(&mut self.replies)
    }
    fn take_kill_events(&mut self) -> Vec<Pid> {
        Vec::new()
    }
    fn fire_next_timer(&mut self) -> bool {
        false
    }
    fn shutdown_state(&self) -> Option<ShutdownKind> {
        None
    }
    fn now(&self) -> u64 {
        self.now
    }
    fn charge_user(&mut self, units: u64) {
        self.now += units;
    }
}

#[test]
fn transparent_ecrash_retry_is_bounded_by_the_budget() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.set_retry_ecrash(true);
        // A server that never stops crashing must surface ECRASH to the
        // program after the per-call budget, not livelock the run.
        match sys.sleep(5) {
            Err(osiris_kernel::abi::Errno::ECRASH) => 0,
            other => panic!("expected budgeted ECRASH, got {other:?}"),
        }
    });
    let host_cfg = HostConfig {
        ecrash_retry_budget: 6,
        ecrash_backoff_base: 10,
        ecrash_backoff_max: 40,
        ..Default::default()
    };
    let mut host = Host::new(AlwaysCrashed::default(), registry).with_config(host_cfg);
    let outcome = host.run("main", &[]);
    let engine = host.into_engine();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
    assert_eq!(
        engine.sleep_submissions, 6,
        "exactly budget-many attempts reach the engine"
    );
    // Retries 2..=5 back off for 10, 20, 40 (cap), 40 compute units, on top
    // of 100 cycles charged per submission: the retry loop advances virtual
    // time instead of spinning.
    assert!(engine.now >= 6 * 100 + 110, "t={}", engine.now);
}

#[test]
fn ecrash_surfaces_immediately_without_opt_in() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| match sys.sleep(5) {
        Err(osiris_kernel::abi::Errno::ECRASH) => 0,
        other => panic!("expected raw ECRASH, got {other:?}"),
    });
    let mut host = Host::new(AlwaysCrashed::default(), registry);
    let outcome = host.run("main", &[]);
    let engine = host.into_engine();
    assert!(matches!(
        outcome,
        RunOutcome::Completed { init_code: 0, .. }
    ));
    assert_eq!(engine.sleep_submissions, 1, "no transparent retry");
}

#[test]
fn swallowed_syscall_is_detected_as_hang() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let _ = sys.getpid();
        let _ = sys.sleep(10); // swallowed: never answered
        0
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Hang(reason) => assert!(reason.contains("blocked"), "{reason}"),
        other => panic!("expected hang, got {other:?}"),
    }
}

#[test]
fn virtual_time_limit_aborts_runaway_runs() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| loop {
        sys.compute(1_000_000);
        if sys.getpid().is_err() {
            return 1;
        }
    });
    let host_cfg = HostConfig {
        max_virtual_time: 5_000_000,
        ..Default::default()
    };
    let mut host = Host::new(BlackHole::default(), registry).with_config(host_cfg);
    match host.run("main", &[]) {
        RunOutcome::Hang(reason) => assert!(reason.contains("time limit"), "{reason}"),
        other => panic!("expected time-limit abort, got {other:?}"),
    }
}

#[test]
fn clean_exit_reports_codes() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        assert_eq!(sys.getpid().unwrap(), Pid(1));
        42
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Completed {
            init_code,
            exit_codes,
        } => {
            assert_eq!(init_code, 42);
            assert_eq!(exit_codes.get(&1), Some(&42));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn program_panic_becomes_exit_code_101() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let _ = sys.getpid();
        panic!("program bug");
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Completed { init_code, .. } => assert_eq!(init_code, 101),
        other => panic!("{other:?}"),
    }
}

#[test]
fn sys_exit_terminates_immediately() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.exit(7);
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Completed { init_code, .. } => assert_eq!(init_code, 7),
        other => panic!("{other:?}"),
    }
}

/// Payload of [`Buggy`]'s panic.
#[derive(Debug, PartialEq)]
struct EngineBug(u32);

/// An engine with a bug: it answers `getpid` until the `fail_at`-th
/// submission, where it panics with an [`EngineBug`] payload.
#[derive(Default)]
struct Buggy {
    replies: Vec<(SyscallId, Pid, SysReply)>,
    submits: u32,
    fail_at: u32,
}

impl OsEngine for Buggy {
    fn submit(&mut self, sid: SyscallId, pid: Pid, _call: Syscall) {
        self.submits += 1;
        if self.submits == self.fail_at {
            std::panic::panic_any(EngineBug(self.submits));
        }
        self.replies.push((sid, pid, SysReply::Proc(pid)));
    }
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        std::mem::take(&mut self.replies)
    }
    fn take_kill_events(&mut self) -> Vec<Pid> {
        Vec::new()
    }
    fn fire_next_timer(&mut self) -> bool {
        false
    }
    fn shutdown_state(&self) -> Option<ShutdownKind> {
        None
    }
    fn now(&self) -> u64 {
        self.submits as u64
    }
    fn charge_user(&mut self, _units: u64) {}
}

#[test]
fn engine_panic_is_reraised_from_run_with_its_payload() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        for _ in 0..10 {
            if sys.getpid().is_err() {
                return 1;
            }
        }
        0
    });
    let mut host = Host::new(
        Buggy {
            fail_at: 4,
            ..Default::default()
        },
        registry,
    );
    // The engine runs on the program's thread; its panic must not turn
    // into the program's exit code 101 but unwind out of `run` itself.
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| host.run("main", &[])))
        .expect_err("an engine panic must not be masked as a program exit");
    let bug = payload
        .downcast::<EngineBug>()
        .expect("the original payload is re-raised");
    assert_eq!(*bug, EngineBug(4));
    assert_eq!(host.engine().submits, 4, "the engine is handed back");
}
