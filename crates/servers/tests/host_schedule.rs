//! Pins the host's scheduling order. A recording `OsEngine` wrapper
//! digests every submitted syscall as `(sid, pid, syscall name, now)`; the
//! digests below were recorded with the original lock-step host, so any
//! change to the order in which the host submits, resumes or kills
//! processes fails here before it can move a virtual-cycle result.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use osiris_axiom::{fnv1a, CHAIN_SEED};
use osiris_kernel::abi::{Errno, Pid, Signal, SysReply, Syscall};
use osiris_kernel::{Host, OsEngine, ProgramRegistry, RunOutcome, ShutdownKind, SyscallId};
use osiris_monolith::Monolith;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{build_testsuite, register_unixbench, BENCHMARKS};

/// Delegating engine that digests the submit sequence, records the thread
/// of every submit, and (optionally) answers the first `crash_getpids`
/// `getpid` calls with `ECRASH`, as a crashed-and-recovered PM would.
struct Recorder<E> {
    inner: E,
    digest: u64,
    submits: u64,
    threads: Vec<ThreadId>,
    crash_getpids: u32,
    getpid_sids: Vec<SyscallId>,
}

impl<E> Recorder<E> {
    fn new(inner: E) -> Self {
        Recorder {
            inner,
            digest: CHAIN_SEED,
            submits: 0,
            threads: Vec::new(),
            crash_getpids: 0,
            getpid_sids: Vec::new(),
        }
    }
}

impl<E: OsEngine> OsEngine for Recorder<E> {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.submits += 1;
        self.threads.push(std::thread::current().id());
        for v in [sid.0, pid.0 as u64, self.inner.now()] {
            self.digest = fnv1a(self.digest, &v.to_le_bytes());
        }
        self.digest = fnv1a(self.digest, call.name().as_bytes());
        if matches!(call, Syscall::GetPid) && self.crash_getpids > 0 {
            self.getpid_sids.push(sid);
        }
        self.inner.submit(sid, pid, call);
    }
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        let mut replies = self.inner.pump();
        for (sid, _, reply) in &mut replies {
            if self.crash_getpids > 0 && self.getpid_sids.contains(sid) {
                self.crash_getpids -= 1;
                *reply = SysReply::Err(Errno::ECRASH);
            }
        }
        replies
    }
    fn take_kill_events(&mut self) -> Vec<Pid> {
        self.inner.take_kill_events()
    }
    fn fire_next_timer(&mut self) -> bool {
        self.inner.fire_next_timer()
    }
    fn shutdown_state(&self) -> Option<ShutdownKind> {
        self.inner.shutdown_state()
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn charge_user(&mut self, units: u64) {
        self.inner.charge_user(units)
    }
}

/// The scenario programs beside the unixbench set.
fn scenario_registry() -> ProgramRegistry {
    let mut reg = ProgramRegistry::new();
    register_unixbench(&mut reg);
    // A requester killed while blocked: the child blocks reading an empty
    // pipe whose write end the parent holds open, and the parent kills it.
    reg.register("kill_blocked", |sys| {
        let (r, w) = sys.pipe().expect("pipe");
        let child = sys
            .fork_run(move |c| match c.read(r, 8) {
                Ok(_) => 1,
                Err(_) => 2,
            })
            .expect("fork");
        sys.sleep(50).expect("sleep");
        sys.kill(child, Signal::SigKill).expect("kill");
        let code = sys.waitpid(child).expect("waitpid");
        sys.close(w).expect("close");
        if code == 1 || code == 2 {
            return 1;
        }
        0
    });
    // A process that kills itself; its parent reaps it.
    reg.register("self_kill", |sys| {
        let child = sys
            .fork_run(|c| {
                let me = c.getpid().expect("getpid");
                let _ = c.kill(me, Signal::SigKill);
                c.compute(10);
                7
            })
            .expect("fork");
        match sys.waitpid(child) {
            Ok(7) => 1,
            Ok(_) => 0,
            Err(_) => 2,
        }
    });
    // Transparent ECRASH retry: the engine answers the first three
    // `getpid`s with ECRASH, so the retry ladder runs once immediately,
    // then twice with growing backoff.
    reg.register("ecrash_retry", |sys| {
        sys.set_retry_ecrash(true);
        match sys.getpid() {
            Ok(p) if p == sys.pid() => 0,
            _ => 1,
        }
    });
    reg
}

fn iters(bench: &str) -> &'static str {
    match bench {
        "fsdisk" | "shell8" => "1",
        "dhry2reg" | "whetstone-double" | "syscall" | "pipe" => "20",
        _ => "3",
    }
}

/// Runs `prog` on a fresh engine; returns the submit digest (with the
/// outcome folded in) and the recorder.
fn run_on<E: OsEngine + Send + 'static>(
    engine: E,
    registry: &ProgramRegistry,
    prog: &str,
    args: &[&str],
) -> (u64, Recorder<E>) {
    osiris_kernel::install_quiet_panic_hook();
    let mut rec = Recorder::new(engine);
    if prog == "ecrash_retry" {
        rec.crash_getpids = 3;
    }
    let mut host = Host::new(rec, registry.clone());
    let outcome = host.run(prog, args);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{prog}: {outcome:?}"
    );
    let rec = host.into_engine();
    assert_eq!(
        rec.crash_getpids, 0,
        "{prog}: every forged ECRASH delivered"
    );
    let digest = fnv1a(rec.digest, format!("{outcome:?}").as_bytes());
    (digest, rec)
}

/// One digest over every scenario on one engine kind.
fn schedule_digest(monolith: bool, progs: &[&str]) -> u64 {
    let unixbench = scenario_registry();
    let (suite, _) = build_testsuite();
    let mut digest = CHAIN_SEED;
    for prog in progs {
        let (registry, args) = if *prog == "suite" {
            (&suite, vec![])
        } else {
            (&unixbench, vec![iters(prog)])
        };
        let d = if monolith {
            run_on(Monolith::new(), registry, prog, &args).0
        } else {
            run_on(Os::new(OsConfig::default()), registry, prog, &args).0
        };
        digest = fnv1a(digest, &d.to_le_bytes());
    }
    digest
}

const SCENARIOS: [&str; 3] = ["kill_blocked", "self_kill", "ecrash_retry"];

fn all_programs() -> Vec<&'static str> {
    let mut v: Vec<&str> = BENCHMARKS.to_vec();
    v.push("suite");
    v.extend(SCENARIOS);
    v
}

/// The multi-process programs: every run switches between processes.
const MULTI_PROCESS_MIX: [&str; 6] = [
    "context1",
    "spawn",
    "execl",
    "shell8",
    "kill_blocked",
    "self_kill",
];

const OS_DIGEST: u64 = 0xde8c_b132_791b_a2c3;
const MONOLITH_DIGEST: u64 = 0xf369_3575_ca81_2f91;
const MIX_DIGEST: u64 = 0xd320_0591_c560_ec0c;

#[test]
fn os_schedule_matches_the_recorded_digest() {
    let d = schedule_digest(false, &all_programs());
    assert_eq!(d, OS_DIGEST, "Os schedule digest {d:#018x}");
}

#[test]
fn monolith_schedule_matches_the_recorded_digest() {
    let d = schedule_digest(true, &all_programs());
    assert_eq!(d, MONOLITH_DIGEST, "Monolith schedule digest {d:#018x}");
}

#[test]
fn single_process_syscalls_run_on_the_program_thread() {
    let mut registry = scenario_registry();
    for prog in ["syscall", "pipe", "fstime", "fsdisk"] {
        let f = registry.get(prog).expect("registered");
        let seen: Arc<Mutex<Option<ThreadId>>> = Arc::default();
        let slot = Arc::clone(&seen);
        registry.register("probe", move |sys| {
            *slot.lock().unwrap() = Some(std::thread::current().id());
            f(sys)
        });
        let (_, rec) = run_on(
            Os::new(OsConfig::default()),
            &registry,
            "probe",
            &[iters(prog)],
        );
        let tid = seen.lock().unwrap().expect("program ran");
        assert!(rec.submits > 3, "{prog}: {} submits", rec.submits);
        assert!(
            rec.threads.iter().all(|t| *t == tid),
            "{prog}: a submit ran off the program's thread"
        );
    }
}

#[test]
fn multi_process_schedule_is_stable_under_concurrent_runs() {
    let expected = schedule_digest(false, &MULTI_PROCESS_MIX);
    assert_eq!(
        expected, MIX_DIGEST,
        "multi-process digest {expected:#018x}"
    );
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for run in 0..100 {
                    let d = schedule_digest(false, &MULTI_PROCESS_MIX);
                    assert_eq!(d, expected, "run {run} diverged");
                }
            });
        }
    });
}
