//! The user-process host: runs workload programs as real threads, one at a
//! time, against a simulated OS.
//!
//! Programs are ordinary Rust closures that issue syscalls through a
//! [`Sys`] handle. The host passes a *baton*: its state (the engine, the
//! process table, pending calls, the resume queue) sits behind one mutex
//! that only the running process's thread holds; the caller of
//! [`Host::run`] runs init, and holds it before init starts. A process
//! handles its own action inline: it submits, pumps the OS and picks the
//! next process. If that is itself, the reply returns with no thread
//! switch; otherwise the input goes to the chosen process's thread and the
//! caller parks. The decisions do not depend on which thread makes them,
//! so syscall arrival order is fully deterministic, which the
//! fault-injection experiments depend on.
//!
//! The host is generic over [`OsEngine`], implemented both by the
//! compartmentalized OSIRIS OS (`osiris-servers`) and by the monolithic
//! baseline (`osiris-monolith`).

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

use crate::abi::{Errno, Fd, FileStat, OpenFlags, Pid, SeekFrom, Signal, SysReply, Syscall};
use crate::message::SyscallId;
use crate::metrics::ShutdownKind;

/// A simulated operating system, as seen by the process host.
pub trait OsEngine {
    /// Submits a user syscall. Replies arrive later via [`OsEngine::pump`].
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall);
    /// Runs the OS until quiescent; returns completed syscall replies in
    /// deterministic order.
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)>;
    /// Kill events: processes the OS decided to terminate since last call.
    fn take_kill_events(&mut self) -> Vec<Pid>;
    /// Fires the next pending timer, if any.
    fn fire_next_timer(&mut self) -> bool;
    /// The shutdown state, if the OS has stopped.
    fn shutdown_state(&self) -> Option<ShutdownKind>;
    /// Current virtual time.
    fn now(&self) -> u64;
    /// Charges user-level computation to the virtual clock.
    fn charge_user(&mut self, units: u64);
}

/// A user program: receives its [`Sys`] handle, returns an exit code.
pub type ProgramFn = dyn Fn(&mut Sys) -> i32 + Send + Sync;

/// Registry of named programs (the "filesystem binaries" of the simulator).
#[derive(Default, Clone)]
pub struct ProgramRegistry {
    map: HashMap<String, Arc<ProgramFn>>,
}

impl std::fmt::Debug for ProgramRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramRegistry")
            .field("programs", &self.names())
            .finish()
    }
}

impl ProgramRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `prog` under `name`, replacing any previous program.
    pub fn register<F>(&mut self, name: &str, prog: F)
    where
        F: Fn(&mut Sys) -> i32 + Send + Sync + 'static,
    {
        self.map.insert(name.to_string(), Arc::new(prog));
    }

    /// Looks up a program.
    pub fn get(&self, name: &str) -> Option<Arc<ProgramFn>> {
        self.map.get(name).cloned()
    }

    /// Registered program names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.map.keys().cloned().collect();
        v.sort();
        v
    }
}

/// Closure run by a forked child (see [`Sys::fork_run`]).
pub type ForkFn = Box<dyn FnOnce(&mut Sys) -> i32 + Send>;

/// What a process asks of the host.
enum ProcAction {
    Syscall(Syscall),
    Fork(ForkFn),
    Compute(u64),
    Done(i32),
}

/// The input that unwinds a killed process.
const KILLED: SysReply = SysReply::Err(Errno::EKILLED);

/// Panic payload used to unwind a user-program thread.
pub(crate) enum ProcExit {
    Exited(i32),
    Killed,
}

/// The host side of a [`Sys`] handle, with the engine type erased.
trait Baton: Send + Sync {
    /// Handles `action` of process `pid` on worker thread `worker` (which
    /// parks on `wake` if another process runs next) and returns the
    /// process's reply once it is resumed.
    fn act(&self, worker: usize, wake: &Condvar, pid: Pid, action: ProcAction) -> SysReply;
}

/// Unwinds a killed process; otherwise splits its reply into the success
/// payload or the errno.
fn outcome(reply: SysReply) -> Result<SysReply, Errno> {
    match reply {
        SysReply::Err(Errno::EKILLED) => std::panic::panic_any(ProcExit::Killed),
        SysReply::Err(e) => Err(e),
        r => Ok(r),
    }
}

/// Issues a syscall and returns the payload of its success reply; any
/// other reply breaks the OS contract.
macro_rules! expect_reply {
    ($sys:ident, $call:expr, $reply:pat => $value:expr) => {{
        let call = $call;
        let name = call.name();
        match $sys.call(call)? {
            $reply => Ok($value),
            other => panic!("{}: unexpected reply {:?}", name, other),
        }
    }};
}

/// The syscall interface handed to user programs.
///
/// Every method issues a request to the simulated OS and returns once the
/// reply arrives. The request is handled on the calling thread; if the
/// host schedules another process before this one's reply, the real thread
/// parks until the baton comes back. `Err(Errno::ECRASH)` means the
/// servicing OS component crashed and was recovered; well-written programs
/// treat it like any other error (paper §III-C).
pub struct Sys {
    pid: Pid,
    args: Vec<String>,
    registry: Arc<ProgramRegistry>,
    host: Arc<dyn Baton>,
    worker: usize,
    wake: Arc<Condvar>,
    retry_ecrash: bool,
    cfg: HostConfig,
}

impl std::fmt::Debug for Sys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sys")
            .field("pid", &self.pid)
            .field("args", &self.args)
            .finish()
    }
}

impl Sys {
    /// The calling process's pid (as assigned at creation; also available
    /// via the `getpid` syscall).
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The program arguments.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// Makes every syscall transparently retry on `ECRASH` (a crashed and
    /// recovered server). Used by the service-disruption experiment, where
    /// well-written programs are expected to handle the error and continue
    /// (paper §VI-E runs the benchmark to completion under fault load).
    pub fn set_retry_ecrash(&mut self, retry: bool) {
        self.retry_ecrash = retry;
    }

    /// Backoff (in compute units) before retry number `attempt`: the first
    /// retry is immediate — a single crash recovers before the retried call
    /// arrives — then the delay doubles up to the configured cap.
    fn retry_backoff(&self, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let doublings = (attempt - 2).min(16);
        self.cfg
            .ecrash_backoff_base
            .saturating_mul(1u64 << doublings)
            .min(self.cfg.ecrash_backoff_max)
    }

    fn act(&mut self, action: ProcAction) -> SysReply {
        self.host.act(self.worker, &self.wake, self.pid, action)
    }

    fn call(&mut self, mut sc: Syscall) -> Result<SysReply, Errno> {
        let mut attempts: u32 = 0;
        loop {
            // Only a call that may be retried needs a copy of itself.
            let retry = self.retry_ecrash.then(|| sc.clone());
            match outcome(self.act(ProcAction::Syscall(sc))) {
                Err(Errno::ECRASH) if retry.is_some() => {
                    // Bounded retry: a crash-looping (or quarantined) server
                    // keeps answering ECRASH; surface it once the per-call
                    // budget is spent instead of livelocking.
                    attempts += 1;
                    if attempts >= self.cfg.ecrash_retry_budget {
                        return Err(Errno::ECRASH);
                    }
                    let backoff = self.retry_backoff(attempts);
                    if backoff > 0 {
                        self.compute(backoff);
                    }
                    sc = retry.expect("kept for the retry");
                }
                result => return result,
            }
        }
    }

    /// Performs `units` of pure computation (advances virtual time only).
    pub fn compute(&mut self, units: u64) {
        if self.act(ProcAction::Compute(units)) == KILLED {
            std::panic::panic_any(ProcExit::Killed);
        }
    }

    /// Terminates the calling process immediately with `code`.
    pub fn exit(&mut self, code: i32) -> ! {
        std::panic::panic_any(ProcExit::Exited(code));
    }

    // --- process management ---

    /// Spawns a new process running registered program `prog` (fork+exec).
    ///
    /// # Errors
    ///
    /// `ENOENT` if no such program is registered; otherwise whatever the
    /// process manager reports (`EAGAIN`, `ECRASH`, …).
    pub fn spawn(&mut self, prog: &str, args: &[&str]) -> Result<Pid, Errno> {
        if self.registry.get(prog).is_none() {
            return Err(Errno::ENOENT);
        }
        let prog = prog.to_string();
        let args = args.iter().map(|s| s.to_string()).collect();
        expect_reply!(self, Syscall::Spawn { prog, args }, SysReply::Proc(pid) => pid)
    }

    /// Forks the calling process; the child runs `child_fn` and exits with
    /// its return value. Returns the child's pid to the parent.
    ///
    /// # Errors
    ///
    /// Propagates process-manager errors (`EAGAIN`, `ECRASH`, …).
    pub fn fork_run<F>(&mut self, child_fn: F) -> Result<Pid, Errno>
    where
        F: FnOnce(&mut Sys) -> i32 + Send + 'static,
    {
        match outcome(self.act(ProcAction::Fork(Box::new(child_fn))))? {
            SysReply::Proc(pid) => Ok(pid),
            other => panic!("fork: unexpected reply {:?}", other),
        }
    }

    /// Replaces the current process image with registered program `prog`.
    /// On success this never returns: the new program runs and the process
    /// exits with its return value.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the program is not registered; process-manager errors
    /// otherwise.
    pub fn exec(&mut self, prog: &str, args: &[&str]) -> Result<std::convert::Infallible, Errno> {
        let Some(f) = self.registry.get(prog) else {
            return Err(Errno::ENOENT);
        };
        let call = Syscall::Exec {
            prog: prog.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
        };
        self.call(call)?;
        self.args = args.iter().map(|s| s.to_string()).collect();
        let code = f(self);
        std::panic::panic_any(ProcExit::Exited(code));
    }

    /// Waits for the specific child `pid` to exit; returns its exit code.
    ///
    /// # Errors
    ///
    /// `ECHILD` if `pid` is not a child of the caller.
    pub fn waitpid(&mut self, pid: Pid) -> Result<i32, Errno> {
        expect_reply!(self, Syscall::WaitPid { pid }, SysReply::Exited(_, code) => code)
    }

    /// Waits for any child to exit; returns `(pid, exit_code)`.
    ///
    /// # Errors
    ///
    /// `ECHILD` if the caller has no children.
    pub fn wait_any(&mut self) -> Result<(Pid, i32), Errno> {
        expect_reply!(self, Syscall::WaitAny, SysReply::Exited(pid, code) => (pid, code))
    }

    /// Sends `sig` to process `pid`.
    ///
    /// # Errors
    ///
    /// `ESRCH` if no such process.
    pub fn kill(&mut self, pid: Pid, sig: Signal) -> Result<(), Errno> {
        self.call(Syscall::Kill { pid, sig }).map(|_| ())
    }

    /// Returns the caller's pid as known to the process manager.
    ///
    /// # Errors
    ///
    /// `ECRASH` if PM crashed while answering.
    pub fn getpid(&mut self) -> Result<Pid, Errno> {
        expect_reply!(self, Syscall::GetPid, SysReply::Proc(pid) => pid)
    }

    /// Returns the caller's parent pid.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the caller is unknown to PM (should not happen).
    pub fn getppid(&mut self) -> Result<Pid, Errno> {
        expect_reply!(self, Syscall::GetPPid, SysReply::Proc(pid) => pid)
    }

    /// Masks or unmasks `sig` for the caller.
    ///
    /// # Errors
    ///
    /// `EINVAL` for `SigKill`, which cannot be masked.
    pub fn sigmask(&mut self, sig: Signal, masked: bool) -> Result<(), Errno> {
        self.call(Syscall::SigMask { sig, masked }).map(|_| ())
    }

    /// Fetches and clears the caller's pending signals.
    ///
    /// # Errors
    ///
    /// Process-manager errors.
    pub fn sigpending(&mut self) -> Result<Vec<Signal>, Errno> {
        expect_reply!(self, Syscall::SigPending, SysReply::Signals(s) => s)
    }

    /// Sleeps for `ticks` of virtual time.
    ///
    /// # Errors
    ///
    /// Process-manager errors.
    pub fn sleep(&mut self, ticks: u64) -> Result<(), Errno> {
        self.call(Syscall::Sleep { ticks }).map(|_| ())
    }

    // --- memory ---

    /// Adjusts the caller's data segment; returns the new page count.
    ///
    /// # Errors
    ///
    /// `ENOMEM` if the frame pool is exhausted or the shrink underflows.
    pub fn brk(&mut self, pages: i64) -> Result<u64, Errno> {
        expect_reply!(self, Syscall::Brk { pages }, SysReply::Val(v) => v as u64)
    }

    /// Maps `pages` fresh pages; returns the mapping id.
    ///
    /// # Errors
    ///
    /// `ENOMEM` if the frame pool is exhausted.
    pub fn mmap(&mut self, pages: u64) -> Result<u64, Errno> {
        expect_reply!(self, Syscall::Mmap { pages }, SysReply::Val(v) => v as u64)
    }

    /// Unmaps a mapping created by [`Sys::mmap`].
    ///
    /// # Errors
    ///
    /// `EINVAL` if the mapping id is unknown.
    pub fn munmap(&mut self, id: u64) -> Result<(), Errno> {
        self.call(Syscall::Munmap { id }).map(|_| ())
    }

    /// Returns the caller's resident page count.
    ///
    /// # Errors
    ///
    /// Memory-manager errors.
    pub fn vmstat(&mut self) -> Result<u64, Errno> {
        expect_reply!(self, Syscall::VmStat, SysReply::Val(v) => v as u64)
    }

    // --- files ---

    /// Opens `path`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR`, `EMFILE`, `ECRASH`, …
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        let path = path.to_string();
        expect_reply!(self, Syscall::Open { path, flags }, SysReply::Desc(fd) => fd)
    }

    /// Closes `fd`.
    ///
    /// # Errors
    ///
    /// `EBADF` if the descriptor is not open.
    pub fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        self.call(Syscall::Close { fd }).map(|_| ())
    }

    /// Reads up to `len` bytes. An empty vector signals end-of-file.
    /// Blocks on an empty pipe with live writers.
    ///
    /// # Errors
    ///
    /// `EBADF`, `ECRASH`, …
    pub fn read(&mut self, fd: Fd, len: u32) -> Result<Vec<u8>, Errno> {
        expect_reply!(self, Syscall::Read { fd, len }, SysReply::Data(d) => d)
    }

    /// Writes `bytes`; returns the number written.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EPIPE` (no readers left), `ENOSPC`, …
    pub fn write(&mut self, fd: Fd, bytes: &[u8]) -> Result<u32, Errno> {
        let bytes = bytes.to_vec();
        expect_reply!(self, Syscall::Write { fd, bytes }, SysReply::Val(n) => n as u32)
    }

    /// Repositions the file offset; returns the new absolute offset.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EINVAL` (seek before start), `EPIPE` on pipes.
    pub fn seek(&mut self, fd: Fd, from: SeekFrom) -> Result<u64, Errno> {
        expect_reply!(self, Syscall::Seek { fd, from }, SysReply::Val(v) => v as u64)
    }

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR`, `EBUSY` (still open).
    pub fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        let path = path.to_string();
        self.call(Syscall::Unlink { path }).map(|_| ())
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// `EEXIST`, `ENOENT` (missing parent), `ENOTDIR`.
    pub fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        let path = path.to_string();
        self.call(Syscall::Mkdir { path }).map(|_| ())
    }

    /// Lists a directory's entries.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTDIR`.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, Errno> {
        let path = path.to_string();
        expect_reply!(self, Syscall::ReadDir { path }, SysReply::Names(n) => n)
    }

    /// Stats a path.
    ///
    /// # Errors
    ///
    /// `ENOENT`.
    pub fn stat(&mut self, path: &str) -> Result<FileStat, Errno> {
        let path = path.to_string();
        expect_reply!(self, Syscall::Stat { path }, SysReply::StatInfo(s) => s)
    }

    /// Renames a file.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR`, `EBUSY`.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        let (from, to) = (from.to_string(), to.to_string());
        self.call(Syscall::Rename { from, to }).map(|_| ())
    }

    /// Creates a pipe; returns `(read_end, write_end)`.
    ///
    /// # Errors
    ///
    /// `EMFILE`, `ECRASH`.
    pub fn pipe(&mut self) -> Result<(Fd, Fd), Errno> {
        expect_reply!(self, Syscall::Pipe, SysReply::TwoDesc(r, w) => (r, w))
    }

    /// Duplicates a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EMFILE`.
    pub fn dup(&mut self, fd: Fd) -> Result<Fd, Errno> {
        expect_reply!(self, Syscall::Dup { fd }, SysReply::Desc(d) => d)
    }

    /// Flushes a file's dirty cached blocks to the disk driver.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EIO`.
    pub fn fsync(&mut self, fd: Fd) -> Result<(), Errno> {
        self.call(Syscall::Fsync { fd }).map(|_| ())
    }

    // --- data store ---

    /// Stores `value` under `key` in the data store.
    ///
    /// # Errors
    ///
    /// `ENOSPC`, `ECRASH`.
    pub fn ds_put(&mut self, key: &str, value: &[u8]) -> Result<(), Errno> {
        let (key, value) = (key.to_string(), value.to_vec());
        self.call(Syscall::DsPut { key, value }).map(|_| ())
    }

    /// Retrieves the value stored under `key`.
    ///
    /// # Errors
    ///
    /// `ENOKEY` if absent.
    pub fn ds_get(&mut self, key: &str) -> Result<Vec<u8>, Errno> {
        let key = key.to_string();
        expect_reply!(self, Syscall::DsGet { key }, SysReply::Data(d) => d)
    }

    /// Deletes `key` from the data store.
    ///
    /// # Errors
    ///
    /// `ENOKEY` if absent.
    pub fn ds_del(&mut self, key: &str) -> Result<(), Errno> {
        let key = key.to_string();
        self.call(Syscall::DsDel { key }).map(|_| ())
    }

    /// Lists data-store keys with the given prefix.
    ///
    /// # Errors
    ///
    /// `ECRASH`.
    pub fn ds_list(&mut self, prefix: &str) -> Result<Vec<String>, Errno> {
        let prefix = prefix.to_string();
        expect_reply!(self, Syscall::DsList { prefix }, SysReply::Names(n) => n)
    }
}

/// How a full workload run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every process exited; per-pid exit codes and init's code.
    Completed {
        /// Exit code of the root (init) process.
        init_code: i32,
        /// Exit codes of all processes, keyed by raw pid.
        exit_codes: BTreeMap<u32, i32>,
    },
    /// The OS stopped itself (controlled) or crashed (uncontrolled).
    Shutdown(ShutdownKind),
    /// No process could make progress and no timer resolved it.
    Hang(String),
}

impl RunOutcome {
    /// Whether the run completed (regardless of exit codes).
    pub fn completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }
}

/// Host limits (defence against livelock under injected faults).
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Abort the run once virtual time exceeds this.
    pub max_virtual_time: u64,
    /// Declare a hang after this many consecutive timer fires yielding no
    /// process progress.
    pub max_idle_timer_fires: u32,
    /// Per-call budget for transparent `ECRASH` retries (see
    /// [`Sys::set_retry_ecrash`]): after this many failed attempts of one
    /// call, `ECRASH` is surfaced to the program. The default is far above
    /// what the §VI-E service-disruption runs need (their first, immediate
    /// retry lands after recovery completes) while still bounding a
    /// persistent crash loop.
    pub ecrash_retry_budget: u32,
    /// Virtual-time backoff (compute units) before the second retry of one
    /// call; doubles on each further retry. The first retry is immediate.
    pub ecrash_backoff_base: u64,
    /// Cap on the exponential retry backoff.
    pub ecrash_backoff_max: u64,
    /// Log every process action and reply to stderr. The
    /// `OSIRIS_HOST_TRACE=1` environment variable forces this on.
    pub verbose: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            max_virtual_time: 500_000_000_000,
            max_idle_timer_fires: 10_000,
            ecrash_retry_budget: 64,
            ecrash_backoff_base: 1_000,
            ecrash_backoff_max: 250_000,
            verbose: false,
        }
    }
}

/// A program waiting to start: a registered one with its arguments, or a
/// forked child's closure.
enum Program {
    Named(Arc<ProgramFn>, Vec<String>),
    Fork(ForkFn),
}

enum Resume {
    Reply(Pid, SysReply),
    Start(Pid, Program),
}

/// One OS thread that runs processes, one after another.
struct Worker {
    inbox: Option<Resume>,
    wake: Arc<Condvar>,
}

struct ProcEntry {
    worker: usize,
    blocked_on: Option<SyscallId>,
}

enum PendingKind {
    Plain,
    /// Spawn or fork: the child's program, started once PM confirms.
    Child(Program),
}

/// Everything the baton holder may touch.
struct State<E> {
    engine: E,
    procs: BTreeMap<Pid, ProcEntry>,
    pending: BTreeMap<SyscallId, PendingKind>,
    resume_q: VecDeque<Resume>,
    dead: BTreeSet<Pid>,
    exit_codes: BTreeMap<u32, i32>,
    next_sid: u64,
    workers: Vec<Worker>,
    threads: Vec<JoinHandle<()>>,
    /// Workers whose program ended, free for the next start.
    idle: Vec<usize>,
    /// Set once; every thread then unwinds its program and stops.
    outcome: Option<RunOutcome>,
    /// An engine panic, re-raised from [`Host::run`].
    panic: Option<Box<dyn Any + Send>>,
}

impl<E> State<E> {
    /// Registers a blocking call of `pid`; returns its id.
    fn block(&mut self, pid: Pid, kind: PendingKind) -> SyscallId {
        self.next_sid += 1;
        let sid = SyscallId(self.next_sid);
        self.pending.insert(sid, kind);
        if let Some(p) = self.procs.get_mut(&pid) {
            p.blocked_on = Some(sid);
        }
        sid
    }

    /// Ends the run and releases every parked thread.
    fn end(&mut self, outcome: RunOutcome) {
        self.outcome = Some(outcome);
        for w in &self.workers {
            w.wake.notify_one();
        }
    }

    /// Leaves `msg` for worker `w`, waking it unless it is the caller.
    fn deliver(&mut self, w: usize, msg: Resume, me: Option<usize>) {
        let worker = &mut self.workers[w];
        worker.inbox = Some(msg);
        if me != Some(w) {
            worker.wake.notify_one();
        }
    }
}

/// `carried` followed by `more`, without copying when nothing was carried.
fn join_carried<T>(carried: &mut Vec<T>, mut more: Vec<T>) -> Vec<T> {
    if !carried.is_empty() {
        more.splice(0..0, carried.drain(..));
    }
    more
}

/// Every baton section runs inside [`Run::guarded`], so no thread panics
/// while holding the state.
const UNPOISONED: &str = "a baton holder panicked outside its guard";

/// One workload run: the shared state and the threads' rendezvous.
struct Run<E> {
    state: Mutex<State<E>>,
    this: Weak<Run<E>>,
    registry: Arc<ProgramRegistry>,
    cfg: HostConfig,
    trace: bool,
}

/// Runs workload programs against an [`OsEngine`] in deterministic
/// lock-step.
pub struct Host<E: OsEngine> {
    /// Home of the engine between runs; a run moves it to the threads.
    engine: Option<E>,
    registry: Arc<ProgramRegistry>,
    cfg: HostConfig,
}

impl<E: OsEngine + Send + 'static> Host<E> {
    /// Creates a host over `engine` with the given program registry.
    pub fn new(engine: E, registry: ProgramRegistry) -> Self {
        Host {
            engine: Some(engine),
            registry: Arc::new(registry),
            cfg: HostConfig::default(),
        }
    }

    /// Overrides the host limits.
    pub fn with_config(mut self, cfg: HostConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The wrapped engine (metrics inspection after a run).
    pub fn engine(&self) -> &E {
        self.engine.as_ref().expect("engine is home between runs")
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut E {
        self.engine.as_mut().expect("engine is home between runs")
    }

    /// Consumes the host, returning the engine.
    pub fn into_engine(self) -> E {
        self.engine.expect("engine is home between runs")
    }

    /// Boots the workload: starts `root_prog` as the init process (pid 1,
    /// pre-created by the OS at boot) and runs until every process exits,
    /// the OS shuts down, or no progress is possible.
    ///
    /// Set `OSIRIS_HOST_TRACE=1` to log every action and reply to stderr.
    ///
    /// # Panics
    ///
    /// Panics if `root_prog` is not registered, and re-raises any panic of
    /// the engine, with its original payload, after the run is torn down.
    pub fn run(&mut self, root_prog: &str, root_args: &[&str]) -> RunOutcome {
        let trace =
            self.cfg.verbose || std::env::var_os("OSIRIS_HOST_TRACE").is_some_and(|v| v == "1");
        let root = self
            .registry
            .get(root_prog)
            .unwrap_or_else(|| panic!("program `{}` not registered", root_prog));
        let root_args: Vec<String> = root_args.iter().map(|s| s.to_string()).collect();
        // The caller is worker 0: it runs init, and then whatever process
        // it is given, until the run ends.
        let wake = Arc::new(Condvar::new());
        let state = State {
            engine: self.engine.take().expect("engine is home between runs"),
            procs: BTreeMap::new(),
            pending: BTreeMap::new(),
            resume_q: VecDeque::from([Resume::Start(Pid::INIT, Program::Named(root, root_args))]),
            dead: BTreeSet::new(),
            exit_codes: BTreeMap::new(),
            next_sid: 0,
            workers: vec![Worker {
                inbox: None,
                wake: Arc::clone(&wake),
            }],
            threads: Vec::new(),
            idle: vec![0],
            outcome: None,
            panic: None,
        };
        let run = Arc::new_cyclic(|this| Run {
            state: Mutex::new(state),
            this: this.clone(),
            registry: Arc::clone(&self.registry),
            cfg: self.cfg,
            trace,
        });
        run.guarded(&mut run.lock(), |st| {
            run.dispatch(st, Some(0));
            None
        });
        Arc::clone(&run).serve(0, wake);

        // Tear down: the ended run released every thread; join them.
        let threads = std::mem::take(&mut run.lock().threads);
        for t in threads {
            t.join()
                .expect("process threads catch their programs' panics");
        }
        let run = Arc::into_inner(run).expect("every process thread joined");
        let st = run.state.into_inner().expect(UNPOISONED);
        self.engine = Some(st.engine);
        if let Some(payload) = st.panic {
            resume_unwind(payload);
        }
        st.outcome.expect("the run ended with an outcome")
    }
}

impl<E: OsEngine + Send + 'static> Run<E> {
    fn lock(&self) -> MutexGuard<'_, State<E>> {
        self.state.lock().expect(UNPOISONED)
    }

    /// Parks worker `me` until input arrives for it; `None` once the run has
    /// ended.
    fn wait(&self, st: MutexGuard<'_, State<E>>, me: usize, wake: &Condvar) -> Option<Resume> {
        let mut st = wake
            .wait_while(st, |s| s.outcome.is_none() && s.workers[me].inbox.is_none())
            .expect(UNPOISONED);
        if st.outcome.is_some() {
            return None;
        }
        st.workers[me].inbox.take()
    }

    /// Runs `f` as the baton holder. A panic in it (an engine or kernel
    /// bug) ends the run and is kept for [`Host::run`] to re-raise, rather
    /// than unwinding the program that happened to hold the baton.
    fn guarded(
        &self,
        st: &mut State<E>,
        f: impl FnOnce(&mut State<E>) -> Option<SysReply>,
    ) -> Option<SysReply> {
        catch_unwind(AssertUnwindSafe(|| f(st))).unwrap_or_else(|payload| {
            st.panic = Some(payload);
            st.end(RunOutcome::Hang("engine panicked".into()));
            Some(KILLED)
        })
    }

    /// Phase 1: takes process `pid`'s action, then schedules the next
    /// process unless `pid` keeps running. Returns `pid`'s reply when it is
    /// known without waiting.
    fn handle(
        &self,
        st: &mut State<E>,
        me: usize,
        pid: Pid,
        action: ProcAction,
    ) -> Option<SysReply> {
        if self.trace {
            let what = match &action {
                ProcAction::Compute(u) => format!("compute({})", u),
                ProcAction::Syscall(sc) => format!("syscall {}", sc.name()),
                ProcAction::Fork(_) => "fork".to_string(),
                ProcAction::Done(c) => format!("done({})", c),
            };
            eprintln!("[host] {} -> {}", pid, what);
        }
        let dead = st.dead.contains(&pid);
        let mut mine = dead.then_some(KILLED);
        match action {
            ProcAction::Compute(units) => {
                st.engine.charge_user(units);
                if !dead {
                    // Still running: no scheduling decision to make.
                    return Some(SysReply::Ok);
                }
            }
            ProcAction::Syscall(_) | ProcAction::Fork(_) if dead => {}
            ProcAction::Syscall(sc) => {
                // Spawn carries host-side info to start the child when PM
                // confirms.
                let kind = match &sc {
                    Syscall::Spawn { prog, args } => {
                        let f = self.registry.get(prog);
                        let f = f.expect("spawn validated against the registry");
                        PendingKind::Child(Program::Named(f, args.clone()))
                    }
                    _ => PendingKind::Plain,
                };
                let sid = st.block(pid, kind);
                st.engine.submit(sid, pid, sc);
            }
            ProcAction::Fork(f) => {
                let sid = st.block(pid, PendingKind::Child(Program::Fork(f)));
                st.engine.submit(sid, pid, Syscall::Fork);
            }
            ProcAction::Done(code) => {
                st.exit_codes.insert(pid.0, code);
                if !dead {
                    st.dead.insert(pid);
                    st.next_sid += 1;
                    st.engine
                        .submit(SyscallId(st.next_sid), pid, Syscall::Exit { code });
                }
                if let Some(p) = st.procs.get_mut(&pid) {
                    p.blocked_on = None;
                }
                // This thread is free to run the next process started.
                st.idle.push(me);
                mine = None;
            }
        }
        self.dispatch(st, Some(me));
        mine
    }

    /// Phases 2–4: lets the OS work until exactly one process can be
    /// resumed (or started) and passes it the baton, or ends the run. `me`
    /// is the calling worker, if any.
    fn dispatch(&self, st: &mut State<E>, me: Option<usize>) {
        // Replies/kills discovered while firing idle timers, carried back to
        // the single reply-handling path at the top of the loop.
        let (mut carried_replies, mut carried_kills) = (Vec::new(), Vec::new());
        loop {
            // Phase 2: nobody is running — let the OS work and collect
            // replies / kill events (including any carried over from the
            // idle timer loop below).
            let pumped = st.engine.pump();
            let replies = join_carried(&mut carried_replies, pumped);
            let killed = st.engine.take_kill_events();
            let kills = join_carried(&mut carried_kills, killed);
            for victim in kills {
                if st.dead.insert(victim) {
                    let blocked = st.procs.get(&victim).filter(|p| p.blocked_on.is_some());
                    if let Some(w) = blocked.map(|p| p.worker) {
                        st.deliver(w, Resume::Reply(victim, KILLED), None);
                    }
                    st.exit_codes.entry(victim.0).or_insert(-9);
                }
            }
            for (sid, pid, reply) in replies {
                if self.trace {
                    eprintln!("[host] reply to {} ({:?}): {:?}", pid, sid, reply);
                }
                let Some(kind) = st.pending.remove(&sid) else {
                    continue;
                };
                if let Some(p) = st.procs.get_mut(&pid).filter(|p| p.blocked_on == Some(sid)) {
                    p.blocked_on = None;
                }
                let alive = !st.dead.contains(&pid);
                let child = match (kind, &reply) {
                    (PendingKind::Child(prog), SysReply::Proc(child)) => Some((*child, prog)),
                    _ => None,
                };
                if alive {
                    st.resume_q.push_back(Resume::Reply(pid, reply));
                }
                if let Some((child, prog)) = child {
                    st.resume_q.push_back(Resume::Start(child, prog));
                }
            }

            if let Some(kind) = st.engine.shutdown_state() {
                return st.end(RunOutcome::Shutdown(kind));
            }
            if st.engine.now() > self.cfg.max_virtual_time {
                return st.end(RunOutcome::Hang("virtual time limit exceeded".into()));
            }

            // Phase 3: resume exactly one process (or start a child).
            if let Some(r) = st.resume_q.pop_front() {
                if self.trace {
                    let what = match &r {
                        Resume::Reply(pid, rep) => format!("resume {} with {:?}", pid, rep),
                        Resume::Start(pid, Program::Named(..)) => format!("start {}", pid),
                        Resume::Start(pid, Program::Fork(_)) => format!("start-fork {}", pid),
                    };
                    eprintln!("[host] {}", what);
                }
                match r {
                    Resume::Reply(pid, _) if st.dead.contains(&pid) => {
                        // Killed while its reply waited: let its thread
                        // unwind and be reused.
                        if let Some(w) = st.procs.get(&pid).map(|p| p.worker) {
                            st.deliver(w, Resume::Reply(pid, KILLED), None);
                        }
                    }
                    Resume::Reply(pid, reply) => {
                        let w = st.procs[&pid].worker;
                        return st.deliver(w, Resume::Reply(pid, reply), me);
                    }
                    Resume::Start(pid, prog) => {
                        let w = match st.idle.pop() {
                            Some(w) => w,
                            None => self.spawn_worker(st),
                        };
                        let entry = ProcEntry {
                            worker: w,
                            blocked_on: None,
                        };
                        st.procs.insert(pid, entry);
                        return st.deliver(w, Resume::Start(pid, prog), me);
                    }
                }
                continue;
            }

            // Phase 4: idle — everyone is blocked inside the OS. Advance
            // virtual time; bounded so a silent wedge becomes a hang.
            let live = st.procs.keys().filter(|p| !st.dead.contains(p)).count();
            if live == 0 {
                let init_code = st.exit_codes.get(&Pid::INIT.0).copied().unwrap_or(-1);
                let exit_codes = std::mem::take(&mut st.exit_codes);
                return st.end(RunOutcome::Completed {
                    init_code,
                    exit_codes,
                });
            }
            let mut fired = 0u32;
            let mut progressed = false;
            while fired < self.cfg.max_idle_timer_fires {
                if !st.engine.fire_next_timer() {
                    break;
                }
                fired += 1;
                let replies = st.engine.pump();
                let kills = st.engine.take_kill_events();
                if !replies.is_empty() || !kills.is_empty() {
                    // Carry them back to the canonical handling path at the
                    // top of the loop (it knows about spawn/fork pendings).
                    carried_replies = replies;
                    carried_kills = kills;
                    progressed = true;
                    break;
                }
                if st.engine.shutdown_state().is_some() {
                    break;
                }
            }
            if let Some(kind) = st.engine.shutdown_state() {
                return st.end(RunOutcome::Shutdown(kind));
            }
            if !progressed {
                return st.end(RunOutcome::Hang(format!(
                    "{} live process(es) blocked with no resolvable event",
                    live
                )));
            }
        }
    }

    /// Starts a new worker thread; returns its index.
    fn spawn_worker(&self, st: &mut State<E>) -> usize {
        let me = st.workers.len();
        let wake = Arc::new(Condvar::new());
        let run = self.this.upgrade().expect("the run outlives its workers");
        let thread_wake = Arc::clone(&wake);
        let thread = std::thread::Builder::new()
            .name(format!("osiris-proc-{}", me))
            .spawn(move || run.serve(me, thread_wake))
            .expect("spawn process thread");
        st.workers.push(Worker { inbox: None, wake });
        st.threads.push(thread);
        me
    }

    /// A worker thread's life: run each program it is given to its end,
    /// report the exit, and wait for the next one until teardown.
    fn serve(self: Arc<Self>, me: usize, wake: Arc<Condvar>) {
        let host: Arc<dyn Baton> = self.clone();
        loop {
            let Some(Resume::Start(pid, prog)) = self.wait(self.lock(), me, &wake) else {
                return;
            };
            let mut sys = Sys {
                pid,
                args: Vec::new(),
                registry: Arc::clone(&self.registry),
                host: Arc::clone(&host),
                worker: me,
                wake: Arc::clone(&wake),
                retry_ecrash: false,
                cfg: self.cfg,
            };
            let result = catch_unwind(AssertUnwindSafe(|| match prog {
                Program::Named(f, args) => {
                    sys.args = args;
                    f(&mut sys)
                }
                Program::Fork(f) => f(&mut sys),
            }));
            let mut st = self.lock();
            let code = match result.map_err(|p| p.downcast::<ProcExit>().map(|pe| *pe)) {
                Ok(code) | Err(Ok(ProcExit::Exited(code))) => Some(code),
                Err(Ok(ProcExit::Killed)) => None, // the host already accounted for us
                Err(Err(_)) => Some(101),          // a program bug: a distinctive exit code
            };
            match code {
                Some(code) if st.outcome.is_none() => {
                    self.guarded(&mut st, |st| {
                        self.handle(st, me, pid, ProcAction::Done(code))
                    });
                }
                _ => st.idle.push(me),
            }
        }
    }
}

impl<E: OsEngine + Send + 'static> Baton for Run<E> {
    fn act(&self, worker: usize, wake: &Condvar, pid: Pid, action: ProcAction) -> SysReply {
        let mut st = self.lock();
        if st.outcome.is_some() {
            return KILLED;
        }
        if let Some(reply) = self.guarded(&mut st, |st| self.handle(st, worker, pid, action)) {
            return reply;
        }
        match self.wait(st, worker, wake) {
            Some(Resume::Reply(_, reply)) => reply,
            _ => KILLED,
        }
    }
}
