//! Measurement from outside the crates: an [`OsEngine`] wrapper that
//! delegates every call to the simulated OS and counts (and, when tracing,
//! times) it, plus the in-memory span recorder of the traced run.

use std::cell::Cell;
use std::time::Instant;

use osiris_kernel::abi::{Pid, SysReply, Syscall};
use osiris_kernel::{OsEngine, ShutdownKind, SyscallId};

/// Counts taken at the engine boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounts {
    /// `submit` calls: one per simulated syscall.
    pub submits: u64,
    /// `pump` calls.
    pub pumps: u64,
    /// `fire_next_timer` calls that fired a timer.
    pub timer_fires: u64,
    /// Engine calls timed (all seven entry points; traced runs only).
    pub calls: u64,
    /// Host time inside engine calls (traced runs only).
    pub ns: u64,
    /// Allocator calls inside engine calls (traced runs only).
    pub allocs: u64,
}

/// The engine-boundary wrapper. Untraced, it only counts `submit`,
/// `pump` and timer fires; traced, it also times every engine call and
/// counts the allocator calls made inside it.
pub struct Probed<E> {
    inner: E,
    trace: bool,
    counts: Cell<EngineCounts>,
}

impl<E> Probed<E> {
    pub fn new(inner: E, trace: bool) -> Probed<E> {
        Probed {
            inner,
            trace,
            counts: Cell::new(EngineCounts::default()),
        }
    }

    pub fn into_inner(self) -> E {
        self.inner
    }

    pub fn counts(&self) -> EngineCounts {
        self.counts.get()
    }

    fn bump(&self, f: impl FnOnce(&mut EngineCounts)) {
        bump(&self.counts, f);
    }
}

fn bump(counts: &Cell<EngineCounts>, f: impl FnOnce(&mut EngineCounts)) {
    let mut c = counts.get();
    f(&mut c);
    counts.set(c);
}

/// Runs one engine call, timing it and counting its allocator calls when
/// tracing.
fn timed<R>(trace: bool, counts: &Cell<EngineCounts>, call: impl FnOnce() -> R) -> R {
    if !trace {
        return call();
    }
    let a0 = crate::alloc_calls();
    let t0 = Instant::now();
    let r = call();
    let ns = t0.elapsed().as_nanos() as u64;
    let allocs = crate::alloc_calls() - a0;
    bump(counts, |c| {
        c.calls += 1;
        c.ns += ns;
        c.allocs += allocs;
    });
    r
}

impl<E: OsEngine> OsEngine for Probed<E> {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.bump(|c| c.submits += 1);
        let Probed {
            inner,
            trace,
            counts,
        } = self;
        timed(*trace, counts, || inner.submit(sid, pid, call))
    }

    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        self.bump(|c| c.pumps += 1);
        let Probed {
            inner,
            trace,
            counts,
        } = self;
        timed(*trace, counts, || inner.pump())
    }

    fn take_kill_events(&mut self) -> Vec<Pid> {
        let Probed {
            inner,
            trace,
            counts,
        } = self;
        timed(*trace, counts, || inner.take_kill_events())
    }

    fn fire_next_timer(&mut self) -> bool {
        let Probed {
            inner,
            trace,
            counts,
        } = self;
        let fired = timed(*trace, counts, || inner.fire_next_timer());
        if fired {
            self.bump(|c| c.timer_fires += 1);
        }
        fired
    }

    fn shutdown_state(&self) -> Option<ShutdownKind> {
        timed(self.trace, &self.counts, || self.inner.shutdown_state())
    }

    fn now(&self) -> u64 {
        timed(self.trace, &self.counts, || self.inner.now())
    }

    fn charge_user(&mut self, units: u64) {
        let Probed {
            inner,
            trace,
            counts,
        } = self;
        timed(*trace, counts, || inner.charge_user(units))
    }
}

/// One recorded span. Engine calls are recorded as one aggregate span per
/// operation (`count` calls, `busy_ns` summed), so a traced campaign keeps
/// a few spans per injection instead of one per engine call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Operation id: the program run or injection this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time attributed to the span: `end - start`, or the summed duration
    /// of an aggregate span's calls.
    pub busy_ns: u64,
    /// Calls covered (1 for a plain span).
    pub count: u64,
    pub allocs: u64,
}

/// In-memory span recorder, written out once when the traced run ends.
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let idx = self.list.len();
        let start = self.now_ns();
        self.list.push(Span {
            name,
            op,
            parent: self.open.last().map(|(i, _)| *i),
            start_ns: start,
            end_ns: start,
            busy_ns: 0,
            count: 1,
            allocs: 0,
        });
        self.open.push((idx, crate::alloc_calls()));
    }

    /// Closes the innermost open span; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let (idx, a0) = self.open.pop().expect("exit without enter");
        let end = self.now_ns();
        let s = &mut self.list[idx];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
        s.allocs = crate::alloc_calls() - a0;
        s.busy_ns
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
        self.enter(name, op);
        let r = f();
        (r, self.exit())
    }

    /// Records the engine calls of one operation as an aggregate child of
    /// the innermost open span (or of span `parent`).
    pub fn engine_aggregate(&mut self, parent: usize, op: u64, c: &EngineCounts) {
        let p = &self.list[parent];
        let (start_ns, end_ns) = (p.start_ns, p.end_ns);
        self.list.push(Span {
            name: "engine",
            op,
            parent: Some(parent),
            start_ns,
            end_ns,
            busy_ns: c.ns,
            count: c.calls,
            allocs: c.allocs,
        });
    }

    /// Index of the most recently closed or opened span.
    pub fn last(&self) -> usize {
        self.list.len() - 1
    }

    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Writes the spans as JSON lines under `target/perfbench/`.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<std::path::PathBuf> {
        use std::io::Write;
        let dir = std::path::Path::new("target").join("perfbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"count\": {}, \"allocs\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.busy_ns, s.count, s.allocs
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}
