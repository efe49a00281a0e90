//! Per-layer attribution of the traced run: registry deltas, timed layer
//! calls and the engine-boundary split, normalized per simulated syscall or
//! per operation. Layer names follow the repository's modules.

use std::time::Instant;

use osiris_metrics::{MetricsSnapshot, SeriesValue};
use osiris_servers::{Os, OsSnapshot};

use crate::probe::{EngineCounts, Spans};
use crate::Metric;

/// The counters read from one OS's public registry and sinks.
#[derive(Clone, Copy, Debug)]
pub enum Reg {
    /// Messages the kernel delivered between endpoints.
    Ipc,
    /// Messages handled by PM, VFS, VM, DS and RS.
    MsgsPm,
    MsgsVfs,
    MsgsVm,
    MsgsDs,
    MsgsRs,
    UndoAppends,
    /// Logged writes the undo journal coalesced away.
    Coalesced,
    /// Chunks copied back / skipped by copy-on-write restores.
    RestoreDirty,
    RestoreClean,
    Rollbacks,
    FreshRestarts,
    Shutdowns,
    WatchdogVerdicts,
    TraceEvents,
    AxiomEvents,
    AxiomBytes,
}

const REGS: usize = Reg::AxiomBytes as usize + 1;

/// The servers whose message counts are reported, as registry component
/// labels, in `Reg::MsgsPm..=Reg::MsgsRs` order.
const SERVERS: [&str; 5] = ["pm", "vfs", "vm", "ds", "rs"];

/// Values of every [`Reg`] counter.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegCounts([u64; REGS]);

impl std::ops::Index<Reg> for RegCounts {
    type Output = u64;
    fn index(&self, r: Reg) -> &u64 {
        &self.0[r as usize]
    }
}

fn family_sum(snap: &MetricsSnapshot, name: &str, label: Option<(&str, &str)>) -> u64 {
    let Some(f) = snap.families.iter().find(|f| f.name == name) else {
        return 0;
    };
    f.series
        .iter()
        .filter(|s| label.is_none_or(|(k, v)| s.labels.iter().any(|(a, b)| a == k && b == v)))
        .map(|s| match &s.value {
            SeriesValue::Counter(v) | SeriesValue::Gauge(v) => *v,
            SeriesValue::Hist(h) => h.count(),
        })
        .sum()
}

impl RegCounts {
    pub fn of(os: &Os) -> RegCounts {
        let snap = os.metrics_snapshot();
        let m = os.metrics();
        let msgs = |comp| {
            family_sum(
                &snap,
                "osiris_comp_messages_total",
                Some(("component", comp)),
            )
        };
        let chunks = |kind| family_sum(&snap, "osiris_restart_chunks_total", Some(("kind", kind)));
        // In `Reg` order.
        RegCounts([
            m.ipc_delivered,
            msgs(SERVERS[0]),
            msgs(SERVERS[1]),
            msgs(SERVERS[2]),
            msgs(SERVERS[3]),
            msgs(SERVERS[4]),
            family_sum(&snap, "osiris_comp_undo_appends_total", None),
            family_sum(&snap, "osiris_comp_coalesced_writes_total", None),
            chunks("dirty"),
            chunks("clean"),
            m.recovered_rollback,
            m.recovered_fresh,
            m.controlled_shutdowns,
            m.wd_verdicts,
            os.trace_handle().with(|t| t.total_recorded()),
            os.axiom().len() as u64,
            os.axiom().bytes_len() as u64,
        ])
    }

    /// What was counted since `before` (the axiom size is cumulative from
    /// boot, so its difference is what the operation added).
    pub fn since(&self, before: &RegCounts) -> RegCounts {
        RegCounts(std::array::from_fn(|i| {
            self.0[i].saturating_sub(before.0[i])
        }))
    }

    fn add(&mut self, o: &RegCounts) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }
}

/// Sums over the operations of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct LayerSums {
    pub ops: u64,
    /// Wall time of the traced pass's operations, without the tracer's
    /// bookkeeping.
    pub op_ns: u64,
    pub engine: EngineCounts,
    /// Wall time and allocator calls of the drive (`Host::run`, or the
    /// `ScriptWorkload` suffix on the forge), engine calls included.
    pub drive_ns: u64,
    pub drive_allocs: u64,
    pub reg: RegCounts,
    pub boots: u64,
    pub boot_ns: u64,
    pub snapshots: u64,
    pub snapshot_ns: u64,
    pub readopts: u64,
    pub forks: u64,
    pub readopt_ns: u64,
    pub readopt_allocs: u64,
    pub fork_dirty_bytes: u64,
    pub postprocess_ns: u64,
}

impl LayerSums {
    pub fn add_engine(&mut self, c: &EngineCounts) {
        let e = &mut self.engine;
        e.submits += c.submits;
        e.pumps += c.pumps;
        e.timer_fires += c.timer_fires;
        e.calls += c.calls;
        e.ns += c.ns;
        e.allocs += c.allocs;
    }

    /// Checks that the engine calls fit inside the drive that made them:
    /// host time plus engine time must account for the drive's wall time.
    pub fn check_split(&self) -> bool {
        self.engine.ns <= self.drive_ns && self.engine.allocs <= self.drive_allocs
    }

    /// The per-layer metrics, given the untraced wall time of the same
    /// operations.
    pub fn metrics(&self, untraced_ns: u64) -> Vec<Metric> {
        let per = |n: u64, base: u64| {
            if base == 0 {
                0.0
            } else {
                n as f64 / base as f64
            }
        };
        let sc = self.engine.submits;
        let ops = self.ops;
        let host_ns = self.drive_ns.saturating_sub(self.engine.ns);
        let host_allocs = self.drive_allocs.saturating_sub(self.engine.allocs);
        let r = |reg: Reg| self.reg[reg];
        let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
        let mut out = vec![
            m("host.ns_per_syscall", per(host_ns, sc), "ns"),
            m("host.allocs_per_syscall", per(host_allocs, sc), "count"),
            m("host.share", per(host_ns, self.drive_ns), "ratio"),
            m("engine.ns_per_syscall", per(self.engine.ns, sc), "ns"),
            m(
                "engine.allocs_per_syscall",
                per(self.engine.allocs, sc),
                "count",
            ),
            m(
                "engine.pumps_per_syscall",
                per(self.engine.pumps, sc),
                "count",
            ),
            m(
                "engine.timer_fires_per_syscall",
                per(self.engine.timer_fires, sc),
                "count",
            ),
            m("kernel.msgs_per_syscall", per(r(Reg::Ipc), sc), "count"),
            m(
                "servers.pm.msgs_per_syscall",
                per(r(Reg::MsgsPm), sc),
                "count",
            ),
            m(
                "servers.vfs.msgs_per_syscall",
                per(r(Reg::MsgsVfs), sc),
                "count",
            ),
            m(
                "servers.vm.msgs_per_syscall",
                per(r(Reg::MsgsVm), sc),
                "count",
            ),
            m(
                "servers.ds.msgs_per_syscall",
                per(r(Reg::MsgsDs), sc),
                "count",
            ),
            m(
                "servers.rs.msgs_per_syscall",
                per(r(Reg::MsgsRs), sc),
                "count",
            ),
        ];
        out.extend([
            m(
                "checkpoint.undo_appends_per_syscall",
                per(r(Reg::UndoAppends), sc),
                "count",
            ),
            m(
                "checkpoint.coalesce_ratio",
                per(r(Reg::Coalesced), r(Reg::Coalesced) + r(Reg::UndoAppends)),
                "ratio",
            ),
            m(
                "checkpoint.restore_dirty_chunks_per_op",
                per(r(Reg::RestoreDirty), ops),
                "count",
            ),
            m(
                "checkpoint.restore_clean_chunks_per_op",
                per(r(Reg::RestoreClean), ops),
                "count",
            ),
            m(
                "checkpoint.snapshot_us",
                per(self.snapshot_ns, self.snapshots) / 1e3,
                "us",
            ),
            m(
                "checkpoint.readopt_us",
                per(self.readopt_ns, self.readopts) / 1e3,
                "us",
            ),
            m(
                "checkpoint.readopt_allocs",
                per(self.readopt_allocs, self.readopts),
                "count",
            ),
            m(
                "checkpoint.fork_dirty_kb_per_op",
                per(self.fork_dirty_bytes, ops) / 1024.0,
                "kB",
            ),
            m(
                "forge.readopt_ratio",
                per(self.readopts, self.readopts + self.forks),
                "ratio",
            ),
            m("faults.boot_us", per(self.boot_ns, self.boots) / 1e3, "us"),
            m(
                "faults.rollbacks_per_op",
                per(r(Reg::Rollbacks), ops),
                "count",
            ),
            m(
                "faults.fresh_restarts_per_op",
                per(r(Reg::FreshRestarts), ops),
                "count",
            ),
            m(
                "faults.shutdowns_per_op",
                per(r(Reg::Shutdowns), ops),
                "count",
            ),
            m(
                "faults.watchdog_verdicts_per_op",
                per(r(Reg::WatchdogVerdicts), ops),
                "count",
            ),
            m(
                "sinks.trace_events_per_syscall",
                per(r(Reg::TraceEvents), sc),
                "count",
            ),
            m(
                "sinks.axiom_events_per_op",
                per(r(Reg::AxiomEvents), ops),
                "count",
            ),
            m(
                "sinks.axiom_bytes_per_op",
                per(r(Reg::AxiomBytes), ops),
                "B",
            ),
            m(
                "sinks.postprocess_us_per_op",
                per(self.postprocess_ns, ops) / 1e3,
                "us",
            ),
            m(
                "trace.overhead_pct",
                100.0 * (self.op_ns as f64 / untraced_ns.max(1) as f64 - 1.0),
                "%",
            ),
            m("trace.ops", ops as f64, "count"),
        ]);
        out
    }
}

/// What an operation records into: spans plus layer sums when tracing;
/// when off, every method just runs its layer call.
pub struct Tracer {
    pub on: bool,
    pub spans: Spans,
    pub sums: LayerSums,
    /// Wall time spent on the benchmark's own reads and probes, which
    /// [`traced_pass`] leaves out of the operations' time.
    bookkeeping_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Spans::new(),
            sums: LayerSums::default(),
            bookkeeping_ns: 0,
        }
    }

    fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
        if self.on {
            self.spans.span(name, op, f)
        } else {
            (f(), 0)
        }
    }

    /// Times `Os::new` as the `faults.boot` layer call.
    pub fn boot(&mut self, op: u64, boot: impl FnOnce() -> Os) -> Os {
        let (os, ns) = self.span("faults.boot", op, boot);
        self.sums.boots += 1;
        self.sums.boot_ns += ns;
        os
    }

    /// Times one `Os::snapshot_into`.
    pub fn snapshot(&mut self, op: u64, take: impl FnOnce() -> OsSnapshot) -> OsSnapshot {
        let (snap, ns) = self.span("checkpoint.snapshot", op, take);
        self.sums.snapshots += 1;
        self.sums.snapshot_ns += ns;
        snap
    }

    /// Times one snapshot adoption, which reports whether it re-adopted a
    /// live OS (`try_readopt`) or booted a fork (`fork_from`), and the
    /// bytes it restored.
    pub fn adopt<R>(&mut self, op: u64, adopt: impl FnOnce() -> (R, bool, u64)) -> R {
        let a0 = crate::alloc_calls();
        let ((r, readopted, dirty), ns) = self.span("checkpoint.adopt", op, adopt);
        if readopted {
            self.sums.readopts += 1;
            self.sums.readopt_ns += ns;
            self.sums.readopt_allocs += crate::alloc_calls() - a0;
        } else {
            self.sums.forks += 1;
        }
        self.sums.fork_dirty_bytes += dirty;
        r
    }

    /// Times a drive over the engine (`Host::run` or a script suffix) and
    /// records its engine calls as an aggregate child span.
    pub fn drive<R>(
        &mut self,
        name: &'static str,
        op: u64,
        drive: impl FnOnce() -> (R, EngineCounts),
    ) -> (R, EngineCounts) {
        if !self.on {
            return drive();
        }
        let a0 = crate::alloc_calls();
        self.spans.enter(name, op);
        let idx = self.spans.last();
        let (r, counts) = drive();
        let ns = self.spans.exit();
        self.spans.engine_aggregate(idx, op, &counts);
        self.sums.drive_ns += ns;
        self.sums.drive_allocs += crate::alloc_calls() - a0;
        self.sums.add_engine(&counts);
        (r, counts)
    }

    /// Times the post-run sinks: audit, metrics, classification and
    /// attribution.
    pub fn postprocess<R>(&mut self, op: u64, post: impl FnOnce() -> R) -> R {
        let (r, ns) = self.span("sinks.postprocess", op, post);
        self.sums.postprocess_ns += ns;
        r
    }

    /// The registry counters of `os` (taken only when tracing).
    pub fn registry(&mut self, os: &Os) -> Option<RegCounts> {
        let t0 = Instant::now();
        let counts = self.on.then(|| RegCounts::of(os));
        self.bookkeeping_ns += t0.elapsed().as_nanos() as u64;
        counts
    }

    /// Adds what `os`'s registry counted since `before`.
    pub fn registry_since(&mut self, os: &Os, before: Option<RegCounts>) {
        let t0 = Instant::now();
        if let Some(before) = before {
            let d = RegCounts::of(os).since(&before);
            self.sums.reg.add(&d);
        }
        self.bookkeeping_ns += t0.elapsed().as_nanos() as u64;
    }

    /// The checkpoint probe of a Host workload: one `snapshot_into` of the
    /// freshly booted OS and one `try_readopt` of it, so the checkpoint
    /// layer is measured on every workload's machine state. Its time is
    /// bookkeeping, not part of the operation.
    pub fn checkpoint_probe(&mut self, os: &mut Os, op: u64) {
        if !self.on {
            return;
        }
        let t0 = Instant::now();
        let mut store = osiris_checkpoint::ChunkStore::new();
        let snap = self.snapshot(op, || os.snapshot_into(&mut store, None));
        self.adopt(op, || {
            let stats = os
                .try_readopt(&snap, &store)
                .expect("a quiescent OS re-adopts its own snapshot");
            ((), true, stats.bytes_restored as u64)
        });
        snap.release(&mut store);
        self.bookkeeping_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Writes the spans under `target/perfbench/`.
    pub fn write_spans(&self, args: &crate::Args) {
        match self.spans.write(&args.workload, args.seed) {
            Ok(p) => eprintln!(
                "[perfbench] {} spans written to {}",
                self.spans.list().len(),
                p.display()
            ),
            Err(e) => eprintln!("[perfbench] could not write spans: {e}"),
        }
    }
}

/// Runs `op` over `jobs` single-threaded until the budget is spent, each
/// job twice in a row, untraced and then traced, so that drift in the
/// host's speed weighs on both alike. `prologue` runs once in each mode
/// before the jobs (work the jobs share, such as the forge's prefix
/// snapshots). Returns every result and the per-layer metrics (empty when
/// the engine split fails its check).
pub fn traced_pass<T>(
    args: &crate::Args,
    jobs: &[usize],
    mut prologue: impl FnMut(&mut Tracer),
    mut op: impl FnMut(usize, u64, &mut Tracer) -> T,
) -> (Vec<T>, Vec<Metric>) {
    // Wall time of `f` on `t`, without the tracer's bookkeeping.
    fn timed<R>(t: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let (b0, t0) = (t.bookkeeping_ns, Instant::now());
        let r = f(t);
        let ns = t0.elapsed().as_nanos() as u64;
        (r, ns - (t.bookkeeping_ns - b0).min(ns))
    }
    let start = Instant::now();
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let mut untraced_ns = timed(&mut off, &mut prologue).1;
    on.sums.op_ns = timed(&mut on, &mut prologue).1;
    let mut results = Vec::new();
    for (i, &job) in jobs.iter().enumerate() {
        if i > 0 && start.elapsed() >= args.budget() {
            break;
        }
        let (r, ns) = timed(&mut off, |t| op(job, i as u64, t));
        untraced_ns += ns;
        results.push(r);
        let (r, ns) = timed(&mut on, |t| op(job, i as u64, t));
        on.sums.ops += 1;
        on.sums.op_ns += ns;
        results.push(r);
    }
    let metrics = if on.sums.check_split() {
        on.sums.metrics(untraced_ns)
    } else {
        eprintln!("[perfbench] engine time or allocations exceed their drive's");
        Vec::new()
    };
    on.write_spans(args);
    (results, metrics)
}
