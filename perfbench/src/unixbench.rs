//! `unixbench`: the Unixbench analogs through the real `Host`, one fresh
//! Enhanced-policy OS (default config: trace and axiom off) per program
//! run. Host-handoff-bound: every simulated syscall is a thread round trip
//! between the program's thread and the host.

use std::time::Instant;

use osiris_kernel::{Host, HostConfig, OsEngine, ProgramRegistry, RunOutcome};
use osiris_servers::{Os, OsConfig};
use osiris_workloads::register_unixbench;

use crate::layers::{traced_pass, Tracer};
use crate::probe::Probed;
use crate::{permutation, timed_setup, workers, Args, Dispenser, EndToEnd, Report};

/// Pinned at the benchmark's defining commit: program, iteration count,
/// virtual cycles of the run.
const PINS: &str = include_str!("../pins/unixbench.tsv");

/// Registry builds per timed set-up sample.
const SETUP_BATCH: usize = 200;

struct Program {
    name: String,
    iters: u64,
    cycles: u64,
}

fn programs() -> Vec<Program> {
    crate::pin_rows(PINS)
        .map(|f| Program {
            name: f[0].to_string(),
            iters: f[1].parse().expect("iteration count"),
            cycles: f[2].parse().expect("pinned cycles"),
        })
        .collect()
}

/// One program run's observable result.
struct RunResult {
    /// Index of the program in the pin table.
    prog: usize,
    ok: bool,
    submits: u64,
    ns: u64,
    /// `Host::run` wall time and the time inside engine calls, in ns
    /// (traced runs only).
    split: Option<(u64, u64)>,
}

/// Boots a fresh OS and runs `prog` through `Host`, then audits it. The
/// returned time covers boot, run and audit.
fn run_program(
    progs: &[Program],
    p: usize,
    registry: &ProgramRegistry,
    op: u64,
    t: &mut Tracer,
) -> RunResult {
    let prog = &progs[p];
    let t0 = Instant::now();
    let mut os = t.boot(op, || Os::new(OsConfig::default()));
    t.checkpoint_probe(&mut os, op);
    let before = t.registry(&os);
    let iters = prog.iters.to_string();
    let traced = t.on;
    let ((outcome, os, cycles, run_ns), counts) = t.drive("host.run", op, || {
        let mut host =
            Host::new(Probed::new(os, traced), registry.clone()).with_config(HostConfig::default());
        let start = host.engine().now();
        let r0 = Instant::now();
        let outcome = host.run(&prog.name, &[&iters]);
        let run_ns = r0.elapsed().as_nanos() as u64;
        let probed = host.into_engine();
        let counts = probed.counts();
        let os = probed.into_inner();
        let cycles = os.kernel().now() - start;
        ((outcome, os, cycles, run_ns), counts)
    });
    let consistent = t.postprocess(op, || os.audit().is_empty());
    let ns = t0.elapsed().as_nanos() as u64;
    t.registry_since(&os, before);
    let ok = matches!(outcome, RunOutcome::Completed { init_code: 0, .. })
        && consistent
        && cycles == prog.cycles;
    if !ok {
        eprintln!(
            "[perfbench] unixbench {} {} {cycles}: outcome {outcome:?}, pinned {}, consistent {consistent}",
            prog.name, prog.iters, prog.cycles
        );
    }
    RunResult {
        prog: p,
        ok,
        submits: counts.submits,
        ns,
        split: traced.then_some((run_ns, counts.ns)),
    }
}

pub fn run(args: &Args) -> Report {
    let progs = programs();
    // One registry build takes microseconds: time batches of them.
    let build = || {
        let mut registry = ProgramRegistry::new();
        register_unixbench(&mut registry);
        registry
    };
    let (registry, batch_s) = timed_setup(21, || {
        let mut registry = build();
        for _ in 1..SETUP_BATCH {
            registry = std::hint::black_box(build());
        }
        registry
    });
    let setup_s = batch_s / SETUP_BATCH as f64;
    let n = progs.len();
    // Operation i runs program order[i % n] of pass i / n.
    let job = |i: usize| permutation(args.seed, (i / n) as u64, n)[i % n];

    if args.trace {
        let jobs: Vec<usize> = (0..n * 256).map(job).collect();
        let (results, metrics) = traced_pass(
            args,
            &jobs,
            |_| (),
            |j, op, t| run_program(&progs, j, &registry, op, t),
        );
        for (p, prog) in progs.iter().enumerate() {
            let runs = results.iter().filter(|r| r.prog == p);
            let (run_ns, engine_ns, submits) = runs
                .filter_map(|r| r.split.map(|(run, engine)| (run, engine, r.submits)))
                .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
            eprintln!(
                "[perfbench]   {:<9} host share {:.3} of Host::run; host {:.2} us, engine {:.2} us per syscall",
                prog.name,
                run_ns.saturating_sub(engine_ns) as f64 / run_ns.max(1) as f64,
                run_ns.saturating_sub(engine_ns) as f64 / 1e3 / submits.max(1) as f64,
                engine_ns as f64 / 1e3 / submits.max(1) as f64
            );
        }
        return Report::new(results.iter().map(|r| r.ok), metrics);
    }

    let (results, elapsed, passes) = Dispenser::new(n, args.budget()).run(workers(), |i| {
        run_program(&progs, job(i), &registry, i as u64, &mut Tracer::new(false))
    });
    for (p, prog) in progs.iter().enumerate() {
        let runs: Vec<&RunResult> = results.iter().filter(|r| r.prog == p).collect();
        let ms: Vec<f64> = runs.iter().map(|r| r.ns as f64 / 1e6).collect();
        let syscalls: u64 = runs.iter().map(|r| r.submits).sum();
        eprintln!(
            "[perfbench]   {:<9} {:>4} runs, median {:>8.3} ms, {:>6.2} us/syscall",
            prog.name,
            runs.len(),
            crate::stats::median(&ms),
            ms.iter().sum::<f64>() * 1e3 / syscalls.max(1) as f64
        );
    }
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
