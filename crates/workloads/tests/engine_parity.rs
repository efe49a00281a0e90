//! Property test: the compartmentalized OSIRIS OS and the monolithic
//! baseline implement the same ABI. Random syscall scripts must produce
//! *identical* result traces on both engines — timing may differ, semantics
//! may not. This is what makes the Table IV comparison meaningful.

use std::sync::{Arc, Mutex};

use osiris_kernel::abi::{OpenFlags, SeekFrom};
use osiris_kernel::{Host, ProgramRegistry, Sys};
use osiris_monolith::Monolith;
use osiris_rng::Rng;
use osiris_servers::{Os, OsConfig};

const CASES: u64 = 48;

/// One scripted operation. Descriptor-valued operations index into the list
/// of descriptors opened so far, so scripts stay well-formed on both
/// engines as long as they allocate descriptors identically (both use
/// lowest-free).
#[derive(Clone, Debug)]
enum Op {
    Open(u8, OpenFlags),
    Close(u8),
    Write(u8, Vec<u8>),
    Read(u8, u16),
    Seek(u8, i32),
    Unlink(u8),
    Mkdir(u8),
    ReadDir(u8),
    Stat(u8),
    Rename(u8, u8),
    Dup(u8),
    DsPut(u8, Vec<u8>),
    DsGet(u8),
    DsDel(u8),
    DsList,
    Brk(i8),
    Mmap(u8),
    VmStat,
    GetPid,
    SigPending,
}

fn gen_flags(r: &mut Rng) -> OpenFlags {
    match r.below(4) {
        0 => OpenFlags::RDONLY,
        1 => OpenFlags::CREATE,
        2 => OpenFlags::RDWR_CREATE,
        _ => OpenFlags::APPEND,
    }
}

fn gen_op(r: &mut Rng) -> Op {
    match r.below(20) {
        0 => {
            let p = r.byte();
            Op::Open(p, gen_flags(r))
        }
        1 => Op::Close(r.byte()),
        2 => {
            let len = r.below_usize(300);
            Op::Write(r.byte(), r.bytes(len))
        }
        3 => Op::Read(r.byte(), (r.next_u64() % 2048) as u16),
        4 => Op::Seek(r.byte(), (r.next_u64() as i32) % 5000),
        5 => Op::Unlink(r.byte()),
        6 => Op::Mkdir(r.byte()),
        7 => Op::ReadDir(r.byte()),
        8 => Op::Stat(r.byte()),
        9 => Op::Rename(r.byte(), r.byte()),
        10 => Op::Dup(r.byte()),
        11 => {
            let len = r.below_usize(32);
            Op::DsPut(r.byte(), r.bytes(len))
        }
        12 => Op::DsGet(r.byte()),
        13 => Op::DsDel(r.byte()),
        14 => Op::DsList,
        15 => Op::Brk((r.byte() as i8) % 8),
        16 => Op::Mmap(r.byte() % 16),
        17 => Op::VmStat,
        18 => Op::GetPid,
        _ => Op::SigPending,
    }
}

fn path(p: u8) -> String {
    // A small universe of paths, including directories and nested files.
    match p % 6 {
        0 => "/tmp/pa".to_string(),
        1 => "/tmp/pb".to_string(),
        2 => "/tmp/pc".to_string(),
        3 => "/tmp/dir".to_string(),
        4 => "/tmp/dir/inner".to_string(),
        _ => "/missing/path".to_string(),
    }
}

fn key(k: u8) -> String {
    format!("k{}", k % 5)
}

/// Executes the script, rendering every result as a string.
fn run_script(sys: &mut Sys, ops: &[Op], trace: &Mutex<Vec<String>>) {
    let mut fds = Vec::new();
    let push = |s: String| trace.lock().unwrap().push(s);
    for op in ops {
        let line = match op {
            Op::Open(p, f) => match sys.open(&path(*p), *f) {
                Ok(fd) => {
                    fds.push(fd);
                    format!("open {}", fd)
                }
                Err(e) => format!("open!{e}"),
            },
            Op::Close(i) => match fds.get(*i as usize % fds.len().max(1)) {
                Some(fd) => format!("close {:?}", sys.close(*fd)),
                None => "close-nofd".into(),
            },
            Op::Write(i, d) => match fds.get(*i as usize % fds.len().max(1)) {
                Some(fd) => format!("write {:?}", sys.write(*fd, d)),
                None => "write-nofd".into(),
            },
            Op::Read(i, n) => match fds.get(*i as usize % fds.len().max(1)) {
                Some(fd) => match sys.read(*fd, u32::from(*n)) {
                    Ok(d) => format!("read {} {:x}", d.len(), fingerprint(&d)),
                    Err(e) => format!("read!{e}"),
                },
                None => "read-nofd".into(),
            },
            Op::Seek(i, o) => match fds.get(*i as usize % fds.len().max(1)) {
                Some(fd) => {
                    let from = if *o < 0 {
                        SeekFrom::Current(i64::from(*o))
                    } else {
                        SeekFrom::Start(*o as u64)
                    };
                    format!("seek {:?}", sys.seek(*fd, from))
                }
                None => "seek-nofd".into(),
            },
            Op::Unlink(p) => format!("unlink {:?}", sys.unlink(&path(*p))),
            Op::Mkdir(p) => format!("mkdir {:?}", sys.mkdir(&path(*p))),
            Op::ReadDir(p) => format!("readdir {:?}", sys.readdir(&path(*p))),
            Op::Stat(p) => format!("stat {:?}", sys.stat(&path(*p))),
            Op::Rename(a, b) => format!("rename {:?}", sys.rename(&path(*a), &path(*b))),
            Op::Dup(i) => match fds.get(*i as usize % fds.len().max(1)) {
                Some(fd) => match sys.dup(*fd) {
                    Ok(nfd) => {
                        fds.push(nfd);
                        format!("dup {}", nfd)
                    }
                    Err(e) => format!("dup!{e}"),
                },
                None => "dup-nofd".into(),
            },
            Op::DsPut(k, v) => format!("put {:?}", sys.ds_put(&key(*k), v)),
            Op::DsGet(k) => match sys.ds_get(&key(*k)) {
                Ok(v) => format!("get {} {:x}", v.len(), fingerprint(&v)),
                Err(e) => format!("get!{e}"),
            },
            Op::DsDel(k) => format!("del {:?}", sys.ds_del(&key(*k))),
            Op::DsList => format!("list {:?}", sys.ds_list("")),
            Op::Brk(d) => format!("brk {:?}", sys.brk(i64::from(*d))),
            Op::Mmap(p) => format!("mmap {:?}", sys.mmap(u64::from(*p))),
            Op::VmStat => format!("vmstat {:?}", sys.vmstat()),
            Op::GetPid => format!("getpid {:?}", sys.getpid()),
            Op::SigPending => format!("sigpending {:?}", sys.sigpending()),
        };
        push(line);
    }
}

fn fingerprint(d: &[u8]) -> u64 {
    d.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn trace_on<E: osiris_kernel::OsEngine + Send + 'static>(engine: E, ops: Vec<Op>) -> Vec<String> {
    osiris_kernel::install_quiet_panic_hook();
    let trace = Arc::new(Mutex::new(Vec::new()));
    let shared = Arc::clone(&trace);
    let mut registry = ProgramRegistry::new();
    registry.register("script", move |sys| {
        run_script(sys, &ops, &shared);
        0
    });
    let mut host = Host::new(engine, registry);
    let outcome = host.run("script", &[]);
    assert!(outcome.completed(), "script wedged: {outcome:?}");
    let out = trace.lock().unwrap().clone();
    out
}

/// Any random single-process syscall script produces the same result trace
/// on the microkernel OS and the monolith.
#[test]
fn engines_agree_on_random_scripts() {
    for case in 0..CASES {
        let mut r = Rng::new(0xEA61_0001 ^ case);
        let n = 1 + r.below_usize(39);
        let ops: Vec<Op> = (0..n).map(|_| gen_op(&mut r)).collect();
        let osiris_trace = trace_on(
            Os::new(OsConfig {
                vm_frames: 1024,
                ..Default::default()
            }),
            ops.clone(),
        );
        let monolith_trace = trace_on(Monolith::with_cost(Default::default(), 64, 1024), ops);
        assert_eq!(osiris_trace, monolith_trace, "case seed {case}");
    }
}
