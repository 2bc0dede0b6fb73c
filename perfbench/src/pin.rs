//! A fixed thread placement: engine worker `i` on CPU `i`, the main thread
//! on CPU 0 and the parallel-iterator helper `i` on CPU `i + 1` (all modulo
//! the CPU count), as the paper's engine binds its threads to NUMA domains.
//!
//! The engine does not pin, and on a 2-CPU host that makes the timings
//! bistable. Whenever the main thread works alone for a while (the serial
//! halo exchange of `clustering_k2`, the grid rebuild and sort elsewhere) the
//! last-level cache's utilisation sits near the 60% where Linux stops
//! searching for an idle sibling on wake-up (SIS_UTIL); past it, the threads
//! woken for the next parallel phase stay on the waker's CPU and share it,
//! which itself keeps the utilisation estimate high. The state outlives
//! processes. Measured on this host with one binary: 88 consecutive
//! `clustering_k2` runs at 0.158 s/iter, then 30 at 0.184; `epidemiology`
//! 0.041 against 0.045 — the difference entirely in the parallel phases
//! (`op.agent_ops_s`, `op.diffusion_s`, `numa.imbalance` 1.0 against 1.5).
//! A benchmark has to give one answer within bounds of 12%, so it fixes the
//! placement the scheduler would otherwise be guessing at.

use std::sync::OnceLock;

/// CPUs available to the process, read before anything is pinned (a pinned
/// main thread would report 1).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Pins every live engine thread of this process and returns how many were
/// pinned (0 where the platform has no such call). Threads inherit the mask
/// of the thread that spawned them, so this is called again after every
/// build. The main thread is pinned only once the parallel-iterator pool
/// exists, because that pool sizes itself from the main thread's mask.
#[cfg(target_os = "linux")]
pub fn pin_threads() -> usize {
    extern "C" {
        // glibc, which std already links; with a thread id as `pid` it
        // addresses that one thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let nproc = nproc();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let threads: Vec<(i32, String)> = tasks
        .flatten()
        .filter_map(|task| {
            let tid = task.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some((tid, name.trim().to_string()))
        })
        .collect();
    let helpers_exist = threads
        .iter()
        .any(|(_, name)| name.starts_with("rayon-shim-"));
    let index = |name: &str, prefix: &str| name.strip_prefix(prefix)?.parse::<usize>().ok();
    let mut pinned = 0;
    for (tid, name) in &threads {
        let cpu = if let Some(worker) = index(name, "bdm-worker-") {
            worker
        } else if let Some(helper) = index(name, "rayon-shim-") {
            helper + 1
        } else if *tid as u32 == std::process::id() && helpers_exist {
            0
        } else {
            continue;
        } % nproc;
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes that
        // the call only reads; a failure is counted, not assumed away.
        let status =
            unsafe { sched_setaffinity(*tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
        pinned += usize::from(status == 0);
    }
    pinned
}

#[cfg(not(target_os = "linux"))]
pub fn pin_threads() -> usize {
    0
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn pins_the_workers_of_a_pool() {
        let pool = bdm_numa::NumaThreadPool::new(bdm_numa::NumaTopology::new(2, 2));
        pool.broadcast(&|_| {});
        // Other tests run pools of their own in this process.
        assert!(super::pin_threads() >= pool.num_threads());
    }
}
