//! NUMA-aware persistent thread pool with two-level work stealing.
//!
//! Reproduces the iteration mechanism of paper Section 4.1 / Figure 2:
//!
//! 1. the per-domain agent vectors are partitioned into equally sized blocks,
//! 2. blocks are assigned to the threads of the *matching* domain,
//! 3. an idle thread first steals blocks from threads of its own domain,
//! 4. and only when the whole domain is drained does it steal from another
//!    domain ("two-level work stealing").
//!
//! The pool is persistent (workers are created once, like an OpenMP thread
//! pool) and accepts borrowing closures: [`NumaThreadPool::run`] blocks until
//! every worker finished, so handing workers a lifetime-erased reference to
//! the closure is sound.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::topology::NumaTopology;

/// Identity of the worker executing a piece of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCtx {
    /// Global worker thread id, `0..num_threads`.
    pub thread_id: usize,
    /// Virtual NUMA domain the worker belongs to.
    pub domain: usize,
}

/// Work-stealing counters (paper Figure 2 arrows 4 and 5). Because the
/// virtual topology has no DRAM-latency asymmetry, the *amount* of local vs.
/// remote stealing is the observable we report in the NUMA benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Blocks stolen from a thread of the same NUMA domain.
    pub local_steals: u64,
    /// Blocks stolen from a thread of a different NUMA domain.
    pub remote_steals: u64,
    /// Blocks executed by the thread they were assigned to.
    pub owned_blocks: u64,
}

/// Type-erased job pointer. Sound because `run` blocks until all workers
/// have finished executing the closure the pointer refers to.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync + 'static));
unsafe impl Send for JobPtr {}

struct JobSlot {
    seq: u64,
    job: Option<JobPtr>,
    quit: bool,
}

struct Shared {
    slot: Mutex<JobSlot>,
    job_cv: Condvar,
    done: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload raised by a worker during the current job; `run`
    /// re-raises it on the caller thread so a panicking agent operation
    /// fails the simulation instead of deadlocking the pool.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    local_steals: AtomicU64,
    remote_steals: AtomicU64,
    owned_blocks: AtomicU64,
}

thread_local! {
    /// True on pool worker threads; used to reject illegal nested `run`s.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Persistent NUMA-aware thread pool.
pub struct NumaThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    topology: NumaTopology,
    /// Serializes concurrent `run` calls from different handles.
    run_guard: Mutex<()>,
}

impl NumaThreadPool {
    /// Spawns one worker per thread of `topology`.
    pub fn new(topology: NumaTopology) -> NumaThreadPool {
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                seq: 0,
                job: None,
                quit: false,
            }),
            job_cv: Condvar::new(),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            local_steals: AtomicU64::new(0),
            remote_steals: AtomicU64::new(0),
            owned_blocks: AtomicU64::new(0),
        });
        let workers = (0..topology.num_threads())
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bdm-worker-{id}"))
                    .spawn(move || worker_loop(id, &shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        NumaThreadPool {
            shared,
            workers,
            topology,
            run_guard: Mutex::new(()),
        }
    }

    /// Pool built from [`NumaTopology::detect`].
    pub fn detected() -> NumaThreadPool {
        NumaThreadPool::new(NumaTopology::detect())
    }

    /// The topology this pool runs on.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f(worker_id)` once on every worker and blocks until all
    /// invocations finished.
    ///
    /// Panics when called from inside a pool worker (nested loops run as
    /// plain serial code instead — matching the paper's engine, where only
    /// the scheduler launches parallel regions, all on this one pool: the
    /// agent phase, the sort, the grid build and diffusion alike).
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        assert!(
            !IS_WORKER.with(|w| w.get()),
            "NumaThreadPool::run must not be called from a pool worker"
        );
        let _guard = self.run_guard.lock();
        // Erase the lifetime: workers only dereference the pointer while this
        // function is blocked waiting for them.
        let job = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const _)
        });
        {
            let mut done = self.shared.done.lock();
            *done = 0;
        }
        {
            let mut slot = self.shared.slot.lock();
            slot.seq += 1;
            slot.job = Some(job);
            self.shared.job_cv.notify_all();
        }
        let mut done = self.shared.done.lock();
        while *done < self.workers.len() {
            self.shared.done_cv.wait(&mut done);
        }
        drop(done);
        // Do not leave a dangling pointer in the slot.
        self.shared.slot.lock().job = None;
        // Re-raise the first worker panic on the caller (pool stays usable).
        if let Some(payload) = self.shared.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
    }

    /// NUMA-aware parallel iteration (paper Figure 2).
    ///
    /// `sizes[d]` is the number of items owned by domain `d` (e.g. the length
    /// of the resource manager's agent vector for that domain). Items are cut
    /// into blocks of `block_size`, assigned to the threads of the matching
    /// domain, and executed with two-level stealing. `f` receives the worker
    /// identity, the domain, and the item sub-range to process.
    pub fn numa_for(
        &self,
        sizes: &[usize],
        block_size: usize,
        f: &(dyn Fn(WorkerCtx, usize, Range<usize>) + Sync),
    ) {
        assert_eq!(
            sizes.len(),
            self.topology.num_domains(),
            "sizes must have one entry per NUMA domain"
        );
        let block_size = block_size.max(1);
        // Build one block queue per worker thread.
        let mut queues: Vec<Queue> = Vec::with_capacity(self.num_threads());
        for (domain, &size) in sizes.iter().enumerate() {
            let nblocks = size.div_ceil(block_size);
            let threads = self.topology.threads_of_domain(domain);
            let nthreads = threads.len();
            debug_assert_eq!(queues.len(), threads.start);
            // Partition the domain's blocks among the domain's threads.
            for t in 0..nthreads {
                let begin = nblocks * t / nthreads;
                let end = nblocks * (t + 1) / nthreads;
                queues.push(Queue {
                    next: AtomicUsize::new(begin),
                    end,
                    domain,
                    items: size,
                });
            }
        }
        let topo = &self.topology;
        let shared = &self.shared;
        self.run(&move |worker: usize| {
            let my_domain = topo.domain_of_thread(worker);
            let ctx = WorkerCtx {
                thread_id: worker,
                domain: my_domain,
            };
            // Level 0: own queue.
            let owned = drain(&queues[worker], block_size, ctx, f);
            shared.owned_blocks.fetch_add(owned, Ordering::Relaxed);
            // Level 1: steal within the domain (paper Figure 2, arrow 4).
            let domain_threads = topo.threads_of_domain(my_domain);
            for t in domain_threads.clone() {
                if t == worker {
                    continue;
                }
                let stolen = drain(&queues[t], block_size, ctx, f);
                shared.local_steals.fetch_add(stolen, Ordering::Relaxed);
            }
            // Level 2: steal from other domains (arrow 5).
            for d in 0..topo.num_domains() {
                if d == my_domain {
                    continue;
                }
                for t in topo.threads_of_domain(d) {
                    let stolen = drain(&queues[t], block_size, ctx, f);
                    shared.remote_steals.fetch_add(stolen, Ordering::Relaxed);
                }
            }
        });
    }

    /// Plain parallel iteration over `0..n` with dynamic block scheduling
    /// across all threads (no domain affinity). Used for work without a
    /// per-domain layout, e.g. growing shared vectors in parallel.
    pub fn parallel_for(
        &self,
        n: usize,
        block_size: usize,
        f: &(dyn Fn(WorkerCtx, Range<usize>) + Sync),
    ) {
        let block_size = block_size.max(1);
        let nblocks = n.div_ceil(block_size);
        let nthreads = self.num_threads();
        let queues: Vec<Queue> = (0..nthreads)
            .map(|t| Queue {
                next: AtomicUsize::new(nblocks * t / nthreads),
                end: nblocks * (t + 1) / nthreads,
                domain: 0,
                items: n,
            })
            .collect();
        let topo = &self.topology;
        self.run(&move |worker: usize| {
            let ctx = WorkerCtx {
                thread_id: worker,
                domain: topo.domain_of_thread(worker),
            };
            for offset in 0..nthreads {
                let victim = (worker + offset) % nthreads;
                drain(&queues[victim], block_size, ctx, &|c, _d, r| f(c, r));
            }
        });
    }

    /// Runs `f` once per worker thread (e.g. to set up thread-local state).
    pub fn broadcast(&self, f: &(dyn Fn(WorkerCtx) + Sync)) {
        let topo = &self.topology;
        self.run(&move |worker| {
            f(WorkerCtx {
                thread_id: worker,
                domain: topo.domain_of_thread(worker),
            })
        });
    }

    /// Returns the accumulated steal statistics and resets the counters.
    pub fn take_steal_stats(&self) -> StealStats {
        StealStats {
            local_steals: self.shared.local_steals.swap(0, Ordering::Relaxed),
            remote_steals: self.shared.remote_steals.swap(0, Ordering::Relaxed),
            owned_blocks: self.shared.owned_blocks.swap(0, Ordering::Relaxed),
        }
    }
}

impl Drop for NumaThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.quit = true;
            self.shared.job_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for NumaThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumaThreadPool")
            .field("threads", &self.num_threads())
            .field("domains", &self.topology.num_domains())
            .finish()
    }
}

/// A contiguous range of block indices owned by one worker, consumed with a
/// shared atomic cursor so both the owner and thieves pop from it safely.
struct Queue {
    next: AtomicUsize,
    end: usize,
    domain: usize,
    /// Total number of items in this queue's domain (to clamp the last block).
    items: usize,
}

/// Pops and executes blocks from `q` until it is empty; returns the number of
/// blocks executed.
fn drain(
    q: &Queue,
    block_size: usize,
    ctx: WorkerCtx,
    f: &(dyn Fn(WorkerCtx, usize, Range<usize>) + Sync),
) -> u64 {
    let mut executed = 0u64;
    loop {
        let b = q.next.fetch_add(1, Ordering::Relaxed);
        if b >= q.end {
            // Undo the overshoot so repeated probing cannot wrap the counter.
            q.next.fetch_sub(1, Ordering::Relaxed);
            return executed;
        }
        let start = b * block_size;
        let end = (start + block_size).min(q.items);
        f(ctx, q.domain, start..end);
        executed += 1;
    }
}

fn worker_loop(id: usize, shared: &Shared) {
    IS_WORKER.with(|w| w.set(true));
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock();
            while !slot.quit && slot.seq == last_seq {
                shared.job_cv.wait(&mut slot);
            }
            if slot.quit {
                return;
            }
            last_seq = slot.seq;
            slot.job.expect("job published with seq bump")
        };
        // SAFETY: `run` keeps the closure alive until all workers report done.
        let f = unsafe { &*job.0 };
        // A panicking job must still count as done, or `run` waits forever;
        // the payload is stashed and re-raised on the caller thread.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(id))) {
            let mut first = shared.panic.lock();
            if first.is_none() {
                *first = Some(payload);
            }
        }
        let mut done = shared.done.lock();
        *done += 1;
        if *done == usize::MAX {
            unreachable!();
        }
        shared.done_cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn pool(domains: usize, threads: usize) -> NumaThreadPool {
        NumaThreadPool::new(NumaTopology::new(domains, threads))
    }

    #[test]
    fn parallel_for_runs_every_index_once() {
        let p = pool(2, 4);
        for n in [0usize, 1, 7, 100, 1000] {
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            p.parallel_for(n, 16, &|_ctx, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n={n}: every index exactly once"
            );
        }
    }

    #[test]
    fn numa_for_runs_every_domain_item_once() {
        let p = pool(2, 4);
        let sizes = [103usize, 57];
        let hits: Vec<Vec<AtomicU32>> = sizes
            .iter()
            .map(|&s| (0..s).map(|_| AtomicU32::new(0)).collect())
            .collect();
        p.numa_for(&sizes, 8, &|_ctx, domain, range| {
            for i in range {
                hits[domain][i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (d, dh) in hits.iter().enumerate() {
            for (i, h) in dh.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "domain {d} item {i}");
            }
        }
    }

    #[test]
    fn numa_for_prefers_matching_domain() {
        // With perfectly balanced work and blocks >= items/thread, most items
        // should be processed by threads of the owning domain.
        let p = pool(2, 4);
        let sizes = [1000usize, 1000];
        let cross = AtomicU32::new(0);
        p.numa_for(&sizes, 10, &|ctx, domain, range| {
            if ctx.domain != domain {
                cross.fetch_add(range.len() as u32, Ordering::Relaxed);
            }
            // Make blocks take comparable time so stealing isn't forced.
            std::hint::black_box(range.clone().sum::<usize>());
        });
        let crossed = cross.load(Ordering::Relaxed);
        assert!(
            crossed <= 1000,
            "most work stays domain-local, crossed={crossed}"
        );
    }

    #[test]
    fn remote_steals_happen_on_imbalance() {
        let p = pool(2, 2);
        p.take_steal_stats();
        // All work sits in domain 0; domain 1's thread can only steal remotely.
        // Each block spins long enough (~hundreds of µs) that the idle domain
        // reliably wakes up while the queue is still non-empty.
        let sizes = [2_000usize, 0];
        p.numa_for(&sizes, 16, &|_ctx, _domain, range| {
            let mut acc = 1u64;
            for i in range {
                for k in 0..20_000u64 {
                    acc = std::hint::black_box(
                        acc.wrapping_mul(2654435761).wrapping_add(i as u64 ^ k),
                    );
                }
            }
            std::hint::black_box(acc);
        });
        let stats = p.take_steal_stats();
        assert!(stats.owned_blocks > 0);
        assert!(
            stats.remote_steals > 0,
            "domain 1 must steal remotely: {stats:?}"
        );
    }

    #[test]
    fn borrows_local_data() {
        let p = pool(1, 2);
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        p.parallel_for(data.len(), 64, &|_ctx, range| {
            let s: u64 = data[range].iter().sum();
            sum.fetch_add(s, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1000 * 999 / 2);
    }

    #[test]
    fn broadcast_reaches_every_worker() {
        let p = pool(2, 4);
        let seen: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        p.broadcast(&|ctx| {
            seen[ctx.thread_id].fetch_add(1, Ordering::Relaxed);
            assert_eq!(ctx.domain, ctx.thread_id / 2);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn many_consecutive_jobs() {
        let p = pool(2, 4);
        let counter = AtomicU64::new(0);
        for _ in 0..200 {
            p.parallel_for(10, 1, &|_ctx, range| {
                counter.fetch_add(range.len() as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn concurrent_callers_serialize_safely() {
        // Threads sharing one pool each get their own complete job: `run`
        // serializes them through its guard.
        let p = pool(2, 4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let p = &p;
                scope.spawn(move || {
                    let sum = AtomicU64::new(0);
                    p.parallel_for(5_000, 64, &|_ctx, range| {
                        let s: u64 = range.map(|i| i as u64 * 2 + t).sum();
                        sum.fetch_add(s, Ordering::Relaxed);
                    });
                    assert_eq!(sum.into_inner(), 4_999 * 5_000 + 5_000 * t);
                });
            }
        });
    }

    #[test]
    fn single_thread_pool_works() {
        let p = pool(1, 1);
        let hits = AtomicU32::new(0);
        p.numa_for(&[17], 4, &|ctx, d, range| {
            assert_eq!(ctx.thread_id, 0);
            assert_eq!(d, 0);
            hits.fetch_add(range.len() as u32, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn nested_run_is_rejected() {
        let p = pool(1, 2);
        let p2 = pool(1, 1);
        let caught = AtomicU32::new(0);
        p.broadcast(&|_ctx| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p2.parallel_for(1, 1, &|_c, _r| {});
            }));
            if r.is_err() {
                caught.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(caught.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn drop_joins_cleanly() {
        for _ in 0..5 {
            let p = pool(2, 4);
            p.parallel_for(100, 8, &|_c, _r| {});
            drop(p);
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let p = pool(2, 4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.parallel_for(100, 1, &|_ctx, range| {
                if range.contains(&42) {
                    panic!("agent 42 exploded");
                }
            });
        }));
        let payload = caught.expect_err("panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "agent 42 exploded");
        // The pool must remain fully usable after a panicking job.
        let counter = AtomicU64::new(0);
        p.parallel_for(100, 8, &|_ctx, range| {
            counter.fetch_add(range.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }
}
