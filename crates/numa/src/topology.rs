//! Virtual NUMA topology.
//!
//! The paper's engine queries the hardware topology through libnuma/hwloc and
//! pins OpenMP threads to NUMA domains (Section 4.1). Inside a container (and
//! on non-NUMA laptops) there is no hardware topology to query, so this crate
//! models a **virtual topology**: a configurable number of domains, each
//! owning a contiguous span of worker threads. Every control-flow mechanism of
//! the paper (per-domain agent vectors, domain-matched block scheduling,
//! two-level work stealing, domain-balanced sorting) runs unchanged against
//! the virtual topology; only the physical DRAM-latency asymmetry is absent
//! (docs/ARCHITECTURE.md, "Deviations from the paper").
//!
//! Environment overrides (useful for the benchmark harness):
//! * `BDM_THREADS` — total worker threads (default: available parallelism).
//! * `BDM_NUMA_DOMAINS` — number of virtual domains (default: 1, or the value
//!   detected from `/sys/devices/system/node` when present).

/// Description of one (virtual) NUMA domain: a contiguous range of threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    /// First global thread id owned by this domain.
    pub first_thread: usize,
    /// Number of threads owned by this domain.
    pub num_threads: usize,
}

/// A (virtual) NUMA topology: how worker threads map onto memory domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaTopology {
    domains: Vec<Domain>,
}

impl NumaTopology {
    /// Builds a topology with `num_domains` domains and `total_threads`
    /// worker threads distributed as evenly as possible (earlier domains get
    /// the remainder). Panics if either argument is zero.
    pub fn new(num_domains: usize, total_threads: usize) -> NumaTopology {
        assert!(num_domains > 0, "need at least one NUMA domain");
        assert!(total_threads > 0, "need at least one thread");
        assert!(
            total_threads >= num_domains,
            "need at least one thread per domain ({total_threads} threads, {num_domains} domains)"
        );
        let base = total_threads / num_domains;
        let extra = total_threads % num_domains;
        let mut domains = Vec::with_capacity(num_domains);
        let mut first = 0;
        for d in 0..num_domains {
            let n = base + usize::from(d < extra);
            domains.push(Domain {
                first_thread: first,
                num_threads: n,
            });
            first += n;
        }
        NumaTopology { domains }
    }

    /// Single-domain topology with `threads` workers.
    pub fn single_domain(threads: usize) -> NumaTopology {
        NumaTopology::new(1, threads)
    }

    /// Detects a topology for the current host.
    ///
    /// Honors `BDM_THREADS` / `BDM_NUMA_DOMAINS`, then tries
    /// `/sys/devices/system/node/node*`, then falls back to one domain with
    /// all available CPUs.
    pub fn detect() -> NumaTopology {
        let threads = std::env::var("BDM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let domains = std::env::var("BDM_NUMA_DOMAINS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&d| d > 0)
            .unwrap_or_else(|| detect_host_numa_nodes().unwrap_or(1));
        let domains = domains.min(threads); // at least one thread per domain
        NumaTopology::new(domains, threads)
    }

    /// Number of NUMA domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Total number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.domains
            .last()
            .map(|d| d.first_thread + d.num_threads)
            .unwrap_or(0)
    }

    /// The domain a global thread id belongs to.
    pub fn domain_of_thread(&self, thread: usize) -> usize {
        debug_assert!(thread < self.num_threads());
        // Domains are contiguous; the count is tiny, so a scan beats a search.
        self.domains
            .iter()
            .position(|d| thread < d.first_thread + d.num_threads)
            .expect("thread id out of range")
    }

    /// Global thread ids owned by a domain.
    pub fn threads_of_domain(&self, domain: usize) -> std::ops::Range<usize> {
        let d = &self.domains[domain];
        d.first_thread..d.first_thread + d.num_threads
    }

    /// Number of threads in a domain.
    pub fn threads_in_domain(&self, domain: usize) -> usize {
        self.domains[domain].num_threads
    }

    /// All domains.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }
}

/// Counts `node*` entries under `/sys/devices/system/node`, if present.
fn detect_host_numa_nodes() -> Option<usize> {
    let entries = std::fs::read_dir("/sys/devices/system/node").ok()?;
    let count = entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("node") && name[4..].chars().all(|c| c.is_ascii_digit())
        })
        .count();
    (count > 0).then_some(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_distribution() {
        let t = NumaTopology::new(4, 8);
        assert_eq!(t.num_domains(), 4);
        assert_eq!(t.num_threads(), 8);
        for d in 0..4 {
            assert_eq!(t.threads_in_domain(d), 2);
        }
        assert_eq!(t.threads_of_domain(2), 4..6);
    }

    #[test]
    fn uneven_distribution_front_loads_remainder() {
        let t = NumaTopology::new(3, 7);
        assert_eq!(t.threads_in_domain(0), 3);
        assert_eq!(t.threads_in_domain(1), 2);
        assert_eq!(t.threads_in_domain(2), 2);
        assert_eq!(t.num_threads(), 7);
    }

    #[test]
    fn domain_of_thread_roundtrip() {
        let t = NumaTopology::new(3, 7);
        for thread in 0..7 {
            let d = t.domain_of_thread(thread);
            assert!(t.threads_of_domain(d).contains(&thread));
        }
    }

    #[test]
    fn single_domain() {
        let t = NumaTopology::single_domain(5);
        assert_eq!(t.num_domains(), 1);
        assert_eq!(t.num_threads(), 5);
        assert_eq!(t.domain_of_thread(4), 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread per domain")]
    fn more_domains_than_threads_panics() {
        NumaTopology::new(4, 2);
    }

    #[test]
    #[should_panic(expected = "at least one NUMA domain")]
    fn zero_domains_panics() {
        NumaTopology::new(0, 2);
    }

    #[test]
    fn detect_yields_valid_topology() {
        let t = NumaTopology::detect();
        assert!(t.num_threads() >= 1);
        assert!(t.num_domains() >= 1);
        assert!(t.num_domains() <= t.num_threads());
    }
}
