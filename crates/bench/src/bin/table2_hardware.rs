//! **Table 2** — benchmark hardware.
//!
//! The paper tabulates its three Xeon servers (System A/B/C). This binary
//! introspects the *actual* host (CPU model, cores, memory, NUMA nodes, OS)
//! and prints it alongside the paper's systems, plus the **virtual NUMA
//! topology** the engine will use (the substitution documented in
//! docs/ARCHITECTURE.md, "Deviations from the paper").

use bdm_bench::{emit, header, Args};
use bdm_numa::NumaTopology;
use bdm_util::Table;

fn read_first_match(path: &str, prefix: &str) -> Option<String> {
    let content = std::fs::read_to_string(path).ok()?;
    content.lines().find_map(|line| {
        line.strip_prefix(prefix)
            .map(|rest| rest.trim_start_matches([':', ' ', '\t']).trim().to_string())
    })
}

fn cpu_model() -> String {
    read_first_match("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown CPU".into())
}

fn total_memory_gb() -> String {
    read_first_match("/proc/meminfo", "MemTotal")
        .and_then(|v| v.split_whitespace().next().map(str::to_string))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| format!("{:.0} GB", kb / 1024.0 / 1024.0))
        .unwrap_or_else(|| "unknown".into())
}

fn os_version() -> String {
    read_first_match("/etc/os-release", "PRETTY_NAME")
        .map(|s| s.trim_matches('"').to_string())
        .or_else(|| {
            std::fs::read_to_string("/proc/version")
                .ok()
                .map(|v| v.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        })
        .unwrap_or_else(|| "unknown OS".into())
}

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Table 2: benchmark hardware", &args);

    let mut table = Table::new(["system", "memory", "cpu", "os"]);
    table.row([
        "A (paper)".to_string(),
        "504 GB".into(),
        "4x Intel Xeon E7-8890 v3 @ 2.50GHz, 72 cores, 2 threads/core, 4 NUMA domains".into(),
        "CentOS 7.9.2009".into(),
    ]);
    table.row([
        "B (paper)".to_string(),
        "1008 GB".into(),
        "4x Intel Xeon E7-8890 v3 @ 2.50GHz, 72 cores, 2 threads/core, 4 NUMA domains".into(),
        "CentOS 7.9.2009".into(),
    ]);
    table.row([
        "C (paper)".to_string(),
        "62 GB".into(),
        "2x Intel Xeon E5-2683 v3 @ 2.00GHz, 28 cores, 2 threads/core, 2 NUMA domains".into(),
        "CentOS Stream 8".into(),
    ]);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    table.row([
        "this host".to_string(),
        total_memory_gb(),
        format!("{} ({cpus} hardware threads)", cpu_model()),
        os_version(),
    ]);
    emit(&table, "table2_hardware", &args);

    let topo = if args.threads.is_some() || args.domains.is_some() {
        let threads = args.threads.unwrap_or(cpus);
        NumaTopology::new(args.domains.unwrap_or(1).min(threads), threads)
    } else {
        NumaTopology::detect()
    };
    let mut vtable = Table::new(["virtual NUMA domain", "threads", "thread ids"]);
    for d in 0..topo.num_domains() {
        let range = topo.threads_of_domain(d);
        vtable.row([
            d.to_string(),
            topo.threads_in_domain(d).to_string(),
            format!("{}..{}", range.start, range.end),
        ]);
    }
    println!(
        "virtual topology in use ({} domains x {} threads; override with \
         BDM_NUMA_DOMAINS/BDM_THREADS or --domains/--threads):",
        topo.num_domains(),
        topo.num_threads()
    );
    emit(&vtable, "table2_virtual_topology", &args);
}
