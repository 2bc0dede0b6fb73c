//! Every parallel loop of an iteration runs on the engine's own worker pool:
//! a two-thread simulation above the uniform grid's parallel-build threshold
//! (2¹⁶ agents) and the diffusion grid's parallel-volume threshold (2¹⁶
//! volumes) creates no thread but its two `bdm-worker-*` workers.
//!
//! Own test binary (= own process), so no other test's threads show up in
//! the census, which reads every thread of the process from
//! `/proc/self/task`.

#![cfg(target_os = "linux")]

use std::collections::BTreeMap;

use biodynamo::models::CellClustering;
use biodynamo::prelude::*;

/// Thread id → thread name of every live thread of this process.
fn census() -> BTreeMap<u32, String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists the threads of this process")
        .flatten()
        .filter_map(|task| {
            let tid = task.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some((tid, name.trim().to_string()))
        })
        .collect()
}

#[test]
fn an_iteration_above_both_thresholds_creates_only_engine_workers() {
    let before = census();
    let model = CellClustering::new(70_000);
    assert!(model.substance_resolution.pow(3) >= 1 << 16);
    let mut sim = model.build(Param {
        threads: Some(2),
        numa_domains: Some(1),
        ..Param::default()
    });
    assert!(sim.num_agents() >= 1 << 16);
    sim.step();
    let created: Vec<String> = census()
        .into_iter()
        .filter(|(tid, _)| !before.contains_key(tid))
        .map(|(_, name)| name)
        .collect();
    assert!(
        created.iter().all(|name| name.starts_with("bdm-worker-")),
        "threads besides the engine's workers: {created:?}"
    );
    assert_eq!(created.len(), 2, "{created:?}");
}
