//! # bdm-bench
//!
//! The benchmark harness: regenerates **every table and figure** of the
//! paper's evaluation (Section 6). One binary per experiment
//! (docs/PERFORMANCE.md, "Reading the figure binaries", says how to read
//! the main ones):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_characteristics` | Table 1 |
//! | `table2_hardware` | Table 2 |
//! | `fig05_breakdown` | Figure 5 (runtime breakdown; `--proxy` for the right panel) |
//! | `fig06_complexity` | Figure 6 (runtime/memory vs agent count) |
//! | `fig07_biocellion` | Figure 7 (Biocellion comparison; `--visualize` for 7a) |
//! | `fig08_comparison` | Figure 8 (Cortex3D/NetLogo comparison) |
//! | `fig09_optimizations` | Figure 9 (optimization ladder speedup/memory) |
//! | `fig10_scalability` | Figure 10 (strong scaling; `--whole` for 10a) |
//! | `fig11_neighbor` | Figure 11 (neighbor-search algorithms) |
//! | `fig12_sorting_freq` | Figure 12 (agent-sorting frequency study) |
//! | `fig13_allocator` | Figure 13 (memory allocator comparison) |
//! | `sharded_scale` | sharded execution: exchange cost and partition balance vs K |
//! | `run_all` | everything above with `--quick --csv` |
//!
//! Every binary accepts the shared flags of [`Args`] (`--help` prints them)
//! and scales the paper's multi-million-agent workloads down to
//! laptop-friendly defaults; `--agents`/`--iterations`/`--max-exp` restore
//! any scale the host can hold.

pub mod args;
pub mod report;
pub mod runner;
pub mod spec;

pub use args::{Args, USAGE};
pub use report::{emit, emit_raw, fmt_bytes, fmt_pct, fmt_secs, fmt_speedup, header};
pub use runner::{
    child_guard, measure, measure_median, model_or_die, param_for, report_from_sim, run_spec_inproc,
};
pub use spec::{EngineKind, RunReport, RunSpec, ENVIRONMENTS};
