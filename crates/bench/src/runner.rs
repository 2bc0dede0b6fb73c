//! Executes [`RunSpec`]s and collects [`RunReport`]s.
//!
//! By default every measurement runs in a **child process** (re-executing the
//! current benchmark binary with the spec in the `BDM_BENCH_CHILD`
//! environment variable) so peak-RSS numbers and allocator state are
//! per-configuration, as in the paper's per-configuration memory reports.
//! `--no-subprocess` (or `BDM_BENCH_INPROC=1`) switches to in-process
//! measurement; the harness also falls back to in-process execution when the
//! sandbox cannot spawn the child.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};

use bdm_core::{Param, Simulation};
use bdm_models::{model_by_name, BenchmarkModel};
use bdm_util::Timer;

use crate::spec::{EngineKind, RunReport, RunSpec};

/// Environment variable carrying the child spec.
pub const CHILD_ENV: &str = "BDM_BENCH_CHILD";
/// Environment variable forcing in-process measurement.
pub const INPROC_ENV: &str = "BDM_BENCH_INPROC";
/// Marker prefix of the child's report line on stdout.
pub const REPORT_PREFIX: &str = "BDMREPORT ";

/// Must be the first call in every benchmark binary's `main`. If the process
/// was spawned as a measurement child, runs the spec, prints the report
/// line, and exits.
pub fn child_guard() {
    if let Ok(kv) = std::env::var(CHILD_ENV) {
        let spec = match RunSpec::from_kv(&kv) {
            Ok(spec) => spec,
            Err(err) => {
                eprintln!("bench child: bad spec: {err}");
                std::process::exit(3);
            }
        };
        let report = run_spec_inproc(&spec);
        println!("{REPORT_PREFIX}{}", report.to_kv());
        std::process::exit(0);
    }
}

/// Executes a spec in the current process and returns its report.
pub fn run_spec_inproc(spec: &RunSpec) -> RunReport {
    match spec.engine {
        EngineKind::BioDynaMo => run_engine(spec),
        EngineKind::Baseline => run_baseline(spec),
    }
}

/// Translates a spec into engine parameters: ladder preset first, then the
/// individual overrides.
pub fn param_for(spec: &RunSpec) -> Param {
    let mut param = Param::default();
    if let Some(opt) = spec.opt {
        param = param.apply_opt_level(opt);
    }
    if let Some(env) = spec.env {
        param.environment = env;
    }
    if let Some(freq) = spec.sort_freq {
        param.agent_sort_frequency = freq;
    }
    if let Some(v) = spec.use_pool {
        param.use_pool_allocator = v;
    }
    if let Some(v) = spec.detect_static {
        param.detect_static_agents = v;
    }
    if let Some(v) = spec.numa_aware {
        param.numa_aware_iteration = v;
    }
    if let Some(v) = spec.parallel_add_remove {
        param.parallel_add_remove = v;
    }
    param.threads = spec.threads;
    param.numa_domains = spec.domains;
    if let Some(k) = spec.shards {
        param.shards = k;
    }
    param.seed = spec.seed;
    param
}

fn run_engine(spec: &RunSpec) -> RunReport {
    let model = model_by_name(&spec.model, spec.agents)
        .unwrap_or_else(|| panic!("unknown model: {}", spec.model));
    let mut sim = model.build(param_for(spec));
    let timer = Timer::start();
    sim.simulate(spec.iterations);
    let wall_secs = timer.elapsed_secs();
    report_from_sim(&sim, spec.iterations, wall_secs)
}

/// Builds a report from a finished simulation (shared with the in-process
/// paths of the figure binaries).
pub fn report_from_sim(sim: &Simulation, iterations: usize, wall_secs: f64) -> RunReport {
    let stats = sim.stats();
    let mem = sim.memory_stats();
    RunReport {
        wall_secs,
        iterations,
        final_agents: sim.num_agents(),
        peak_rss_bytes: bdm_util::peak_rss_bytes().unwrap_or(0),
        buckets: sim
            .time_buckets()
            .iter()
            .map(|(name, d)| (name.to_string(), d.as_secs_f64()))
            .collect(),
        force_calculations: stats.force_calculations,
        static_skipped: stats.static_skipped,
        static_engaged_iterations: stats.static_engaged_iterations,
        agents_added: stats.agents_added,
        agents_removed: stats.agents_removed,
        sorts: stats.sorts,
        env_bytes: sim.environment_memory_bytes() as u64,
        snapshot_bytes: sim.snapshot_memory_bytes() as u64,
        pool_reserved_bytes: mem.reserved_bytes,
        pool_allocations: mem.pool_allocations,
        system_allocations: mem.system_allocations,
        violations_detected: stats.violations_detected,
    }
}

fn run_baseline(spec: &RunSpec) -> RunReport {
    let mut engine = bdm_baseline::engine_by_name(&spec.model, spec.seed, spec.agents)
        .unwrap_or_else(|| panic!("no baseline for model: {}", spec.model));
    let timer = Timer::start();
    engine.simulate(spec.iterations, 1.0);
    let wall_secs = timer.elapsed_secs();
    RunReport {
        wall_secs,
        iterations: spec.iterations,
        final_agents: engine.num_agents(),
        peak_rss_bytes: bdm_util::peak_rss_bytes().unwrap_or(0),
        env_bytes: engine.approx_heap_bytes() as u64,
        ..RunReport::default()
    }
}

static SUBPROCESS_BROKEN: AtomicBool = AtomicBool::new(false);

/// Runs a spec, in a child process unless disabled, and returns its report.
pub fn measure(spec: &RunSpec, no_subprocess: bool) -> RunReport {
    let inproc = no_subprocess
        || SUBPROCESS_BROKEN.load(Ordering::Relaxed)
        || std::env::var(INPROC_ENV).is_ok_and(|v| v == "1");
    if inproc {
        return run_spec_inproc(spec);
    }
    match measure_subprocess(spec) {
        Ok(report) => report,
        Err(err) => {
            if !SUBPROCESS_BROKEN.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "note: child-process measurement unavailable ({err}); running in-process"
                );
            }
            run_spec_inproc(spec)
        }
    }
}

fn measure_subprocess(spec: &RunSpec) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(&exe)
        .env(CHILD_ENV, spec.to_kv())
        .env_remove("BDM_THREADS")
        .env_remove("BDM_NUMA_DOMAINS")
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(REPORT_PREFIX))
        .ok_or_else(|| format!("no report line in child output: {stdout:?}"))?;
    RunReport::from_kv(line)
}

/// Runs `repeats` measurements and returns the one with the median wall
/// time (so bucket breakdowns stay internally consistent).
pub fn measure_median(spec: &RunSpec, repeats: usize, no_subprocess: bool) -> RunReport {
    let repeats = repeats.max(1);
    let mut reports: Vec<RunReport> = (0..repeats)
        .map(|rep| {
            let mut spec = spec.clone();
            spec.seed = spec.seed.wrapping_add(rep as u64);
            measure(&spec, no_subprocess)
        })
        .collect();
    reports.sort_by(|a, b| a.wall_secs.partial_cmp(&b.wall_secs).expect("finite walls"));
    reports.swap_remove(reports.len() / 2)
}

/// Resolves a benchmark model, panicking with the valid names on failure.
pub fn model_or_die(name: &str, agents: usize) -> Box<dyn BenchmarkModel> {
    model_by_name(name, agents).unwrap_or_else(|| {
        panic!(
            "unknown model: {name} (expected cell_proliferation, cell_clustering, \
             epidemiology, neuroscience, oncology, or cell_sorting)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_core::{EnvironmentKind, OptLevel};

    fn tiny(model: &str) -> RunSpec {
        RunSpec::new(model, 60, 3).with_topology(Some(2), Some(2))
    }

    #[test]
    fn engine_run_produces_report() {
        let report = run_spec_inproc(&tiny("cell_proliferation"));
        assert_eq!(report.iterations, 3);
        // The proliferation model initializes a cube of floor(cbrt(60))³
        // agents; growth then adds more.
        assert!(report.final_agents >= 27, "{}", report.final_agents);
        assert!(report.wall_secs > 0.0);
        assert!(report.bucket("agent_ops") > 0.0);
        assert!(report.bucket("environment_update") > 0.0);
    }

    #[test]
    fn baseline_run_produces_report() {
        let report = run_spec_inproc(&tiny("cell_sorting").with_baseline());
        assert_eq!(report.final_agents, 60);
        assert!(report.wall_secs > 0.0);
        assert!(report.buckets.is_empty(), "baseline has no buckets");
    }

    #[test]
    fn param_for_applies_ladder_then_overrides() {
        let mut spec = tiny("oncology").with_opt(OptLevel::Standard);
        spec.env = Some(EnvironmentKind::Octree);
        spec.use_pool = Some(true);
        let param = param_for(&spec);
        // The Standard ladder sets kd-tree + everything off; the overrides
        // then force the octree and the pool allocator back on.
        assert_eq!(param.environment, EnvironmentKind::Octree);
        assert!(param.use_pool_allocator);
        assert!(!param.parallel_add_remove);
        assert_eq!(param.threads, Some(2));
        assert_eq!(param.seed, 4357);
    }

    #[test]
    fn measure_median_varies_seed_and_returns_one() {
        let report = measure_median(&tiny("cell_clustering"), 3, true);
        assert_eq!(report.iterations, 3);
        assert!(report.wall_secs > 0.0);
    }

    #[test]
    fn opt_ladder_runs_every_level() {
        for opt in OptLevel::ALL {
            let report = run_spec_inproc(&tiny("oncology").with_opt(opt));
            assert!(report.final_agents > 0, "{opt:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_model_panics() {
        run_spec_inproc(&tiny("martian_biology"));
    }
}
