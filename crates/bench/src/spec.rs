//! Run specifications and reports exchanged between the harness parent
//! process and its measurement child processes.
//!
//! Each measurement runs in a **fresh child process** by default so that
//! (i) peak-RSS numbers describe exactly one configuration (the paper reports
//! per-configuration memory consumption in Figures 6, 8, 9, 11, 13) and
//! (ii) allocator state cannot leak between configurations. The protocol is a
//! single `key=value …` line per direction — no serialization crate needed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bdm_core::{EnvironmentKind, OptLevel};

/// Which engine executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The optimized BioDynaMo engine (`bdm-core`).
    BioDynaMo,
    /// The serial comparator (`bdm-baseline`, the Cortex3D/NetLogo stand-in).
    Baseline,
}

/// A fully-described measurement: model, scale, engine configuration.
///
/// `opt` applies the cumulative optimization ladder first; the `Option`al
/// overrides then adjust individual switches (used by the parameter-study
/// figures). `None` keeps the ladder/default value.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Model name (`bdm_models::model_by_name`).
    pub model: String,
    /// Initial agent count.
    pub agents: usize,
    /// Iterations to execute.
    pub iterations: usize,
    /// Engine selection.
    pub engine: EngineKind,
    /// Optimization-ladder preset (BioDynaMo engine only).
    pub opt: Option<OptLevel>,
    /// Neighbor-search backend override (Figure 11).
    pub env: Option<EnvironmentKind>,
    /// Agent-sorting frequency override (Figure 12); `Some(None)` disables
    /// sorting, `Some(Some(f))` sorts every `f` iterations.
    pub sort_freq: Option<Option<usize>>,
    /// Pool-allocator override (Figure 13).
    pub use_pool: Option<bool>,
    /// Static-detection override (Figures 8/9).
    pub detect_static: Option<bool>,
    /// NUMA-aware-iteration override (Section 6.10).
    pub numa_aware: Option<bool>,
    /// Parallel add/remove override (Section 3.2).
    pub parallel_add_remove: Option<bool>,
    /// Worker threads (`None` = detect).
    pub threads: Option<usize>,
    /// Virtual NUMA domains (`None` = detect).
    pub domains: Option<usize>,
    /// In-process shard count (`None` = 1, the classic single-engine path).
    pub shards: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl RunSpec {
    /// A default-engine spec for `model` at the given scale.
    pub fn new(model: &str, agents: usize, iterations: usize) -> RunSpec {
        RunSpec {
            model: model.to_string(),
            agents,
            iterations,
            engine: EngineKind::BioDynaMo,
            opt: None,
            env: None,
            sort_freq: None,
            use_pool: None,
            detect_static: None,
            numa_aware: None,
            parallel_add_remove: None,
            threads: None,
            domains: None,
            shards: None,
            seed: 4357,
        }
    }

    /// Builder: apply an optimization-ladder preset.
    pub fn with_opt(mut self, opt: OptLevel) -> RunSpec {
        self.opt = Some(opt);
        self
    }

    /// Builder: run on the serial baseline engine.
    pub fn with_baseline(mut self) -> RunSpec {
        self.engine = EngineKind::Baseline;
        self
    }

    /// Builder: thread/domain configuration.
    pub fn with_topology(mut self, threads: Option<usize>, domains: Option<usize>) -> RunSpec {
        self.threads = threads;
        self.domains = domains;
        self
    }

    /// Serializes to the single-line `key=value` wire format.
    pub fn to_kv(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "model={} agents={} iterations={} engine={} seed={}",
            self.model,
            self.agents,
            self.iterations,
            match self.engine {
                EngineKind::BioDynaMo => "bdm",
                EngineKind::Baseline => "baseline",
            },
            self.seed
        );
        if let Some(opt) = self.opt {
            let _ = write!(s, " opt={}", opt_to_index(opt));
        }
        if let Some(env) = self.env {
            let _ = write!(s, " env={}", env_to_str(env));
        }
        if let Some(freq) = self.sort_freq {
            let _ = write!(s, " sort_freq={}", freq.map_or(0, |f| f.max(1)));
        }
        for (key, value) in [
            ("use_pool", self.use_pool),
            ("detect_static", self.detect_static),
            ("numa_aware", self.numa_aware),
            ("par_add_remove", self.parallel_add_remove),
        ] {
            if let Some(v) = value {
                let _ = write!(s, " {key}={}", u8::from(v));
            }
        }
        if let Some(t) = self.threads {
            let _ = write!(s, " threads={t}");
        }
        if let Some(d) = self.domains {
            let _ = write!(s, " domains={d}");
        }
        if let Some(k) = self.shards {
            let _ = write!(s, " shards={k}");
        }
        s
    }

    /// Parses the wire format produced by [`RunSpec::to_kv`].
    pub fn from_kv(line: &str) -> Result<RunSpec, String> {
        let map = parse_kv(line)?;
        let get = |key: &str| -> Result<&str, String> {
            map.get(key)
                .map(String::as_str)
                .ok_or_else(|| format!("missing key: {key}"))
        };
        let parse_num = |key: &str| -> Result<usize, String> {
            get(key)?
                .parse::<usize>()
                .map_err(|_| format!("bad number for {key}"))
        };
        let parse_bool = |key: &str| -> Result<Option<bool>, String> {
            map.get(key)
                .map(|v| match v.as_str() {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    other => Err(format!("bad bool for {key}: {other}")),
                })
                .transpose()
        };
        let engine = match get("engine")? {
            "bdm" => EngineKind::BioDynaMo,
            "baseline" => EngineKind::Baseline,
            other => return Err(format!("bad engine: {other}")),
        };
        Ok(RunSpec {
            model: get("model")?.to_string(),
            agents: parse_num("agents")?,
            iterations: parse_num("iterations")?,
            engine,
            opt: map
                .get("opt")
                .map(|v| {
                    v.parse::<usize>()
                        .ok()
                        .and_then(opt_from_index)
                        .ok_or_else(|| format!("bad opt: {v}"))
                })
                .transpose()?,
            env: map
                .get("env")
                .map(|v| env_from_str(v).ok_or_else(|| format!("bad env: {v}")))
                .transpose()?,
            sort_freq: map
                .get("sort_freq")
                .map(|v| {
                    v.parse::<usize>()
                        .map(|f| if f == 0 { None } else { Some(f) })
                        .map_err(|_| "bad sort_freq".to_string())
                })
                .transpose()?,
            use_pool: parse_bool("use_pool")?,
            detect_static: parse_bool("detect_static")?,
            numa_aware: parse_bool("numa_aware")?,
            parallel_add_remove: parse_bool("par_add_remove")?,
            threads: map
                .get("threads")
                .map(|v| v.parse().map_err(|_| "bad threads".to_string()))
                .transpose()?,
            domains: map
                .get("domains")
                .map(|v| v.parse().map_err(|_| "bad domains".to_string()))
                .transpose()?,
            shards: map
                .get("shards")
                .map(|v| v.parse().map_err(|_| "bad shards".to_string()))
                .transpose()?,
            seed: get("seed")?.parse().map_err(|_| "bad seed".to_string())?,
        })
    }
}

/// Measurements of one finished run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Wall-clock seconds of the measured iterations (excludes model build).
    pub wall_secs: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Live agents after the run.
    pub final_agents: usize,
    /// Peak resident set size of the (child) process, bytes.
    pub peak_rss_bytes: u64,
    /// Per-operation wall-clock buckets, seconds (Figure 5).
    pub buckets: BTreeMap<String, f64>,
    /// Pairwise force calculations executed.
    pub force_calculations: u64,
    /// Force calculations skipped by static detection.
    pub static_skipped: u64,
    /// Agent phases that ran static detection (armed and engaged by the
    /// duty cycle).
    pub static_engaged_iterations: u64,
    /// Agents added during the run.
    pub agents_added: u64,
    /// Agents removed during the run.
    pub agents_removed: u64,
    /// Agent sorting passes executed.
    pub sorts: u64,
    /// Heap footprint of the neighbor-search index, bytes (Figure 11d).
    pub env_bytes: u64,
    /// Heap bytes of the engine's per-iteration snapshot arrays, per the
    /// SoA layout (positions + diameters + payloads); 0 for the
    /// baseline engine, which has no snapshot.
    pub snapshot_bytes: u64,
    /// Bytes reserved by the pool allocator.
    pub pool_reserved_bytes: u64,
    /// Allocations served by the pool allocator.
    pub pool_allocations: u64,
    /// Allocations that used the system allocator.
    pub system_allocations: u64,
    /// Health violations detected (sentinel scans + counted sentinel
    /// reroutes of former asserts).
    pub violations_detected: u64,
}

impl RunReport {
    /// Average seconds per iteration.
    pub fn per_iter_secs(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.wall_secs / self.iterations as f64
        }
    }

    /// Bucket value in seconds (0 when absent).
    pub fn bucket(&self, name: &str) -> f64 {
        self.buckets.get(name).copied().unwrap_or(0.0)
    }

    /// Serializes to the single-line `key=value` wire format.
    pub fn to_kv(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "wall_secs={} iterations={} final_agents={} peak_rss={} force_calcs={} \
             static_skipped={} added={} removed={} sorts={} env_bytes={} snapshot_bytes={} \
             pool_reserved={} pool_allocs={} sys_allocs={}",
            self.wall_secs,
            self.iterations,
            self.final_agents,
            self.peak_rss_bytes,
            self.force_calculations,
            self.static_skipped,
            self.agents_added,
            self.agents_removed,
            self.sorts,
            self.env_bytes,
            self.snapshot_bytes,
            self.pool_reserved_bytes,
            self.pool_allocations,
            self.system_allocations
        );
        // The duty-cycle and violation counters are only emitted when
        // non-zero so report lines of runs without them stay byte-compatible
        // with committed CSV protocols.
        for (key, value) in [
            ("static_engaged", self.static_engaged_iterations),
            ("violations", self.violations_detected),
        ] {
            if value != 0 {
                let _ = write!(s, " {key}={value}");
            }
        }
        for (name, secs) in &self.buckets {
            let _ = write!(s, " bucket.{name}={secs}");
        }
        s
    }

    /// Parses the wire format produced by [`RunReport::to_kv`].
    pub fn from_kv(line: &str) -> Result<RunReport, String> {
        let map = parse_kv(line)?;
        let num = |key: &str| -> Result<u64, String> {
            map.get(key)
                .ok_or_else(|| format!("missing key: {key}"))?
                .parse::<u64>()
                .map_err(|_| format!("bad number for {key}"))
        };
        let mut report = RunReport {
            wall_secs: map
                .get("wall_secs")
                .ok_or("missing wall_secs")?
                .parse()
                .map_err(|_| "bad wall_secs")?,
            iterations: num("iterations")? as usize,
            final_agents: num("final_agents")? as usize,
            peak_rss_bytes: num("peak_rss")?,
            force_calculations: num("force_calcs")?,
            static_skipped: num("static_skipped")?,
            static_engaged_iterations: opt_num(&map, "static_engaged")?,
            agents_added: num("added")?,
            agents_removed: num("removed")?,
            sorts: num("sorts")?,
            env_bytes: num("env_bytes")?,
            // Absent in reports from pre-SoA binaries; tolerate for
            // mixed-version comparisons of committed CSV protocols.
            snapshot_bytes: map
                .get("snapshot_bytes")
                .map(|v| v.parse::<u64>().map_err(|_| "bad snapshot_bytes"))
                .transpose()?
                .unwrap_or(0),
            pool_reserved_bytes: num("pool_reserved")?,
            pool_allocations: num("pool_allocs")?,
            system_allocations: num("sys_allocs")?,
            buckets: BTreeMap::new(),
            violations_detected: opt_num(&map, "violations")?,
        };
        for (key, value) in &map {
            if let Some(name) = key.strip_prefix("bucket.") {
                report.buckets.insert(
                    name.to_string(),
                    value.parse().map_err(|_| format!("bad bucket {name}"))?,
                );
            }
        }
        Ok(report)
    }
}

/// Optional u64 key: absent (older binaries, runs that never set it) reads 0.
fn opt_num(map: &BTreeMap<String, String>, key: &str) -> Result<u64, String> {
    map.get(key)
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("bad number for {key}"))
        })
        .transpose()
        .map(|v| v.unwrap_or(0))
}

fn parse_kv(line: &str) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("malformed token: {token}"))?;
        map.insert(key.to_string(), value.to_string());
    }
    Ok(map)
}

fn opt_to_index(opt: OptLevel) -> usize {
    OptLevel::ALL
        .iter()
        .position(|&o| o == opt)
        .expect("opt in ALL")
}

fn opt_from_index(idx: usize) -> Option<OptLevel> {
    OptLevel::ALL.get(idx).copied()
}

fn env_to_str(env: EnvironmentKind) -> &'static str {
    match env {
        EnvironmentKind::UniformGrid => "grid",
        EnvironmentKind::KdTree => "kdtree",
        EnvironmentKind::Octree => "octree",
        EnvironmentKind::Brute => "brute",
    }
}

fn env_from_str(s: &str) -> Option<EnvironmentKind> {
    match s {
        "grid" => Some(EnvironmentKind::UniformGrid),
        "kdtree" => Some(EnvironmentKind::KdTree),
        "octree" => Some(EnvironmentKind::Octree),
        "brute" => Some(EnvironmentKind::Brute),
        _ => None,
    }
}

/// All environments of the Figure 11 comparison with their figure labels.
pub const ENVIRONMENTS: [(EnvironmentKind, &str); 3] = [
    (EnvironmentKind::UniformGrid, "uniform_grid"),
    (EnvironmentKind::KdTree, "kd_tree"),
    (EnvironmentKind::Octree, "octree"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip_minimal() {
        let spec = RunSpec::new("oncology", 5000, 10);
        let parsed = RunSpec::from_kv(&spec.to_kv()).unwrap();
        assert_eq!(spec, parsed);
    }

    #[test]
    fn spec_roundtrip_full() {
        let mut spec = RunSpec::new("epidemiology", 1234, 7)
            .with_opt(OptLevel::MemoryLayout)
            .with_topology(Some(2), Some(4));
        spec.env = Some(EnvironmentKind::Octree);
        spec.sort_freq = Some(Some(20));
        spec.use_pool = Some(false);
        spec.detect_static = Some(true);
        spec.numa_aware = Some(false);
        spec.parallel_add_remove = Some(true);
        spec.shards = Some(4);
        spec.seed = 99;
        let parsed = RunSpec::from_kv(&spec.to_kv()).unwrap();
        assert_eq!(spec, parsed);
    }

    #[test]
    fn spec_sort_freq_disabled_roundtrips() {
        let mut spec = RunSpec::new("oncology", 10, 1);
        spec.sort_freq = Some(None);
        let parsed = RunSpec::from_kv(&spec.to_kv()).unwrap();
        assert_eq!(parsed.sort_freq, Some(None));
    }

    #[test]
    fn baseline_engine_roundtrips() {
        let spec = RunSpec::new("cell_sorting", 100, 5).with_baseline();
        let parsed = RunSpec::from_kv(&spec.to_kv()).unwrap();
        assert_eq!(parsed.engine, EngineKind::Baseline);
    }

    #[test]
    fn report_roundtrip() {
        let mut report = RunReport {
            wall_secs: 1.5,
            iterations: 10,
            final_agents: 4321,
            peak_rss_bytes: 1 << 30,
            force_calculations: 777,
            static_skipped: 88,
            static_engaged_iterations: 9,
            agents_added: 11,
            agents_removed: 3,
            sorts: 2,
            env_bytes: 4096,
            snapshot_bytes: 2048,
            pool_reserved_bytes: 65536,
            pool_allocations: 100,
            system_allocations: 5,
            violations_detected: 2,
            buckets: BTreeMap::new(),
        };
        report.buckets.insert("agent_ops".into(), 0.9);
        report.buckets.insert("environment_update".into(), 0.4);
        let parsed = RunReport::from_kv(&report.to_kv()).unwrap();
        assert_eq!(report, parsed);
        assert!((parsed.per_iter_secs() - 0.15).abs() < 1e-12);
        assert_eq!(parsed.bucket("agent_ops"), 0.9);
        assert_eq!(parsed.bucket("missing"), 0.0);
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(RunSpec::from_kv("model=x agents=1").is_err()); // missing keys
        assert!(RunSpec::from_kv("nonsense").is_err());
        assert!(RunReport::from_kv("wall_secs=abc").is_err());
        let mut spec_kv = RunSpec::new("m", 1, 1).to_kv();
        spec_kv.push_str(" engine=martian");
        assert!(RunSpec::from_kv(&spec_kv).is_err());
    }

    #[test]
    fn opt_index_roundtrip() {
        for opt in OptLevel::ALL {
            assert_eq!(opt_from_index(opt_to_index(opt)), Some(opt));
        }
        assert_eq!(opt_from_index(99), None);
    }
}
