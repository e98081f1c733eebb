//! White-box-assisted tuning — the paper's stated future work ("how to
//! utilize software analysis methods to further reduce the online tuning
//! cost", §7, citing LOCAT and LITE).
//!
//! The idea implemented here: the run metrics of the previous evaluation
//! identify the bottleneck resource (CPU, memory pressure, shuffle, IO,
//! or outright failure), and the Twin-Q Optimizer's Gaussian perturbation
//! is *focused* on the knobs that mechanically govern that bottleneck —
//! the other dimensions keep the actor's recommendation. The search
//! explores a ~6–10-dimensional slice instead of the full 32-dimensional
//! ball, so the same iteration cap covers it far more densely.

use crate::td3::Td3Agent;
use crate::twinq::{TwinQOptimizer, TwinQResult};
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
use spark_sim::{idx, RunMetrics};

/// The resource class limiting the previous run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// High CPU utilization, little waiting: scale out / serialize cheaper.
    Cpu,
    /// GC pressure, spills or cache misses: memory sizing knobs.
    Memory,
    /// Heavy shuffle traffic: shuffle/compression/parallelism knobs.
    Shuffle,
    /// IO-wait dominated: HDFS and buffer knobs.
    Io,
    /// Containers died: memory and YARN safety knobs.
    Failure,
}

/// Diagnose the dominant bottleneck from the last run's metrics.
pub fn diagnose(metrics: &RunMetrics) -> Bottleneck {
    if metrics.container_kills > 0 {
        return Bottleneck::Failure;
    }
    if metrics.gc_frac > 0.12 || metrics.cache_hit < 0.7 || metrics.spill_mb > 500.0 {
        return Bottleneck::Memory;
    }
    if metrics.io_wait > 0.35 {
        return Bottleneck::Io;
    }
    if metrics.shuffle_mb > 1.5 * metrics.hdfs_read_mb.max(1.0) {
        return Bottleneck::Shuffle;
    }
    Bottleneck::Cpu
}

/// The knob indices mechanically coupled to a bottleneck class.
pub fn relevant_knobs(b: Bottleneck) -> &'static [usize] {
    match b {
        Bottleneck::Cpu => &[
            idx::EXECUTOR_CORES,
            idx::EXECUTOR_INSTANCES,
            idx::DEFAULT_PARALLELISM,
            idx::SERIALIZER,
            idx::TASK_CPUS,
            idx::NM_VCORES,
            idx::SPECULATION,
        ],
        Bottleneck::Memory => &[
            idx::EXECUTOR_MEMORY_MB,
            idx::MEMORY_FRACTION,
            idx::MEMORY_STORAGE_FRACTION,
            idx::SERIALIZER,
            idx::RDD_COMPRESS,
            idx::EXECUTOR_INSTANCES,
            idx::TASK_CPUS,
            idx::NM_MEMORY_MB,
        ],
        Bottleneck::Shuffle => &[
            idx::DEFAULT_PARALLELISM,
            idx::SHUFFLE_COMPRESS,
            idx::SHUFFLE_SPILL_COMPRESS,
            idx::SHUFFLE_FILE_BUFFER_KB,
            idx::REDUCER_MAX_SIZE_IN_FLIGHT_MB,
            idx::IO_COMPRESSION_CODEC,
            idx::SHUFFLE_SORT_BYPASS_MERGE_THRESHOLD,
        ],
        Bottleneck::Io => &[
            idx::DFS_BLOCK_SIZE_MB,
            idx::DFS_REPLICATION,
            idx::DN_HANDLER_COUNT,
            idx::NN_HANDLER_COUNT,
            idx::IO_FILE_BUFFER_KB,
            idx::LOCALITY_WAIT_S,
            idx::SHUFFLE_COMPRESS,
        ],
        Bottleneck::Failure => &[
            idx::EXECUTOR_MEMORY_MB,
            idx::MEMORY_FRACTION,
            idx::EXECUTOR_CORES,
            idx::TASK_CPUS,
            idx::VMEM_PMEM_RATIO,
            idx::PMEM_CHECK,
            idx::SCHED_MAX_ALLOC_MB,
            idx::NM_MEMORY_MB,
        ],
    }
}

/// Twin-Q Optimizer with white-box focus: Algorithm 1 with the Gaussian
/// perturbation restricted to the bottleneck's knobs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WhiteBoxTwinQ {
    pub inner: TwinQOptimizer,
}

impl Default for WhiteBoxTwinQ {
    fn default() -> Self {
        Self {
            inner: TwinQOptimizer::default(),
        }
    }
}

impl WhiteBoxTwinQ {
    /// Optimize `action`, perturbing only the knobs relevant to the
    /// bottleneck diagnosed from `last_metrics` (falls back to the plain
    /// full-dimensional optimizer when no previous run exists).
    pub fn optimize(
        &self,
        agent: &Td3Agent,
        state: &[f64],
        action: Vec<f64>,
        last_metrics: Option<&RunMetrics>,
        rng: &mut StdRng,
    ) -> (TwinQResult, Option<Bottleneck>) {
        let Some(metrics) = last_metrics else {
            return (self.inner.optimize(agent, state, action, rng), None);
        };
        let bottleneck = diagnose(metrics);
        let mask = relevant_knobs(bottleneck);
        // PANIC-SAFETY: TwinQConfig keeps sigma finite and >= 0.
        let normal = Normal::new(0.0, self.inner.sigma).expect("valid sigma");
        let result = self.inner.search(agent, state, action, rng, |a, rng| {
            let mut next = a.to_vec();
            for &d in mask {
                next[d] = (next[d] + normal.sample(rng)).clamp(0.0, 1.0);
            }
            next
        });
        (result, Some(bottleneck))
    }
}

/// Online tuning with the white-box-focused Twin-Q Optimizer: identical
/// to [`crate::online::online_tune_td3`] but the perturbation search after
/// the first step is restricted to the diagnosed bottleneck's knobs.
pub fn online_tune_whitebox(
    agent: &mut Td3Agent,
    env: &mut crate::envwrap::TuningEnv,
    cfg: &crate::online::OnlineConfig,
) -> (crate::online::TuningReport, Vec<Option<Bottleneck>>) {
    use rand::SeedableRng;
    use rl::{GaussianNoise, ReplayMemory, Transition, UniformReplay};

    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x0417_11E5);
    let noise = GaussianNoise::new(env.action_dim(), cfg.exploration_sigma);
    let wb = WhiteBoxTwinQ { inner: cfg.twinq };
    let mut replay = UniformReplay::new(1024);
    let mut steps = Vec::with_capacity(cfg.steps);
    let mut bottlenecks = Vec::with_capacity(cfg.steps);
    let mut last_metrics: Option<RunMetrics> = None;
    let mut state = env.reset();
    for step in 0..cfg.steps {
        let t0 = telemetry::Stopwatch::start();
        let mut action = agent.select_action(&state);
        if cfg.exploration_sigma > 0.0 {
            action = noise.perturb(&action, &mut rng);
        }
        let mut twinq_iterations = 0;
        let mut bn = None;
        if cfg.use_twinq {
            let (res, b) = wb.optimize(agent, &state, action, last_metrics.as_ref(), &mut rng);
            twinq_iterations = res.iterations;
            action = res.action;
            bn = b;
        }
        bottlenecks.push(bn);
        let q_estimate = Some(agent.min_q(&state, &action));
        let recommendation_s = t0.elapsed_s();
        let out = env.step(&action);
        last_metrics = Some(out.metrics.clone());
        replay.push(Transition::new(
            state.clone(),
            action.clone(),
            out.reward,
            out.next_state.clone(),
            out.done,
        ));
        for _ in 0..cfg.fine_tune_steps {
            let batch_size = replay.len().min(agent.cfg.batch_size);
            if let Some(batch) = replay.sample(batch_size, &mut rng) {
                agent.train_step(&batch);
            }
        }
        steps.push(crate::online::StepRecord {
            step,
            exec_time_s: out.exec_time_s,
            failed: out.failed,
            reward: out.reward,
            recommendation_s,
            q_estimate,
            twinq_iterations,
            action,
            resilience: crate::online::StepResilience::default(),
            guardrail: crate::online::StepGuardrail::default(),
        });
        state = out.next_state;
    }
    (
        crate::online::finish_report("DeepCAT+WB", env, steps),
        bottlenecks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        RunMetrics::idle(3)
    }

    #[test]
    fn failure_dominates_the_diagnosis() {
        let mut m = metrics();
        m.container_kills = 2;
        m.gc_frac = 0.5;
        m.io_wait = 0.9;
        assert_eq!(diagnose(&m), Bottleneck::Failure);
    }

    #[test]
    fn memory_pressure_signals() {
        let mut m = metrics();
        m.gc_frac = 0.2;
        assert_eq!(diagnose(&m), Bottleneck::Memory);
        let mut m = metrics();
        m.cache_hit = 0.4;
        assert_eq!(diagnose(&m), Bottleneck::Memory);
        let mut m = metrics();
        m.spill_mb = 2000.0;
        assert_eq!(diagnose(&m), Bottleneck::Memory);
    }

    #[test]
    fn io_and_shuffle_and_cpu() {
        let mut m = metrics();
        m.io_wait = 0.5;
        assert_eq!(diagnose(&m), Bottleneck::Io);
        let mut m = metrics();
        m.shuffle_mb = 5000.0;
        m.hdfs_read_mb = 1000.0;
        assert_eq!(diagnose(&m), Bottleneck::Shuffle);
        assert_eq!(diagnose(&metrics()), Bottleneck::Cpu);
    }

    #[test]
    fn every_bottleneck_has_a_knob_set_within_bounds() {
        for b in [
            Bottleneck::Cpu,
            Bottleneck::Memory,
            Bottleneck::Shuffle,
            Bottleneck::Io,
            Bottleneck::Failure,
        ] {
            let knobs = relevant_knobs(b);
            assert!(!knobs.is_empty());
            assert!(knobs.iter().all(|&k| k < 32));
        }
    }

    #[test]
    fn whitebox_perturbs_only_masked_dimensions() {
        use crate::config::AgentConfig;
        use rand::SeedableRng;
        let mut cfg = AgentConfig::for_dims(2, 32);
        cfg.hidden = vec![8];
        let agent = Td3Agent::new(cfg, 1);
        let wb = WhiteBoxTwinQ {
            inner: TwinQOptimizer {
                q_threshold: 1e9, // force the full perturbation loop
                sigma: 0.2,
                max_iters: 12,
                smoothing_samples: 1,
            },
        };
        let mut m = metrics();
        m.io_wait = 0.9; // → Io bottleneck
        let start = vec![0.5; 32];
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (res, b) = wb.optimize(&agent, &[0.0, 0.0], start.clone(), Some(&m), &mut rng);
        assert_eq!(b, Some(Bottleneck::Io));
        let mask = relevant_knobs(Bottleneck::Io);
        for (d, (&a, &s)) in res.action.iter().zip(&start).enumerate() {
            if mask.contains(&d) {
                continue;
            }
            assert_eq!(a, s, "unmasked knob {d} must be untouched");
        }
        assert!(
            mask.iter().any(|&d| res.action[d] != start[d]),
            "masked knobs must move"
        );
    }

    #[test]
    fn whitebox_online_loop_runs_end_to_end() {
        use crate::config::AgentConfig;
        use crate::envwrap::TuningEnv;
        use crate::offline::{train_td3, OfflineConfig};
        use crate::online::OnlineConfig;
        use spark_sim::{Cluster, InputSize, Workload, WorkloadKind};
        let w = Workload::new(WorkloadKind::TeraSort, InputSize::D1);
        let mut env = TuningEnv::for_workload(Cluster::cluster_a(), w, 71);
        let mut ac = AgentConfig::for_dims(env.state_dim(), env.action_dim());
        ac.hidden = vec![32, 32];
        ac.warmup_steps = 96;
        let (mut agent, _, _) = train_td3(&mut env, ac, &OfflineConfig::deepcat(700, 5), &[]);
        let mut live =
            TuningEnv::for_workload(Cluster::cluster_a().with_background_load(0.15), w, 72);
        let (report, bottlenecks) =
            online_tune_whitebox(&mut agent, &mut live, &OnlineConfig::deepcat(6));
        assert_eq!(report.steps.len(), 5);
        assert_eq!(bottlenecks.len(), 5);
        // Step 0 has no history; later steps must have a diagnosis.
        assert!(bottlenecks[0].is_none());
        assert!(bottlenecks[1..].iter().all(Option::is_some));
        assert!(report.speedup() > 1.5, "{}", report.speedup());
    }

    #[test]
    fn without_history_it_falls_back_to_plain_twinq() {
        use crate::config::AgentConfig;
        use rand::SeedableRng;
        let mut cfg = AgentConfig::for_dims(2, 32);
        cfg.hidden = vec![8];
        let agent = Td3Agent::new(cfg, 3);
        let wb = WhiteBoxTwinQ::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let (res, b) = wb.optimize(&agent, &[0.0, 0.0], vec![0.5; 32], None, &mut rng);
        assert!(b.is_none());
        assert!(res.action.iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
