//! Parallel offline training: multiple simulated environments collect
//! transitions concurrently while the learner thread takes gradient steps.
//!
//! The paper spends 3–4 days collecting offline experience on one physical
//! cluster; against a simulator the collection itself parallelizes
//! trivially, so this module provides the natural scale-out: `workers`
//! environment threads run the current policy (with exploration noise) and
//! stream transitions over a crossbeam channel; the learner folds them
//! into the replay memory, trains, and periodically broadcasts refreshed
//! actor weights back to the workers.
//!
//! Training is *not* bit-reproducible across worker counts (transition
//! arrival order is scheduling-dependent), but it is seeded per worker, so
//! the collected experience distribution is stable.

use crate::config::AgentConfig;
use crate::envwrap::TuningEnv;
use crate::offline::{OfflineConfig, TrainLog};
use crate::td3::Td3Agent;
use crossbeam::channel;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::Transition;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Configuration for parallel collection.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Environment worker threads.
    pub workers: usize,
    /// Gradient steps the learner takes per received transition.
    pub train_per_transition: usize,
    /// The learner pushes fresh actor weights to workers every this many
    /// gradient steps.
    pub sync_every: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            train_per_transition: 1,
            sync_every: 50,
        }
    }
}

/// Outcome counters of a parallel training run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelStats {
    pub transitions_collected: u64,
    pub gradient_steps: u64,
    pub weight_syncs: u64,
}

/// Train a TD3 agent with parallel environment collection.
///
/// `make_env` builds one environment per worker (each must carry its own
/// seed); `cfg.iterations` counts *gradient steps* so results are
/// budget-comparable with [`crate::offline::train_td3`].
pub fn train_td3_parallel(
    make_env: impl Fn(usize) -> TuningEnv + Sync,
    agent_cfg: AgentConfig,
    cfg: &OfflineConfig,
    par: &ParallelConfig,
) -> (Td3Agent, TrainLog, ParallelStats) {
    assert!(par.workers >= 1);
    let mut agent = Td3Agent::new(agent_cfg.clone(), cfg.seed);
    let mut replay = cfg.replay.build(cfg.capacity);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9A11E7);
    let mut log = TrainLog::default();
    let mut stats = ParallelStats::default();

    // Workers read the actor snapshot through an RwLock; the learner
    // replaces it on sync. A bounded channel applies back-pressure so
    // collection cannot run unboundedly ahead of training.
    let shared_actor: Arc<RwLock<Td3Agent>> = Arc::new(RwLock::new(agent.clone()));
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel::bounded::<Transition>(1024);

    crossbeam::scope(|scope| {
        for worker in 0..par.workers {
            let tx = tx.clone();
            let shared_actor = Arc::clone(&shared_actor);
            let stop = Arc::clone(&stop);
            let make_env = &make_env;
            let agent_cfg = agent_cfg.clone();
            let seed = cfg.seed ^ ((worker as u64 + 1) << 20);
            scope.spawn(move |_| {
                let mut env = make_env(worker);
                let mut wrng = StdRng::seed_from_u64(seed);
                let mut state = env.reset();
                let mut steps = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let action = if steps < agent_cfg.warmup_steps / par.workers.max(1) {
                        (0..agent_cfg.action_dim)
                            .map(|_| wrng.gen::<f64>())
                            .collect()
                    } else {
                        // Exploration noise is applied locally so workers
                        // decorrelate even with identical snapshots.
                        let base = shared_actor.read().select_action(&state);
                        base.iter()
                            .map(|&a| {
                                (a + agent_cfg.exploration_noise * (wrng.gen::<f64>() * 2.0 - 1.0))
                                    .clamp(0.0, 1.0)
                            })
                            .collect::<Vec<f64>>()
                    };
                    let out = env.step(&action);
                    let t = Transition::new(
                        state,
                        action,
                        out.reward,
                        out.next_state.clone(),
                        out.done,
                    );
                    state = if out.done {
                        env.reset()
                    } else {
                        out.next_state
                    };
                    steps += 1;
                    if tx.send(t).is_err() {
                        break; // learner finished
                    }
                }
            });
        }
        drop(tx);

        // Learner loop.
        let min_fill = agent_cfg.warmup_steps.max(agent_cfg.batch_size);
        while stats.gradient_steps < cfg.iterations as u64 {
            let Ok(t) = rx.recv() else { break };
            let reward = t.reward;
            replay.push(t);
            stats.transitions_collected += 1;
            if replay.len() < min_fill {
                continue;
            }
            for _ in 0..par.train_per_transition {
                if stats.gradient_steps >= cfg.iterations as u64 {
                    break;
                }
                if let Some(batch) = replay.sample(agent_cfg.batch_size, &mut rng) {
                    let (_, tds) = agent.train_step(&batch);
                    replay.update_priorities(&batch.indices, &tds);
                    stats.gradient_steps += 1;
                    if stats.gradient_steps % cfg.log_every as u64 == 0 {
                        log.records.push(crate::offline::IterRecord {
                            iteration: stats.gradient_steps as usize,
                            reward,
                            min_q: agent.mean_min_q(&batch),
                            exec_time_s: 0.0,
                        });
                    }
                    if stats.gradient_steps % par.sync_every as u64 == 0 {
                        *shared_actor.write() = agent.clone();
                        stats.weight_syncs += 1;
                    }
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        // Drain remaining sends so workers unblock and exit.
        while rx.try_recv().is_ok() {}
    })
    // PANIC-SAFETY: propagating a worker panic is the intended failure
    // mode of the parallel trainer.
    .expect("worker panicked");

    (agent, log, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_sim::{Cluster, InputSize, Workload, WorkloadKind};

    fn agent_cfg() -> AgentConfig {
        let mut c = AgentConfig::for_dims(9, 32);
        c.hidden = vec![32, 32];
        c.warmup_steps = 128;
        c.batch_size = 32;
        c
    }

    fn make_env(worker: usize) -> TuningEnv {
        TuningEnv::for_workload(
            Cluster::cluster_a(),
            Workload::new(WorkloadKind::TeraSort, InputSize::D1),
            1000 + worker as u64,
        )
    }

    #[test]
    fn parallel_training_reaches_the_gradient_budget() {
        let cfg = OfflineConfig::deepcat(400, 3);
        let par = ParallelConfig {
            workers: 4,
            ..Default::default()
        };
        let (agent, log, stats) = train_td3_parallel(make_env, agent_cfg(), &cfg, &par);
        assert_eq!(stats.gradient_steps, 400);
        assert!(stats.transitions_collected >= 128, "{stats:?}");
        assert!(stats.weight_syncs >= 1);
        assert!(!agent.diverged());
        assert!(!log.records.is_empty());
    }

    #[test]
    fn parallel_training_produces_a_useful_policy() {
        let cfg = OfflineConfig::deepcat(900, 4);
        let par = ParallelConfig {
            workers: 4,
            ..Default::default()
        };
        let (mut agent, _, _) = train_td3_parallel(make_env, agent_cfg(), &cfg, &par);
        let mut live = TuningEnv::for_workload(
            Cluster::cluster_a().with_background_load(0.15),
            Workload::new(WorkloadKind::TeraSort, InputSize::D1),
            7777,
        );
        let report = crate::online::online_tune_td3(
            &mut agent,
            &mut live,
            &crate::online::OnlineConfig::deepcat(5),
            "DeepCAT",
        );
        assert!(report.speedup() > 2.0, "speedup {}", report.speedup());
    }

    #[test]
    fn single_worker_also_works() {
        let cfg = OfflineConfig::td3_uniform(150, 5);
        let par = ParallelConfig {
            workers: 1,
            ..Default::default()
        };
        let (_, _, stats) = train_td3_parallel(make_env, agent_cfg(), &cfg, &par);
        assert_eq!(stats.gradient_steps, 150);
    }
}
