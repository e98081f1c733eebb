//! Offline training stage (Figure 1, left): train a DRL agent against the
//! standard environment by trial and error, filling a replay memory and
//! taking one gradient step per environment step.

use crate::config::AgentConfig;
use crate::ddpg::DdpgAgent;
use crate::envwrap::TuningEnv;
use crate::td3::Td3Agent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{PrioritizedReplay, RdPer, ReplayMemory, Transition, UniformReplay};
use serde::{Deserialize, Serialize};

/// Which replay memory to train with.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ReplayKind {
    /// Conventional uniform experience replay.
    Uniform,
    /// TD-error prioritized replay, proportional variant (what CDBTune
    /// uses).
    TdPer,
    /// TD-error prioritized replay, rank-based variant (robust to outlier
    /// TD errors from failure-penalty transitions).
    RankPer,
    /// The paper's reward-driven PER with threshold `R_th` and ratio `β`.
    RdPer { reward_threshold: f64, beta: f64 },
}

impl ReplayKind {
    /// Instantiate the chosen replay memory.
    pub fn build(self, capacity: usize) -> Box<dyn ReplayMemory> {
        match self {
            ReplayKind::Uniform => Box::new(UniformReplay::new(capacity)),
            ReplayKind::TdPer => Box::new(PrioritizedReplay::new(capacity)),
            ReplayKind::RankPer => Box::new(rl::RankBasedReplay::new(capacity)),
            ReplayKind::RdPer {
                reward_threshold,
                beta,
            } => Box::new(RdPer::new(capacity, reward_threshold, beta)),
        }
    }
}

/// Offline-training configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OfflineConfig {
    /// Environment steps (= gradient steps after warm-up).
    pub iterations: usize,
    pub replay: ReplayKind,
    pub capacity: usize,
    /// Record a log entry every `log_every` iterations.
    pub log_every: usize,
    pub seed: u64,
}

impl OfflineConfig {
    /// DeepCAT's offline recipe: RDPER with the paper's β = 0.6 and
    /// `R_th = 0.3` — a transition is "high-reward" when its configuration
    /// ran at least ~3× faster than the default (clearly better than the
    /// expected performance), which keeps `P_high` sparse.
    pub fn deepcat(iterations: usize, seed: u64) -> Self {
        Self {
            iterations,
            replay: ReplayKind::RdPer {
                reward_threshold: 0.3,
                beta: 0.6,
            },
            capacity: 100_000,
            log_every: 20,
            seed,
        }
    }

    /// Conventional TD3 (uniform replay) — the Fig. 4 ablation baseline.
    pub fn td3_uniform(iterations: usize, seed: u64) -> Self {
        Self {
            replay: ReplayKind::Uniform,
            ..Self::deepcat(iterations, seed)
        }
    }

    /// CDBTune's offline recipe: TD-error PER.
    pub fn cdbtune(iterations: usize, seed: u64) -> Self {
        Self {
            replay: ReplayKind::TdPer,
            ..Self::deepcat(iterations, seed)
        }
    }
}

/// One log record of the offline training trajectory.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IterRecord {
    pub iteration: usize,
    /// Immediate reward of the action taken at this iteration.
    pub reward: f64,
    /// `min(Q1, Q2)` of the (state, action) just taken — Fig. 3's signal.
    pub min_q: f64,
    /// Execution time of the evaluated configuration (seconds).
    pub exec_time_s: f64,
}

/// Offline training trajectory log.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrainLog {
    pub records: Vec<IterRecord>,
}

impl TrainLog {
    /// Smoothed series `(iteration, mean reward)` with a trailing window.
    pub fn smoothed_rewards(&self, window: usize) -> Vec<(usize, f64)> {
        smooth(&self.records, window, |r| r.reward)
    }

    /// Smoothed series of the min twin-Q values.
    pub fn smoothed_min_q(&self, window: usize) -> Vec<(usize, f64)> {
        smooth(&self.records, window, |r| r.min_q)
    }
}

fn smooth(
    records: &[IterRecord],
    window: usize,
    f: impl Fn(&IterRecord) -> f64,
) -> Vec<(usize, f64)> {
    let w = window.max(1);
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let lo = i.saturating_sub(w - 1);
            let vals = &records[lo..=i];
            (
                r.iteration,
                vals.iter().map(&f).sum::<f64>() / vals.len() as f64,
            )
        })
        .collect()
}

/// Train a TD3 agent offline. `snapshots` lists iteration counts at which a
/// copy of the agent is captured (for convergence studies like Fig. 4); the
/// fully-trained agent and the training log are always returned.
pub fn train_td3(
    env: &mut TuningEnv,
    agent_cfg: AgentConfig,
    cfg: &OfflineConfig,
    snapshots: &[usize],
) -> (Td3Agent, TrainLog, Vec<(usize, Td3Agent)>) {
    let mut agent = Td3Agent::new(agent_cfg.clone(), cfg.seed);
    let mut replay = cfg.replay.build(cfg.capacity);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xABCD_EF01);
    let mut log = TrainLog::default();
    let mut snaps = Vec::with_capacity(snapshots.len());
    let mut state = env.reset();
    let mut last_critic_loss = f64::NAN;
    let mut episode: u64 = 0;
    let mut episode_span = telemetry::span!("offline.episode", episode = episode);
    for iter in 0..cfg.iterations {
        let step_span = telemetry::span!("offline.step", iter = iter);
        let action = if iter < agent_cfg.warmup_steps {
            (0..agent_cfg.action_dim)
                .map(|_| rng.gen::<f64>())
                .collect::<Vec<_>>()
        } else {
            agent.select_action_noisy(&state)
        };
        let out = env.step(&action);
        if iter % cfg.log_every == 0 {
            let min_q = agent.min_q(&state, &action);
            telemetry::event!(
                "offline.iter",
                iteration = iter,
                reward = out.reward,
                min_q = min_q,
                exec_time_s = out.exec_time_s,
                critic_loss = last_critic_loss,
            );
            log.records.push(IterRecord {
                iteration: iter,
                reward: out.reward,
                min_q,
                exec_time_s: out.exec_time_s,
            });
        }
        replay.push(Transition::new(
            state,
            action,
            out.reward,
            out.next_state.clone(),
            out.done,
        ));
        state = if out.done {
            env.reset()
        } else {
            out.next_state
        };

        if replay.len() >= agent_cfg.warmup_steps.max(agent_cfg.batch_size) {
            if let Some(batch) = replay.sample(agent_cfg.batch_size, &mut rng) {
                let (stats, tds) = agent.train_step(&batch);
                replay.update_priorities(&batch.indices, &tds);
                last_critic_loss = stats.critic1_loss;
                telemetry::inc("offline.train_steps", 1);
                telemetry::set_gauge("offline.critic_loss", stats.critic1_loss);
                if iter % cfg.log_every == 0 {
                    telemetry::set_gauge("offline.mean_min_q", agent.mean_min_q(&batch));
                }
                if let Some(a) = stats.actor_loss {
                    telemetry::set_gauge("offline.actor_loss", a);
                }
            }
        }
        if snapshots.contains(&(iter + 1)) {
            snaps.push((iter + 1, agent.clone()));
        }
        // Close the step span before an episode rollover: a new episode
        // span started while the step guard is live would nest under it.
        drop(step_span);
        if out.done {
            episode += 1;
            drop(episode_span);
            episode_span = telemetry::span!("offline.episode", episode = episode);
        }
    }
    drop(episode_span);
    (agent, log, snaps)
}

/// Train a DDPG agent offline (the CDBTune baseline).
pub fn train_ddpg(
    env: &mut TuningEnv,
    agent_cfg: AgentConfig,
    cfg: &OfflineConfig,
) -> (DdpgAgent, TrainLog) {
    let mut agent = DdpgAgent::new(agent_cfg.clone(), cfg.seed);
    let mut replay = cfg.replay.build(cfg.capacity);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xABCD_EF01);
    let mut log = TrainLog::default();
    let mut state = env.reset();
    let mut episode: u64 = 0;
    let mut episode_span = telemetry::span!("offline.episode", episode = episode);
    for iter in 0..cfg.iterations {
        let step_span = telemetry::span!("offline.step", iter = iter);
        let action = if iter < agent_cfg.warmup_steps {
            (0..agent_cfg.action_dim)
                .map(|_| rng.gen::<f64>())
                .collect::<Vec<_>>()
        } else {
            agent.select_action_noisy(&state)
        };
        let out = env.step(&action);
        if iter % cfg.log_every == 0 {
            let min_q = agent.q_value(&state, &action);
            telemetry::event!(
                "offline.iter",
                iteration = iter,
                reward = out.reward,
                min_q = min_q,
                exec_time_s = out.exec_time_s,
            );
            log.records.push(IterRecord {
                iteration: iter,
                reward: out.reward,
                min_q,
                exec_time_s: out.exec_time_s,
            });
        }
        replay.push(Transition::new(
            state,
            action,
            out.reward,
            out.next_state.clone(),
            out.done,
        ));
        state = if out.done {
            env.reset()
        } else {
            out.next_state
        };
        if replay.len() >= agent_cfg.warmup_steps.max(agent_cfg.batch_size) {
            if let Some(batch) = replay.sample(agent_cfg.batch_size, &mut rng) {
                let (stats, tds) = agent.train_step(&batch);
                replay.update_priorities(&batch.indices, &tds);
                telemetry::inc("offline.train_steps", 1);
                telemetry::set_gauge("offline.critic_loss", stats.critic_loss);
                telemetry::set_gauge("offline.actor_loss", stats.actor_loss);
                telemetry::set_gauge("offline.mean_min_q", stats.mean_q);
            }
        }
        drop(step_span);
        if out.done {
            episode += 1;
            drop(episode_span);
            episode_span = telemetry::span!("offline.episode", episode = episode);
        }
    }
    drop(episode_span);
    (agent, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_sim::{Cluster, InputSize, Workload, WorkloadKind};

    fn env() -> TuningEnv {
        TuningEnv::for_workload(
            Cluster::cluster_a(),
            Workload::new(WorkloadKind::TeraSort, InputSize::D1),
            7,
        )
    }

    fn small_cfg(env: &TuningEnv) -> AgentConfig {
        let mut c = AgentConfig::for_dims(env.state_dim(), env.action_dim());
        c.hidden = vec![32, 32];
        c.warmup_steps = 64;
        c.batch_size = 32;
        c
    }

    #[test]
    fn td3_training_improves_over_random() {
        let mut e = env();
        let cfg = OfflineConfig::deepcat(800, 3);
        let ac = small_cfg(&e);
        let (agent, log, _) = train_td3(&mut e, ac, &cfg, &[]);
        assert!(!agent.diverged());
        // Late rewards should beat early (post-warmup random) rewards.
        let early: f64 = log.records[..10].iter().map(|r| r.reward).sum::<f64>() / 10.0;
        let n = log.records.len();
        let late: f64 = log.records[n - 10..].iter().map(|r| r.reward).sum::<f64>() / 10.0;
        assert!(
            late > early,
            "training should improve rewards: early {early:.3}, late {late:.3}"
        );
    }

    #[test]
    fn snapshots_captured_at_requested_iterations() {
        let mut e = env();
        let cfg = OfflineConfig::td3_uniform(300, 4);
        let ac = small_cfg(&e);
        let (_, _, snaps) = train_td3(&mut e, ac, &cfg, &[100, 200, 300]);
        let iters: Vec<usize> = snaps.iter().map(|(i, _)| *i).collect();
        assert_eq!(iters, vec![100, 200, 300]);
    }

    #[test]
    fn ddpg_training_runs_and_logs() {
        let mut e = env();
        let cfg = OfflineConfig::cdbtune(400, 5);
        let ac = small_cfg(&e);
        let (agent, log) = train_ddpg(&mut e, ac, &cfg);
        assert!(!agent.diverged());
        assert_eq!(log.records.len(), 400 / cfg.log_every);
    }

    #[test]
    fn smoothing_reduces_variance() {
        let mut e = env();
        let cfg = OfflineConfig::deepcat(400, 6);
        let ac = small_cfg(&e);
        let (_, log, _) = train_td3(&mut e, ac, &cfg, &[]);
        let raw: Vec<f64> = log.records.iter().map(|r| r.reward).collect();
        let smooth: Vec<f64> = log.smoothed_rewards(10).iter().map(|(_, v)| *v).collect();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&smooth) <= var(&raw));
    }

    #[test]
    fn replay_kind_builders() {
        assert_eq!(ReplayKind::Uniform.build(8).len(), 0);
        assert_eq!(ReplayKind::TdPer.build(8).len(), 0);
        assert_eq!(ReplayKind::RankPer.build(8).len(), 0);
        assert_eq!(
            ReplayKind::RdPer {
                reward_threshold: 0.0,
                beta: 0.6
            }
            .build(8)
            .len(),
            0
        );
    }
}
