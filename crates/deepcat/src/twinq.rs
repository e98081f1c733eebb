//! The Twin-Q Optimizer (Algorithm 1 of the paper).
//!
//! Before paying for a real configuration evaluation during online tuning,
//! score the recommended action with both offline-trained critics. If
//! `min(Q1, Q2)` falls below the threshold `Q_th`, the action is deemed
//! sub-optimal: perturb it with Gaussian noise and re-score, looping until
//! an estimated close-to-optimal action emerges. No configuration is
//! actually executed during the search, so sub-optimal candidates are
//! filtered at negligible cost.

use crate::td3::Td3Agent;
use rand::rngs::StdRng;
use rl::GaussianNoise;
use serde::{Deserialize, Serialize};
use tensor_nn::Matrix;

/// Rounds in the largest chunk [`TwinQOptimizer::search`] draws ahead and
/// scores in one forward per critic.
const MAX_CHUNK_ROUNDS: usize = 16;

/// Twin-Q Optimizer parameters.
///
/// ```
/// use deepcat::{AgentConfig, Td3Agent, TwinQOptimizer};
/// use rand::SeedableRng;
///
/// let agent = Td3Agent::new(AgentConfig::for_dims(2, 4), 7);
/// let opt = TwinQOptimizer::default(); // Q_th = 0.3, as the paper chooses
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let result = opt.optimize(&agent, &[0.1, 0.2], vec![0.5; 4], &mut rng);
/// assert!(result.action.iter().all(|v| (0.0..=1.0).contains(v)));
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TwinQOptimizer {
    /// Q-value threshold `Q_th` separating close-to-optimal from
    /// sub-optimal actions. The paper settles on 0.3 (Fig. 12).
    pub q_threshold: f64,
    /// Std-dev of the Gaussian perturbation `ε`.
    pub sigma: f64,
    /// Safety cap on perturbation rounds (Algorithm 1's loop has no bound;
    /// a cap keeps pathological critics from spinning forever).
    pub max_iters: usize,
    /// Number of jittered critic queries averaged per candidate. A single
    /// critic read can be exploited by the perturbation search (the
    /// optimizer's curse — the max over many candidates picks up
    /// estimation noise); averaging a few local queries smooths it out,
    /// the same remedy TD3 applies to its target policy.
    pub smoothing_samples: usize,
}

impl Default for TwinQOptimizer {
    fn default() -> Self {
        Self {
            q_threshold: 0.3,
            sigma: 0.08,
            max_iters: 64,
            smoothing_samples: 4,
        }
    }
}

/// Outcome of one optimization call.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwinQResult {
    /// The action to actually evaluate.
    pub action: Vec<f64>,
    /// `min(Q1, Q2)` of the original recommended action.
    pub initial_q: f64,
    /// `min(Q1, Q2)` of the returned action.
    pub final_q: f64,
    /// Number of perturbation rounds performed (0 ⇒ the original action
    /// already cleared the threshold).
    pub iterations: usize,
    /// Whether the returned action clears `Q_th` (false only when the
    /// iteration cap was hit; the best-scoring candidate is returned).
    pub accepted: bool,
}

impl TwinQOptimizer {
    /// With the paper's chosen threshold `Q_th = 0.3`.
    pub fn with_threshold(q_threshold: f64) -> Self {
        Self {
            q_threshold,
            ..Self::default()
        }
    }

    /// Algorithm 1: optimize `action` for `state` under `agent`'s twin
    /// critics.
    pub fn optimize(
        &self,
        agent: &Td3Agent,
        state: &[f64],
        action: Vec<f64>,
        rng: &mut StdRng,
    ) -> TwinQResult {
        let noise = GaussianNoise::new(action.len(), self.sigma);
        let loop_span = telemetry::span!("twinq.loop");
        let result = self.search(agent, state, action, rng, |a, rng| noise.perturb(a, rng));
        drop(loop_span);
        telemetry::inc("twinq.calls", 1);
        // Each perturbation round scored a candidate with the critics
        // instead of paying for a real evaluation.
        telemetry::inc("twinq.eval_skipped", result.iterations as u64);
        if result.accepted {
            telemetry::inc("twinq.accepted", 1);
        }
        telemetry::event!(
            "twinq.decision",
            iterations = result.iterations,
            initial_q = result.initial_q,
            final_q = result.final_q,
            accepted = result.accepted,
        );
        result
    }

    /// Algorithm 1's loop with the perturbation left to the caller: round 0
    /// scores `action`, round `r ≥ 1` scores `step` applied to round
    /// `r − 1`'s candidate. A candidate's score is the mean of
    /// `min(Q1, Q2)` over it and `smoothing_samples − 1` jittered copies.
    ///
    /// The walk does not depend on the scores; only where it stops does.
    /// So rounds are drawn ahead in chunks of 1, 2, 4, … up to
    /// [`MAX_CHUNK_ROUNDS`], in the serial RNG order (step, then its
    /// jitters), and each chunk is scored in one forward per critic. The
    /// scan then applies the serial stop and best-tracking rules and
    /// rewinds `rng` to its state just after the stopping round. Result and
    /// RNG stream are bit-identical to scoring one round at a time.
    pub(crate) fn search(
        &self,
        agent: &Td3Agent,
        state: &[f64],
        action: Vec<f64>,
        rng: &mut StdRng,
        mut step: impl FnMut(&[f64], &mut StdRng) -> Vec<f64>,
    ) -> TwinQResult {
        let n = self.smoothing_samples.max(1);
        let jitter = GaussianNoise::new(action.len(), self.sigma * 0.25);
        let width = state.len() + action.len();
        let mut walk = action;
        let (mut drawn, mut chunk) = (0, 1);
        let (mut initial_q, mut best_q, mut best) = (f64::NAN, f64::NAN, Vec::new());
        let mut iterations = 0;
        loop {
            let rounds = chunk.min((self.max_iters - drawn).saturating_add(1));
            let span = telemetry::span!("twinq.rescore");
            let mut rows = Vec::with_capacity(rounds * n * width);
            let mut candidates = Vec::with_capacity(rounds);
            let mut rng_after = Vec::with_capacity(rounds);
            for round in drawn..drawn + rounds {
                if round > 0 {
                    walk = step(&walk, rng);
                }
                rows.extend_from_slice(state);
                rows.extend_from_slice(&walk);
                for _ in 1..n {
                    rows.extend_from_slice(state);
                    rows.extend(jitter.perturb(&walk, rng));
                }
                candidates.push(walk.clone());
                rng_after.push(rng.state());
            }
            let qs = agent.min_q_batch(&Matrix::from_vec(rounds * n, width, rows));
            drop(span);
            for ((candidate, q), after) in candidates.into_iter().zip(qs.chunks(n)).zip(rng_after) {
                // Row order, starting from the candidate's own score: the
                // summation order bit-identity with serial scoring needs.
                let score = q
                    .iter()
                    .copied()
                    .reduce(|sum, v| sum + v)
                    .unwrap_or(f64::NAN)
                    / n as f64;
                if drawn == 0 {
                    initial_q = score;
                    best_q = score;
                    best = candidate.clone();
                } else {
                    iterations += 1;
                    if score > best_q {
                        best_q = score;
                        best = candidate.clone();
                    }
                }
                drawn += 1;
                if !(score < self.q_threshold && iterations < self.max_iters) {
                    *rng = StdRng::from_state(after);
                    return if score >= self.q_threshold {
                        TwinQResult {
                            action: candidate,
                            initial_q,
                            final_q: score,
                            iterations,
                            accepted: true,
                        }
                    } else {
                        // Cap hit: fall back to the best candidate seen.
                        TwinQResult {
                            action: best,
                            initial_q,
                            final_q: best_q,
                            iterations,
                            accepted: false,
                        }
                    };
                }
            }
            chunk = (chunk * 2).min(MAX_CHUNK_ROUNDS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgentConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rl::{Batch, Transition};

    fn trained_agent() -> Td3Agent {
        // Bandit whose reward peaks at a* = (0.8, 0.2, 0.5): after training,
        // the critics score actions near a* highly.
        let mut cfg = AgentConfig::for_dims(2, 3);
        cfg.hidden = vec![16, 16];
        let mut agent = Td3Agent::new(cfg, 11);
        let target = [0.8, 0.2, 0.5];
        for _ in 0..800 {
            let mut transitions = Vec::new();
            for _ in 0..16 {
                let s = vec![0.1, 0.2];
                let a = agent.select_action_noisy(&s);
                let d2: f64 = a.iter().zip(&target).map(|(x, t)| (x - t) * (x - t)).sum();
                transitions.push(Transition::new(s.clone(), a, 1.0 - d2, s, true));
            }
            let n = transitions.len();
            agent.train_step(&Batch {
                transitions,
                weights: vec![1.0; n],
                indices: vec![0; n],
            });
        }
        agent
    }

    #[test]
    fn good_actions_pass_untouched() {
        let agent = trained_agent();
        let mut rng = StdRng::seed_from_u64(0);
        let state = [0.1, 0.2];
        let good = agent.select_action(&state);
        let opt = TwinQOptimizer {
            q_threshold: 0.2,
            sigma: 0.08,
            max_iters: 64,
            smoothing_samples: 4,
        };
        let res = opt.optimize(&agent, &state, good.clone(), &mut rng);
        assert!(res.accepted);
        assert_eq!(res.iterations, 0, "good action must not be perturbed");
        assert_eq!(res.action, good);
    }

    #[test]
    fn bad_actions_are_improved() {
        let agent = trained_agent();
        let mut rng = StdRng::seed_from_u64(1);
        let state = [0.1, 0.2];
        let bad = vec![0.05, 0.95, 0.05]; // far from the bandit optimum
        let q_bad = agent.min_q(&state, &bad);
        // Set the threshold above the bad action's score so the optimizer
        // must search; the policy's own action comfortably clears it.
        let q_good = agent.min_q(&state, &agent.select_action(&state));
        assert!(q_good > q_bad, "critics must rank the policy action higher");
        let threshold = q_bad + 0.6 * (q_good - q_bad);
        let opt = TwinQOptimizer {
            q_threshold: threshold,
            sigma: 0.1,
            max_iters: 512,
            smoothing_samples: 4,
        };
        let res = opt.optimize(&agent, &state, bad, &mut rng);
        assert!(res.final_q > q_bad, "{} vs {q_bad}", res.final_q);
        assert!(res.iterations > 0);
    }

    #[test]
    fn iteration_cap_returns_best_seen() {
        let agent = trained_agent();
        let mut rng = StdRng::seed_from_u64(2);
        let state = [0.1, 0.2];
        // Impossible threshold forces the cap.
        let opt = TwinQOptimizer {
            q_threshold: 1e6,
            sigma: 0.05,
            max_iters: 16,
            smoothing_samples: 1,
        };
        let res = opt.optimize(&agent, &state, vec![0.5, 0.5, 0.5], &mut rng);
        assert!(!res.accepted);
        assert_eq!(res.iterations, 16);
        assert!(
            res.final_q >= res.initial_q,
            "returns the best candidate seen"
        );
    }

    #[test]
    fn actions_stay_in_unit_box() {
        let agent = trained_agent();
        let mut rng = StdRng::seed_from_u64(3);
        let opt = TwinQOptimizer {
            q_threshold: 10.0,
            sigma: 0.3,
            max_iters: 32,
            smoothing_samples: 2,
        };
        let res = opt.optimize(&agent, &[0.1, 0.2], vec![0.0, 1.0, 0.5], &mut rng);
        assert!(res.action.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn default_matches_paper_settings() {
        let opt = TwinQOptimizer::default();
        assert_eq!(opt.q_threshold, 0.3);
    }
}
