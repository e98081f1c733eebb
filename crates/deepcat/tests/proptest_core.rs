//! Property-based tests of the DeepCAT-specific mechanisms: the reward
//! function, the Twin-Q optimizer's action hygiene and its bit-exact
//! equivalence with a one-round-at-a-time reference, and report arithmetic.

use deepcat::{AgentConfig, RewardFn, Td3Agent, TwinQOptimizer, TwinQResult, WhiteBoxTwinQ};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use rl::GaussianNoise;

/// Algorithm 1 scored one round at a time with single-row `min_q` calls —
/// the reference the chunked, batched search must match bit for bit
/// (result and RNG stream). `step` is the perturbation: Gaussian over all
/// knobs for `TwinQOptimizer`, over the bottleneck's knobs for white-box.
fn scalar_search(
    opt: &TwinQOptimizer,
    agent: &Td3Agent,
    state: &[f64],
    action: Vec<f64>,
    rng: &mut StdRng,
    mut step: impl FnMut(&[f64], &mut StdRng) -> Vec<f64>,
) -> TwinQResult {
    let smoothed = |a: &[f64], rng: &mut StdRng| {
        let n = opt.smoothing_samples.max(1);
        if n == 1 {
            return agent.min_q(state, a);
        }
        let jitter = GaussianNoise::new(a.len(), opt.sigma * 0.25);
        let mut sum = agent.min_q(state, a);
        for _ in 1..n {
            sum += agent.min_q(state, &jitter.perturb(a, rng));
        }
        sum / n as f64
    };
    let initial_q = smoothed(&action, rng);
    let mut current = action;
    let mut current_q = initial_q;
    let (mut best, mut best_q) = (current.clone(), current_q);
    let mut iterations = 0;
    while current_q < opt.q_threshold && iterations < opt.max_iters {
        current = step(&current, rng);
        current_q = smoothed(&current, rng);
        if current_q > best_q {
            best_q = current_q;
            best = current.clone();
        }
        iterations += 1;
    }
    if current_q >= opt.q_threshold {
        TwinQResult {
            action: current,
            initial_q,
            final_q: current_q,
            iterations,
            accepted: true,
        }
    } else {
        TwinQResult {
            action: best,
            initial_q,
            final_q: best_q,
            iterations,
            accepted: false,
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Assert two searches agree bit for bit, RNG end state included.
fn assert_identical(got: &TwinQResult, got_rng: &StdRng, want: &TwinQResult, want_rng: &StdRng) {
    assert_eq!(bits(&got.action), bits(&want.action), "action");
    assert_eq!(
        got.initial_q.to_bits(),
        want.initial_q.to_bits(),
        "initial_q"
    );
    assert_eq!(got.final_q.to_bits(), want.final_q.to_bits(), "final_q");
    assert_eq!(got.iterations, want.iterations, "iterations");
    assert_eq!(got.accepted, want.accepted, "accepted");
    assert_eq!(got_rng.state(), want_rng.state(), "rng end state");
}

/// An untrained agent whose hidden widths exercise the kernel's partial
/// tiles (widths not a multiple of 4).
fn agent(action_dim: usize, hidden: usize, seed: u64) -> Td3Agent {
    let mut cfg = AgentConfig::for_dims(3, action_dim);
    cfg.hidden = vec![hidden, hidden + 3];
    Td3Agent::new(cfg, seed)
}

/// A threshold for `agent` at state `s`: below every score (`mode` 0, so
/// round 0 accepts), above every score (`mode` 1, so the cap is hit), or the
/// `quantile` of the unsmoothed scores of 32 random actions, so the walk
/// stops at a varying round.
fn threshold(agent: &Td3Agent, s: &[f64], mode: u8, quantile: f64, seed: u64) -> f64 {
    match mode {
        0 => f64::NEG_INFINITY,
        1 => f64::INFINITY,
        _ => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
            let dim = agent.cfg.action_dim;
            let mut qs: Vec<f64> = (0..32)
                .map(|_| {
                    let a: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
                    agent.min_q(s, &a)
                })
                .collect();
            qs.sort_by(f64::total_cmp);
            qs[((quantile * 31.0) as usize).min(31)]
        }
    }
}

proptest! {
    #[test]
    fn reward_is_monotone_decreasing_in_exec_time(
        perf_e in 1.0f64..1000.0,
        t1 in 0.1f64..5000.0,
        dt in 0.1f64..100.0,
    ) {
        let f = RewardFn::with_target(perf_e);
        prop_assert!(f.reward(t1) > f.reward(t1 + dt));
    }

    #[test]
    fn reward_round_trips_through_exec_time(
        perf_e in 1.0f64..1000.0,
        t in 0.1f64..5000.0,
    ) {
        let f = RewardFn::with_target(perf_e);
        let r = f.reward(t);
        prop_assert!((f.exec_time_for_reward(r) - t).abs() < 1e-6 * t.max(1.0));
    }

    #[test]
    fn reward_is_bounded_above_by_one(perf_e in 1.0f64..1000.0, t in 0.0f64..1e6) {
        let f = RewardFn::with_target(perf_e);
        prop_assert!(f.reward(t) <= 1.0);
    }

    #[test]
    fn twinq_actions_always_stay_in_unit_box(
        start in proptest::collection::vec(0.0f64..1.0, 8),
        sigma in 0.01f64..0.5,
        seed in 0u64..50,
    ) {
        let mut cfg = AgentConfig::for_dims(2, 8);
        cfg.hidden = vec![8];
        let agent = Td3Agent::new(cfg, seed);
        let opt = TwinQOptimizer { q_threshold: 1e9, sigma, max_iters: 8, smoothing_samples: 2 };
        let mut rng = StdRng::seed_from_u64(seed);
        let res = opt.optimize(&agent, &[0.1, 0.2], start, &mut rng);
        prop_assert!(res.action.iter().all(|v| (0.0..=1.0).contains(v)));
        prop_assert!(res.final_q >= res.initial_q, "fallback returns best seen");
        prop_assert_eq!(res.iterations, 8);
        prop_assert!(!res.accepted);
    }

    #[test]
    fn twinq_search_matches_scalar_reference(
        seed in 0u64..1000,
        smoothing_samples in 1usize..=5,
        max_iters in 0usize..46,
        mode in 0u8..4,
        quantile in 0.0f64..1.0,
        hidden in 1usize..10,
    ) {
        let agent = agent(6, hidden, seed);
        let state = [0.3, -0.2, 0.7];
        let opt = TwinQOptimizer {
            q_threshold: threshold(&agent, &state, mode, quantile, seed),
            sigma: 0.15,
            max_iters,
            smoothing_samples,
        };
        let start: Vec<f64> = (0..6).map(|d| (d as f64 * 0.17 + seed as f64 * 1e-3) % 1.0).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ref_rng = rng.clone();
        let got = opt.optimize(&agent, &state, start.clone(), &mut rng);
        let noise = GaussianNoise::new(6, opt.sigma);
        let want = scalar_search(&opt, &agent, &state, start, &mut ref_rng, |a, r| noise.perturb(a, r));
        assert_identical(&got, &rng, &want, &ref_rng);
    }

    #[test]
    fn whitebox_search_matches_scalar_reference(
        seed in 0u64..1000,
        smoothing_samples in 1usize..=5,
        max_iters in 0usize..40,
        mode in 0u8..4,
        quantile in 0.0f64..1.0,
    ) {
        let agent = agent(32, 5, seed);
        let state = [0.1, 0.4, -0.3];
        let wb = WhiteBoxTwinQ {
            inner: TwinQOptimizer {
                q_threshold: threshold(&agent, &state, mode, quantile, seed),
                sigma: 0.2,
                max_iters,
                smoothing_samples,
            },
        };
        let mut metrics = spark_sim::RunMetrics::idle(3);
        metrics.io_wait = 0.9;
        let mask = deepcat::relevant_knobs(deepcat::diagnose(&metrics));
        let start = vec![0.5; 32];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ref_rng = rng.clone();
        let (got, _) = wb.optimize(&agent, &state, start.clone(), Some(&metrics), &mut rng);
        let normal = Normal::new(0.0, wb.inner.sigma).unwrap();
        let want = scalar_search(&wb.inner, &agent, &state, start, &mut ref_rng, |a, r| {
            let mut next = a.to_vec();
            for &d in mask {
                next[d] = (next[d] + normal.sample(r)).clamp(0.0, 1.0);
            }
            next
        });
        assert_identical(&got, &rng, &want, &ref_rng);
    }
}

/// The ends of the scan: acceptance at round 0 (one chunk of one round)
/// and a cap hit at 37 rounds, which no sum of the 1, 2, 4, … chunk sizes
/// hits exactly, for every smoothing width from 1 to 5.
#[test]
fn twinq_search_matches_scalar_reference_at_the_edges() {
    let agent = agent(8, 7, 3);
    let state = [0.2, 0.5, -0.1];
    for smoothing_samples in 1..=5 {
        for q_threshold in [f64::NEG_INFINITY, f64::INFINITY] {
            let opt = TwinQOptimizer {
                q_threshold,
                sigma: 0.1,
                max_iters: 37,
                smoothing_samples,
            };
            let mut rng = StdRng::seed_from_u64(smoothing_samples as u64);
            let mut ref_rng = rng.clone();
            let got = opt.optimize(&agent, &state, vec![0.4; 8], &mut rng);
            let noise = GaussianNoise::new(8, opt.sigma);
            let want = scalar_search(&opt, &agent, &state, vec![0.4; 8], &mut ref_rng, |a, r| {
                noise.perturb(a, r)
            });
            assert_eq!(got.iterations, if q_threshold < 0.0 { 0 } else { 37 });
            assert_identical(&got, &rng, &want, &ref_rng);
        }
    }
    // An unbounded cap must not overflow the chunk arithmetic.
    let opt = TwinQOptimizer {
        q_threshold: f64::NEG_INFINITY,
        max_iters: usize::MAX,
        ..TwinQOptimizer::default()
    };
    let mut rng = StdRng::seed_from_u64(9);
    assert_eq!(
        opt.optimize(&agent, &state, vec![0.4; 8], &mut rng)
            .iterations,
        0
    );
}
