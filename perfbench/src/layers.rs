//! Benchmark-side timings of each layer's public functions, taken at the
//! shapes a workload uses. Every figure is a median over several timed
//! batches of calls, reported per call.

use crate::stats::{derive, median};
use deepcat::{
    build_repository, train_ddpg, AgentConfig, OfflineConfig, OnlineConfig, OtterTune, Td3Agent,
    Tuner, TuningEnv, TwinQOptimizer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{GaussianNoise, PrioritizedReplay, RdPer, ReplayMemory, Transition, UniformReplay};
use spark_sim::{Cluster, SparkEnv, Workload};
use std::hint::black_box;
use std::time::Instant;
use tensor_nn::{Activation, Matrix, Mlp};

/// Timed batches per figure.
const SAMPLES: usize = 9;

/// Median seconds per call of `f`, over [`SAMPLES`] batches of `calls`.
pub fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy allocations outside the clock
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

/// Critic network timings at `AgentConfig` shape `cfg`.
pub struct NnFigures {
    pub fwd_bwd_b64_s: f64,
    /// Multiply-accumulates of one batch-64 forward+backward ÷ its time.
    pub gmac_per_s: f64,
    pub infer_row_s: f64,
}

pub fn critic_nn(cfg: &AgentConfig, seed: u64) -> NnFigures {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = cfg.state_dim + cfg.action_dim;
    let mut sizes = vec![input];
    sizes.extend_from_slice(&cfg.hidden);
    sizes.push(1);
    let net = Mlp::new(&sizes, Activation::Relu, Activation::Identity, &mut rng);
    let batch = Matrix::from_fn(64, input, |_, _| rng.gen::<f64>());
    let grad = Matrix::full(64, 1, 1.0 / 64.0);
    let fwd_bwd_b64_s = per_call(40, || {
        let cache = net.forward(&batch);
        black_box(net.backward(&cache, &grad));
    });
    let row = Matrix::from_fn(1, input, |_, c| (c as f64 * 0.37).fract());
    let infer_row_s = per_call(2000, || {
        black_box(net.infer(&row));
    });
    // Forward: one MAC per weight per row. Backward: two (input gradient
    // and weight gradient), including the first layer's input gradient,
    // which `Mlp::backward` computes.
    let weights: usize = sizes.windows(2).map(|w| w[0] * w[1]).sum();
    let macs = 3.0 * 64.0 * weights as f64;
    NnFigures {
        fwd_bwd_b64_s,
        gmac_per_s: macs / fwd_bwd_b64_s / 1e9,
        infer_row_s,
    }
}

/// Synthetic transitions at the agent's dims; rewards spread over
/// [-1, 1] so both RDPER pools fill.
fn transitions(cfg: &AgentConfig, n: usize, seed: u64) -> Vec<Transition> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let s: Vec<f64> = (0..cfg.state_dim).map(|_| rng.gen()).collect();
            let a: Vec<f64> = (0..cfg.action_dim).map(|_| rng.gen()).collect();
            let next: Vec<f64> = (0..cfg.state_dim).map(|_| rng.gen()).collect();
            let reward = rng.gen::<f64>() * 2.0 - 1.0;
            Transition::new(
                s,
                a,
                reward,
                next,
                i % cfg.episode_len == cfg.episode_len - 1,
            )
        })
        .collect()
}

pub struct ReplayFigures {
    pub rdper_sample_b64_s: f64,
    pub rdper_push_s: f64,
    pub rdper_update_priorities_s: f64,
}

/// RDPER (`OfflineConfig::deepcat` parameters) holding `fill`
/// transitions, as during an offline training run of that length.
pub fn rdper(cfg: &AgentConfig, off: &OfflineConfig, fill: usize, seed: u64) -> ReplayFigures {
    let (threshold, beta) = match off.replay {
        deepcat::ReplayKind::RdPer {
            reward_threshold,
            beta,
        } => (reward_threshold, beta),
        _ => (0.3, 0.6),
    };
    let data = transitions(cfg, fill, seed);
    let mut buf = RdPer::new(off.capacity, threshold, beta);
    for t in &data {
        buf.push(t.clone());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 1);
    let rdper_sample_b64_s = per_call(200, || {
        black_box(buf.sample(64, &mut rng));
    });
    let batch = buf
        .sample(64, &mut rng)
        .expect("RDPER holds more than a batch");
    let tds: Vec<f64> = (0..batch.len()).map(|i| i as f64 * 0.01).collect();
    let rdper_update_priorities_s = per_call(200, || {
        buf.update_priorities(black_box(&batch.indices), black_box(&tds));
    });
    let mut next = data.iter().cycle();
    let rdper_push_s = per_call(200, || {
        let t = next.next().expect("cycle over a non-empty vec").clone();
        buf.push(t);
    });
    ReplayFigures {
        rdper_sample_b64_s,
        rdper_push_s,
        rdper_update_priorities_s,
    }
}

/// TD-error PER (CDBTune's replay) sample time at batch 64.
pub fn tdper_sample_b64(cfg: &AgentConfig, capacity: usize, fill: usize, seed: u64) -> f64 {
    let mut buf = PrioritizedReplay::new(capacity);
    for t in transitions(cfg, fill, seed) {
        buf.push(t);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 2);
    per_call(200, || {
        black_box(buf.sample(64, &mut rng));
    })
}

/// One `Td3Agent::train_step` on a uniform batch of `batch` transitions.
pub fn td3_train_step(agent: &Td3Agent, batch: usize, seed: u64) -> f64 {
    let mut buf = UniformReplay::new(4096);
    for t in transitions(&agent.cfg, batch.max(256), seed) {
        buf.push(t);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 3);
    let sample = buf.sample(batch, &mut rng).expect("buffer holds a batch");
    let mut agent = agent.clone();
    per_call(40, || {
        black_box(agent.train_step(&sample));
    })
}

pub struct TwinQFigures {
    pub optimize_s: f64,
    pub accept_ratio: f64,
    pub calls: usize,
}

/// `TwinQOptimizer::optimize` (default parameters) as the first step of a
/// DeepCAT request calls it: on the agent's recommendation for each of
/// `envs`' initial state, perturbed by the online exploration noise.
pub fn twinq(agent: &Td3Agent, envs: &mut [TuningEnv], seed: u64) -> TwinQFigures {
    let opt = TwinQOptimizer::default();
    let explore = GaussianNoise::new(
        agent.cfg.action_dim,
        OnlineConfig::deepcat(0).exploration_sigma,
    );
    let mut times = Vec::with_capacity(envs.len());
    let mut accepted = 0usize;
    for (i, env) in envs.iter_mut().enumerate() {
        let state = env.reset();
        let mut rng = StdRng::seed_from_u64(derive(seed, 7, i as u64));
        let action = explore.perturb(&agent.select_action(&state), &mut rng);
        let t0 = Instant::now();
        let res = opt.optimize(agent, &state, action, &mut rng);
        times.push(t0.elapsed().as_secs_f64());
        accepted += usize::from(res.accepted);
    }
    TwinQFigures {
        optimize_s: median(&times),
        accept_ratio: accepted as f64 / envs.len().max(1) as f64,
        calls: envs.len(),
    }
}

/// One simulated application run (`SparkEnv::evaluate_action`) on
/// random configurations.
pub fn sim_evaluate(cluster: &Cluster, workload: Workload, seed: u64) -> f64 {
    let mut env = SparkEnv::new(cluster.clone(), workload, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 4);
    let actions: Vec<Vec<f64>> = (0..16)
        .map(|_| env.space().random_action(&mut rng))
        .collect();
    let mut next = actions.iter().cycle();
    per_call(8, || {
        black_box(env.evaluate_action(next.next().expect("non-empty")));
    })
}

/// DDPG offline training rate (CDBTune's recipe), iterations per second.
pub fn ddpg_train_iters_per_s(env: &TuningEnv, iterations: usize, seed: u64) -> f64 {
    let mut env = env.clone();
    let cfg = AgentConfig::for_dims(env.state_dim(), env.action_dim());
    let t0 = Instant::now();
    let (agent, _) = train_ddpg(&mut env, cfg, &OfflineConfig::cdbtune(iterations, seed));
    let rate = iterations as f64 / t0.elapsed().as_secs_f64();
    black_box(agent);
    rate
}

pub struct OtterFigures {
    pub repository_s: f64,
    pub tune_s: f64,
}

/// OtterTune on `target`: build its repository from every other paper
/// pair, then one `steps`-step online tuning session.
pub fn ottertune(
    cluster: &Cluster,
    target: Workload,
    samples: usize,
    steps: usize,
    seed: u64,
) -> OtterFigures {
    let others: Vec<Workload> = Workload::all_pairs()
        .into_iter()
        .filter(|w| *w != target)
        .collect();
    let t0 = Instant::now();
    let repo = build_repository(cluster, &others, samples, seed);
    let repository_s = t0.elapsed().as_secs_f64();
    let mut tuner = OtterTune::with_repository(repo, seed);
    let mut offline = TuningEnv::for_workload(cluster.clone(), target, seed);
    tuner.offline_train(&mut offline);
    let mut online = TuningEnv::for_workload(cluster.with_background_load(0.15), target, seed ^ 5);
    let t0 = Instant::now();
    black_box(tuner.online_tune(&mut online, steps));
    OtterFigures {
        repository_s,
        tune_s: t0.elapsed().as_secs_f64(),
    }
}
