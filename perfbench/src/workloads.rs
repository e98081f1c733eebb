//! The four workloads. Every input is derived from the run's seed with
//! [`derive`]; streams: 0 training env, 1 training RNG, 2 live env,
//! 3 online loop RNG, 4 service session, 5 compare warm-up and layer env,
//! 6 compare experiment seed, 8 layer timings.

use crate::iostat::{self, Call, CallRecord, IoLog, TimedStorage};
use crate::layers;
use crate::stats::{derive, quantile, unit};
use crate::{Bench, Job, Layers, Op, Options, Workload};
use deepcat::experiments::{compare_on, ExperimentConfig};
use deepcat::{
    online_tune_td3, shared_storage, train_td3, AgentConfig, ChaosSessionConfig, Commitlog,
    CommitlogPolicy, MemStorage, OfflineConfig, OnlineConfig, RealStorage, ResiliencePolicy,
    ResilientEnv, ServiceConfig, SessionOutcome, SessionPhase, SessionSpec, StepRecord, Td3Agent,
    TuningEnv, TuningReport, TuningService,
};
use spark_sim::{Cluster, InputSize, Workload as Pair, WorkloadKind};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Iterations of a warm-up training run: the 256 random warm-up steps
/// plus a few dozen learning steps.
const WARMUP_ITERS: usize = 300;

/// The paper's seed, used for the served agent.
const PAPER_SEED: u64 = 2022;

/// Offline iterations of the agent the serving workloads pre-train: the
/// `deepcat-tune train` default. Shorter training leaves critics that
/// rarely clear Twin-Q's threshold, so nearly every step would run the
/// 64-round cap instead of the paper's behaviour (about 48 rounds per step
/// at seed 2022).
const SERVE_TRAIN_ITERS: usize = 1500;

/// The training and serving target of the DeepCAT workloads (Table 1).
const TERASORT_D1: Pair = Pair {
    kind: WorkloadKind::TeraSort,
    input: InputSize::D1,
};

pub(crate) fn build(opts: &Options) -> Result<Box<dyn Bench>, String> {
    Ok(match opts.workload {
        Workload::OfflineTrain => Box::new(OfflineTrain::new(opts)),
        Workload::OnlineRequest => Box::new(OnlineRequest::new(opts)),
        Workload::ServiceDurable => Box::new(ServiceDurable::new(opts)?),
        Workload::PaperCompare => Box::new(PaperCompare::new(opts)),
    })
}

fn agent_config(env: &TuningEnv) -> AgentConfig {
    AgentConfig::for_dims(env.state_dim(), env.action_dim())
}

/// Live cluster for input `seed`: Cluster A under 5–30% background load.
fn live_cluster(seed: u64) -> Cluster {
    Cluster::cluster_a().with_background_load(0.05 + 0.25 * unit(seed))
}

/// Offline-train the served DeepCAT agent on TeraSort-D1 (the serving
/// workloads' set-up). The agent is a fixed artifact, trained at the
/// paper's seed like a deployed model; the workload seed drives only the
/// request stream. A diverged agent aborts the run.
fn pretrain() -> Result<Td3Agent, String> {
    let mut env = TuningEnv::for_workload(Cluster::cluster_a(), TERASORT_D1, PAPER_SEED);
    let cfg = agent_config(&env);
    let off = OfflineConfig::deepcat(SERVE_TRAIN_ITERS, PAPER_SEED);
    let (agent, _, _) = train_td3(&mut env, cfg, &off, &[]);
    if agent.diverged() {
        return Err("set-up training diverged".to_string());
    }
    Ok(agent)
}

fn finite_steps(steps: &[StepRecord]) -> bool {
    steps.iter().all(|s| {
        s.exec_time_s.is_finite()
            && s.reward.is_finite()
            && s.recommendation_s.is_finite()
            && s.q_estimate.is_none_or(f64::is_finite)
            && s.action.iter().all(|a| a.is_finite())
    })
}

/// Fold a finished tuning report into `op`, checking it has `steps`
/// finite step records.
fn add_report(op: &mut Op, report: &TuningReport, steps: usize, what: &str) {
    op.checked += 1;
    if report.steps.len() != steps || !finite_steps(&report.steps) {
        op.failures.push(format!(
            "{what}: {} step records (expected {steps}), finite: {}",
            report.steps.len(),
            finite_steps(&report.steps)
        ));
    }
    op.eval_s += report.total_eval_s;
    op.rec_s += report.total_rec_s;
    op.speedups.push(report.speedup());
    op.twinq_rounds += report
        .steps
        .iter()
        .map(|s| s.twinq_iterations)
        .sum::<usize>();
    op.tuning_steps += report.steps.len();
}

/// Benchmark-side figures for the serving path (online and service).
fn serving_layers(agent: &Td3Agent, seed: u64, calls: usize, out: &mut Layers) {
    let nn = layers::critic_nn(&agent.cfg, derive(seed, 8, 0));
    out.insert("nn.critic_infer_row_s", (nn.infer_row_s, 1));
    // Online fine-tuning samples min(replay, batch) ≤ 5 transitions.
    let fine_tune = layers::td3_train_step(agent, 5, derive(seed, 8, 1));
    out.insert("td3.train_step_s", (fine_tune, 1));
    let mut envs: Vec<TuningEnv> = (0..calls as u64)
        .map(|i| {
            let s = derive(seed, 2, i);
            TuningEnv::for_workload(live_cluster(s), TERASORT_D1, s)
        })
        .collect();
    let tq = layers::twinq(agent, &mut envs, derive(seed, 8, 2));
    out.insert("twinq.optimize_s", (tq.optimize_s, tq.calls));
    out.insert("twinq.accept_ratio", (tq.accept_ratio, tq.calls));
    let sim = layers::sim_evaluate(&live_cluster(seed), TERASORT_D1, derive(seed, 8, 3));
    out.insert("sim.evaluate_s", (sim, 1));
}

// ---------------------------------------------------------------------------
// offline-train
// ---------------------------------------------------------------------------

/// `train_td3` with `OfflineConfig::deepcat` on TeraSort-D1, repeated
/// with fresh seeds. The seed-fixed figures come from the evaluations the
/// log records (every `log_every`-th iteration).
struct OfflineTrain {
    seed: u64,
    iterations: usize,
    smoke: bool,
}

impl OfflineTrain {
    fn new(opts: &Options) -> Self {
        Self {
            seed: opts.seed,
            iterations: if opts.smoke { WARMUP_ITERS } else { 800 },
            smoke: opts.smoke,
        }
    }

    fn env(&self, index: usize) -> TuningEnv {
        TuningEnv::for_workload(
            Cluster::cluster_a(),
            TERASORT_D1,
            derive(self.seed, 0, index as u64),
        )
    }

    fn config(&self, index: usize) -> OfflineConfig {
        OfflineConfig::deepcat(self.iterations, derive(self.seed, 1, index as u64))
    }
}

impl Bench for OfflineTrain {
    fn unit(&self) -> &'static str {
        "iterations"
    }

    /// A short warm-up training run (environment, agent, RDPER buffers
    /// and a few learning steps), so allocator growth and cold caches are
    /// paid before the clock starts.
    fn setup(&mut self) -> Result<(), String> {
        let mut env = self.env(0);
        let cfg = agent_config(&env);
        let off = OfflineConfig::deepcat(WARMUP_ITERS, derive(self.seed, 1, 0));
        let (agent, _, _) = train_td3(&mut env, cfg, &off, &[]);
        if agent.diverged() {
            return Err("warm-up training diverged".to_string());
        }
        Ok(())
    }

    fn pass_len(&self, traced: bool) -> usize {
        match (self.smoke, traced) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => 6,
        }
    }

    fn prepare(&mut self, index: usize) -> Result<Job, String> {
        let mut env = self.env(index);
        let cfg = agent_config(&env);
        let off = self.config(index);
        let iterations = self.iterations;
        let records = iterations.div_ceil(off.log_every);
        Ok(Box::new(move || {
            let t0 = Instant::now();
            let (agent, log, _) = train_td3(&mut env, cfg, &off, &[]);
            let wall_s = t0.elapsed().as_secs_f64();
            let finite = log
                .records
                .iter()
                .all(|r| r.reward.is_finite() && r.min_q.is_finite() && r.exec_time_s.is_finite());
            let mut op = Op {
                wall_s,
                units: iterations as f64,
                threads: 1,
                checked: 1,
                ..Op::default()
            };
            if agent.diverged() || !finite || log.records.len() != records {
                op.failures.push(format!(
                    "training run {index}: diverged {}, finite log {finite}, {} log records",
                    agent.diverged(),
                    log.records.len()
                ));
            }
            op.eval_s = log.records.iter().map(|r| r.exec_time_s).sum();
            let best = log
                .records
                .iter()
                .map(|r| r.exec_time_s)
                .fold(f64::INFINITY, f64::min);
            op.speedups.push(env.default_exec_time() / best);
            Ok(op)
        }))
    }

    fn layers(&mut self, _ops: &[Op], out: &mut Layers) -> Result<(), String> {
        let env = self.env(0);
        let cfg = agent_config(&env);
        let seed = self.seed;
        let nn = layers::critic_nn(&cfg, derive(seed, 8, 0));
        out.insert("nn.critic_fwd_bwd_b64_s", (nn.fwd_bwd_b64_s, 1));
        out.insert("nn.critic_gmac_per_s", (nn.gmac_per_s, 1));
        out.insert("nn.critic_infer_row_s", (nn.infer_row_s, 1));
        let rd = layers::rdper(&cfg, &self.config(0), self.iterations, derive(seed, 8, 4));
        out.insert("replay.rdper_sample_b64_s", (rd.rdper_sample_b64_s, 1));
        out.insert("replay.rdper_push_s", (rd.rdper_push_s, 1));
        out.insert(
            "replay.rdper_update_priorities_s",
            (rd.rdper_update_priorities_s, 1),
        );
        let agent = Td3Agent::new(cfg.clone(), derive(seed, 8, 5));
        let step = layers::td3_train_step(&agent, cfg.batch_size, derive(seed, 8, 1));
        out.insert("td3.train_step_s", (step, 1));
        let sim = layers::sim_evaluate(&Cluster::cluster_a(), TERASORT_D1, derive(seed, 8, 3));
        out.insert("sim.evaluate_s", (sim, 1));
        Ok(())
    }

    fn aliases(&self) -> &'static [(&'static str, &'static str)] {
        &[("offline_iters_per_s", "throughput_per_s")]
    }
}

// ---------------------------------------------------------------------------
// online-request
// ---------------------------------------------------------------------------

/// Closed loop, one client: a pre-trained agent serves 5-step
/// `online_tune_td3` requests (`OnlineConfig::deepcat`: Twin-Q on, 4
/// fine-tune steps), each from a fresh copy of the agent against a fresh
/// live environment with its own seed and background load.
struct OnlineRequest {
    seed: u64,
    smoke: bool,
    agent: Option<Td3Agent>,
}

impl OnlineRequest {
    fn new(opts: &Options) -> Self {
        Self {
            seed: opts.seed,
            smoke: opts.smoke,
            agent: None,
        }
    }

    /// Request `index`: its inputs now, the timed call when invoked.
    fn request(&self, index: usize) -> Result<impl FnOnce() -> (TuningReport, f64), String> {
        let mut agent = self
            .agent
            .clone()
            .ok_or("online-request: set-up did not run")?;
        let s = derive(self.seed, 2, index as u64);
        let mut env = TuningEnv::for_workload(live_cluster(s), TERASORT_D1, s);
        let cfg = OnlineConfig::deepcat(derive(self.seed, 3, index as u64));
        Ok(move || {
            let t0 = Instant::now();
            let report = online_tune_td3(&mut agent, &mut env, &cfg, "DeepCAT");
            (report, t0.elapsed().as_secs_f64())
        })
    }
}

impl Bench for OnlineRequest {
    fn unit(&self) -> &'static str {
        "requests"
    }

    fn setup(&mut self) -> Result<(), String> {
        self.agent = Some(pretrain()?);
        Ok(())
    }

    /// Three: each set-up trains the served agent (several seconds).
    fn setup_reps(&self) -> usize {
        3
    }

    fn pass_len(&self, traced: bool) -> usize {
        match (self.smoke, traced) {
            (true, _) => 6,
            (false, true) => 100,
            (false, false) => 500,
        }
    }

    fn prepare(&mut self, index: usize) -> Result<Job, String> {
        let request = self.request(index)?;
        Ok(Box::new(move || {
            let (report, wall_s) = request();
            let mut op = Op {
                wall_s,
                units: 1.0,
                threads: 1,
                ..Op::default()
            };
            add_report(&mut op, &report, 5, &format!("request {index}"));
            Ok(op)
        }))
    }

    fn layers(&mut self, _ops: &[Op], out: &mut Layers) -> Result<(), String> {
        let agent = self
            .agent
            .clone()
            .ok_or("online-request: set-up did not run")?;
        serving_layers(&agent, self.seed, if self.smoke { 4 } else { 64 }, out);
        Ok(())
    }

    fn aliases(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("request_p50_s", "latency_p50_s"),
            ("request_p99_s", "latency_p99_s"),
            (
                "eval_charged_s_per_request",
                "tuning.eval_charged_s_per_unit",
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// service-durable
// ---------------------------------------------------------------------------

/// A `TuningService` fleet (more sessions than workers) whose sessions
/// start from a clone of the pre-trained agent with Twin-Q on and commit
/// every step to a fsynced commitlog on the checkout's disk.
struct ServiceDurable {
    seed: u64,
    smoke: bool,
    sessions: usize,
    steps: usize,
    workers: usize,
    agent: Option<Td3Agent>,
    root: PathBuf,
}

/// Where the fleets' commitlogs live, relative to the working directory.
const DATA_DIR: &str = ".perfbench-data";

impl ServiceDurable {
    fn new(opts: &Options) -> Result<Self, String> {
        let root = PathBuf::from(DATA_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        Ok(Self {
            seed: opts.seed,
            smoke: opts.smoke,
            sessions: if opts.smoke { 3 } else { 16 },
            steps: if opts.smoke { 3 } else { 20 },
            workers,
            agent: None,
            root,
        })
    }

    /// One fleet on `RealStorage` behind [`TimedStorage`] (`durable`) or
    /// on `MemStorage`.
    fn fleet(&self, index: usize, durable: bool) -> Result<Job, String> {
        let agent = self
            .agent
            .as_ref()
            .ok_or("service-durable: set-up did not run")?;
        let dir = self.root.join(format!("fleet-{index}"));
        let n = self.sessions;
        let mut logs: Vec<IoLog> = Vec::with_capacity(n);
        let mut specs = Vec::with_capacity(n);
        for s in 0..n {
            let seed = derive(self.seed, 4, (index * n + s) as u64);
            let env = ResilientEnv::new(
                TuningEnv::for_workload(live_cluster(seed), TERASORT_D1, seed),
                ResiliencePolicy::default(),
            );
            let log = IoLog::default();
            let storage = if durable {
                shared_storage(TimedStorage::new(log.clone()))
            } else {
                shared_storage(MemStorage::new())
            };
            logs.push(log);
            specs.push(SessionSpec {
                name: format!("session-{s}"),
                agent: agent.clone(),
                env,
                cfg: OnlineConfig {
                    steps: self.steps,
                    ..OnlineConfig::deepcat(derive(seed, 3, 0))
                },
                session: ChaosSessionConfig {
                    checkpoint: Some(dir.join(format!("session-{s}"))),
                    storage: Some(storage),
                    ..ChaosSessionConfig::default()
                },
                tuner_name: "DeepCAT".to_string(),
            });
        }
        let (workers, steps) = (self.workers, self.steps);
        Ok(Box::new(move || {
            let op = run_fleet(index, specs, &logs, &dir, workers, steps, durable);
            std::fs::remove_dir_all(&dir).ok();
            op
        }))
    }
}

/// Admit and run one fleet, then check every session's result and (when
/// durable) its commitlog recovery.
fn run_fleet(
    index: usize,
    specs: Vec<SessionSpec>,
    logs: &[IoLog],
    dir: &Path,
    workers: usize,
    steps: usize,
    durable: bool,
) -> Result<Op, String> {
    let n = specs.len();
    let service = TuningService::new(ServiceConfig {
        workers,
        max_sessions: n,
        ..ServiceConfig::default()
    });
    let t0 = Instant::now();
    for spec in specs {
        service.admit(spec).map_err(|e| format!("admit: {e}"))?;
    }
    service.run();
    let wall_s = t0.elapsed().as_secs_f64();

    let mut op = Op {
        wall_s,
        threads: workers,
        ..Op::default()
    };
    let results = service.take_results();
    op.checked += 1;
    if results.len() != n {
        op.failures.push(format!(
            "fleet {index}: {} of {n} sessions reported",
            results.len()
        ));
    }
    for r in &results {
        op.units += r.completed_steps as f64;
        let what = format!("fleet {index} {}", r.name);
        match (&r.phase, &r.outcome) {
            (SessionPhase::Completed, Some(SessionOutcome::Completed(report))) => {
                add_report(&mut op, report, steps, &what);
            }
            (phase, _) => {
                op.checked += 1;
                op.failures.push(format!("{what} ended {phase:?}"));
            }
        }
    }
    if durable {
        for s in 0..n {
            let path = dir.join(format!("session-{s}"));
            let storage = shared_storage(RealStorage::new());
            let recovered = Commitlog::open(&path, storage, CommitlogPolicy::default());
            op.checked += 1;
            match recovered {
                Ok((log, Some(_))) if log.next_seq() == steps as u64 => {}
                Ok((log, state)) => op.failures.push(format!(
                    "fleet {index} session-{s}: recovered to seq {} (snapshot: {}), expected {}",
                    log.next_seq(),
                    state.is_some(),
                    steps
                )),
                Err(e) => op
                    .failures
                    .push(format!("fleet {index} session-{s}: recovery failed: {e}")),
            }
        }
        for log in logs {
            let calls = log.lock();
            op.latencies.extend(step_turnarounds(t0, &calls));
            op.io.extend(calls.iter().copied());
        }
    }
    Ok(op)
}

/// Time from one committed step to the session's next (the first from
/// fleet start): what a tenant waits per step, dispatch queueing
/// included. A step commits when the fsync after its append returns.
fn step_turnarounds(start: Instant, calls: &[CallRecord]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut last = start;
    let mut appended = false;
    for c in calls {
        match c.call {
            Call::Append => appended = true,
            Call::Fsync if appended => {
                out.push((c.end - last).as_secs_f64());
                last = c.end;
                appended = false;
            }
            _ => {}
        }
    }
    out
}

impl Drop for ServiceDurable {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
        // Succeeds only once no other run is using the directory.
        std::fs::remove_dir(DATA_DIR).ok();
    }
}

impl Bench for ServiceDurable {
    fn unit(&self) -> &'static str {
        "steps"
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn setup(&mut self) -> Result<(), String> {
        self.agent = Some(pretrain()?);
        Ok(())
    }

    /// Three: each set-up trains the served agent (several seconds).
    fn setup_reps(&self) -> usize {
        3
    }

    fn pass_len(&self, traced: bool) -> usize {
        match (self.smoke, traced) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => 3,
        }
    }

    fn prepare(&mut self, index: usize) -> Result<Job, String> {
        self.fleet(index, true)
    }

    fn layers(&mut self, ops: &[Op], out: &mut Layers) -> Result<(), String> {
        let agent = self
            .agent
            .clone()
            .ok_or("service-durable: set-up did not run")?;
        serving_layers(&agent, self.seed, if self.smoke { 4 } else { 32 }, out);

        let steps: f64 = ops.iter().map(|o| o.units).sum();
        let capacity: f64 = ops.iter().map(|o| o.wall_s * o.threads as f64).sum();
        let calls: Vec<&CallRecord> = ops.iter().flat_map(|o| o.io.iter()).collect();
        let durations = |kind: Call| -> Vec<f64> {
            calls
                .iter()
                .filter(|c| c.call == kind)
                .map(|c| c.dur_s)
                .collect()
        };
        let fsync = durations(Call::Fsync);
        out.insert("storage.fsync_p50_s", (quantile(&fsync, 0.5), fsync.len()));
        out.insert("storage.fsync_p99_s", (quantile(&fsync, 0.99), fsync.len()));
        for (name, kind) in [
            ("storage.append_p50_s", Call::Append),
            ("storage.write_all_p50_s", Call::WriteAll),
            ("storage.rename_p50_s", Call::Rename),
            ("storage.sync_dir_p50_s", Call::SyncDir),
        ] {
            let d = durations(kind);
            out.insert(name, (quantile(&d, 0.5), d.len()));
        }
        out.insert(
            "storage.fsyncs_per_step",
            (fsync.len() as f64 / steps, calls.len()),
        );
        let bytes: u64 = calls.iter().map(|c| c.bytes).sum();
        out.insert(
            "storage.bytes_per_step",
            (bytes as f64 / steps, calls.len()),
        );
        let busy: f64 = calls.iter().map(|c| c.dur_s).sum();
        out.insert("storage.busy_share", (busy / capacity, calls.len()));
        let gaps: Vec<f64> = ops
            .iter()
            .flat_map(|o| o.latencies.iter().copied())
            .collect();
        let max_gap = gaps.iter().copied().fold(0.0, f64::max);
        out.insert("service.max_dispatch_gap_ms", (1e3 * max_gap, gaps.len()));

        let mem = self.fleet(0, false)?()?;
        if !mem.failures.is_empty() {
            return Err(format!("MemStorage fleet failed: {:?}", mem.failures));
        }
        out.insert("service.steps_per_s_mem", (mem.units / mem.wall_s, 1));
        Ok(())
    }

    fn aliases(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("service_steps_per_s", "throughput_per_s"),
            ("step_turnaround_p50_s", "latency_p50_s"),
            ("step_turnaround_p99_s", "latency_p99_s"),
        ]
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "storage: RealStorage on {} ({} sessions x {} steps, {} workers)",
            iostat::filesystem_type(&self.root),
            self.sessions,
            self.steps,
            self.workers
        )]
    }
}

// ---------------------------------------------------------------------------
// paper-compare
// ---------------------------------------------------------------------------

/// `experiments::compare_on` (DeepCAT vs CDBTune vs OtterTune) on one D1
/// pair per paper `WorkloadKind`; an op is one pair.
struct PaperCompare {
    seed: u64,
    pairs: Vec<Pair>,
    cfg: ExperimentConfig,
}

impl PaperCompare {
    fn new(opts: &Options) -> Self {
        let mut pairs: Vec<Pair> = WorkloadKind::all()
            .into_iter()
            .map(|kind| Pair::new(kind, InputSize::D1))
            .collect();
        let mut cfg = ExperimentConfig::quick();
        if opts.smoke {
            pairs.truncate(1);
            cfg.offline_iterations = WARMUP_ITERS;
            cfg.repo_samples = 12;
        }
        Self {
            seed: opts.seed,
            pairs,
            cfg,
        }
    }
}

impl Bench for PaperCompare {
    fn unit(&self) -> &'static str {
        "pairs"
    }

    /// A warm-up comparison on the first pair at the smallest profile
    /// (offline training of both DRL agents, OtterTune's repository and
    /// GP, one online session each).
    fn setup(&mut self) -> Result<(), String> {
        let cfg = ExperimentConfig {
            offline_iterations: WARMUP_ITERS,
            repo_samples: 12,
            seed: derive(self.seed, 5, 0),
            ..self.cfg.clone()
        };
        let rows = compare_on(self.pairs[0], &Cluster::cluster_a(), &cfg);
        if rows.len() != 3 || rows.iter().any(|r| !r.speedup.is_finite()) {
            return Err(format!("warm-up comparison returned {rows:?}"));
        }
        Ok(())
    }

    fn pass_len(&self, _traced: bool) -> usize {
        self.pairs.len()
    }

    fn prepare(&mut self, index: usize) -> Result<Job, String> {
        let cfg = ExperimentConfig {
            seed: derive(self.seed, 6, index as u64),
            ..self.cfg.clone()
        };
        let pair = self.pairs[index];
        Ok(Box::new(move || Ok(compare_pair(pair, &cfg))))
    }

    fn layers(&mut self, _ops: &[Op], out: &mut Layers) -> Result<(), String> {
        let seed = self.seed;
        let first = self.pairs[0];
        let env = TuningEnv::for_workload(Cluster::cluster_a(), first, derive(seed, 5, 0));
        let cfg = agent_config(&env);
        let nn = layers::critic_nn(&cfg, derive(seed, 8, 0));
        out.insert("nn.critic_fwd_bwd_b64_s", (nn.fwd_bwd_b64_s, 1));
        out.insert("nn.critic_gmac_per_s", (nn.gmac_per_s, 1));
        out.insert("nn.critic_infer_row_s", (nn.infer_row_s, 1));
        let iters = self.cfg.offline_iterations;
        let off = OfflineConfig::deepcat(iters, seed);
        let rd = layers::rdper(&cfg, &off, iters, derive(seed, 8, 4));
        out.insert("replay.rdper_sample_b64_s", (rd.rdper_sample_b64_s, 1));
        out.insert("replay.rdper_push_s", (rd.rdper_push_s, 1));
        out.insert(
            "replay.rdper_update_priorities_s",
            (rd.rdper_update_priorities_s, 1),
        );
        let td = layers::tdper_sample_b64(&cfg, off.capacity, iters, derive(seed, 8, 6));
        out.insert("replay.tdper_sample_b64_s", (td, 1));
        let agent = Td3Agent::new(cfg.clone(), derive(seed, 8, 5));
        let step = layers::td3_train_step(&agent, cfg.batch_size, derive(seed, 8, 1));
        out.insert("td3.train_step_s", (step, 1));
        let sim = layers::sim_evaluate(&Cluster::cluster_a(), first, derive(seed, 8, 3));
        out.insert("sim.evaluate_s", (sim, 1));
        let ddpg = layers::ddpg_train_iters_per_s(&env, iters, derive(seed, 8, 7));
        out.insert("ddpg.train_iters_per_s", (ddpg, iters));
        let ot = layers::ottertune(
            &Cluster::cluster_a(),
            first,
            self.cfg.repo_samples,
            self.cfg.online_steps,
            derive(seed, 8, 9),
        );
        out.insert("ottertune.repository_s", (ot.repository_s, 1));
        out.insert("ottertune.tune_s", (ot.tune_s, 1));
        Ok(())
    }

    fn aliases(&self) -> &'static [(&'static str, &'static str)] {
        &[("compare_wall_s", "latency_p50_s")]
    }

    fn notes(&self) -> Vec<String> {
        let names: Vec<String> = self.pairs.iter().map(|w| w.to_string()).collect();
        vec![format!("pairs: {}", names.join(", "))]
    }
}

/// One timed `compare_on`, checked for three finite rows.
fn compare_pair(pair: Pair, cfg: &ExperimentConfig) -> Op {
    let t0 = Instant::now();
    let rows = compare_on(pair, &Cluster::cluster_a(), cfg);
    let mut op = Op {
        wall_s: t0.elapsed().as_secs_f64(),
        units: 1.0,
        threads: 1,
        checked: 1,
        ..Op::default()
    };
    let finite = rows.iter().all(|r| {
        [
            r.default_s,
            r.best_s,
            r.speedup,
            r.total_eval_s,
            r.total_rec_s,
        ]
        .iter()
        .all(|v| v.is_finite())
    });
    if rows.len() != 3 || !finite {
        op.failures
            .push(format!("{pair}: {} rows, finite {finite}", rows.len()));
    }
    op.eval_s = rows.iter().map(|r| r.total_eval_s).sum();
    op.rec_s = rows.iter().map(|r| r.total_rec_s).sum();
    op.speedups = rows
        .iter()
        .filter(|r| r.tuner == "DeepCAT")
        .map(|r| r.speedup)
        .collect();
    op
}
