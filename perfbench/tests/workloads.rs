//! Every workload at its smallest size: metric catalogs, correctness
//! checks, and seed determinism of the deterministic figures.

use deepcat_perfbench::{per_layer, run, Options, Outcome, Workload, END_TO_END};
use std::sync::Mutex;

/// Traced runs install the process-wide telemetry sink, so runs in this
/// binary must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    let outcome = run(&opts).unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name()));
    assert!(
        outcome.correct && outcome.failed == 0 && outcome.attempted > 0,
        "{} trace={trace} failed its checks:\n{}",
        workload.name(),
        outcome.report.join("\n")
    );
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metric(name)
        .unwrap_or_else(|| panic!("missing metric {name}"))
        .value
}

/// Per-layer metrics each workload must measure (non-zero): the layers
/// it exercises.
fn exercised(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::OfflineTrain => &[
            "nn.critic_fwd_bwd_b64_s",
            "nn.critic_gmac_per_s",
            "replay.rdper_sample_b64_s",
            "replay.rdper_push_s",
            "replay.rdper_update_priorities_s",
            "td3.train_step_s",
            "sim.evaluate_s",
            "td3.critic_update.self_s",
            "td3.actor_update.self_s",
            "replay.sample.self_s",
            "sim.engine_step.self_s",
            "offline.step.unattributed_s",
        ],
        Workload::OnlineRequest => &[
            "nn.critic_infer_row_s",
            "td3.train_step_s",
            "twinq.optimize_s",
            "twinq.rounds_per_step",
            "online.rec_share",
            "twinq.rescore.self_s",
            "online.step.unattributed_s",
            "sim.engine_step.self_s",
        ],
        Workload::ServiceDurable => &[
            "twinq.optimize_s",
            "twinq.rescore.self_s",
            "storage.fsync_p50_s",
            "storage.fsync_p99_s",
            "storage.append_p50_s",
            "storage.write_all_p50_s",
            "storage.rename_p50_s",
            "storage.sync_dir_p50_s",
            "storage.fsyncs_per_step",
            "storage.bytes_per_step",
            "storage.busy_share",
            "service.max_dispatch_gap_ms",
            "service.steps_per_s_mem",
        ],
        Workload::PaperCompare => &[
            "replay.tdper_sample_b64_s",
            "ddpg.train_iters_per_s",
            "ottertune.repository_s",
            "ottertune.tune_s",
            "sim.engine_step.self_s",
            "twinq.rescore.self_s",
        ],
    }
}

/// Layers a workload must leave idle (reported as exactly 0).
fn idle(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::OfflineTrain => &["twinq.optimize_s", "storage.fsync_p50_s"],
        Workload::OnlineRequest | Workload::PaperCompare => {
            &["storage.fsync_p50_s", "service.steps_per_s_mem"]
        }
        Workload::ServiceDurable => &["replay.rdper_sample_b64_s", "ddpg.train_iters_per_s"],
    }
}

#[test]
fn every_workload_reports_the_end_to_end_catalog() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, 3, false);
        let got: Vec<(&str, &str)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(got, END_TO_END.to_vec(), "{}", workload.name());
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0 && m.samples > 0,
                "{} {}: {} (n={})",
                workload.name(),
                m.name,
                m.value,
                m.samples
            );
        }
    }
}

#[test]
fn every_workload_reports_the_per_layer_catalog() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, 3, true);
        let got: Vec<(String, &str)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect();
        assert_eq!(got, per_layer(), "{}", workload.name());
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        for name in exercised(workload) {
            let v = value(&outcome, name);
            assert!(v > 0.0, "{}: {name} = {v}", workload.name());
        }
        for name in idle(workload) {
            assert_eq!(value(&outcome, name), 0.0, "{}: {name}", workload.name());
        }
        let shares: f64 = [
            "trace.leaf_share",
            "trace.unattributed_share",
            "trace.outside_share",
        ]
        .iter()
        .map(|n| value(&outcome, n))
        .sum();
        assert!(
            (0.9..=1.1).contains(&shares),
            "{}: attribution shares sum to {shares}",
            workload.name()
        );
    }
}

#[test]
fn seed_determines_the_deterministic_figures() {
    let figures = |seed| {
        let traced = smoke(Workload::OnlineRequest, seed, true);
        [
            value(&traced, "tuning.eval_charged_s_per_unit"),
            value(&traced, "tuning.best_speedup"),
            value(&traced, "twinq.rounds_per_step"),
        ]
    };
    let a = figures(5);
    let b = figures(5);
    let c = figures(6);
    for i in 0..3 {
        assert_eq!(a[i].to_bits(), b[i].to_bits(), "figure {i}: {a:?} vs {b:?}");
        assert_ne!(
            a[i], c[i],
            "figure {i} did not change with the seed: {a:?} vs {c:?}"
        );
    }
}

#[test]
fn benchmark_json_lists_the_catalogs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut expected: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": ", w.name()))
        .collect();
    let catalog = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(per_layer());
    expected.extend(catalog.map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", ")));
    for entry in &expected {
        assert!(
            text.contains(entry.as_str()),
            "BENCHMARK.json lacks {entry}"
        );
    }
    assert_eq!(text.matches("\"name\": ").count(), expected.len());
}
