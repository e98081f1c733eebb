//! Host-speed calibration. On a shared VM the host's speed flips between
//! levels every few seconds and drifts by tens of percent over minutes, so
//! raw seconds from two runs minutes apart are not comparable. A fixed
//! probe kernel, owned by the benchmark (no change to the program can
//! speed it up), runs between operations for a tenth of the previous
//! operation's time, on as many threads as the operations keep busy. An
//! operation's times are scaled by the probe's nominal time over its mean
//! time on either side, raised to [`ALPHA`], giving *reference-host
//! seconds*: what the operation would take on a host where the probe takes
//! [`NOMINAL_S`].

use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host. The 2-vCPU VM the benchmark was
/// sized on read 0.25–0.5 ms.
pub const NOMINAL_S: f64 = 0.35e-3;

/// Exponent of the probe ratio. The probe swings further than the
/// workloads between the host's speed levels, so full scaling (1)
/// over-corrects. Over six seeds per workload on the reference host, the
/// spread (interquartile range ÷ median) of a run's summed op times read,
/// raw / scaled with exponent 0.5 / 0.75 / 1: offline-train
/// 0.21/0.11/0.06/0.13, online-request 0.21/0.07/0.02/0.10, paper-compare
/// 0.17/0.06/0.05/0.09. A service fleet keeps two workers busy, and its
/// time follows a two-thread probe (correlation 0.45) better than a
/// one-thread probe; over five seeds the spread read 0.05 raw, 0.06
/// scaled by a two-thread probe and 0.13 by a one-thread probe (0.75).
pub const ALPHA: f64 = 0.75;

/// Share of the previous operation's time the probe after it runs for,
/// within [`MIN_PROBE_S`, `MAX_PROBE_S`].
const PROBE_SHARE: f64 = 0.1;
const MIN_PROBE_S: f64 = 1e-3;
const MAX_PROBE_S: f64 = 0.2;

/// Order of the kernel's dense matrix product: 3 × 64 × 64 f64 is the
/// working set of a [64,64] critic layer.
const N: usize = 64;

/// Mean time of one kernel (an N × N matrix product) over `duration_s`
/// (at least one kernel).
pub fn probe(duration_s: f64) -> f64 {
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.125).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.25).collect();
    let mut c = vec![0.0; N * N];
    let t0 = Instant::now();
    let mut kernels = 0;
    while kernels == 0 || t0.elapsed().as_secs_f64() < duration_s {
        let (a, b) = (black_box(&a), black_box(&b));
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        black_box(&mut c);
        kernels += 1;
    }
    t0.elapsed().as_secs_f64() / kernels as f64
}

/// Mean kernel time over `duration_s` on each of `threads` threads running
/// at once: the host's speed with that many CPUs busy, which on a shared
/// VM can differ from its speed with one.
fn probe_on(threads: usize, duration_s: f64) -> f64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads)
            .map(|_| scope.spawn(move || probe(duration_s)))
            .collect();
        let mine = probe(duration_s);
        let theirs: f64 = others.into_iter().map(|h| h.join().unwrap_or(mine)).sum();
        (mine + theirs) / threads.max(1) as f64
    })
}

/// Running calibration: [`HostSpeed::mark`] closes the interval since the
/// previous mark.
pub struct HostSpeed {
    /// Threads each probe runs on: as many as the timed code keeps busy.
    threads: usize,
    last: f64,
    /// Every probe taken (mean kernel seconds), for the report.
    pub probes: Vec<f64>,
}

impl HostSpeed {
    pub fn start() -> Self {
        let last = probe(MAX_PROBE_S);
        Self {
            threads: 1,
            last,
            probes: vec![last],
        }
    }

    /// Probe on `threads` threads from now on, for code that keeps that
    /// many busy; takes a fresh probe for the next interval to start from.
    pub fn occupy(&mut self, threads: usize) {
        if threads != self.threads {
            self.threads = threads;
            self.last = probe_on(threads, MAX_PROBE_S);
            self.probes.push(self.last);
        }
    }

    /// Scale factor to reference-host seconds for an interval of `raw_s`
    /// seconds since the previous mark, from the probes on either side.
    pub fn mark(&mut self, raw_s: f64) -> f64 {
        let duration_s = (PROBE_SHARE * raw_s).clamp(MIN_PROBE_S, MAX_PROBE_S);
        let now = probe_on(self.threads, duration_s);
        self.probes.push(now);
        let factor = (NOMINAL_S / (0.5 * (self.last + now))).powf(ALPHA);
        self.last = now;
        factor
    }
}
