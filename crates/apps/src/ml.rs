//! Serverless machine learning (§5.2).
//!
//! The paper's training story: "a dataset is partitioned into multiple
//! subsets and then each subset is used to train a given model in parallel
//! on independent serverless instances. Gradients computed by all the
//! instances are collected by a parameter server, which then updates the
//! network parameters." Iterative training is *stateful*, so the parameter
//! server here is a **Jiffy KV object** (the paper: "use of ephemeral
//! storage such as Jiffy can help drive further adoption of serverless for
//! model training").
//!
//! Straggler mitigation follows Gupta et al. [104] / Lee et al. [132]:
//! "in-built resiliency against stragglers … achieved based on
//! error-correcting codes to create redundant computation". We implement
//! the replication form of gradient coding: with redundancy `r`, worker
//! `i` computes shards `{i, i+1, …, i+r−1 (mod W)}`, and the driver needs
//! only the fastest subset of workers that covers all shards — experiment
//! E8 measures the epoch-time win under injected stragglers.
//!
//! Hyperparameter search (Zhang et al.'s Seneca): "concurrently invokes
//! functions for all combinations of the hyperparameters specified and
//! returns the configuration that results in the best score" —
//! [`hyperparameter_search`].

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::BufMut;
use taureau_core::hash::hash64;
use taureau_core::wire::Reader;
use taureau_faas::{FaasPlatform, FunctionSpec};
use taureau_jiffy::Jiffy;

/// A dense binary-classification dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Feature rows.
    pub(crate) x: Vec<Vec<f64>>,
    /// Labels in {0, 1}.
    pub(crate) y: Vec<f64>,
}

impl Dataset {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// Row range view (for sharding).
    pub(crate) fn slice(&self, range: std::ops::Range<usize>) -> Dataset {
        Dataset {
            x: self.x[range.clone()].to_vec(),
            y: self.y[range].to_vec(),
        }
    }
}

/// Generate a linearly-separable-ish logistic dataset; returns the data and
/// the true weight vector.
pub fn synthetic_logreg(n: usize, d: usize, seed: u64) -> (Dataset, Vec<f64>) {
    use rand::Rng;
    let mut rng = taureau_core::rng::det_rng(seed);
    let true_w: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let logit: f64 = row.iter().zip(&true_w).map(|(a, b)| a * b).sum();
        // Mostly-separable labels with 5% flip noise (Bayes ≈ 95%).
        let clean = logit > 0.0;
        let label = if rng.gen::<f64>() < 0.05 {
            !clean
        } else {
            clean
        };
        y.push(if label { 1.0 } else { 0.0 });
        x.push(row);
    }
    (Dataset { x, y }, true_w)
}

/// Logistic sigmoid.
pub(crate) fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Mean log-loss of weights on a dataset.
pub(crate) fn log_loss(w: &[f64], ds: &Dataset) -> f64 {
    let mut total = 0.0;
    for (row, &label) in ds.x.iter().zip(&ds.y) {
        let z: f64 = row.iter().zip(w).map(|(a, b)| a * b).sum();
        let p = sigmoid(z).clamp(1e-12, 1.0 - 1e-12);
        total -= label * p.ln() + (1.0 - label) * (1.0 - p).ln();
    }
    total / ds.len() as f64
}

/// Classification accuracy at threshold 0.5.
pub fn accuracy(w: &[f64], ds: &Dataset) -> f64 {
    let correct =
        ds.x.iter()
            .zip(&ds.y)
            .filter(|(row, &label)| {
                let z: f64 = row.iter().zip(w).map(|(a, b)| a * b).sum();
                (sigmoid(z) >= 0.5) == (label >= 0.5)
            })
            .count();
    correct as f64 / ds.len() as f64
}

/// Unnormalised gradient sum and example count over a shard.
fn gradient_sum(w: &[f64], ds: &Dataset) -> (Vec<f64>, usize) {
    let d = w.len();
    let mut g = vec![0.0; d];
    for (row, &label) in ds.x.iter().zip(&ds.y) {
        let z: f64 = row.iter().zip(w).map(|(a, b)| a * b).sum();
        let err = sigmoid(z) - label;
        for (gi, xi) in g.iter_mut().zip(row) {
            *gi += err * xi;
        }
    }
    (g, ds.len())
}

/// Full-batch gradient-descent reference trainer. Returns the weights and
/// the per-epoch loss history.
pub fn train_local(ds: &Dataset, lr: f64, epochs: u32) -> (Vec<f64>, Vec<f64>) {
    let d = ds.dim();
    let mut w = vec![0.0; d];
    let mut history = Vec::with_capacity(epochs as usize);
    for _ in 0..epochs {
        let (g, n) = gradient_sum(&w, ds);
        for (wi, gi) in w.iter_mut().zip(&g) {
            *wi -= lr * gi / n as f64;
        }
        history.push(log_loss(&w, ds));
    }
    (w, history)
}

/// Serverless training configuration.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Learning rate.
    pub lr: f64,
    /// Epochs (synchronous rounds).
    pub epochs: u32,
    /// Worker functions per epoch (= data shards).
    pub workers: usize,
    /// Probability a worker straggles in a given epoch.
    pub straggler_prob: f64,
    /// Multiplier on a straggler's compute time.
    pub straggler_slowdown: f64,
    /// Gradient-coding redundancy: each worker computes this many shards
    /// (1 = uncoded).
    pub redundancy: usize,
    /// Simulated compute per example.
    pub compute_per_example: Duration,
    /// Seed for straggler injection.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            lr: 0.5,
            epochs: 10,
            workers: 4,
            straggler_prob: 0.0,
            straggler_slowdown: 5.0,
            redundancy: 1,
            compute_per_example: Duration::from_micros(100),
            seed: 0x5EED,
        }
    }
}

/// Outcome of a serverless training job.
#[derive(Debug)]
pub struct TrainingOutcome {
    /// Final weights.
    pub weights: Vec<f64>,
    /// Per-epoch training loss.
    pub loss_history: Vec<f64>,
    /// Per-epoch simulated wall time: how long the driver waited for the
    /// subset of workers it needed (all of them when uncoded; the fastest
    /// covering subset when coded).
    pub(crate) epoch_times: Vec<Duration>,
    /// Total worker invocations.
    pub invocations: u64,
}

impl TrainingOutcome {
    /// Sum of epoch times — the job's simulated critical path.
    pub fn total_time(&self) -> Duration {
        self.epoch_times.iter().sum()
    }
}

fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    let mut r = Reader::new(bytes);
    std::iter::from_fn(|| r.u64().map(f64::from_bits)).collect()
}

fn encode_f64s(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    vals.iter().for_each(|v| out.put_u64_le(v.to_bits()));
    out
}

/// Train logistic regression with a Jiffy-backed parameter server and FaaS
/// gradient workers.
pub fn train_serverless(
    platform: &FaasPlatform,
    jiffy: &Jiffy,
    ds: Arc<Dataset>,
    cfg: &TrainingConfig,
    job: &str,
) -> TrainingOutcome {
    assert!(cfg.workers >= 1);
    assert!(cfg.redundancy >= 1 && cfg.redundancy <= cfg.workers);
    let d = ds.dim();
    let n = ds.len();
    let w_count = cfg.workers;
    let shard_size = n.div_ceil(w_count);

    // Parameter server: weights + per-shard gradients live in Jiffy.
    let params = jiffy
        .create_kv(format!("/{job}/params").as_str(), 1)
        .expect("param server");
    params
        .put(b"w", &encode_f64s(&vec![0.0; d]))
        .expect("seed weights");
    let grads = jiffy
        .create_kv(format!("/{job}/grads").as_str(), w_count.max(1))
        .expect("gradient store");

    // The gradient worker: payload "worker,epoch".
    let fn_name = format!("ml-worker-{job}");
    let ds_for_fn = Arc::clone(&ds);
    let jiffy_for_fn = jiffy.clone();
    let job_owned = job.to_string();
    let cfg_for_fn = cfg.clone();
    let _ = platform.deregister(&fn_name);
    platform
        .register(FunctionSpec::new(&fn_name, "ml", move |ctx| {
            let text = ctx.payload_str().ok_or("bad payload")?;
            let (worker, epoch) = text
                .split_once(',')
                .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<u32>().ok()?)))
                .ok_or("bad coords")?;
            let params = jiffy_for_fn
                .open_kv(format!("/{job_owned}/params").as_str())
                .map_err(|e| e.to_string())?;
            let w = params
                .get(b"w")
                .map_err(|e| e.to_string())?
                .map(|b| decode_f64s(&b))
                .ok_or("missing weights")?;
            let grads = jiffy_for_fn
                .open_kv(format!("/{job_owned}/grads").as_str())
                .map_err(|e| e.to_string())?;
            let mut examples = 0usize;
            // Replicated shards: worker i computes shards i..i+r-1 (mod W).
            for k in 0..cfg_for_fn.redundancy {
                let shard = (worker + k) % cfg_for_fn.workers;
                let lo = shard * shard_size;
                let hi = ((shard + 1) * shard_size).min(ds_for_fn.len());
                if lo >= hi {
                    continue;
                }
                let sub = ds_for_fn.slice(lo..hi);
                let (g, cnt) = gradient_sum(&w, &sub);
                examples += cnt;
                grads
                    .put(format!("e{epoch}-s{shard}").as_bytes(), &encode_f64s(&g))
                    .map_err(|e| e.to_string())?;
            }
            // Simulated compute time, with straggler injection.
            let mut work = cfg_for_fn.compute_per_example * examples as u32;
            let coin = hash64(cfg_for_fn.seed, format!("{worker}:{epoch}").as_bytes());
            if (coin as f64 / u64::MAX as f64) < cfg_for_fn.straggler_prob {
                work = Duration::from_secs_f64(work.as_secs_f64() * cfg_for_fn.straggler_slowdown);
            }
            ctx.burn(work);
            Ok(Vec::new())
        }))
        .expect("register ml worker");

    let mut loss_history = Vec::with_capacity(cfg.epochs as usize);
    let mut epoch_times = Vec::with_capacity(cfg.epochs as usize);
    let mut invocations = 0u64;
    // Shards each worker covers, for the covering-subset computation.
    let coverage: Vec<Vec<usize>> = (0..w_count)
        .map(|wk| (0..cfg.redundancy).map(|k| (wk + k) % w_count).collect())
        .collect();

    for epoch in 0..cfg.epochs {
        // Launch all workers; record each one's simulated duration.
        let mut durations: Vec<(Duration, usize)> = Vec::with_capacity(w_count);
        for wk in 0..w_count {
            let r = platform
                .invoke(&fn_name, format!("{wk},{epoch}").into_bytes())
                .expect("worker invocation");
            invocations += 1;
            durations.push((r.exec_duration, wk));
        }
        // The driver needs the fastest subset of workers covering all
        // shards; with redundancy 1 that is everyone.
        durations.sort();
        let mut covered: HashSet<usize> = HashSet::new();
        let mut wait = Duration::ZERO;
        for &(dur, wk) in &durations {
            for &s in &coverage[wk] {
                covered.insert(s);
            }
            wait = dur;
            if covered.len() == w_count {
                break;
            }
        }
        epoch_times.push(wait);

        // Parameter-server update from the per-shard gradients.
        let w = params
            .get(b"w")
            .expect("weights read")
            .map(|b| decode_f64s(&b))
            .expect("weights present");
        let mut total = vec![0.0; d];
        for shard in 0..w_count {
            let g = grads
                .get(format!("e{epoch}-s{shard}").as_bytes())
                .expect("grad read")
                .map(|b| decode_f64s(&b))
                .expect("shard gradient present");
            for (t, gi) in total.iter_mut().zip(&g) {
                *t += gi;
            }
        }
        let new_w: Vec<f64> = w
            .iter()
            .zip(&total)
            .map(|(wi, gi)| wi - cfg.lr * gi / n as f64)
            .collect();
        params
            .put(b"w", &encode_f64s(&new_w))
            .expect("weights write");
        loss_history.push(log_loss(&new_w, &ds));
    }

    let weights = params
        .get(b"w")
        .expect("final weights")
        .map(|b| decode_f64s(&b))
        .expect("weights present");
    let _ = platform.deregister(&fn_name);
    let _ = jiffy.remove_namespace(format!("/{job}").as_str());
    TrainingOutcome {
        weights,
        loss_history,
        epoch_times,
        invocations,
    }
}

/// Grid hyperparameter search à la Seneca: one serverless training job per
/// candidate learning rate, best final loss wins. Returns the winner and
/// the full (lr, loss) table.
pub fn hyperparameter_search(
    platform: &FaasPlatform,
    jiffy: &Jiffy,
    ds: Arc<Dataset>,
    lrs: &[f64],
    epochs: u32,
) -> (f64, Vec<(f64, f64)>) {
    assert!(!lrs.is_empty());
    let mut table = Vec::with_capacity(lrs.len());
    for (i, &lr) in lrs.iter().enumerate() {
        let cfg = TrainingConfig {
            lr,
            epochs,
            ..TrainingConfig::default()
        };
        let out = train_serverless(platform, jiffy, Arc::clone(&ds), &cfg, &format!("hpo-{i}"));
        table.push((lr, *out.loss_history.last().expect("at least one epoch")));
    }
    let best = table
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
        .expect("non-empty")
        .0;
    (best, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taureau_core::clock::VirtualClock;
    use taureau_faas::PlatformConfig;
    use taureau_jiffy::JiffyConfig;

    fn setup() -> (FaasPlatform, Jiffy) {
        let clock = VirtualClock::shared();
        (
            FaasPlatform::new(PlatformConfig::deterministic(), clock.clone()),
            Jiffy::new(JiffyConfig::default(), clock),
        )
    }

    #[test]
    fn local_training_reduces_loss_and_classifies() {
        let (ds, _) = synthetic_logreg(500, 5, 1);
        let (w, history) = train_local(&ds, 0.5, 50);
        assert!(history.last().unwrap() < &history[0], "{history:?}");
        assert!(accuracy(&w, &ds) > 0.8, "accuracy {}", accuracy(&w, &ds));
    }

    #[test]
    fn serverless_matches_local_full_batch_exactly() {
        let (platform, jiffy) = setup();
        let (ds, _) = synthetic_logreg(200, 4, 2);
        let ds = Arc::new(ds);
        let cfg = TrainingConfig {
            lr: 0.3,
            epochs: 8,
            workers: 4,
            ..TrainingConfig::default()
        };
        let out = train_serverless(&platform, &jiffy, Arc::clone(&ds), &cfg, "match-test");
        let (w_local, hist_local) = train_local(&ds, 0.3, 8);
        for (a, b) in out.weights.iter().zip(&w_local) {
            assert!((a - b).abs() < 1e-12, "weights diverge: {a} vs {b}");
        }
        for (a, b) in out.loss_history.iter().zip(&hist_local) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(out.invocations, 4 * 8);
    }

    #[test]
    fn stragglers_inflate_uncoded_epoch_times() {
        let (platform, jiffy) = setup();
        let (ds, _) = synthetic_logreg(400, 4, 3);
        let ds = Arc::new(ds);
        let base = TrainingConfig {
            epochs: 10,
            workers: 8,
            compute_per_example: Duration::from_micros(200),
            ..TrainingConfig::default()
        };
        let clean = train_serverless(
            &platform,
            &jiffy,
            Arc::clone(&ds),
            &TrainingConfig {
                straggler_prob: 0.0,
                ..base.clone()
            },
            "clean",
        );
        let straggly = train_serverless(
            &platform,
            &jiffy,
            Arc::clone(&ds),
            &TrainingConfig {
                straggler_prob: 0.3,
                ..base
            },
            "straggly",
        );
        assert!(
            straggly.total_time() > clean.total_time(),
            "stragglers {:?} vs clean {:?}",
            straggly.total_time(),
            clean.total_time()
        );
    }

    #[test]
    fn coding_mitigates_stragglers() {
        let (platform, jiffy) = setup();
        let (ds, _) = synthetic_logreg(400, 4, 4);
        let ds = Arc::new(ds);
        let base = TrainingConfig {
            epochs: 10,
            workers: 8,
            straggler_prob: 0.25,
            straggler_slowdown: 10.0,
            compute_per_example: Duration::from_micros(200),
            ..TrainingConfig::default()
        };
        let uncoded = train_serverless(
            &platform,
            &jiffy,
            Arc::clone(&ds),
            &TrainingConfig {
                redundancy: 1,
                ..base.clone()
            },
            "uncoded",
        );
        let coded = train_serverless(
            &platform,
            &jiffy,
            Arc::clone(&ds),
            &TrainingConfig {
                redundancy: 3,
                ..base
            },
            "coded",
        );
        // Same model (full-batch semantics are unchanged by coding)…
        for (a, b) in uncoded.weights.iter().zip(&coded.weights) {
            assert!((a - b).abs() < 1e-12);
        }
        // …but the coded job waits far less for stragglers.
        assert!(
            coded.total_time() < uncoded.total_time(),
            "coded {:?} vs uncoded {:?}",
            coded.total_time(),
            uncoded.total_time()
        );
    }

    #[test]
    fn hyperparameter_search_prefers_reasonable_lr() {
        let (platform, jiffy) = setup();
        let (ds, _) = synthetic_logreg(300, 4, 5);
        let ds = Arc::new(ds);
        let (best, table) = hyperparameter_search(&platform, &jiffy, ds, &[0.001, 0.1, 1.0], 15);
        assert_eq!(table.len(), 3);
        // The degenerate tiny step should not win.
        assert!(best > 0.001, "best lr {best}");
        // Table losses correspond to their lrs.
        let tiny = table.iter().find(|(lr, _)| *lr == 0.001).unwrap().1;
        let best_loss = table.iter().find(|(lr, _)| *lr == best).unwrap().1;
        assert!(best_loss < tiny);
    }

    #[test]
    fn training_cleans_up_ephemeral_state() {
        let (platform, jiffy) = setup();
        let (ds, _) = synthetic_logreg(100, 3, 6);
        let cfg = TrainingConfig {
            epochs: 2,
            ..TrainingConfig::default()
        };
        train_serverless(&platform, &jiffy, Arc::new(ds), &cfg, "cleanup");
        assert!(!jiffy.exists("/cleanup"));
    }
}
