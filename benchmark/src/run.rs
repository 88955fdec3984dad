//! The two passes over one workload: untraced (end-to-end metrics) and
//! traced (per-layer metrics).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spans::{chrome_json, layer_self_ns, name_shares_under, Recorder, Span};
use crate::stats::{fastest, median, Summary};
use crate::workloads::{make, Metrics, Rep, WorkItem, Workload};

/// Set-up is run this many times per process and its median reported, so
/// one slow page-fault burst does not decide `setup_s`.
const SETUP_ROUNDS: usize = 3;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Share of `--seconds` the traced pass spends on repetition pairs; the
/// rest is left for the direct-drive probes.
const TRACED_REP_SHARE: f64 = 0.5;

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// No unit failed, every repetition reproduced the warm-up's results,
    /// and every set-up round produced the same pool images.
    pub correct: bool,
    /// Units attempted / failed over all repetitions, warm-ups included.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// First lines of the failures seen.
    pub failures: Vec<String>,
    /// The metrics the last stdout line carries.
    pub metrics: Metrics,
    /// FNV-64 over steps, simulated clocks, counters and pool images.
    pub sim_fingerprint: u64,
    /// Host seconds per repetition (untraced repetitions).
    pub wall: Option<Summary>,
    /// Host seconds per set-up round.
    pub setup: Option<Summary>,
    /// The repetition times behind `wall`, in order, seconds.
    pub wall_samples: Vec<f64>,
    /// What one work item is.
    pub work_item: WorkItem,
    /// The warm-up repetition's deterministic metrics and shape checks.
    pub sim: Metrics,
    /// Paper-shape checks of the warm-up repetition.
    pub shape: Vec<(String, bool)>,
    /// Fullest append log and fullest pool over the warm-up's runs, as
    /// shares of capacity (the fill guard fails a unit above 0.75).
    pub fill: (f64, f64),
    /// Layer → share of a traced repetition's wall (median over repetitions).
    pub layers: BTreeMap<String, f64>,
    /// Span name → share of the crash states that `crash_oracle`'s probes
    /// re-enacted call by call (empty on the other workloads).
    pub probe_layers: BTreeMap<String, f64>,
}

impl Outcome {
    fn note(&mut self, rep: &Rep, reference: Option<&Rep>) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        for f in &rep.failures {
            if self.failures.len() < 8 && !self.failures.contains(f) {
                self.failures.push(f.clone());
            }
        }
        if reference.is_some_and(|r| r.fingerprint != rep.fingerprint) {
            self.failures
                .push("a repetition did not reproduce the warm-up's simulated results".into());
            self.correct = false;
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One set-up: build the workload from the seed and run one untimed
/// warm-up repetition (which also hashes the pool images).
fn set_up(name: &str, seed: u64) -> (Box<dyn Workload>, Rep) {
    let w = make(name, seed).expect("workload name was validated");
    let warm = w.repetition(&mut Recorder::off(), true);
    (w, warm)
}

fn base_outcome(name: &str, seed: u64, traced: bool, w: &dyn Workload, warm: &Rep) -> Outcome {
    let mut out = Outcome {
        workload: name.into(),
        seed,
        traced,
        correct: true,
        sim_fingerprint: warm.sim_fingerprint,
        work_item: w.work_item(),
        sim: warm.sim.clone(),
        shape: warm.shape.clone(),
        fill: warm.points.iter().fold((0.0, 0.0), |(log, pool), up| {
            (up.point.log_fill.max(log), up.point.pool_fill.max(pool))
        }),
        ..Outcome::default()
    };
    out.note(warm, None);
    out
}

/// The untraced pass: set up [`SETUP_ROUNDS`] times, then repeat the
/// measured phase for `seconds` and report the end-to-end metrics.
pub fn untraced(name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut setup_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_ROUNDS {
        drop(state.take()); // never hold two workloads: peak RSS is a metric
        let t = Instant::now();
        let (w, warm) = set_up(name, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        fingerprints.push(warm.sim_fingerprint);
        state = Some((w, warm));
    }
    let (w, warm) = state.expect("at least one set-up round");
    let mut out = base_outcome(name, seed, false, w.as_ref(), &warm);
    if fingerprints.iter().any(|f| *f != warm.sim_fingerprint) {
        out.failures
            .push("set-up rounds produced different pool images".into());
        out.correct = false;
    }

    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let rep = w.repetition(&mut Recorder::off(), false);
        walls.push(t.elapsed().as_secs_f64());
        out.note(&rep, Some(&warm));
    }
    out.correct &= out.failed == 0;

    // The repetition is fixed deterministic work on one thread, so all of
    // its spread is the host's, and that noise is one-sided: a busy SMT
    // sibling or neighbour VM slows a second or a minute of repetitions by
    // 20-50 %, nothing speeds one up. Over ten runs of one commit the
    // fastest repetition spread 1.4-2.6 %, the first quartile 2.7-3.8 %,
    // the median 4.5-5.8 % (README.md, "Spread at HEAD"); the fastest is
    // what is reported, the rest of the summary goes to the report file.
    let wall = Summary::of(&walls);
    out.metrics.insert("wall_s".into(), wall.min);
    out.metrics.insert("setup_s".into(), median(&setup_s));
    out.metrics.insert("peak_rss_mib".into(), peak_rss_mib());
    out.metrics
        .insert("work_per_s".into(), warm.work as f64 / wall.min);
    out.wall = Some(wall);
    out.setup = Some(Summary::of(&setup_s));
    out.wall_samples = walls;
    out
}

/// The subtree of `root`, re-indexed so `root` is span 0.
fn subtree(spans: &[Span], root: usize) -> Vec<Span> {
    let mut new_index: Vec<Option<usize>> = vec![None; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate().skip(root) {
        let parent = if i == root {
            None
        } else {
            s.parent.and_then(|p| new_index[p])
        };
        if i == root || parent.is_some() {
            new_index[i] = Some(out.len());
            out.push(Span {
                parent,
                ..s.clone()
            });
        }
    }
    out
}

fn layer_shares(spans: &[Span]) -> BTreeMap<String, f64> {
    let total = spans[0].duration_ns().max(1) as f64;
    layer_self_ns(spans, 0)
        .into_iter()
        .map(|(layer, ns)| (layer.to_string(), ns as f64 / total))
        .collect()
}

fn median_by_key(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = maps.iter().flat_map(|m| m.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            (
                k.clone(),
                median(
                    &maps
                        .iter()
                        .filter_map(|m| m.get(k).copied())
                        .collect::<Vec<_>>(),
                ),
            )
        })
        .collect()
}

/// The traced pass: alternate untraced and traced repetitions (same
/// driver, recorder off and on), read the per-layer metrics off the spans,
/// run the workload's direct-drive probes, and return the spans as Chrome
/// trace JSON for `out/<workload>.spans.json`.
pub fn traced(name: &str, seed: u64, seconds: f64) -> (Outcome, String) {
    let (w, warm) = set_up(name, seed);
    let mut out = base_outcome(name, seed, true, w.as_ref(), &warm);
    let mut rec = Recorder::on();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut span_metrics, mut shares) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while traced_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds * TRACED_REP_SHARE
    {
        let t = Instant::now();
        out.note(&w.repetition(&mut Recorder::off(), false), Some(&warm));
        plain_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let root = rec.begin("bench.repetition");
        let rep = w.repetition(&mut rec, false);
        rec.end(root);
        traced_s.push(t.elapsed().as_secs_f64());
        out.note(&rep, Some(&warm));

        let spans = subtree(rec.spans(), root.expect("the recorder is on"));
        let mut m = Metrics::new();
        w.span_metrics(&spans, &rep, &mut m);
        span_metrics.push(m);
        shares.push(layer_shares(&spans));
    }
    out.metrics = median_by_key(&span_metrics);
    out.layers = median_by_key(&shares);

    let first_probe_span = rec.spans().len();
    w.probe(&mut rec, &mut out.metrics);
    // Where one crash state's time goes: every state the probes re-enacted
    // call by call, pooled.
    out.probe_layers = name_shares_under(rec.spans(), first_probe_span, "bench.reenacted_state");

    out.metrics.extend(warm.sim.clone());
    let plain = fastest(&plain_s);
    out.metrics.insert(
        "bench.trace_overhead_pct".into(),
        (fastest(&traced_s) - plain) / plain * 100.0,
    );
    out.metrics.insert(
        "bench.unattributed_share".into(),
        out.layers.get("bench").copied().unwrap_or(0.0),
    );
    out.metrics.insert(
        "bench.paper_shape_pass_share".into(),
        warm.shape_pass_share(),
    );
    out.metrics.insert(
        "bench.sim_fingerprint".into(),
        (warm.sim_fingerprint & ((1 << 48) - 1)) as f64,
    );
    out.wall = Some(Summary::of(&plain_s));
    out.wall_samples = plain_s;
    out.correct &= out.failed == 0;
    (out, chrome_json(rec.spans()))
}
