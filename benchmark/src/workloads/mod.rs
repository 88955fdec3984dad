//! The six workloads. Each is built once from `--seed` (set-up) and then
//! repeats one fixed measured phase; a repetition is a list of *units*
//! (one pipeline run, one oracle exploration, or one compile pair), each
//! run under [`crate::driver::unit`] so a failure is counted, not fatal.

use std::collections::BTreeMap;

use ido_compiler::Scheme;

use crate::driver::Point;
use crate::names::scheme_tag;
use crate::spans::{Recorder, Span};
use crate::stats::{geomean, Fnv};

pub mod compile;
pub mod kv;
pub mod micro;
pub mod oracle;
pub mod service;

/// Metric values by catalogue name; names not set report 0.
pub type Metrics = BTreeMap<String, f64>;

/// One completed pipeline run and the unit it belongs to.
#[derive(Debug, Clone)]
pub struct UnitPoint {
    /// Unit id (stable across repetitions).
    pub unit: u32,
    /// What was run, e.g. the structure name.
    pub group: &'static str,
    /// The run's results.
    pub point: Point,
}

/// Guest steps one unit executed inside `Vm::run` spans, and under what:
/// lets the traced pass turn `vm.run` span time into steps per second.
#[derive(Debug, Clone, Copy)]
pub struct UnitRun {
    /// Unit id.
    pub unit: u32,
    /// Scheme run.
    pub scheme: Scheme,
    /// Worker threads.
    pub threads: usize,
    /// Guest instructions interpreted.
    pub steps: u64,
}

/// The outcome of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Units attempted.
    pub attempted: u64,
    /// Units that panicked, did not complete, failed `verify`, tripped the
    /// fill guard, or returned a wrong known-answer verdict.
    pub failed: u64,
    /// One line per failed unit.
    pub failures: Vec<String>,
    /// Work items done, in the workload's own unit (see
    /// [`Workload::work_item`]).
    pub work: u64,
    /// FNV-64 over every deterministic result of the repetition: steps,
    /// simulated clocks, counters, verdicts. Equal across repetitions of
    /// one process, or the run is not correct.
    pub fingerprint: u64,
    /// [`Rep::fingerprint`] extended with the hash of every run's
    /// persistent image; 0 unless the repetition hashed images.
    pub sim_fingerprint: u64,
    /// The VM pipeline runs of the repetition, in unit order.
    pub points: Vec<UnitPoint>,
    /// Guest steps per unit (one entry per pipeline run).
    pub runs: Vec<UnitRun>,
    /// Hashes of other deterministic outputs (exports, verdict lists).
    pub hashes: Vec<u64>,
    /// Deterministic metrics the repetition computed itself (counts and
    /// simulated-clock results that are not derivable from `points`).
    pub sim: Metrics,
    /// Paper-shape checks: `(name, holds)`.
    pub shape: Vec<(String, bool)>,
}

impl Rep {
    /// Books one unit's outcome; returns its value when it succeeded.
    pub fn book<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures
                    .push(format!("{what}: {}", e.lines().next().unwrap_or("")));
                None
            }
        }
    }

    /// Records a completed pipeline run of `unit`.
    pub fn push_point(&mut self, unit: u32, group: &'static str, point: Point) {
        self.runs.push(UnitRun {
            unit,
            scheme: point.scheme,
            threads: point.threads,
            steps: point.steps,
        });
        self.points.push(UnitPoint { unit, group, point });
    }

    /// Share of the shape checks that hold (1 when there are none).
    pub fn shape_pass_share(&self) -> f64 {
        if self.shape.is_empty() {
            return 1.0;
        }
        self.shape.iter().filter(|(_, ok)| *ok).count() as f64 / self.shape.len() as f64
    }

    /// Seals the repetition: folds the points, the extra simulated metrics,
    /// the shape verdicts and the failure count into the fingerprint and
    /// derives the per-scheme simulated metrics from the points.
    pub fn seal(mut self, hash_images: bool) -> Rep {
        let mut h = Fnv::default();
        for up in &self.points {
            h.word(u64::from(up.unit));
            up.point.fingerprint(&mut h);
        }
        scheme_metrics(&self.points, &mut self.sim);
        for (k, v) in &self.sim {
            h.bytes(k.as_bytes());
            h.word(v.to_bits());
        }
        for (name, ok) in &self.shape {
            h.bytes(name.as_bytes());
            h.word(u64::from(*ok));
        }
        self.hashes.iter().for_each(|w| h.word(*w));
        h.word(self.attempted);
        h.word(self.failed);
        h.word(self.work);
        self.fingerprint = h.finish();
        if hash_images {
            self.points
                .iter()
                .for_each(|up| h.word(up.point.image_hash));
            self.sim_fingerprint = h.finish();
        }
        self
    }

    /// Simulated Mops of the single point `(group, scheme, threads)`; 0 when
    /// that unit failed.
    pub fn mops_at(&self, group: &str, scheme: Scheme, threads: usize) -> f64 {
        self.points
            .iter()
            .find(|up| {
                up.group == group && up.point.scheme == scheme && up.point.threads == threads
            })
            .map_or(0.0, |up| up.point.mops())
    }
}

/// `scheme.*` metrics from the points: geomean Mops over each scheme's
/// points, persist operations and log bytes per op over their totals.
fn scheme_metrics(points: &[UnitPoint], out: &mut Metrics) {
    let mut by_scheme: BTreeMap<&'static str, Vec<&Point>> = BTreeMap::new();
    for up in points {
        by_scheme
            .entry(scheme_tag(up.point.scheme))
            .or_default()
            .push(&up.point);
    }
    for (tag, ps) in by_scheme {
        let ops: u64 = ps.iter().map(|p| p.total_ops).sum();
        let per_op =
            |f: fn(&Point) -> u64| ps.iter().map(|p| f(p)).sum::<u64>() as f64 / ops.max(1) as f64;
        out.insert(
            format!("scheme.sim_mops.{tag}"),
            geomean(&ps.iter().map(|p| p.mops()).collect::<Vec<_>>()),
        );
        if matches!(tag, "nvtraverse" | "lfeager") {
            continue; // the catalogue carries only their throughput
        }
        out.insert(
            format!("scheme.clwb_per_op.{tag}"),
            per_op(|p| p.stats.clwbs),
        );
        out.insert(
            format!("scheme.fence_per_op.{tag}"),
            per_op(|p| p.stats.fences),
        );
        if matches!(tag, "ido" | "atlas" | "justdo") {
            out.insert(
                format!("scheme.log_bytes_per_op.{tag}"),
                per_op(|p| p.stats.log_bytes),
            );
        }
    }
}

/// What a workload counts as one item of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WorkItem {
    /// A guest instruction interpreted, whole pipeline included.
    #[default]
    GuestInstruction,
    /// A crash state checked by the oracle.
    CrashState,
    /// A source IR instruction parsed, instrumented and verified.
    SourceInstruction,
}

impl WorkItem {
    /// For reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkItem::GuestInstruction => "guest instruction",
            WorkItem::CrashState => "crash state",
            WorkItem::SourceInstruction => "source IR instruction",
        }
    }

    /// ISSUE 11's name for `work_per_s` on such a workload, and the factor
    /// that turns items per second into its unit.
    pub fn rate_alias(self) -> (&'static str, f64) {
        match self {
            WorkItem::GuestInstruction => ("host_msteps_per_s", 1e-6),
            WorkItem::CrashState => ("oracle_states_per_s", 1.0),
            WorkItem::SourceInstruction => ("compile_kinst_per_s", 1e-3),
        }
    }
}

/// A workload: state built by its constructor from the seed, plus a fixed
/// repeatable measured phase.
pub trait Workload {
    /// What one item of [`Rep::work`] is.
    fn work_item(&self) -> WorkItem {
        WorkItem::GuestInstruction
    }

    /// Runs the measured phase once. `hash_images` additionally folds each
    /// run's persistent image into the fingerprint (set-up only: hashing
    /// megabytes per unit is harness work, not system work).
    fn repetition(&self, rec: &mut Recorder, hash_images: bool) -> Rep;

    /// Per-layer metrics from the spans of one traced repetition (`spans`
    /// is the subtree of one `bench.repetition`, `rep` its outcome).
    /// The default suits every workload that runs VMs through the driver.
    fn span_metrics(&self, spans: &[Span], rep: &Rep, out: &mut Metrics) {
        crate::layers::vm_span_metrics(spans, rep, out);
    }

    /// Per-layer metrics measured by direct calls outside the repetitions
    /// (traced pass only); spans recorded on `rec` join the span file.
    fn probe(&self, rec: &mut Recorder, out: &mut Metrics);
}

/// Builds workload `name` from `seed` (the set-up phase, minus warm-up).
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kv_write" => Box::new(kv::Kv::new(seed, 500)),
        "kv_read" => Box::new(kv::Kv::new(seed, 100)),
        "micro_scale" => Box::new(micro::MicroScale::new(seed)),
        "service_crash" => Box::new(service::ServiceCrash::new(seed)),
        "crash_oracle" => Box::new(oracle::CrashOracle::new(seed)),
        "compile_verify" => Box::new(compile::CompileVerify::new(seed)),
        _ => return None,
    })
}
