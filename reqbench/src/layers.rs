//! The per-layer profile: the traced prepare shared by every workload, and
//! the accumulation of layer samples into the `per_layer` metrics.

use crate::common::median;
use crate::trace::Recorder;
use aig_core::spec::Aig;
use aig_mediator::graph::TaskKind;
use aig_mediator::{deepen, prepare, CacheStats, Mediator, PhaseSample, Phases, PreparedPlan};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order. A workload that
/// never exercises a layer reports 0 for it (say, `delta.*` on a workload
/// without writes).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("prepare.compile_ms", "ms"),
    ("prepare.decompose_ms", "ms"),
    ("prepare.unfold_ms", "ms"),
    ("prepare.graph_build_ms", "ms"),
    ("prepare.shipcut_ms", "ms"),
    ("prepare.plan_ms", "ms"),
    ("prepare.tasks", "count"),
    ("prepare.syn_agg_tasks", "count"),
    ("service.plan_cache_hits", "count"),
    ("service.plan_cache_misses", "count"),
    ("service.promotions", "count"),
    ("service.setup_rounds", "count"),
    ("exec.execute_ms", "ms"),
    ("exec.gen_ms", "ms"),
    ("exec.inh_set_query_ms", "ms"),
    ("exec.assemble_ms", "ms"),
    ("exec.syn_agg_ms", "ms"),
    ("exec.guard_ms", "ms"),
    ("exec.gen_rows", "count"),
    ("exec.assemble_rows", "count"),
    ("exec.syn_agg_rows", "count"),
    ("exec.syn_agg_share", "ratio"),
    ("exec.shipped_bytes", "bytes"),
    ("tag.tag_ms", "ms"),
    ("tag.nodes", "count"),
    ("xml.validate_ms", "ms"),
    ("xml.constraint_check_ms", "ms"),
    ("xml.serialize_ms", "ms"),
    ("xml.doc_bytes", "bytes"),
    ("post.simulate_ms", "ms"),
    ("post.schedule_ms", "ms"),
    ("post.merge_ms", "ms"),
    ("post.share", "ratio"),
    ("delta.apply_ms", "ms"),
    ("delta.snapshot_hits", "count"),
    ("delta.snapshot_copy_ms", "ms"),
    ("delta.tasks_rerun", "count"),
    ("delta.rerun_frac", "ratio"),
    ("delta.rows_spliced", "count"),
    ("delta.nodes_reused", "count"),
    ("delta.nodes_rebuilt", "count"),
    ("trace.samples", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Per-layer samples of the traced requests, reduced to medians at the end.
#[derive(Default)]
pub struct Profile {
    samples: BTreeMap<&'static str, Vec<f64>>,
    fixed: BTreeMap<&'static str, f64>,
}

impl Profile {
    /// Adds one per-request sample of `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets a per-run value of `name` (a count or a ratio of totals).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.fixed.insert(name, value);
    }

    /// Medians of the sampled metrics plus the per-run values; every
    /// metric of [`PER_LAYER`] is present (0 where the layer did no work).
    pub fn finish(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match self.fixed.get(name) {
                    Some(v) => *v,
                    None => self.samples.get(name).map_or(0.0, |s| median(s)),
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// Records the plan-cache counters of the timed loop (`before` and `after`
/// it) and the unfold rounds the set-up request took.
pub fn set_service(profile: &mut Profile, before: CacheStats, after: CacheStats, rounds: usize) {
    profile.set("service.plan_cache_hits", (after.hits - before.hits) as f64);
    profile.set(
        "service.plan_cache_misses",
        (after.misses - before.misses) as f64,
    );
    profile.set(
        "service.promotions",
        (after.promotions - before.promotions) as f64,
    );
    profile.set("service.setup_rounds", rounds as f64);
}

/// Short kind tag of a task, as the run report's task table names it.
pub fn kind_tag(kind: &TaskKind) -> &'static str {
    match kind {
        TaskKind::Root => "root",
        TaskKind::Gen { .. } => "gen",
        TaskKind::InhSetQuery { .. } => "inh_set_query",
        TaskKind::Assemble { .. } => "assemble",
        TaskKind::SynAgg { .. } => "syn_agg",
        TaskKind::Cond { .. } => "cond",
        TaskKind::BranchMat { .. } => "branch_mat",
        TaskKind::Guard { .. } => "guard",
    }
}

/// Busy seconds and output rows of one request's executed tasks, by kind.
#[derive(Default)]
pub struct KindTotals {
    secs: BTreeMap<&'static str, f64>,
    rows: BTreeMap<&'static str, f64>,
}

impl KindTotals {
    pub fn add(&mut self, kind: &'static str, secs: f64, rows: f64) {
        *self.secs.entry(kind).or_default() += secs;
        *self.rows.entry(kind).or_default() += rows;
    }

    /// Records the per-kind `exec.*` samples of one request.
    pub fn sample_into(&self, profile: &mut Profile) {
        let secs = |k: &str| self.secs.get(k).copied().unwrap_or(0.0);
        let rows = |k: &str| self.rows.get(k).copied().unwrap_or(0.0);
        profile.sample("exec.gen_ms", secs("gen") * 1e3);
        profile.sample("exec.inh_set_query_ms", secs("inh_set_query") * 1e3);
        profile.sample("exec.assemble_ms", secs("assemble") * 1e3);
        profile.sample("exec.syn_agg_ms", secs("syn_agg") * 1e3);
        profile.sample("exec.guard_ms", secs("guard") * 1e3);
        profile.sample("exec.gen_rows", rows("gen"));
        profile.sample("exec.assemble_rows", rows("assemble"));
        profile.sample("exec.syn_agg_rows", rows("syn_agg"));
        let busy: f64 = self.secs.values().sum();
        if busy > 0.0 {
            profile.sample("exec.syn_agg_share", secs("syn_agg") / busy);
        }
    }
}

/// Which layer a `RunReport` phase belongs to.
pub fn phase_layer(name: &str) -> &'static str {
    match name {
        "compile_constraints" | "decompose" | "unfold" | "graph_build" | "shipcut" | "plan" => {
            "prepare"
        }
        "plan_cache" => "service",
        "execute" | "frontier_check" => "exec",
        "tag" => "tag",
        "validate" | "constraint_check" => "xml",
        "simulate" | "schedule" | "merge" => "post",
        _ => "other",
    }
}

/// Seconds the named phase took, summed over its samples.
pub fn phase_secs(phases: &[PhaseSample], name: &str) -> f64 {
    phases
        .iter()
        .filter(|p| p.name == name)
        .map(|p| p.secs)
        .sum()
}

/// Post-run analysis seconds (measured-cost simulation, schedule, Merge).
pub fn post_secs(phases: &[PhaseSample]) -> f64 {
    ["simulate", "schedule", "merge"]
        .iter()
        .map(|n| phase_secs(phases, n))
        .sum()
}

/// Rebuilds the service's plan from outside: `plan::prepare` at the
/// configured starting depth, then `plan::deepen` by doubling until
/// `depth` (the depth the service's frontier promotion settled on). The
/// prepare phases of every round are summed into the `prepare.*` metrics.
pub fn traced_prepare(
    mediator: &Mediator,
    aig: &Aig,
    depth: usize,
    rec: &mut Recorder,
    profile: &mut Profile,
) -> PreparedPlan {
    let options = mediator.plan_options();
    let network = &mediator.policy().network;
    let catalog = mediator.catalog();
    let span = rec.open(0, "prepare", "prepare", None);
    let start = rec.now();
    let mut phases = Phases::new();
    let mut plan = prepare(
        aig,
        catalog,
        options.unfold_depth,
        options,
        network,
        &mut phases,
    )
    .unwrap_or_else(|e| crate::common::invalid(format!("traced prepare: {e}")));
    while plan.depth < depth {
        let next = (plan.depth * 2).min(options.max_depth);
        plan = deepen(&plan, catalog, next, &mut phases)
            .unwrap_or_else(|e| crate::common::invalid(format!("traced deepen: {e}")));
    }
    rec.close(span);
    let samples = phases.into_samples();
    rec.add_phases(0, span, start, &samples, phase_layer);
    for (metric, phase) in [
        ("prepare.compile_ms", "compile_constraints"),
        ("prepare.decompose_ms", "decompose"),
        ("prepare.unfold_ms", "unfold"),
        ("prepare.graph_build_ms", "graph_build"),
        ("prepare.shipcut_ms", "shipcut"),
        ("prepare.plan_ms", "plan"),
    ] {
        profile.set(metric, phase_secs(&samples, phase) * 1e3);
    }
    profile.set("prepare.tasks", plan.graph.len() as f64);
    let syn_agg = plan
        .graph
        .tasks
        .iter()
        .filter(|t| matches!(t.kind, TaskKind::SynAgg { .. }))
        .count();
    profile.set("prepare.syn_agg_tasks", syn_agg as f64);
    plan
}
