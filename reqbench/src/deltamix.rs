//! `delta_mix`: seeded source writes alternating with reads of a few hot
//! visit dates, served by incremental re-evaluation.

use crate::common::{
    canonical_digest, check_document, digest, invalid, median, peak_rss_mb, request, Kernel,
    Served, SetupTime, Tally,
};
use crate::layers::{
    kind_tag, phase_layer, phase_secs, post_secs, set_service, traced_prepare, KindTotals, Profile,
};
use crate::trace::Recorder;
use crate::{Outcome, Run, SETUP_REPEATS};
use aig_core::spec::Aig;
use aig_datagen::{cover_delta, price_delta, visit_delta, DatasetSize, HospitalConfig};
use aig_mediator::{
    execute_graph, rerun_mask, ExecOptions, Mediator, MediatorOptions, PreparedPlan, RelStore,
};
use aig_prng::rngs::StdRng;
use aig_prng::{Rng, SeedableRng};
use aig_relstore::{Catalog, SourceDelta, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Hot visit dates the reads go to (the dataset's first ones).
const HOT_DATES: usize = 4;
/// Operations (writes and reads, alternating) the traced pass replays.
const TRACED_OPS: usize = 40;

/// Writes per block of the write mix: 18 billing price updates of 3
/// treatments, 1 `cover` delta and 1 `visit` delta on a hot date (90% /
/// 5% / 5%), in a seeded order within each block. Fixing the counts per
/// block keeps the share of reads that follow a wide delta the same in
/// every run; drawn independently, it ranged from a quarter to two thirds
/// of the reads across seeds, and the median read moved between the
/// narrow and the wide re-run.
const WRITE_BLOCK: usize = 20;

/// The seeded stream of writes, each built against the current catalog
/// so inserts are fresh and deletes hit present rows.
struct Writes {
    block: Vec<usize>,
}

impl Writes {
    fn next(&mut self, rng: &mut StdRng, catalog: &Catalog, hot: &[String]) -> Vec<SourceDelta> {
        if self.block.is_empty() {
            self.block = (0..WRITE_BLOCK).collect();
            rng.shuffle(&mut self.block);
        }
        let slot = self.block.pop().expect("refilled above");
        let seed = rng.next_u64();
        let built = match slot {
            0 => cover_delta(catalog, 2, 1, seed).map(|d| vec![d]),
            1 => {
                let date = rng.pick(hot).clone();
                visit_delta(catalog, &date, 2, 1, seed).map(|d| vec![d])
            }
            _ => price_delta(catalog, 3, seed).map(|(del, ins)| vec![del, ins]),
        };
        built.unwrap_or_else(|e| invalid(format!("delta generation: {e}")))
    }
}

/// What the op stream reports to its caller, outside the timed region.
trait Observer {
    /// A completed read of `date` that started at `start`; `norm` is its
    /// wall over the calibration kernel's.
    fn read(&mut self, op: usize, date: &str, start: Instant, served: &Served, norm: f64);
    /// A completed write that started at `start` and took `secs`.
    fn write(&mut self, op: usize, start: Instant, secs: f64);
}

/// The op stream of one run: alternately a write, then a read; the reads
/// cycle through a seeded order of the hot dates. `ops` bounds the number
/// of operations, `seconds` the timed wall of the loop (whichever ends it
/// first). Every read must be served from its run snapshot. Returns the
/// loop's timed wall.
#[allow(clippy::too_many_arguments)]
fn drive(
    mediator: &mut Mediator,
    aig: &Aig,
    hot: &[String],
    seed: u64,
    ops: usize,
    seconds: f64,
    tally: &mut Tally,
    kernel: &mut Kernel,
    observer: &mut dyn Observer,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order = hot.to_vec();
    rng.shuffle(&mut order);
    let mut writes = Writes { block: Vec::new() };
    let mut busy = 0.0;
    let mut op = 0;
    let mut errors_in_a_row = 0;
    while op < ops && busy < seconds && errors_in_a_row <= 3 {
        if op % 2 == 0 {
            let deltas = writes.next(&mut rng, mediator.catalog(), hot);
            let start = Instant::now();
            let applied: Result<(), String> = deltas
                .iter()
                .try_for_each(|d| mediator.apply_delta(d).map(|_| ()))
                .map_err(|e| e.to_string());
            let secs = start.elapsed().as_secs_f64();
            busy += secs;
            errors_in_a_row = if applied.is_ok() {
                0
            } else {
                errors_in_a_row + 1
            };
            tally.record("write", applied);
            observer.write(op, start, secs);
        } else {
            let date = &order[(op / 2) % order.len()];
            let ((start, served), kernel_secs) =
                kernel.around(|| (Instant::now(), request(mediator, aig, date)));
            match served {
                Ok(served) => {
                    errors_in_a_row = 0;
                    busy += served.secs;
                    if !served.report.incremental.snapshot_hit {
                        invalid(format!("read {op} of {date} missed its run snapshot"));
                    }
                    tally.record(
                        &format!("read of {date}"),
                        check_document(aig, &served.run.tree),
                    );
                    observer.read(op, date, start, &served, served.secs / kernel_secs);
                }
                Err(e) => {
                    errors_in_a_row += 1;
                    tally.record(&format!("read of {date}"), Err(e.to_string()));
                }
            }
        }
        op += 1;
    }
    busy
}

/// A service over `catalog`, the time until its first document (of the
/// first hot date) was out, and the unfold rounds that request took. With `warm`, every other hot date is then served once, untimed,
/// so each has a run snapshot.
fn new_service(
    catalog: Catalog,
    options: &MediatorOptions,
    aig: &Aig,
    hot: &[String],
    warm: bool,
    kernel: &mut Kernel,
    tally: &mut Tally,
) -> (Mediator, SetupTime, usize) {
    let ((mediator, first, secs), kernel_secs) = kernel.around(|| {
        let start = Instant::now();
        let mediator = Mediator::new(catalog, options).expect("valid options");
        let first = request(&mediator, aig, &hot[0]);
        (mediator, first, start.elapsed().as_secs_f64())
    });
    let setup = SetupTime { secs, kernel_secs };
    let rounds = first.as_ref().map_or(0, |s| s.report.unfold_rounds);
    let mut served = vec![(&hot[0], first)];
    if warm {
        served.extend(
            hot[1..]
                .iter()
                .map(|date| (date, request(&mediator, aig, date))),
        );
    }
    for (date, outcome) in served {
        tally.record(
            &format!("set-up read of {date}"),
            outcome
                .map_err(|e| e.to_string())
                .and_then(|s| check_document(aig, &s.run.tree)),
        );
    }
    (mediator, setup, rounds)
}

/// The timed loop's record: latencies, plus the digests and normalized
/// walls of the reads the traced pass will replay.
#[derive(Default)]
struct Loop {
    walls: Vec<f64>,
    norms: Vec<f64>,
    writes: Vec<f64>,
    first: BTreeMap<usize, (String, f64)>,
}

impl Observer for Loop {
    fn read(&mut self, op: usize, _: &str, _: Instant, served: &Served, norm: f64) {
        self.walls.push(served.secs);
        self.norms.push(norm);
        if op < TRACED_OPS {
            self.first.insert(op, (digest(&served.text), norm));
        }
    }

    fn write(&mut self, _: usize, _: Instant, secs: f64) {
        self.writes.push(secs);
    }
}

pub fn run(options: &MediatorOptions, args: &Run) -> Outcome {
    let mut kernel = Kernel::new();
    let aig = aig_core::paper::sigma0().expect("σ0 parses");
    let data = HospitalConfig::sized(DatasetSize::Large)
        .generate()
        .expect("dataset generation");
    let hot: Vec<String> = data.dates[..HOT_DATES].to_vec();

    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut service = None;
    for rep in 0..SETUP_REPEATS {
        let warm = rep + 1 == SETUP_REPEATS;
        let (mediator, time, rounds) = new_service(
            data.catalog.clone(),
            options,
            &aig,
            &hot,
            warm,
            &mut kernel,
            &mut tally,
        );
        setup.push(time);
        service = Some((mediator, rounds));
    }
    let (mut mediator, setup_rounds) = service.expect("at least one set-up");
    let before = mediator.cache_stats();

    let mut looped = Loop::default();
    let busy = drive(
        &mut mediator,
        &aig,
        &hot,
        args.seed,
        usize::MAX,
        args.seconds,
        &mut tally,
        &mut kernel,
        &mut looped,
    );
    let rss = peak_rss_mb();
    let after = mediator.cache_stats();
    if after.misses != before.misses || after.promotions != before.promotions {
        invalid("the warm loop prepared plans");
    }

    // The oracle: every hot date's incremental document against a cold
    // request of a fresh service over the post-delta catalog.
    let oracle = Mediator::new(mediator.catalog().clone(), options).expect("valid options");
    for date in &hot {
        let verdict = match (request(&mediator, &aig, date), request(&oracle, &aig, date)) {
            (Ok(incr), Ok(cold)) => {
                if canonical_digest(&aig, &incr.run.tree) == canonical_digest(&aig, &cold.run.tree)
                {
                    Ok(())
                } else {
                    Err("incremental document differs from a cold run".to_string())
                }
            }
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        tally.record(&format!("final oracle for {date}"), verdict);
    }
    drop(oracle);
    drop(mediator);

    let Loop {
        walls,
        norms,
        writes,
        first,
    } = looped;
    let mut outcome = Outcome::new(tally, setup, walls, norms, busy, rss);
    outcome.writes = writes;
    if args.trace {
        let mut profile = Profile::default();
        set_service(&mut profile, before, after, setup_rounds);
        let mut rec = Recorder::new();
        traced_replay(
            options,
            &aig,
            &data.catalog,
            &hot,
            args.seed,
            &first,
            &mut kernel,
            &mut rec,
            &mut profile,
        );
        outcome.profile = Some(profile);
        outcome.recorder = Some(rec);
    }
    outcome
}

/// The traced pass's observer: spans for every op, the per-layer samples
/// of every read, and the fidelity check against the timed loop.
struct Traced<'a> {
    plan: &'a PreparedPlan,
    /// A full-run relation store per hot date, to replay snapshot copies.
    stores: HashMap<String, RelStore>,
    untraced: &'a BTreeMap<usize, (String, f64)>,
    rec: &'a mut Recorder,
    profile: &'a mut Profile,
    writes: Vec<f64>,
    rerun: usize,
    total: usize,
    reads: usize,
    traced_norms: Vec<f64>,
    untraced_norms: Vec<f64>,
}

impl Observer for Traced<'_> {
    fn read(&mut self, op: usize, date: &str, start: Instant, served: &Served, norm: f64) {
        if let Some((want, untraced_norm)) = self.untraced.get(&op) {
            if *want != digest(&served.text) {
                invalid(format!(
                    "traced replay op {op} differs from the untraced loop"
                ));
            }
            // The replay runs later than the loop; kernel-normalized walls
            // take out most of the host's drift in between.
            self.traced_norms.push(norm);
            self.untraced_norms.push(*untraced_norm);
        }
        let report = &served.report;
        let inc = &report.incremental;
        // Re-derive the re-run mask from outside and hold the ledger to it.
        let dirty: BTreeSet<(String, String)> = inc
            .dirty_tables
            .iter()
            .filter_map(|t| t.split_once('.'))
            .map(|(s, t)| (s.to_string(), t.to_string()))
            .collect();
        let mask = rerun_mask(&self.plan.graph, &self.plan.read_sets.seeds(&dirty));
        if mask.iter().filter(|&&r| r).count() != inc.tasks_rerun {
            invalid(format!("re-run mask disagrees with the ledger at op {op}"));
        }
        let mut kinds = KindTotals::default();
        let mut shipped = 0.0;
        for task in report.tasks.iter().filter(|t| mask[t.id]) {
            kinds.add(
                kind_tag(&self.plan.graph.tasks[task.id].kind),
                task.secs,
                task.out_rows,
            );
            shipped += task.shipped_bytes;
        }
        kinds.sample_into(self.profile);
        self.rerun += inc.tasks_rerun;
        self.total += inc.tasks_total;
        self.reads += 1;

        // A snapshot hit copies the retained run (store and document) out
        // of the service, stores a copy of the new document back, and
        // drops the copy it worked on and the entry it replaced; no phase
        // timer covers that. Replay the same copies and drops on values of
        // the same shape (the stand-in for the replaced entry is built
        // untimed, and the kept copy is dropped untimed).
        let replaced = (self.stores[date].clone(), served.run.tree.clone());
        let copy_start = Instant::now();
        let working = (self.stores[date].clone(), served.run.tree.clone());
        let kept = served.run.tree.clone();
        drop(working);
        drop(replaced);
        let copy_secs = copy_start.elapsed().as_secs_f64();
        drop(kept);

        let at = self.rec.offset(start);
        let root = self.rec.record(op, "request", date, at, served.secs, None);
        self.rec
            .add_phases(op, root, at, &report.phases, phase_layer);
        let ser_at = at + served.secs - served.serialize_secs;
        self.rec.record(
            op,
            "xml",
            "serialize",
            ser_at,
            served.serialize_secs,
            Some(root),
        );

        let phases = &report.phases;
        let phase_sum: f64 = phases.iter().map(|p| p.secs).sum();
        let p = &mut *self.profile;
        p.sample("exec.execute_ms", phase_secs(phases, "execute") * 1e3);
        p.sample("exec.shipped_bytes", shipped);
        p.sample("tag.tag_ms", phase_secs(phases, "tag") * 1e3);
        p.sample("tag.nodes", served.run.tree.len() as f64);
        p.sample("xml.validate_ms", phase_secs(phases, "validate") * 1e3);
        p.sample(
            "xml.constraint_check_ms",
            phase_secs(phases, "constraint_check") * 1e3,
        );
        p.sample("xml.serialize_ms", served.serialize_secs * 1e3);
        p.sample("xml.doc_bytes", served.text.len() as f64);
        p.sample("post.simulate_ms", phase_secs(phases, "simulate") * 1e3);
        p.sample("post.schedule_ms", phase_secs(phases, "schedule") * 1e3);
        p.sample("post.merge_ms", phase_secs(phases, "merge") * 1e3);
        p.sample("post.share", post_secs(phases) / served.secs);
        p.sample("delta.snapshot_copy_ms", copy_secs * 1e3);
        p.sample(
            "trace.coverage",
            (phase_sum + served.serialize_secs + copy_secs) / served.secs,
        );
        p.sample("delta.tasks_rerun", inc.tasks_rerun as f64);
        p.sample("delta.rows_spliced", inc.rows_spliced as f64);
        p.sample("delta.nodes_reused", inc.nodes_reused as f64);
        p.sample("delta.nodes_rebuilt", inc.nodes_rebuilt as f64);
    }

    fn write(&mut self, op: usize, start: Instant, secs: f64) {
        let at = self.rec.offset(start);
        self.rec.record(op, "delta", "apply_delta", at, secs, None);
        self.writes.push(secs);
    }
}

/// The traced pass: a fresh service replays the first [`TRACED_OPS`] ops
/// of the same seeded stream. The incremental path's internals are not
/// public, so a read's layers come from its report's phase timers and
/// incremental ledger; the benchmark's own spans cover each read, its
/// serialization and each write. The re-run task set is recomputed from
/// outside (plan read-sets and `rerun_mask`) to split execute by task kind.
#[allow(clippy::too_many_arguments)]
fn traced_replay(
    options: &MediatorOptions,
    aig: &Aig,
    catalog: &Catalog,
    hot: &[String],
    seed: u64,
    untraced: &BTreeMap<usize, (String, f64)>,
    kernel: &mut Kernel,
    rec: &mut Recorder,
    profile: &mut Profile,
) {
    let mut tally = Tally::default();
    let (mut mediator, _, _) =
        new_service(catalog.clone(), options, aig, hot, true, kernel, &mut tally);
    let cached = mediator
        .prepare(aig)
        .unwrap_or_else(|e| invalid(format!("cached plan: {e}")));
    let plan = traced_prepare(&mediator, aig, cached.depth, rec, profile);
    let mut exec_opts = ExecOptions::new(mediator.policy().clone());
    exec_opts.eval_scale = mediator.plan_options().graph.eval_scale;
    exec_opts.shipcut = plan.shipcut.clone();
    let stores = hot
        .iter()
        .map(|date| {
            let args = [("date", Value::str(date))];
            let exec = execute_graph(&plan.aig, catalog, &plan.graph, &args, &exec_opts)
                .unwrap_or_else(|e| invalid(format!("full execution for {date}: {e}")));
            (date.clone(), exec.store)
        })
        .collect();

    let mut traced = Traced {
        plan: &plan,
        stores,
        untraced,
        rec,
        profile,
        writes: Vec::new(),
        rerun: 0,
        total: 0,
        reads: 0,
        traced_norms: Vec::new(),
        untraced_norms: Vec::new(),
    };
    drive(
        &mut mediator,
        aig,
        hot,
        seed,
        TRACED_OPS,
        f64::INFINITY,
        &mut tally,
        kernel,
        &mut traced,
    );
    if tally.failed > 0 {
        invalid("the traced replay failed a check");
    }
    let Traced {
        writes,
        rerun,
        total,
        reads,
        traced_norms,
        untraced_norms,
        profile,
        ..
    } = traced;
    profile.set("delta.snapshot_hits", reads as f64);
    profile.set("delta.rerun_frac", rerun as f64 / total.max(1) as f64);
    profile.set("delta.apply_ms", median(&writes) * 1e3);
    profile.set("trace.samples", reads as f64);
    profile.set(
        "trace.overhead",
        median(&traced_norms) / median(&untraced_norms),
    );
}
