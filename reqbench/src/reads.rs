//! Read-only workloads: warm `Mediator::request`s cycling through a seeded
//! order of the workload's report dates (`deep_report`,
//! `recursive_report`).

use crate::common::{
    canonical_digest, check_document, digest, invalid, median, peak_rss_mb, request, Kernel,
    Served, SetupTime, Tally,
};
use crate::layers::{
    kind_tag, phase_secs, post_secs, set_service, traced_prepare, KindTotals, Profile,
};
use crate::trace::Recorder;
use crate::{Outcome, Run};
use aig_core::eval::evaluate;
use aig_core::spec::Aig;
use aig_datagen::{DatasetSize, HospitalConfig};
use aig_mediator::{execute_graph, obs, ExecOptions, Mediator, MediatorOptions};
use aig_prng::rngs::StdRng;
use aig_prng::{Rng, SeedableRng};
use aig_relstore::Value;
use std::collections::HashMap;
use std::time::Instant;

/// How a workload's documents are proven right, beyond DTD validation and
/// the constraint check every document gets.
pub enum Oracle {
    /// Canonical digests per visit date, recorded from the seed code
    /// (`date digest` lines). A regression oracle: the conceptual
    /// evaluator cannot truncate recursion, so it has no answer for a
    /// truncated unfolding.
    Reference(&'static str),
    /// The conceptual one-sweep evaluator (§3.2), run once per date.
    Conceptual,
}

pub struct ReadWorkload {
    pub size: DatasetSize,
    /// Report dates served: the dataset's first `dates` visit dates.
    pub dates: usize,
    pub options: MediatorOptions,
    pub oracle: Oracle,
    /// Dates the traced run rebuilds (the first ones of the seeded order).
    pub traced: usize,
    /// Whether set-up must promote the plan (frontier cut-off).
    pub must_promote: bool,
}

pub fn run(w: &ReadWorkload, args: &Run) -> Outcome {
    let mut kernel = Kernel::new();
    let aig = aig_core::paper::sigma0().expect("σ0 parses");
    let data = HospitalConfig::sized(w.size)
        .generate()
        .expect("dataset generation");
    let setup_date = data.dates[0].clone();
    let mut order = data.dates[..w.dates].to_vec();
    StdRng::seed_from_u64(args.seed).shuffle(&mut order);

    let mut tally = Tally::default();
    let mut oracle = OracleCheck::new(&w.oracle, &data.catalog);

    // Set-up, several times: a fresh service over the generated catalog
    // until its first document is out. The last service stays warm.
    let mut setup = Vec::new();
    let mut mediator = None;
    let mut setup_rounds = 0;
    for _ in 0..crate::SETUP_REPEATS {
        let catalog = data.catalog.clone();
        let ((built, first, secs), kernel_secs) = kernel.around(|| {
            let start = Instant::now();
            let built = Mediator::new(catalog, &w.options).expect("valid options");
            let first = request(&built, &aig, &setup_date);
            (built, first, start.elapsed().as_secs_f64())
        });
        match first {
            Ok(served) => {
                setup.push(SetupTime { secs, kernel_secs });
                setup_rounds = served.report.unfold_rounds;
                if w.must_promote && served.report.unfold_rounds < 2 {
                    invalid(format!(
                        "set-up did not promote the plan ({} unfold round)",
                        served.report.unfold_rounds
                    ));
                }
                oracle.note(&aig, &setup_date, &served);
            }
            Err(e) => tally.record("set-up request", Err(e.to_string())),
        }
        mediator = Some(built);
    }
    let mediator = mediator.expect("at least one set-up");
    let before = mediator.cache_stats();

    // The timed closed loop: one request at a time over the seeded order,
    // with the calibration kernel timed just before and just after each.
    let mut walls = Vec::new();
    let mut norms = Vec::new();
    let mut post_shares = Vec::new();
    let mut busy = 0.0;
    let mut i = 0;
    let mut errors_in_a_row = 0;
    while busy < args.seconds && errors_in_a_row <= 3 {
        let date = &order[i % order.len()];
        i += 1;
        let (served, kernel_secs) = kernel.around(|| request(&mediator, &aig, date));
        match served {
            Ok(served) => {
                errors_in_a_row = 0;
                busy += served.secs;
                walls.push(served.secs);
                norms.push(served.secs / kernel_secs);
                post_shares.push(post_secs(&served.report.phases) / served.secs);
                oracle.note(&aig, date, &served);
            }
            Err(e) => {
                errors_in_a_row += 1;
                tally.record(&format!("request for {date}"), Err(e.to_string()));
            }
        }
    }
    let rss = peak_rss_mb();
    let after = mediator.cache_stats();
    if after.misses != before.misses || after.promotions != before.promotions {
        invalid(format!(
            "the warm loop prepared plans: misses {} -> {}, promotions {} -> {}",
            before.misses, after.misses, before.promotions, after.promotions
        ));
    }

    oracle.finish(&aig, &mediator, &mut tally);

    let mut outcome = Outcome::new(tally, setup, walls, norms, busy, rss);
    if args.trace {
        let mut profile = Profile::default();
        set_service(&mut profile, before, after, setup_rounds);
        profile.sample("post.share", median(&post_shares));
        let sampled: Vec<String> = order.iter().take(w.traced).cloned().collect();
        let mut rec = Recorder::new();
        traced_rebuild(&mediator, &aig, &sampled, &mut rec, &mut profile);
        outcome.profile = Some(profile);
        outcome.recorder = Some(rec);
    }
    outcome
}

/// Prints the `deep_report` reference table: one `date digest` line per
/// report date, each the canonical digest of a warm request's document.
/// Run it on a trusted commit and commit the output as
/// `reference/deep_report.digests`.
pub fn emit_reference() {
    let w = crate::deep_report();
    let aig = aig_core::paper::sigma0().expect("σ0 parses");
    let data = HospitalConfig::sized(w.size)
        .generate()
        .expect("dataset generation");
    let mediator = Mediator::new(data.catalog, &w.options).expect("valid options");
    println!("# Canonical FNV-1a digests of the deep_report documents, one per report date.");
    for date in &data.dates[..w.dates] {
        let served = request(&mediator, &aig, date).expect("reference request");
        check_document(&aig, &served.run.tree).expect("reference document is valid");
        println!("{date} {}", canonical_digest(&aig, &served.run.tree));
    }
}

/// The traced run: each sampled date's request rebuilt from the layers'
/// public functions, with a span around every call, right after an
/// untraced request for the same date (its twin). Post-run analysis
/// (measured-cost simulation, schedule, Merge) has no public entry point,
/// so its times come from the twin's `RunReport` phase timers.
fn traced_rebuild(
    mediator: &Mediator,
    aig: &Aig,
    dates: &[String],
    rec: &mut Recorder,
    profile: &mut Profile,
) {
    let depth = mediator
        .prepare(aig)
        .unwrap_or_else(|e| invalid(format!("cached plan: {e}")))
        .depth;
    let plan = traced_prepare(mediator, aig, depth, rec, profile);
    let catalog = mediator.catalog();
    let mut exec_opts = ExecOptions::new(mediator.policy().clone());
    exec_opts.eval_scale = mediator.plan_options().graph.eval_scale;
    exec_opts.shipcut = plan.shipcut.clone();

    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    for (n, date) in dates.iter().enumerate() {
        let req = n + 1;
        let twin = request(mediator, aig, date)
            .unwrap_or_else(|e| invalid(format!("untraced request for {date}: {e}")));
        let args = [("date", Value::str(date))];
        let root = rec.open(req, "request", date, None);
        let (exec, t_exec) = rec.time(req, "exec", "execute_graph", Some(root), || {
            execute_graph(&plan.aig, catalog, &plan.graph, &args, &exec_opts)
        });
        let exec = exec.unwrap_or_else(|e| invalid(format!("traced execute for {date}: {e}")));
        let (tree, t_tag) = rec.time(req, "tag", "tag_document", Some(root), || {
            aig_mediator::tagging::tag_document(&plan.aig, &plan.graph, &exec.store)
        });
        let tree = tree.unwrap_or_else(|e| invalid(format!("traced tagging for {date}: {e}")));
        let (valid, t_val) = rec.time(req, "xml", "validate", Some(root), || {
            aig_xml::validate(&tree, &aig.dtd)
        });
        let (violations, t_chk) = rec.time(req, "xml", "constraint_check", Some(root), || {
            plan.aig.constraints.check(&tree)
        });
        let (text, t_ser) = rec.time(req, "xml", "serialize", Some(root), || {
            aig_xml::serialize::to_string(&tree)
        });
        let wall = rec.close(root);

        if valid.is_err() || !violations.is_empty() || text != twin.text {
            invalid(format!(
                "the traced rebuild of {date} differs from the untraced request \
                 (valid: {}, violations: {}, same text: {})",
                valid.is_ok(),
                violations.len(),
                text == twin.text
            ));
        }

        let mut kinds = KindTotals::default();
        for (task, m) in plan.graph.tasks.iter().zip(&exec.measured) {
            kinds.add(kind_tag(&task.kind), m.secs, m.out_rows);
        }
        kinds.sample_into(profile);
        let shipped: f64 = obs::shipped_bytes(&plan.graph, &exec.measured).iter().sum();
        let post = post_secs(&twin.report.phases);
        profile.sample("exec.execute_ms", t_exec * 1e3);
        profile.sample("exec.shipped_bytes", shipped);
        profile.sample("tag.tag_ms", t_tag * 1e3);
        profile.sample("tag.nodes", tree.len() as f64);
        profile.sample("xml.validate_ms", t_val * 1e3);
        profile.sample("xml.constraint_check_ms", t_chk * 1e3);
        profile.sample("xml.serialize_ms", t_ser * 1e3);
        profile.sample("xml.doc_bytes", text.len() as f64);
        profile.sample(
            "post.simulate_ms",
            phase_secs(&twin.report.phases, "simulate") * 1e3,
        );
        profile.sample(
            "post.schedule_ms",
            phase_secs(&twin.report.phases, "schedule") * 1e3,
        );
        profile.sample(
            "post.merge_ms",
            phase_secs(&twin.report.phases, "merge") * 1e3,
        );
        let layers = t_exec + t_tag + t_val + t_chk + t_ser + post;
        profile.sample("trace.coverage", layers / (wall + post));
        traced_walls.push(wall + post);
        untraced_walls.push(twin.secs);
    }
    profile.set("trace.samples", dates.len() as f64);
    profile.set(
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls),
    );
}

/// Per-date document oracle beyond the DTD and constraint checks. A served
/// document is checked against the DTD and the constraints at once and
/// remembered by its plain digest; the oracle comparison waits until
/// [`OracleCheck::finish`], after the peak memory of the timed loop has
/// been read, so neither the conceptual evaluator nor canonical sorting
/// counts as the service's memory.
struct OracleCheck<'a> {
    oracle: &'a Oracle,
    catalog: &'a aig_relstore::Catalog,
    /// Canonical digests the oracle expects, per date.
    expected: HashMap<String, String>,
    /// Served documents: date and plain digest, or why the document
    /// already failed.
    pending: Vec<(String, Result<String, String>)>,
}

impl<'a> OracleCheck<'a> {
    fn new(oracle: &'a Oracle, catalog: &'a aig_relstore::Catalog) -> OracleCheck<'a> {
        let expected = match oracle {
            Oracle::Reference(table) => table
                .lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .filter_map(|l| l.split_once(' '))
                .map(|(date, hex)| (date.to_string(), hex.trim().to_string()))
                .collect(),
            Oracle::Conceptual => HashMap::new(),
        };
        OracleCheck {
            oracle,
            catalog,
            expected,
            pending: Vec::new(),
        }
    }

    /// Checks a served document against the DTD and the constraints, and
    /// queues it for the oracle.
    fn note(&mut self, aig: &Aig, date: &str, served: &Served) {
        let verdict = check_document(aig, &served.run.tree).map(|()| digest(&served.text));
        self.pending.push((date.to_string(), verdict));
    }

    /// Holds every queued document to the oracle, one tally entry each.
    /// The mediator emits star children in canonical order, so a plain
    /// digest usually equals the canonical one. When it does not, the date
    /// is requested again and that document, if byte-identical, is sorted
    /// into canonical form.
    fn finish(mut self, aig: &Aig, mediator: &Mediator, tally: &mut Tally) {
        let mut canonical: HashMap<String, String> = HashMap::new();
        for (date, verdict) in std::mem::take(&mut self.pending) {
            let outcome = verdict.and_then(|plain| {
                let want = self.expected_for(aig, &date)?;
                if plain == want {
                    return Ok(());
                }
                let got = match canonical.get(&plain) {
                    Some(hex) => hex.clone(),
                    None => {
                        let again = request(mediator, aig, &date).map_err(|e| e.to_string())?;
                        if digest(&again.text) != plain {
                            return Err("the document is not reproducible".to_string());
                        }
                        let hex = canonical_digest(aig, &again.run.tree);
                        canonical.insert(plain, hex.clone());
                        hex
                    }
                };
                if got == want {
                    Ok(())
                } else {
                    Err(format!("canonical digest {got}, oracle expects {want}"))
                }
            });
            tally.record(&format!("document for {date}"), outcome);
        }
    }

    fn expected_for(&mut self, aig: &Aig, date: &str) -> Result<String, String> {
        if let Some(hex) = self.expected.get(date) {
            return Ok(hex.clone());
        }
        match self.oracle {
            Oracle::Reference(_) => Err(format!("no reference digest for {date}")),
            Oracle::Conceptual => {
                let eval = evaluate(aig, self.catalog, &[("date", Value::str(date))])
                    .map_err(|e| format!("conceptual evaluator: {e}"))?;
                let hex = canonical_digest(aig, &eval.tree);
                self.expected.insert(date.to_string(), hex.clone());
                Ok(hex)
            }
        }
    }
}
