//! Splicing a sub-relation into a cached relation preserves wire
//! accounting while starting a fresh `wire_bytes` memo generation.
//!
//! This is its own test binary on purpose: the check reads the
//! process-wide `payload_scans()` counter, so no other test may scan
//! payloads concurrently in the same process.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{payload_scans, Relation, Value};

#[test]
fn splice_preserves_wire_accounting_and_resets_the_memo() {
    let mut rng = StdRng::seed_from_u64(0xde17_a002);
    for case in 0..25 {
        let rows = rng.gen_range(2..80usize);
        let mut rel = Relation::empty(vec!["id".into(), "v".into()]);
        for i in 0..rows {
            rel.push(vec![
                Value::str(format!("r{i}")),
                Value::str(format!("v{}", rng.gen_range(0..7u32))),
            ]);
        }
        // Warm the memo on the cached relation, as the mediator's snapshot
        // store would have after a full run.
        let cached_wire = rel.wire_bytes();
        let start = rng.gen_range(0..rows);
        let cut = rng.gen_range(0..rows - start + 1);
        let mut replacement = Relation::empty(rel.columns().to_vec());
        for i in 0..rng.gen_range(0..30usize) {
            replacement.push(vec![
                Value::str(format!("n{case}_{i}")),
                Value::str(format!("v{}", rng.gen_range(0..7u32))),
            ]);
        }

        let scans_before = payload_scans();
        let spliced = rel.splice(start, cut, &replacement).unwrap();
        assert_eq!(
            payload_scans(),
            scans_before,
            "case {case}: splicing itself must not rescan any payload"
        );
        // Fresh generation: the spliced result never inherits the cached
        // relation's (now wrong-sized) memo.
        assert!(!spliced.sizes_memoized(), "case {case}: memo reset");
        assert_eq!(spliced.len(), rows - cut + replacement.len());

        // Wire accounting is preserved: the spliced relation reports
        // exactly what a from-scratch relation with the same content does.
        let mut scratch = Relation::empty(rel.columns().to_vec());
        scratch.extend(&rel.slice(0, start)).unwrap();
        scratch.extend(&replacement).unwrap();
        scratch
            .extend(&rel.slice(start + cut, rows - start - cut))
            .unwrap();
        assert_eq!(spliced, scratch, "case {case}: content");
        assert_eq!(
            spliced.wire_bytes(),
            scratch.wire_bytes(),
            "case {case}: wire bytes"
        );
        assert_eq!(
            spliced.byte_size(),
            scratch.byte_size(),
            "case {case}: raw bytes"
        );
        // The source relation keeps its own (still valid) memo.
        assert!(rel.sizes_memoized(), "case {case}: source memo survives");
        assert_eq!(rel.wire_bytes(), cached_wire);
    }
}
