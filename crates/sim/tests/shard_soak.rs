//! Tier-1 smoke over the shard throughput bench at small scale (the
//! soak itself is a row of `tests/cluster.rs`'s scenario table;
//! `simtest shard-bench` runs the 1/4/16-shard bench in CI).

use sim::run_shard_bench;

#[test]
fn the_bench_gate_holds_at_small_scale() {
    let r = run_shard_bench(21, 8, 4, &[1, 4]);
    assert_eq!(r.points.len(), 2);
    assert!(
        r.points.iter().all(|p| p.all_done),
        "bench lost jobs: {:?}",
        r.points
    );
    assert!(
        r.sharded_beats_single(),
        "sharded throughput fell below the single-queue baseline: {:?}",
        r.points
    );
}
