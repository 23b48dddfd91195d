//! Checkpointed exploration must be observationally identical to the
//! full-replay explorer on the paper's Figure-1 system — same
//! `ExploreStats`, same projections checked — differing only in the
//! state-reconstruction work counters.

use ioa::{ExploreLimits, ReplayStrategy};
use qc_bench::figure1_spec;
use qc_replication::verify_exhaustive_with;

#[test]
fn figure1_stats_identical_across_strategies() {
    // The full Figure-1 behaviour is far too large to enumerate; a depth
    // bound keeps the subtree small while still forcing thousands of
    // backtracks through nested TMs, DMs, and plain objects.
    let limits = ExploreLimits {
        max_depth: 6,
        max_schedules: 5_000_000,
    };
    let spec = figure1_spec();
    let oracle = verify_exhaustive_with(&spec, limits, ReplayStrategy::FullReplay)
        .expect("full replay verifies");
    assert!(oracle.stats.truncated, "depth bound must bite");
    for every in [1usize, 3, 4, 8] {
        let report = verify_exhaustive_with(&spec, limits, ReplayStrategy::Checkpoint { every })
            .expect("checkpointed run verifies");
        assert_eq!(report.stats, oracle.stats, "every={every}");
        assert_eq!(
            report.projections_checked, oracle.projections_checked,
            "every={every}"
        );
        // Strictly less replay whenever a snapshot can land inside the
        // bounded tree; with `every` beyond the depth bound only the base
        // snapshot exists and the work matches full replay.
        if every < limits.max_depth {
            assert!(
                report.profile.replayed_steps < oracle.profile.replayed_steps,
                "every={every}: checkpointing must replay strictly less"
            );
        } else {
            assert!(report.profile.replayed_steps <= oracle.profile.replayed_steps);
        }
    }
}
