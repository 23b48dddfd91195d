//! Property tests for the explorer's state-reconstruction strategies:
//! checkpointed exploration (any interval) and the parallel root-branch
//! fan-out must produce [`ExploreStats`] identical to the full-replay
//! oracle on random toy systems, and never more replay work.

use ioa::toy::{Channel, Producer, ToyOp};
use ioa::{explore_parallel, explore_profiled, ExploreLimits, ReplayStrategy, Schedule, System};
use proptest::prelude::*;

fn factory(n: u32, cap: usize) -> impl FnMut() -> System<ToyOp> {
    move || {
        let mut s = System::new();
        s.push(Box::new(Producer::new(n)));
        s.push(Box::new(Channel::new(cap)));
        s
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn checkpointing_matches_full_replay(
        n in 1u32..5,
        cap in 1usize..4,
        every in 1usize..9,
        max_depth in 1usize..12,
    ) {
        let limits = ExploreLimits { max_depth, max_schedules: 1_000_000 };
        let (oracle, oracle_prof) = explore_profiled(
            factory(n, cap),
            limits,
            ReplayStrategy::FullReplay,
            |_| true,
            |_, _, _| Ok::<(), String>(()),
        )
        .unwrap();
        let (stats, prof) = explore_profiled(
            factory(n, cap),
            limits,
            ReplayStrategy::Checkpoint { every },
            |_| true,
            |_, _, _| Ok::<(), String>(()),
        )
        .unwrap();
        prop_assert_eq!(stats, oracle);
        prop_assert!(prof.replayed_steps <= oracle_prof.replayed_steps);
    }

    #[test]
    fn parallel_matches_serial(
        n in 1u32..5,
        cap in 1usize..4,
        threads in 1usize..6,
        max_depth in 1usize..12,
    ) {
        let limits = ExploreLimits { max_depth, max_schedules: 1_000_000 };
        let (serial, _) = explore_profiled(
            factory(n, cap),
            limits,
            ReplayStrategy::default(),
            |_| true,
            |_, _, _| Ok::<(), String>(()),
        )
        .unwrap();
        let (par, _) = explore_parallel(
            || factory(n, cap),
            limits,
            ReplayStrategy::default(),
            |_: &ToyOp| true,
            || |_: &System<ToyOp>, _: &Schedule<ToyOp>, _| Ok::<(), String>(()),
            threads,
        )
        .unwrap();
        prop_assert_eq!(par, serial);
    }
}
