//! Small example automata used in documentation and tests.
//!
//! These are not part of the paper's model; they exist to exercise (and to
//! demonstrate) composition, execution, and schedule replay on something
//! simpler than a nested transaction system.

use std::any::Any;

use crate::component::{Component, OpClass};

/// Operations shared by the toy automata.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ToyOp {
    /// Producer emits item `i` (output of [`Producer`], input of
    /// [`Channel`]).
    Send(u32),
    /// Channel delivers item `i` (output of [`Channel`]).
    Deliver(u32),
}

/// Emits `Send(0), Send(1), …, Send(n-1)` in order.
#[derive(Clone, Debug)]
pub struct Producer {
    limit: u32,
    next: u32,
}

impl Producer {
    /// A producer that sends `limit` items.
    pub fn new(limit: u32) -> Self {
        Producer { limit, next: 0 }
    }

    /// How many items have been sent so far.
    pub fn sent(&self) -> u32 {
        self.next
    }
}

impl Component<ToyOp> for Producer {
    fn name(&self) -> String {
        "producer".into()
    }

    fn classify(&self, op: &ToyOp) -> OpClass {
        match op {
            ToyOp::Send(_) => OpClass::Output,
            ToyOp::Deliver(_) => OpClass::NotMine,
        }
    }

    fn reset(&mut self) {
        self.next = 0;
    }

    fn enabled_outputs(&self) -> Vec<ToyOp> {
        if self.next < self.limit {
            vec![ToyOp::Send(self.next)]
        } else {
            Vec::new()
        }
    }

    fn apply(&mut self, op: &ToyOp) -> Result<(), String> {
        match op {
            ToyOp::Send(i) if *i == self.next && self.next < self.limit => {
                self.next += 1;
                Ok(())
            }
            ToyOp::Send(i) => Err(format!("Send({i}) not enabled; next is {}", self.next)),
            ToyOp::Deliver(_) => Ok(()),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_boxed(&self) -> Box<dyn Component<ToyOp>> {
        Box::new(self.clone())
    }
}

/// A bounded FIFO channel: buffers `Send`s, outputs `Deliver`s in order.
#[derive(Clone, Debug)]
pub struct Channel {
    capacity: usize,
    buffer: Vec<u32>,
    delivered: Vec<u32>,
}

impl Channel {
    /// A channel with the given buffer capacity.
    ///
    /// The input condition obliges the channel to accept a `Send` even when
    /// full; overflowing items are dropped (and recorded nowhere), which is
    /// a legitimate — if lossy — automaton.
    pub fn new(capacity: usize) -> Self {
        Channel {
            capacity,
            buffer: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Items delivered so far, in order.
    pub fn delivered(&self) -> &[u32] {
        &self.delivered
    }
}

impl Component<ToyOp> for Channel {
    fn name(&self) -> String {
        "channel".into()
    }

    fn classify(&self, op: &ToyOp) -> OpClass {
        match op {
            ToyOp::Send(_) => OpClass::Input,
            ToyOp::Deliver(_) => OpClass::Output,
        }
    }

    fn reset(&mut self) {
        self.buffer.clear();
        self.delivered.clear();
    }

    fn enabled_outputs(&self) -> Vec<ToyOp> {
        self.buffer
            .first()
            .map(|&i| ToyOp::Deliver(i))
            .into_iter()
            .collect()
    }

    fn apply(&mut self, op: &ToyOp) -> Result<(), String> {
        match op {
            ToyOp::Send(i) => {
                if self.buffer.len() < self.capacity {
                    self.buffer.push(*i);
                }
                Ok(())
            }
            ToyOp::Deliver(i) => {
                if self.buffer.first() == Some(i) {
                    self.buffer.remove(0);
                    self.delivered.push(*i);
                    Ok(())
                } else {
                    Err(format!(
                        "Deliver({i}) not at head of buffer {:?}",
                        self.buffer
                    ))
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_boxed(&self) -> Box<dyn Component<ToyOp>> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, FnMonitor, IoaError, Schedule, System, WeightedPolicy};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_system(n: u32, cap: usize) -> System<ToyOp> {
        let mut s = System::new();
        s.push(Box::new(Producer::new(n)));
        s.push(Box::new(Channel::new(cap)));
        s
    }

    #[test]
    fn runs_to_quiescence_and_delivers_in_order() {
        let mut sys = toy_system(5, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let exec = Executor::new().run(&mut sys, &mut rng).unwrap();
        assert!(exec.is_quiescent());
        let chan: &Channel = sys.component_as("channel").unwrap();
        assert_eq!(chan.delivered(), &[0, 1, 2, 3, 4]);
        // 5 sends + 5 delivers.
        assert_eq!(exec.schedule().len(), 10);
    }

    #[test]
    fn schedule_replays_exactly() {
        let mut sys = toy_system(4, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let exec = Executor::new().run(&mut sys, &mut rng).unwrap();
        let mut sys2 = toy_system(4, 2);
        sys2.replay(exec.schedule()).unwrap();
    }

    #[test]
    fn tampered_schedule_is_rejected() {
        let mut sys = toy_system(3, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let exec = Executor::new().run(&mut sys, &mut rng).unwrap();
        let mut ops = exec.into_schedule().into_vec();
        // Deliver something never sent.
        ops.push(ToyOp::Deliver(99));
        let err = sys.replay(&ops.into()).unwrap_err();
        match err {
            IoaError::StepRefused { at, .. } => assert_eq!(at, Some(6)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn step_bound_is_respected() {
        let mut sys = toy_system(100, 100);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let exec = Executor::new()
            .max_steps(7)
            .run(&mut sys, &mut rng)
            .unwrap();
        assert_eq!(exec.schedule().len(), 7);
        assert!(!exec.is_quiescent());
    }

    #[test]
    fn monitor_violation_stops_the_run() {
        let mut sys = toy_system(5, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let monitor = FnMonitor::new("at-most-2-delivered", |sys: &System<ToyOp>, _, _| {
            let chan: &Channel = sys.component_as("channel").unwrap();
            if chan.delivered().len() > 2 {
                Err(format!("{} delivered", chan.delivered().len()))
            } else {
                Ok(())
            }
        });
        let err = Executor::new()
            .monitor(monitor)
            .run(&mut sys, &mut rng)
            .unwrap_err();
        assert!(matches!(err, IoaError::Monitor(_)));
    }

    #[test]
    fn weighted_policy_prefers_heavy_ops() {
        // Weight delivers at 0 while sends remain: all sends happen first.
        let mut sys = toy_system(3, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let policy = WeightedPolicy::new(|op: &ToyOp| match op {
            ToyOp::Send(_) => 100,
            ToyOp::Deliver(_) => 0,
        });
        let exec = Executor::new()
            .policy(policy)
            .run(&mut sys, &mut rng)
            .unwrap();
        let sched = exec.schedule();
        assert!(matches!(sched[0], ToyOp::Send(0)));
        assert!(matches!(sched[1], ToyOp::Send(1)));
        assert!(matches!(sched[2], ToyOp::Send(2)));
    }

    #[test]
    fn lossy_channel_accepts_sends_when_full() {
        // Capacity 1, deliver never chosen until the end: sends overflow.
        let mut sys = toy_system(3, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let policy = WeightedPolicy::new(|op: &ToyOp| match op {
            ToyOp::Send(_) => 100,
            ToyOp::Deliver(_) => 1,
        });
        // Should not error: the input condition means Send is always OK.
        Executor::new()
            .policy(policy)
            .run(&mut sys, &mut rng)
            .unwrap();
    }

    #[test]
    fn projection_restricts_to_component() {
        let mut sys = toy_system(4, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let exec = Executor::new().run(&mut sys, &mut rng).unwrap();
        let sched: &Schedule<ToyOp> = exec.schedule();
        let sends = sched.project(|op| matches!(op, ToyOp::Send(_)));
        assert_eq!(sends.len(), 4);
    }
}
