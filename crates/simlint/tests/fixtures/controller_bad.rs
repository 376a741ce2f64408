//! Fixture: controller-discipline violation — a runtime hook overridden
//! without the `wants_runtime_events` gate.

pub struct BadCap {
    budget_w: f64,
}

impl ClusterController for BadCap {
    fn on_wait_begin(&mut self, now: SimTime, rank: usize, nodes: &[Node]) {
        self.budget_w -= 1.0;
    }
}
