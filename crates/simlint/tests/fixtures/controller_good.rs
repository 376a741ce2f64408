//! Fixture: a disciplined controller — runtime hooks gated.

pub struct GoodCap {
    budget_w: f64,
    waits: u64,
}

impl ClusterController for GoodCap {
    fn wants_runtime_events(&self) -> bool {
        true
    }

    fn on_wait_end(&mut self, now: SimTime, rank: usize, nodes: &[Node]) {
        self.waits += 1;
    }

    fn on_sample(&mut self, now: SimTime, nodes: &[Node], out: &mut Vec<Decision>) {
        out.push(Decision { node: 0, op: 1 });
    }
}
