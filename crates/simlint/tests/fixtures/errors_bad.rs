//! Fixture: error-discipline violations — literal indexing and
//! measurement APIs without `#[must_use]`. Linted under a
//! measurement-crate path so the Result rule applies.

pub struct RunResult {
    pub joules: f64,
}

fn indexed(v: &[u32]) -> u32 {
    v[0]
}

pub fn run_batch_fixture() -> u32 {
    0
}

pub fn read_sensor() -> Result<f64, String> {
    Ok(0.0)
}
