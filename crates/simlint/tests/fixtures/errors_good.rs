//! Fixture: disciplined error handling produces zero findings.

#[must_use]
pub struct RunResult {
    pub joules: f64,
}

fn careful(v: &[u32], pair: &mut [u32; 2]) -> Option<u32> {
    *pair = [1, 2];
    v.first().copied()
}

#[must_use]
pub fn run_batch_fixture() -> u32 {
    0
}

#[must_use]
pub fn read_sensor() -> Result<f64, String> {
    Ok(0.0)
}

#[cfg(test)]
mod tests {
    // Tests index freely: literal-index is exempt here.
    #[test]
    fn indexes_fine() {
        let v = [1u32, 2];
        assert_eq!(v[0], 1);
    }
}
