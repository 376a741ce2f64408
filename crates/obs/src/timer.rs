//! Host wall-clock timing, kept apart from simulated time: nothing here
//! ever feeds a deterministic export.

use std::time::{Duration, Instant};

/// RAII wall-clock timer for coarse host-side phases (build, run, export).
/// Purely a measurement convenience; never feeds deterministic output.
#[derive(Debug)]
pub struct WallTimer {
    start: Instant,
}

impl WallTimer {
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned host clock: WallTimer readings never feed deterministic output"
    )]
    pub fn start() -> Self {
        WallTimer {
            start: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_timer_runs() {
        let w = WallTimer::start();
        assert!(w.elapsed() >= Duration::ZERO);
    }
}
