//! Stage timing behind the `collect` gate.
//!
//! [`Stopwatch`] wraps `Instant` so a timed call site needs no `cfg` of
//! its own: elapsed is 0 ns when collection is compiled out. Per-unit
//! spans with stable IDs are the trace journal's ([`crate::trace`]).

/// A monotonic timer that compiles down to nothing without `collect`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    #[cfg(feature = "collect")]
    start: std::time::Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self {
            #[cfg(feature = "collect")]
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since `start` (0 when collection is compiled out),
    /// saturated to `u64`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "collect")]
        {
            u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
        #[cfg(not(feature = "collect"))]
        {
            0
        }
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let w = Stopwatch::start();
        let a = w.elapsed_ns();
        let b = w.elapsed_ns();
        assert!(b >= a);
    }
}
