//! Deterministic virtual time.
//!
//! All simulated devices share one [`SimClock`]. Device operations *advance*
//! the clock by their modeled cost; benchmark harnesses read elapsed virtual
//! time instead of host wall time, making results deterministic and
//! host-independent.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimInstant = SimInstant(0);

    /// The largest representable instant; used as an "end of time" sentinel.
    pub const MAX: SimInstant = SimInstant(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimInstant(ns)
    }

    /// Nanoseconds since the simulation epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since the simulation epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Fractional seconds since the simulation epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimInstant) -> SimDuration {
        SimDuration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// This instant advanced by `d`, saturating at [`SimInstant::MAX`].
    #[must_use]
    pub fn plus(self, d: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(d.as_nanos()))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating on overflow.
    ///
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Sum of two durations, saturating.
    #[must_use]
    pub fn plus(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// This duration scaled by `n`, saturating.
    #[must_use]
    pub fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.plus(rhs)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = self.plus(rhs);
    }
}

/// A shared, thread-safe, monotonically advancing virtual clock.
///
/// Cloning a `SimClock` yields a handle to the same underlying time source.
/// Time only moves when a device (or a test) calls [`SimClock::advance`];
/// there is no background ticking, so identical workloads always produce
/// identical timings.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a new clock at the epoch.
    pub fn new() -> Self {
        SimClock {
            nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimInstant {
        SimInstant(self.nanos.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: SimDuration) -> SimInstant {
        let prev = self.nanos.fetch_add(d.as_nanos(), Ordering::SeqCst);
        SimInstant(prev.saturating_add(d.as_nanos()))
    }

    /// Runs `f` and returns its result together with the virtual time it took.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, SimDuration) {
        let start = self.now();
        let out = f();
        (out, self.now().since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_epoch() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimInstant::EPOCH);
        assert_eq!(c.now().as_nanos(), 0);
    }

    #[test]
    fn advance_moves_time_forward() {
        let c = SimClock::new();
        c.advance(SimDuration::from_millis(5));
        assert_eq!(c.now().as_nanos(), 5_000_000);
        c.advance(SimDuration::from_micros(1));
        assert_eq!(c.now().as_nanos(), 5_001_000);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_secs(1));
        assert_eq!(b.now().as_secs(), 1);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::from_nanos(100);
        let t1 = t0.plus(SimDuration::from_nanos(50));
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!(t1.since(t0).as_nanos(), 50);
        // Saturating, never panics.
        assert_eq!(t0.since(t1), SimDuration::ZERO);
    }

    #[test]
    fn duration_from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn timed_measures_virtual_not_wall_time() {
        let c = SimClock::new();
        let (val, took) = c.timed(|| {
            c.advance(SimDuration::from_millis(7));
            42
        });
        assert_eq!(val, 42);
        assert_eq!(took, SimDuration::from_millis(7));
    }

    #[test]
    fn duration_ops() {
        let a = SimDuration::from_millis(2);
        let b = SimDuration::from_millis(3);
        assert_eq!((a + b).as_millis_f64(), 5.0);
        assert_eq!(a.times(4).as_millis_f64(), 8.0);
        let mut acc = SimDuration::ZERO;
        acc += b;
        assert_eq!(acc, b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(1500)), "1.500000s");
        assert_eq!(
            format!("{}", SimInstant::from_nanos(2_000_000_000)),
            "t+2.000000s"
        );
    }
}
