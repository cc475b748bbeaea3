//! Trajectory recording: sampled snapshots of a running simulation.
//!
//! Experiment harnesses need time series ("count of state s at time t",
//! "max field value seen so far") rather than just final outcomes. A
//! [`Trace`] collects user-defined summaries on a fixed parallel-time cadence;
//! `pp_core::trace::run_with_trace` fills one from a `Simulation` observer.

/// One sampled point of a trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint<T> {
    /// Parallel time of the sample.
    pub time: f64,
    /// User-defined summary value at that time.
    pub value: T,
}

/// A recorded trajectory of summary values.
#[derive(Debug, Clone, Default)]
pub struct Trace<T> {
    points: Vec<TracePoint<T>>,
}

impl<T> Trace<T> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Appends a sample.
    pub fn push(&mut self, time: f64, value: T) {
        self.points.push(TracePoint { time, value });
    }

    /// All recorded points in time order.
    pub fn points(&self) -> &[TracePoint<T>] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded point, if any.
    pub fn last(&self) -> Option<&TracePoint<T>> {
        self.points.last()
    }

    /// First time at which `pred(value)` holds, scanning in time order.
    pub fn first_time(&self, mut pred: impl FnMut(&T) -> bool) -> Option<f64> {
        self.points.iter().find(|p| pred(&p.value)).map(|p| p.time)
    }

    /// Maps the values of the trace, keeping times.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Trace<U> {
        Trace {
            points: self
                .points
                .iter()
                .map(|p| TracePoint {
                    time: p.time,
                    value: f(&p.value),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_basics() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(0.0, 1);
        t.push(1.0, 5);
        t.push(2.0, 9);
        assert_eq!(t.len(), 3);
        assert_eq!(t.last().unwrap().value, 9);
        assert_eq!(t.first_time(|&v| v >= 5), Some(1.0));
        assert_eq!(t.first_time(|&v| v >= 100), None);
        let doubled = t.map(|v| v * 2);
        assert_eq!(doubled.points()[2].value, 18);
    }
}
