//! Open-loop pacing: request `i` is *due* at `i · period` after the phase
//! starts, whatever happened to the requests before it. Latency is taken
//! from the due time, so the wait a stall imposes on later requests is
//! counted, and how late the generator itself ran is reported beside it.

use std::time::{Duration, Instant};

/// The due-time schedule of one paced phase, in nanoseconds from its start.
#[derive(Debug, Clone)]
pub struct Schedule {
    period_ns: u64,
    max_lateness_ns: u64,
}

impl Schedule {
    /// `per_second` requests per second.
    pub fn new(per_second: f64) -> Self {
        Self {
            period_ns: (1e9 / per_second).round() as u64,
            max_lateness_ns: 0,
        }
    }

    /// When request `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// Record that request `i` left at `sent_ns`; returns its lateness.
    pub fn note_sent(&mut self, i: u64, sent_ns: u64) -> u64 {
        let late = sent_ns.saturating_sub(self.due_ns(i));
        self.max_lateness_ns = self.max_lateness_ns.max(late);
        late
    }

    /// Latency of request `i` answered at `done_ns`, from its due time.
    pub fn latency_ns(&self, i: u64, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due_ns(i))
    }

    /// The worst lateness of the generator so far.
    pub fn max_lateness_ns(&self) -> u64 {
        self.max_lateness_ns
    }

    /// Sleep until request `i` is due (returns at once when already late).
    pub fn wait_until_due(&self, start: Instant, i: u64) {
        let due = start + Duration::from_nanos(self.due_ns(i));
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_stamps_due_times_and_reports_lateness() {
        // 16 batches a second: one every 62.5 ms.
        let mut s = Schedule::new(16.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 62_500_000);
        assert_eq!(s.due_ns(16), 1_000_000_000);
        // On time: no lateness; the latency runs from the due time.
        assert_eq!(s.note_sent(1, 62_500_000), 0);
        assert_eq!(s.latency_ns(1, 70_000_000), 7_500_000);
        // A stall: request 2 leaves 40 ms late, and its latency includes
        // that wait even though the server answered in 5 ms.
        assert_eq!(s.note_sent(2, 165_000_000), 40_000_000);
        assert_eq!(s.latency_ns(2, 170_000_000), 45_000_000);
        // An early wake-up is not negative lateness.
        assert_eq!(s.note_sent(3, 187_000_000), 0);
        assert_eq!(s.max_lateness_ns(), 40_000_000);
    }

    #[test]
    fn wait_until_due_returns_at_once_when_late() {
        let s = Schedule::new(1_000.0);
        let start = Instant::now() - Duration::from_secs(1);
        let before = Instant::now();
        s.wait_until_due(start, 5);
        assert!(before.elapsed() < Duration::from_millis(50));
    }
}
