//! Open-loop pacing: operations are due on a fixed schedule whether or not
//! the system keeps up, and each is timed from when it was *due*, so a
//! stall charges every operation it delays.

use std::time::{Duration, Instant};

/// A schedule of equal slots starting at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    slot: Duration,
}

impl Schedule {
    pub fn new(start: Instant, slot: Duration) -> Self {
        Schedule { start, slot }
    }

    /// When slot number `n` is due.
    pub fn due(&self, n: u64) -> Instant {
        self.start + self.slot.mul_f64(n as f64)
    }

    /// Sleeps until slot `n` is due (returns at once when already late) and
    /// gives the time the slot's work actually starts.
    pub fn wait_for(&self, n: u64) -> Instant {
        let due = self.due(n);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            return Instant::now();
        }
        now
    }
}

/// What one operation of slot `due` cost its caller: the time from when it
/// was due to when it finished, and whether it was sent late (more than one
/// slot after it was due).
pub fn account(due: Instant, sent: Instant, done: Instant, slot: Duration) -> (u64, bool) {
    let latency = done.saturating_duration_since(due).as_nanos() as u64;
    let late = sent.saturating_duration_since(due) > slot;
    (latency, late)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let t0 = Instant::now();
        let slot = Duration::from_millis(1);
        let s = Schedule::new(t0, slot);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(250), t0 + Duration::from_millis(250));

        // Sent on time, served in 40 µs.
        let due = s.due(3);
        let (lat, late) = account(due, due, due + Duration::from_micros(40), slot);
        assert_eq!((lat, late), (40_000, false));

        // The generator stalled 5 ms: the operation itself took 40 µs but
        // its caller waited 5.04 ms, and the send was late.
        let sent = due + Duration::from_millis(5);
        let (lat, late) = account(due, sent, sent + Duration::from_micros(40), slot);
        assert_eq!((lat, late), (5_040_000, true));

        // Up to one slot of lateness is normal batching, not a late send.
        let sent = due + Duration::from_micros(900);
        assert!(!account(due, sent, sent, slot).1);
    }

    #[test]
    fn waiting_for_a_past_slot_returns_immediately() {
        let s = Schedule::new(
            Instant::now() - Duration::from_secs(1),
            Duration::from_millis(1),
        );
        let before = Instant::now();
        let started = s.wait_for(10);
        assert!(started.duration_since(before) < Duration::from_millis(50));
        // A future slot is waited for.
        let s = Schedule::new(Instant::now(), Duration::from_millis(5));
        assert!(s.wait_for(2) >= s.due(2));
    }
}
