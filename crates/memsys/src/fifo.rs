//! The bounded triangle FIFO between the geometry stage and a node.
//!
//! Section 8 of the paper: the geometry stage emits triangles in strict
//! stream order; each triangle is pushed into the FIFO of every node whose
//! region it overlaps. When any target FIFO is full the (otherwise ideal)
//! geometry stage blocks — and with it every other node starves once its own
//! FIFO drains. This head-of-line blocking is the *local load imbalance*
//! that makes small buffers expensive, especially with real caches whose
//! miss bursts make node speeds irregular.
//!
//! Because the machine simulation computes each triangle's processing start
//! as soon as it is sent, the FIFO only needs to remember the *start times*
//! of the last `capacity` triangles sent to the node: triangle *n* can only
//! be sent once triangle *n − capacity* has been dequeued (started).

use crate::Cycle;

/// Timing gate of one node's bounded triangle FIFO.
///
/// # Examples
///
/// ```
/// use sortmid_memsys::TriangleFifo;
///
/// let mut fifo = TriangleFifo::new(2);
/// assert_eq!(fifo.earliest_send(), 0);
/// fifo.record_start(10); // triangle 0 dequeued at t=10
/// fifo.record_start(30); // triangle 1 dequeued at t=30
/// // Sending triangle 2 must wait until triangle 0 left the FIFO.
/// assert_eq!(fifo.earliest_send(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct TriangleFifo {
    capacity: usize,
    /// Start (dequeue) times of the last `capacity` triangles, ring-ordered.
    /// Grows lazily up to `capacity`: a deep FIFO on a short stream never
    /// pays for (or zero-fills) slots it does not reach.
    starts: Vec<Cycle>,
    head: usize,
    len: usize,
    total_sent: u64,
}

impl TriangleFifo {
    /// Creates a FIFO gate with room for `capacity` triangles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "triangle FIFO needs at least one entry");
        TriangleFifo {
            capacity,
            starts: Vec::new(),
            head: 0,
            len: 0,
            total_sent: 0,
        }
    }

    /// The FIFO's capacity in triangles.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Earliest cycle at which the geometry stage may send the *next*
    /// triangle to this node: immediately if fewer than `capacity`
    /// triangles are pending, otherwise when the oldest pending triangle is
    /// dequeued.
    pub fn earliest_send(&self) -> Cycle {
        if self.len < self.capacity {
            0
        } else {
            self.starts[self.head]
        }
    }

    /// Records that the triangle just sent will be dequeued (start
    /// processing) at `start`; called right after the send decision, since
    /// the machine computes start times eagerly.
    pub fn record_start(&mut self, start: Cycle) {
        if self.len == self.capacity {
            // Full: the oldest entry leaves and the new one takes its slot
            // (single-step ring advance — no modulo on the hot path).
            self.starts[self.head] = start;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        } else {
            let mut tail = self.head + self.len;
            if tail >= self.capacity {
                tail -= self.capacity;
            }
            if tail == self.starts.len() {
                self.starts.push(start);
            } else {
                self.starts[tail] = start;
            }
            self.len += 1;
        }
        self.total_sent += 1;
    }

    /// Total triangles ever sent through this FIFO.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_until_full() {
        let mut f = TriangleFifo::new(3);
        assert_eq!(f.earliest_send(), 0);
        f.record_start(5);
        f.record_start(9);
        assert_eq!(f.earliest_send(), 0, "two pending out of three");
        f.record_start(12);
        assert_eq!(f.earliest_send(), 5, "full: wait for oldest dequeue");
    }

    #[test]
    fn sliding_window_follows_oldest() {
        let mut f = TriangleFifo::new(2);
        f.record_start(10);
        f.record_start(20);
        assert_eq!(f.earliest_send(), 10);
        f.record_start(30); // evicts the t=10 entry
        assert_eq!(f.earliest_send(), 20);
        f.record_start(40);
        assert_eq!(f.earliest_send(), 30);
        assert_eq!(f.total_sent(), 4);
    }

    #[test]
    fn capacity_one_serialises() {
        let mut f = TriangleFifo::new(1);
        assert_eq!(f.earliest_send(), 0);
        f.record_start(7);
        assert_eq!(f.earliest_send(), 7);
        f.record_start(11);
        assert_eq!(f.earliest_send(), 11);
    }

    #[test]
    fn deep_fifo_rarely_constrains() {
        let mut f = TriangleFifo::new(10_000);
        for t in 0..5_000 {
            f.record_start(t);
            assert_eq!(f.earliest_send(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        TriangleFifo::new(0);
    }

    #[test]
    fn gate_is_monotone_under_ordered_starts() {
        use sortmid_devharness::prop::{check, Config};
        use sortmid_devharness::prop_assert;
        check(
            "gate_is_monotone_under_ordered_starts",
            &Config::default(),
            |g| {
                (
                    g.usize_in(1..32),
                    g.vec(1..100, |g| g.u64_below(50)),
                )
            },
            |(capacity, deltas)| {
                let mut fifo = TriangleFifo::new(*capacity);
                let mut t = 0u64;
                let mut last_gate = 0u64;
                for &d in deltas {
                    t += d;
                    fifo.record_start(t);
                    let gate = fifo.earliest_send();
                    prop_assert!(gate >= last_gate, "gate went backwards: {gate} < {last_gate}");
                    prop_assert!(gate <= t, "gate beyond the newest start");
                    last_gate = gate;
                }
                Ok(())
            },
        );
    }
}
