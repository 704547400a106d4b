//! Wakeup precision of the coalescer's production worker.
//!
//! A lone request waits for `max_delay`, so its queue wait is the
//! worker's timed park. On Linux every timed wait may end up to the
//! thread's timer slack late (50 µs by default, a quarter of a 200 µs
//! window); `run_worker` lowers the slack to its minimum so batches close
//! when `max_delay` says. This suite runs alone in its own binary because
//! it measures wall-clock wakeups: sibling tests competing for the CPU
//! would measure the scheduler instead.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex, PoisonError};

use ssf_repro::dyngraph::NodeId;
use ssf_repro::{BatchScorer, Clock, CoalesceConfig, Coalescer, SystemClock};

/// Records the clock at every batch it is handed; scores are constant.
struct CloseStamps {
    clock: Arc<SystemClock>,
    closes: Arc<Mutex<Vec<u64>>>,
}

impl BatchScorer for CloseStamps {
    fn epoch_key(&self) -> u64 {
        0
    }

    fn score_batch_threads(
        &self,
        pairs: &[(NodeId, NodeId)],
        _threads: usize,
    ) -> Vec<Option<f64>> {
        let now = self.clock.now_ns();
        self.closes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(now);
        vec![Some(0.0); pairs.len()]
    }
}

/// 240 lone requests, one at a time: each batch closes on `max_delay`
/// alone, and the median wait from submission to batch close stays
/// within 25 µs of it. With the default 50 µs slack the median reads
/// about `max_delay` + 53 µs.
#[test]
fn lone_requests_close_within_25us_of_max_delay() {
    const REQUESTS: usize = 240;
    const MAX_DELAY_NS: u64 = 200_000;
    const TOLERANCE_NS: u64 = 25_000;
    let clock = Arc::new(SystemClock::new());
    let closes = Arc::new(Mutex::new(Vec::with_capacity(REQUESTS)));
    let scorer = CloseStamps {
        clock: Arc::clone(&clock),
        closes: Arc::clone(&closes),
    };
    let config = CoalesceConfig::builder()
        .max_batch(32)
        .max_delay_ns(MAX_DELAY_NS)
        .build()
        .expect("valid");
    let c = Coalescer::with_clock(
        scorer,
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let worker = {
        let c = c.clone();
        std::thread::spawn(move || c.run_worker())
    };
    let mut submitted = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        submitted.push(clock.now_ns());
        let ticket = c.submit(0, 1).expect("admitted");
        assert_eq!(ticket.wait(), Ok(Some(0.0)));
    }
    c.shutdown();
    worker.join().expect("worker");
    let stats = c.stats();
    assert_eq!(stats.batches, REQUESTS as u64, "every request alone");

    let closes = closes.lock().unwrap_or_else(PoisonError::into_inner);
    let mut waits: Vec<u64> = closes
        .iter()
        .zip(&submitted)
        .map(|(&close, &sub)| close - sub)
        .collect();
    assert!(
        waits.iter().all(|&w| w >= MAX_DELAY_NS),
        "a lone request closed before max_delay"
    );
    waits.sort_unstable();
    let median = waits[waits.len() / 2];
    assert!(
        median < MAX_DELAY_NS + TOLERANCE_NS,
        "median queue wait {median} ns exceeds max_delay + 25 µs \
         (p10 {} ns, p90 {} ns)",
        waits[waits.len() / 10],
        waits[waits.len() * 9 / 10],
    );
}
