//! Latency of the coalescer's production worker on lone requests.
//!
//! A batch closes as soon as the worker finds a request queued, so a
//! lone request waits only for the worker's wakeup, not for a delay
//! window. This suite runs alone in its own binary because it measures
//! wall-clock wakeups: sibling tests competing for the CPU would measure
//! the scheduler instead.

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

/// 240 lone requests, one at a time, under `run_worker` with the default
/// configuration: each closes in a batch of its own, and the median wait
/// from submission to batch close stays under 100 µs. A worker that held
/// a lone request for a delay window (200 µs by default, before batches
/// closed on the first step) fails this.
#[test]
fn lone_requests_close_within_100us() {
    const REQUESTS: usize = 240;
    const LIMIT_NS: u64 = 100_000;
    let clock = Arc::new(SystemClock::new());
    let closes = Arc::new(Mutex::new(Vec::with_capacity(REQUESTS)));
    let scorer = CloseStamps {
        clock: Arc::clone(&clock),
        closes: Arc::clone(&closes),
    };
    let c = Coalescer::with_clock(
        scorer,
        CoalesceConfig::default(),
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
    waits.sort_unstable();
    let median = waits[waits.len() / 2];
    assert!(
        median < LIMIT_NS,
        "median queue wait {median} ns is not under 100 µs \
         (p10 {} ns, p90 {} ns)",
        waits[waits.len() / 10],
        waits[waits.len() * 9 / 10],
    );
}
