//! The open-loop load generator and FIFO completion matching.
//!
//! One generator thread submits each request at its scheduled time,
//! whatever the coalescer is doing, and between submissions polls the
//! oldest outstanding ticket with [`Ticket::try_take`]. The coalescer
//! retires requests in admission order (batches drain its queue front
//! first and expired requests leave from the front), so polling only
//! the oldest ticket stamps every completion the moment it is seen,
//! without a third thread. Latency runs from the *scheduled* send, so a
//! generator that falls behind charges its lateness to the requests it
//! delayed rather than hiding it.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ssf_repro::dyngraph::NodeId;
use ssf_repro::{BatchScorer, Coalescer, Rejection, Ticket};

use crate::config::{nanos, DRAIN_LIMIT};

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Scored; `None` is a degenerate pair.
    Scored(Option<f64>),
    /// Refused at admission: the queue was full.
    Shed,
    /// Its deadline passed at admission or in the queue.
    Expired,
    /// The coalescer was shut down.
    Closed,
}

impl Outcome {
    fn of(r: Result<Option<f64>, Rejection>) -> Outcome {
        match r {
            Ok(s) => Outcome::Scored(s),
            Err(Rejection::Overloaded { .. }) => Outcome::Shed,
            Err(Rejection::DeadlineExceeded) => Outcome::Expired,
            Err(_) => Outcome::Closed,
        }
    }

    /// Whether the request produced a score.
    pub fn scored(&self) -> bool {
        matches!(self, Outcome::Scored(Some(_)))
    }
}

/// One request's timeline, in ns from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The pair asked for.
    pub pair: (NodeId, NodeId),
    /// When it was due to be sent.
    pub due_ns: u64,
    /// When the generator sent it.
    pub sent_ns: u64,
    /// When its outcome was seen (the send time for a refusal).
    pub done_ns: u64,
    /// What became of it.
    pub outcome: Outcome,
}

impl Sample {
    /// Scheduled send to completion seen.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

fn since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sends `pairs[i]` at `t0 + due_ns[i]` and returns every request's
/// timeline in send order, once all have resolved.
///
/// # Errors
///
/// When requests are still outstanding [`DRAIN_LIMIT`] after the last
/// arrival — the coalescer lost them.
pub fn run<S: BatchScorer>(
    c: &Coalescer<S>,
    t0: Instant,
    due_ns: &[u64],
    pairs: &[(NodeId, NodeId)],
) -> Result<Vec<Sample>, String> {
    assert_eq!(due_ns.len(), pairs.len(), "one pair per arrival");
    let mut samples: Vec<Sample> = Vec::with_capacity(pairs.len());
    let mut pending: VecDeque<(usize, Ticket)> = VecDeque::new();
    let end_ns = due_ns.last().copied().unwrap_or(0);
    let drain_limit = end_ns.saturating_add(nanos(DRAIN_LIMIT));
    loop {
        let now = since(t0);
        if let Some(&due) = due_ns.get(samples.len()) {
            if now >= due {
                let pair = pairs[samples.len()];
                let mut s = Sample {
                    pair,
                    due_ns: due,
                    sent_ns: now,
                    done_ns: now,
                    outcome: Outcome::Closed,
                };
                match c.submit(pair.0, pair.1) {
                    Ok(ticket) => pending.push_back((samples.len(), ticket)),
                    Err(r) => s.outcome = Outcome::of(Err(r)),
                }
                samples.push(s);
            }
        } else if pending.is_empty() {
            return Ok(samples);
        } else if now > drain_limit {
            return Err(format!(
                "{} requests unresolved {DRAIN_LIMIT:?} after the last arrival",
                pending.len()
            ));
        }
        while let Some((i, ticket)) = pending.front() {
            let Some(r) = ticket.try_take() else { break };
            samples[*i].done_ns = since(t0);
            samples[*i].outcome = Outcome::of(r);
            pending.pop_front();
        }
        std::hint::spin_loop();
    }
}

/// One dispatched batch, timed by [`Timed`] (ns from the phase start).
#[derive(Debug, Clone)]
pub struct BatchLog {
    /// When scoring began.
    pub start_ns: u64,
    /// When scoring returned.
    pub end_ns: u64,
    /// The pairs, in queue order.
    pub pairs: Vec<(NodeId, NodeId)>,
}

/// A [`BatchScorer`] that times every batch the coalescer dispatches to
/// the scorer it wraps, and keeps the batch for replay.
pub struct Timed<S> {
    inner: S,
    origin: Instant,
    log: Arc<Mutex<Vec<BatchLog>>>,
}

impl<S> Timed<S> {
    /// Wraps `inner`; batch times are taken relative to `origin`.
    pub fn new(inner: S, origin: Instant) -> (Self, Arc<Mutex<Vec<BatchLog>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (
            Timed {
                inner,
                origin,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl<S: BatchScorer> BatchScorer for Timed<S> {
    fn epoch_key(&self) -> u64 {
        self.inner.epoch_key()
    }

    fn score_batch_threads(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>> {
        let start_ns = since(self.origin);
        let scores = self.inner.score_batch_threads(pairs, threads);
        let end_ns = since(self.origin);
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(BatchLog {
                start_ns,
                end_ns,
                pairs: pairs.to_vec(),
            });
        scores
    }
}

/// The batch that served each request: scored requests in send order
/// fill the batches in dispatch order. `None` for requests never
/// dispatched (refused or expired).
///
/// # Errors
///
/// When the batch sizes do not add up to the dispatched requests, or a
/// batch holds a pair other than the request matched to it.
pub fn match_fifo(
    samples: &[Sample],
    batches: &[BatchLog],
) -> Result<Vec<Option<usize>>, String> {
    let mut out = vec![None; samples.len()];
    let mut dispatched = samples
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.outcome, Outcome::Scored(_)));
    for (b, batch) in batches.iter().enumerate() {
        for &pair in &batch.pairs {
            let Some((i, s)) = dispatched.next() else {
                return Err(format!(
                    "batch {b} holds more pairs than were sent"
                ));
            };
            if s.pair != pair {
                return Err(format!(
                    "batch {b} holds {pair:?} where request {i} sent {:?}",
                    s.pair
                ));
            }
            out[i] = Some(b);
        }
    }
    match dispatched.next() {
        Some((i, _)) => Err(format!("request {i} scored but never dispatched")),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssf_repro::{CoalesceConfig, SystemClock};

    fn sample(pair: (NodeId, NodeId), outcome: Outcome) -> Sample {
        Sample {
            pair,
            due_ns: 0,
            sent_ns: 0,
            done_ns: 0,
            outcome,
        }
    }

    fn batch(pairs: &[(NodeId, NodeId)]) -> BatchLog {
        BatchLog {
            start_ns: 0,
            end_ns: 0,
            pairs: pairs.to_vec(),
        }
    }

    #[test]
    fn fifo_matching_skips_refused_and_expired_requests() {
        let s = [
            sample((1, 2), Outcome::Scored(Some(0.5))),
            sample((3, 4), Outcome::Shed),
            sample((5, 6), Outcome::Scored(Some(0.1))),
            sample((7, 8), Outcome::Expired),
            sample((9, 1), Outcome::Scored(Some(0.9))),
        ];
        let b = [batch(&[(1, 2), (5, 6)]), batch(&[(9, 1)])];
        assert_eq!(
            match_fifo(&s, &b),
            Ok(vec![Some(0), None, Some(0), None, Some(1)])
        );
        assert!(
            match_fifo(&s, &b[..1]).is_err(),
            "a scored request unmatched"
        );
        let swapped = [batch(&[(5, 6), (1, 2)]), batch(&[(9, 1)])];
        assert!(match_fifo(&s, &swapped).is_err(), "order must be FIFO");
    }

    /// Scores `u + v`; enough to drive the real coalescer.
    struct Sum;

    impl BatchScorer for Sum {
        fn epoch_key(&self) -> u64 {
            1
        }

        fn score_batch_threads(
            &self,
            pairs: &[(NodeId, NodeId)],
            _threads: usize,
        ) -> Vec<Option<f64>> {
            pairs.iter().map(|&(u, v)| Some(f64::from(u + v))).collect()
        }
    }

    #[test]
    fn generator_stamps_every_completion_in_fifo_order() {
        let t0 = Instant::now();
        let (scorer, log) = Timed::new(Sum, t0);
        let config = CoalesceConfig::builder()
            .max_batch(4)
            .max_delay_ns(50_000)
            .queue_capacity(1024)
            .build()
            .expect("valid");
        let c =
            Coalescer::with_clock(scorer, config, Arc::new(SystemClock::new()));
        let due: Vec<u64> = (0..200).map(|i| i * 20_000).collect();
        let pairs: Vec<(NodeId, NodeId)> =
            (0..200).map(|i| (i, i + 1)).collect();
        let samples = std::thread::scope(|s| {
            let worker = s.spawn(|| c.run_worker());
            let out = run(&c, t0, &due, &pairs);
            c.shutdown();
            worker.join().expect("worker");
            out
        })
        .expect("all resolved");
        assert_eq!(samples.len(), 200);
        for (s, &(u, v)) in samples.iter().zip(&pairs) {
            assert_eq!(s.outcome, Outcome::Scored(Some(f64::from(u + v))));
            assert!(s.sent_ns >= s.due_ns && s.done_ns >= s.sent_ns);
        }
        let log = log.lock().expect("log");
        let matched = match_fifo(&samples, &log).expect("FIFO");
        for (s, b) in samples.iter().zip(&matched) {
            let b = &log[b.expect("dispatched")];
            assert!(b.start_ns >= s.sent_ns && s.done_ns >= b.end_ns);
        }
    }
}
