//! Open-loop load generator and the max-rate search.
//!
//! Requests are due every `1 / rate` seconds from the start of a step,
//! whatever the service does. Each connection thread takes the next due
//! request, waits until it is due, sends it, and blocks for the
//! answer, so at most one request per connection is in flight. When the
//! service falls behind, requests go out late; the latency of every
//! request is measured from its *due* time, so a stall is charged to all
//! the requests queued behind it, and the generator reports how late it
//! sent (its lateness). A step whose lateness grows from its first third
//! to its last third has a growing backlog and does not count as
//! sustained.

use crate::stats::percentile;
use crate::trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One connection to the service under test.
pub(crate) trait Client: Send {
    /// Sends one request frame body and returns the response body.
    fn call(&mut self, body: &[u8]) -> Result<Vec<u8>, String>;
}

/// What happened to one request.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample {
    pub(crate) kind: usize,
    /// Due time to response, in ms; infinite when the request failed.
    pub(crate) latency_ms: f64,
    /// Send time minus due time, in ms (0 when sent on time).
    pub(crate) lateness_ms: f64,
    pub(crate) ok: bool,
}

/// All samples of one fixed-rate step, in due order.
pub(crate) struct Step {
    pub(crate) samples: Vec<Sample>,
}

/// Median lateness may grow by at most this much between the first and
/// the last third of a step before the backlog counts as growing.
const LATENESS_GROWTH_MS: f64 = 5.0;

impl Step {
    /// Latencies with failed requests as infinite, so a failure counts as
    /// missing any latency limit.
    pub(crate) fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    /// Median lateness of the last third minus that of the first third.
    pub(crate) fn lateness_growth_ms(&self) -> f64 {
        let third = self.samples.len() / 3;
        if third == 0 {
            return 0.0;
        }
        let late = |xs: &[Sample]| {
            crate::stats::median(&xs.iter().map(|s| s.lateness_ms).collect::<Vec<_>>())
        };
        let n = self.samples.len();
        late(&self.samples[n - third..]) - late(&self.samples[..third])
    }

    /// Whether the step met the latency limit at `permille` without a
    /// growing backlog.
    pub(crate) fn sustained(&self, permille: u32, limit_ms: f64) -> bool {
        percentile(&self.latencies(), permille) <= limit_ms
            && self.lateness_growth_ms() <= LATENESS_GROWTH_MS
    }
}

/// Offers `kinds.len()` requests at `rate` per second, one every
/// `1 / rate` seconds, across `clients`. `frames[kind]` is the request
/// body; `check(kind, response)` decides whether the answer is correct.
/// With tracing on, every request gets a span carrying its index as
/// request id, on its connection's track.
pub(crate) fn run_step<C: Client>(
    clients: &mut [C],
    rate: f64,
    kinds: &[usize],
    frames: &[Vec<u8>],
    check: &(dyn Fn(usize, &[u8]) -> bool + Sync),
    tracer: &Tracer,
) -> Step {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let per_client: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let root = tracer.open("client.connection", None, None);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&kind) = kinds.get(i) else { break };
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let span = tracer.open(crate::spec::KINDS[kind], root, Some(i as u64));
                        let answer = client.call(&frames[kind]);
                        tracer.close(span);
                        let done = Instant::now();
                        let ok = matches!(&answer, Ok(body) if check(kind, body));
                        let lateness = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
                        let latency = done.saturating_duration_since(due).as_secs_f64() * 1e3;
                        out.push((
                            i,
                            Sample {
                                kind,
                                latency_ms: if ok { latency } else { f64::INFINITY },
                                lateness_ms: lateness,
                                ok,
                            },
                        ));
                    }
                    tracer.close(root);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, Sample)> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    Step {
        samples: all.into_iter().map(|(_, s)| s).collect(),
    }
}

/// Highest rate in `[lo, hi]` (widened when the bracket is wrong) for
/// which `sustained` holds, found by bisection in log space until the
/// bracket is within `tolerance` (0.05 = 5 %). Returns the highest rate
/// that passed and every rate tried.
pub(crate) fn max_rate(
    mut sustained: impl FnMut(f64) -> bool,
    mut lo: f64,
    mut hi: f64,
    tolerance: f64,
) -> (f64, Vec<f64>) {
    let mut tried = Vec::new();
    let mut probe = |r: f64, tried: &mut Vec<f64>| {
        tried.push(r);
        sustained(r)
    };
    // Widen the bracket: `lo` must pass and `hi` must fail.
    for _ in 0..6 {
        if probe(lo, &mut tried) {
            break;
        }
        hi = lo;
        lo /= 2.0;
    }
    for _ in 0..6 {
        if !probe(hi, &mut tried) {
            break;
        }
        lo = hi;
        hi *= 2.0;
    }
    while hi / lo > 1.0 + tolerance {
        let mid = (lo * hi).sqrt();
        if probe(mid, &mut tried) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, tried)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn bisection_converges_below_a_known_capacity() {
        for capacity in [37.0, 120.0, 480.0, 2500.0] {
            let (rate, tried) = max_rate(|r| r <= capacity, 100.0, 400.0, 0.05);
            assert!(
                rate <= capacity && rate >= capacity / 1.05,
                "{capacity}: {rate} {tried:?}"
            );
            assert!(tried.len() < 20, "{tried:?}");
        }
    }

    /// One server with a fixed service time behind a lock: capacity is
    /// exactly `1 / service` requests per second, whatever the client
    /// count.
    struct FakeServer {
        lock: Arc<Mutex<()>>,
        service: Duration,
    }

    impl Client for FakeServer {
        fn call(&mut self, body: &[u8]) -> Result<Vec<u8>, String> {
            let _busy = self.lock.lock().map_err(|_| "poisoned".to_string())?;
            let end = Instant::now() + self.service;
            while Instant::now() < end {
                std::hint::spin_loop();
            }
            Ok(body.to_vec())
        }
    }

    #[test]
    fn max_rate_search_finds_a_fake_responders_capacity() {
        let lock = Arc::new(Mutex::new(()));
        let service = Duration::from_millis(4); // capacity 250 rps
        let mut clients: Vec<FakeServer> = (0..2)
            .map(|_| FakeServer {
                lock: Arc::clone(&lock),
                service,
            })
            .collect();
        let frames = vec![b"x".to_vec()];
        let tracer = Tracer::new(false);
        let check = |_: usize, body: &[u8]| body == b"x";
        let (rate, tried) = max_rate(
            |r| {
                let n = ((r * 0.8) as usize).max(60);
                let step = run_step(&mut clients, r, &vec![0; n], &frames, &check, &tracer);
                step.samples.iter().all(|s| s.ok) && step.sustained(900, 50.0)
            },
            100.0,
            400.0,
            0.05,
        );
        // Above capacity the backlog grows; well below it nothing queues.
        assert!(rate <= 250.0 * 1.08, "{rate} {tried:?}");
        assert!(rate >= 250.0 * 0.6, "{rate} {tried:?}");
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let lock = Arc::new(Mutex::new(()));
        let mut clients = vec![FakeServer {
            lock,
            service: Duration::from_millis(5),
        }];
        let frames = vec![b"x".to_vec()];
        let tracer = Tracer::new(true);
        let check = |_: usize, _: &[u8]| true;
        // 1,000 rps offered to a 200 rps server: requests queue, lateness
        // grows, and latency includes the wait before sending.
        let step = run_step(&mut clients, 1000.0, &[0; 60], &frames, &check, &tracer);
        assert_eq!(step.samples.len(), 60);
        let last = step.samples[59];
        assert!(last.lateness_ms > 200.0, "{last:?}");
        assert!(last.latency_ms >= last.lateness_ms + 4.0, "{last:?}");
        assert!(step.lateness_growth_ms() > 50.0);
        assert!(!step.sustained(500, 50.0));
        // One connection root plus one span per request, ids preserved.
        let spans = tracer.take();
        assert_eq!(spans.len(), 61);
        assert!(spans
            .iter()
            .filter(|s| s.parent.is_some())
            .all(|s| s.request.is_some()));
    }
}
