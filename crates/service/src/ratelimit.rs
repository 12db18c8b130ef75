//! Per-client token-bucket rate limiting for the HTTP front end.
//!
//! One bucket per peer IP: `rate` tokens refill per second up to a
//! burst ceiling, and each request spends one token. An empty bucket
//! means the request is answered `429 Too Many Requests` (with
//! `Retry-After`) instead of being processed — so one chatty client
//! cannot starve the handler pool or the layout workers.
//!
//! The map is bounded: when it grows past a housekeeping threshold,
//! buckets that have fully refilled (i.e. clients idle long enough to
//! be back at their burst ceiling) are dropped. State per client is two
//! f64s, so even the threshold itself is a few hundred kilobytes.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Drop fully-refilled (idle) buckets once the map exceeds this.
const HOUSEKEEP_THRESHOLD: usize = 8192;

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// A token-bucket rate limiter keyed by peer IP.
pub struct RateLimiter {
    /// Tokens refilled per second.
    rate: f64,
    /// Bucket ceiling (also the initial balance): a client may burst
    /// this many requests instantly, then settles to `rate`/s.
    burst: f64,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl RateLimiter {
    /// A limiter allowing `rate_per_sec` sustained requests per second
    /// per client IP, with a burst allowance of one second's worth
    /// (minimum 1). Rates ≤ 0 are clamped to a limiter that denies
    /// nothing only via [`RateLimiter::maybe`].
    pub fn new(rate_per_sec: f64) -> Self {
        let rate = rate_per_sec.max(f64::MIN_POSITIVE);
        Self {
            rate,
            burst: rate.max(1.0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// `Some(limiter)` when `rate_per_sec` is positive, `None` (no
    /// limiting) otherwise — mirrors `serve --rate-limit 0`.
    pub fn maybe(rate_per_sec: f64) -> Option<Self> {
        (rate_per_sec > 0.0).then(|| Self::new(rate_per_sec))
    }

    /// Spend one token for `ip`. `true` ⇒ the request may proceed.
    pub fn allow(&self, ip: IpAddr) -> bool {
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap();
        if buckets.len() > HOUSEKEEP_THRESHOLD {
            let burst = self.burst;
            let rate = self.rate;
            buckets.retain(|_, b| {
                let refilled = b.tokens + now.duration_since(b.last).as_secs_f64() * rate;
                refilled < burst // keep only clients still paying debt
            });
        }
        let bucket = buckets.entry(ip).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Clients currently tracked (observability / tests).
    pub fn tracked_clients(&self) -> usize {
        self.buckets.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn burst_is_allowed_then_throttled() {
        let l = RateLimiter::new(3.0);
        assert!(l.allow(ip(1)));
        assert!(l.allow(ip(1)));
        assert!(l.allow(ip(1)));
        assert!(!l.allow(ip(1)), "fourth instant request is throttled");
    }

    #[test]
    fn clients_are_limited_independently() {
        let l = RateLimiter::new(1.0);
        assert!(l.allow(ip(1)));
        assert!(!l.allow(ip(1)));
        assert!(l.allow(ip(2)), "a different client has its own bucket");
        assert_eq!(l.tracked_clients(), 2);
    }

    #[test]
    fn tokens_refill_over_time() {
        let l = RateLimiter::new(100.0);
        // Spend until refused. Tokens refill while the loop runs, so a
        // fixed count of spends only drains the bucket if the loop beats
        // the refill rate, which a preempted test thread may not.
        let mut spent = 0;
        while l.allow(ip(1)) {
            spent += 1;
            assert!(spent < 100_000, "bucket never drained");
        }
        assert!(spent >= 100, "the burst allows a second's worth first");
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(l.allow(ip(1)), "~5 tokens refilled in 50ms at 100/s");
    }

    #[test]
    fn maybe_disables_on_zero() {
        assert!(RateLimiter::maybe(0.0).is_none());
        assert!(RateLimiter::maybe(-1.0).is_none());
        assert!(RateLimiter::maybe(2.5).is_some());
    }

    #[test]
    fn sub_one_rates_still_allow_a_first_request() {
        let l = RateLimiter::new(0.25);
        assert!(l.allow(ip(9)), "burst floor of 1");
        assert!(!l.allow(ip(9)));
    }
}
