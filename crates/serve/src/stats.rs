//! Daemon-lifetime counters: connections, queries, cache/store outcomes
//! and query-latency percentiles.
//!
//! Everything is lock-free atomics except the latency reservoir, which is
//! a fixed-capacity `Mutex<Reservoir>` — one push per query, read only by
//! `stats` requests and the shutdown report, so contention is negligible
//! next to the socket round trip it measures. Lock acquisition recovers
//! from poisoning (`into_inner`): the guarded state is a plain vector
//! that is never left half-updated, and one panicking connection thread
//! must not take the whole daemon's statistics down with it.

use crate::protocol::{obj, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the latency reservoir: enough for faithful p50/p99 over
/// any realistic session. Power of two, so the replacement slot is a
/// mask. Below the cap every sample is retained (percentiles are exact);
/// at the cap the reservoir stays at this size forever — a long-lived
/// daemon's memory no longer grows with query count.
const MAX_LATENCIES: usize = 1 << 16;

/// Replacement stride once the reservoir is full (the 64-bit golden
/// ratio; any odd constant works). `seen * STRIDE mod MAX_LATENCIES`
/// walks every slot exactly once per `MAX_LATENCIES` overwrites — a
/// deterministic, `rand`-free schedule that spreads replacements evenly
/// across the reservoir instead of favouring recent or early slots.
const STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fixed-capacity latency sample set with deterministic stride-based
/// replacement. Not a statistically uniform reservoir (no randomness by
/// design — daemon output stays reproducible); the overwrite schedule
/// cycles through all slots, so retained samples always span the whole
/// session with a bias-free slot-replacement frequency.
#[derive(Debug, Default)]
struct Reservoir {
    samples: Vec<u64>,
    /// Total samples ever offered (`≥ samples.len()`).
    seen: u64,
}

impl Reservoir {
    fn record(&mut self, us: u64) {
        if self.samples.len() < MAX_LATENCIES {
            self.samples.push(us);
        } else {
            let slot = (self.seen.wrapping_mul(STRIDE) as usize) & (MAX_LATENCIES - 1);
            self.samples[slot] = us;
        }
        self.seen += 1;
    }
}

/// Counters for one daemon lifetime. Shared by reference across every
/// connection thread; all methods take `&self`.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Accepted connections.
    pub connections: AtomicU64,
    /// Frames received (including malformed ones).
    pub frames: AtomicU64,
    /// Successfully answered query requests (`no-alias`, `lt`, `eval`,
    /// `pairs`, `stats`).
    pub queries: AtomicU64,
    /// Successful module uploads.
    pub uploads: AtomicU64,
    /// Typed error replies sent.
    pub errors: AtomicU64,
    /// Summary-cache hits accumulated over every upload.
    pub cache_hits: AtomicU64,
    /// Summary-cache misses accumulated over every upload.
    pub cache_misses: AtomicU64,
    /// Shared-store hits accumulated over every upload (0 without
    /// `--shared-store`).
    pub store_hits: AtomicU64,
    /// Shared-store misses accumulated over every upload.
    pub store_misses: AtomicU64,
    /// Summaries published into the shared store over every upload.
    pub store_published: AtomicU64,
    /// Connection-thread panics caught and absorbed by the accept loop
    /// (the daemon keeps serving; see `Server::run`).
    pub panics: AtomicU64,
    latencies_us: Mutex<Reservoir>,
}

impl ServeStats {
    /// Records one query's wall-clock latency.
    pub fn record_latency(&self, us: u64) {
        self.latencies_us.lock().unwrap_or_else(|e| e.into_inner()).record(us);
    }

    /// Latency samples currently retained (capped; see [`ServeStats`]).
    pub fn latency_samples(&self) -> usize {
        self.latencies_us.lock().unwrap_or_else(|e| e.into_inner()).samples.len()
    }

    /// Nearest-rank percentiles over the retained query latencies:
    /// `(p50, p99)` in microseconds, zeros when nothing was recorded.
    /// Exact whenever fewer than the reservoir capacity have been
    /// recorded; estimated over the deterministic sample set beyond it.
    pub fn latency_percentiles(&self) -> (u64, u64) {
        let mut l = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner()).samples.clone();
        if l.is_empty() {
            return (0, 0);
        }
        l.sort_unstable();
        let rank = |p: f64| l[((p * l.len() as f64).ceil() as usize).clamp(1, l.len()) - 1];
        (rank(0.50), rank(0.99))
    }

    /// The `stats` reply body (also reused by the shutdown report).
    pub fn snapshot(&self, modules: usize) -> Json {
        let (p50, p99) = self.latency_percentiles();
        let n = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as i64);
        obj([
            ("ok", Json::Bool(true)),
            ("modules", Json::Num(modules as i64)),
            ("connections", n(&self.connections)),
            ("frames", n(&self.frames)),
            ("queries", n(&self.queries)),
            ("uploads", n(&self.uploads)),
            ("errors", n(&self.errors)),
            ("panics", n(&self.panics)),
            ("cache_hits", n(&self.cache_hits)),
            ("cache_misses", n(&self.cache_misses)),
            ("store_hits", n(&self.store_hits)),
            ("store_misses", n(&self.store_misses)),
            ("store_published", n(&self.store_published)),
            ("p50_us", Json::Num(p50 as i64)),
            ("p99_us", Json::Num(p99 as i64)),
        ])
    }
}

impl std::fmt::Display for ServeStats {
    /// The one-line shutdown report (`# serve: …`), printed to stderr by
    /// the CLI on graceful shutdown.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p50, p99) = self.latency_percentiles();
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        write!(
            f,
            "# serve: {} connection(s), {} upload(s), {} query(s), {} error(s), \
             cache {} hit(s)/{} miss(es), \
             store {} hit(s)/{} miss(es)/{} published, {} panic(s), \
             p50 {p50}us, p99 {p99}us",
            g(&self.connections),
            g(&self.uploads),
            g(&self.queries),
            g(&self.errors),
            g(&self.cache_hits),
            g(&self.cache_misses),
            g(&self.store_hits),
            g(&self.store_misses),
            g(&self.store_published),
            g(&self.panics),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_exact_below_the_cap() {
        let s = ServeStats::default();
        assert_eq!(s.latency_percentiles(), (0, 0));
        for us in 1..=100 {
            s.record_latency(us);
        }
        assert_eq!(s.latency_percentiles(), (50, 99));
        assert_eq!(s.latency_samples(), 100, "below the cap every sample is retained");
        let one = ServeStats::default();
        one.record_latency(7);
        assert_eq!(one.latency_percentiles(), (7, 7));
    }

    /// The regression for the unbounded-latency-Vec leak: memory stops
    /// growing at the cap, yet recording continues (the old code simply
    /// dropped every sample after the cap, freezing the percentiles for
    /// the rest of the daemon's life).
    #[test]
    fn reservoir_is_bounded_and_keeps_absorbing_samples() {
        let s = ServeStats::default();
        for _ in 0..MAX_LATENCIES {
            s.record_latency(1);
        }
        assert_eq!(s.latency_samples(), MAX_LATENCIES);
        assert_eq!(s.latency_percentiles(), (1, 1));
        // Another full cycle of overwrites replaces every slot exactly
        // once (odd stride × power-of-two capacity ⇒ full period), so
        // the percentiles track the *new* regime instead of freezing.
        for _ in 0..MAX_LATENCIES {
            s.record_latency(9);
        }
        assert_eq!(s.latency_samples(), MAX_LATENCIES, "capacity never grows past the cap");
        assert_eq!(s.latency_percentiles(), (9, 9), "overwrites must reach every slot");
    }

    #[test]
    fn stride_replacement_visits_every_slot_once_per_period() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..MAX_LATENCIES as u64 {
            seen.insert((i.wrapping_mul(STRIDE) as usize) & (MAX_LATENCIES - 1));
        }
        assert_eq!(seen.len(), MAX_LATENCIES, "odd stride must permute the slots");
    }

    #[test]
    fn snapshot_and_display_report_every_counter() {
        let s = ServeStats::default();
        s.connections.store(2, Ordering::Relaxed);
        s.queries.store(5, Ordering::Relaxed);
        s.cache_hits.store(3, Ordering::Relaxed);
        s.store_hits.store(4, Ordering::Relaxed);
        s.store_published.store(6, Ordering::Relaxed);
        s.panics.store(1, Ordering::Relaxed);
        s.record_latency(10);
        let snap = s.snapshot(1);
        assert!(snap.is_ok());
        assert_eq!(snap.num_field("modules"), Some(1));
        assert_eq!(snap.num_field("connections"), Some(2));
        assert_eq!(snap.num_field("queries"), Some(5));
        assert_eq!(snap.num_field("cache_hits"), Some(3));
        assert_eq!(snap.num_field("store_hits"), Some(4));
        assert_eq!(snap.num_field("store_misses"), Some(0));
        assert_eq!(snap.num_field("store_published"), Some(6));
        assert_eq!(snap.num_field("panics"), Some(1));
        assert_eq!(snap.num_field("p50_us"), Some(10));
        let line = format!("{s}");
        assert!(line.starts_with("# serve: "), "{line}");
        assert!(line.contains("2 connection(s)"), "{line}");
        assert!(line.contains("3 hit(s)"), "{line}");
        assert!(line.contains("store 4 hit(s)"), "{line}");
        assert!(line.contains("1 panic(s)"), "{line}");
    }

    /// The poisoned-lock regression: a thread that panics while holding
    /// the reservoir lock must not take latency tracking down with it.
    #[test]
    fn poisoned_reservoir_lock_recovers() {
        let s = ServeStats::default();
        s.record_latency(5);
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = s.latencies_us.lock().unwrap();
                    panic!("deliberate: poison the latency lock");
                })
                .join()
        });
        s.record_latency(7); // would panic before the fix
        assert_eq!(s.latency_samples(), 2);
        assert_ne!(s.latency_percentiles(), (0, 0));
    }
}
