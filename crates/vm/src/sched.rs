//! The thread scheduler shared by both execution tiers.
//!
//! Picking the next thread used to stride over `Vec<ThreadCtx>` (kilobytes
//! per thread) before *every* instruction. The scheduler instead keeps one
//! dense **ready key** per thread — the thread's simulated clock if it is
//! runnable, [`NOT_READY`] otherwise — so a pick touches 8 bytes per thread,
//! and under MinClock it also returns how long the pick stays the pick, so
//! the step loops pay for scheduling per hand-off rather than per step.
//!
//! # Invariants
//!
//! * **Keys mirror the threads.** A key can change in exactly three ways:
//!   the thread that just stepped (its clock advanced, or it blocked or
//!   finished) — the step loops call [`Sched::set`]; a lock hand-off made
//!   another thread runnable — `Vm::wake` calls [`Sched::wake`]; and
//!   anything done to `Vm::threads` between `run_steps` calls (spawns,
//!   recovery threads, the oracle) — `run_steps` calls [`Sched::rebuild`]
//!   on entry, into retained capacity.
//! * **Run-ahead.** MinClock runs the `(clock, index)`-minimal runnable
//!   thread. After a pick `p`, thread `p` stays minimal exactly while
//!   `clock(p) < key(j) + (p < j)` for every other thread `j` (it wins
//!   index ties against higher indices only). The minimum of the right-hand
//!   side is attained by the lexicographic runner-up, so one scan yields
//!   both the pick and its [`Sched::limit`]; since stepping `p` changes no
//!   key but its own — except through a wake, which tightens the limit by
//!   the same formula — `p` may keep stepping with no rescan until its key
//!   reaches the limit. The schedule is the per-step scan's, step for step.
//! * **Random** draws one RNG word per executed step and indexes the
//!   runnable threads in thread order; its limit is 0, so every step is a
//!   fresh pick.
//!
//! A plain scan over the key array is deliberate: with run-ahead in place a
//! winner tree (O(log T) picks) measured no faster up to 64 threads — mean
//! run-ahead is under three steps there, and what remains is the cache
//! cost of switching threads, not the scan.

/// Ready key of a thread that cannot run (blocked or done).
pub(crate) const NOT_READY: u64 = u64::MAX;

/// One xorshift64 step: the scheduler's RNG (Random policy), one word per
/// executed step on either tier.
#[inline]
pub(crate) fn next_rng(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x
}

/// Ready keys plus the current pick's run-ahead bound.
#[derive(Debug, Default)]
pub(crate) struct Sched {
    keys: Vec<u64>,
    /// The thread returned by the last pick.
    cur: usize,
    /// The last pick stays the scheduler's choice while its key is below
    /// this (see the module docs).
    limit: u64,
    picks: u64,
}

impl Sched {
    /// Replaces every key (allocation-free once capacity covers the
    /// thread count). The step loops pick before they consult the limit,
    /// so no run-ahead survives a rebuild.
    pub(crate) fn rebuild(&mut self, keys: impl Iterator<Item = u64>) {
        self.keys.clear();
        self.keys.extend(keys);
    }

    /// Records the key of the thread that just stepped.
    #[inline]
    pub(crate) fn set(&mut self, t: usize, key: u64) {
        self.keys[t] = key;
    }

    /// Records that `woken` became runnable with clock `key`, and bounds
    /// the current pick's run-ahead by it.
    #[inline]
    pub(crate) fn wake(&mut self, woken: usize, key: u64) {
        self.keys[woken] = key;
        self.limit = self.limit.min(key.saturating_add(u64::from(self.cur < woken)));
    }

    /// Run-ahead bound of the last pick.
    #[inline]
    pub(crate) fn limit(&self) -> u64 {
        self.limit
    }

    /// Picks made so far (one per hand-off, not per step).
    pub(crate) fn picks(&self) -> u64 {
        self.picks
    }

    /// MinClock: the `(key, index)`-minimal runnable thread; sets the
    /// limit from the runner-up found in the same pass.
    pub(crate) fn pick_min_clock(&mut self) -> Option<usize> {
        // Strict `<` over ascending indices is the lexicographic order.
        let (mut best, mut best_i) = (NOT_READY, 0);
        let (mut second, mut second_i) = (NOT_READY, 0);
        for (i, &k) in self.keys.iter().enumerate() {
            if k < best {
                (second, second_i) = (best, best_i);
                (best, best_i) = (k, i);
            } else if k < second {
                (second, second_i) = (k, i);
            }
        }
        if best == NOT_READY {
            return None;
        }
        self.cur = best_i;
        self.limit = second.saturating_add(u64::from(best_i < second_i));
        self.picks += 1;
        Some(best_i)
    }

    /// Random: the `k`-th runnable thread in thread order, `k` drawn from
    /// `rng` (no draw when nothing is runnable). Also returns whether the
    /// pick is the sole runnable thread.
    pub(crate) fn pick_random(&mut self, rng: &mut u64) -> Option<(usize, bool)> {
        let runnable = self.keys.iter().filter(|&&k| k != NOT_READY).count();
        if runnable == 0 {
            return None;
        }
        let k = (next_rng(rng) % runnable as u64) as usize;
        let pick = self
            .keys
            .iter()
            .enumerate()
            .filter(|&(_, &key)| key != NOT_READY)
            .nth(k)
            .expect("kth runnable thread")
            .0;
        self.cur = pick;
        self.limit = 0;
        self.picks += 1;
        Some((pick, runnable == 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(keys: &[u64]) -> Sched {
        let mut s = Sched::default();
        s.rebuild(keys.iter().copied());
        s
    }

    #[test]
    fn min_clock_limit_follows_the_tie_break() {
        // Pick loses index ties to lower indices: it may run only while
        // strictly below the runner-up's clock.
        let mut s = sched(&[7, 5, NOT_READY, 5]);
        assert_eq!(s.pick_min_clock(), Some(1));
        assert_eq!(s.limit(), 6, "thread 1 wins the tie against thread 3");
        let mut s = sched(&[5, 9, 4]);
        assert_eq!(s.pick_min_clock(), Some(2));
        assert_eq!(s.limit(), 5, "thread 2 loses the tie against thread 0");
    }

    #[test]
    fn sole_runnable_thread_runs_unbounded_until_a_wake() {
        let mut s = sched(&[NOT_READY, 3, NOT_READY]);
        assert_eq!(s.pick_min_clock(), Some(1));
        assert_eq!(s.limit(), NOT_READY);
        s.wake(2, 10);
        assert_eq!(s.limit(), 11);
        s.wake(0, 10);
        assert_eq!(s.limit(), 10);
        assert_eq!(s.picks(), 1);
    }

    #[test]
    fn nothing_runnable_is_none_and_draws_nothing() {
        let mut s = sched(&[NOT_READY, NOT_READY]);
        let mut rng = 99;
        assert_eq!(s.pick_min_clock(), None);
        assert_eq!(s.pick_random(&mut rng), None);
        assert_eq!(rng, 99);
        assert_eq!(s.picks(), 0);
    }

    #[test]
    fn random_indexes_runnable_threads_in_order() {
        let mut s = sched(&[NOT_READY, 8, NOT_READY, 2]);
        let mut rng = 0x9e37_79b9_7f4a_7c15;
        let mut expect = rng;
        for _ in 0..32 {
            let k = next_rng(&mut expect) % 2;
            assert_eq!(s.pick_random(&mut rng), Some(([1, 3][k as usize], false)));
            assert_eq!(s.limit(), 0);
        }
        s.set(1, NOT_READY);
        assert_eq!(s.pick_random(&mut rng), Some((3, true)));
    }
}
