//! The thread scheduler shared by both execution tiers.
//!
//! The scheduler keeps one **packed ready key** per thread —
//! `(clock << INDEX_BITS) | thread_index` if the thread is runnable,
//! [`NOT_READY`] otherwise — as the leaves of a **tournament tree** whose
//! every inner node is the integer `min` of its two children. Under
//! MinClock a pick reads the root, and it also returns how long the pick
//! stays the pick, so the step loops pay for scheduling per hand-off
//! rather than per step, and a hand-off costs ⌈log₂ T⌉ node updates
//! rather than a scan of T keys.
//!
//! # Why the key is packed, and why branch-free is the point
//!
//! MinClock's order is lexicographic on `(clock, index)`. Packed into one
//! `u64` that order is plain integer order, so a node update is
//! `a.min(b)` — a `cmp` and a `cmov`, no branch. That is the whole
//! reason the tree is faster than the scan it replaced: the scan's cost
//! was never its 8 bytes per thread but its two data-dependent compares
//! per key (`k < best`, `k < second`), which under lock-step interleaving
//! are coin flips the branch predictor loses. Two tree prototypes that
//! kept a compare the compiler lowered to a branch, or a long dependent
//! chain, measured *no faster* than the scan (a tree of indices compared
//! through the key array; `(clock << 64) | index` as `u128` with a mask
//! select — EXPERIMENTS.md, "PR 19"). Do not re-try them.
//!
//! # The range contract
//!
//! Packing spends [`INDEX_BITS`] = 16 bits on the thread index and 48 on
//! the clock: thread index < 65 536 (asserted in [`Sched::new`], where
//! `VmConfig::max_threads` is consumed) and simulated clock ≤
//! [`MAX_CLOCK_NS`] = 2⁴⁸ − 2 ns ≈ 3.26 simulated days (the all-ones
//! clock field is [`NOT_READY`]'s). A clock that leaves the range is a
//! **guest fault** (`FaultKind::ClockOutOfRange`, a `RunOutcome::Fault`
//! naming the thread) — never a wrapped or silently clamped order. A clock
//! past the range is at or above every run-ahead limit, so the step that
//! leaves it ends its pick, and the check sits there, before the key is
//! published: [`pack`] only asserts it in debug builds. `ido-nvm` adds to
//! the clock saturating, so the excursion cannot wrap back into range.
//!
//! # Invariants
//!
//! * **Leaves mirror the threads.** A key can change in exactly three
//!   ways: the thread that just stepped (its clock advanced, or it blocked
//!   or finished) — the step loops call [`Sched::set`], which writes the
//!   leaf only; a lock hand-off made another thread runnable — `Vm::wake`
//!   calls [`Sched::wake`], which repairs the woken leaf's root path; and
//!   anything done to `Vm::threads` between `run_steps` calls (spawns,
//!   recovery threads, the oracle) — `run_steps` calls [`Sched::rebuild`]
//!   on entry, into retained capacity.
//! * **One stale path.** Between picks the only leaf whose ancestors may
//!   be stale is the current pick's (nothing else calls [`Sched::set`]),
//!   so a pick first repairs that one path. The value carried up is
//!   `min(carried, sibling)`: the sibling loads do not depend on the
//!   carried minimum, so the dependent chain is ⌈log₂ T⌉ `min`s. A wake's
//!   repair may read stale nodes on the current pick's path, but every
//!   node it can get wrong is an ancestor of the current pick's leaf and
//!   is recomputed by the next pick's repair.
//! * **Run-ahead.** MinClock runs the thread with the minimal key. After
//!   a pick `p`, thread `p` stays minimal exactly while its key is below
//!   every other thread's, i.e. below the runner-up's — the `min` over
//!   the siblings along the winner's root path. Comparing *packed* keys
//!   is the tie-break: `pack(clock(p), p) < pack(c, j)` holds iff
//!   `clock(p) < c + (p < j)` (`p` wins index ties against higher indices
//!   only). Stepping `p` changes no key but its own — except through a
//!   wake, which lowers the limit to the woken key by the same compare —
//!   so `p` may keep stepping with no new pick until its key reaches
//!   [`Sched::limit_key`]. The schedule is the per-step scan's, step for
//!   step (`scan_reference` below is that scan, kept for the tests).
//! * **Random** draws one RNG word per executed step and indexes the
//!   runnable leaves in thread order; its limit is 0, so every step is a
//!   fresh pick.
//!
//! # Mutation checks (PR 19)
//!
//! Each of these was applied to this file and must — and did — fail both
//! `tree_matches_the_linear_scan_on_random_operation_sequences` below and
//! `exec::sched_equivalence`: *wrong tie-break side* (`pack` stores
//! `INDEX_MASK - thread` and the two places that read an index back undo
//! it, so ties go to the higher index); *limit not tightened on wake*
//! (`wake` repairs the path but leaves `limit` alone); *leaf not repaired
//! before the pick* (`pick_min_clock` reads `tree[1]` without calling
//! `repair`).

/// Bits of a packed ready key that hold the thread index.
pub(crate) const INDEX_BITS: u32 = 16;

const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// Largest simulated thread clock, in ns, the scheduler can order:
/// 2⁴⁸ − 2 ns ≈ 3.26 simulated days (see the range contract in
/// `crates/vm/src/sched.rs`). A thread whose clock exceeds it faults
/// (`FaultKind::ClockOutOfRange`), which ends the run.
pub const MAX_CLOCK_NS: u64 = (1 << (64 - INDEX_BITS)) - 2;

// The text format rejects a single delay past this range.
const _: () = assert!(MAX_CLOCK_NS == ido_ir::text::MAX_DELAY_NS);

/// Ready key of a thread that cannot run (blocked or done); above every
/// runnable key.
pub(crate) const NOT_READY: u64 = u64::MAX;

/// The ready key of runnable thread `thread` at simulated time `clock`,
/// which is at most [`MAX_CLOCK_NS`]: the step that takes a clock past it
/// faults the thread before its key is published.
#[inline]
pub(crate) fn pack(clock: u64, thread: usize) -> u64 {
    debug_assert!(clock <= MAX_CLOCK_NS, "thread {thread}: clock {clock} ns is out of range");
    debug_assert!(thread as u64 <= INDEX_MASK);
    (clock << INDEX_BITS) | thread as u64
}

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

/// The tournament tree over the ready keys, plus the current pick's
/// run-ahead bound.
#[derive(Debug)]
pub(crate) struct Sched {
    /// Heap layout, 1-based: `tree[1]` is the root, node `i` is the `min`
    /// of `tree[2i]` and `tree[2i + 1]`, thread `t`'s leaf is
    /// `tree[cap + t]`; leaves past the thread count are [`NOT_READY`].
    tree: Vec<u64>,
    /// Number of leaves: the thread count rounded up to a power of two.
    cap: usize,
    /// The thread returned by the last pick.
    cur: usize,
    /// The last pick stays the scheduler's choice while its packed key is
    /// below this (see the module docs).
    limit: u64,
    picks: u64,
    /// Tree nodes read by picks and wakes — what
    /// `picks_visit_logarithmically_many_nodes` counts.
    #[cfg(test)]
    visited: u64,
}

impl Sched {
    /// A scheduler for a VM hosting at most `max_threads` threads.
    ///
    /// # Panics
    /// Panics if a thread index would not fit the packed key.
    pub(crate) fn new(max_threads: usize) -> Self {
        assert!(
            max_threads <= 1 << INDEX_BITS,
            "max_threads {max_threads} exceeds the scheduler's {} thread indices",
            1u32 << INDEX_BITS
        );
        Sched {
            tree: vec![NOT_READY; 2],
            cap: 1,
            cur: 0,
            limit: 0,
            picks: 0,
            #[cfg(test)]
            visited: 0,
        }
    }

    /// Replaces every key (allocation-free once capacity covers the
    /// thread count). The step loops pick before they consult the limit,
    /// so no run-ahead survives a rebuild.
    pub(crate) fn rebuild(&mut self, keys: impl ExactSizeIterator<Item = u64>) {
        let cap = keys.len().next_power_of_two();
        self.cap = cap;
        self.cur = 0;
        self.tree.clear();
        self.tree.resize(cap, NOT_READY);
        self.tree.extend(keys);
        self.tree.resize(2 * cap, NOT_READY);
        for node in (1..cap).rev() {
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }

    /// Records the key of the thread that just stepped — the current
    /// pick. Its ancestors are repaired by the next pick.
    #[inline]
    pub(crate) fn set(&mut self, t: usize, key: u64) {
        debug_assert_eq!(t, self.cur, "only the current pick's leaf may go stale");
        self.tree[self.cap + t] = key;
    }

    /// Recomputes the ancestors of thread `t`'s leaf; returns the root.
    #[inline]
    fn repair(&mut self, t: usize) -> u64 {
        let mut node = self.cap + t;
        let mut carried = self.tree[node];
        while node > 1 {
            carried = carried.min(self.tree[node ^ 1]);
            node >>= 1;
            self.tree[node] = carried;
            #[cfg(test)]
            {
                self.visited += 1;
            }
        }
        carried
    }

    /// Records that `woken` became runnable with packed key `key`, and
    /// bounds the current pick's run-ahead by it.
    #[inline]
    pub(crate) fn wake(&mut self, woken: usize, key: u64) {
        self.tree[self.cap + woken] = key;
        self.repair(woken);
        self.limit = self.limit.min(key);
    }

    /// Run-ahead bound of the last pick as a packed key: the pick stays
    /// the scheduler's choice while its key is below this.
    #[inline]
    pub(crate) fn limit_key(&self) -> u64 {
        self.limit
    }

    /// The same bound in the clock domain: the last pick stays the
    /// scheduler's choice while its *clock* is below this. Never above
    /// `MAX_CLOCK_NS + 1`, so a thread running ahead with nothing else
    /// runnable still stops at the first clock outside the range.
    #[inline]
    pub(crate) fn limit(&self) -> u64 {
        let runner_up = (self.limit & INDEX_MASK) as usize;
        // Only `NOT_READY`'s all-ones clock field can exceed the bound.
        ((self.limit >> INDEX_BITS) + u64::from(self.cur < runner_up)).min(MAX_CLOCK_NS + 1)
    }

    /// Picks made so far (one per hand-off, not per step).
    pub(crate) fn picks(&self) -> u64 {
        self.picks
    }

    /// MinClock: the runnable thread with the minimal key; sets the limit
    /// to the runner-up's key.
    pub(crate) fn pick_min_clock(&mut self) -> Option<usize> {
        let best = self.repair(self.cur);
        if best == NOT_READY {
            return None;
        }
        let pick = (best & INDEX_MASK) as usize;
        // Everything but the winner is under exactly one sibling of the
        // winner's root path.
        let mut node = self.cap + pick;
        let mut runner_up = NOT_READY;
        while node > 1 {
            runner_up = runner_up.min(self.tree[node ^ 1]);
            node >>= 1;
            #[cfg(test)]
            {
                self.visited += 1;
            }
        }
        self.cur = pick;
        self.limit = runner_up;
        self.picks += 1;
        Some(pick)
    }

    /// Random: the `k`-th runnable thread in thread order, `k` drawn from
    /// `rng` (no draw when nothing is runnable). Also returns whether the
    /// pick is the sole runnable thread.
    pub(crate) fn pick_random(&mut self, rng: &mut u64) -> Option<(usize, bool)> {
        let leaves = &self.tree[self.cap..];
        let runnable = leaves.iter().filter(|&&k| k != NOT_READY).count();
        if runnable == 0 {
            return None;
        }
        let k = (next_rng(rng) % runnable as u64) as usize;
        let pick = leaves
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

/// The linear two-minimum scan the tree replaced (PR 13's
/// `pick_min_clock`), over *unpacked* keys — a thread's clock, or
/// [`NOT_READY`]: the `(clock, index)`-minimal runnable thread and its
/// clock-domain run-ahead limit. The reference the tree is held to, next
/// to `Vm::pick_reference`.
#[cfg(test)]
fn scan_reference(clocks: &[u64]) -> Option<(usize, u64)> {
    // Strict `<` over ascending indices is the lexicographic order.
    let (mut best, mut best_i) = (NOT_READY, 0);
    let (mut second, mut second_i) = (NOT_READY, 0);
    for (i, &k) in clocks.iter().enumerate() {
        if k < best {
            (second, second_i) = (best, best_i);
            (best, best_i) = (k, i);
        } else if k < second {
            (second, second_i) = (k, i);
        }
    }
    (best != NOT_READY).then(|| (best_i, second.saturating_add(u64::from(best_i < second_i))))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The packed key of unpacked key `clock` (a clock, or [`NOT_READY`]).
    fn key(clock: u64, thread: usize) -> u64 {
        if clock == NOT_READY {
            NOT_READY
        } else {
            pack(clock, thread)
        }
    }

    fn sched(clocks: &[u64]) -> Sched {
        let mut s = Sched::new(clocks.len());
        s.rebuild(clocks.iter().enumerate().map(|(t, &c)| key(c, t)));
        s
    }

    /// The clock-domain limit of a thread with nothing else runnable.
    const UNBOUNDED: u64 = MAX_CLOCK_NS + 1;

    #[test]
    fn min_clock_limit_follows_the_tie_break() {
        // Pick loses index ties to lower indices: it may run only while
        // strictly below the runner-up's clock.
        let mut s = sched(&[7, 5, NOT_READY, 5]);
        assert_eq!(s.pick_min_clock(), Some(1));
        assert_eq!(s.limit(), 6, "thread 1 wins the tie against thread 3");
        assert_eq!(s.limit_key(), pack(5, 3));
        let mut s = sched(&[5, 9, 4]);
        assert_eq!(s.pick_min_clock(), Some(2));
        assert_eq!(s.limit(), 5, "thread 2 loses the tie against thread 0");
        assert_eq!(s.limit_key(), pack(5, 0));
    }

    #[test]
    fn sole_runnable_thread_runs_to_the_end_of_the_range_until_a_wake() {
        let mut s = sched(&[NOT_READY, 3, NOT_READY]);
        assert_eq!(s.pick_min_clock(), Some(1));
        assert_eq!(s.limit_key(), NOT_READY);
        assert_eq!(s.limit(), UNBOUNDED);
        s.wake(2, pack(10, 2));
        assert_eq!(s.limit(), 11);
        s.wake(0, pack(10, 0));
        assert_eq!(s.limit(), 10);
        assert_eq!(s.picks(), 1);
    }

    #[test]
    fn nothing_runnable_is_none_and_draws_nothing() {
        for mut s in [sched(&[NOT_READY, NOT_READY]), Sched::new(4)] {
            let mut rng = 99;
            assert_eq!(s.pick_min_clock(), None);
            assert_eq!(s.pick_random(&mut rng), None);
            assert_eq!(rng, 99);
            assert_eq!(s.picks(), 0);
        }
    }

    #[test]
    fn random_indexes_runnable_threads_in_order() {
        let mut s = sched(&[NOT_READY, 8, NOT_READY, 2]);
        let mut rng = 0x9e37_79b9_7f4a_7c15;
        let mut expect = rng;
        let mut last = 0;
        for _ in 0..32 {
            let k = next_rng(&mut expect) % 2;
            last = [1, 3][k as usize];
            assert_eq!(s.pick_random(&mut rng), Some((last, false)));
            assert_eq!(s.limit_key(), 0);
            assert_eq!(s.limit(), 0);
        }
        s.set(last, NOT_READY);
        assert_eq!(s.pick_random(&mut rng), Some((4 - last, true)));
    }

    #[test]
    fn packed_order_is_the_lexicographic_order() {
        let clocks = [0, 1, 5, MAX_CLOCK_NS - 1, MAX_CLOCK_NS];
        let threads = [0, 1, 63, INDEX_MASK as usize];
        for c1 in clocks {
            for t1 in threads {
                assert!(pack(c1, t1) < NOT_READY);
                for c2 in clocks {
                    for t2 in threads {
                        assert_eq!(pack(c1, t1) < pack(c2, t2), (c1, t1) < (c2, t2));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the scheduler's 65536 thread indices")]
    fn more_threads_than_indices_is_rejected_up_front() {
        Sched::new((1 << INDEX_BITS) + 1);
    }

    /// The tree under test next to the unpacked clocks it must agree with.
    struct Model {
        sched: Sched,
        clocks: Vec<u64>,
    }

    impl Model {
        fn new(clocks: Vec<u64>) -> Self {
            Model { sched: sched(&clocks), clocks }
        }

        /// Picks on both sides and compares the thread, the clock-domain
        /// limit, and the packed limit against the clock-domain one.
        fn pick(&mut self, what: &str) -> Option<usize> {
            let want = scan_reference(&self.clocks);
            let got = self.sched.pick_min_clock();
            assert_eq!(got, want.map(|(p, _)| p), "{what}: pick over {:?}", self.clocks);
            if let Some((p, limit)) = want {
                self.check_limit(p, limit, what);
            }
            got
        }

        /// The tree's limit is the scan's, and the packed compare the step
        /// loops make agrees with the clock-domain one on both sides of it.
        fn check_limit(&self, p: usize, limit: u64, what: &str) {
            let got = self.sched.limit();
            // The scan saturates at `u64::MAX` where the tree stops at the
            // end of the clock range; both mean "nothing else is runnable".
            let want = if limit == NOT_READY { UNBOUNDED } else { limit };
            assert_eq!(got, want, "{what}: limit of {p} over {:?}", self.clocks);
            for c in [got.saturating_sub(1), got] {
                if c <= MAX_CLOCK_NS {
                    assert_eq!(pack(c, p) < self.sched.limit_key(), c < got, "{what}: clock {c}");
                }
            }
        }

        fn set(&mut self, t: usize, clock: u64) {
            self.clocks[t] = clock;
            self.sched.set(t, key(clock, t));
        }

        fn wake(&mut self, t: usize, clock: u64) {
            self.clocks[t] = clock;
            self.sched.wake(t, pack(clock, t));
        }

        /// As `run_steps` does on entry, after anything else touched the
        /// threads.
        fn rebuild(&mut self) {
            let clocks = &self.clocks;
            self.sched.rebuild(clocks.iter().enumerate().map(|(t, &c)| key(c, t)));
        }
    }

    const MODEL_THREADS: [usize; 12] = [1, 2, 3, 5, 8, 9, 63, 64, 65, 128, 129, 256];
    const SEQUENCES_PER_SIZE: u64 = 850;
    const OPS_PER_SEQUENCE: usize = 48;

    /// ISSUE 19's gate for "identical": 12 × 850 = 10 200 random operation
    /// sequences — advance the current pick by 0…N, block or finish it
    /// (one key, [`NOT_READY`]), wake a not-ready thread at an arbitrary clock (equal clocks
    /// included), rebuild with more threads — compare every pick and every
    /// limit with the linear scan, and after every operation that leaves
    /// the pick below its limit, check that the scan would still pick it.
    #[test]
    fn tree_matches_the_linear_scan_on_random_operation_sequences() {
        for threads in MODEL_THREADS {
            for seq in 0..SEQUENCES_PER_SIZE {
                let mut rng = (threads as u64) << 32 | seq << 1 | 1;
                // Clocks drawn from a few values, so ties are the norm.
                let spread = [1, 3, 16][seq as usize % 3];
                let mut draw = move |n: u64| next_rng(&mut rng) % n;
                let initial = (0..threads)
                    .map(|_| if draw(4) == 0 { NOT_READY } else { draw(spread) })
                    .collect();
                let mut m = Model::new(initial);
                let what = format!("{threads}T seq {seq}");
                let mut ops = 0;
                'picks: while ops < OPS_PER_SEQUENCE {
                    ops += 1;
                    let Some(p) = m.pick(&what) else {
                        // Nothing runnable: something outside the step
                        // loops (a recovery driver, the oracle) makes a
                        // thread runnable before the next entry.
                        let t = draw(m.clocks.len() as u64) as usize;
                        m.clocks[t] = draw(spread);
                        m.rebuild();
                        continue;
                    };
                    // Run ahead until the step loops would pick again.
                    loop {
                        ops += 1;
                        let not_ready: Vec<usize> =
                            (0..m.clocks.len()).filter(|&t| m.clocks[t] == NOT_READY).collect();
                        match draw(8) {
                            0 => m.set(p, NOT_READY),
                            1 if !not_ready.is_empty() => {
                                let t = not_ready[draw(not_ready.len() as u64) as usize];
                                // Around the pick's clock: below, equal, above.
                                let clock = (m.clocks[p] + draw(3)).saturating_sub(1);
                                m.wake(t, clock);
                            }
                            2 if seq % 8 == 0 && m.clocks.len() < 300 => {
                                (0..=draw(3)).for_each(|_| m.clocks.push(draw(spread)));
                                m.rebuild();
                                continue 'picks;
                            }
                            _ => m.set(p, m.clocks[p] + draw(3)),
                        }
                        if key(m.clocks[p], p) >= m.sched.limit_key() || ops >= OPS_PER_SEQUENCE {
                            continue 'picks;
                        }
                        let (still, limit) = scan_reference(&m.clocks).expect("p is runnable");
                        assert_eq!(still, p, "{what}: ran ahead past a hand-off, {:?}", m.clocks);
                        m.check_limit(p, limit, &what);
                    }
                }
            }
        }
    }

    /// A pick costs what the tree is deep, not what the VM is wide: nodes
    /// read per pick ≤ 2·⌈log₂ T⌉ + 1 (one root path repaired, the root,
    /// one root path of siblings) from 4 to 256 threads. A count, not a
    /// timing.
    #[test]
    fn picks_visit_logarithmically_many_nodes() {
        for threads in [4usize, 5, 8, 16, 63, 64, 65, 128, 256] {
            let depth = u64::from(threads.next_power_of_two().trailing_zeros());
            let mut m = Model::new((0..threads as u64).map(|t| t % 7).collect());
            let mut picks = 0;
            for round in 0..4 * threads as u64 {
                let p = m.pick("scaling").expect("every thread stays runnable");
                m.set(p, m.clocks[p] + 1 + round % 3);
                picks += 1;
            }
            let per_pick = m.sched.visited as f64 / picks as f64;
            assert!(
                m.sched.visited <= picks * (2 * depth + 1),
                "{threads} threads: {per_pick:.1} nodes per pick, depth {depth}"
            );
        }
    }
}
