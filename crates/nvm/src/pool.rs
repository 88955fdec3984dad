//! The simulated persistent memory pool and per-thread access handles.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use ido_trace::{
    Category, Collector, CostBreakdown, EventKind, MetricsConfig, Recorder, RecoveryPhase,
    ServiceMetrics, StatsSnapshot, Trace, TraceConfig,
};

use crate::journal::{Journal, PersistEvent, PersistEventKind};
use crate::latency::LatencyModel;
use crate::line::{line_of, lines_spanning, CACHE_LINE, WORDS_PER_LINE};
use crate::PAddr;

/// Decides which dirty lines survive a [`PmemPool::crash`].
///
/// On real hardware, a line that was stored to but never explicitly flushed
/// may still reach NVM if the cache evicted it before the failure. A correct
/// failure-atomicity scheme must therefore tolerate *any* subset of dirty
/// lines persisting. The policies below let tests explore that space.
#[derive(Debug, Clone, PartialEq, Eq)]
#[derive(Default)]
pub enum CrashPolicy {
    /// No un-fenced dirty line survives (the cache never evicted anything).
    #[default]
    DropDirty,
    /// Every dirty line survives (the cache evicted everything just in time).
    EvictAll,
    /// Each dirty line independently survives with probability
    /// `persist_permille / 1000`, drawn from the seed passed to `crash`.
    Random {
        /// Per-line survival probability in permille (0–1000).
        persist_permille: u16,
    },
    /// Loses exactly the chosen set of dirty lines; every other dirty line
    /// survives (is evicted in time). This is the crash oracle's workhorse:
    /// it makes the "which unflushed lines reach NVM" outcome an explicit,
    /// enumerable input instead of a random draw. `Subset` with an empty
    /// set behaves like [`CrashPolicy::EvictAll`]; with the full dirty set,
    /// like [`CrashPolicy::DropDirty`].
    Subset {
        /// Line indices whose un-fenced contents are lost at the crash.
        /// Dirty lines *not* in this set survive. Shared so that cloning a
        /// policy (configs are cloned per VM run) stays cheap.
        lost: Arc<BTreeSet<usize>>,
    },
}

impl CrashPolicy {
    /// A [`CrashPolicy::Subset`] losing exactly `lost`.
    pub fn losing(lost: impl IntoIterator<Item = usize>) -> Self {
        CrashPolicy::Subset { lost: Arc::new(lost.into_iter().collect()) }
    }

    /// Whether dirty line `line` survives a crash under this policy
    /// (`Random` draws one word from `rng`; the others ignore it).
    fn survives(&self, line: usize, rng: &mut SplitMix64) -> bool {
        match self {
            CrashPolicy::DropDirty => false,
            CrashPolicy::EvictAll => true,
            CrashPolicy::Random { persist_permille } => {
                (rng.next() % 1000) < *persist_permille as u64
            }
            CrashPolicy::Subset { lost } => !lost.contains(&line),
        }
    }

    /// Short display name for reports and journal entries.
    pub fn name(&self) -> &'static str {
        match self {
            CrashPolicy::DropDirty => "drop-dirty",
            CrashPolicy::EvictAll => "evict-all",
            CrashPolicy::Random { .. } => "random",
            CrashPolicy::Subset { .. } => "subset",
        }
    }
}


/// Construction parameters for a [`PmemPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Pool size in bytes; rounded up to a multiple of the cache-line size.
    pub size: usize,
    /// Latency model used by every handle of this pool.
    pub latency: LatencyModel,
    /// What happens to dirty lines at crash time.
    pub crash_policy: CrashPolicy,
    /// Event tracing for handles of this pool (off by default).
    pub trace: TraceConfig,
    /// Windowed service metrics for handles of this pool (off by
    /// default; the service harnesses opt in explicitly).
    pub metrics: MetricsConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            size: 16 << 20, // 16 MiB
            latency: LatencyModel::default(),
            crash_policy: CrashPolicy::DropDirty,
            trace: TraceConfig::default(),
            metrics: MetricsConfig::default(),
        }
    }
}

impl PoolConfig {
    /// A small, zero-latency pool for unit tests.
    pub fn small_for_tests() -> Self {
        Self { size: 1 << 20, latency: LatencyModel::zero(), ..Self::default() }
    }
}

/// The pool's state, shared by the pool value and its handles. One driver
/// (see [`PmemPool`]): plain cells, no locked instruction on any path.
struct Inner {
    /// The cache + DRAM view: what loads and stores observe pre-crash.
    volatile: Vec<Cell<u64>>,
    /// The NVM view: what survives a crash.
    persistent: Vec<Cell<u64>>,
    /// One bit per cache line: set if the volatile line may differ from the
    /// persistent line by an un-written-back store. The converse is the
    /// **clean-line invariant** every O(dirty) operation below relies on: a
    /// line whose bit is clear holds the same eight words in both images.
    /// Every store sets the bit before or with its volatile write; only a
    /// write-back (fence, crash survivor) or a restore (crash loser) — both
    /// of which equalize the line first — clears it; a non-temporal store
    /// writes both images.
    dirty: Vec<Cell<u64>>,
    /// One bit per cache line: set where the *persistent* image or a crash
    /// changed the line since the last [`PmemPool::sync_from`] — by
    /// [`Inner::writeback_line`], `nt_store_u64`, and every line a crash
    /// resolves. Plain stores do not set it (they set `dirty`), so the
    /// store path pays nothing; `touched ∪ dirty` is exactly the set of
    /// lines that can differ from a pool last synced with this one.
    touched: Vec<Cell<u64>>,
    config: PoolConfig,
    crashes: Cell<u64>,
    /// Counters of the handles dropped or merged so far.
    global_stats: Cell<StatsSnapshot>,
    journal: Journal,
    /// Observation state: the trace and metrics configuration a handle
    /// snapshots at creation — so [`PmemPool::set_trace`] and
    /// [`PmemPool::set_metrics`] affect only handles created afterwards,
    /// which is what lets recovery drivers observe the post-crash segment
    /// alone and lay every segment onto one timeline — and the recorders
    /// of dropped handles.
    collector: RefCell<Collector>,
}

impl Inner {
    fn collector(&self) -> RefMut<'_, Collector> {
        self.collector.borrow_mut()
    }

    #[inline]
    fn is_dirty(&self, line: usize) -> bool {
        self.dirty[line / 64].get() & (1 << (line % 64)) != 0
    }

    /// Marks `line` dirty; true iff it was clean. A store to a line that
    /// is already dirty — the common case — writes nothing to the bitset.
    #[inline]
    fn set_dirty(&self, line: usize) -> bool {
        set_bit(&self.dirty, line)
    }

    #[inline]
    fn clear_dirty(&self, line: usize) {
        let word = &self.dirty[line / 64];
        word.set(word.get() & !(1u64 << (line % 64)));
    }

    /// Only a sync clears a `touched` bit, and log heads and hot lines are
    /// fenced over and over: usually this is a load, not a store.
    #[inline]
    fn set_touched(&self, line: usize) {
        set_bit(&self.touched, line);
    }

    #[inline]
    fn writeback_line(&self, line: usize) {
        copy_line(&self.volatile, &self.persistent, line);
        self.set_touched(line);
    }
}

/// Sets bit `line` of `bits` unless it is set already; true iff it was
/// clear.
#[inline]
fn set_bit(bits: &[Cell<u64>], line: usize) -> bool {
    let (word, bit) = (&bits[line / 64], 1u64 << (line % 64));
    let old = word.get();
    let was_clear = old & bit == 0;
    if was_clear {
        word.set(old | bit);
    }
    was_clear
}

/// Copies the eight words of `line` from `src` to `dst`.
#[inline]
fn copy_line(src: &[Cell<u64>], dst: &[Cell<u64>], line: usize) {
    let base = line * WORDS_PER_LINE;
    for (s, d) in src[base..base + WORDS_PER_LINE].iter().zip(&dst[base..base + WORDS_PER_LINE]) {
        d.set(s.get());
    }
}

/// The set bits of `bits`, as line indices of bitset word `word`.
#[inline]
fn lines_of(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let line = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            line
        })
    })
}

/// A simulated pool of byte-addressable nonvolatile memory.
///
/// Cloning the pool is cheap (it is an `Rc` internally). Each simulated
/// thread gets its own [`PmemHandle`] via [`PmemPool::handle`], since
/// handles carry per-thread simulated clocks and write-back queues.
///
/// A pool has one driver: the pool, its handles and its allocator live on
/// the host thread that built them, and the compiler checks it — none of
/// them is `Send` or `Sync`. (Parallel sweeps build one pool per worker.)
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<ido_nvm::PmemPool>();
/// ```
///
/// ```compile_fail,E0277
/// fn sync<T: Sync>() {}
/// sync::<ido_nvm::PmemPool>();
/// ```
#[derive(Clone)]
pub struct PmemPool {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("size", &self.size())
            .field("crashes", &self.inner.crashes.get())
            .finish()
    }
}

/// Allocates `n` zeroed `Cell<u64>`s.
///
/// `Cell<u64>` is `repr(transparent)` over `u64` and all-zeros is a valid
/// value, so `alloc_zeroed` is a correct initializer. What it costs depends
/// on where the allocator finds the memory. A fresh anonymous mapping is
/// untouched zero pages: nothing is written, and only pages the pool's
/// user later touches become resident — but the mapping, its first-touch
/// faults and its unmapping go through the kernel (and the process-wide
/// mapping lock). Recycled heap memory stays in user space but must be
/// cleared, which writes, and makes resident, the whole image. glibc maps
/// requests above a threshold that starts at 128 KiB and *grows* to the
/// size of every mapped block freed, up to 32 MiB, so a process that
/// builds pool after pool gets its second and later images from the heap:
/// ≈ 62 µs of `calloc` clearing and 2 MiB resident per 1 MiB test pool
/// (`nvm.pool_new_us`) — construction is O(pool).
///
/// That is the right trade for a pool built per run, by the thousand and
/// from parallel workers (mapping every pool instead took the workspace
/// tests from 24 s to 58 s), and the wrong one for a pool that lives long
/// and is mostly never touched. `reserve` is for the latter
/// ([`PmemPool::scratch`]): the request is padded past glibc's cap, so it
/// is always a mapping; the padding is address space only. Under another
/// allocator it is merely a larger reservation.
fn zeroed_cells(n: usize, reserve: bool) -> Vec<Cell<u64>> {
    use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
    /// One word past glibc's `DEFAULT_MMAP_THRESHOLD_MAX` (64-bit).
    const ALWAYS_MAPPED_WORDS: usize = (32 << 20) / 8 + 1;
    if n == 0 {
        return Vec::new();
    }
    let cap = if reserve { n.max(ALWAYS_MAPPED_WORDS) } else { n };
    let layout = Layout::array::<Cell<u64>>(cap).expect("pool allocation fits a Layout");
    // SAFETY: the pointer comes from the global allocator with exactly the
    // layout `Vec`'s drop will deallocate with (capacity == cap), and the
    // zero bit pattern is a valid `Cell<u64>` for all `n <= cap` elements.
    unsafe {
        let ptr = alloc_zeroed(layout) as *mut Cell<u64>;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Vec::from_raw_parts(ptr, n, cap)
    }
}

impl PmemPool {
    /// Creates a pool whose volatile and persistent images are zero-filled.
    pub fn new(config: PoolConfig) -> Self {
        Self::zeroed(config, false)
    }

    /// Creates the scratch half of a [`PmemPool::sync_from`] pair: an empty
    /// pool of this pool's configuration, for a caller that keeps it for
    /// many syncs. Its images are reserved as untouched mappings (see
    /// `zeroed_cells`), so it is resident only where syncs and its own
    /// users write: a forked copy of a pool does not double its footprint.
    pub fn scratch(&self) -> Self {
        Self::zeroed(self.inner.config.clone(), true)
    }

    fn zeroed(config: PoolConfig, reserve: bool) -> Self {
        let size = config.size.next_multiple_of(CACHE_LINE).max(CACHE_LINE);
        let words = size / 8;
        let lines = size / CACHE_LINE;
        let mk = |n| zeroed_cells(n, false);
        let image = || zeroed_cells(words, reserve);
        let config = PoolConfig { size, ..config };
        let collector = RefCell::new(Collector::new(config.trace, config.metrics));
        PmemPool {
            inner: Rc::new(Inner {
                volatile: image(),
                persistent: image(),
                dirty: mk(lines.div_ceil(64)),
                touched: mk(lines.div_ceil(64)),
                config,
                crashes: Cell::new(0),
                global_stats: Cell::default(),
                journal: Journal::default(),
                collector,
            }),
        }
    }

    /// Pool size in bytes.
    pub fn size(&self) -> usize {
        self.inner.config.size
    }

    /// The latency model shared by this pool's handles.
    pub fn latency(&self) -> LatencyModel {
        self.inner.config.latency
    }

    /// Creates a per-thread access handle with a fresh simulated clock.
    ///
    /// When tracing or metrics are on, the handle's recorder is allocated
    /// here — once, up front (see [`Collector::recorder`] for its
    /// trace-thread id).
    pub fn handle(&self) -> PmemHandle {
        PmemHandle {
            inner: Rc::clone(&self.inner),
            latency: self.inner.config.latency,
            clock_ns: 0,
            pending: Vec::new(),
            stats: StatsSnapshot::default(),
            recorder: self.inner.collector().recorder(),
            costs: CostBreakdown::default(),
            log_depth: 0,
            shard: 0,
        }
    }

    /// Reconfigures tracing for handles created **after** this call.
    /// Existing handles keep (or keep lacking) their rings. Recovery
    /// drivers use this to trace only the post-crash segment.
    pub fn set_trace(&self, config: TraceConfig) {
        self.inner.collector().set_trace(config);
    }

    /// Merges every ring folded so far (handles must have been dropped)
    /// into one deterministic [`Trace`], resetting the trace-thread
    /// counter; windows stay for [`PmemPool::take_metrics`]. Returns `None`
    /// when tracing never produced anything (disabled and nothing
    /// collected).
    pub fn take_trace(&self) -> Option<Trace> {
        self.inner.collector().take_trace()
    }

    /// Reconfigures windowed metrics for handles created **after** this
    /// call (the same semantics as [`PmemPool::set_trace`]). Crash-under-
    /// load harnesses call this between segments with an updated
    /// `base_ns` so every segment's handles land on one global timeline.
    pub fn set_metrics(&self, config: MetricsConfig) {
        self.inner.collector().set_metrics(config);
    }

    /// Merges every timeline folded so far (handles must have been
    /// dropped) into one deterministic [`ServiceMetrics`]; rings stay for
    /// [`PmemPool::take_trace`]. Returns `None` when metrics never produced
    /// anything.
    pub fn take_metrics(&self) -> Option<ServiceMetrics> {
        self.inner.collector().take_metrics()
    }

    /// Simulates a fail-stop failure (power loss, kernel panic, SIGKILL).
    ///
    /// Every line that was written back and fenced keeps its persistent
    /// value. Every line that was still dirty is resolved by the pool's
    /// [`CrashPolicy`] using `seed`: it either survives with its current
    /// volatile contents (a cache eviction happened to save it) or reverts to
    /// its last persisted contents. Afterwards the volatile image equals the
    /// persistent image, exactly as a fresh process mapping the NVM region
    /// would observe.
    pub fn crash(&self, seed: u64) -> CrashOutcome {
        let policy = self.inner.config.crash_policy.clone();
        self.crash_with(seed, &policy)
    }

    /// Like [`PmemPool::crash`], but resolves dirty lines with `policy`
    /// instead of the pool's configured policy. The crash oracle uses this
    /// to lose a chosen [`CrashPolicy::Subset`] of the lines that are dirty
    /// at the crash point it is exploring, without rebuilding the pool.
    ///
    /// Costs O(dirty-bitset words + dirty lines), not O(pool): by the
    /// clean-line invariant (see `Inner::dirty`) a clean line already reads
    /// the same in both images, so only dirty lines are visited — survivors
    /// are written back, losers restored from the persistent image — in
    /// ascending line order, one RNG draw per dirty line under
    /// [`CrashPolicy::Random`].
    pub fn crash_with(&self, seed: u64, policy: &CrashPolicy) -> CrashOutcome {
        let inner = &*self.inner;
        let mut rng = SplitMix64::new(seed ^ 0x1d0_c4a5);
        let mut evicted = 0usize;
        let mut dropped = 0usize;
        for (w, word) in inner.dirty.iter().enumerate() {
            let bits = word.get();
            if bits == 0 {
                continue;
            }
            for l in lines_of(w, bits) {
                if policy.survives(l, &mut rng) {
                    copy_line(&inner.volatile, &inner.persistent, l);
                    evicted += 1;
                } else {
                    copy_line(&inner.persistent, &inner.volatile, l);
                    dropped += 1;
                }
            }
            word.set(0);
            inner.touched[w].set(inner.touched[w].get() | bits);
        }
        self.note_crash(policy, evicted, dropped)
    }

    /// The pre-O(dirty) [`PmemPool::crash_with`], kept as the reference the
    /// equivalence test compares against: tests every line of the pool for
    /// dirtiness, then reloads the whole volatile image word by word.
    #[cfg(test)]
    fn crash_with_full_reload(&self, seed: u64, policy: &CrashPolicy) -> CrashOutcome {
        let inner = &*self.inner;
        let mut rng = SplitMix64::new(seed ^ 0x1d0_c4a5);
        let mut evicted = 0usize;
        let mut dropped = 0usize;
        for l in 0..inner.config.size / CACHE_LINE {
            if !inner.is_dirty(l) {
                continue;
            }
            if policy.survives(l, &mut rng) {
                copy_line(&inner.volatile, &inner.persistent, l);
                evicted += 1;
            } else {
                dropped += 1;
            }
            inner.clear_dirty(l);
        }
        // The "new process" sees only what persisted.
        for (v, p) in inner.volatile.iter().zip(&inner.persistent) {
            v.set(p.get());
        }
        self.note_crash(policy, evicted, dropped)
    }

    /// The bookkeeping tail of a crash: counter, journal and trace event.
    fn note_crash(&self, policy: &CrashPolicy, evicted: usize, dropped: usize) -> CrashOutcome {
        let inner = &*self.inner;
        inner.crashes.set(inner.crashes.get() + 1);
        inner.journal.record(|| PersistEventKind::Crash {
            policy: policy.name(),
            evicted,
            dropped,
        });
        self.inner.collector().crash(evicted as u64, dropped as u64);
        CrashOutcome { lines_evicted: evicted, lines_dropped: dropped }
    }

    /// Makes this pool an exact image of `live` — both images and the dirty
    /// set — at a cost of O(bitset words + lines either pool changed since
    /// they were last equal), never O(pool). Returns the number of lines
    /// copied.
    ///
    /// The two pools must be a *pair*: the same size, and equal at some
    /// point in the past — at construction (two fresh pools are both zero)
    /// or at the previous `sync_from` between them — with every change
    /// since made through the pool API. Under that contract a line can
    /// differ only if it is dirty or `touched` on one side, so exactly
    /// those lines are copied, and both `touched` sets are cleared: the
    /// pair is equal again. (Syncing a third pool from `live` afterwards
    /// would miss the lines this call just forgot; the crash oracle keeps
    /// one scratch pool per live pool.) Only memory state is copied —
    /// counters, journal, trace and metrics collectors stay each pool's own.
    ///
    /// # Panics
    /// Panics if the pools differ in size.
    pub fn sync_from(&self, live: &PmemPool) -> usize {
        let (dst, src) = (&*self.inner, &*live.inner);
        assert_eq!(dst.config.size, src.config.size, "sync_from needs equal-sized pools");
        let mut copied = 0usize;
        for w in 0..dst.dirty.len() {
            let src_dirty = src.dirty[w].get();
            let differ = src_dirty | src.touched[w].get() | dst.dirty[w].get() | dst.touched[w].get();
            if differ == 0 {
                continue;
            }
            for l in lines_of(w, differ) {
                copy_line(&src.volatile, &dst.volatile, l);
                copy_line(&src.persistent, &dst.persistent, l);
                copied += 1;
            }
            dst.dirty[w].set(src_dirty);
            dst.touched[w].set(0);
            src.touched[w].set(0);
        }
        copied
    }

    /// Indices of all currently dirty lines, ascending. The crash oracle
    /// reads this at a prospective crash point to know which line subsets
    /// are worth losing.
    pub fn dirty_lines(&self) -> Vec<usize> {
        // Word-level scan: only words with set bits cost anything, so this
        // is O(bitmap words + dirty lines) rather than O(total lines) —
        // it runs once per crash state in the oracle's inner loop. Bits
        // beyond `lines` can never be set (stores are bounds-checked), so
        // no tail masking is needed.
        let mut out = Vec::new();
        for (w, word) in self.inner.dirty.iter().enumerate() {
            out.extend(lines_of(w, word.get()));
        }
        out
    }

    /// Total persist-relevant events (stores, write-backs, fences, crashes)
    /// observed by this pool since creation. Counted unconditionally and
    /// cheaply; see [`crate::journal`] for how the crash oracle uses deltas
    /// of this counter to find interesting crash points.
    pub fn persist_event_count(&self) -> u64 {
        self.inner.journal.seq()
    }

    /// Starts retaining persist events in a bounded ring of `capacity`
    /// entries (see [`crate::journal::PersistEvent`]).
    pub fn record_journal(&self, capacity: usize) {
        self.inner.journal.start(capacity);
    }

    /// Stops retaining persist events. The counter behind
    /// [`PmemPool::persist_event_count`] keeps advancing.
    pub fn stop_journal(&self) {
        self.inner.journal.stop();
    }

    /// The most recent `n` retained persist events, oldest first.
    pub fn journal_tail(&self, n: usize) -> Vec<PersistEvent> {
        self.inner.journal.tail(n)
    }

    /// Arms a persist trap: the operation that produces persist event
    /// number `at` (1-based, compared against
    /// [`PmemPool::persist_event_count`]) panics with a "persist-trap"
    /// message, simulating a crash *inside* a composite operation — e.g. an
    /// [`crate::alloc::NvAllocator`] call that issues several
    /// flush+fence sequences. Run the operation under
    /// [`std::panic::catch_unwind`], then [`PmemPool::crash`] and verify
    /// recovery. The trap disarms itself when it fires; pass `None` to
    /// disarm manually.
    pub fn set_persist_trap(&self, at: Option<u64>) {
        self.inner.journal.set_trap(at);
    }

    /// Returns a copy of the persistent image (for durability assertions and
    /// snapshot-based tests).
    pub fn persistent_snapshot(&self) -> Vec<u8> {
        let inner = &*self.inner;
        let mut out = Vec::with_capacity(inner.config.size);
        for w in &inner.persistent {
            out.extend_from_slice(&w.get().to_le_bytes());
        }
        out
    }

    /// Aggregated statistics across all handles that have been dropped or
    /// explicitly merged.
    pub fn global_stats(&self) -> StatsSnapshot {
        self.inner.global_stats.get()
    }

    /// Reads a word directly from the *persistent* image, bypassing the
    /// volatile view. Intended for assertions about what actually persisted.
    ///
    /// # Panics
    /// Panics if `addr` is not 8-byte aligned or out of bounds.
    pub fn read_u64_persistent(&self, addr: PAddr) -> u64 {
        assert!(addr.is_multiple_of(8), "unaligned word read at {addr:#x}");
        self.inner.persistent[addr / 8].get()
    }

    /// True if the line containing `addr` has unpersisted stores.
    pub fn is_line_dirty(&self, addr: PAddr) -> bool {
        self.inner.is_dirty(line_of(addr))
    }
}

/// What happened to dirty lines during a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashOutcome {
    /// Dirty lines that happened to be evicted and therefore survived.
    pub lines_evicted: usize,
    /// Dirty lines whose un-fenced contents were lost.
    pub lines_dropped: usize,
}

/// A per-thread handle onto a [`PmemPool`].
///
/// The handle carries the thread's simulated clock (nanoseconds), its queue
/// of issued-but-unfenced write-backs, and local statistics. Create one per
/// simulated thread. Like its pool, it never leaves the host thread that
/// built the pool:
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<ido_nvm::PmemHandle>();
/// ```
///
/// ```compile_fail,E0277
/// fn sync<T: Sync>() {}
/// sync::<ido_nvm::PmemHandle>();
/// ```
pub struct PmemHandle {
    inner: Rc<Inner>,
    latency: LatencyModel,
    clock_ns: u64,
    pending: Vec<usize>,
    /// Local counters; folded into the pool's totals on
    /// [`PmemHandle::merge_stats`] and on drop.
    stats: StatsSnapshot,
    /// The handle's one observation recorder; `None` when tracing and
    /// metrics are both off.
    recorder: Option<Box<Recorder>>,
    /// Per-category simulated-time attribution, accumulated
    /// unconditionally (a single add per charge — cheaper than branching
    /// on the recorder in the per-instruction hot path) and folded into
    /// the recorder at drop time; discarded when there is none.
    costs: CostBreakdown,
    /// Nesting depth of [`PmemHandle::begin_log`] scopes: while positive,
    /// stores count as log writes (bytes into `stats.log_bytes`, cost
    /// into the `Log` category).
    log_depth: u32,
    /// Allocator shard affinity (typically the simulated thread/core id).
    /// The sharded allocator routes this handle's allocations and frees to
    /// shard `shard % n_shards`; other allocator policies ignore it.
    shard: u32,
}

impl std::fmt::Debug for PmemHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemHandle")
            .field("clock_ns", &self.clock_ns)
            .field("pending_writebacks", &self.pending.len())
            .finish()
    }
}

impl PmemHandle {
    /// Every advance of the simulated clock. Saturating: a clock that
    /// overflowed would wrap to a small value, re-enter the scheduler's
    /// order as its favourite thread and be reported as a short run;
    /// pinned at `u64::MAX` it stays outside the range the VM's scheduler
    /// accepts (`ido_vm::MAX_CLOCK_NS`), which stops the run by name.
    #[inline(always)]
    fn tick(&mut self, ns: u64) {
        self.clock_ns = self.clock_ns.saturating_add(ns);
    }

    #[inline]
    fn charge(&mut self, ns: u64) {
        self.charge_cat(Category::Work, ns);
    }

    #[inline]
    fn charge_cat(&mut self, cat: Category, ns: u64) {
        self.tick(ns);
        // `cat` is a constant at every call site, so this folds to one add.
        self.costs.add(cat, ns);
        self.latency.realize(ns);
    }

    /// The store-path accounting tail: clock, log-byte counting, cost
    /// attribution, and the `store` event. Cost attribution rides the
    /// log-scope branch that log-byte counting needs anyway, so the only
    /// trace-specific work on the traced-off path is one untaken branch
    /// for the event push (measured: multiple separate branches here cost
    /// ~5% of interpreter throughput).
    #[inline(always)]
    fn charge_store_and_emit(&mut self, ns: u64, bytes: u64, addr: PAddr, value: u64) {
        self.tick(ns);
        if self.log_depth > 0 {
            self.stats.log_bytes += bytes;
            self.costs.log_ns += ns;
        } else {
            self.costs.work_ns += ns;
        }
        self.observe(EventKind::Store, addr as u64, value);
        self.latency.realize(ns);
    }

    #[inline]
    fn check_word(&self, addr: PAddr) -> usize {
        assert!(addr.is_multiple_of(8), "unaligned word access at {addr:#x}");
        assert!(addr + 8 <= self.inner.config.size, "out-of-bounds access at {addr:#x}");
        addr / 8
    }

    /// The thread's simulated clock, in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the simulated clock by `ns` (used by interpreters and the DES
    /// harness to account for non-memory instruction costs and lock waits).
    pub fn advance(&mut self, ns: u64) {
        self.charge(ns);
    }

    /// Like [`PmemHandle::advance`], but attributes the time to an
    /// explicit cost [`Category`] (interpreters use this for scheme taxes
    /// such as Atlas's per-store tracking work).
    pub fn advance_as(&mut self, cat: Category, ns: u64) {
        self.charge_cat(cat, ns);
    }

    /// Opens a log scope: until the matching [`PmemHandle::end_log`],
    /// stores are accounted as log writes — their bytes accumulate in
    /// `log_bytes` and their cost in the `Log` category. Scopes nest.
    #[inline]
    pub fn begin_log(&mut self) {
        self.log_depth += 1;
    }

    /// Closes the innermost log scope (see [`PmemHandle::begin_log`]).
    #[inline]
    pub fn end_log(&mut self) {
        debug_assert!(self.log_depth > 0, "end_log without begin_log");
        self.log_depth = self.log_depth.saturating_sub(1);
    }

    /// True while inside a [`PmemHandle::begin_log`] scope.
    pub fn in_log(&self) -> bool {
        self.log_depth > 0
    }

    /// Observes an event at the handle's current simulated time — a
    /// memory operation, a FASE or region boundary, an op marker (see
    /// [`Recorder::record`] for the pairings). One untaken branch when
    /// tracing and metrics are both off; the recording itself is outlined
    /// and allocates nothing.
    #[inline(always)]
    pub fn observe(&mut self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = self.recorder.as_deref_mut() {
            record(r, self.clock_ns, kind, a, b, &self.stats);
        }
    }

    /// Sets the simulated clock (used by the DES harness when a thread's
    /// logical time jumps forward to a lock-release event).
    pub fn set_clock_ns(&mut self, ns: u64) {
        self.clock_ns = ns;
    }

    /// Opens a span of recovery `phase`; returns its start time for
    /// [`PmemHandle::recovery_end`].
    pub fn recovery_begin(&mut self, phase: RecoveryPhase) -> u64 {
        self.observe(EventKind::RecoveryBegin, phase as u64, 0);
        self.clock_ns
    }

    /// Closes the span of `phase` opened at `t0`: one `RecoveryEnd`
    /// carrying the duration, which the recorder adds to the phase total
    /// and splits over the metrics windows it covers.
    pub fn recovery_end(&mut self, phase: RecoveryPhase, t0: u64) {
        self.observe(EventKind::RecoveryEnd, phase as u64, self.clock_ns - t0);
    }

    /// This handle's allocator shard affinity (see
    /// [`crate::alloc::AllocPolicy::Sharded`]).
    #[inline]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Sets the allocator shard affinity; the VM assigns the simulated
    /// thread index at spawn time.
    pub fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    /// The latency model in effect for this handle.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Loads an 8-byte word.
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or out of bounds.
    #[inline]
    pub fn read_u64(&mut self, addr: PAddr) -> u64 {
        let w = self.check_word(addr);
        self.stats.loads += 1;
        self.charge(self.latency.load_ns);
        self.inner.volatile[w].get()
    }

    /// Stores an 8-byte word into the volatile image and marks its line dirty.
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or out of bounds.
    #[inline]
    pub fn write_u64(&mut self, addr: PAddr, value: u64) {
        let w = self.check_word(addr);
        self.stats.stores += 1;
        self.charge_store_and_emit(self.latency.store_ns, 8, addr, value);
        self.inner.volatile[w].set(value);
        let line_was_clean = self.inner.set_dirty(line_of(addr));
        self.inner.journal.record(|| PersistEventKind::Store { addr, value, line_was_clean });
    }

    /// Stores a word with log-write accounting, without requiring an open
    /// log scope: identical in effect (stats, cost attribution, trace
    /// events, persistence semantics) to `begin_log(); write_u64(addr,
    /// value); end_log()`, but skips the per-word scope test. JUSTDO
    /// writes three log words for *every* application store, which makes
    /// this the hottest store variant in that scheme.
    ///
    /// # Panics
    /// Panics if `addr` is unaligned or out of bounds.
    #[inline]
    pub fn log_write_u64(&mut self, addr: PAddr, value: u64) {
        let w = self.check_word(addr);
        self.stats.stores += 1;
        let ns = self.latency.store_ns;
        self.tick(ns);
        self.stats.log_bytes += 8;
        self.costs.log_ns += ns;
        self.observe(EventKind::Store, addr as u64, value);
        self.latency.realize(ns);
        self.inner.volatile[w].set(value);
        let line_was_clean = self.inner.set_dirty(line_of(addr));
        self.inner.journal.record(|| PersistEventKind::Store { addr, value, line_was_clean });
    }

    /// Non-temporal store: bypasses the cache, updating both images at once.
    /// Used by REDO-log appends in Mnemosyne-style systems.
    #[inline]
    pub fn nt_store_u64(&mut self, addr: PAddr, value: u64) {
        let w = self.check_word(addr);
        self.stats.nt_stores += 1;
        self.charge_store_and_emit(self.latency.nt_store_cost(), 8, addr, value);
        self.inner.volatile[w].set(value);
        self.inner.persistent[w].set(value);
        self.inner.set_touched(line_of(addr));
        self.inner.journal.record(|| PersistEventKind::NtStore { addr, value });
    }

    /// True if the line containing `addr` has unpersisted stores. Flush
    /// machinery that maintains the invariant "everything reachable is
    /// already persistent" (the NVTraverse traversal window) uses this to
    /// skip write-backs of lines other operations have already published.
    #[inline]
    pub fn is_line_dirty(&self, addr: PAddr) -> bool {
        self.inner.is_dirty(line_of(addr))
    }

    /// Issues a write-back (`clwb`) for the line containing `addr`. The line
    /// is only guaranteed persistent after the next [`PmemHandle::sfence`].
    #[inline]
    pub fn clwb(&mut self, addr: PAddr) {
        assert!(addr < self.inner.config.size, "clwb out of bounds at {addr:#x}");
        let line = line_of(addr);
        self.stats.clwbs += 1;
        let ns = self.latency.clwb_issue_ns;
        self.tick(ns);
        if !self.pending.contains(&line) {
            self.pending.push(line);
        }
        self.inner.journal.record(|| PersistEventKind::Clwb { line });
        self.costs.clwb_ns += ns;
        self.observe(EventKind::Clwb, line as u64, 0);
        self.latency.realize(ns);
    }

    /// Issues write-backs for every line spanned by `[addr, addr + len)`.
    pub fn clwb_range(&mut self, addr: PAddr, len: usize) {
        for line in lines_spanning(addr, len) {
            self.clwb(line * CACHE_LINE);
        }
    }

    /// Persist fence: waits for all write-backs issued by this handle to
    /// reach the persistent image, then returns. Cost grows with the number
    /// of pending lines (each needs a round trip to the memory controller).
    pub fn sfence(&mut self) {
        let n = self.pending.len() as u64;
        self.stats.fences += 1;
        self.stats.lines_persisted += n;
        let ns = self.latency.fence_cost(n);
        self.tick(ns);
        self.costs.fence_ns += ns;
        self.latency.realize(ns);
        // Iterate in place and clear afterwards so `pending` keeps its
        // capacity across fence epochs (taking the Vec would free it and
        // force the next clwb to re-allocate). The clone in the closure is
        // only materialized when the journal is recording.
        for &line in &self.pending {
            self.inner.writeback_line(line);
            self.inner.clear_dirty(line);
        }
        self.inner.journal.record(|| PersistEventKind::Sfence { lines: self.pending.clone() });
        self.pending.clear();
        self.observe(EventKind::Fence, n, 0);
    }

    /// Convenience: `clwb` every line of the range, then `sfence`.
    pub fn persist(&mut self, addr: PAddr, len: usize) {
        self.clwb_range(addr, len);
        self.sfence();
    }

    /// Number of write-backs issued but not yet fenced.
    pub fn pending_writebacks(&self) -> usize {
        self.pending.len()
    }

    /// This handle's local statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats
    }

    /// Folds this handle's statistics into the pool-global counters and
    /// resets the local ones.
    pub fn merge_stats(&mut self) {
        self.fold_stats();
        self.stats = StatsSnapshot::default();
    }

    fn fold_stats(&self) {
        let mut total = self.inner.global_stats.get();
        total.add(&self.stats);
        self.inner.global_stats.set(total);
    }
}

impl Drop for PmemHandle {
    fn drop(&mut self) {
        self.fold_stats();
        if let Some(mut r) = self.recorder.take() {
            // Cost attribution accumulates inline in the handle (see the
            // `costs` field); it becomes part of the recorder only here.
            r.costs.merge(&self.costs);
            self.inner.collector().fold(r);
        }
    }
}

/// Outlined recording. `#[cold]` keeps the recorder's code out of the
/// inlined store path, so the interpreter hot loop with everything off
/// stays icache-tight.
#[cold]
fn record(r: &mut Recorder, ts: u64, kind: EventKind, a: u64, b: u64, counters: &StatsSnapshot) {
    r.record(ts, kind, a, b, counters);
}

/// Small deterministic PRNG for crash-time eviction decisions.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig::small_for_tests())
    }

    /// A handle is per-simulated-thread hot state: the VM's scheduler and
    /// step loop stride over one per thread. It carries plain counters
    /// only — the pool-global accumulator lives in the pool — and must
    /// not silently regrow (it was 704 B when it embedded one).
    #[test]
    fn handle_stays_within_four_cache_lines() {
        let size = std::mem::size_of::<PmemHandle>();
        assert!(size <= 256, "PmemHandle grew to {size} B");
    }

    /// The simulated clock saturates: a wrapped clock would be a small
    /// one — 584 simulated years reported as a few hundred ns, and MinClock's
    /// favourite thread. Every operation that charges time is driven over
    /// the edge here.
    #[test]
    fn the_simulated_clock_saturates_instead_of_wrapping() {
        let p = PmemPool::new(PoolConfig {
            latency: LatencyModel::default(),
            ..PoolConfig::small_for_tests()
        });
        let ops: [fn(&mut PmemHandle); 8] = [
            |h| h.advance(1000),
            |h| h.advance_as(Category::Log, 1000),
            |h| h.write_u64(128, 1),
            |h| h.log_write_u64(128, 1),
            |h| h.nt_store_u64(128, 1),
            |h| h.clwb(128),
            |h| h.sfence(),
            |h| _ = h.read_u64(128),
        ];
        for (i, op) in ops.iter().enumerate() {
            let mut h = p.handle();
            h.set_clock_ns(u64::MAX - 1);
            op(&mut h);
            assert_eq!(h.clock_ns(), u64::MAX, "operation {i}");
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(128, 0xdead_beef);
        assert_eq!(h.read_u64(128), 0xdead_beef);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_word_access_panics() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(129, 1);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn out_of_bounds_access_panics() {
        let p = pool();
        let mut h = p.handle();
        h.read_u64(p.size());
    }

    #[test]
    fn unflushed_store_lost_on_crash() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(256, 7);
        drop(h);
        p.crash(0);
        let mut h = p.handle();
        assert_eq!(h.read_u64(256), 0);
    }

    #[test]
    fn flushed_and_fenced_store_survives_crash() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(256, 7);
        h.clwb(256);
        h.sfence();
        drop(h);
        p.crash(0);
        let mut h = p.handle();
        assert_eq!(h.read_u64(256), 7);
    }

    #[test]
    fn clwb_without_fence_is_not_durable_under_drop_policy() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(256, 7);
        h.clwb(256);
        drop(h); // never fenced
        p.crash(0);
        let mut h = p.handle();
        assert_eq!(h.read_u64(256), 0);
    }

    #[test]
    fn evict_all_policy_persists_dirty_lines() {
        let mut cfg = PoolConfig::small_for_tests();
        cfg.crash_policy = CrashPolicy::EvictAll;
        let p = PmemPool::new(cfg);
        let mut h = p.handle();
        h.write_u64(256, 9);
        drop(h);
        let outcome = p.crash(0);
        assert_eq!(outcome.lines_evicted, 1);
        let mut h = p.handle();
        assert_eq!(h.read_u64(256), 9);
    }

    #[test]
    fn random_policy_is_deterministic_for_seed() {
        let mk = || {
            let mut cfg = PoolConfig::small_for_tests();
            cfg.crash_policy = CrashPolicy::Random { persist_permille: 500 };
            let p = PmemPool::new(cfg);
            let mut h = p.handle();
            for i in 0..64 {
                h.write_u64(i * 64, i as u64 + 1);
            }
            drop(h);
            p.crash(42);
            p.persistent_snapshot()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn line_granular_writeback_is_all_or_nothing() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(512, 1);
        h.write_u64(520, 2); // same line
        h.clwb(512);
        h.sfence();
        drop(h);
        p.crash(0);
        let mut h = p.handle();
        assert_eq!(h.read_u64(512), 1);
        assert_eq!(h.read_u64(520), 2);
    }

    #[test]
    fn nt_store_is_immediately_durable() {
        let p = pool();
        let mut h = p.handle();
        h.nt_store_u64(640, 11);
        drop(h);
        p.crash(0);
        let mut h = p.handle();
        assert_eq!(h.read_u64(640), 11);
    }

    #[test]
    fn rewritten_line_after_fence_is_dirty_again() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(256, 1);
        h.persist(256, 8);
        h.write_u64(256, 2);
        drop(h);
        p.crash(0);
        let mut h = p.handle();
        assert_eq!(h.read_u64(256), 1, "only the fenced value survives");
    }

    #[test]
    fn clock_accumulates_costs() {
        let mut cfg = PoolConfig::small_for_tests();
        cfg.latency = LatencyModel::default();
        let p = PmemPool::new(cfg);
        let mut h = p.handle();
        let t0 = h.clock_ns();
        h.write_u64(128, 1);
        h.clwb(128);
        h.sfence();
        let lat = p.latency();
        assert_eq!(
            h.clock_ns() - t0,
            lat.store_ns + lat.clwb_issue_ns + lat.fence_cost(1)
        );
    }

    #[test]
    fn duplicate_clwb_same_line_coalesces_in_queue() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(128, 1);
        h.write_u64(136, 2);
        h.clwb(128);
        h.clwb(136);
        assert_eq!(h.pending_writebacks(), 1);
    }

    #[test]
    fn stats_track_operations() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(0, 1);
        h.read_u64(0);
        h.clwb(0);
        h.sfence();
        let s = h.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.clwbs, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.lines_persisted, 1);
        drop(h);
        assert_eq!(p.global_stats().stores, 1);
    }

    #[test]
    fn merged_and_dropped_handles_accumulate_in_the_pool() {
        let p = pool();
        let mut a = p.handle();
        a.read_u64(0);
        a.read_u64(0);
        a.persist(0, 8);
        a.merge_stats();
        assert_eq!(a.stats(), StatsSnapshot::default(), "merging resets the handle");
        a.read_u64(0);
        let mut b = p.handle();
        b.begin_log();
        b.write_u64(64, 1);
        b.end_log();
        drop((a, b));
        let s = p.global_stats();
        assert_eq!((s.loads, s.stores, s.fences, s.lines_persisted), (3, 1, 1, 1));
        assert_eq!(s.log_bytes, 8);
    }

    #[test]
    fn subset_policy_loses_exactly_the_chosen_lines() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(0 * 64, 1);
        h.write_u64(3 * 64, 3);
        h.write_u64(7 * 64, 7);
        drop(h);
        assert_eq!(p.dirty_lines(), vec![0, 3, 7]);
        let outcome = p.crash_with(0, &CrashPolicy::losing([3]));
        assert_eq!(outcome, CrashOutcome { lines_evicted: 2, lines_dropped: 1 });
        let mut h = p.handle();
        assert_eq!(h.read_u64(0), 1, "line 0 survived");
        assert_eq!(h.read_u64(3 * 64), 0, "line 3 lost");
        assert_eq!(h.read_u64(7 * 64), 7, "line 7 survived");
        assert!(p.dirty_lines().is_empty(), "crash resolves all dirty lines");
    }

    #[test]
    fn subset_extremes_match_drop_and_evict() {
        for (lost, expect) in [(vec![], 5u64), (vec![1], 0u64)] {
            let p = pool();
            let mut h = p.handle();
            h.write_u64(64, 5);
            drop(h);
            p.crash_with(0, &CrashPolicy::losing(lost));
            let mut h = p.handle();
            assert_eq!(h.read_u64(64), expect);
        }
    }

    /// One seeded sequence of every operation that can change a line's
    /// dirtiness or either image, confined to 24 lines so that stores,
    /// non-temporal stores, write-backs and fences keep landing on each
    /// other's lines.
    fn churn(h: &mut PmemHandle, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..rng.next() % 60 {
            let addr = (rng.next() % (24 * 8)) as usize * 8;
            let v = rng.next();
            match rng.next() % 6 {
                0 | 1 => h.write_u64(addr, v),
                2 => h.log_write_u64(addr, v),
                3 => h.nt_store_u64(addr, v),
                4 => h.clwb(addr),
                _ => h.sfence(),
            }
        }
    }

    /// The four policies, `Subset` losing a seeded selection of `dirty`.
    fn policies(dirty: &[usize], seed: u64) -> [CrashPolicy; 4] {
        let mut rng = SplitMix64::new(!seed);
        [
            CrashPolicy::DropDirty,
            CrashPolicy::EvictAll,
            CrashPolicy::Random { persist_permille: (seed * 37 % 1001) as u16 },
            CrashPolicy::losing(dirty.iter().copied().filter(|_| rng.next() & 1 == 0)),
        ]
    }

    /// The O(dirty) crash against the full-reload loop it replaced: same
    /// outcome, same persistent image, same journal, and afterwards the
    /// state a reload produces — every word equal in both images, no line
    /// dirty.
    #[test]
    fn crash_with_matches_the_full_reload_reference() {
        let mk = || {
            let p = PmemPool::new(PoolConfig { size: 64 << 10, ..PoolConfig::small_for_tests() });
            p.record_journal(256);
            p
        };
        for seed in 0..150u64 {
            let probe = mk();
            churn(&mut probe.handle(), seed);
            for policy in policies(&probe.dirty_lines(), seed) {
                let (new, old) = (mk(), mk());
                churn(&mut new.handle(), seed);
                churn(&mut old.handle(), seed);
                let what = format!("seed {seed}, {}", policy.name());
                assert_eq!(
                    new.crash_with(seed, &policy),
                    old.crash_with_full_reload(seed, &policy),
                    "{what}"
                );
                assert!(new.persistent_snapshot() == old.persistent_snapshot(), "{what}: image");
                assert_eq!(new.journal_tail(256), old.journal_tail(256), "{what}: journal");
                assert!(new.dirty_lines().is_empty(), "{what}: dirty lines left");
                let (n, o) = (&*new.inner, &*old.inner);
                for w in 0..n.volatile.len() {
                    let v = n.volatile[w].get();
                    assert_eq!(v, n.persistent[w].get(), "{what}: word {w}");
                    assert_eq!(v, o.volatile[w].get(), "{what}: word {w}");
                }
            }
        }
    }

    #[test]
    fn persist_event_count_advances_on_persist_relevant_ops_only() {
        let p = pool();
        let mut h = p.handle();
        let c0 = p.persist_event_count();
        h.read_u64(0); // loads are not persist events
        assert_eq!(p.persist_event_count(), c0);
        h.write_u64(0, 1); // store
        h.clwb(0); // clwb
        h.sfence(); // fence
        h.nt_store_u64(64, 2); // nt store
        assert_eq!(p.persist_event_count(), c0 + 4);
    }

    #[test]
    fn journal_records_tail_with_dirty_transitions() {
        let p = pool();
        p.record_journal(16);
        let mut h = p.handle();
        h.write_u64(128, 1);
        h.write_u64(136, 2); // same line: no clean->dirty transition
        h.clwb(128);
        h.sfence();
        drop(h);
        p.crash(0);
        let tail = p.journal_tail(16);
        assert_eq!(tail.len(), 5);
        assert!(matches!(
            tail[0].kind,
            PersistEventKind::Store { line_was_clean: true, .. }
        ));
        assert!(matches!(
            tail[1].kind,
            PersistEventKind::Store { line_was_clean: false, .. }
        ));
        assert!(matches!(tail[2].kind, PersistEventKind::Clwb { line: 2 }));
        assert!(matches!(&tail[3].kind, PersistEventKind::Sfence { lines } if lines == &vec![2]));
        assert!(
            matches!(tail[4].kind, PersistEventKind::Crash { policy: "drop-dirty", .. }),
            "{:?}",
            tail[4]
        );
        // Seqnos are consecutive and match the global counter.
        for w in tail.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert_eq!(p.persist_event_count(), tail[4].seq + 1);
    }

    #[test]
    fn crash_resets_volatile_from_persistent() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(256, 1);
        h.persist(256, 8);
        h.write_u64(256, 99);
        h.write_u64(320, 77);
        drop(h);
        let outcome = p.crash(0);
        assert_eq!(outcome.lines_dropped, 2);
        let mut h = p.handle();
        assert_eq!(h.read_u64(256), 1);
        assert_eq!(h.read_u64(320), 0);
    }

    fn traced_pool() -> PmemPool {
        let mut cfg = PoolConfig::small_for_tests();
        cfg.latency = LatencyModel::default(); // nonzero so cost attribution is visible
        cfg.trace = TraceConfig { enabled: true, buf_entries: 1 << 10 };
        PmemPool::new(cfg)
    }

    #[test]
    fn observation_is_off_by_default() {
        let p = PmemPool::new(PoolConfig::default());
        let mut h = p.handle();
        assert!(h.recorder.is_none());
        h.write_u64(0, 1);
        h.persist(0, 8);
        h.observe(EventKind::OpBegin, 1, 0);
        h.observe(EventKind::OpEnd, 1, 0);
        drop(h);
        assert!(p.take_trace().is_none());
        assert!(p.take_metrics().is_none());
    }

    #[test]
    fn trace_records_memory_ops_with_clock_timestamps() {
        let p = traced_pool();
        let mut h = p.handle();
        h.write_u64(64, 7);
        h.clwb(64);
        h.sfence();
        drop(h);
        let t = p.take_trace().expect("tracing enabled");
        let counts = t.counts_by_kind();
        assert_eq!(counts[EventKind::Store as usize], 1);
        assert_eq!(counts[EventKind::Clwb as usize], 1);
        assert_eq!(counts[EventKind::Fence as usize], 1);
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "sorted by ts");
        assert!(t.costs.clwb_ns > 0 && t.costs.fence_ns > 0 && t.costs.work_ns > 0);
        assert_eq!(t.costs.log_ns, 0, "no log scope was opened");
    }

    #[test]
    fn log_scope_counts_bytes_and_attributes_cost() {
        let p = traced_pool();
        let mut h = p.handle();
        h.write_u64(0, 1); // outside scope
        h.begin_log();
        assert!(h.in_log());
        h.write_u64(8, 2);
        h.write_u64(16, 3);
        h.write_u64(64, 0xAB);
        h.write_u64(72, 0xCD);
        h.end_log();
        assert!(!h.in_log());
        h.write_u64(24, 4); // outside again
        assert_eq!(h.stats().log_bytes, 8 + 8 + 16);
        drop(h);
        let t = p.take_trace().unwrap();
        assert!(t.costs.log_ns > 0);
        assert!(t.costs.work_ns > 0);
    }

    #[test]
    fn log_bytes_flow_into_global_stats() {
        let p = traced_pool();
        let mut h = p.handle();
        h.begin_log();
        h.write_u64(0, 1);
        h.end_log();
        drop(h);
        assert_eq!(p.global_stats().log_bytes, 8);
    }

    #[test]
    fn crash_appends_pool_level_crash_event() {
        let p = traced_pool();
        let mut h = p.handle();
        h.write_u64(0, 5);
        h.persist(0, 8);
        h.write_u64(64, 6); // left dirty -> dropped by crash
        drop(h);
        p.crash(0);
        let t = p.take_trace().unwrap();
        let crash: Vec<_> =
            t.events.iter().filter(|e| e.kind == EventKind::Crash).collect();
        assert_eq!(crash.len(), 1);
        assert_eq!(crash[0].thread, u16::MAX);
        assert_eq!(crash[0].b, 1, "one dirty line dropped");
        let max_ts = t.events.iter().map(|e| e.ts_ns).max().unwrap();
        assert_eq!(crash[0].ts_ns, max_ts, "crash is the final event");
    }

    #[test]
    fn take_trace_drains_and_resets_thread_ids() {
        let p = traced_pool();
        let mut h = p.handle();
        h.write_u64(0, 1);
        drop(h);
        let t1 = p.take_trace().unwrap();
        assert_eq!(t1.events[0].thread, 0);
        let mut h = p.handle();
        h.write_u64(0, 2);
        drop(h);
        let t2 = p.take_trace().unwrap();
        assert_eq!(t2.events[0].thread, 0, "tid counter resets on take");
    }

    #[test]
    fn set_trace_affects_only_later_handles() {
        let p = pool();
        let mut h = p.handle();
        h.write_u64(0, 1);
        p.set_trace(TraceConfig { enabled: true, buf_entries: 64 });
        h.write_u64(8, 2); // pre-enable handle stays untraced
        drop(h);
        let mut h2 = p.handle();
        h2.write_u64(16, 3);
        drop(h2);
        let t = p.take_trace().unwrap();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].a, 16);
    }

    fn metered_pool() -> PmemPool {
        let mut cfg = PoolConfig::small_for_tests();
        cfg.latency = LatencyModel::default();
        cfg.metrics = MetricsConfig::with_window(1_000);
        PmemPool::new(cfg)
    }

    #[test]
    fn op_spans_record_latency_and_counter_deltas() {
        let p = metered_pool();
        let mut h = p.handle();
        h.observe(EventKind::OpBegin, 2, 0);
        h.write_u64(0, 1);
        h.persist(0, 8);
        h.observe(EventKind::OpEnd, 2, 0);
        let spanned = h.clock_ns();
        drop(h);
        let m = p.take_metrics().expect("metrics enabled");
        assert_eq!(m.total_ops(), 1);
        let w = &m.windows[(spanned / 1_000) as usize];
        assert_eq!(w.ops[2], 1);
        assert_eq!(w.lat.max(), spanned, "span covered the whole handle life");
        assert_eq!(w.counters.stores, 1);
        assert_eq!(w.counters.clwbs, 1);
        assert_eq!(w.counters.fences, 1);
    }

    #[test]
    fn op_spans_also_emit_trace_events_when_tracing() {
        let mut cfg = PoolConfig::small_for_tests();
        cfg.trace = TraceConfig { enabled: true, buf_entries: 64 };
        let p = PmemPool::new(cfg);
        let mut h = p.handle();
        h.observe(EventKind::OpBegin, 1, 0);
        h.advance(40);
        h.observe(EventKind::OpEnd, 1, 0);
        drop(h);
        let t = p.take_trace().unwrap();
        let counts = t.counts_by_kind();
        assert_eq!(counts[EventKind::OpBegin as usize], 1);
        assert_eq!(counts[EventKind::OpEnd as usize], 1);
        let end = t.events.iter().find(|e| e.kind == EventKind::OpEnd).unwrap();
        assert_eq!(end.b, 40, "OpEnd carries the span duration");
    }

    #[test]
    fn set_metrics_affects_only_later_handles_and_applies_base() {
        let p = pool();
        let mut h = p.handle();
        h.observe(EventKind::OpBegin, 0, 0);
        h.observe(EventKind::OpEnd, 0, 0);
        p.set_metrics(MetricsConfig::with_window(1_000).at_base(5_000));
        drop(h);
        let mut h2 = p.handle();
        h2.observe(EventKind::OpBegin, 1, 0);
        h2.advance(10);
        h2.observe(EventKind::OpEnd, 1, 0);
        let t0 = h2.recovery_begin(RecoveryPhase::Rebuild);
        h2.advance(20);
        h2.recovery_end(RecoveryPhase::Rebuild, t0);
        drop(h2);
        let m = p.take_metrics().unwrap();
        assert_eq!(m.total_ops(), 1, "pre-enable handle recorded nothing");
        assert_eq!(m.windows[5].ops[1], 1, "base offset shifts the window");
        assert_eq!(m.windows[5].recovery_ns[3], 20);
    }

    /// One pairing for both exports: a close with no open span records no
    /// latency, counts no op, and carries `b == 0` — it neither measures
    /// from 0 nor reports the previous span again plus the gap.
    #[test]
    fn unbalanced_op_end_records_nothing_in_either_export() {
        let both = PoolConfig {
            trace: TraceConfig { enabled: true, buf_entries: 64 },
            metrics: MetricsConfig::with_window(1_000),
            ..PoolConfig::small_for_tests()
        };
        let ends = |p: &PmemPool| -> Vec<u64> {
            let t = p.take_trace().unwrap();
            t.events.iter().filter(|e| e.kind == EventKind::OpEnd).map(|e| e.b).collect()
        };
        let p = PmemPool::new(both.clone());
        let mut h = p.handle();
        h.advance(100);
        h.observe(EventKind::OpEnd, 1, 0);
        drop(h);
        assert_eq!(ends(&p), vec![0], "a lone op_end carries no duration");
        assert_eq!(p.take_metrics().unwrap().total_ops(), 0);

        let p = PmemPool::new(both);
        let mut h = p.handle();
        h.observe(EventKind::OpBegin, 1, 0);
        h.advance(40);
        h.observe(EventKind::OpEnd, 1, 0);
        h.advance(100);
        h.observe(EventKind::OpEnd, 1, 0);
        drop(h);
        assert_eq!(ends(&p), vec![40, 0], "the stray op_end repeats nothing");
        let m = p.take_metrics().unwrap();
        assert_eq!(m.total_ops(), 1);
        assert_eq!(m.per_kind[1].sum(), 40);
    }

    #[test]
    fn take_metrics_drains_collector() {
        let p = metered_pool();
        let mut h = p.handle();
        h.observe(EventKind::OpBegin, 0, 0);
        h.observe(EventKind::OpEnd, 0, 0);
        drop(h);
        assert_eq!(p.take_metrics().unwrap().total_ops(), 1);
        assert_eq!(p.take_metrics().unwrap().total_ops(), 0, "collector drained");
    }

    #[test]
    fn trace_ring_overflow_reports_exact_drop_count() {
        let mut cfg = PoolConfig::small_for_tests();
        cfg.trace = TraceConfig { enabled: true, buf_entries: 8 };
        let p = PmemPool::new(cfg);
        let mut h = p.handle();
        for i in 0..20u64 {
            h.write_u64(i as usize * 8, i);
        }
        drop(h);
        let t = p.take_trace().unwrap();
        assert_eq!(t.pushed, 20);
        assert_eq!(t.dropped, 12);
        assert_eq!(t.events.len(), 8);
    }
}
