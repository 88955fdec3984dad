//! Configurable latency model for persistence operations.
//!
//! The paper emulates NVM on DRAM: `clflush` + `sfence` approximate the cost
//! of persisting on an ADR machine, and Section V-E adds a configurable extra
//! delay after each flush to model slower NVM write paths (20–2000 ns). This
//! module reproduces that cost structure as *simulated nanoseconds* charged to
//! a per-thread clock; no charge waits in real time.

/// Latency parameters, in nanoseconds, for each memory/persistence primitive.
///
/// Defaults approximate the paper's testbed assumptions: NVM read/write
/// latency similar to DRAM, a `clwb`+`sfence` round trip to the memory
/// controller on the order of 100 ns, and zero extra NVM delay (the Fig. 9
/// sweep raises [`LatencyModel::nvm_extra_delay_ns`] from 20 to 2000).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost of an ordinary cached load.
    pub load_ns: u64,
    /// Cost of an ordinary cached store.
    pub store_ns: u64,
    /// Cost of issuing a `clwb`/`clflush` (the issue itself is cheap; the
    /// wait is paid at the next fence).
    pub clwb_issue_ns: u64,
    /// Fixed cost of an `sfence` with no pending write-backs.
    pub sfence_base_ns: u64,
    /// Round-trip cost, per pending flushed line, paid when an `sfence`
    /// drains the write-back queue.
    pub flush_roundtrip_ns: u64,
    /// Extra delay per flushed line (and per non-temporal store) modelling
    /// slow NVM media or a long data path; the Fig. 9 sensitivity knob.
    pub nvm_extra_delay_ns: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            load_ns: 1,
            store_ns: 1,
            clwb_issue_ns: 5,
            sfence_base_ns: 15,
            flush_roundtrip_ns: 100,
            nvm_extra_delay_ns: 0,
        }
    }
}

impl LatencyModel {
    /// A model with every cost set to zero (useful in unit tests that only
    /// care about crash semantics).
    pub fn zero() -> Self {
        Self {
            load_ns: 0,
            store_ns: 0,
            clwb_issue_ns: 0,
            sfence_base_ns: 0,
            flush_roundtrip_ns: 0,
            nvm_extra_delay_ns: 0,
        }
    }

    /// Returns the default model with the Fig. 9 extra-NVM-delay knob set.
    pub fn with_nvm_delay(delay_ns: u64) -> Self {
        Self { nvm_extra_delay_ns: delay_ns, ..Self::default() }
    }

    /// Cost of draining `pending` queued write-backs at a fence.
    ///
    /// Write-backs issued before the fence drain largely in parallel: the
    /// fence pays one full round trip to the memory controller plus a small
    /// serialization overhead (a quarter round trip) for each additional
    /// line. The extra NVM delay, by contrast, is charged **per line** —
    /// this mirrors the paper's Section V-E methodology of inserting a nop
    /// delay after *each* `clflush`, and is why stores-per-fence-heavy
    /// schemes (JUSTDO's shadowing) are the most latency-sensitive.
    #[inline]
    pub fn fence_cost(&self, pending: u64) -> u64 {
        let drain = if pending == 0 {
            0
        } else {
            self.flush_roundtrip_ns + (pending - 1) * (self.flush_roundtrip_ns / 4)
        };
        self.sfence_base_ns + drain + pending * self.nvm_extra_delay_ns
    }

    /// Cost of a non-temporal (write-combining, cache-bypassing) store.
    #[inline]
    pub fn nt_store_cost(&self) -> u64 {
        self.store_ns + self.nvm_extra_delay_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_dram_like_accesses() {
        let m = LatencyModel::default();
        assert!(m.load_ns <= 2);
        assert!(m.store_ns <= 2);
        assert!(m.flush_roundtrip_ns >= 50);
    }

    #[test]
    fn fence_cost_overlaps_drains_but_grows_with_pending() {
        let m = LatencyModel::default();
        let one = m.fence_cost(1);
        let four = m.fence_cost(4);
        assert!(four > one, "more pending lines cost more");
        assert!(
            four - one < 3 * m.flush_roundtrip_ns,
            "concurrent drains cost less than serial round trips"
        );
        assert_eq!(four - one, 3 * (m.flush_roundtrip_ns / 4));
    }

    #[test]
    fn nvm_delay_is_charged_per_line() {
        let base = LatencyModel::default();
        let slow = LatencyModel::with_nvm_delay(500);
        assert_eq!(slow.fence_cost(2) - base.fence_cost(2), 1000);
        assert_eq!(slow.nt_store_cost() - base.nt_store_cost(), 500);
    }

    #[test]
    fn zero_model_charges_nothing() {
        let m = LatencyModel::zero();
        assert_eq!(m.fence_cost(100), 0);
        assert_eq!(m.nt_store_cost(), 0);
    }
}
