//! Demand runs held open across wear-leveling steps.
//!
//! Under a write run to one logical line, the periodic schemes (SR, TLSR,
//! MWSR) fire a step every few demand writes, but most steps leave the
//! line's translation unchanged. [`DeferredRun`] lets their `write_run`
//! keep one pending demand run `(pa, k)` open across such steps: each step
//! still runs in order and posts its own overhead writes, and the pending
//! writes reach the device as one [`NvmDevice::write_run`] only when the
//! translation moves, the run ends, or a write could fail.
//!
//! Device state depends on write order only through line failures (and
//! fault-plan boundaries): a write that does not fail touches one line's
//! countdown and commutative counters, and the wear probe's Σc² and max
//! depend only on the final counts. So deferral is exact under three rules:
//!
//! - **Budget.** Demand writes are deferred only while the pending count
//!   stays below the line's remaining writes, so no deferred write fails.
//! - **Flush first.** The pending run reaches the device before any
//!   overhead write to the pending line itself or to a line with at most
//!   one write left (a write that fails).
//! - **No fault plan.** An armed plan can drop or retry writes at fixed
//!   write indices, so nothing is deferred while one is installed.
//!
//! A window that ends the run or would overrun the budget goes straight to
//! the device, merged with whatever is pending — the plain per-window
//! loop, which is also the only fallback.

use sawl_nvm::{NvmDevice, Pa, WriteOutcome};

/// One pending run of demand writes to a single physical line.
#[derive(Debug, Default)]
pub(crate) struct DeferredRun {
    pa: Pa,
    pending: u64,
    /// The line's remaining writes when the pending run opened; overhead
    /// writes to `pa` flush first, so it stays exact while writes pend.
    budget: u64,
    /// An overhead write landed on `pa` since the last [`Self::take_moved`].
    moved: bool,
}

impl DeferredRun {
    /// Serve `k` demand writes to `pa` and return how many were applied
    /// (deferred writes count: they cannot fail). `more` says a step fires
    /// right after these writes and the run goes on past it; otherwise the
    /// writes go to the device at once, with any pending ones.
    ///
    /// The helpers are forced inline: each scheme calls them once per
    /// step window, and an outlined call there costs as much as the
    /// device run a deferral saves.
    #[inline(always)]
    pub(crate) fn demand(&mut self, dev: &mut NvmDevice, pa: Pa, k: u64, more: bool) -> u64 {
        if pa != self.pa {
            self.flush(dev);
            self.pa = pa;
        }
        if more && !dev.fault_plan_armed() {
            if self.pending == 0 {
                self.budget = dev.remaining_writes(pa);
            }
            if self.pending + k < self.budget {
                self.pending += k;
                return k;
            }
        }
        let pending = std::mem::take(&mut self.pending);
        if pending + k == 1 {
            // A lone write (YCSB's length-1 runs) takes the device's
            // inlined scalar path; it applied iff the demand count moved.
            let before = dev.wear().demand_writes;
            dev.write(pa);
            return dev.wear().demand_writes - before;
        }
        let (applied, _) = dev.write_run(pa, pending + k);
        applied - pending
    }

    /// Post one wear-leveling overhead write to `target`, flushing the
    /// pending run first when the write lands on the pending line or
    /// could fail.
    #[inline(always)]
    pub(crate) fn overhead(&mut self, dev: &mut NvmDevice, target: Pa) {
        if target == self.pa {
            self.flush(dev);
            self.moved = true;
        } else if self.pending > 0 && dev.remaining_writes(target) <= 1 {
            self.flush(dev);
        }
        dev.write_wl(target);
    }

    /// Whether an overhead write landed on the demand line since the last
    /// call. A refresh step (SR, TLSR) moves the line exactly when it
    /// writes the line's current home, so those schemes re-translate only
    /// then.
    #[inline]
    pub(crate) fn take_moved(&mut self) -> bool {
        std::mem::take(&mut self.moved)
    }

    /// Hand the pending writes to the device. Call once the run ends.
    #[inline(always)]
    pub(crate) fn flush(&mut self, dev: &mut NvmDevice) {
        if self.pending > 0 {
            self.flush_pending(dev);
        }
    }

    /// The device half of [`Self::flush`], once per segment: out of line.
    #[inline(never)]
    fn flush_pending(&mut self, dev: &mut NvmDevice) {
        let (applied, out) = dev.write_run(self.pa, self.pending);
        debug_assert!(
            applied == self.pending && out == WriteOutcome::Ok,
            "deferred run on line {} failed: {applied}/{} writes, {out:?}",
            self.pa,
            self.pending
        );
        self.pending = 0;
    }
}
