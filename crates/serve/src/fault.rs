//! Deterministic fault injection for the serve layer, compiled in only
//! under the `fault-inject` cargo feature (test builds; never the
//! shipped daemon).
//!
//! A [`FaultPlan`] names global request sequence numbers (the same
//! stamps the cache and LRU use) at which something goes wrong:
//!
//! * **worker panics** and **slow compiles** are consumed by the server
//!   itself — [`crate::server::Server::set_fault_plan`] arms a session,
//!   and its workers panic or stall at the chosen stamps;
//! * **truncated client writes** and **mid-stream disconnects** are
//!   consumed by the *test harness*, which mutilates the byte stream it
//!   feeds the daemon — the plan just makes one seed describe the whole
//!   scenario;
//! * **disk faults** target the persistence layer: process death at an
//!   arbitrary byte offset during log appends or compactions
//!   (consumed via [`crate::shared::SharedState::set_disk_faults`]) and
//!   post-mortem file mutilation — truncation or a bit flip at a seeded
//!   offset — applied by the harness between "runs" of the daemon.
//!
//! Everything derives from one `u64` seed via a splitmix-style
//! generator, so a failing proptest case is reproducible from its seed
//! alone and the daemon's behavior under the plan is a pure function of
//! `(plan, request stream)`.

use std::time::Duration;

/// Which faults fire at which global request stamps.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Stamps whose compile job panics inside the worker.
    pub panic_at: Vec<u64>,
    /// `(stamp, millis)`: the compile job stalls this long before
    /// compiling — with a request deadline armed, a deterministic
    /// `deadline_exceeded`; without one, just a late (but byte-correct)
    /// response.
    pub slow_at: Vec<(u64, u64)>,
    /// Cut the client's write of request-line index `.0` after `.1`
    /// bytes of that line (harness-side).
    pub truncate_write: Option<(usize, usize)>,
    /// Disconnect the client after sending this many complete request
    /// lines (harness-side).
    pub disconnect_after: Option<usize>,
    /// The persister dies (as a killed process would — mid-write, no
    /// cleanup) after this many appended frame bytes.
    pub append_kill_after: Option<u64>,
    /// The persister dies after this many compaction bytes, leaving the
    /// half-written `*.tmp` behind.
    pub compact_kill_after: Option<u64>,
    /// Harness-side: truncate the log to this many bytes between runs.
    pub truncate_file: Option<u64>,
    /// Harness-side: flip bit `.1` of byte `.0` of the log between runs.
    pub flip_bit: Option<(u64, u8)>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Derives a plan for a stream of `horizon` requests from one seed:
    /// up to two panics, up to two slow compiles of `slow_ms` each, and
    /// (steered by the seed's low bits) a truncated write or an early
    /// disconnect.
    #[must_use]
    pub fn seeded(seed: u64, horizon: u64, slow_ms: u64) -> FaultPlan {
        let mut s = seed;
        let mut plan = FaultPlan::default();
        if horizon == 0 {
            return plan;
        }
        for _ in 0..(splitmix(&mut s) % 3) {
            plan.panic_at.push(splitmix(&mut s) % horizon);
        }
        for _ in 0..(splitmix(&mut s) % 3) {
            plan.slow_at.push((splitmix(&mut s) % horizon, slow_ms));
        }
        plan.panic_at.sort_unstable();
        plan.panic_at.dedup();
        // A stamp can't both panic and stall: panic wins, as it would in
        // the worker (the panic hook fires before the compile).
        plan.slow_at.retain(|(t, _)| !plan.panic_at.contains(t));
        plan.slow_at.sort_unstable();
        plan.slow_at.dedup_by_key(|(t, _)| *t);
        let roll = splitmix(&mut s);
        if roll & 1 == 1 {
            let line = (splitmix(&mut s) % horizon) as usize;
            let cut = (splitmix(&mut s) % 40) as usize;
            plan.truncate_write = Some((line, cut));
        }
        if roll & 2 == 2 {
            plan.disconnect_after = Some((splitmix(&mut s) % horizon) as usize + 1);
        }
        plan
    }

    /// Derives a disk-fault plan from one seed: exactly one of the four
    /// disk faults, steered by the seed's low bits, with byte offsets in
    /// `0..max_bytes`. The write-time kills convert to
    /// [`crate::persist::DiskFaults`] via [`FaultPlan::disk_faults`];
    /// `truncate_file` / `flip_bit` are applied by the harness to the
    /// log itself between runs.
    #[must_use]
    pub fn seeded_disk(seed: u64, max_bytes: u64) -> FaultPlan {
        let mut s = seed;
        let mut plan = FaultPlan::default();
        let span = max_bytes.max(1);
        match splitmix(&mut s) % 4 {
            0 => plan.append_kill_after = Some(splitmix(&mut s) % span),
            1 => plan.compact_kill_after = Some(splitmix(&mut s) % span),
            2 => plan.truncate_file = Some(splitmix(&mut s) % span),
            _ => {
                let byte = splitmix(&mut s) % span;
                let bit = (splitmix(&mut s) % 8) as u8;
                plan.flip_bit = Some((byte, bit));
            }
        }
        plan
    }

    /// The write-time portion of the plan, in the persister's terms.
    #[must_use]
    pub fn disk_faults(&self) -> crate::persist::DiskFaults {
        crate::persist::DiskFaults {
            append_kill_after: self.append_kill_after,
            compact_kill_after: self.compact_kill_after,
        }
    }

    /// Whether the compile at `stamp` should panic.
    #[must_use]
    pub fn panics_at(&self, stamp: u64) -> bool {
        self.panic_at.contains(&stamp)
    }

    /// How long the compile at `stamp` should stall first, if at all.
    #[must_use]
    pub fn stall_at(&self, stamp: u64) -> Option<Duration> {
        self.slow_at
            .iter()
            .find(|(t, _)| *t == stamp)
            .map(|&(_, ms)| Duration::from_millis(ms))
    }

    /// The set of stamps whose *response* is allowed to differ from the
    /// one-shot oracle (panicked or, when a deadline is armed, stalled
    /// past it). Everything else must stay byte-identical.
    #[must_use]
    pub fn faulted_stamps(&self, deadline_armed: bool) -> Vec<u64> {
        let mut out = self.panic_at.clone();
        if deadline_armed {
            out.extend(self.slow_at.iter().map(|&(t, _)| t));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}
