//! One memory channel: read/write queues, FR-FCFS scheduling with write
//! drain, refresh, and the shared data bus.
//!
//! The scheduler issues at most one command per DRAM cycle (command-bus
//! limit). Reads are prioritized; writes drain in batches between a
//! high and a low watermark, as in USIMM's baseline scheduler.
//!
//! # Performance structure
//!
//! This is the optimized hot path; [`crate::reference::ReferenceChannel`]
//! is the straight-line executable specification it must match
//! command-for-command (checked by the `scheduler_equivalence` property
//! test and the `scheduler_traffic` lockstep test). Every scheduling
//! decision is bank-local: a bank's CAS candidate is its *oldest
//! row-matching* request (CAS legality is uniform across a bank), and
//! its PRE/ACT decision belongs to its *oldest* request (a younger
//! conflict may never close a row an older request still wants, and
//! `act_at` is the same for every request of a closed bank). Ties across
//! banks resolve by global age (sequence number), which reproduces the
//! reference scheduler's full age-order scan, quadratic open-row rescan
//! included. Three mechanisms make it fast without changing behavior:
//!
//! * **Event-driven selection** ([`RequestQueue`]): each bank caches
//!   the cycle its CAS candidate clears the bank and rank gates (the
//!   data bus excluded) and the cycle its row command (PRE or ACT) may
//!   issue. A bank is recomputed only when an input of those times
//!   changes: an enqueue or removal on the bank, a PRE/ACT/CAS on it, a
//!   rank event on its rank (ACT, CAS, refresh), fast-forward or
//!   restore. Banks whose time has passed sit in *ripe* sets; later
//!   times wait in min-heaps. A sweep touches only the dirty banks, the
//!   newly ripe ones and the ripe sets, never every active bank. The
//!   data bus is one O(1) gate per sweep: the same-rank gate for the
//!   last burst's rank, the turnaround gate for every other rank.
//! * **Exact next-event skipping**: whenever a tick issues nothing, the
//!   channel computes the earliest cycle at which a command can issue
//!   (bus gates applied), a refresh falls due, or the write-drain flag
//!   flips, and early-returns from `tick` until then. Channel state is
//!   frozen between events, so the skipped ticks are provably no-ops.
//!   The wake must be *exact*, not merely a lower bound:
//!   [`Channel::next_event`] clips the run loop's bulk-advance and
//!   event-skip windows, and snapshot capture points land on the cycles
//!   the loop visits, so a looser wake changes snapshot bytes even when
//!   every command stays the same.
//! * **Slab storage**: requests live in a reusable slab, indexed per bank
//!   oldest-first; removal is an ordered slab free, not a `Vec` shift.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::bank::{BankState, RankState};
use crate::command::{ChannelStats, Command, Completion, IssuedCommand, Request};
use crate::config::{DramConfig, DramTiming};
use itesp_snap::{persist, Persist, SnapError, SnapReader, SnapWriter};

/// A cached issue time meaning "no such command pending".
const NEVER: u64 = u64::MAX;

/// State of the shared data bus: last burst's rank and end time.
#[derive(Debug, Clone, Copy, Default)]
struct DataBus {
    free_at: u64,
    last_rank: Option<u32>,
}

impl DataBus {
    /// The bus's CAS gates for a read or write queue: the banks of the
    /// last burst's rank, the earliest cycle a CAS there may issue
    /// (`g_same`), and the earliest for every other rank (`g_other`,
    /// which adds the rank turnaround).
    fn gates(&self, cfg: &DramConfig, writes: bool) -> (Range<usize>, u64, u64) {
        let t = &cfg.timing;
        let lat = if writes { t.t_cwd } else { t.t_cas };
        let g_same = self.free_at.saturating_sub(lat);
        match self.last_rank {
            Some(r) => (
                rank_banks(cfg, r),
                g_same,
                (self.free_at + t.t_rtrs).saturating_sub(lat),
            ),
            None => (0..0, g_same, g_same),
        }
    }
}

/// The bank indices of rank `r`.
fn rank_banks(cfg: &DramConfig, r: u32) -> Range<usize> {
    let per = cfg.geometry.banks_per_rank as usize;
    r as usize * per..(r as usize + 1) * per
}

/// One occupied or free slab entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    req: Request,
    live: bool,
}

/// One per-bank index entry: the request's slab slot, row and age.
#[derive(Debug, Clone, Copy)]
struct BankEntry {
    slot: u32,
    row: u32,
    seq: u64,
}

/// A set of bank indices: one bit per bank of the channel.
#[derive(Debug, Clone)]
struct BankSet {
    words: Box<[u64]>,
}

impl BankSet {
    fn new(nbanks: usize) -> Self {
        BankSet {
            words: vec![0; nbanks.div_ceil(64)].into_boxed_slice(),
        }
    }

    fn insert(&mut self, b: usize) {
        self.words[b / 64] |= 1 << (b % 64);
    }

    fn remove(&mut self, b: usize) {
        self.words[b / 64] &= !(1 << (b % 64));
    }

    /// The bits of word `w` that fall inside `banks`.
    fn mask(w: usize, banks: &Range<usize>) -> u64 {
        let lo = banks.start.saturating_sub(w * 64).min(64);
        let hi = banks.end.saturating_sub(w * 64).min(64);
        if hi <= lo {
            0
        } else {
            (u64::MAX >> (64 - (hi - lo))) << lo
        }
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Add every bank of `banks` that `filter` holds.
    fn insert_from(&mut self, filter: &BankSet, banks: &Range<usize>) {
        for (w, (word, f)) in self.words.iter_mut().zip(&filter.words[..]).enumerate() {
            *word |= f & Self::mask(w, banks);
        }
    }

    /// True if the set holds a bank outside `banks`.
    fn any_outside(&self, banks: &Range<usize>) -> bool {
        self.words
            .iter()
            .enumerate()
            .any(|(w, &word)| word & !Self::mask(w, banks) != 0)
    }

    /// The members inside `banks`, in increasing order.
    fn iter_in(&self, banks: Range<usize>) -> Members<'_> {
        let words = &self.words[..];
        let w = banks.start / 64;
        let bits = words.get(w).map_or(0, |&word| word & Self::mask(w, &banks));
        Members {
            words,
            banks,
            w,
            bits,
        }
    }
}

/// Iterator over the members of a [`BankSet`] inside a range of banks.
struct Members<'a> {
    words: &'a [u64],
    banks: Range<usize>,
    /// The word being drained, and its remaining members.
    w: usize,
    bits: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.w += 1;
            if self.w * 64 >= self.banks.end || self.w >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.w] & BankSet::mask(self.w, &self.banks);
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.w * 64 + b)
    }
}

/// One bank's pending requests in one queue, with the scheduler's cached
/// issue times for them.
#[derive(Debug, Clone)]
struct BankQueue {
    /// Pending entries, oldest first (push appends, removal preserves
    /// order).
    entries: Vec<BankEntry>,
    /// Earliest cycle the CAS candidate (`cas`) clears the bank and rank
    /// gates; the data bus is gated per sweep. `NEVER` when no pending
    /// request wants the open row.
    cas_at: u64,
    /// The bank's oldest request for its open row, valid while `cas_at`
    /// is not `NEVER`.
    cas: BankEntry,
    /// Earliest cycle of the head request's row command: PRE when it
    /// conflicts with the open row, ACT when the bank is closed. `NEVER`
    /// when the head hits the open row or the bank has no requests.
    row_at: u64,
}

/// The banks whose cached time for one command kind (CAS or row) has
/// passed, and the later ones in time order.
///
/// `pending` may hold stale entries: an entry `(at, bank)` is live only
/// while `at` is still the bank's cached time. Every bank whose time is
/// finite and in the future has a live entry, so the first live entry is
/// the exact earliest pending time.
#[derive(Debug, Clone)]
struct Timeline {
    ripe: BankSet,
    pending: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Timeline {
    fn new(nbanks: usize) -> Self {
        Timeline {
            ripe: BankSet::new(nbanks),
            pending: BinaryHeap::new(),
        }
    }

    /// Bank `b`'s cached time moved from `old` to `new` during the sweep
    /// at `now`.
    fn place(&mut self, b: usize, old: u64, new: u64, now: u64) {
        if new <= now {
            self.ripe.insert(b);
            return;
        }
        self.ripe.remove(b);
        // An unchanged future time already has its live entry (a ripe
        // bank's old time is at most `now`, so it always differs).
        if new != NEVER && new != old {
            self.pending.push(Reverse((new, b as u32)));
        }
    }

    /// Move every bank whose time has come by `now` into the ripe set.
    fn ripen(&mut self, now: u64, time: impl Fn(usize) -> u64) {
        while let Some(&Reverse((at, b))) = self.pending.peek() {
            if at > now {
                break;
            }
            self.pending.pop();
            if time(b as usize) == at {
                self.ripe.insert(b as usize);
            }
        }
    }

    /// The earliest pending `(time, bank)`, dropping stale entries on
    /// the way.
    fn next(&mut self, time: impl Fn(usize) -> u64) -> Option<(u64, usize)> {
        while let Some(&Reverse((at, b))) = self.pending.peek() {
            if time(b as usize) == at {
                return Some((at, b as usize));
            }
            self.pending.pop();
        }
        None
    }
}

/// Age-ordered request storage with per-bank index lists and the
/// scheduler's per-bank issue-time caches.
///
/// Requests sit in a slab (`slots` + `free`), stamped with a strictly
/// increasing sequence number (global age); `banks` keeps an
/// oldest-first [`BankEntry`] list per bank with the row and age inline.
/// `dirty` marks the banks whose cached times are out of date; a
/// scheduling sweep recomputes exactly those before it looks at the
/// `cas` and `row` timelines.
#[derive(Debug)]
struct RequestQueue {
    slots: Vec<Slot>,
    free: Vec<u32>,
    banks: Vec<BankQueue>,
    /// Banks with at least one pending request.
    occupied: BankSet,
    dirty: BankSet,
    cas: Timeline,
    row: Timeline,
    /// No command of this queue can issue before this cycle: the last
    /// wake computed for it, valid until anything in the channel changes.
    /// Every change goes through `push`, `remove` or `touch`, which reset
    /// it, so a sweep that only time separates from the last one (the
    /// write-drain flag oscillating, say) returns at once.
    quiet_until: u64,
    len: usize,
    cap: usize,
    next_seq: u64,
}

impl RequestQueue {
    fn new(cap: usize, nbanks: usize) -> Self {
        let idle = BankQueue {
            entries: Vec::new(),
            cas_at: NEVER,
            cas: BankEntry {
                slot: 0,
                row: 0,
                seq: 0,
            },
            row_at: NEVER,
        };
        RequestQueue {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            banks: vec![idle; nbanks],
            occupied: BankSet::new(nbanks),
            dirty: BankSet::new(nbanks),
            cas: Timeline::new(nbanks),
            row: Timeline::new(nbanks),
            quiet_until: 0,
            len: 0,
            cap,
            next_seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn has_space(&self) -> bool {
        self.len < self.cap
    }

    /// Append a request (its `bank_index` must already be set). Returns
    /// `false` if the queue is at capacity.
    fn push(&mut self, req: Request) -> bool {
        if self.len >= self.cap {
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Slot { req, live: true };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = entry;
                s
            }
            None => {
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
        };
        let b = req.bank_index as usize;
        self.banks[b].entries.push(BankEntry {
            slot,
            row: req.coords.row,
            seq,
        });
        self.occupied.insert(b);
        self.dirty.insert(b);
        self.quiet_until = 0;
        self.len += 1;
        true
    }

    /// Ordered removal: frees the slab slot and unlinks the bank list
    /// entry (order-preserving, so bank lists stay oldest-first).
    fn remove(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.live);
        s.live = false;
        let b = s.req.bank_index as usize;
        let list = &mut self.banks[b].entries;
        let pos = list
            .iter()
            .position(|e| e.slot == slot)
            .expect("slot present in its bank list");
        list.remove(pos);
        if list.is_empty() {
            self.occupied.remove(b);
        }
        self.dirty.insert(b);
        self.quiet_until = 0;
        self.free.push(slot);
        self.len -= 1;
    }

    fn req(&self, slot: u32) -> &Request {
        &self.slots[slot as usize].req
    }

    fn req_mut(&mut self, slot: u32) -> &mut Request {
        &mut self.slots[slot as usize].req
    }

    /// Mark the occupied banks of `banks` for recomputation: bank or
    /// rank timing they read has changed.
    fn touch(&mut self, banks: &Range<usize>) {
        self.dirty.insert_from(&self.occupied, banks);
        self.quiet_until = 0;
    }

    /// Bring the caches up to date for a sweep at `now`: recompute the
    /// dirty banks, then ripen the banks whose time has come. Returns
    /// whether any bank is ripe.
    fn settle(
        &mut self,
        now: u64,
        writes: bool,
        banks: &[BankState],
        ranks: &[RankState],
        bank_rank: &[u32],
        t: &DramTiming,
    ) -> bool {
        for w in 0..self.dirty.words.len() {
            let mut bits = std::mem::take(&mut self.dirty.words[w]);
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let rank = &ranks[bank_rank[b] as usize];
                self.recompute(b, now, writes, &banks[b], rank, t);
            }
        }
        let cached = &self.banks;
        self.cas.ripen(now, |b| cached[b].cas_at);
        self.row.ripen(now, |b| cached[b].row_at);
        !(self.cas.ripe.is_empty() && self.row.ripe.is_empty())
    }

    /// Recompute bank `b`'s cached CAS and row-command times from its
    /// bank and rank state.
    fn recompute(
        &mut self,
        b: usize,
        now: u64,
        writes: bool,
        bank: &BankState,
        rank: &RankState,
        t: &DramTiming,
    ) {
        let bq = &mut self.banks[b];
        let (cas_at, row_at) = match (bank.open_row, bq.entries.first()) {
            (_, None) => (NEVER, NEVER),
            (Some(open), Some(head)) => {
                let cas_at = match bq.entries.iter().find(|e| e.row == open) {
                    Some(e) => {
                        bq.cas = *e;
                        let cmd = if writes {
                            bank.next_write.max(rank.next_write)
                        } else {
                            bank.next_read.max(rank.next_read)
                        };
                        cmd.max(rank.ready_at)
                    }
                    None => NEVER,
                };
                let row_at = if head.row == open {
                    NEVER
                } else {
                    bank.next_precharge
                };
                (cas_at, row_at)
            }
            (None, Some(_)) => (NEVER, bank.next_activate.max(rank.activate_allowed_at(t))),
        };
        let old_cas = std::mem::replace(&mut bq.cas_at, cas_at);
        let old_row = std::mem::replace(&mut bq.row_at, row_at);
        self.cas.place(b, old_cas, cas_at, now);
        self.row.place(b, old_row, row_at, now);
    }

    /// The ripe bank in `set` ∩ `banks` whose `key` entry is oldest.
    fn oldest(
        &self,
        set: &BankSet,
        banks: Range<usize>,
        key: impl Fn(&BankQueue) -> u64,
    ) -> Option<usize> {
        set.iter_in(banks).min_by_key(|&b| key(&self.banks[b]))
    }

    /// After a sweep at which nothing could issue: the earliest cycle
    /// any pending command can, given the bus gates (`g_same` for the
    /// banks of the last burst's rank, `last`, and `g_other` for the
    /// rest).
    fn wake(&mut self, last: Range<usize>, g_same: u64, g_other: u64) -> u64 {
        debug_assert!(self.row.ripe.iter_in(0..self.banks.len()).next().is_none());
        let mut wake = NEVER;
        // One rank's banks carry the same-rank gate: scan them.
        for b in self.occupied.iter_in(last.clone()) {
            let at = self.banks[b].cas_at;
            if at != NEVER {
                wake = wake.min(at.max(g_same));
            }
        }
        // Every other bank waits for max(its time, g_other): g_other
        // itself if one is ripe, else the earliest pending time. When
        // that bank lies in the last rank, the scan above already found
        // something no later.
        let cached = &self.banks;
        if self.cas.ripe.any_outside(&last) {
            wake = wake.min(g_other);
        } else if let Some((at, b)) = self.cas.next(|b| cached[b].cas_at) {
            if !last.contains(&b) {
                wake = wake.min(at.max(g_other));
            }
        }
        if let Some((at, _)) = self.row.next(|b| cached[b].row_at) {
            wake = wake.min(at);
        }
        self.quiet_until = wake;
        wake
    }

    /// Live requests in global age order, for snapshot serialization.
    /// Restore re-pushes them in this order into a fresh queue; absolute
    /// sequence numbers change but the scheduler only compares relative
    /// age, so behavior is identical (canonical restore).
    fn live_by_seq(&self) -> Vec<Request> {
        let mut entries: Vec<(u64, u32)> = self
            .banks
            .iter()
            .flat_map(|bq| bq.entries.iter().map(|e| (e.seq, e.slot)))
            .collect();
        entries.sort_unstable_by_key(|&(seq, _)| seq);
        entries
            .into_iter()
            .map(|(_, slot)| self.slots[slot as usize].req)
            .collect()
    }
}

/// A single DRAM channel with its controller queues.
#[derive(Debug)]
pub struct Channel {
    cfg: DramConfig,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    bus: DataBus,
    read_q: RequestQueue,
    write_q: RequestQueue,
    draining_writes: bool,
    stats: ChannelStats,
    completions: Vec<Completion>,
    cmd_log: Option<Vec<IssuedCommand>>,
    /// The exact next cycle at which a command, refresh or drain-flag
    /// flip can occur; `tick` is a no-op before it. Reset on enqueue and
    /// fast-forward.
    next_wake: u64,
    /// Rank of each bank index, so recomputing a bank looks its rank up
    /// instead of dividing by `banks_per_rank`.
    bank_rank: Vec<u32>,
    /// Earliest `next_refresh` over all ranks, recomputed after every
    /// refresh, fast-forward and restore so `tick` need not scan the
    /// ranks to find it. It must never exceed the true minimum (that
    /// would skip a refresh); deadlines only move later, so a lagging
    /// value merely costs one scan.
    refresh_due: u64,
}

impl Channel {
    pub fn new(cfg: DramConfig) -> Self {
        let g = &cfg.geometry;
        let nbanks = (g.ranks_per_channel * g.banks_per_rank) as usize;
        let ranks: Vec<RankState> = (0..g.ranks_per_channel)
            .map(|r| RankState::new(&cfg.timing, u64::from(r)))
            .collect();
        let refresh_due = earliest_refresh(&ranks);
        Channel {
            cfg,
            banks: vec![BankState::default(); nbanks],
            ranks,
            bus: DataBus::default(),
            read_q: RequestQueue::new(cfg.queues.read_queue, nbanks),
            write_q: RequestQueue::new(cfg.queues.write_queue, nbanks),
            draining_writes: false,
            stats: ChannelStats::default(),
            completions: Vec::new(),
            cmd_log: None,
            next_wake: 0,
            bank_rank: (0..nbanks as u32).map(|b| b / g.banks_per_rank).collect(),
            refresh_due,
        }
    }

    /// Start recording every issued command (including refreshes).
    pub fn enable_cmd_log(&mut self) {
        self.cmd_log = Some(Vec::new());
    }

    /// Drain the recorded command log.
    pub fn take_cmd_log(&mut self) -> Vec<IssuedCommand> {
        self.cmd_log.take().map_or_else(Vec::new, |log| {
            self.cmd_log = Some(Vec::new());
            log
        })
    }

    fn log_cmd(&mut self, cycle: u64, cmd: Command, rank: u32, bank: u32, row: u32) {
        if let Some(log) = &mut self.cmd_log {
            log.push(IssuedCommand {
                cycle,
                cmd,
                rank,
                bank,
                row,
            });
        }
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// True if the read queue can accept another request.
    pub fn read_queue_has_space(&self) -> bool {
        self.read_q.has_space()
    }

    /// True if the write queue can accept another request.
    pub fn write_queue_has_space(&self) -> bool {
        self.write_q.has_space()
    }

    /// Current occupancies `(reads, writes)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    /// Enqueue a request. Returns `false` (and drops it) if the relevant
    /// queue is full; callers are expected to check for space first.
    pub fn enqueue(&mut self, mut req: Request) -> bool {
        req.bank_index = req.coords.rank * self.cfg.geometry.banks_per_rank + req.coords.bank;
        let q = if req.is_write {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        if !q.push(req) {
            return false;
        }
        // New work may be schedulable immediately.
        self.next_wake = 0;
        true
    }

    /// True when both queues are empty (no work pending).
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty()
    }

    /// The next DRAM cycle at which [`Self::tick`] does any work: the
    /// exact earliest cycle at which a command can issue, a refresh falls
    /// due, or the write-drain flag flips. Ticks strictly before it are
    /// no-ops by construction (the early return above), so a caller that
    /// knows no new requests will arrive may skip straight to it. Any
    /// `enqueue` resets it to 0.
    pub fn next_event(&self) -> u64 {
        self.next_wake
    }

    /// Drain accumulated completions.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Append accumulated completions to `out`, keeping this channel's
    /// buffer (and its capacity) in place.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Advance one DRAM cycle: handle refresh, pick and issue at most one
    /// command. Cycles before the precomputed wake time are no-ops and
    /// return immediately. `now` never decreases from one call to the
    /// next.
    pub fn tick(&mut self, now: u64) {
        if now < self.next_wake {
            return;
        }
        self.handle_refresh(now);

        let q = self.cfg.queues;
        if self.draining_writes {
            if self.write_q.len() <= q.write_low_watermark {
                self.draining_writes = false;
            }
        } else if self.write_q.len() >= q.write_high_watermark
            || (self.read_q.is_empty() && !self.write_q.is_empty())
        {
            self.draining_writes = true;
        }

        let serve_writes = self.draining_writes || self.read_q.is_empty();
        let writes = serve_writes && !self.write_q.is_empty();
        let busy = writes || !self.read_q.is_empty();
        if busy && self.schedule(now, writes) {
            // A command issued; state changed, so re-evaluate next cycle.
            self.next_wake = now + 1;
            return;
        }
        // The queue's wake is computed (and cached as its quiet time)
        // even when the drain flag flips next tick: the flag oscillates
        // every cycle while only a few writes are pending, and the cache
        // keeps those sweeps O(1).
        let queue_wake = if busy { self.wake(now, writes) } else { NEVER };
        // If the drain flag is not at a fixed point for the current
        // queue lengths, it flips next tick; don't skip over that.
        let flag = self.draining_writes;
        let next_flag = if flag {
            self.write_q.len() > q.write_low_watermark
        } else {
            self.write_q.len() >= q.write_high_watermark
                || (self.read_q.is_empty() && !self.write_q.is_empty())
        };
        self.next_wake = if next_flag != flag {
            now + 1
        } else {
            queue_wake.min(self.refresh_due).max(now + 1)
        };
    }

    /// Process refreshes in bulk when the channel has been idle and the
    /// caller jumps time forward from `from` to `to`.
    pub fn fast_forward(&mut self, to: u64) {
        let t = self.cfg.timing;
        for r in 0..self.ranks.len() {
            let before = self.ranks[r].next_refresh;
            while self.ranks[r].next_refresh <= to {
                let deadline = self.ranks[r].next_refresh;
                self.ranks[r].refresh(deadline, &t);
                self.stats.refreshes += 1;
                self.log_cmd(deadline, Command::Refresh, r as u32, 0, 0);
            }
            if self.ranks[r].next_refresh != before {
                self.touch(rank_banks(&self.cfg, r as u32));
            }
        }
        self.refresh_due = earliest_refresh(&self.ranks);
        self.next_wake = 0;
    }

    /// Refresh model: at the per-rank deadline, force-close the rank's
    /// rows and block it for tRFC.
    fn handle_refresh(&mut self, now: u64) {
        if now < self.refresh_due {
            return;
        }
        let t = self.cfg.timing;
        let banks_per_rank = self.cfg.geometry.banks_per_rank as usize;
        for r in 0..self.ranks.len() {
            if now >= self.ranks[r].next_refresh {
                for b in 0..banks_per_rank {
                    let bank = &mut self.banks[r * banks_per_rank + b];
                    if bank.open_row.is_some() {
                        bank.open_row = None;
                        self.stats.precharges += 1;
                    }
                    bank.next_activate = bank.next_activate.max(now + t.t_rfc);
                }
                self.ranks[r].refresh(now, &t);
                self.stats.refreshes += 1;
                self.log_cmd(now, Command::Refresh, r as u32, 0, 0);
                self.touch(rank_banks(&self.cfg, r as u32));
            }
        }
        self.refresh_due = earliest_refresh(&self.ranks);
    }

    /// FR-FCFS over the selected queue: issue the oldest issuable
    /// row-hit CAS if there is one, otherwise the oldest issuable row
    /// command (PRE or ACT). Returns whether a command issued.
    ///
    /// The sweep recomputes only the dirty banks and reads the ripe
    /// sets; the data bus gates each ripe CAS by its rank.
    fn schedule(&mut self, now: u64, writes: bool) -> bool {
        let t = &self.cfg.timing;
        let q = if writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        if now < q.quiet_until
            || !q.settle(now, writes, &self.banks, &self.ranks, &self.bank_rank, t)
        {
            return false;
        }
        let (last, g_same, g_other) = self.bus.gates(&self.cfg, writes);
        let cas_from = if g_other <= now {
            Some(0..self.banks.len())
        } else if g_same <= now {
            Some(last.clone())
        } else {
            None
        };
        if let Some(b) = cas_from.and_then(|banks| q.oldest(&q.cas.ripe, banks, |bq| bq.cas.seq)) {
            let slot = q.banks[b].cas.slot;
            let req = *q.req(slot);
            self.issue_cas(&req, now, !req.caused_row_miss);
            self.queue_mut(writes).remove(slot);
            self.touch(rank_banks(&self.cfg, req.coords.rank));
            return true;
        }
        if let Some(b) = q.oldest(&q.row.ripe, 0..self.banks.len(), |bq| bq.entries[0].seq) {
            let head = q.banks[b].entries[0].slot;
            q.req_mut(head).caused_row_miss = true;
            let req = *q.req(head);
            let t = self.cfg.timing;
            match self.banks[b].open_row {
                Some(open) => {
                    self.banks[b].precharge(now, &t);
                    self.stats.precharges += 1;
                    self.log_cmd(now, Command::Precharge, req.coords.rank, b as u32, open);
                    self.touch(b..b + 1);
                }
                None => {
                    let rank = req.coords.rank;
                    self.banks[b].activate(req.coords.row, now, &t);
                    self.ranks[rank as usize].activate(now, &t);
                    self.stats.activates += 1;
                    self.log_cmd(now, Command::Activate, rank, b as u32, req.coords.row);
                    self.touch(rank_banks(&self.cfg, rank));
                }
            }
            return true;
        }
        false
    }

    /// After a sweep of the selected queue at `now` issued nothing: the
    /// exact earliest cycle at which any of its requests can make
    /// progress (`u64::MAX` if none can), given the frozen state.
    fn wake(&mut self, now: u64, writes: bool) -> u64 {
        let quiet_until = self.queue(writes).quiet_until;
        if now < quiet_until {
            return quiet_until;
        }
        let (last, g_same, g_other) = self.bus.gates(&self.cfg, writes);
        self.queue_mut(writes).wake(last, g_same, g_other)
    }

    /// Bank or rank timing of `banks` changed: both queues recompute
    /// their cached times for them at their next sweep.
    fn touch(&mut self, banks: Range<usize>) {
        self.read_q.touch(&banks);
        self.write_q.touch(&banks);
    }

    fn queue(&self, writes: bool) -> &RequestQueue {
        if writes {
            &self.write_q
        } else {
            &self.read_q
        }
    }

    fn queue_mut(&mut self, writes: bool) -> &mut RequestQueue {
        if writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        }
    }

    /// Issue the column access and record its completion.
    fn issue_cas(&mut self, req: &Request, now: u64, row_hit: bool) {
        let t = self.cfg.timing;
        let bi = req.bank_index as usize;
        let rank = req.coords.rank as usize;
        let (start, finish) = if req.is_write {
            self.banks[bi].write(now, &t);
            self.ranks[rank].write(now, &t);
            self.stats.writes += 1;
            (now + t.t_cwd, now + t.t_cwd + t.t_burst)
        } else {
            self.banks[bi].read(now, &t);
            self.ranks[rank].read(now, &t);
            self.stats.reads += 1;
            self.stats.total_read_latency += now + t.t_cas + t.t_burst - req.arrival;
            (now + t.t_cas, now + t.t_cas + t.t_burst)
        };
        debug_assert!(start >= self.bus.free_at);
        self.bus.free_at = finish;
        self.bus.last_rank = Some(req.coords.rank);
        self.stats.bus_busy_cycles += t.t_burst;
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        let cmd = if req.is_write {
            Command::Write
        } else {
            Command::Read
        };
        self.log_cmd(now, cmd, req.coords.rank, bi as u32, req.coords.row);
        self.completions.push(Completion {
            id: req.id,
            is_write: req.is_write,
            finish,
            arrival: req.arrival,
        });
    }
}

persist!(DataBus {
    free_at,
    last_rank as Option<u64>,
});

/// The full controller state for a crash-recovery snapshot: bank/rank
/// timing, bus, both queues (age order), drain flag, stats, and
/// undrained completions. Loading restores a freshly constructed
/// channel (same config); the scheduler's wake time and per-bank issue
/// times are derived state, rebuilt rather than restored: every restored
/// request marks its bank for recomputation, and the wake resets to 0,
/// so the first tick sweeps afresh and the command stream is unchanged.
///
/// # Panics
/// Saving panics if command logging is enabled — the log is a
/// debugging artifact that cannot be restored canonically, so
/// snapshotting a logged run is refused rather than silently dropping
/// it.
impl Persist for Channel {
    fn save(&self, w: &mut SnapWriter) {
        assert!(
            self.cmd_log.is_none(),
            "cannot snapshot a channel with command logging enabled"
        );
        w.section("CHAN", 1);
        w.put(&self.banks);
        w.put(&self.ranks);
        w.put(&self.bus);
        w.put(&self.read_q.live_by_seq());
        w.put(&self.write_q.live_by_seq());
        w.put(&self.draining_writes);
        w.put(&self.stats);
        w.put(&self.completions);
    }

    fn load(&mut self, r: &mut SnapReader<'_>, _what: &'static str) -> Result<(), SnapError> {
        r.section("CHAN", 1)?;
        r.get_into(&mut self.banks[..], "channel bank count (config mismatch)")?;
        r.get_into(&mut self.ranks[..], "channel rank count (config mismatch)")?;
        self.refresh_due = earliest_refresh(&self.ranks);
        r.get_into(&mut self.bus, "channel bus")?;
        self.read_q = self.load_queue(r, self.cfg.queues.read_queue)?;
        self.write_q = self.load_queue(r, self.cfg.queues.write_queue)?;
        r.get_into(&mut self.draining_writes, "draining_writes")?;
        r.get_into(&mut self.stats, "channel stats")?;
        r.get_into(&mut self.completions, "channel completions")?;
        self.cmd_log = None;
        self.next_wake = 0;
        Ok(())
    }
}

impl Channel {
    /// Rebuild a request queue from its age-ordered snapshot. Each
    /// request's bank index and rank must lie inside this channel: the
    /// scheduler indexes its per-bank and per-rank tables by them.
    fn load_queue(&self, r: &mut SnapReader<'_>, cap: usize) -> Result<RequestQueue, SnapError> {
        let at = r.pos();
        let requests: Vec<Request> = r.get("queue requests")?;
        let mut q = RequestQueue::new(cap, self.banks.len());
        for req in requests {
            if req.bank_index as usize >= self.banks.len()
                || req.coords.rank as usize >= self.ranks.len()
            {
                return Err(SnapError::Corrupt {
                    what: "queued request bank or rank beyond the channel",
                    at,
                });
            }
            if !q.push(req) {
                return Err(SnapError::Corrupt {
                    what: "queue request count exceeds configured capacity",
                    at,
                });
            }
        }
        Ok(q)
    }
}

/// Earliest refresh deadline over `ranks`.
fn earliest_refresh(ranks: &[RankState]) -> u64 {
    ranks
        .iter()
        .map(|r| r.next_refresh)
        .min()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressDecoder;
    use crate::config::BLOCK_BYTES;

    fn setup() -> (Channel, AddressDecoder) {
        let cfg = DramConfig::table_iii();
        let dec = AddressDecoder::new(cfg.geometry, cfg.mapping);
        (Channel::new(cfg), dec)
    }

    fn req(dec: &AddressDecoder, id: u64, addr: u64, is_write: bool, arrival: u64) -> Request {
        Request::new(id, addr, dec.decode(addr), is_write, arrival)
    }

    fn run_until_idle(ch: &mut Channel, mut now: u64) -> (Vec<Completion>, u64) {
        let mut done = Vec::new();
        let deadline = now + 1_000_000;
        while !ch.is_idle() && now < deadline {
            ch.tick(now);
            done.extend(ch.take_completions());
            now += 1;
        }
        assert!(now < deadline, "channel failed to drain");
        (done, now)
    }

    #[test]
    fn single_read_latency_is_act_plus_cas_plus_burst() {
        let (mut ch, dec) = setup();
        assert!(ch.enqueue(req(&dec, 1, 0, false, 0)));
        let (done, _) = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 1);
        let t = DramConfig::table_iii().timing;
        // ACT at 0, RD at tRCD, last beat at tRCD + CL + burst.
        assert_eq!(done[0].finish, t.t_rcd + t.t_cas + t.t_burst);
    }

    #[test]
    fn row_hit_second_read_is_faster() {
        let (mut ch, dec) = setup();
        // Same row, consecutive columns under 4-RBH (blocks 0..4 share a row).
        assert!(ch.enqueue(req(&dec, 1, 0, false, 0)));
        assert!(ch.enqueue(req(&dec, 2, BLOCK_BYTES, false, 0)));
        let (done, _) = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(ch.stats().activates, 1, "second access should be a row hit");
        assert_eq!(ch.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let (mut ch, dec) = setup();
        let g = DramConfig::table_iii().geometry;
        // Two addresses in the same bank, different rows: stride one full
        // row's worth of one bank's address space under 4-RBH mapping.
        let stride = u64::from(g.blocks_per_row / 4)
            * u64::from(g.banks_per_rank)
            * u64::from(g.ranks_per_channel)
            * 4
            * BLOCK_BYTES;
        let a = req(&dec, 1, 0, false, 0);
        let b = req(&dec, 2, stride, false, 0);
        assert_eq!(a.coords.bank, b.coords.bank);
        assert_eq!(a.coords.rank, b.coords.rank);
        assert_ne!(a.coords.row, b.coords.row);
        ch.enqueue(a);
        ch.enqueue(b);
        let (done, _) = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(ch.stats().precharges, 1);
        assert_eq!(ch.stats().activates, 2);
    }

    #[test]
    fn writes_drain_when_read_queue_empty() {
        let (mut ch, dec) = setup();
        ch.enqueue(req(&dec, 1, 0, true, 0));
        let (done, _) = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_write);
        assert_eq!(ch.stats().writes, 1);
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let (mut ch, dec) = setup();
        ch.enqueue(req(&dec, 1, 1 << 20, true, 0));
        ch.enqueue(req(&dec, 2, 0, false, 0));
        let (done, _) = run_until_idle(&mut ch, 0);
        // The read should finish first even though the write arrived first.
        assert!(!done[0].is_write);
    }

    #[test]
    fn write_drain_mode_triggers_at_high_watermark() {
        let (mut ch, dec) = setup();
        let hi = DramConfig::table_iii().queues.write_high_watermark;
        for i in 0..hi as u64 {
            assert!(ch.enqueue(req(&dec, i, i * BLOCK_BYTES * 1024, true, 0)));
        }
        // Keep a steady read supply; drain mode must still serve writes.
        ch.enqueue(req(&dec, 1000, 0, false, 0));
        let mut now = 0;
        let mut wrote = 0;
        while wrote == 0 && now < 100_000 {
            ch.tick(now);
            wrote = ch.take_completions().iter().filter(|c| c.is_write).count();
            now += 1;
        }
        assert!(wrote > 0, "writes never drained");
    }

    #[test]
    fn queue_capacity_enforced() {
        let (mut ch, dec) = setup();
        let cap = DramConfig::table_iii().queues.read_queue;
        for i in 0..cap as u64 {
            assert!(ch.enqueue(req(&dec, i, i * BLOCK_BYTES, false, 0)));
        }
        assert!(!ch.read_queue_has_space());
        assert!(!ch.enqueue(req(&dec, 999, 0, false, 0)));
    }

    #[test]
    fn refresh_happens_and_is_counted() {
        let (mut ch, dec) = setup();
        let t = DramConfig::table_iii().timing;
        // Tick past two refresh intervals (refreshes are rank-staggered)
        // with sparse traffic.
        let mut now = 0;
        ch.enqueue(req(&dec, 1, 0, false, 0));
        while now < 2 * t.t_refi + t.t_rfc + 100 {
            ch.tick(now);
            ch.take_completions();
            now += 1;
        }
        assert!(ch.stats().refreshes >= 16, "all 16 ranks should refresh");
    }

    #[test]
    fn fast_forward_accumulates_refreshes() {
        let (mut ch, _) = setup();
        let t = DramConfig::table_iii().timing;
        ch.fast_forward(10 * t.t_refi);
        // 16 ranks x ~9-10 intervals each (staggered start).
        assert!(ch.stats().refreshes >= 140);
    }

    #[test]
    fn bank_parallelism_overlaps_requests() {
        let (mut ch, dec) = setup();
        // Two reads to different banks: total time must be far less than
        // two serialized row misses.
        let g = DramConfig::table_iii().geometry;
        let bank_stride =
            u64::from(g.blocks_per_row / 4) * 4 * BLOCK_BYTES * u64::from(g.ranks_per_channel);
        let a = req(&dec, 1, 0, false, 0);
        let b = req(&dec, 2, bank_stride, false, 0);
        assert_ne!(a.coords.bank, b.coords.bank);
        ch.enqueue(a);
        ch.enqueue(b);
        let (done, _) = run_until_idle(&mut ch, 0);
        let t = DramConfig::table_iii().timing;
        let serial = 2 * (t.t_rcd + t.t_cas + t.t_burst);
        let max_finish = done.iter().map(|c| c.finish).max().unwrap();
        assert!(
            max_finish < serial,
            "banks did not overlap: {max_finish} vs serial {serial}"
        );
    }

    #[test]
    fn slab_slots_recycle_across_waves() {
        // Several full capacity waves through the same queue: slot reuse,
        // the per-bank caches and the ripe sets must all stay consistent,
        // and every request must complete exactly once.
        let (mut ch, dec) = setup();
        let cap = DramConfig::table_iii().queues.read_queue as u64;
        let mut now = 0;
        let mut total = 0u64;
        for wave in 0..4u64 {
            for i in 0..cap {
                let addr = (wave * cap + i) * BLOCK_BYTES * 131;
                assert!(ch.enqueue(req(&dec, wave * cap + i, addr, false, now)));
            }
            let (done, end) = run_until_idle(&mut ch, now);
            total += done.len() as u64;
            now = end;
        }
        assert_eq!(total, 4 * cap);
        assert_eq!(ch.stats().reads, 4 * cap);
    }

    #[test]
    fn idle_ticks_after_wake_computation_are_noops() {
        // After draining, a long idle stretch must still refresh on
        // schedule (next_wake covers refresh deadlines).
        let (mut ch, dec) = setup();
        ch.enqueue(req(&dec, 1, 0, false, 0));
        let (_, end) = run_until_idle(&mut ch, 0);
        let t = DramConfig::table_iii().timing;
        let horizon = end + 2 * t.t_refi;
        for now in end..horizon {
            ch.tick(now);
        }
        assert!(ch.stats().refreshes >= 16);
    }

    /// SplitMix64: the seeded source for the wake-tightness streams.
    fn next_rand(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `(arrival cycle, block address, is_write)` triples. Dense streams
    /// arrive every few cycles, bursty ones in saturating bursts, gapped
    /// ones with idle stretches that span refreshes. Half the accesses
    /// revisit a recent block's row; the rest spread over all ranks.
    fn seeded_stream(seed: u64, len: usize) -> Vec<(u64, u64, bool)> {
        let mut rng = seed;
        let t = DramConfig::table_iii().timing;
        let mut recent = [0u64; 8];
        let mut at = 0u64;
        (0..len)
            .map(|i| {
                let r = next_rand(&mut rng);
                at += match seed % 3 {
                    0 => r % 4,
                    1 if i % 48 == 0 => 200 + r % 2_000,
                    1 => 0,
                    _ => r % 64 + if r.is_multiple_of(16) { t.t_refi } else { 0 },
                };
                let slot = (r >> 8) as usize % recent.len();
                let block = if r & (1 << 20) == 0 {
                    recent[slot] ^ ((r >> 24) % 4)
                } else {
                    (r >> 24) % (1 << 22)
                };
                recent[slot] = block;
                (at, block * BLOCK_BYTES, (r >> 40) % 10 < 3)
            })
            .collect()
    }

    /// A channel of more than 128 banks (three words per bank set)
    /// schedules exactly as the reference does.
    #[test]
    fn wide_channel_matches_reference() {
        let mut cfg = DramConfig::table_iii();
        cfg.geometry.ranks_per_channel = 32;
        cfg.geometry.rows_per_bank /= 2;
        let cfg = DramConfig::new(cfg.geometry, cfg.timing, cfg.power, cfg.queues, cfg.mapping)
            .expect("valid geometry");
        let dec = AddressDecoder::new(cfg.geometry, cfg.mapping);
        let mut ch = Channel::new(cfg);
        let mut refc = crate::reference::ReferenceChannel::new(cfg);
        ch.enable_cmd_log();
        refc.enable_cmd_log();
        let stream = seeded_stream(1, 2_000);
        let (mut next, mut now) = (0usize, 0u64);
        while next < stream.len() || !ch.is_idle() {
            while next < stream.len() && stream[next].0 <= now {
                let (_, addr, is_write) = stream[next];
                let r = req(&dec, next as u64, addr, is_write, now);
                let accepted = ch.enqueue(r);
                assert_eq!(accepted, refc.enqueue(r), "acceptance at cycle {now}");
                if !accepted {
                    break;
                }
                next += 1;
            }
            ch.tick(now);
            refc.tick(now);
            assert_eq!(
                ch.take_completions(),
                refc.take_completions(),
                "cycle {now}"
            );
            now += 1;
        }
        let log = ch.take_cmd_log();
        assert!(
            log.iter().any(|c| c.rank >= 16),
            "the stream should reach the upper ranks"
        );
        assert_eq!(log, refc.take_cmd_log());
        assert_eq!(ch.stats(), refc.stats());
    }

    /// The wake is exact, not a lower bound: after a tick that changes
    /// nothing, if no request arrives before the wake `W`, the tick at
    /// `W` issues a command or refresh, or flips write drain. The run
    /// loop's skip windows and snapshot capture points depend on it.
    #[test]
    fn next_event_is_the_exact_next_change() {
        let (mut checks, mut loose) = (0u64, 0u64);
        for seed in 0..12u64 {
            let (mut ch, dec) = setup();
            ch.enable_cmd_log();
            let stream = seeded_stream(seed, 1_500);
            let (mut next, mut now, mut id) = (0usize, 0u64, 0u64);
            // The wake to verify, once the tick at it runs.
            let mut due: Option<u64> = None;
            while next < stream.len() || !ch.is_idle() {
                while next < stream.len() && stream[next].0 <= now {
                    let (_, addr, is_write) = stream[next];
                    if !ch.enqueue(req(&dec, id, addr, is_write, now)) {
                        break;
                    }
                    id += 1;
                    next += 1;
                }
                let logged = ch.cmd_log.as_ref().map_or(0, Vec::len);
                let draining = ch.draining_writes;
                ch.tick(now);
                ch.take_completions();
                let changed = ch.cmd_log.as_ref().map_or(0, Vec::len) != logged
                    || ch.draining_writes != draining;
                if due == Some(now) {
                    checks += 1;
                    loose += u64::from(!changed);
                    due = None;
                }
                let wake = ch.next_event();
                let arrival = stream.get(next).map_or(u64::MAX, |s| s.0.max(now + 1));
                if !changed && now + 1 < wake && wake < u64::MAX && arrival > wake {
                    due = Some(wake);
                }
                now += 1;
            }
        }
        assert!(checks > 5_000, "only {checks} wakes checked");
        assert_eq!(
            loose, 0,
            "{loose} of {checks} wakes were not the next change"
        );
    }

    /// A queued request record: id, addr, five coordinates (u64
    /// each), is_write, arrival, caused_row_miss, bank_index.
    const REQUEST: usize = 8 * 7 + 1 + 8 + 1 + 8;
    const RANK_AT: usize = 8 * 3;
    const BANK_INDEX_AT: usize = REQUEST - 8;
    /// Bytes after a sole queued read: the empty write queue (8), the
    /// drain flag (1), nine stats (72), and no completions (8).
    const AFTER_REQUEST: usize = 8 + 1 + 72 + 8;

    /// A snapshot of a channel holding one queued read, with the u64
    /// at byte `at` of that read's record replaced by `value`.
    fn snapshot_with_request_field(at: usize, value: u64) -> Vec<u8> {
        let (mut ch, dec) = setup();
        assert!(ch.enqueue(req(&dec, 1, 3 * BLOCK_BYTES, false, 0)));
        let mut w = SnapWriter::new();
        w.put(&ch);
        let mut bytes = w.into_bytes();
        let at = bytes.len() - AFTER_REQUEST - REQUEST + at;
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    fn restore(bytes: &[u8]) -> Result<Channel, SnapError> {
        let mut ch = Channel::new(DramConfig::table_iii());
        let mut r = SnapReader::new(bytes);
        r.get_into(&mut ch, "channel")?;
        r.finish()?;
        Ok(ch)
    }

    #[test]
    fn snapshot_round_trips_a_queued_request() {
        let (ch, _) = setup();
        let last = ch.banks.len() as u64 - 1;
        let restored = restore(&snapshot_with_request_field(BANK_INDEX_AT, last)).unwrap();
        assert_eq!(u64::from(restored.read_q.live_by_seq()[0].bank_index), last);
    }

    #[test]
    fn snapshot_with_an_out_of_range_bank_index_is_a_typed_error() {
        let (ch, _) = setup();
        let (nbanks, nranks) = (ch.banks.len() as u64, ch.ranks.len() as u64);
        // Past the channel's banks or ranks, and past what a u32 holds.
        for (at, value) in [
            (BANK_INDEX_AT, nbanks),
            (BANK_INDEX_AT, u64::from(u32::MAX)),
            (BANK_INDEX_AT, u64::MAX),
            (RANK_AT, nranks),
            (RANK_AT, u64::MAX),
        ] {
            let err = restore(&snapshot_with_request_field(at, value)).unwrap_err();
            assert!(
                matches!(err, SnapError::Corrupt { .. }),
                "field at {at} = {value}: {err:?}"
            );
        }
    }
}
