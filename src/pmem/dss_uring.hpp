// UringTable — io_uring-style submission/completion rings over the heap.
//
// The serving layer of slot_lease.hpp still makes clients CALL the queue:
// every operation is a synchronous prep/exec against the shared object.
// This file turns the submission interface itself into a detectable,
// persistent surface: each detectability slot owns a bounded SUBMISSION
// ring (written by the leased client) and a COMPLETION ring (written by
// whoever drains the slot — an executor thread, the client pumping its own
// ring, or a lease reclaimer settling an orphan).  Because both rings and
// the executor's progress journal live in the same persistent heap as the
// queue, a crashed client's in-flight requests are exactly as recoverable
// as the paper's X[t] words — re-attach, scan the submission ring against
// the journal and X[t], resolve, resubmit-or-ack, never double-apply.
//
// Publication protocol (the ring idiom pmem_lint's persist-order rule
// knows): a submission entry's payload AND checksum are persisted BEFORE
// the tail index that publishes it.  A published entry is therefore always
// whole; an entry that fails its checksum can only mean a client that died
// mid-protocol (or corrupted memory) and is REFUSED with a completion of
// op = kOpRefused rather than executed.
//
// Exactly-once across crashes hangs on the per-slot executor journal
// (ExecCtl), maintained with this ordering per consumed entry E of
// sequence s (sub_head = h, s = h+1):
//
//   1. prep(E)                      — X[slot] prepared record persisted
//   2. prepped_seq = s; persist     — "X[slot] is E's record, not a stale one"
//   3. exec(E)                      — effect + X completion record persisted
//   4. done_result = r; done_seq = s  (one line, result stored first);
//      persist                      — "every seq ≤ done_seq has executed"
//   5. completion entry written + flushed (fenced by the NEXT entry's
//      journal persists, or by the batch-end publish)
//   6. batch end: fence; comp_tail = sub_head = consumed; persist — ONE
//      combined persist+fence publishes the whole drained batch
//
// Crash anywhere, then re-drain (drain() is idempotent and is also the
// settle path):
//   s ≤ done_seq          — E executed; (re)post its completion.  The
//                           completion cell is durable for s < done_seq
//                           (its flush preceded a later journal persist);
//                           for s == done_seq the journal line itself
//                           still holds E's result; enqueue results are
//                           always kOk regardless.
//   s == prepped_seq      — X[slot] is E's record by step 2, so resolve()
//                           answers for E: took effect ⇒ ack; no effect ⇒
//                           exec the already-prepared record (resubmit).
//   neither               — step 2 never persisted, so step 3 never ran:
//                           E provably has no effect; run it from scratch
//                           (prep reclaims any orphaned prepped node).
//
// One drainer per slot at a time (the lease holder, an executor thread it
// is assigned to, or the reclaimer that holds the slot mid-reclaim) — the
// same exclusive-ownership contract every X[t] word already carries.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/cacheline.hpp"
#include "common/flight_recorder.hpp"
#include "dss/detectable.hpp"
#include "dss/specs/queue_spec.hpp"

namespace dssq::pmem {

class MmapBackend;

class UringTable {
 public:
  /// "DSSQURN2" names the word_mix checksum format, so attach_check
  /// refuses a table whose entries were checksummed otherwise (the
  /// byte-wise "DSSQURNG" format) instead of refusing every entry as torn.
  static constexpr std::uint64_t kMagic = 0x44535351'55524E32ULL;  // DSSQURN2

  /// Operation codes carried in submission entries.  kOpRefused appears
  /// only in COMPLETION entries: the drained submission was torn (checksum
  /// mismatch) and was closed out without executing.
  static constexpr std::uint64_t kOpRefused = 0;
  static constexpr std::uint64_t kOpEnqueue = 1;
  static constexpr std::uint64_t kOpDequeue = 2;

  struct alignas(kCacheLineSize) Header {
    std::uint64_t magic = 0;
    std::uint64_t slots = 0;
    std::uint64_t capacity = 0;  // entries per ring; power of two
  };
  static_assert(sizeof(Header) == kCacheLineSize);

  /// One submission-queue entry.  seq is the client-assigned sequence
  /// number, 1-based so an all-zero (never-written) cell can never pass
  /// validation; entry s lives in cell (s-1) & (capacity-1).
  struct alignas(kCacheLineSize) SubEntry {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> op{0};
    std::atomic<std::int64_t> arg{0};
    std::atomic<std::uint64_t> t_submit{0};  // ns; pipeline stage stamp
    std::atomic<std::uint64_t> checksum{0};  // word_mix over the four above
  };
  static_assert(sizeof(SubEntry) == kCacheLineSize);

  /// One completion-queue entry, same cell addressing.  The three stamps
  /// carry the per-stage pipeline latencies (submit→drain→exec→complete)
  /// back to the client.  t_drain is when the drainer turned to the entry:
  /// the batch's start for its first entry, else the previous entry's
  /// t_exec; t_exec is when the entry's execution returned (== t_drain for
  /// an entry closed out without executing: refused or already done).
  struct alignas(kCacheLineSize) CompEntry {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> op{0};  // kOpRefused = submission was torn
    std::atomic<std::int64_t> result{0};
    std::atomic<std::uint64_t> t_submit{0};
    std::atomic<std::uint64_t> t_drain{0};
    std::atomic<std::uint64_t> t_exec{0};
    std::atomic<std::uint64_t> checksum{0};
  };
  static_assert(sizeof(CompEntry) == kCacheLineSize);

  /// Client-side control line: written ONLY by the slot's leased client.
  struct alignas(kCacheLineSize) ClientCtl {
    std::atomic<std::uint64_t> sub_tail{0};  // submissions published
  };
  static_assert(sizeof(ClientCtl) == kCacheLineSize);

  /// Executor-side control line: indexes, the exactly-once journal, and
  /// durable statistics, written ONLY by the slot's current drainer.
  /// done_result and done_seq share this line and are stored result-first,
  /// so any persisted snapshot in which done_seq names entry s also holds
  /// s's result (the line persists whole; the seq store is last).
  struct alignas(kCacheLineSize) ExecCtl {
    std::atomic<std::uint64_t> sub_head{0};    // submissions consumed
    std::atomic<std::uint64_t> comp_tail{0};   // completions published
    std::atomic<std::int64_t> done_result{0};  // journal: result of done_seq
    std::atomic<std::uint64_t> done_seq{0};    // journal: seq ≤ this executed
    std::atomic<std::uint64_t> prepped_seq{0};  // journal: X is this seq's
    std::atomic<std::uint64_t> torn_refused{0};   // stat: torn entries refused
    std::atomic<std::uint64_t> settled{0};        // stat: entries settled
    std::atomic<std::uint64_t> settle_passes{0};  // stat: settle() calls
  };
  static_assert(sizeof(ExecCtl) == kCacheLineSize);

  /// A drained response, as handed back by poll().
  struct Completion {
    std::uint64_t seq = 0;
    std::uint64_t op = 0;
    dss::Value result = 0;
    std::uint64_t t_submit = 0;
    std::uint64_t t_drain = 0;
    std::uint64_t t_exec = 0;

    bool refused() const noexcept { return op == kOpRefused; }
  };

  /// What a settle pass over an orphaned slot's rings did.
  struct SettleStats {
    std::uint64_t entries = 0;     // submissions closed out
    std::uint64_t acked = 0;       // had provably executed; completion posted
    std::uint64_t reexecuted = 0;  // valid, provably no effect; run now
    std::uint64_t refused = 0;     // torn; refusal completion posted
  };

  // ---- geometry, format, attach -------------------------------------------

  static std::size_t bytes_for(std::size_t slots,
                               std::size_t capacity) noexcept {
    return sizeof(Header) + slots * slot_stride(capacity);
  }

  /// Zero-initialize and persist a table over `base` (creator only; the
  /// region must come from the heap so every attacher adopts it by
  /// address).  `capacity` must be a power of two.
  static void format(void* base, std::size_t slots, std::size_t capacity,
                     MmapBackend& backend);

  /// Validate a header found through the heap directory; throws
  /// HeapOpenError with `what` in the message on any mismatch.
  static void attach_check(const Header* hdr, const std::string& what);

  /// Attach a view (run attach_check first when the base came from an
  /// untrusted directory entry).
  explicit UringTable(Header* hdr) noexcept
      : hdr_(hdr), capacity_(hdr->capacity), mask_(hdr->capacity - 1) {}

  std::size_t slots() const noexcept { return hdr_->slots; }
  std::size_t capacity() const noexcept { return capacity_; }

  // ---- client side ---------------------------------------------------------

  /// Publish one operation into slot i's submission ring.  False when the
  /// ring is full (backpressure: capacity submissions not yet consumed).
  /// The entry (payload + checksum) is persisted BEFORE the tail store
  /// that publishes it — the lint-checked ring publish idiom.
  template <class Ctx>
  bool submit(Ctx& ctx, std::size_t i, std::uint64_t op, dss::Value arg) {
    if (!stage(ctx, i, 0, op, arg)) return false;
    publish_staged(ctx, i, 1);
    return true;
  }

  /// Write and flush (but do NOT publish) the operation destined for ring
  /// position sub_tail + `staged`.  Staging amortises the publication cost
  /// over a submission window: stage k entries, then publish_staged(k)
  /// pays ONE fence plus ONE tail persist for all k, instead of one pair
  /// per operation.  Crash-safe for free — a staged entry is invisible to
  /// the drainer and to recovery until the tail moves, exactly as if the
  /// operation had never been submitted.  False when the ring cannot hold
  /// another staged entry (count already-staged entries against capacity).
  template <class Ctx>
  bool stage(Ctx& ctx, std::size_t i, std::uint64_t staged, std::uint64_t op,
             dss::Value arg) {
    ClientCtl& c = client_ctl(i);
    ExecCtl& e = exec_ctl(i);
    const std::uint64_t t =
        c.sub_tail.load(std::memory_order_relaxed) + staged;
    if (t - e.sub_head.load(std::memory_order_acquire) >= capacity_) {
      return false;
    }
    SubEntry& s = sub_entries(i)[t & mask_];
    const std::uint64_t seq = t + 1;
    const std::uint64_t now = trace::now_ns();
    s.seq.store(seq, std::memory_order_relaxed);
    s.op.store(op, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.t_submit.store(now, std::memory_order_relaxed);
    s.checksum.store(
        sub_checksum(seq, op, static_cast<std::uint64_t>(arg), now),
        std::memory_order_relaxed);
    ctx.flush(&s, sizeof(SubEntry));
    return true;
  }

  /// Publish `staged` previously staged entries: one fence makes every
  /// staged payload durable, then the tail store + persist announces them
  /// all — the same persist-before-publish idiom as submit(), batched.
  template <class Ctx>
  void publish_staged(Ctx& ctx, std::size_t i, std::uint64_t staged) {
    if (staged == 0) return;
    ClientCtl& c = client_ctl(i);
    ctx.fence_combined();
    ctx.crash_point("uring:submit:entry-persisted");
    c.sub_tail.store(c.sub_tail.load(std::memory_order_relaxed) + staged,
                     std::memory_order_release);
    ctx.persist_combined(&c, sizeof(ClientCtl));
    ctx.crash_point("uring:submit:published");
  }

  /// Next completion at or past `cursor` (a consumed-completions count the
  /// caller advances on success).  nullopt when none is published yet, or
  /// when the cell was already overwritten because the caller let its
  /// cursor lag the completion tail by more than `capacity` (bound the
  /// submission window to the ring capacity to rule that out).
  std::optional<Completion> poll(std::size_t i,
                                 std::uint64_t cursor) const noexcept {
    const ExecCtl& e = exec_ctl(i);
    if (cursor >= e.comp_tail.load(std::memory_order_acquire)) {
      return std::nullopt;
    }
    const CompEntry& ce = comp_entries(i)[cursor & mask_];
    Completion out;
    out.seq = ce.seq.load(std::memory_order_relaxed);
    out.op = ce.op.load(std::memory_order_relaxed);
    out.result = ce.result.load(std::memory_order_relaxed);
    out.t_submit = ce.t_submit.load(std::memory_order_relaxed);
    out.t_drain = ce.t_drain.load(std::memory_order_relaxed);
    out.t_exec = ce.t_exec.load(std::memory_order_relaxed);
    if (out.seq != cursor + 1) return std::nullopt;
    return out;
  }

  // ---- executor / settle side ---------------------------------------------

  /// Drain up to `budget` published submissions of slot i through queue
  /// `q`, posting completions; returns the number of entries closed out.
  /// Idempotent and crash-resumable at every point (see the file comment's
  /// journal protocol), which makes it double as the settle pass a lease
  /// reclaimer runs over an orphan's rings: with `st` non-null, the
  /// per-branch counts are recorded there.  Caller must be slot i's sole
  /// drainer and, on a recovery path, must have run the queue's per-slot
  /// recovery (recover_independent(i)) first.
  template <class Ctx, class Q>
  std::size_t drain(Ctx& ctx, Q& q, std::size_t i,
                    std::size_t budget = SIZE_MAX,
                    SettleStats* st = nullptr) {
    ClientCtl& c = client_ctl(i);
    ExecCtl& e = exec_ctl(i);
    const std::uint64_t tail = c.sub_tail.load(std::memory_order_acquire);
    std::uint64_t head = e.sub_head.load(std::memory_order_relaxed);
    std::size_t n = 0;
    // One clock read per batch plus one per executed entry: an entry is
    // drained the moment its predecessor's execution returned.
    std::uint64_t now = head < tail && budget > 0 ? trace::now_ns() : 0;
    while (head < tail && n < budget) {
      const std::uint64_t seq = head + 1;
      SubEntry& s = sub_entries(i)[head & mask_];
      const std::uint64_t t_drain = now;
      const std::uint64_t sop = s.op.load(std::memory_order_relaxed);
      const dss::Value sarg = s.arg.load(std::memory_order_relaxed);
      const std::uint64_t tsub = s.t_submit.load(std::memory_order_relaxed);
      const bool valid =
          s.seq.load(std::memory_order_relaxed) == seq &&
          s.checksum.load(std::memory_order_relaxed) ==
              sub_checksum(seq, sop, static_cast<std::uint64_t>(sarg),
                           tsub) &&
          (sop == kOpEnqueue || sop == kOpDequeue);

      if (!valid) {
        // Torn submission: the publishing client died mid-protocol (or
        // never ran it).  Refuse — never execute bytes that fail their
        // own checksum.
        post(ctx, i, seq, kOpRefused, 0, tsub, t_drain, t_drain);
        e.torn_refused.fetch_add(1, std::memory_order_relaxed);
        if (st != nullptr) ++st->refused;
      } else if (seq <= e.done_seq.load(std::memory_order_relaxed)) {
        // Executed before a crash; never re-apply.  Re-post the
        // completion in case the original post never persisted.
        dss::Value result = dss::kOk;
        if (sop == kOpDequeue) {
          const CompEntry& ce = comp_entries(i)[head & mask_];
          result = comp_valid(ce, seq)
                       ? ce.result.load(std::memory_order_relaxed)
                       : e.done_result.load(std::memory_order_relaxed);
        }
        post(ctx, i, seq, sop, result, tsub, t_drain, t_drain);
        if (st != nullptr) ++st->acked;
      } else if (seq == e.prepped_seq.load(std::memory_order_relaxed)) {
        // X[i] is THIS entry's record (the journal persists after the
        // prep), so resolve() answers for it directly.
        const auto r = q.resolve(i);
        bool effect;
        dss::Value result = dss::kOk;
        if (sop == kOpEnqueue) {
          effect = r.op == dss::ResolvedOp::kEnqueue && r.arg == sarg &&
                   r.took_effect();
        } else {
          effect = r.op == dss::ResolvedOp::kDequeue && r.took_effect();
          if (effect) result = *r.response;
        }
        if (!effect) {
          // Prepared but provably never took effect: execute the
          // prepared record now (resubmit).  Re-prep only if X somehow
          // holds a foreign record (defense; the journal rules it out).
          const bool x_is_mine =
              sop == kOpEnqueue
                  ? (r.op == dss::ResolvedOp::kEnqueue && r.arg == sarg)
                  : r.op == dss::ResolvedOp::kDequeue;
          if (!x_is_mine) prep_op(q, i, sop, sarg);
          result = exec_op(q, i, sop);
        }
        journal_done(ctx, e, seq, result);
        now = trace::now_ns();
        post(ctx, i, seq, sop, result, tsub, t_drain, now);
        if (st != nullptr) effect ? ++st->acked : ++st->reexecuted;
      } else {
        // Fresh entry (or its prep journal never persisted — then the
        // exec provably never ran either): run it from scratch.
        prep_op(q, i, sop, sarg);
        e.prepped_seq.store(seq, std::memory_order_relaxed);
        ctx.persist_combined(&e, sizeof(ExecCtl));
        ctx.crash_point("uring:drain:prepped");
        const dss::Value result = exec_op(q, i, sop);
        journal_done(ctx, e, seq, result);
        ctx.crash_point("uring:drain:executed");
        now = trace::now_ns();
        post(ctx, i, seq, sop, result, tsub, t_drain, now);
        if (st != nullptr) ++st->reexecuted;
      }
      if (st != nullptr) ++st->entries;
      ++head;
      ++n;
    }
    if (n > 0) {
      // Batch publish: one fence orders every completion flush above,
      // then one persisted store of the control line releases the whole
      // batch — completions to the poller, ring cells to the submitter.
      // comp_tail only ever advances (an interrupted publish can leave it
      // ahead of sub_head; a budget-limited re-drain must not rewind it).
      ctx.fence_combined();
      if (head > e.comp_tail.load(std::memory_order_relaxed)) {
        e.comp_tail.store(head, std::memory_order_relaxed);
      }
      e.sub_head.store(head, std::memory_order_release);
      ctx.persist_combined(&e, sizeof(ExecCtl));
      ctx.crash_point("uring:drain:published");
    }
    return n;
  }

  /// Settle pass over an orphaned slot: drain everything still published,
  /// resolving each entry against the journal and X[i] (ack, resubmit, or
  /// refuse — never double-apply).  Run from SlotLeaseTable::reclaim_dead's
  /// settle callback, after oracle/queue per-slot recovery and BEFORE the
  /// slot is reissued.
  template <class Ctx, class Q>
  SettleStats settle(Ctx& ctx, Q& q, std::size_t i) {
    SettleStats st;
    (void)drain(ctx, q, i, SIZE_MAX, &st);
    ExecCtl& e = exec_ctl(i);
    e.settle_passes.fetch_add(1, std::memory_order_relaxed);
    if (st.entries > 0) {
      e.settled.fetch_add(st.entries, std::memory_order_relaxed);
    }
    ctx.persist_combined(&e, sizeof(ExecCtl));
    return st;
  }

  // ---- introspection (tests, repl, JSONL gates) ---------------------------

  std::uint64_t sub_tail(std::size_t i) const noexcept {
    return client_ctl(i).sub_tail.load(std::memory_order_acquire);
  }
  std::uint64_t sub_head(std::size_t i) const noexcept {
    return exec_ctl(i).sub_head.load(std::memory_order_acquire);
  }
  std::uint64_t comp_tail(std::size_t i) const noexcept {
    return exec_ctl(i).comp_tail.load(std::memory_order_acquire);
  }
  /// Published-but-unconsumed submissions.
  std::uint64_t depth(std::size_t i) const noexcept {
    return sub_tail(i) - sub_head(i);
  }
  std::uint64_t torn_refused(std::size_t i) const noexcept {
    return exec_ctl(i).torn_refused.load(std::memory_order_relaxed);
  }
  std::uint64_t settled(std::size_t i) const noexcept {
    return exec_ctl(i).settled.load(std::memory_order_relaxed);
  }
  std::uint64_t settle_passes(std::size_t i) const noexcept {
    return exec_ctl(i).settle_passes.load(std::memory_order_relaxed);
  }

  /// Raw views — the torn-submission tests forge entries through these.
  ClientCtl& client_ctl(std::size_t i) noexcept {
    return *reinterpret_cast<ClientCtl*>(slot_base(i));
  }
  const ClientCtl& client_ctl(std::size_t i) const noexcept {
    return *reinterpret_cast<const ClientCtl*>(slot_base(i));
  }
  ExecCtl& exec_ctl(std::size_t i) noexcept {
    return *reinterpret_cast<ExecCtl*>(slot_base(i) + sizeof(ClientCtl));
  }
  const ExecCtl& exec_ctl(std::size_t i) const noexcept {
    return *reinterpret_cast<const ExecCtl*>(slot_base(i) +
                                             sizeof(ClientCtl));
  }
  SubEntry* sub_entries(std::size_t i) noexcept {
    return reinterpret_cast<SubEntry*>(slot_base(i) + sizeof(ClientCtl) +
                                       sizeof(ExecCtl));
  }
  const SubEntry* sub_entries(std::size_t i) const noexcept {
    return reinterpret_cast<const SubEntry*>(
        slot_base(i) + sizeof(ClientCtl) + sizeof(ExecCtl));
  }
  CompEntry* comp_entries(std::size_t i) noexcept {
    return reinterpret_cast<CompEntry*>(slot_base(i) + sizeof(ClientCtl) +
                                        sizeof(ExecCtl) +
                                        capacity_ * sizeof(SubEntry));
  }
  const CompEntry* comp_entries(std::size_t i) const noexcept {
    return reinterpret_cast<const CompEntry*>(
        slot_base(i) + sizeof(ClientCtl) + sizeof(ExecCtl) +
        capacity_ * sizeof(SubEntry));
  }

  Header* header() noexcept { return hdr_; }

  /// Word-wise checksum over the submission payload, seq included — a
  /// half-written entry (or an all-zero cell: seq is 1-based) can never
  /// validate.  Every word_mix step is a bijection in the running hash and
  /// in the word, so a change to any single word always changes the sum.
  static constexpr std::uint64_t sub_checksum(std::uint64_t seq,
                                              std::uint64_t op,
                                              std::uint64_t arg,
                                              std::uint64_t t) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = word_mix(h, seq);
    h = word_mix(h, op);
    h = word_mix(h, arg);
    return word_mix(h, t);
  }
  static constexpr std::uint64_t comp_checksum(std::uint64_t seq,
                                               std::uint64_t op,
                                               std::uint64_t result,
                                               std::uint64_t t) noexcept {
    return sub_checksum(seq, op, result, t) ^ kMagic;
  }

 private:
  /// One sub_checksum step.  The multiplier must stay odd: that is what
  /// keeps the step invertible.
  static constexpr std::uint64_t word_mix(std::uint64_t h,
                                          std::uint64_t w) noexcept {
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 29);
  }

  static std::size_t slot_stride(std::size_t capacity) noexcept {
    return sizeof(ClientCtl) + sizeof(ExecCtl) +
           capacity * (sizeof(SubEntry) + sizeof(CompEntry));
  }

  std::byte* slot_base(std::size_t i) const noexcept {
    return reinterpret_cast<std::byte*>(hdr_) + sizeof(Header) +
           i * slot_stride(capacity_);
  }

  static bool comp_valid(const CompEntry& ce, std::uint64_t seq) noexcept {
    const std::uint64_t cseq = ce.seq.load(std::memory_order_relaxed);
    return cseq == seq &&
           ce.checksum.load(std::memory_order_relaxed) ==
               comp_checksum(
                   cseq, ce.op.load(std::memory_order_relaxed),
                   static_cast<std::uint64_t>(
                       ce.result.load(std::memory_order_relaxed)),
                   ce.t_submit.load(std::memory_order_relaxed));
  }

  /// Write + flush one completion (NOT fenced: the batch-end publish —
  /// or, for entries that stay below done_seq, the next entry's journal
  /// persist — provides the ordering the recovery argument needs).
  template <class Ctx>
  void post(Ctx& ctx, std::size_t i, std::uint64_t seq, std::uint64_t op,
            dss::Value result, std::uint64_t t_submit, std::uint64_t t_drain,
            std::uint64_t t_exec) {
    CompEntry& ce = comp_entries(i)[(seq - 1) & mask_];
    ce.seq.store(seq, std::memory_order_relaxed);
    ce.op.store(op, std::memory_order_relaxed);
    ce.result.store(result, std::memory_order_relaxed);
    ce.t_submit.store(t_submit, std::memory_order_relaxed);
    ce.t_drain.store(t_drain, std::memory_order_relaxed);
    ce.t_exec.store(t_exec, std::memory_order_relaxed);
    ce.checksum.store(
        comp_checksum(seq, op, static_cast<std::uint64_t>(result), t_submit),
        std::memory_order_relaxed);
    ctx.flush(&ce, sizeof(CompEntry));
  }

  /// Journal "seq has executed with result": result stored before seq on
  /// the shared ExecCtl line, then one persist.
  template <class Ctx>
  void journal_done(Ctx& ctx, ExecCtl& e, std::uint64_t seq,
                    dss::Value result) {
    e.done_result.store(result, std::memory_order_relaxed);
    e.done_seq.store(seq, std::memory_order_release);
    ctx.persist_combined(&e, sizeof(ExecCtl));
  }

  template <class Q>
  static void prep_op(Q& q, std::size_t i, std::uint64_t op,
                      dss::Value arg) {
    if (op == kOpEnqueue) {
      q.prep_enqueue(i, arg);
    } else {
      q.prep_dequeue(i);
    }
  }

  template <class Q>
  static dss::Value exec_op(Q& q, std::size_t i, std::uint64_t op) {
    if (op == kOpEnqueue) {
      q.exec_enqueue(i);
      return dss::kOk;
    }
    return q.exec_dequeue(i);
  }

  Header* hdr_;
  std::size_t capacity_;
  std::uint64_t mask_;
};

}  // namespace dssq::pmem
