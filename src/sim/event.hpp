// Cancellable events and the deterministic event queue.
//
// Events are closures scheduled at absolute simulation times. Ties in time
// are broken by insertion sequence number, making every run's event order a
// total order that is independent of heap internals — a prerequisite for
// bit-for-bit reproducibility across platforms.
//
// Storage is a slab: event records live in a pooled free-list and are
// addressed by (index, generation) handles, so steady-state scheduling
// performs no heap allocation at all — closures are stored as InlineTask
// (sim/task.hpp), which keeps hot-path captures in the slot itself (the
// pre-PR-9 design paid one std::function heap box per event whose capture
// exceeded 16 bytes, and the design before that a shared_ptr control
// block per event). The heap is an inlined binary heap of plain
// (time, sequence, slot) entries. The `alloc-audit` preset proves the
// zero-allocation property at runtime (src/check/alloc_audit.hpp).
//
// Cancellation is O(1): the handle flips a flag on the pooled record and
// the queue discards flagged records lazily when they reach the top. A
// popped record's slot is not recycled until the *next* pop, so a handle
// to the currently-executing event still reports pending() — the same
// observable semantics the previous shared_ptr-based queue had while
// Simulator::step kept the record alive through the callback.
//
// Runs: a batch of events that shares ONE heap entry. Each item is an
// ordinary pooled slot (own closure, label, handle, cancel flag) and
// takes its (sequence, tie key) at pushToRun() exactly as push() would,
// so the pop order over all items is the order per-item pushes give.
// The run's heap entry carries the key of its earliest item; popping an
// item re-keys that entry in place, and a run's items usually sit close
// together in time, so the re-key sifts down only a level or two.
// phy::Channel keeps one run for a frame's arrivals and one for its
// reception ends — the bulk of all events — which halves the heap.
//
// retime() moves a pending event to a new time in place: it takes a
// fresh sequence number and tie draw, exactly what cancel + push would
// take, and re-sifts the entry from its recorded heap position.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::sim {

class EventHandle;

/// Identifies a run inside one EventQueue (see "Runs" above).
using RunId = std::uint32_t;
inline constexpr RunId kNoRun = 0xffffffffu;

/// The order among equal-time events: the tie key (== sequence, or a
/// random draw under perturbTieBreak), then the insertion sequence.
struct EventKey {
  std::uint64_t tieKey = 0;
  std::uint64_t sequence = 0;
};

/// True when an event at (ta, a) runs before one at (tb, b).
inline bool runsBefore(Time ta, const EventKey& a, Time tb,
                       const EventKey& b) {
  if (ta != tb) return ta < tb;
  if (a.tieKey != b.tieKey) return a.tieKey < b.tieKey;
  return a.sequence < b.sequence;
}

/// Backend interface behind EventHandle: anything owning pooled event
/// slots addressed by (index, generation). The serial EventQueue and the
/// sharded engine's per-shard queues (sim/sharded/shard_queue.hpp) both
/// implement it, so a handle is oblivious to which engine minted it.
class EventTarget {
 public:
  virtual ~EventTarget() = default;

 protected:
  friend class EventHandle;
  virtual void cancelSlot(std::uint32_t slot, std::uint32_t generation) = 0;
  virtual bool slotPending(std::uint32_t slot,
                           std::uint32_t generation) const = 0;
  /// The (slot, generation) behind `handle` when it was minted by
  /// `target`; false for inert handles and other backends' handles.
  static bool handleSlot(const EventHandle& handle, const EventTarget* target,
                         std::uint32_t& slot, std::uint32_t& generation);
  /// Handle factory for implementations (EventHandle's constructor is
  /// private to keep (slot, generation) pairs unforgeable).
  static EventHandle makeHandle(EventTarget* target, std::uint32_t slot,
                                std::uint32_t generation);
};

/// Handle to a scheduled event. Default-constructed handles are inert.
/// Copyable; all copies refer to the same event. A handle must not be
/// used after its queue (i.e. the Simulator) is destroyed — all simulator
/// components already obey this by construction, as they hold a
/// reference to the Simulator that owns the queue.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent.
  void cancel();

  /// True if the event is still scheduled to fire (or firing right now).
  [[nodiscard]] bool pending() const;

 private:
  friend class EventTarget;
  EventHandle(EventTarget* target, std::uint32_t slot,
              std::uint32_t generation)
      : target_(target), slot_(slot), generation_(generation) {}

  EventTarget* target_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

inline bool EventTarget::handleSlot(const EventHandle& handle,
                                    const EventTarget* target,
                                    std::uint32_t& slot,
                                    std::uint32_t& generation) {
  if (handle.target_ == nullptr || handle.target_ != target) return false;
  slot = handle.slot_;
  generation = handle.generation_;
  return true;
}

inline EventHandle EventTarget::makeHandle(EventTarget* target,
                                           std::uint32_t slot,
                                           std::uint32_t generation) {
  return EventHandle(target, slot, generation);
}

/// Min-heap of events ordered by (time, sequence), backed by a slab of
/// pooled records. Non-copyable and non-movable: handles store a pointer
/// back to the queue.
class ECGRID_DOMAIN_PER_SCENARIO EventQueue : public EventTarget {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// `label` is an optional schedule-site tag for the execution profiler
  /// (see Simulator::schedule); it must point at storage outliving the
  /// queue — in practice a string literal. Any callable converts to
  /// InlineTask implicitly; hot-path captures up to
  /// InlineTask::kInlineBytes stay allocation-free.
  EventHandle push(Time time, InlineTask action, const char* label = nullptr);

  /// Move the pending event behind `handle` to `time` in place. The event
  /// takes a fresh sequence number and tie draw, so it runs exactly where
  /// cancel() + push() would have put it. Returns false, changing
  /// nothing, when the handle is not pending in this queue's heap: inert,
  /// cancelled, already run, currently executing, or a run item.
  bool retime(const EventHandle& handle, Time time);

  /// Open an empty run. Its owner appends items with pushToRun() and
  /// calls closeRun() once it will append no more; the run's record is
  /// recycled when it is closed and its last item has left the queue.
  RunId openRun();

  /// Schedule `action` at `time` as an item of `run`. Identical to push()
  /// in sequence number, tie draw, handle and cancel semantics; only the
  /// heap storage is shared with the rest of the run. Items may arrive in
  /// any order, but appending in (time, key) order keeps every append
  /// O(1); an out-of-order item walks the run to its place.
  EventHandle pushToRun(RunId run, Time time, InlineTask action,
                        const char* label = nullptr);

  /// As above, with a key drawn earlier by takeKey(). A batch built out
  /// of order — a frame's arrivals, computed in attachment order — draws
  /// each item's key where a push() would have happened, sorts, and
  /// appends in order; the run then pops exactly as the pushes would.
  EventHandle pushToRun(RunId run, Time time, EventKey key,
                        InlineTask action, const char* label = nullptr);

  /// Draw the (tie key, sequence) pair the next push() would take.
  EventKey takeKey();

  /// The owner of `run` appends nothing more.
  void closeRun(RunId run);

  /// Determinism-analysis debug mode (src/check): replace the insertion-
  /// sequence tie-break among equal-time events with random keys drawn
  /// from `stream` (sequence stays the final tie-break, so a perturbed
  /// run is itself exactly reproducible). Affects only events pushed
  /// after the call. Correct protocol logic must not care which of two
  /// same-instant events runs first; a digest that diverges under this
  /// mode marks order-dependent logic — the simulator's data-race
  /// analogue. Never enable in runs whose numbers you intend to keep.
  void perturbTieBreak(RngStream stream) { tieBreakRng_ = stream; }
  bool tieBreakPerturbed() const { return tieBreakRng_.has_value(); }

  /// Discards cancelled records, then moves the next live event's time and
  /// action into the out-parameters and removes it. Returns false when the
  /// queue is empty. The event's slot is recycled on the *next* pop, so
  /// handles to it stay pending() while the caller runs the action.
  bool pop(Time& time, InlineTask& action);
  /// As above, also reporting the event's schedule-site label (nullptr
  /// when the push site gave none), and returning false, removing
  /// nothing, when the next live event lies after `until`.
  bool pop(Time& time, InlineTask& action, const char*& label,
           Time until = kTimeNever);

  /// Time of the next live event, or kTimeNever if empty.
  Time peekTime();

  bool empty();

  std::size_t sizeIncludingCancelled() const { return heap_.size(); }

  /// Largest heap size ever observed (cancelled records included; a run
  /// counts once) — the queue-depth high-water mark run telemetry
  /// reports. Tracked at insertion, so it is exact.
  std::size_t peakDepth() const { return peakDepth_; }

  /// Pooled slot records ever allocated (the slab high-water mark; slots
  /// are recycled, never returned to the allocator).
  std::size_t slabSlots() const { return slots_.size(); }

 protected:
  // EventTarget backends (EventHandle reaches them through the base).
  void cancelSlot(std::uint32_t slot, std::uint32_t generation) override;
  bool slotPending(std::uint32_t slot,
                   std::uint32_t generation) const override;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One pooled record: an event, or the header of a run (isRun). A run
  /// header owns the run's heap entry; its items are event slots linked
  /// through runNext, earliest first.
  struct Slot {
    Time time = kTimeZero;
    std::uint32_t generation = 0;
    bool live = false;       ///< allocated: queued or currently executing
    bool cancelled = false;
    bool isRun = false;      ///< run header, not an event
    bool runOpen = false;    ///< header: the owner may still append
    const char* label = nullptr;  ///< schedule-site tag (static storage)
    InlineTask action;
    std::uint32_t nextFree = kNoSlot;
    std::uint32_t runNext = kNoSlot;  ///< item: next item; header: first
    std::uint32_t runTail = kNoSlot;  ///< header: last item
  };
  /// The slab holds one Slot per in-flight event; at city scale that is
  /// hundreds of thousands. InlineTask (96B inline + 3 fn ptrs, padded to
  /// 16-byte alignment) dominates; the run links fill what was tail
  /// padding.
  ECGRID_LAYOUT_BUDGET(Slot, 176);

  struct HeapEntry {
    Time time = kTimeZero;
    /// Tie-break among equal times: == sequence normally, a random draw
    /// under perturbTieBreak() (see above).
    std::uint64_t tieKey = 0;
    std::uint64_t sequence = 0;
    std::uint32_t slot = 0;
  };
  ECGRID_LAYOUT_BUDGET(HeapEntry, 32);

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return runsBefore(a.time, EventKey{a.tieKey, a.sequence}, b.time,
                      EventKey{b.tieKey, b.sequence});
  }

  /// Purge threshold: once at least this many cancelled records sit in
  /// the heap AND they make up half of it, purgeCancelled() rebuilds the
  /// heap without them. Keeps cancel-heavy workloads (ack timeouts,
  /// abandoned protocol timers) from growing the queue with dead entries;
  /// the floor keeps small queues from purging constantly.
  static constexpr std::size_t kPurgeFloor = 64;

  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t index);
  HeapEntry itemKey(std::uint32_t item) const;
  void heapInsert(const HeapEntry& entry);
  void removeHeapTop();
  void place(std::size_t i, const HeapEntry& entry);
  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  void resift(std::size_t i);
  std::uint32_t takeRunHead(std::uint32_t header);
  void skipCancelled();
  void purgeCancelled();

  std::vector<Slot> slots_;
  /// Run items' keys (their times live in Slot::time), indexed like
  /// slots_: only run items need them, the heap holds everyone else's.
  std::vector<EventKey> keys_;
  /// Each slot's index in heap_ (kNoSlot when it has no entry of its
  /// own), indexed like slots_. Every sift step rewrites it, so it lives
  /// in its own dense array rather than in the 176-byte slot records.
  std::vector<std::uint32_t> heapPos_;
  std::vector<HeapEntry> heap_;
  std::optional<RngStream> tieBreakRng_;
  std::uint32_t freeHead_ = kNoSlot;
  std::uint32_t executing_ = kNoSlot;  ///< slot recycled on next pop
  std::uint64_t nextSequence_ = 0;
  std::size_t cancelledInHeap_ = 0;  ///< cancelled records awaiting reclaim
  std::size_t peakDepth_ = 0;        ///< max heap_.size() ever observed
};

inline void EventHandle::cancel() {
  if (target_ != nullptr) target_->cancelSlot(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return target_ != nullptr && target_->slotPending(slot_, generation_);
}

}  // namespace ecgrid::sim
