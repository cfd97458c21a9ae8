#include "sim/event.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::sim {

namespace {
/// Slab capacity pre-sized at construction so paper-baseline runs never
/// grow the vectors on the hot path (the audit gate would count it).
constexpr std::size_t kInitialSlots = 256;
}  // namespace

EventQueue::EventQueue() {
  slots_.reserve(kInitialSlots);
  keys_.reserve(kInitialSlots);
  heapPos_.reserve(kInitialSlots);
  heap_.reserve(kInitialSlots);
}

ECGRID_HOT_PATH std::uint32_t EventQueue::allocSlot() {
  if (freeHead_ != kNoSlot) {
    std::uint32_t index = freeHead_;
    freeHead_ = slots_[index].nextFree;
    return index;
  }
  if (slots_.size() == slots_.capacity()) {
    // Slab growth: monotone high-water mark, not steady-state churn — a
    // geometric number of growth events total, audit-exempt by the same
    // argument every lint allow() on a reserved container makes. The
    // reserve() above covers baseline runs; bigger scenarios amortise.
    ECGRID_ALLOC_EXEMPT();
    const std::size_t capacity =
        slots_.empty() ? kInitialSlots : slots_.capacity() * 2;
    slots_.reserve(capacity);
    keys_.reserve(capacity);
    heapPos_.reserve(capacity);
  }
  slots_.emplace_back();
  keys_.emplace_back();
  heapPos_.push_back(kNoSlot);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

ECGRID_HOT_PATH void EventQueue::freeSlot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  slot.cancelled = false;
  slot.isRun = false;
  slot.runOpen = false;
  slot.label = nullptr;
  slot.action.reset();
  heapPos_[index] = kNoSlot;
  slot.runNext = kNoSlot;
  slot.runTail = kNoSlot;
  // Bump the generation on free so stale handles can never alias a record
  // that reuses this slot.
  ++slot.generation;
  slot.nextFree = freeHead_;
  freeHead_ = index;
}

ECGRID_HOT_PATH EventKey EventQueue::takeKey() {
  const std::uint64_t sequence = nextSequence_++;
  const std::uint64_t tieKey = tieBreakRng_ ? tieBreakRng_->raw() : sequence;
  return EventKey{tieKey, sequence};
}

ECGRID_HOT_PATH EventQueue::HeapEntry EventQueue::itemKey(
    std::uint32_t item) const {
  return HeapEntry{slots_[item].time, keys_[item].tieKey,
                   keys_[item].sequence, item};
}

ECGRID_HOT_PATH void EventQueue::heapInsert(const HeapEntry& entry) {
  if (heap_.size() == heap_.capacity()) {
    // High-water growth, same argument as the slab in allocSlot().
    ECGRID_ALLOC_EXEMPT();
    heap_.reserve(heap_.empty() ? kInitialSlots : heap_.capacity() * 2);
  }
  heap_.push_back(entry);
  if (heap_.size() > peakDepth_) peakDepth_ = heap_.size();
  siftUp(heap_.size() - 1);
}

ECGRID_HOT_PATH EventHandle EventQueue::push(Time time, InlineTask action,
                                             const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(static_cast<bool>(action), "event action must be callable");
  std::uint32_t index = allocSlot();
  Slot& slot = slots_[index];
  slot.time = time;
  slot.live = true;
  slot.cancelled = false;
  slot.label = label;
  slot.action = std::move(action);
  const EventKey key = takeKey();
  heapInsert(HeapEntry{time, key.tieKey, key.sequence, index});
  return EventHandle(this, index, slot.generation);
}

bool EventQueue::retime(const EventHandle& handle, Time time) {
  if (handle.queue_ != this) return false;
  const std::uint32_t index = handle.slot_;
  const std::uint32_t generation = handle.generation_;
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.live || slot.generation != generation || slot.cancelled ||
      heapPos_[index] == kNoSlot) {
    return false;
  }
  slot.time = time;
  const EventKey key = takeKey();
  const std::size_t pos = heapPos_[index];
  heap_[pos] = HeapEntry{time, key.tieKey, key.sequence, index};
  resift(pos);
  return true;
}

RunId EventQueue::openRun() {
  std::uint32_t index = allocSlot();
  Slot& header = slots_[index];
  header.live = true;
  header.isRun = true;
  header.runOpen = true;
  return index;
}

ECGRID_HOT_PATH EventHandle EventQueue::pushToRun(RunId run, Time time,
                                                  InlineTask action,
                                                  const char* label) {
  return pushToRun(run, time, takeKey(), std::move(action), label);
}

ECGRID_HOT_PATH EventHandle EventQueue::pushToRun(RunId run, Time time,
                                                  EventKey key,
                                                  InlineTask action,
                                                  const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(static_cast<bool>(action), "event action must be callable");
  ECGRID_CHECK(run < slots_.size() && slots_[run].isRun &&
                   slots_[run].runOpen,
               "pushToRun needs an open run");
  std::uint32_t index = allocSlot();  // may move slots_: index from here on
  Slot& item = slots_[index];
  item.time = time;
  item.live = true;
  item.cancelled = false;
  item.label = label;
  item.action = std::move(action);
  keys_[index] = key;
  // Entry for the run: this item's key, the run header's slot.
  const HeapEntry entry{time, key.tieKey, key.sequence, run};
  Slot& header = slots_[run];
  if (header.runTail == kNoSlot) {
    // Empty (new or drained) run: it re-enters the heap under this key.
    header.runNext = index;
    header.runTail = index;
    heapInsert(entry);
  } else if (!earlier(entry, itemKey(header.runTail))) {
    slots_[header.runTail].runNext = index;
    header.runTail = index;
  } else {
    // Out of order: link in before the first later item. A new earliest
    // item re-keys the run's heap entry, which always carries the head's
    // key (cancelled items included, like any lazily cancelled entry).
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = header.runNext;
    while (!earlier(entry, itemKey(next))) {
      prev = next;
      next = slots_[next].runNext;
    }
    slots_[index].runNext = next;
    if (prev != kNoSlot) {
      slots_[prev].runNext = index;
    } else {
      header.runNext = index;
      heap_[heapPos_[run]] = entry;
      siftUp(heapPos_[run]);
    }
  }
  return EventHandle(this, index, slots_[index].generation);
}

void EventQueue::closeRun(RunId run) {
  ECGRID_CHECK(run < slots_.size() && slots_[run].isRun &&
                   slots_[run].runOpen,
               "closeRun needs an open run");
  slots_[run].runOpen = false;
  if (slots_[run].runTail == kNoSlot) freeSlot(run);
}

ECGRID_HOT_PATH std::uint32_t EventQueue::takeRunHead(std::uint32_t header) {
  // Only ever called on the heap top.
  const std::uint32_t item = slots_[header].runNext;
  const std::uint32_t next = slots_[item].runNext;
  slots_[item].runNext = kNoSlot;
  Slot& run = slots_[header];
  run.runNext = next;
  if (next == kNoSlot) {
    run.runTail = kNoSlot;
    removeHeapTop();
    if (!run.runOpen) freeSlot(header);
  } else {
    HeapEntry entry = itemKey(next);
    entry.slot = header;
    heap_.front() = entry;
    siftDown(0);
  }
  return item;
}

ECGRID_HOT_PATH void EventQueue::place(std::size_t i, const HeapEntry& entry) {
  heap_[i] = entry;
  heapPos_[entry.slot] = static_cast<std::uint32_t>(i);
}

ECGRID_HOT_PATH void EventQueue::siftUp(std::size_t i) {
  HeapEntry entry = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

ECGRID_HOT_PATH void EventQueue::siftDown(std::size_t i) {
  const std::size_t size = heap_.size();
  HeapEntry entry = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= size) break;
    if (child + 1 < size && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], entry)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, entry);
}

ECGRID_HOT_PATH void EventQueue::resift(std::size_t i) {
  if (i > 0 && earlier(heap_[i], heap_[(i - 1) / 2])) {
    siftUp(i);
  } else {
    siftDown(i);
  }
}

ECGRID_HOT_PATH void EventQueue::removeHeapTop() {
  heapPos_[heap_.front().slot] = kNoSlot;
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) siftDown(0);
}

ECGRID_HOT_PATH void EventQueue::skipCancelled() {
  while (!heap_.empty()) {
    const std::uint32_t top = heap_.front().slot;
    if (slots_[top].isRun) {
      const std::uint32_t head = slots_[top].runNext;
      if (!slots_[head].cancelled) return;
      freeSlot(takeRunHead(top));
      continue;
    }
    if (!slots_[top].cancelled) return;
    removeHeapTop();
    freeSlot(top);
    --cancelledInHeap_;
  }
}

ECGRID_HOT_PATH void EventQueue::purgeCancelled() {
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    // A run header is never cancelled; its cancelled items leave lazily.
    if (slots_[entry.slot].cancelled) {
      freeSlot(entry.slot);
    } else {
      place(kept++, entry);
    }
  }
  heap_.resize(kept);
  // Bottom-up heapify restores the heap property in O(n). The internal
  // arrangement differs from an insertion-built heap, but pop order is
  // fixed by the (time, tieKey, sequence) total order alone, so replay
  // digests are unaffected.
  for (std::size_t i = kept / 2; i-- > 0;) siftDown(i);
  cancelledInHeap_ = 0;
}

bool EventQueue::pop(Time& time, InlineTask& action) {
  const char* label = nullptr;
  return pop(time, action, label);
}

ECGRID_HOT_PATH bool EventQueue::pop(Time& time, InlineTask& action,
                                     const char*& label, Time until) {
  ECGRID_HOT_SCOPE();
  skipCancelled();
  if (!heap_.empty() && heap_.front().time > until) return false;
  // The previous event's record outlived its execution (see header); now
  // that the caller is back for the next event, recycle it.
  if (executing_ != kNoSlot) {
    freeSlot(executing_);
    executing_ = kNoSlot;
  }
  if (heap_.empty()) return false;
  std::uint32_t index = heap_.front().slot;
  if (slots_[index].isRun) {
    index = takeRunHead(index);
  } else {
    removeHeapTop();
  }
  Slot& slot = slots_[index];
  time = slot.time;
  action = std::move(slot.action);
  label = slot.label;
  executing_ = index;
  return true;
}

Time EventQueue::peekTime() {
  skipCancelled();
  return heap_.empty() ? kTimeNever : heap_.front().time;
}

bool EventQueue::empty() {
  skipCancelled();
  return heap_.empty();
}

ECGRID_HOT_PATH void EventQueue::cancelSlot(std::uint32_t slot,
                                            std::uint32_t generation) {
  if (slot >= slots_.size()) return;
  Slot& record = slots_[slot];
  if (!record.live || record.generation != generation) return;
  if (record.cancelled) return;
  record.cancelled = true;
  // Release the closure eagerly so cancelled events do not pin captured
  // resources until they percolate to the heap top.
  record.action.reset();
  // An entry of its own in the heap stays there until reclaimed lazily —
  // and must be *counted*, because cancel-heavy workloads (ack timeouts,
  // abandoned timers) would otherwise accumulate dead far-future entries
  // for the whole run, growing the slab and heap without bound. The
  // alloc-audit gate caught exactly that. Past the threshold, rebuild the
  // heap without the dead entries: O(n) per purge, amortised O(1) per
  // cancellation, and the queue's footprint stays bounded by ~2x the live
  // high-water mark. The executing slot has left the heap, and a run
  // item's slot leaves with its run, whose lifetime its owner bounds.
  if (heapPos_[slot] != kNoSlot) {
    ++cancelledInHeap_;
    if (cancelledInHeap_ >= kPurgeFloor && cancelledInHeap_ * 2 >= heap_.size()) {
      purgeCancelled();
    }
  }
}

bool EventQueue::slotPending(std::uint32_t slot,
                             std::uint32_t generation) const {
  if (slot >= slots_.size()) return false;
  const Slot& record = slots_[slot];
  return record.live && record.generation == generation && !record.cancelled;
}

}  // namespace ecgrid::sim
