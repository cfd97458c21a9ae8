// Stress tests for the pooled event queue: randomized interleavings of
// push/cancel/pop checked against a reference model that reimplements the
// previous shared_ptr + std::priority_queue design. The pooled queue's
// contract is that its observable behaviour — pop order, pending() — is
// indistinguishable from that design while allocating far less.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/rng.hpp"

namespace ecgrid::sim {
namespace {

// The pre-slab design, kept as an executable specification.
struct RefRecord {
  Time time = 0.0;
  std::uint64_t sequence = 0;
  bool cancelled = false;
  int tag = 0;
};

class RefQueue {
 public:
  std::shared_ptr<RefRecord> push(Time time, int tag) {
    auto record = std::make_shared<RefRecord>();
    record->time = time;
    record->sequence = nextSequence_++;
    record->tag = tag;
    heap_.push(record);
    return record;
  }

  /// Returns the next live record, or nullptr when drained.
  std::shared_ptr<RefRecord> pop() {
    while (!heap_.empty() && heap_.top()->cancelled) heap_.pop();
    if (heap_.empty()) return nullptr;
    auto top = heap_.top();
    heap_.pop();
    return top;
  }

 private:
  struct Later {
    bool operator()(const std::shared_ptr<RefRecord>& a,
                    const std::shared_ptr<RefRecord>& b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->sequence > b->sequence;
    }
  };
  std::priority_queue<std::shared_ptr<RefRecord>,
                      std::vector<std::shared_ptr<RefRecord>>, Later>
      heap_;
  std::uint64_t nextSequence_ = 0;
};

class QueueStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueStress, InterleavedOpsMatchReferenceModel) {
  RngStream rng(GetParam());
  EventQueue queue;
  RefQueue ref;

  // Handles to every not-yet-popped event, kept in lockstep.
  std::vector<EventHandle> handles;
  std::vector<std::shared_ptr<RefRecord>> refs;
  std::vector<int> popped;
  std::vector<int> refPopped;
  int nextTag = 0;

  for (int op = 0; op < 20000; ++op) {
    double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.55) {
      // Coarse times force plenty of ties to exercise sequence ordering.
      Time t = static_cast<Time>(rng.uniformInt(0, 50));
      int tag = nextTag++;
      handles.push_back(queue.push(t, [tag, &popped] { popped.push_back(tag); }));
      refs.push_back(ref.push(t, tag));
    } else if (dice < 0.75 && !handles.empty()) {
      std::size_t victim = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
      handles[victim].cancel();
      refs[victim]->cancelled = true;
    } else {
      Time time = 0.0;
      InlineTask action;
      if (queue.pop(time, action)) action();
      auto refTop = ref.pop();
      if (refTop != nullptr) refPopped.push_back(refTop->tag);
      ASSERT_EQ(popped, refPopped) << "diverged at op " << op;
    }
    // Spot-check pending() parity on a random handle that has not been
    // popped yet (after popping, the reference record lives as long as
    // callers hold it, whereas the pooled slot retires at the next pop —
    // both designs report not-pending there, but via different paths that
    // the dedicated lifetime tests cover).
    if (!handles.empty() && rng.uniform(0.0, 1.0) < 0.2) {
      std::size_t probe = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
      bool wasPopped = false;
      for (int tag : popped) {
        if (tag == refs[probe]->tag) {
          wasPopped = true;
          break;
        }
      }
      if (!wasPopped) {
        EXPECT_EQ(handles[probe].pending(), !refs[probe]->cancelled)
            << "handle " << probe << " at op " << op;
      }
    }
  }

  // Drain both completely; total order must agree to the last event.
  while (true) {
    Time time = 0.0;
    InlineTask action;
    bool live = queue.pop(time, action);
    auto refTop = ref.pop();
    ASSERT_EQ(live, refTop != nullptr);
    if (!live) break;
    action();
    refPopped.push_back(refTop->tag);
  }
  EXPECT_EQ(popped, refPopped);
  EXPECT_GT(popped.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueStress,
                         ::testing::Values(1u, 42u, 777u, 31337u));

// Slot churn: repeated fill/drain cycles reuse pooled slots; handles from
// earlier cycles must never observe later occupants of their slot.
TEST(EventQueuePool, HandlesFromPriorCyclesStayDead) {
  EventQueue queue;
  std::vector<EventHandle> stale;
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<EventHandle> fresh;
    for (int i = 0; i < 64; ++i) {
      fresh.push_back(queue.push(static_cast<Time>(i), [] {}));
    }
    for (const EventHandle& h : stale) EXPECT_FALSE(h.pending());
    for (EventHandle& h : stale) h.cancel();  // must not hit new events
    for (const EventHandle& h : fresh) EXPECT_TRUE(h.pending());
    Time time = 0.0;
    InlineTask action;
    int popCount = 0;
    while (queue.pop(time, action)) {
      action();
      ++popCount;
    }
    EXPECT_EQ(popCount, 64);
    stale = std::move(fresh);
  }
}

// The heap size bookkeeping the Simulator exposes for stats.
TEST(EventQueuePool, SizeIncludingCancelledCountsHeapEntries) {
  EventQueue queue;
  EventHandle a = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  EXPECT_EQ(queue.sizeIncludingCancelled(), 2u);
  a.cancel();
  // Lazy discard: still on the heap until it reaches the top.
  EXPECT_EQ(queue.sizeIncludingCancelled(), 2u);
  EXPECT_DOUBLE_EQ(queue.peekTime(), 2.0);  // discards the cancelled head
  EXPECT_EQ(queue.sizeIncludingCancelled(), 1u);
}

// ---------------------------------------------------------------------------
// retime(): an in-place move must be indistinguishable from cancel + push.
// Two queues run in lockstep on the same operations: `moved` re-times its
// events, `reference` cancels and re-pushes them. Both draw one tie key per
// push or move, so under perturbTieBreak they draw identical keys too.

class RetimeStress
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(RetimeStress, MatchesCancelAndPush) {
  const auto [seed, perturb] = GetParam();
  RngStream rng(seed);
  EventQueue moved;
  EventQueue reference;
  if (perturb) {
    moved.perturbTieBreak(RngStream(seed * 7 + 1));
    reference.perturbTieBreak(RngStream(seed * 7 + 1));
  }
  struct Logical {
    EventHandle moved;
    EventHandle reference;
  };
  std::vector<Logical> events;
  std::vector<int> movedOrder;
  std::vector<int> referenceOrder;
  Time now = 0.0;
  int retimed = 0;
  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.35 || events.empty()) {
      const Time t = now + static_cast<Time>(rng.uniformInt(0, 40));
      const int tag = static_cast<int>(events.size());
      events.push_back(
          {moved.push(t, [tag, &movedOrder] { movedOrder.push_back(tag); }),
           reference.push(t, [tag, &referenceOrder] {
             referenceOrder.push_back(tag);
           })});
    } else if (dice < 0.75) {
      // Coarse times keep plenty of ties against unrelated events.
      const std::size_t k = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(events.size()) - 1));
      const Time t = now + static_cast<Time>(rng.uniformInt(0, 40));
      const int tag = static_cast<int>(k);
      Logical& event = events[k];
      const bool wasPending = event.moved.pending();
      ASSERT_EQ(wasPending, event.reference.pending()) << "op " << op;
      if (moved.retime(event.moved, t)) {
        ASSERT_TRUE(wasPending);
        ++retimed;
      } else {
        // Refused: not pending, or the event that just ran (a handle to
        // the executing event reports pending until the next pop).
        ASSERT_TRUE(!wasPending ||
                    (!movedOrder.empty() && movedOrder.back() == tag))
            << "op " << op;
        event.moved.cancel();
        event.moved = moved.push(t, [tag, &movedOrder] {
          movedOrder.push_back(tag);
        });
      }
      event.reference.cancel();
      event.reference = reference.push(t, [tag, &referenceOrder] {
        referenceOrder.push_back(tag);
      });
    } else if (dice < 0.9) {
      // Heavy cancellation drives both queues through purgeCancelled().
      const std::size_t k = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(events.size()) - 1));
      events[k].moved.cancel();
      events[k].reference.cancel();
    } else {
      Time tm = 0.0;
      Time tr = 0.0;
      InlineTask am;
      InlineTask ar;
      const bool gm = moved.pop(tm, am);
      const bool gr = reference.pop(tr, ar);
      ASSERT_EQ(gm, gr);
      if (gm) {
        am();
        ar();
        ASSERT_EQ(tm, tr);
        now = tm;
      }
      ASSERT_EQ(movedOrder, referenceOrder) << "diverged at op " << op;
    }
  }
  while (true) {
    Time tm = 0.0;
    Time tr = 0.0;
    InlineTask am;
    InlineTask ar;
    const bool gm = moved.pop(tm, am);
    ASSERT_EQ(gm, reference.pop(tr, ar));
    if (!gm) break;
    am();
    ar();
  }
  EXPECT_EQ(movedOrder, referenceOrder);
  EXPECT_GT(retimed, 1000);
  EXPECT_GT(movedOrder.size(), 1000u);
  // Moving in place never leaves a dead entry behind.
  EXPECT_LE(moved.peakDepth(), reference.peakDepth());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTieModes, RetimeStress,
    ::testing::Combine(::testing::Values(1u, 42u, 31337u),
                       ::testing::Bool()));

TEST(EventQueueRetime, RefusesExecutingCancelledAndInertHandles) {
  EventQueue queue;
  EXPECT_FALSE(queue.retime(EventHandle(), 1.0));
  EventHandle cancelled = queue.push(1.0, [] {});
  cancelled.cancel();
  EXPECT_FALSE(queue.retime(cancelled, 2.0));
  EXPECT_FALSE(cancelled.pending());

  EventHandle self;
  bool refusedWhileRunning = false;
  self = queue.push(3.0, [&] {
    refusedWhileRunning = !queue.retime(self, 4.0);
  });
  Time time = 0.0;
  InlineTask action;
  ASSERT_TRUE(queue.pop(time, action));
  EXPECT_EQ(time, 3.0);
  action();
  EXPECT_TRUE(refusedWhileRunning);
  EXPECT_FALSE(queue.pop(time, action));
  // Already run: the slot was recycled, the handle stays refused.
  EXPECT_FALSE(queue.retime(self, 5.0));

  // A handle from another queue is not this queue's to move.
  EventQueue other;
  EventHandle foreign = other.push(1.0, [] {});
  EXPECT_FALSE(queue.retime(foreign, 2.0));
  EXPECT_TRUE(foreign.pending());
}

TEST(EventQueueRetime, MovesEarlierAndLaterInPlace) {
  EventQueue queue;
  std::vector<int> order;
  EventHandle a = queue.push(1.0, [&] { order.push_back(0); });
  queue.push(2.0, [&] { order.push_back(1); });
  EventHandle c = queue.push(3.0, [&] { order.push_back(2); });
  EXPECT_TRUE(queue.retime(a, 5.0));   // later: sifts down
  EXPECT_TRUE(queue.retime(c, 0.5));   // earlier: sifts up
  EXPECT_TRUE(queue.retime(a, 2.0));   // tie with event 1: runs after it
  EXPECT_EQ(queue.sizeIncludingCancelled(), 3u);
  EXPECT_TRUE(a.pending());
  Time time = 0.0;
  InlineTask action;
  std::vector<Time> times;
  while (queue.pop(time, action)) {
    action();
    times.push_back(time);
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(times, (std::vector<Time>{0.5, 2.0, 2.0}));
}

// ---------------------------------------------------------------------------
// Runs: items sharing one heap entry must pop exactly as per-item pushes.
// `batched` files some events into runs; `plain` pushes every event on its
// own, in the same order, so both draw the same sequence numbers and tie
// keys.

class RunStress
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(RunStress, MatchesPerItemPushes) {
  const auto [seed, perturb] = GetParam();
  RngStream rng(seed);
  EventQueue batched;
  EventQueue plain;
  if (perturb) {
    batched.perturbTieBreak(RngStream(seed * 3 + 5));
    plain.perturbTieBreak(RngStream(seed * 3 + 5));
  }
  std::vector<int> batchedOrder;
  std::vector<int> plainOrder;
  std::vector<std::pair<EventHandle, EventHandle>> handles;
  std::vector<RunId> openRuns;
  Time now = 0.0;
  auto batchedAction = [&batchedOrder](int tag) {
    return [tag, &batchedOrder] { batchedOrder.push_back(tag); };
  };
  auto plainAction = [&plainOrder](int tag) {
    return [tag, &plainOrder] { plainOrder.push_back(tag); };
  };
  auto popBoth = [&](int op) {
    Time tb = 0.0;
    Time tp = 0.0;
    InlineTask ab;
    InlineTask ap;
    const bool gb = batched.pop(tb, ab);
    const bool gp = plain.pop(tp, ap);
    EXPECT_EQ(gb, gp) << "op " << op;
    if (!gb || !gp) return false;
    ab();
    ap();
    EXPECT_EQ(tb, tp) << "op " << op;
    now = tb;
    return true;
  };
  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    const int tag = static_cast<int>(handles.size());
    // Coarse times: plenty of ties between run items and ordinary events,
    // and appends landing before a run's current head.
    const Time t = now + static_cast<Time>(rng.uniformInt(0, 12));
    if (dice < 0.05 || openRuns.empty()) {
      openRuns.push_back(batched.openRun());
    } else if (dice < 0.1 && openRuns.size() > 1) {
      // The owner lets go; the run retires once drained.
      const std::size_t r = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(openRuns.size()) - 1));
      batched.closeRun(openRuns[r]);
      openRuns.erase(openRuns.begin() + static_cast<std::ptrdiff_t>(r));
    } else if (dice < 0.25) {
      handles.emplace_back(batched.push(t, batchedAction(tag)),
                           plain.push(t, plainAction(tag)));
    } else if (dice < 0.5) {
      const RunId run = openRuns[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(openRuns.size()) - 1))];
      handles.emplace_back(batched.pushToRun(run, t, batchedAction(tag)),
                           plain.push(t, plainAction(tag)));
    } else if (dice < 0.6) {
      // A batch built out of order: keys drawn in item order, items
      // appended in a shuffled order (a frame's fan-out does the sort).
      const RunId run = openRuns[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(openRuns.size()) - 1))];
      const int count = static_cast<int>(rng.uniformInt(1, 8));
      std::vector<std::tuple<Time, EventKey, int>> batch;
      for (int i = 0; i < count; ++i) {
        const int itemTag = static_cast<int>(handles.size());
        const Time when = now + static_cast<Time>(rng.uniformInt(0, 12));
        batch.emplace_back(when, batched.takeKey(), itemTag);
        handles.emplace_back(EventHandle(),
                             plain.push(when, plainAction(itemTag)));
      }
      for (int i = count - 1; i > 0; --i) {
        std::swap(batch[static_cast<std::size_t>(i)],
                  batch[static_cast<std::size_t>(rng.uniformInt(0, i))]);
      }
      for (const auto& [when, key, itemTag] : batch) {
        handles[static_cast<std::size_t>(itemTag)].first =
            batched.pushToRun(run, when, key, batchedAction(itemTag));
      }
    } else if (dice < 0.75 && !handles.empty()) {
      const std::size_t k = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
      ASSERT_EQ(handles[k].first.pending(), handles[k].second.pending());
      handles[k].first.cancel();
      handles[k].second.cancel();
    } else {
      popBoth(op);
      ASSERT_EQ(batchedOrder, plainOrder) << "diverged at op " << op;
    }
  }
  // Drain both; then a drained run that is still open takes a new item
  // and re-enters the heap.
  const RunId kept = openRuns.front();
  while (popBoth(-1)) {
  }
  ASSERT_EQ(batchedOrder, plainOrder);
  EXPECT_EQ(batched.sizeIncludingCancelled(), 0u);
  const int tag = static_cast<int>(handles.size());
  handles.emplace_back(batched.pushToRun(kept, now + 1.0, batchedAction(tag)),
                       plain.push(now + 1.0, plainAction(tag)));
  EXPECT_TRUE(popBoth(-2));
  EXPECT_EQ(batchedOrder, plainOrder);
  EXPECT_GT(batchedOrder.size(), 3000u);
  // One heap entry per run: the batched heap never ran deeper.
  EXPECT_LE(batched.peakDepth(), plain.peakDepth());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTieModes, RunStress,
    ::testing::Combine(::testing::Values(1u, 42u, 777u), ::testing::Bool()));

TEST(EventQueueRuns, CancelledHeadIsSkippedAndRunReKeyed) {
  EventQueue queue;
  std::vector<int> order;
  const RunId run = queue.openRun();
  EventHandle head = queue.pushToRun(run, 1.0, [&] { order.push_back(0); });
  queue.pushToRun(run, 3.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(queue.sizeIncludingCancelled(), 2u);  // one entry per run
  head.cancel();
  EXPECT_FALSE(head.pending());
  EXPECT_DOUBLE_EQ(queue.peekTime(), 2.0);
  // An append earlier than the current head re-keys the run's entry.
  queue.pushToRun(run, 1.5, [&] { order.push_back(3); });
  EXPECT_DOUBLE_EQ(queue.peekTime(), 1.5);
  Time time = 0.0;
  InlineTask action;
  while (queue.pop(time, action)) action();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  // Drained but open: the run takes a new item and re-enters the heap.
  queue.pushToRun(run, 4.0, [&] { order.push_back(4); });
  EXPECT_EQ(queue.sizeIncludingCancelled(), 1u);
  queue.closeRun(run);
  ASSERT_TRUE(queue.pop(time, action));
  action();
  EXPECT_EQ(order.back(), 4);
  EXPECT_FALSE(queue.pop(time, action));
}

TEST(EventQueueRuns, ItemHandlesPendWhileRunningAndRefuseRetime) {
  EventQueue queue;
  const RunId run = queue.openRun();
  EventHandle item;
  bool pendingWhileRunning = false;
  item = queue.pushToRun(run, 1.0, [&] { pendingWhileRunning = item.pending(); });
  queue.closeRun(run);
  EXPECT_FALSE(queue.retime(item, 2.0));  // run items move by cancel + push
  Time time = 0.0;
  InlineTask action;
  ASSERT_TRUE(queue.pop(time, action));
  action();
  EXPECT_TRUE(pendingWhileRunning);
  EXPECT_FALSE(queue.pop(time, action));
  EXPECT_FALSE(item.pending());
}

TEST(EventQueueRuns, ClosedRunsRecycleTheirRecords) {
  EventQueue queue;
  for (int cycle = 0; cycle < 100; ++cycle) {
    const RunId run = queue.openRun();
    for (int i = 0; i < 8; ++i) {
      queue.pushToRun(run, static_cast<Time>(cycle) + 0.1 * (8 - i), [] {});
    }
    queue.closeRun(run);
    queue.closeRun(queue.openRun());  // an empty run retires at once
    Time time = 0.0;
    InlineTask action;
    while (queue.pop(time, action)) action();
  }
  // One header and eight items in flight at most, plus the executing slot.
  EXPECT_LE(queue.slabSlots(), 11u);
}

}  // namespace
}  // namespace ecgrid::sim
