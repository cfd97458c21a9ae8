// BoundedRing — a FIFO over one flat allocation, for hot-path queues
// whose depth is bounded by configuration (MAC transmit queues capped by
// queueLimit, dedup windows capped by kDedupWindow).
//
// std::deque would work functionally but churns: libstdc++ frees a block
// every time pop_front empties it and allocates a fresh one as push_back
// crosses the next boundary, so a steady-state producer/consumer pair
// allocates forever — exactly the pattern the hot-path-allocation lint
// and the ECGRID_ALLOC_AUDIT gate exist to catch. The ring instead wraps
// head/tail indices around one vector: after the depth high-water mark is
// reached, pushes and pops touch no allocator at all.
//
// Growth is geometric (power-of-two capacities) like std::vector, so a
// queue that never goes deep never pays for its configured bound — at
// city scale, 10k hosts × a fully pre-sized 128-deep MAC queue would be
// real memory. reserve() in the owner's constructor sets the floor.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace ecgrid::util {

template <class T>
class BoundedRing {
 public:
  /// Pre-size to at least `n` slots (rounded up to a power of two).
  /// Callers reserve their expected steady depth up front so growth —
  /// which relocates every element — happens off the hot path.
  void reserve(std::size_t n) {
    if (n > slots_.size()) grow(roundUpPow2(n));
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  [[nodiscard]] T& front() {
    ECGRID_REQUIRE(count_ > 0, "front() on empty ring");
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    ECGRID_REQUIRE(count_ > 0, "front() on empty ring");
    return slots_[head_];
  }

  void push_back(T value) {
    if (count_ == slots_.size()) grow(slots_.empty() ? 8 : slots_.size() * 2);
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(value);
    ++count_;
  }

  void pop_front() {
    ECGRID_REQUIRE(count_ > 0, "pop_front() on empty ring");
    slots_[head_] = T{};  // release owned resources now, not at wraparound
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
    head_ = 0;
  }

 private:
  static std::size_t roundUpPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p *= 2;
    return p;
  }

  void grow(std::size_t newCapacity) {
    std::vector<T> next(newCapacity);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  /// Capacity is always a power of two (or zero before first use), so
  /// index wraparound is a mask instead of a modulo.
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ecgrid::util
