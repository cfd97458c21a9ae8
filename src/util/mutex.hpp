// Annotated mutex types for clang's thread-safety analysis.
//
// std::mutex carries none of the capability attributes the analysis
// needs, so cross-thread state in this repo locks through these thin
// wrappers instead: `Mutex` is an annotated capability over std::mutex,
// `MutexLock` the RAII guard. Under the `thread-safety` preset
// (-Wthread-safety -Werror) a field declared
//
//   Mutex mutex_;
//   std::map<std::string, int> byTag_ ECGRID_GUARDED_BY(mutex_);
//
// cannot be read or written without holding mutex_ — the compiler
// rejects the access. Off clang the attributes vanish and these are
// zero-overhead std::mutex / std::lock_guard.
//
// Keep the surface minimal on purpose: the simulator core is
// single-threaded by design (one Simulator per scenario, run on one
// thread — see util/ownership.hpp and DESIGN.md §13), so only genuinely
// process-wide registries (util/log) and the harness thread pool ever
// need a lock. New locks in src/ should be rare and reviewed: each one
// is state that parallel scenario workers share.
#pragma once

#include <mutex>

#include "util/thread_annotations.hpp"

namespace ecgrid::util {

/// std::mutex with capability annotations.
class ECGRID_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ECGRID_ACQUIRE() { impl_.lock(); }
  void unlock() ECGRID_RELEASE() { impl_.unlock(); }
  bool tryLock() ECGRID_TRY_ACQUIRE(true) { return impl_.try_lock(); }

 private:
  std::mutex impl_;
};

/// RAII lock over Mutex (std::lock_guard with scoped-capability
/// annotations).
class ECGRID_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ECGRID_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() ECGRID_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace ecgrid::util
