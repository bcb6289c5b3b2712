// Annotated mutex / lock / condition-variable wrappers for Clang Thread
// Safety Analysis.
//
// libstdc++'s std::mutex and std::lock_guard carry no capability
// attributes, so code locking them is invisible to -Wthread-safety. These
// wrappers are the thinnest possible shims — same fast path, zero state
// beyond the wrapped primitive — whose acquire/release points are visible
// to the analysis. Every mutex-owning type in the tree holds a
// util::Mutex and guards its members with GUARDED_BY; see
// util/thread_annotations.h for the attribute vocabulary and DESIGN.md
// ("Compile-time adversary") for the tree-wide lock hierarchy.
//
// MutexLock is deliberately relockable (Lock/Unlock on the guard, like
// std::unique_lock) because the commit sequencer's waits drop its lock
// around watchdog rescue work; CondVar::Wait takes the
// guard so the analysis knows the lock is held across the predicate
// re-check. Condition waits are written as explicit
// `while (!pred) cv.Wait(lock);` loops — the std::condition_variable
// lambda-predicate form hides the re-check in a separate function the
// analysis cannot attribute to the lock.

#ifndef NELA_UTIL_MUTEX_H_
#define NELA_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace nela::util {

// A standard mutex, visible to thread-safety analysis as a capability.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // Bare Lock/Unlock are for the RAII guard below and for CondVar's
  // wait shim; application code must use MutexLock (the raw-lock lint
  // rule enforces this tree-wide).
  void Lock() ACQUIRE() { mu_.lock(); }  // nela-lint: allow(raw-lock) RAII home
  void Unlock() RELEASE() { mu_.unlock(); }  // nela-lint: allow(raw-lock) RAII home

  // For CondVar only: the underlying primitive.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// RAII guard over util::Mutex. Scoped like std::lock_guard by default,
// but relockable like std::unique_lock: Unlock()/Lock() pairs let a
// critical section be suspended (the analysis tracks the guard's state,
// so touching a GUARDED_BY member while unlocked is still an error).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.Lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Suspend / resume the critical section (the commit sequencer's waits
  // drop its lock around a rescue).
  void Unlock() RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_;
};

// Condition variable bound to util::Mutex via the guard. Wait atomically
// releases and reacquires the guard's mutex; the analysis sees the lock
// as held across the call, which is exactly the invariant a
// `while (!pred) cv.Wait(lock);` loop needs.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) {
    // The analysis models Wait as "lock held throughout"; the transient
    // release inside std::condition_variable is invisible by design.
    std::unique_lock<std::mutex> native(lock.mu_.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace nela::util

#endif  // NELA_UTIL_MUTEX_H_
