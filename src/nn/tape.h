// Tape: the per-call forward state of the float modules.
//
// A module's forward() records what its backward() needs (the input, a
// clipping mask, argmax indices, fake-quantized weights, shapes) on the
// calling thread's current tape, keyed by the module's address, and
// backward() takes that entry back off the tape. Modules themselves hold
// only parameters and config, so any number of threads can run
// forward/backward pairs through one shared network at once, each on
// its own tape.
//
// A TapeScope installs a fresh tape for its lifetime; the attack layer's
// grad sources open one per call, so nothing a call recorded outlives
// it. With no scope installed, each thread records on its own default
// tape, which keeps the plain forward-then-backward use of training
// loops and tests working as before.
//
// Workers of a nested parallel_for inside a layer never touch the tape:
// the layer reads its entry on the calling thread and hands the workers
// plain pointers.
#pragma once

#include <any>
#include <cstddef>
#include <mutex>
#include <unordered_map>

namespace diva {

class Tape {
 public:
  /// Records `state` for `key`, replacing what an earlier forward left.
  void put(const void* key, std::any state);

  /// Removes and returns key's entry; an empty std::any if there is none.
  std::any take(const void* key);

  void erase(const void* key);
  std::size_t size() const;

 private:
  // Only the owning thread records and takes; the lock is for a module
  // destroyed on another thread erasing its entry (forget_on_all_tapes).
  mutable std::mutex mu_;
  std::unordered_map<const void*, std::any> entries_;
};

/// The calling thread's current tape: the innermost live TapeScope's,
/// else the thread's default tape.
Tape& current_tape();

/// Drops `key`'s entries from every thread's default tape and from the
/// calling thread's scope tape, so a destroyed module's state is freed
/// and never reaches a later object at the same address.
void forget_on_all_tapes(const void* key);

/// Installs a fresh, empty tape as the calling thread's current tape
/// until destruction, then reinstates the previous one. Scopes nest and
/// must be destroyed on the thread that created them.
class TapeScope {
 public:
  TapeScope();
  ~TapeScope();

  TapeScope(const TapeScope&) = delete;
  TapeScope& operator=(const TapeScope&) = delete;

 private:
  Tape tape_;
  Tape* prev_;
};

}  // namespace diva
