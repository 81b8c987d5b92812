#include "nn/tape.h"

#include <pthread.h>

#include <mutex>
#include <unordered_set>

namespace diva {
namespace {

// The innermost live TapeScope's tape on this thread, if any.
thread_local Tape* t_scope_tape = nullptr;

// Every thread's default tape, so a module destroyed on one thread can
// drop what it recorded on another (a net built and run on a set-up
// thread, then freed on the main thread). Leaked on purpose: modules
// with static storage duration are destroyed after any static here.
struct DefaultTapes {
  std::mutex mu;
  std::unordered_set<Tape*> tapes;
};
DefaultTapes& default_tapes();

// Fork (serve workers): the registry lock is held across fork() so the
// child never inherits it locked, and the child forgets the tapes of
// the parent's other threads, which do not exist there (one of them
// could have been mid-update, its lock held forever).
void lock_tapes_for_fork() { default_tapes().mu.lock(); }
void unlock_tapes_after_fork() { default_tapes().mu.unlock(); }
void keep_own_tape_in_forked_child();

DefaultTapes& default_tapes() {
  static DefaultTapes* const all = [] {
    auto* tapes = new DefaultTapes();
    ::pthread_atfork(lock_tapes_for_fork, unlock_tapes_after_fork,
                     keep_own_tape_in_forked_child);
    return tapes;
  }();
  return *all;
}

// The thread's default tape, built on first use and unregistered when
// the thread's locals are destroyed. The pointer is reset then, so a
// module destroyed after that (a static net at process exit) finds no
// tape instead of a dead one.
struct DefaultTape {
  Tape* tape = nullptr;
  ~DefaultTape() {
    if (tape == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(default_tapes().mu);
      default_tapes().tapes.erase(tape);
    }
    delete tape;
    tape = nullptr;
  }
};
thread_local DefaultTape t_default;

void keep_own_tape_in_forked_child() {
  DefaultTapes& all = default_tapes();
  all.tapes.clear();
  if (t_default.tape != nullptr) all.tapes.insert(t_default.tape);
  all.mu.unlock();
}

}  // namespace

void Tape::put(const void* key, std::any state) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = std::move(state);
}

std::any Tape::take(const void* key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  std::any out = std::move(it->second);
  entries_.erase(it);
  return out;
}

void Tape::erase(const void* key) {
  std::any dropped;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  dropped = std::move(it->second);
  entries_.erase(it);
}

std::size_t Tape::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Tape& current_tape() {
  if (t_scope_tape != nullptr) return *t_scope_tape;
  if (t_default.tape == nullptr) {
    auto* tape = new Tape();
    std::lock_guard<std::mutex> lock(default_tapes().mu);
    default_tapes().tapes.insert(tape);
    t_default.tape = tape;
  }
  return *t_default.tape;
}

void forget_on_all_tapes(const void* key) {
  if (t_scope_tape != nullptr) t_scope_tape->erase(key);
  std::lock_guard<std::mutex> lock(default_tapes().mu);
  for (Tape* tape : default_tapes().tapes) tape->erase(key);
}

TapeScope::TapeScope() : prev_(t_scope_tape) { t_scope_tape = &tape_; }

TapeScope::~TapeScope() { t_scope_tape = prev_; }

}  // namespace diva
