// Dense per-id state for the sequentially issued strong ids (Pid, Tgid):
// the fixed per-process array idiom (xv6's `syscall_invokes[NPROC]`), but
// growing on write. The kernel hands out pids 1, 2, 3, ... and never
// reuses them, so a vector indexed by `id.v` is both the smallest and the
// fastest map — no hashing, no rehash of a 10^5-entry table mid-storm.
//
// This is for hook state, where an id never written reads as T{}. The
// kernel's own process and group arenas (`procs_`/`groups_`, indexed by
// v-1) stay separate: they own heap objects whose addresses are handed out
// and must stay put, and looking up an id they do not hold is a bug there
// (an ensure), not a default value.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ensure.hpp"

namespace mtr {

template <typename Id, typename T>
class IdTable {
 public:
  /// The value stored for `id`, or T{} if it was never written.
  T get(Id id) const {
    MTR_ENSURE(id.valid());
    const auto i = static_cast<std::size_t>(id.v);
    return i < slots_.size() ? slots_[i] : T{};
  }

  /// The slot for `id`, value-initialised on first write.
  T& operator[](Id id) {
    MTR_ENSURE(id.valid());
    const auto i = static_cast<std::size_t>(id.v);
    if (i >= slots_.size()) slots_.resize(i + 1);
    return slots_[i];
  }

  /// Every slot in id order; ids never written read as T{}.
  const std::vector<T>& slots() const { return slots_; }

 private:
  std::vector<T> slots_;
};

}  // namespace mtr
