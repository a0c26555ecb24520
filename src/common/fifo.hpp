// A first-in first-out queue on one vector, for the small per-process
// queues of the kernel (kernel work, pending signals, stop notifications).
// std::deque allocates a map and a 512-byte node as soon as it is
// constructed; a fork storm keeps ~10^5 PCBs of three queues each alive
// until the kernel goes. This queue allocates nothing until its first push.
//
// Popping advances a head index. The consumed prefix is dropped once it is
// at least half the stored entries, which includes every time the queue
// drains. Storage so stays within a small multiple of the most entries ever
// live, even for a queue that never fully drains, and since a drop moves no
// more entries than it discards, pops stay amortised O(1).
//
// Unlike std::deque, push_back may move the entries: a reference from
// front() is invalid after the next push_back or pop_front.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ensure.hpp"

namespace mtr {

template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  T& front() {
    MTR_ENSURE(!empty());
    return items_[head_];
  }
  const T& front() const {
    MTR_ENSURE(!empty());
    return items_[head_];
  }

  void push_back(const T& v) { items_.push_back(v); }

  void pop_front() {
    MTR_ENSURE(!empty());
    ++head_;
    if (2 * head_ >= items_.size()) {  // also true once drained
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // index of the front entry
};

}  // namespace mtr
