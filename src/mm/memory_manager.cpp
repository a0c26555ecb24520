#include "mm/memory_manager.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace mtr::mm {

MemoryManager::MemoryManager(std::uint32_t total_frames, std::uint32_t reclaim_batch,
                             std::uint32_t swap_readahead)
    : frames_(total_frames),
      reclaim_batch_target_(std::max<std::uint32_t>(1, reclaim_batch)),
      swap_readahead_(std::max<std::uint32_t>(1, swap_readahead)),
      frame_info_(total_frames) {}

AddressSpace& MemoryManager::create_space(Tgid owner) {
  MTR_ENSURE_MSG(!spaces_.contains(owner), "address space already exists for " << owner.v);
  auto [it, inserted] = spaces_.emplace(owner, std::make_unique<AddressSpace>(owner));
  stats_.emplace(owner, MemoryStats{});
  return *it->second;
}

void MemoryManager::destroy_space(Tgid owner) {
  const auto it = spaces_.find(owner);
  MTR_ENSURE_MSG(it != spaces_.end(), "destroying unknown address space " << owner.v);
  // One walk of the dying page table: collect its resident frames and give
  // back the swap slots of pages that died swapped out.
  std::vector<FrameId> resident;
  resident.reserve(it->second->resident_pages());
  for (const auto& [page, pe] : it->second->pages()) {
    if (pe.resident) {
      FrameInfo& fi = frame_info_[pe.frame.v];
      MTR_ENSURE(fi.in_use && fi.owner == owner);
      fi.in_use = false;
      resident.push_back(pe.frame);
    }
    if (pe.in_swap) {
      MTR_ENSURE(swap_used_ > 0);
      --swap_used_;
    }
  }
  MTR_ENSURE(resident.size() == it->second->resident_pages());
  // Ascending frame order: the free list is a LIFO stack, so this is the
  // order that decides which frames the next allocations get.
  std::sort(resident.begin(), resident.end());
  for (const FrameId f : resident) frames_.release(f);
  spaces_.erase(it);
  stats_.erase(owner);
}

AddressSpace& MemoryManager::space(Tgid owner) {
  const auto it = spaces_.find(owner);
  MTR_ENSURE_MSG(it != spaces_.end(), "unknown address space " << owner.v);
  return *it->second;
}

void MemoryManager::install(AddressSpace& sp, Tgid owner, PageId page, FrameId frame) {
  PageEntry& pe = sp.entry(page);
  MTR_ENSURE(!pe.resident);
  if (pe.in_swap) {
    pe.in_swap = false;
    MTR_ENSURE(swap_used_ > 0);
    --swap_used_;
  }
  pe.frame = frame;
  pe.resident = true;
  pe.referenced = true;
  sp.note_made_resident();
  frame_info_[frame.v] = {owner, page, true};
}

TouchResult MemoryManager::touch(Tgid owner, PageId page) {
  AddressSpace& sp = space(owner);
  PageEntry& pe = sp.entry(page);

  if (pe.resident) {
    pe.referenced = true;
    return {FaultKind::kNone, false};
  }

  // Fault path: find a frame; under pressure the reclaimer frees a batch.
  TouchResult result;
  auto frame = frames_.allocate();
  if (!frame) {
    const std::uint64_t before = global_.evictions;
    reclaim_batch();
    result.evicted_someone = true;
    result.evictions = static_cast<std::uint32_t>(global_.evictions - before);
    frame = frames_.allocate();
    MTR_ENSURE(frame.has_value());
  }

  auto& stats = stats_.at(owner);
  const bool was_swapped = pe.in_swap;
  install(sp, owner, page, *frame);
  if (was_swapped) {
    result.fault = FaultKind::kMajor;
    ++stats.major_faults;
    ++global_.major_faults;
    // Swap readahead: the single disk read clusters the next consecutive
    // swapped-out pages of this space.
    for (std::uint32_t k = 1; k < swap_readahead_; ++k) {
      PageEntry* next = sp.find(PageId{page.v + k});
      if (next == nullptr || !next->in_swap || next->resident) break;
      auto extra = frames_.allocate();
      if (!extra) break;  // no spare frames: stop the cluster, no reclaim
      install(sp, owner, PageId{page.v + k}, *extra);
      ++stats.readahead_pages;
      ++global_.readahead_pages;
    }
  } else {
    result.fault = FaultKind::kMinor;  // demand-zero first touch
    ++stats.minor_faults;
    ++global_.minor_faults;
  }
  return result;
}

void MemoryManager::reclaim_batch() {
  const std::uint32_t target =
      std::min<std::uint32_t>(reclaim_batch_target_, frames_.total() / 2 + 1);
  while (frames_.available() < target) {
    const FrameId f = evict_one();
    frames_.release(f);
  }
}

FrameId MemoryManager::evict_one() {
  // Clock / second chance: sweep frames, clearing reference bits, until an
  // unreferenced resident page is found. Two full sweeps guarantee progress.
  for (std::size_t step = 0; step < 2 * frame_info_.size() + 1; ++step) {
    FrameInfo& fi = frame_info_[clock_hand_];
    const std::size_t hand = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frame_info_.size();
    if (!fi.in_use) continue;

    AddressSpace& sp = space(fi.owner);
    PageEntry* pe = sp.find(fi.page);
    MTR_ENSURE(pe != nullptr && pe->resident && pe->frame.v == hand);

    if (pe->referenced) {
      pe->referenced = false;  // second chance
      continue;
    }

    // Victim found: page out.
    pe->resident = false;
    pe->in_swap = true;
    ++swap_used_;
    sp.note_made_nonresident();
    ++stats_.at(fi.owner).evictions;
    ++global_.evictions;
    fi.in_use = false;
    return FrameId{static_cast<std::uint32_t>(hand)};
  }
  throw InvariantError("clock replacement failed to find a victim");
}

const MemoryStats& MemoryManager::stats(Tgid owner) const {
  const auto it = stats_.find(owner);
  MTR_ENSURE_MSG(it != stats_.end(), "no memory stats for " << owner.v);
  return it->second;
}

}  // namespace mtr::mm
