#include "core/integrity.hpp"

#include <algorithm>

namespace mtr::core {

const std::vector<kernel::CodeMapping> SourceIntegrityMonitor::kEmptyLog{};

void SourceIntegrityMonitor::allow(std::string content_tag) {
  whitelist_.insert(std::move(content_tag));
}

void SourceIntegrityMonitor::on_code_mapped(Cycles, Tgid space,
                                            const kernel::CodeMapping& mapping) {
  logs_[space].push_back(mapping);
  // PCR extend: pcr = H(pcr || H(measurement)).
  const crypto::Digest32 measurement =
      crypto::sha256(mapping.object + "\0" + mapping.content_tag);
  crypto::Digest32& pcr = pcrs_[space];
  crypto::Sha256 h;
  h.update(pcr.bytes.data(), pcr.size());
  h.update(measurement.bytes.data(), measurement.size());
  pcr = h.finish();
}

SourceIntegrityMonitor::Verdict SourceIntegrityMonitor::verify(Tgid space) const {
  Verdict v;
  const auto it = logs_.find(space);
  if (it == logs_.end()) return v;  // nothing mapped, nothing violated
  for (const kernel::CodeMapping& m : it->second) {
    if (!whitelist_.contains(m.content_tag)) {
      v.ok = false;
      v.violations.push_back(m.object + " (" + m.content_tag + ")");
    }
  }
  return v;
}

crypto::Digest32 SourceIntegrityMonitor::pcr(Tgid space) const {
  const auto it = pcrs_.find(space);
  return it == pcrs_.end() ? crypto::Digest32{} : it->second;
}

const std::vector<kernel::CodeMapping>& SourceIntegrityMonitor::log(Tgid space) const {
  const auto it = logs_.find(space);
  return it == logs_.end() ? kEmptyLog : it->second;
}

// ---------------------------------------------------------------------------

void ExecutionIntegrityMonitor::on_step_begin(Cycles, Pid pid, Tgid tgid,
                                              std::string_view kind_name,
                                              std::string_view tag) {
  ThreadChain& tc = threads_[pid];
  tc.tgid = tgid;
  crypto::Sha256 h;
  h.update(tc.chain.bytes.data(), tc.chain.size());
  h.update(kind_name);
  h.update("\x1f");
  h.update(tag);
  tc.chain = h.finish();
  ++tc.steps;
}

crypto::Digest32 ExecutionIntegrityMonitor::witness(Tgid tgid) const {
  // Collect per-thread chains belonging to the group and combine them in
  // digest order (scheduling-independent, pid-assignment-independent).
  std::vector<crypto::Digest32> chains;
  for (const ThreadChain& tc : threads_.slots()) {
    if (tc.steps > 0 && tc.tgid == tgid) chains.push_back(tc.chain);
  }
  std::sort(chains.begin(), chains.end(),
            [](const auto& a, const auto& b) { return a.bytes < b.bytes; });
  crypto::Sha256 h;
  for (const auto& c : chains) h.update(c.bytes.data(), c.size());
  return h.finish();
}

std::uint64_t ExecutionIntegrityMonitor::step_count(Tgid tgid) const {
  std::uint64_t total = 0;
  for (const ThreadChain& tc : threads_.slots()) {
    if (tc.tgid == tgid) total += tc.steps;
  }
  return total;
}

}  // namespace mtr::core
