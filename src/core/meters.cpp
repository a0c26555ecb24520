#include "core/meters.hpp"

namespace mtr::core {

using kernel::WorkKind;

// --- TickMeter ---------------------------------------------------------------

void TickMeter::on_tick(Cycles, Pid current, Tgid tg, CpuMode mode) {
  if (current == kIdlePid) {
    idle_ += Ticks{1};
    return;
  }
  CpuUsageTicks& u = usage_[tg];
  if (mode == CpuMode::kUser) {
    u.utime += Ticks{1};
  } else {
    u.stime += Ticks{1};
  }
}

void TickMeter::on_ticks(Cycles, Cycles, std::uint64_t count, Pid current,
                         Tgid tg, CpuMode mode) {
  if (current == kIdlePid) {
    idle_ += Ticks{count};
    return;
  }
  CpuUsageTicks& u = usage_[tg];
  if (mode == CpuMode::kUser) {
    u.utime += Ticks{count};
  } else {
    u.stime += Ticks{count};
  }
}

CpuUsageTicks TickMeter::usage(Tgid tg) const { return usage_.get(tg); }

// --- TscMeter ----------------------------------------------------------------

void TscMeter::on_cycles(Cycles, Pid current, Tgid tg, WorkKind kind,
                         Cycles amount, Pid /*beneficiary*/) {
  if (current == kIdlePid) {
    idle_ += amount;
    return;
  }
  CpuUsageCycles& u = usage_[tg];
  if (mode_of(kind) == CpuMode::kUser) {
    u.user += amount;
  } else {
    u.system += amount;
  }
}

CpuUsageCycles TscMeter::usage(Tgid tg) const { return usage_.get(tg); }

Cycles TscMeter::grand_total() const {
  Cycles total = idle_;
  for (const CpuUsageCycles& u : usage_.slots()) total += u.total();
  return total;
}

// --- PaisMeter ---------------------------------------------------------------

void PaisMeter::on_process_created(Cycles, Pid pid, Tgid tgid, Pid, std::string_view) {
  pid_to_tgid_[pid] = tgid;
}

Tgid PaisMeter::group_of(Pid pid) const { return pid_to_tgid_.get(pid); }

void PaisMeter::on_cycles(Cycles, Pid current, Tgid tg, WorkKind kind,
                          Cycles amount, Pid beneficiary) {
  switch (kind) {
    case WorkKind::kIdle:
      system_ += amount;
      return;
    case WorkKind::kUserCompute:
      usage_[tg].user += amount;
      return;
    case WorkKind::kTimerIrq:
      // Housekeeping for the whole machine: system account, not the
      // unlucky interrupted process.
      system_ += amount;
      return;
    case WorkKind::kDeviceIrq: {
      // Charge the I/O's owner; unsolicited traffic (junk packets) has no
      // owner and lands on the system account.
      const Tgid owner = beneficiary.valid() ? group_of(beneficiary) : Tgid{};
      if (owner.valid()) {
        usage_[owner].system += amount;
      } else {
        system_ += amount;
      }
      return;
    }
    default: {
      // Kernel work in process context: attribute to the responsible
      // principal — normally the process itself, but e.g. debug-exception
      // dispatch and SIGTRAP delivery carry the tracer as beneficiary.
      Tgid target = tg;
      if (beneficiary.valid() && beneficiary != current) {
        const Tgid btg = group_of(beneficiary);
        if (btg.valid()) target = btg;
      }
      if (current == kIdlePid && target == Tgid{0}) {
        system_ += amount;
      } else {
        usage_[target].system += amount;
      }
      return;
    }
  }
}

CpuUsageCycles PaisMeter::usage(Tgid tg) const { return usage_.get(tg); }

}  // namespace mtr::core
