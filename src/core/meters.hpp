// The three metering schemes the paper's analysis distinguishes.
//
//  TickMeter — the commodity scheme: one whole jiffy charged to whichever
//      process is current at the timer interrupt, utime/stime by mode.
//      Vulnerable to every attack in the paper.
//
//  TscMeter — fine-grained time: cycle-exact charging at every mode and
//      context switch (built on the CPU's time-stamp counter, §VI-B). Same
//      *attribution* policy as the commodity scheme, so it repairs the
//      granularity flaw (scheduling attack) but still bills alien interrupt
//      handlers to the interrupted process.
//
//  PaisMeter — process-aware interrupt scheduling & accounting (after
//      Zhang & West [27], §VI-B "fine-grained metering"): cycle-exact AND
//      attributed to the responsible principal — unsolicited interrupts go
//      to a system account, trace-induced kernel work to the tracer.
//
// All three observe the same kernel run via AccountingHook, so a single
// simulation yields all three bills for direct comparison.
#pragma once

#include "common/id_table.hpp"
#include "kernel/accounting.hpp"

namespace mtr::core {

/// The commodity jiffy meter (a faithful reimplementation of what the
/// kernel itself keeps in the PCB; the redundancy lets tests cross-check).
class TickMeter final : public kernel::AccountingHook {
 public:
  void on_tick(Cycles now, Pid current, Tgid tg, CpuMode mode) override;
  /// Pure accumulator, so a coalesced tick run folds in O(1) instead of
  /// the default per-tick replay.
  void on_ticks(Cycles first, Cycles period, std::uint64_t count, Pid current,
                Tgid tg, CpuMode mode) override;

  CpuUsageTicks usage(Tgid tg) const;
  Ticks idle_ticks() const { return idle_; }

 private:
  IdTable<Tgid, CpuUsageTicks> usage_;
  Ticks idle_{};
};

/// Fine-grained (TSC) meter: exact cycles, commodity attribution.
class TscMeter final : public kernel::AccountingHook {
 public:
  void on_cycles(Cycles now, Pid current, Tgid tg, kernel::WorkKind kind,
                 Cycles amount, Pid beneficiary) override;

  CpuUsageCycles usage(Tgid tg) const;
  Cycles idle_cycles() const { return idle_; }
  /// Total metered cycles including idle — equals elapsed time (tests).
  Cycles grand_total() const;

 private:
  IdTable<Tgid, CpuUsageCycles> usage_;
  Cycles idle_{};
};

/// Process-aware fine-grained meter.
class PaisMeter final : public kernel::AccountingHook {
 public:
  void on_cycles(Cycles now, Pid current, Tgid tg, kernel::WorkKind kind,
                 Cycles amount, Pid beneficiary) override;
  void on_process_created(Cycles now, Pid pid, Tgid tgid, Pid parent,
                          std::string_view name) override;

  CpuUsageCycles usage(Tgid tg) const;
  /// Cycles attributed to no process: timer/unsolicited interrupts, idle.
  Cycles system_cycles() const { return system_; }

 private:
  Tgid group_of(Pid pid) const;

  IdTable<Pid, Tgid> pid_to_tgid_;  // Tgid{} = never created
  IdTable<Tgid, CpuUsageCycles> usage_;
  Cycles system_{};
};

}  // namespace mtr::core
