#include "exec/program_base.hpp"

#include <mutex>
#include <set>

#include "common/ensure.hpp"

namespace mtr::exec {

Step compute(Cycles cycles, std::string_view tag) {
  return ComputeStep{cycles, MemoryProfile{}, tag};
}

Step compute_mem(Cycles cycles, MemoryProfile mem, std::string_view tag) {
  return ComputeStep{cycles, std::move(mem), tag};
}

std::string_view intern_tag(std::string_view tag) {
  // Never freed: steps (and the libraries and programs that copy them) may
  // live as long as the process. std::set nodes never move, so the views
  // stay valid as the set grows.
  static std::mutex mutex;
  static std::set<std::string, std::less<>> tags;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = tags.find(tag);
  if (it == tags.end()) it = tags.emplace(tag).first;
  return *it;
}

Step exit_step(int code) { return ExitStep{code}; }

// --- QueueProgram -----------------------------------------------------------

Step QueueProgram::next(ProcessContext& ctx) {
  if (pending_.empty() && !done_) {
    const std::size_t before = pending_.size();
    if (!generate(ctx)) {
      done_ = true;
    } else {
      MTR_ENSURE_MSG(pending_.size() > before,
                     "QueueProgram::generate returned true without pushing steps");
    }
  }
  if (pending_.empty()) return ExitStep{exit_code_};
  Step s = std::move(pending_.front());
  pending_.pop_front();
  return s;
}

void QueueProgram::push_all(std::vector<Step> steps) {
  for (auto& s : steps) pending_.push_back(std::move(s));
}

// --- StepListProgram ---------------------------------------------------------

StepListProgram::StepListProgram(std::string name, std::vector<Step> steps,
                                 int exit_code)
    : name_(std::move(name)), steps_(std::move(steps)) {
  set_exit_code(exit_code);
}

bool StepListProgram::generate(ProcessContext&) {
  if (emitted_ || steps_.empty()) return false;
  emitted_ = true;
  push_all(std::move(steps_));
  return true;
}

// --- GeneratorProgram ---------------------------------------------------------

GeneratorProgram::GeneratorProgram(std::string name, Generator gen)
    : name_(std::move(name)), gen_(std::move(gen)) {
  MTR_ENSURE_MSG(gen_ != nullptr, "GeneratorProgram needs a generator");
}

Step GeneratorProgram::next(ProcessContext& ctx) {
  if (!done_) {
    if (auto s = gen_(ctx)) return std::move(*s);
    done_ = true;
  }
  return ExitStep{0};
}

// --- ChainProgram --------------------------------------------------------------

ChainProgram::ChainProgram(std::string name, std::vector<ChainPhase> phases,
                           int exit_code)
    : name_(std::move(name)), phases_(std::move(phases)), exit_code_(exit_code) {}

bool ChainProgram::advance_phase() {
  ++phase_;
  step_in_phase_ = 0;
  inner_.reset();
  return phase_ < phases_.size();
}

Step ChainProgram::next(ProcessContext& ctx) {
  while (!exited_ && phase_ < phases_.size()) {
    ChainPhase& ph = phases_[phase_];
    if (auto* steps = std::get_if<std::vector<Step>>(&ph)) {
      if (step_in_phase_ < steps->size()) {
        Step s = (*steps)[step_in_phase_++];
        // A literal ExitStep inside a phase terminates the whole chain.
        if (std::holds_alternative<ExitStep>(s)) exited_ = true;
        return s;
      }
      advance_phase();
      continue;
    }
    auto& factory = std::get<ProgramFactory>(ph);
    if (!inner_) {
      MTR_ENSURE_MSG(factory != nullptr, "null program factory in chain phase");
      inner_ = factory();
    }
    Step s = inner_->next(ctx);
    if (std::holds_alternative<ExitStep>(s)) {
      // Swallow the sub-program's exit: the chain continues (destructors
      // still run after main returns).
      advance_phase();
      continue;
    }
    return s;
  }
  exited_ = true;
  return ExitStep{exit_code_};
}

// --- factories ------------------------------------------------------------------

ProgramFactory make_step_list(std::string name, std::vector<Step> steps,
                              int exit_code) {
  return [name = std::move(name), steps = std::move(steps), exit_code]() {
    return std::make_unique<StepListProgram>(name, steps, exit_code);
  };
}

ProgramFactory make_generator(std::string name, GeneratorProgram::Generator gen) {
  return [name = std::move(name), gen = std::move(gen)]() {
    return std::make_unique<GeneratorProgram>(name, gen);
  };
}

ProgramFactory make_chain(std::string name, std::vector<ChainPhase> phases,
                          int exit_code) {
  return [name = std::move(name), phases = std::move(phases), exit_code]() {
    return std::make_unique<ChainProgram>(name, phases, exit_code);
  };
}

}  // namespace mtr::exec
