#include "attacks/launch_attacks.hpp"

#include "exec/program_base.hpp"

namespace mtr::attacks {

using exec::compute;

void ShellAttack::prepare(sim::Simulation& sim, sim::LaunchOptions& opts) {
  (void)sim;
  // The injected instructions run in the child right after fork(), before
  // execve() loads T — the window where metering already charges PT.
  opts.shell_preexec.push_back(compute(payload_, "shell.injected-payload"));
  opts.shell_content_tag = kTamperedShellTag;
}

void LibraryCtorAttack::prepare(sim::Simulation& sim, sim::LaunchOptions& opts) {
  (void)opts;
  exec::SharedLibrary evil;
  evil.name = kEvilLibName;
  evil.content_tag = kEvilLibTag;
  evil.code_pages = 2;
  evil.load_cost = Cycles{40'000};
  if (ctor_payload_.v > 0)
    evil.ctor_steps.push_back(compute(ctor_payload_, "ldpre_evil.ctor"));
  if (dtor_payload_.v > 0)
    evil.dtor_steps.push_back(compute(dtor_payload_, "ldpre_evil.dtor"));
  sim.libraries().add(std::move(evil));
  sim.libraries().preload(kEvilLibName);
}

void LibraryInterpositionAttack::prepare(sim::Simulation& sim,
                                         sim::LaunchOptions& opts) {
  (void)opts;
  exec::SharedLibrary evil;
  evil.name = kEvilLibName;
  evil.content_tag = kEvilLibTag;
  evil.code_pages = 2;
  evil.load_cost = Cycles{40'000};
  // Fake malloc()/sqrt(): payload first, then forward to the genuine
  // implementation further down the link chain.
  for (const char* symbol : {"malloc", "sqrt"}) {
    std::string tag = "ldpre_wrap.";
    tag += symbol;
    exec::LibFunction wrapper;
    wrapper.body.push_back(compute(per_call_payload_, exec::intern_tag(tag)));
    wrapper.forwards = true;
    evil.symbols[symbol] = std::move(wrapper);
  }
  sim.libraries().add(std::move(evil));
  sim.libraries().preload(kEvilLibName);
}

}  // namespace mtr::attacks
