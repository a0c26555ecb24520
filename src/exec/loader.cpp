#include "exec/loader.hpp"

#include <utility>

#include "common/ensure.hpp"

namespace mtr::exec {

namespace {

/// Map + relocate one library (measurement event, then ld.so user work).
void append_lib_load(std::vector<Step>& steps, const SharedLibrary& lib) {
  steps.push_back(syscall(kernel::SysMapCode{
      kernel::CodeMapping{lib.name, lib.content_tag, lib.code_pages}}));
  steps.push_back(compute(lib.load_cost, "ld.so:" + lib.name));
}

}  // namespace

ProgramFactory Loader::build_image(ImageSpec spec) const {
  MTR_ENSURE_MSG(spec.main_program != nullptr, "image needs a main program");
  const LibraryRegistry* registry = registry_;
  return [registry, spec = std::move(spec)]() -> std::unique_ptr<kernel::Program> {
    // Resolution happens at launch: the chain sees the LD_PRELOAD state of
    // the moment, exactly like the real dynamic linker.
    const std::vector<std::string> order = registry->link_order(spec.needed_libs);

    std::vector<Step> prologue;
    prologue.push_back(syscall(kernel::SysMapCode{
        kernel::CodeMapping{spec.path, spec.content_tag, spec.code_pages}}));
    for (const auto& lib_name : order)
      append_lib_load(prologue, registry->get(lib_name));
    // Constructors run before main(), preloaded libraries first.
    for (const auto& lib_name : order) {
      const SharedLibrary& lib = registry->get(lib_name);
      for (const auto& s : lib.ctor_steps) prologue.push_back(s);
    }

    std::vector<Step> epilogue;
    // Destructors run after main(), reverse order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const SharedLibrary& lib = registry->get(*it);
      for (const auto& s : lib.dtor_steps) epilogue.push_back(s);
    }

    const SymbolTable symbols = registry->resolve_all(spec.imports, spec.needed_libs);
    ProgramBuilder builder = spec.main_program;

    // Each arm is built in place: moving a std::function through a
    // temporary variant trips GCC 12's -O2 -Wmaybe-uninitialized.
    std::vector<ChainPhase> phases;
    phases.reserve(3);
    phases.emplace_back(std::in_place_index<0>, std::move(prologue));
    phases.emplace_back(std::in_place_index<1>, [builder, symbols]() {
      return builder(symbols);
    });
    phases.emplace_back(std::in_place_index<0>, std::move(epilogue));
    return std::make_unique<ChainProgram>(spec.path, std::move(phases));
  };
}

std::vector<Step> Loader::dlopen_steps(const std::string& lib_name) const {
  const SharedLibrary& lib = registry_->get(lib_name);
  std::vector<Step> steps;
  append_lib_load(steps, lib);
  for (const auto& s : lib.ctor_steps) steps.push_back(s);
  return steps;
}

std::vector<Step> Loader::dlclose_steps(const std::string& lib_name) const {
  const SharedLibrary& lib = registry_->get(lib_name);
  return lib.dtor_steps;
}

}  // namespace mtr::exec
