#include "workloads/stdlibs.hpp"

namespace mtr::workloads {

using exec::compute;
using exec::LibFunction;
using exec::SharedLibrary;
using kernel::Step;

namespace {

LibFunction fn(Cycles cost, std::string_view tag) {
  return LibFunction{{compute(cost, tag)}, /*forwards=*/false};
}

}  // namespace

exec::LibraryRegistry standard_registry() {
  exec::LibraryRegistry reg;

  SharedLibrary libc;
  libc.name = "libc";
  libc.content_tag = kLibcTag;
  libc.code_pages = 340;
  libc.load_cost = Cycles{900'000};  // big relocation set
  libc.symbols["malloc"] = fn(Cycles{420}, "libc.malloc");
  libc.symbols["free"] = fn(Cycles{300}, "libc.free");
  libc.symbols["memcpy"] = fn(Cycles{600}, "libc.memcpy");
  libc.symbols["rand"] = fn(Cycles{60}, "libc.rand");
  reg.add(std::move(libc));

  SharedLibrary libm;
  libm.name = "libm";
  libm.content_tag = kLibmTag;
  libm.code_pages = 90;
  libm.load_cost = Cycles{250'000};
  libm.symbols["sqrt"] = fn(Cycles{40}, "libm.sqrt");
  libm.symbols["exp"] = fn(Cycles{90}, "libm.exp");
  libm.symbols["sin"] = fn(Cycles{95}, "libm.sin");
  libm.symbols["log"] = fn(Cycles{90}, "libm.log");
  libm.symbols["atan"] = fn(Cycles{110}, "libm.atan");
  reg.add(std::move(libm));

  SharedLibrary libpthread;
  libpthread.name = "libpthread";
  libpthread.content_tag = kLibpthreadTag;
  libpthread.code_pages = 30;
  libpthread.load_cost = Cycles{120'000};
  libpthread.symbols["pthread_mutex_lock"] = fn(Cycles{120}, "libpthread.lock");
  libpthread.symbols["pthread_mutex_unlock"] = fn(Cycles{100}, "libpthread.unlock");
  reg.add(std::move(libpthread));

  return reg;
}

}  // namespace mtr::workloads
