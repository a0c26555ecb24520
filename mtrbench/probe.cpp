// mtr_bench_probe — a fixed reference load that run.py times next to every
// repetition of a workload.
//
// The host the benchmark runs on is shared, and its speed drifts: over a few
// minutes the same program can take 20% to 100% longer in wall and in CPU
// time. The probe does the same fixed work on every host and in every build
// of the program (it links none of it), so its CPU time measures the host's
// speed of the moment. Over one run, the program's median times in units of
// the probe's median CPU time keep the program's cost and drop much of that
// drift.
//
//   mtr_bench_probe --threads 4 --rounds 2
//
// A round has five phases, each a batch of fixed chunks that `threads`
// workers take from a shared counter, joined at the end like a grid behind a
// barrier. There are kChunksPerThread chunks per thread, so a worker that the
// host stalls for a while takes fewer of them instead of holding up the
// barrier. The phases copy the kinds of work the simulator spends its time
// on; each chunk takes 2-5 ms:
//   scan   linear passes over a 16384-entry frame table, releasing one
//          owner's frames (the shape of MemoryManager::destroy_space)
//   queue  an event loop: a binary-heap queue of timed events and a hash map
//          of per-process state
//   alloc  allocating and freeing small vectors of random sizes (the heap)
//   memory dependent loads from a shared 32 MiB table (last-level cache, DRAM)
//   stream copying 8 MiB back and forth (memory bandwidth)
// Chunk counts grow with `threads`, so a round takes about as long at any
// thread count on an idle host: about 70 ms on a 4-vCPU Xeon (Sapphire
// Rapids) VM. Prints one JSON object: {"wall_s", "cpu_s", "checksum"}; the
// checksum depends only on --threads and --rounds.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

constexpr std::uint32_t kChunksPerThread = 4;  // per phase and round

// Work per chunk.
constexpr std::uint32_t kScanFrames = 16384;
constexpr std::uint32_t kScanOwners = 64;
constexpr std::uint32_t kScanPasses = 60;
constexpr std::uint32_t kQueueEvents = 1024;
constexpr std::uint32_t kQueueSteps = 15000;
constexpr std::uint32_t kAllocSlots = 4096;
constexpr std::uint32_t kAllocSteps = 17500;
constexpr std::uint32_t kMemoryWords = (32u << 20) / sizeof(std::uint64_t);
constexpr std::uint32_t kMemorySteps = 1u << 13;
constexpr std::size_t kStreamBytes = 8u << 20;
constexpr int kStreamCopies = 2;
constexpr std::uint32_t kResultPhases = 4;  // every phase but stream has a result

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 31;
  x *= 0x7fb5d329728ea185ULL;
  x ^= x >> 27;
  x *= 0x81dadef4bc2dd44dULL;
  return x ^ (x >> 33);
}

// Runs chunks 0..n-1 of one phase on `threads` workers; body(chunk, worker).
void phase(unsigned threads, std::uint32_t n,
           const std::function<void(std::uint32_t, unsigned)>& body) {
  std::atomic<std::uint32_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint32_t c; (c = next.fetch_add(1)) < n;) body(c, t);
    });
  }
  for (auto& w : workers) w.join();
}

std::uint64_t scan_chunk(std::uint64_t seed) {
  struct Frame {
    std::uint32_t owner;
    std::uint64_t page;
    bool in_use;
  };
  std::vector<Frame> frames(kScanFrames);
  std::uint64_t h = seed;
  for (Frame& f : frames) {
    h = mix(h);
    f = {static_cast<std::uint32_t>(h % kScanOwners), h, (h >> 8) % 4 != 0};
  }
  std::uint64_t sum = 0;
  for (std::uint32_t pass = 0; pass < kScanPasses; ++pass) {
    const std::uint32_t owner = pass % kScanOwners;
    for (Frame& f : frames) {
      if (f.in_use && f.owner == owner) {
        f.in_use = false;
        sum += f.page;
      }
    }
    for (std::uint32_t i = pass % 7; i < kScanFrames; i += 7) frames[i].in_use = true;
  }
  return sum;
}

std::uint64_t queue_chunk(std::uint64_t seed) {
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, process)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint32_t, std::uint64_t> state;
  std::uint64_t h = seed;
  for (std::uint32_t i = 0; i < kQueueEvents; ++i) {
    h = mix(h);
    events.emplace(h % 100000, i);
  }
  std::uint64_t now = 0;
  for (std::uint32_t i = 0; i < kQueueSteps; ++i) {
    const auto [time, proc] = events.top();
    events.pop();
    now = time;
    h = mix(h ^ time ^ proc);
    state[proc % 4096] += h;
    if ((h & 7) == 0) state.erase(static_cast<std::uint32_t>(h % 4096));
    events.emplace(now + 1 + h % 1000, static_cast<std::uint32_t>(h % 8192));
  }
  return now + state.size();
}

std::uint64_t alloc_chunk(std::uint64_t seed) {
  std::vector<std::unique_ptr<std::vector<std::uint32_t>>> live(kAllocSlots);
  std::uint64_t h = seed;
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < kAllocSteps; ++i) {
    h = mix(h);
    auto& v = live[h % kAllocSlots];
    if (v) {
      sum += v->size() + (*v)[0];
      v.reset();
    } else {
      v = std::make_unique<std::vector<std::uint32_t>>(h % 512 + 1,
                                                       static_cast<std::uint32_t>(h));
    }
  }
  return sum;
}

std::uint64_t memory_chunk(const std::vector<std::uint64_t>& table, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::uint32_t i = 0; i < kMemorySteps; ++i) h = mix(h ^ table[h & (kMemoryWords - 1)]);
  return h;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

unsigned parse_count(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || v == 0 || v > 256) {
    std::fprintf(stderr, "mtr_bench_probe: %s needs a count in 1..256\n", flag);
    std::exit(2);
  }
  return static_cast<unsigned>(v);
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 1;
  unsigned rounds = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--threads" || arg == "--rounds") && i + 1 < argc) {
      (arg == "--threads" ? threads : rounds) = parse_count(argv[i], argv[i + 1]);
      ++i;
    } else {
      std::fprintf(stderr, "usage: mtr_bench_probe --threads N --rounds R\n");
      return 2;
    }
  }

  // The shared table and the copy buffers are built before the clock
  // starts. Every chunk's result depends only on its seed and lands by
  // index, so the checksum does not depend on which worker ran which chunk.
  std::vector<std::uint64_t> memory(kMemoryWords);
  for (std::uint32_t w = 0; w < kMemoryWords; ++w) memory[w] = mix(~static_cast<std::uint64_t>(w));
  std::vector<std::vector<char>> streams(2 * threads, std::vector<char>(kStreamBytes, 1));
  const std::uint32_t chunks = kChunksPerThread * threads;
  std::vector<std::uint64_t> results(std::size_t{kResultPhases} * chunks * rounds);

  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t slot = 0;
  for (unsigned r = 0; r < rounds; ++r) {
    const auto seeded = [&](std::uint64_t (*chunk)(std::uint64_t)) {
      phase(threads, chunks, [&, slot](std::uint32_t c, unsigned) {
        results[slot + c] = chunk(mix(slot + c));
      });
      slot += chunks;
    };
    seeded(scan_chunk);
    seeded(queue_chunk);
    seeded(alloc_chunk);
    phase(threads, chunks, [&, slot](std::uint32_t c, unsigned) {
      results[slot + c] = memory_chunk(memory, mix(slot + c));
    });
    slot += chunks;
    phase(threads, chunks, [&](std::uint32_t, unsigned t) {
      std::vector<char>& a = streams[2 * t];
      std::vector<char>& b = streams[2 * t + 1];
      for (int k = 0; k < kStreamCopies; ++k) {
        std::memcpy(b.data(), a.data(), kStreamBytes);
        std::swap(a, b);
      }
    });
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double cpu = cpu_seconds() - cpu0;

  std::uint64_t checksum = 0;
  for (const std::uint64_t v : results) checksum = mix(checksum ^ v);
  std::printf("{\"wall_s\": %.9f, \"cpu_s\": %.6f, \"checksum\": \"%016llx\"}\n", wall, cpu,
              static_cast<unsigned long long>(checksum));
  return 0;
}
