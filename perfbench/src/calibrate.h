// Host-speed reference for the benchmark's wall-clock metrics.
//
// The machines the benchmark runs on are often shared: the speed of one
// core drifts by tens of percent over seconds to minutes as other tenants
// come and go. A fixed piece of work timed next to each segment of a trial
// measures that drift, so perfbench/run.py can state each segment's time
// at a nominal host speed (segment wall / reference wall), which cancels
// the host's speed without touching the program's own cost.
//
// The reference work is shaped like a discrete-event loop — a binary heap
// of timestamps, random reads and writes over a 4 MB table, small record
// copies — and is the same in every version of the program: it calls
// nothing under src/ and allocates nothing after construction, so neither
// the program's code nor the state of its heap can change its cost. warm()
// touches all of its memory first, so the program's own cache footprint
// does not leak into the timed unit either.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

namespace perfbench {

class ReferenceWork {
 public:
  ReferenceWork() : table_(kTableSlots), ring_(kRingWords) {
    for (std::uint64_t i = 0; i < kTableSlots; ++i) table_[i] = mix(i);
    heap_.reserve(kQueue);
    for (std::uint64_t i = 0; i < kQueue; ++i) heap_.push_back(next() % 1'000'000);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Brings the reference's memory into cache (untimed).
  void warm() {
    std::uint64_t s = 0;
    for (std::uint64_t v : table_) s += v;
    for (std::uint64_t v : heap_) s += v;
    sink_ += s;
  }

  /// One fixed unit of work (a few ms on a current x86 core).
  void run() {
    for (int i = 0; i < kEventsPerUnit; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const std::uint64_t t = heap_.back();
      const std::uint64_t r = next();
      heap_.back() = t + 1 + r % 1'000;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      std::uint64_t& a = table_[r & (kTableSlots - 1)];
      const std::uint64_t b = table_[(r >> 24) & (kTableSlots - 1)];
      a += t ^ b;
      const std::size_t len = 8 + (r >> 48) % 8;
      const std::size_t at = (r >> 32) % (kRingWords - 16);
      std::memcpy(&ring_[at], &table_[(r >> 8) & (kTableSlots - 16)],
                  len * sizeof(std::uint64_t));
      sink_ += ring_[at] + (b & 1 ? a : 0);
    }
  }

  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::uint64_t kTableSlots = 1 << 19;  // 4 MB
  static constexpr std::uint64_t kQueue = 1 << 15;
  static constexpr std::size_t kRingWords = 1 << 13;
  static constexpr int kEventsPerUnit = 10'000;

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  std::uint64_t next() { return mix(state_++); }

  std::uint64_t state_ = 1;
  std::uint64_t sink_ = 0;
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> ring_;
};

}  // namespace perfbench
