// Tracing for the benchmark's per-layer run, recorded from the benchmark's
// own files around calls into the program's public interfaces.
//
//  * TracingHost wraps a runtime::Host (simnet::Network). attach() attaches
//    the real process first — which wires its clock/net handles and seeds
//    its RNG exactly as an untraced run does — then attaches a HandlerProxy
//    for the same node, which replaces it as the delivery target. The
//    proxy times each on_message call of the real process and adds it to a
//    per-(node, PayloadTag) aggregate. The proxies' on_start hooks are
//    no-ops that still count as one kernel event each.
//  * Handler time includes the Network::send work the handler does inside
//    the call (CPU-model accounting and event scheduling of its sends).
//    Timer closures are not proxied: their time stays in the kernel's
//    self time.
//  * Span records coarse phases (set-up, warm-up, window, drain) of a trial
//    with their parent, kept in memory and written out at the end.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/api.h"
#include "simnet/network.h"

namespace perfbench {

using canopus::NodeId;
using canopus::Time;

inline double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by this process so far (every thread), counted by
/// the benchmark binary's replacement operator new.
std::uint64_t alloc_count();

/// Printable name of a PayloadTag ("RaftWire", "KvClientBatch", ...).
const char* tag_name(canopus::simnet::PayloadTag t);
/// The module a tag's handler belongs to ("raft", "canopus", "kv", ...).
const char* tag_layer(canopus::simnet::PayloadTag t);

inline constexpr std::size_t kMaxTags = 64;

struct TagStats {
  std::uint64_t msgs = 0;
  std::uint64_t ns = 0;
};
using TagTable = std::array<TagStats, kMaxTags>;

struct Span {
  std::string name;
  int parent = -1;  ///< index into the span list, -1 for a root
  double start_s = 0;
  double end_s = 0;
};

class SpanLog {
 public:
  int open(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), parent, wall_now_s(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = wall_now_s(); }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Forwards every delivery to the real process, timing it per tag.
class HandlerProxy : public canopus::simnet::Process {
 public:
  /// `observe` (optional) sees each message before it is handled, with the
  /// current simulated time; the request breakdown uses it to stamp
  /// server receipt.
  using Observer = std::function<void(Time, const canopus::simnet::Message&)>;

  HandlerProxy(canopus::simnet::Process& real, const Observer* observe)
      : real_(real), observe_(observe) {}

  void on_message(const canopus::simnet::Message& m) override {
    if (observe_ != nullptr && *observe_) (*observe_)(sim().now(), m);
    const auto t0 = std::chrono::steady_clock::now();
    real_.on_message(m);
    const auto t1 = std::chrono::steady_clock::now();
    TagStats& s = tags_[static_cast<std::size_t>(m.payload().tag()) % kMaxTags];
    ++s.msgs;
    s.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }

  const TagTable& tags() const { return tags_; }

 private:
  canopus::simnet::Process& real_;
  const Observer* observe_;
  TagTable tags_{};
};

/// runtime::Host wrapper that interposes a HandlerProxy on every attach.
class TracingHost final : public canopus::runtime::Host {
 public:
  explicit TracingHost(canopus::runtime::Host& inner) : inner_(inner) {}

  void attach(NodeId id, canopus::simnet::Process& proc) override {
    inner_.attach(id, proc);
    proxies_.push_back(std::make_unique<HandlerProxy>(proc, &observe));
    inner_.attach(id, *proxies_.back());
  }
  void crash(NodeId n) override { inner_.crash(n); }
  void recover(NodeId n) override { inner_.recover(n); }
  bool is_up(NodeId n) const override { return inner_.is_up(n); }
  void sever(NodeId a, NodeId b) override { inner_.sever(a, b); }
  void heal(NodeId a, NodeId b) override { inner_.heal(a, b); }
  void set_clock_skew(NodeId n, double rate, Time offset) override {
    inner_.set_clock_skew(n, rate, offset);
  }
  void post(NodeId n, canopus::simnet::InlineFn fn) override {
    inner_.post(n, std::move(fn));
  }

  std::size_t num_proxies() const { return proxies_.size(); }

  /// Per-tag totals over every proxy.
  TagTable totals() const {
    TagTable t{};
    for (const auto& p : proxies_)
      for (std::size_t i = 0; i < kMaxTags; ++i) {
        t[i].msgs += p->tags()[i].msgs;
        t[i].ns += p->tags()[i].ns;
      }
    return t;
  }

  /// Set before the run; called by every proxy ahead of each delivery.
  HandlerProxy::Observer observe;

 private:
  canopus::runtime::Host& inner_;
  std::vector<std::unique_ptr<HandlerProxy>> proxies_;
};

}  // namespace perfbench
