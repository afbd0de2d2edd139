// The benchmark's open-loop load generator.
//
// Every client machine draws an absolute Poisson schedule of due times from
// its seed: due_{k+1} = due_k + Exp(1/rate), accumulated in double ns from
// the schedule start, so the offered rate over any long window is the
// nominal rate no matter how late the machine's timer fires. A machine
// wakes on a fixed grid (`kTick`, anchored at time 0), sends every request
// whose due time has passed, and re-arms for the grid point at or after the
// next due time. Hence:
//  * no request is ever sent before it is due;
//  * a late wake-up (threaded backend) sends the whole backlog at once and
//    the schedule does not slip;
//  * latency is stamped from the due time, so time a request spent waiting
//    for its batch, or for a stalled generator, counts against the system.
//
// Replies are matched by request id against a per-machine table: a reply
// for an id that was never sent, or a second reply for one id, is counted
// as a mismatch (a correctness-gate failure).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "kv/types.h"
#include "simnet/network.h"
#include "workload/key_sampler.h"

namespace perfbench {

using canopus::NodeId;
using canopus::Time;

/// One scheduled request.
struct Arrival {
  Time due = 0;
  bool is_write = false;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

struct ScheduleConfig {
  double rate_per_s = 1'000;
  Time start = 0;  ///< no request is due before this time
  Time end = 0;    ///< ... nor at or after this one
  double write_ratio = 0.2;
  std::uint64_t num_keys = 1'000'000;
  /// Null draws keys uniformly; otherwise Zipfian ranks from the table.
  std::shared_ptr<const canopus::workload::ZipfTable> zipf;
};

/// Absolute Poisson due-time schedule: a pure function of (seed, config).
class PoissonSchedule {
 public:
  PoissonSchedule(std::uint64_t seed, ScheduleConfig cfg)
      : cfg_(std::move(cfg)),
        rng_(seed),
        mean_gap_ns_(1e9 / cfg_.rate_per_s) {
    draw();
  }

  bool done() const { return next_.due >= cfg_.end; }
  const Arrival& peek() const { return next_; }

  Arrival pop() {
    const Arrival a = next_;
    draw();
    return a;
  }

 private:
  void draw() {
    // 1 - u lies in (0, 1], so the log is finite.
    offset_ns_ += -std::log(1.0 - rng_.uniform()) * mean_gap_ns_;
    next_.due = cfg_.start + static_cast<Time>(offset_ns_);
    next_.is_write = rng_.uniform() < cfg_.write_ratio;
    next_.key = cfg_.zipf ? cfg_.zipf->draw(rng_) : rng_.below(cfg_.num_keys);
    next_.value = rng_();
  }

  ScheduleConfig cfg_;
  canopus::Rng rng_;
  double mean_gap_ns_;
  double offset_ns_ = 0;
  Arrival next_;
};

/// The wake-up grid: the repository's OpenLoopClient aggregation tick, so
/// servers see the same batching (and per-message CPU cost) as in the
/// paper-figure benches.
inline constexpr Time kTick = 200 * canopus::kMicrosecond;

/// Rounds `t` up to the wake-up grid.
inline Time align_up(Time t) { return (t + kTick - 1) / kTick * kTick; }

struct ClientConfig {
  /// Servers this machine sends to, round-robin; a server that is down at
  /// send time is skipped (the machine's sessions fail over to a sibling).
  std::vector<NodeId> servers;
  ScheduleConfig schedule;
};

/// Per-request record, indexed by the request's sequence number.
struct RequestRecord {
  enum State : std::uint8_t { kUnsent, kOutstanding, kCompleted, kFailed };
  Time due = 0;
  Time sent = 0;
  Time done = 0;
  State state = kUnsent;
};

/// One client machine: a simnet::Process, so it runs unchanged on the
/// simulator and on the threaded runtime.
class BenchClient : public canopus::simnet::Process {
 public:
  BenchClient(ClientConfig cfg, std::uint64_t seed)
      : cfg_(std::move(cfg)), schedule_(seed, cfg_.schedule) {}

  void on_start() override { arm_next(); }

  void on_message(const canopus::simnet::Message& m) override {
    const auto* rb = m.as<canopus::kv::ReplyBatch>();
    if (rb == nullptr) return;
    const Time now = sim().now();
    for (const canopus::kv::Completion& c : rb->done) {
      const std::uint64_t seq = c.id.seq;
      if (c.id.client != node_id() || seq >= records_.size() ||
          records_[seq].state != RequestRecord::kOutstanding) {
        ++mismatched_;
        continue;
      }
      RequestRecord& r = records_[seq];
      r.state = RequestRecord::kCompleted;
      r.done = now;
      if (on_reply) on_reply(m.src(), c);
    }
  }

  const std::vector<RequestRecord>& records() const { return records_; }
  /// Replies that matched no outstanding request of this machine.
  std::uint64_t mismatched() const { return mismatched_; }

  /// Audit hook: (replying server, completion) for every matched reply.
  std::function<void(NodeId, const canopus::kv::Completion&)> on_reply;

 private:
  void arm_next() {
    if (schedule_.done()) return;
    const Time wake = align_up(schedule_.peek().due);
    after(wake - sim().now(), [this] { fire(); });
  }

  void fire() {
    const Time now = sim().now();
    if (batches_.size() != cfg_.servers.size())
      batches_.resize(cfg_.servers.size());
    while (!schedule_.done() && schedule_.peek().due <= now) {
      const Arrival a = schedule_.pop();
      const std::uint64_t seq = records_.size();
      RequestRecord rec;
      rec.due = a.due;
      const int s = pick_server();
      if (s < 0) {
        rec.state = RequestRecord::kFailed;
        records_.push_back(rec);
        continue;
      }
      canopus::kv::Request r;
      r.id = {node_id(), seq};
      r.is_write = a.is_write;
      r.key = a.key;
      r.value = a.value;
      r.arrival = a.due;
      batches_[static_cast<std::size_t>(s)].reqs.push_back(r);
      rec.sent = now;
      rec.state = RequestRecord::kOutstanding;
      records_.push_back(rec);
    }
    for (std::size_t s = 0; s < batches_.size(); ++s) {
      if (batches_[s].reqs.empty()) continue;
      const std::size_t bytes = batches_[s].wire_bytes();
      send(cfg_.servers[s], bytes, std::move(batches_[s]));
      batches_[s].reqs.clear();
    }
    arm_next();
  }

  /// Next live server in round-robin order, or -1 if all are down.
  int pick_server() {
    const std::size_t n = cfg_.servers.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t s = (rotate_ + k) % n;
      if (net().is_up(cfg_.servers[s])) {
        rotate_ = s + 1;
        return static_cast<int>(s);
      }
    }
    return -1;
  }

  ClientConfig cfg_;
  PoissonSchedule schedule_;
  std::vector<RequestRecord> records_;
  std::vector<canopus::kv::ClientBatch> batches_;
  std::size_t rotate_ = 0;
  std::uint64_t mismatched_ = 0;
};

}  // namespace perfbench
