// Open-loop Poisson clients (paper §8.1 "clients send requests to nodes
// according to a Poisson process at a given inter-arrival rate").
//
// Arrivals are aggregated per sub-millisecond tick into one ClientBatch
// message so simulating millions of requests per second stays tractable;
// each request keeps its exact arrival timestamp for latency measurement.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "kv/types.h"
#include "simnet/network.h"
#include "workload/key_sampler.h"
#include "workload/stats.h"

namespace canopus::workload {

struct ClientConfig {
  /// Servers this client machine's sessions connect to. The paper's
  /// clients each pick a uniform same-rack node; a machine aggregates many
  /// client sessions, so its load is spread round-robin over all of them.
  std::vector<NodeId> servers;
  double rate_per_s = 1'000;         ///< offered load (requests/second)
  double write_ratio = 0.2;          ///< paper default workload: 20% writes
  std::uint64_t num_keys = 1'000'000;  ///< key space size (§8.1: 1M keys)
  /// Key popularity: uniform (the paper's workload, the historical RNG
  /// stream) or Zipfian with exponent `zipf_theta` (key_sampler.h).
  KeyDist key_dist = KeyDist::kUniform;
  double zipf_theta = 0.99;          ///< YCSB's default skew
  Time tick = 200 * kMicrosecond;    ///< arrival aggregation granularity
  Time stop_at = 0;                  ///< stop generating at this time
};

class OpenLoopClient : public simnet::Process {
 public:
  OpenLoopClient(ClientConfig cfg, std::shared_ptr<LatencyRecorder> rec,
                 std::uint64_t seed)
      : cfg_(std::move(cfg)), rec_(std::move(rec)), rng_(seed) {
    // tick() round-robins batches over cfg_.servers; an empty server list
    // would divide by zero there, so fail loudly at construction instead.
    if (cfg_.servers.empty())
      throw std::invalid_argument(
          "OpenLoopClient: ClientConfig.servers must be non-empty");
    if (cfg_.key_dist == KeyDist::kZipfian)
      zipf_ = ZipfTable::get(cfg_.num_keys, cfg_.zipf_theta);
  }

  void on_start() override { tick(); }

  void on_message(const simnet::Message& m) override {
    const auto* rb = m.as<kv::ReplyBatch>();
    if (rb == nullptr) return;
    for (const kv::Completion& done : rb->done) {
      rec_->complete(sim().now(), done.arrival);
      if (on_reply) on_reply(m.src(), done);
    }
  }

  /// Requests actually handed to the network.
  std::uint64_t sent() const { return sent_; }
  /// Requests counted as failed at submission time because their target
  /// server was crashed (they are NOT sent — the network would only
  /// black-hole them — and are reported through LatencyRecorder::fail so
  /// availability numbers under faults stay honest).
  std::uint64_t failed() const { return failed_; }
  /// Every request this client generated (sent + failed-at-submit).
  std::uint64_t generated() const { return sent_ + failed_; }

  /// Optional audit hook: fired for every completion the client observes,
  /// with the server that sent the reply (workload/audit.h wires this).
  std::function<void(NodeId, const kv::Completion&)> on_reply;

 private:
  void tick() {
    if (cfg_.stop_at > 0 && sim().now() >= cfg_.stop_at) return;
    const double mean =
        cfg_.rate_per_s * static_cast<double>(cfg_.tick) / kSecond;
    const std::uint64_t n = poisson(mean);
    if (n > 0) {
      // One batch per target server; requests round-robin across servers
      // with a rotating offset so each server sees the full key/op mix.
      std::vector<kv::ClientBatch> batches(cfg_.servers.size());
      // On the wall clock a tick's arrivals are stamped inside the tick
      // that just ended, so no request is sent before it arrives: a reply
      // can come back within half a tick, and a future stamp would record
      // a latency of 0. The simulator keeps the in-tick stamps its seeded
      // benches were measured with.
      const Time start =
          sim().wall_clock() ? sim().now() - cfg_.tick : sim().now();
      for (std::uint64_t i = 0; i < n; ++i) {
        kv::Request r;
        r.id = {node_id(), seq_++};
        r.is_write = rng_.uniform() < cfg_.write_ratio;
        // Both distributions consume one RNG draw; the uniform branch is
        // the historical stream (seeded goldens pin it byte-for-byte).
        r.key = zipf_ ? zipf_->draw(rng_) : rng_.below(cfg_.num_keys);
        r.value = rng_();
        // Arrival uniform within the tick; order within the batch is the
        // client's submission order, so timestamps must be sorted.
        r.arrival = start + static_cast<Time>(
                                static_cast<double>(cfg_.tick) *
                                (static_cast<double>(i) + 0.5) /
                                static_cast<double>(n));
        batches[(rotate_ + i) % batches.size()].reqs.push_back(r);
      }
      rotate_ = (rotate_ + n) % batches.size();
      for (std::size_t s = 0; s < batches.size(); ++s) {
        if (batches[s].reqs.empty()) continue;
        if (!net().is_up(cfg_.servers[s])) {
          // The target is crashed: the network would silently drop the
          // batch. Count every request as failed instead of black-holing
          // it, so fault benches can tell "the system was slow" apart from
          // "the client's server was dead".
          failed_ += batches[s].reqs.size();
          for (const kv::Request& r : batches[s].reqs) rec_->fail(r.arrival);
          continue;
        }
        sent_ += batches[s].reqs.size();
        // Size before move: argument evaluation order is unspecified.
        const std::size_t bytes = batches[s].wire_bytes();
        send(cfg_.servers[s], bytes, std::move(batches[s]));
      }
    }
    after(cfg_.tick, [this] { tick(); });
  }

  std::uint64_t poisson(double mean) {
    if (mean <= 0) return 0;
    if (mean < 32) {
      // Knuth's method.
      const double limit = std::exp(-mean);
      double p = 1.0;
      std::uint64_t k = 0;
      do {
        ++k;
        p *= rng_.uniform();
      } while (p > limit);
      return k - 1;
    }
    // Normal approximation for large means.
    const double u1 = std::max(rng_.uniform(), 1e-12);
    const double u2 = rng_.uniform();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double v = mean + std::sqrt(mean) * gauss;
    return v < 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }

  ClientConfig cfg_;
  std::shared_ptr<LatencyRecorder> rec_;
  std::shared_ptr<const ZipfTable> zipf_;  ///< null for the uniform draw
  Rng rng_;
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rotate_ = 0;
};

}  // namespace canopus::workload
