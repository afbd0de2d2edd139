// perfbench_selftest: checks of the benchmark's own load generator.
//
//  1. The same seed gives the same schedule; different seeds differ.
//  2. The long-run offered rate is within 1% of nominal.
//  3. No request is sent before it is due, and every reply matches one
//     request: on the simulator and on the threaded runtime, against an
//     echo server that also checks receipt time >= due time.
//
// Exit status 0 when every check passes, 1 otherwise.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "generator.h"
#include "runtime/threaded.h"
#include "simnet/simulator.h"
#include "simnet/topology.h"

namespace {

using namespace canopus;
using perfbench::BenchClient;
using perfbench::ClientConfig;
using perfbench::PoissonSchedule;
using perfbench::RequestRecord;
using perfbench::ScheduleConfig;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// Replies to every request at once; counts requests received before due.
class EchoServer : public simnet::Process {
 public:
  void on_message(const simnet::Message& m) override {
    const auto* cb = m.as<kv::ClientBatch>();
    if (cb == nullptr) return;
    const Time now = sim().now();
    kv::ReplyBatch rb;
    for (const kv::Request& r : cb->reqs) {
      if (r.arrival > now) ++early;
      rb.done.push_back({r.id, r.is_write, 0, r.arrival, r.key});
    }
    const std::size_t bytes = rb.wire_bytes();
    send(m.src(), bytes, std::move(rb));
  }
  std::uint64_t early = 0;
};

ScheduleConfig schedule(double rate, Time end) {
  ScheduleConfig sc;
  sc.rate_per_s = rate;
  sc.start = 0;
  sc.end = end;
  return sc;
}

bool same_schedule(std::uint64_t a, std::uint64_t b) {
  PoissonSchedule x(a, schedule(50'000, kSecond)), y(b, schedule(50'000, kSecond));
  for (int i = 0; i < 10'000; ++i) {
    const auto p = x.pop(), q = y.pop();
    if (p.due != q.due || p.key != q.key || p.is_write != q.is_write ||
        p.value != q.value)
      return false;
  }
  return true;
}

void check_rate() {
  const double rate = 100'000;
  const Time end = 20 * kSecond;
  PoissonSchedule s(7, schedule(rate, end));
  std::uint64_t n = 0;
  Time prev = 0;
  bool sorted = true;
  while (!s.done()) {
    const Time due = s.pop().due;
    sorted = sorted && due >= prev;
    prev = due;
    ++n;
  }
  const double r = static_cast<double>(n) / (rate * 20.0);
  std::printf("      long-run offered/nominal = %.5f over %llu arrivals\n", r,
              static_cast<unsigned long long>(n));
  check(std::fabs(r - 1.0) < 0.01, "long-run offered rate within 1% of nominal");
  check(sorted, "due times are non-decreasing");
}

/// Client-side outcome: (sent early, unmatched replies, completed, sent).
struct Outcome {
  std::uint64_t early = 0, mismatched = 0, completed = 0, total = 0;
};

Outcome outcome(const BenchClient& c, const EchoServer& e) {
  Outcome o;
  o.early = e.early;
  o.mismatched = c.mismatched();
  for (const RequestRecord& r : c.records()) {
    ++o.total;
    if (r.state != RequestRecord::kFailed && r.sent < r.due) ++o.early;
    if (r.state == RequestRecord::kCompleted) ++o.completed;
  }
  return o;
}

ClientConfig client_config(NodeId server, double rate, Time end) {
  ClientConfig cc;
  cc.servers = {server};
  cc.schedule = schedule(rate, end);
  return cc;
}

void check_sim() {
  simnet::RackConfig rc;
  rc.racks = 1;
  rc.servers_per_rack = 1;
  rc.clients_per_rack = 1;
  simnet::Cluster cluster = simnet::build_multi_rack(rc);
  simnet::Simulator sim(3);
  simnet::Network net(sim, cluster.topo);
  EchoServer echo;
  BenchClient client(client_config(cluster.servers[0], 200'000, 500 * kMillisecond), 11);
  net.attach(cluster.servers[0], echo);
  net.attach(cluster.clients[0], client);
  sim.run_until(600 * kMillisecond);
  const Outcome o = outcome(client, echo);
  check(o.total > 90'000 && o.early == 0, "simulator: no request sent before due");
  check(o.mismatched == 0 && o.completed == o.total,
        "simulator: every reply matches exactly one request");
}

void check_threads() {
  const double rate = 100'000;
  const Time end = 400 * kMillisecond;
  runtime::ThreadedRuntime rt(2, 5);
  EchoServer echo;
  BenchClient client(client_config(0, rate, end), 13);
  rt.attach(0, echo);
  rt.attach(1, client);
  rt.start();
  while (rt.now() < end + 100 * kMillisecond)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  rt.stop();
  const Outcome o = outcome(client, echo);
  // The schedule is a pure function of the seed: count what it holds, and
  // what the client had actually sent by the end of the schedule.
  PoissonSchedule s(13, schedule(rate, end));
  std::uint64_t scheduled = 0, sent_in_time = 0;
  while (!s.done()) {
    s.pop();
    ++scheduled;
  }
  for (const RequestRecord& r : client.records())
    if (r.state != RequestRecord::kUnsent && r.sent < end) ++sent_in_time;
  const double offered =
      static_cast<double>(sent_in_time) / static_cast<double>(scheduled);
  std::printf("      threads: %llu scheduled, sent in time / scheduled = %.4f\n",
              static_cast<unsigned long long>(scheduled), offered);
  check(o.total == scheduled, "threads: the client generated its whole schedule");
  check(o.early == 0, "threads: no request sent before due");
  check(o.mismatched == 0 && o.completed == o.total,
        "threads: every reply matches exactly one request");
  check(offered >= 0.99, "threads: >= 99% of the schedule sent before it ended");
}

}  // namespace

int main() {
  check(same_schedule(42, 42), "same seed gives the same schedule");
  check(!same_schedule(42, 43), "different seeds give different schedules");
  check_rate();
  check_sim();
  check_threads();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
