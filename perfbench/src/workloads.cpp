#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "calibrate.h"
#include "generator.h"
#include "runtime/threaded.h"
#include "trace.h"
#include "workload/audit.h"
#include "workload/deployments.h"

namespace perfbench {
namespace {

using namespace canopus;
using workload::ConsensusService;
using workload::System;
using workload::TrialConfig;

constexpr Time kMs = kMillisecond;

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

struct CrashPlan {
  std::size_t victim = 0;  ///< server index; it serves no client traffic
  Time crash_at = 0;
  Time recover_at = 0;
};

struct TrialSpec {
  TrialConfig tc;  ///< system, topology, key mix, kernel threads, runtime
  double rate = 0;
  Time warmup = 0;
  Time measure = 0;
  Time drain = 0;
  /// Simulated time per timed segment (Report::setup_parts/run_parts).
  Time slice = 50 * kMs;
  /// Threads: length of the sub-windows latency percentiles are taken over
  /// (Report::win_p50/win_p99/win_p999).
  Time sub_window = 250 * kMs;
  std::uint64_t seed = 0;
  bool traced = false;
  bool audit = false;
  /// Time a unit of ReferenceWork after every segment (timing runs).
  bool calibrate = false;
  std::optional<CrashPlan> crash;
};

struct Workload {
  TrialSpec base;
  /// Offered rates of the ladder, ascending; one rung for fixed-rate
  /// workloads. `op_rung` is the operating point latency is taken at.
  std::vector<double> ladder;
  std::size_t op_rung = 0;
  /// A rung passes when p99 <= latency_limit and >= 99% of the requests
  /// due in the window completed.
  Time latency_limit = 10 * kMs;
};

Workload lan_canopus() {
  Workload w;
  TrialConfig& tc = w.base.tc;
  tc.system = System::kCanopus;
  tc.groups = 3;
  tc.per_group = 3;
  tc.client_machines = 5;
  tc.write_ratio = 0.2;
  tc.num_keys = 1'000'000;
  w.base.warmup = 200 * kMs;
  w.base.measure = 400 * kMs;
  w.base.drain = 200 * kMs;
  // Steps of at most 7% from 0.70 up, so a throughput change the size of
  // max_rate_ops_s's bound moves the knee by a rung.
  w.ladder = {350'000, 500'000, 700'000, 750'000, 800'000, 850'000, 900'000};
  w.op_rung = 1;
  return w;
}

Workload geo_epaxos_crash() {
  Workload w;
  TrialConfig& tc = w.base.tc;
  tc.system = System::kEPaxos;
  tc.wan = true;
  tc.groups = 5;
  tc.per_group = 3;
  tc.client_machines = 5;
  tc.write_ratio = 0.5;
  tc.num_keys = 1'000'000;
  tc.key_dist = workload::KeyDist::kZipfian;
  tc.zipf_theta = 0.99;
  tc.epaxos.batch_interval = 5 * kMs;
  tc.sim_threads = 2;
  w.base.warmup = 800 * kMs;
  w.base.measure = 1'000 * kMs;
  w.base.drain = 1'000 * kMs;
  w.base.slice = 100 * kMs;
  w.base.audit = true;
  // The last server of the last datacenter: crashed mid-window, recovered
  // 300 ms later.
  w.base.crash = CrashPlan{14, 1'150 * kMs, 1'450 * kMs};
  w.ladder = {300'000};
  w.latency_limit = 1'000 * kMs;
  return w;
}

Workload lan_raft_threads() {
  Workload w;
  TrialConfig& tc = w.base.tc;
  tc.system = System::kRaft;
  tc.groups = 1;
  tc.per_group = 3;
  tc.client_machines = 1;
  tc.write_ratio = 0.2;
  tc.num_keys = 1'000'000;
  tc.runtime = workload::RuntimeKind::kThreads;
  w.base.warmup = 500 * kMs;
  w.base.measure = 2'000 * kMs;
  w.base.drain = 400 * kMs;
  w.ladder = {100'000};
  return w;
}

const std::map<std::string, Workload (*)()>& registry() {
  static const std::map<std::string, Workload (*)()> r{
      {"lan-canopus", &lan_canopus},
      {"geo-epaxos-crash", &geo_epaxos_crash},
      {"lan-raft-threads", &lan_raft_threads},
  };
  return r;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double ms(Time ns) { return static_cast<double>(ns) / 1e6; }

/// Exact quantile of a sorted sample (nearest rank); 0 for an empty one.
Time quantile(const std::vector<Time>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Built once per process, before the first trial starts its clock.
ReferenceWork& reference_work() {
  static ReferenceWork w;
  return w;
}

// ---------------------------------------------------------------------------
// Commit-path probe (ConsensusService::on_commit)
// ---------------------------------------------------------------------------

/// Counts commit batches per server and measures, for a deterministic
/// sample of commit units, the time from the first to the last server
/// applying it. A unit is keyed by its batch's first request id, which is
/// the same on every server for all four systems.
class CommitProbe {
 public:
  CommitProbe(std::size_t servers, std::optional<std::size_t> skip)
      : batches_(servers, 0), ops_(servers, 0), skip_(skip) {
    for (std::size_t i = 0; i < servers; ++i)
      if (!skip || *skip != i) ++lag_servers_;
  }

  void note(std::size_t i, const std::vector<kv::Request>& batch, Time now) {
    ++batches_[i];
    ops_[i] += batch.size();
    if (batch.empty() || (skip_ && *skip_ == i)) return;
    const std::uint64_t key =
        (std::uint64_t{batch.front().id.client} << 40) ^ batch.front().id.seq;
    if (fnv(0xcbf29ce484222325ULL, key) % 16 != 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    Unit& u = units_[key];
    if (u.count == 0) u.first = now;
    u.last = now;
    ++u.count;
  }

  double ops_per_batch() const {
    std::uint64_t b = 0, o = 0;
    for (std::size_t i = 0; i < batches_.size(); ++i) {
      b += batches_[i];
      o += ops_[i];
    }
    return ratio(static_cast<double>(o), static_cast<double>(b));
  }

  /// p99 of first-to-last apply over units every lag server applied.
  Time lag_p99() const {
    std::vector<Time> lags;
    for (const auto& [key, u] : units_)
      if (u.count == lag_servers_) lags.push_back(u.last - u.first);
    std::sort(lags.begin(), lags.end());
    return quantile(lags, 0.99);
  }

 private:
  struct Unit {
    Time first = 0, last = 0;
    std::size_t count = 0;
  };
  std::vector<std::uint64_t> batches_, ops_;  ///< per server: own context
  std::optional<std::size_t> skip_;
  std::size_t lag_servers_ = 0;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, Unit> units_;
};

// ---------------------------------------------------------------------------
// Client plane
// ---------------------------------------------------------------------------

using Clients = std::vector<std::unique_ptr<BenchClient>>;

/// One BenchClient per client machine, each sending to every server of its
/// own rack/datacenter except a planned crash victim.
Clients make_clients(const TrialSpec& sp, const simnet::Cluster& cluster,
                     runtime::Host& host) {
  const TrialConfig& tc = sp.tc;
  std::shared_ptr<const workload::ZipfTable> zipf;
  if (tc.key_dist == workload::KeyDist::kZipfian)
    zipf = workload::ZipfTable::get(tc.num_keys, tc.zipf_theta);
  Clients clients;
  for (std::size_t i = 0; i < cluster.clients.size(); ++i) {
    const NodeId node = cluster.clients[i];
    const int group = tc.wan ? cluster.topo.dc_of(node) : cluster.topo.rack_of(node);
    ClientConfig cc;
    for (int s = 0; s < tc.per_group; ++s) {
      const std::size_t idx = static_cast<std::size_t>(group * tc.per_group + s);
      if (sp.crash && sp.crash->victim == idx) continue;
      cc.servers.push_back(cluster.servers[idx]);
    }
    cc.schedule.rate_per_s = sp.rate / static_cast<double>(cluster.clients.size());
    cc.schedule.start = 0;
    cc.schedule.end = sp.warmup + sp.measure;
    cc.schedule.write_ratio = tc.write_ratio;
    cc.schedule.num_keys = tc.num_keys;
    cc.schedule.zipf = zipf;
    clients.push_back(std::make_unique<BenchClient>(
        std::move(cc), derive_seed(sp.seed, 0xc11e57ULL + i)));
    host.attach(node, *clients.back());
  }
  return clients;
}

/// Client-side outcome of a trial, from the per-request tables.
struct ClientTally {
  std::vector<Time> latency;  ///< sorted, requests due in the window
  std::vector<Time> lateness; ///< sorted send - due, requests due in window
  std::uint64_t generated = 0, completed = 0, failed = 0, outstanding = 0;
  std::uint64_t due_w = 0, completed_w = 0, failed_w = 0, outstanding_w = 0;
  std::uint64_t sent_w = 0;  ///< sent (by send time) inside the window
  std::uint64_t mismatched = 0;
  double window_s = 0;
  double rate = 0;
};

ClientTally tally(const Clients& clients, const TrialSpec& sp) {
  ClientTally t;
  const Time wb = sp.warmup, we = sp.warmup + sp.measure;
  t.window_s = static_cast<double>(sp.measure) / 1e9;
  t.rate = sp.rate;
  for (const auto& c : clients) {
    t.mismatched += c->mismatched();
    for (const RequestRecord& r : c->records()) {
      ++t.generated;
      const bool in_w = r.due >= wb && r.due < we;
      if (in_w) ++t.due_w;
      switch (r.state) {
        case RequestRecord::kCompleted:
          ++t.completed;
          if (in_w) {
            ++t.completed_w;
            t.latency.push_back(r.done - r.due);
          }
          break;
        case RequestRecord::kFailed:
          ++t.failed;
          if (in_w) ++t.failed_w;
          break;
        case RequestRecord::kOutstanding:
          ++t.outstanding;
          if (in_w) ++t.outstanding_w;
          break;
        case RequestRecord::kUnsent:
          break;
      }
      if (r.state != RequestRecord::kFailed && r.state != RequestRecord::kUnsent) {
        if (r.sent >= wb && r.sent < we) ++t.sent_w;
        if (in_w) t.lateness.push_back(r.sent - r.due);
      }
    }
  }
  std::sort(t.latency.begin(), t.latency.end());
  std::sort(t.lateness.begin(), t.lateness.end());
  return t;
}

// ---------------------------------------------------------------------------
// Per-request breakdown (traced simulator runs)
// ---------------------------------------------------------------------------

/// Stamps sampled requests at server receipt (a proxy observing the
/// ClientBatch) and at commit on the receiving server.
class Breakdown {
 public:
  static bool sampled(const RequestId& id) { return id.seq % 64 == 0; }
  static std::uint64_t key(const RequestId& id) {
    return (std::uint64_t{id.client} << 40) ^ id.seq;
  }

  void receipt(Time now, const simnet::Message& m) {
    const auto* cb = m.as<kv::ClientBatch>();
    if (cb == nullptr) return;
    for (const kv::Request& r : cb->reqs)
      if (sampled(r.id)) stamps_[key(r.id)] = {now, m.dst(), -1};
  }

  void commit(NodeId server, const std::vector<kv::Request>& batch, Time now) {
    for (const kv::Request& r : batch) {
      if (!sampled(r.id)) continue;
      auto it = stamps_.find(key(r.id));
      if (it != stamps_.end() && it->second.server == server &&
          it->second.commit < 0)
        it->second.commit = now;
    }
  }

  /// Fills req.* metrics from the client tables (due and done times).
  void report(const Clients& clients, const TrialSpec& sp,
              std::map<std::string, double>& layer) const {
    std::vector<Time> to_server, order, reply;
    const Time wb = sp.warmup, we = sp.warmup + sp.measure;
    for (const auto& c : clients) {
      const auto& recs = c->records();
      for (std::size_t seq = 0; seq < recs.size(); seq += 64) {
        const RequestRecord& r = recs[seq];
        if (r.state != RequestRecord::kCompleted || r.due < wb || r.due >= we)
          continue;
        auto it = stamps_.find(key({c->node_id(), seq}));
        if (it == stamps_.end()) continue;
        to_server.push_back(it->second.receipt - r.due);
        if (it->second.commit < 0) continue;
        order.push_back(it->second.commit - it->second.receipt);
        reply.push_back(r.done - it->second.commit);
      }
    }
    for (auto* v : {&to_server, &order, &reply}) std::sort(v->begin(), v->end());
    layer["req.to_server_p50_ms"] = ms(quantile(to_server, 0.5));
    layer["req.to_server_p99_ms"] = ms(quantile(to_server, 0.99));
    layer["req.order_p50_ms"] = ms(quantile(order, 0.5));
    layer["req.order_p99_ms"] = ms(quantile(order, 0.99));
    layer["req.reply_p50_ms"] = ms(quantile(reply, 0.5));
    layer["req.reply_p99_ms"] = ms(quantile(reply, 0.99));
  }

 private:
  struct Stamp {
    Time receipt;
    NodeId server;
    Time commit;
  };
  std::unordered_map<std::uint64_t, Stamp> stamps_;
};

// ---------------------------------------------------------------------------
// One trial
// ---------------------------------------------------------------------------

struct TrialOut {
  Report report;
  SpanLog spans;
  double setup_s = 0;
  double wall_s = 0;  ///< construction through the end of the drain
  double peak_rss_mb = 0;  ///< high-water mark at the end of the drain
};

/// Correctness gate shared by both backends: agreement of all comparable
/// servers, reply matching, and request accounting.
void gate(const ConsensusService& svc, const ClientTally& t,
          const Clients& clients, Report& rep) {
  auto fail = [&rep](std::string msg) {
    rep.ok = false;
    rep.errors.push_back(std::move(msg));
  };
  std::optional<std::size_t> ref;
  std::uint64_t fp_digest = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < svc.num_servers(); ++i) {
    fp_digest = fnv(fnv(fp_digest, svc.commit_fingerprint(i)),
                    svc.committed_writes(i));
    if (!svc.comparable(i)) continue;
    if (!ref) {
      ref = i;
      continue;
    }
    if (svc.commit_fingerprint(i) != svc.commit_fingerprint(*ref) ||
        svc.committed_writes(i) != svc.committed_writes(*ref))
      fail("servers " + std::to_string(*ref) + " and " + std::to_string(i) +
           " disagree after drain (" + std::to_string(svc.committed_writes(*ref)) +
           " vs " + std::to_string(svc.committed_writes(i)) + " writes)");
  }
  if (!ref) fail("no comparable server after drain");
  if (ref && svc.committed_writes(*ref) == 0) fail("no write committed");
  rep.digest["fingerprints"] = hex(fp_digest);
  if (t.mismatched != 0)
    fail(std::to_string(t.mismatched) + " replies matched no outstanding request");
  std::uint64_t matched = 0, failed = 0;
  for (const auto& c : clients) {
    for (const RequestRecord& r : c->records()) {
      matched += r.state == RequestRecord::kCompleted;
      failed += r.state == RequestRecord::kFailed;
    }
  }
  if (matched + failed + t.outstanding != t.generated || matched != t.completed)
    fail("request accounting: completed + failed + outstanding != generated");
  if (t.completed == 0) fail("no request completed");
}

/// Latency percentiles of each sub-window of the measurement window.
void window_percentiles(const Clients& clients, const TrialSpec& sp,
                        Report& rep) {
  const auto k = static_cast<std::size_t>(sp.measure / sp.sub_window);
  std::vector<std::vector<Time>> lat(k);
  for (const auto& c : clients)
    for (const RequestRecord& r : c->records()) {
      if (r.state != RequestRecord::kCompleted || r.due < sp.warmup) continue;
      const auto w = static_cast<std::size_t>((r.due - sp.warmup) / sp.sub_window);
      if (w < k) lat[w].push_back(r.done - r.due);
    }
  for (auto& v : lat) {
    std::sort(v.begin(), v.end());
    rep.win_p50.push_back(ms(quantile(v, 0.5)));
    rep.win_p99.push_back(ms(quantile(v, 0.99)));
    rep.win_p999.push_back(ms(quantile(v, 0.999)));
  }
}

/// End-to-end and generator metrics common to both backends.
void client_metrics(const ClientTally& t, Report& rep) {
  rep.attempted = t.due_w;
  rep.failed = t.failed_w + t.outstanding_w;
  rep.e2e["p50_ms"] = ms(quantile(t.latency, 0.5));
  rep.e2e["p99_ms"] = ms(quantile(t.latency, 0.99));
  rep.e2e["p999_ms"] = ms(quantile(t.latency, 0.999));
  rep.e2e["completed_frac"] =
      ratio(static_cast<double>(t.completed_w), static_cast<double>(t.due_w));
  rep.layer["gen.late_p99_us"] =
      static_cast<double>(quantile(t.lateness, 0.99)) / 1e3;
  rep.layer["gen.offered_ratio"] =
      ratio(static_cast<double>(t.sent_w), t.rate * t.window_s);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv(h, t.latency.size());
  for (Time v : t.latency) h = fnv(h, static_cast<std::uint64_t>(v));
  rep.digest["latency_histogram"] = hex(h);
  rep.digest["completions"] = std::to_string(t.completed);
  rep.digest["generated"] = std::to_string(t.generated);
  if (t.latency.size() < 10'000)
    rep.notes.push_back("warning: only " + std::to_string(t.latency.size()) +
                        " latency samples in the window");
}

TrialOut run_sim_trial(const TrialSpec& sp) {
  TrialOut out;
  Report& rep = out.report;
  SpanLog& spans = out.spans;
  ReferenceWork* ref = sp.calibrate ? &reference_work() : nullptr;
  const double t0 = wall_now_s();
  const int root = spans.open("trial");

  const int s_cluster = spans.open("setup.cluster", root);
  simnet::Cluster cluster = workload::build_cluster(sp.tc);
  simnet::Simulator sim(sp.seed);
  if (sp.tc.sim_threads > 1)
    sim.configure_shards(cluster.topo,
                         simnet::make_shard_map(cluster.topo, sp.tc.sim_threads));
  simnet::Network net(sim, cluster.topo, sp.tc.cpu);
  spans.close(s_cluster);

  const int s_service = spans.open("setup.service", root);
  std::unique_ptr<TracingHost> tracing;
  if (sp.traced) tracing = std::make_unique<TracingHost>(net);
  runtime::Host& host = tracing ? static_cast<runtime::Host&>(*tracing) : net;
  std::unique_ptr<ConsensusService> svc = workload::make_service(sp.tc, cluster, host);
  Clients clients = make_clients(sp, cluster, host);
  spans.close(s_service);

  // Commit path, audit, breakdown and recovery hooks.
  const std::size_t n = svc->num_servers();
  CommitProbe probe(n, sp.crash ? std::optional<std::size_t>(sp.crash->victim)
                                : std::nullopt);
  Breakdown breakdown;
  std::unique_ptr<workload::HistoryAuditor> auditor;
  const Time end = sp.warmup + sp.measure + sp.drain;
  if (sp.audit) {
    workload::AuditConfig ac;
    ac.ordered = sp.tc.system != System::kEPaxos;
    auditor = std::make_unique<workload::HistoryAuditor>(ac, n);
    auditor->attach_service(*svc, sim, sp.warmup, end);
    for (std::size_t ci = 0; ci < clients.size(); ++ci)
      clients[ci]->on_reply = [&, ci](NodeId server, const kv::Completion& c) {
        auditor->note_reply(ci, auditor->server_index(server), c, sim.now());
      };
  }
  auto audit_commit = std::move(svc->on_commit);
  auto audit_install = std::move(svc->on_snapshot_install);
  // Recovery: the target is the most writes any live server had committed
  // at the recover instant; the victim has caught up once it holds as many.
  std::uint64_t catchup_target = 0;
  bool recovering = false;
  Time recovered_at = -1, caught_at = -1;
  ConsensusService* s = svc.get();
  auto check_caught = [&](std::size_t i) {
    if (recovering && caught_at < 0 && i == sp.crash->victim &&
        s->committed_writes(i) >= catchup_target)
      caught_at = sim.now();
  };
  svc->on_commit = [&](std::size_t i, std::uint64_t unit,
                       const std::vector<kv::Request>& batch) {
    if (audit_commit) audit_commit(i, unit, batch);
    const Time now = sim.now();
    probe.note(i, batch, now);
    if (tracing) breakdown.commit(s->server_node(i), batch, now);
    check_caught(i);
  };
  svc->on_snapshot_install = [&](std::size_t i, const kv::Snapshot& snap) {
    if (audit_install) audit_install(i, snap);
    check_caught(i);
  };
  if (tracing) {
    std::vector<bool> is_server(cluster.topo.num_nodes(), false);
    for (NodeId v : cluster.servers) is_server[v] = true;
    tracing->observe = [&breakdown, is_server](Time now, const simnet::Message& m) {
      if (is_server[m.dst()]) breakdown.receipt(now, m);
    };
  }
  if (sp.crash) {
    const std::size_t v = sp.crash->victim;
    sim.at(sp.crash->crash_at, [s, v] { s->crash(v); });
    sim.at(sp.crash->recover_at, [&, s, v] {
      for (std::size_t i = 0; i < s->num_servers(); ++i)
        if (i != v && s->up(i))
          catchup_target = std::max(catchup_target, s->committed_writes(i));
      recovered_at = sim.now();
      recovering = true;
      s->recover(v);
    });
  }

  // The run advances in fixed slices of simulated time; each slice's wall
  // time is one segment of the report.
  double mark = t0;
  double ref_total = 0;  // reference time, kept out of every trial timing
  const auto lap = [&](std::vector<double>& parts) {
    const double now = wall_now_s();
    parts.push_back(now - mark);
    mark = now;
    if (ref == nullptr) return;
    ref->warm();
    const double ref0 = wall_now_s();
    ref->run();
    mark = wall_now_s();
    (&parts == &rep.setup_parts ? rep.setup_ref : rep.run_ref)
        .push_back(mark - ref0);
    ref_total += mark - now;
  };
  Time reached = 0;
  const auto run_to = [&](Time t, std::vector<double>& parts) {
    while (reached < t) {
      reached = std::min(t, reached + sp.slice);
      if (sp.tc.sim_threads > 1)
        sim.run_parallel_until(reached);
      else
        sim.run_until(reached);
      lap(parts);
    }
  };
  const std::uint64_t allocs0 = alloc_count();
  lap(rep.setup_parts);
  const double run0 = mark, ref_run0 = ref_total;
  const int s_warm = spans.open("warmup", root);
  run_to(sp.warmup, rep.setup_parts);
  spans.close(s_warm);
  out.setup_s = mark - t0 - ref_total;
  const int s_window = spans.open("window", root);
  run_to(sp.warmup + sp.measure, rep.run_parts);
  spans.close(s_window);
  std::uint64_t retained = 0;
  for (std::size_t i = 0; i < n; ++i)
    retained = std::max(retained, svc->log_entries_retained(i));
  const int s_drain = spans.open("drain", root);
  run_to(end, rep.run_parts);
  spans.close(s_drain);
  rep.run_wall_s = mark - run0 - (ref_total - ref_run0);
  out.wall_s = mark - t0 - ref_total;
  out.peak_rss_mb = peak_rss_mb();
  const std::uint64_t allocs = alloc_count() - allocs0;
  for (std::size_t i = 0; i < n; ++i)
    retained = std::max(retained, svc->log_entries_retained(i));

  const int s_check = spans.open("check", root);
  const ClientTally t = tally(clients, sp);
  gate(*svc, t, clients, rep);
  client_metrics(t, rep);
  if (auditor) {
    auditor->finalize(sim.now());
    if (auditor->violation_count() != 0) {
      rep.ok = false;
      for (const auto& v : auditor->violations())
        rep.errors.push_back(std::string("audit ") +
                             workload::audit_violation_name(v.kind) + ": " + v.detail);
    }
  }
  if (sp.crash) {
    if (caught_at < 0) {
      rep.ok = false;
      rep.errors.push_back("crashed server did not catch up before the drain ended");
    }
    std::uint64_t snaps = 0;
    for (std::size_t i = 0; i < n; ++i) snaps += svc->snapshots_installed(i);
    rep.layer["recovery.catchup_ms"] = ms(caught_at - recovered_at);
    rep.layer["recovery.snapshots"] = static_cast<double>(snaps);
  }
  spans.close(s_check);
  spans.close(root);

  // Kernel, network, payload and commit-path layers.
  const std::uint64_t events = sim.events_processed();
  const simnet::NetworkStats ns = net.stats();
  const double ops = static_cast<double>(t.completed);
  Time cpu_backlog = 0, link_backlog = 0;
  for (NodeId v = 0; v < cluster.topo.num_nodes(); ++v)
    cpu_backlog = std::max(cpu_backlog, net.max_cpu_backlog(v));
  for (simnet::LinkId l = 0; l < cluster.topo.num_links(); ++l)
    link_backlog = std::max(link_backlog, net.max_link_backlog(l));
  auto& L = rep.layer;
  L["setup.cluster_ms"] = spans.seconds(s_cluster) * 1e3;
  L["setup.service_ms"] = spans.seconds(s_service) * 1e3;
  L["setup.warmup_s"] = spans.seconds(s_warm);
  L["kernel.events_per_op"] = ratio(static_cast<double>(events), ops);
  L["kernel.ns_per_event"] = ratio(rep.run_wall_s * 1e9, static_cast<double>(events));
  L["net.msgs_per_op"] = ratio(static_cast<double>(ns.messages), ops);
  L["net.bytes_per_op"] = ratio(static_cast<double>(ns.bytes), ops);
  L["net.cpu_backlog_max_us"] = static_cast<double>(cpu_backlog) / 1e3;
  L["net.link_backlog_max_us"] = static_cast<double>(link_backlog) / 1e3;
  L["net.dropped"] = static_cast<double>(ns.dropped);
  L["payload.allocs_per_event"] =
      ratio(static_cast<double>(allocs), static_cast<double>(events));
  L["payload.allocs_per_op"] = ratio(static_cast<double>(allocs), ops);
  L["commit.ops_per_batch"] = probe.ops_per_batch();
  L["commit.lag_p99_ms"] = ms(probe.lag_p99());
  L["commit.retained_log_max"] = static_cast<double>(retained);

  rep.digest["events"] = std::to_string(events);
  rep.digest["net"] = std::to_string(ns.messages) + "/" + std::to_string(ns.bytes) +
                      "/" + std::to_string(ns.dropped);
  rep.digest["backlog"] = std::to_string(cpu_backlog) + "/" + std::to_string(link_backlog);

  if (tracing) {
    rep.proxies = tracing->num_proxies();
    breakdown.report(clients, sp, L);
    const TagTable tags = tracing->totals();
    double handler_ns = 0;
    std::vector<std::pair<double, std::size_t>> by_time;
    for (std::size_t i = 0; i < kMaxTags; ++i) {
      if (tags[i].msgs == 0) continue;
      handler_ns += static_cast<double>(tags[i].ns);
      by_time.emplace_back(static_cast<double>(tags[i].ns), i);
    }
    std::sort(by_time.rbegin(), by_time.rend());
    for (const auto& [t_ns, i] : by_time) {
      const auto tag = static_cast<simnet::PayloadTag>(i);
      const std::string p = std::string("handler.") + tag_name(tag);
      L[p + ".msgs_per_op"] = ratio(static_cast<double>(tags[i].msgs), ops);
      L[p + ".ns_per_msg"] = ratio(t_ns, static_cast<double>(tags[i].msgs));
      L[p + ".wall_frac"] = t_ns / (rep.run_wall_s * 1e9);
    }
    L["kernel.self_frac"] = 1.0 - handler_ns / (rep.run_wall_s * 1e9);
    std::string top = "top handler tags by wall_frac (handler time includes "
                      "the Network::send work done inside the handler):";
    for (std::size_t k = 0; k < by_time.size() && k < 3; ++k) {
      const auto tag = static_cast<simnet::PayloadTag>(by_time[k].second);
      char buf[96];
      std::snprintf(buf, sizeof buf, " %zu. %s (%s) %.3f", k + 1, tag_name(tag),
                    tag_layer(tag), by_time[k].first / (rep.run_wall_s * 1e9));
      top += buf;
    }
    rep.notes.push_back(top);
  }
  return out;
}

TrialOut run_threads_trial(const TrialSpec& sp) {
  TrialOut out;
  Report& rep = out.report;
  SpanLog& spans = out.spans;
  const double t0 = wall_now_s();
  const int root = spans.open("trial");

  const int s_cluster = spans.open("setup.cluster", root);
  simnet::Cluster cluster = workload::build_cluster(sp.tc);
  runtime::ThreadedRuntime rt(cluster.topo.num_nodes(), sp.seed);
  spans.close(s_cluster);
  const int s_service = spans.open("setup.service", root);
  std::unique_ptr<ConsensusService> svc = workload::make_service(sp.tc, cluster, rt);
  Clients clients = make_clients(sp, cluster, rt);
  spans.close(s_service);

  const std::size_t n = svc->num_servers();
  CommitProbe probe(n, std::nullopt);
  svc->on_commit = [&](std::size_t i, std::uint64_t,
                       const std::vector<kv::Request>& batch) {
    probe.note(i, batch, rt.now());
  };

  // One long sleep per phase: the main thread should not steal a core
  // from the node threads by waking up often.
  const auto wait_until = [&rt](Time t) {
    for (Time now = rt.now(); now < t; now = rt.now())
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  };
  const std::uint64_t allocs0 = alloc_count();
  const int s_warm = spans.open("warmup", root);
  rt.start();
  wait_until(sp.warmup);
  spans.close(s_warm);
  out.setup_s = wall_now_s() - t0;
  const double cpu0 = process_cpu_s();
  const int s_window = spans.open("window", root);
  wait_until(sp.warmup + sp.measure);
  spans.close(s_window);
  const double cpu_s = process_cpu_s() - cpu0;
  const int s_drain = spans.open("drain", root);
  wait_until(sp.warmup + sp.measure + sp.drain);
  rt.stop();  // joins every node thread: protocol state is readable now
  spans.close(s_drain);
  out.wall_s = wall_now_s() - t0;
  rep.setup_parts = {out.setup_s};
  rep.run_parts = {out.wall_s - out.setup_s};
  out.peak_rss_mb = peak_rss_mb();
  const std::uint64_t allocs = alloc_count() - allocs0;
  std::uint64_t retained = 0;
  for (std::size_t i = 0; i < n; ++i)
    retained = std::max(retained, svc->log_entries_retained(i));

  const ClientTally t = tally(clients, sp);
  gate(*svc, t, clients, rep);
  client_metrics(t, rep);
  window_percentiles(clients, sp, rep);
  spans.close(root);
  rep.run_wall_s = spans.seconds(s_warm) + spans.seconds(s_window) +
                   spans.seconds(s_drain);

  const runtime::ThreadedRuntime::Stats st = rt.total_stats();
  const double ops = static_cast<double>(t.completed);
  auto& L = rep.layer;
  L["setup.cluster_ms"] = spans.seconds(s_cluster) * 1e3;
  L["setup.service_ms"] = spans.seconds(s_service) * 1e3;
  L["setup.warmup_s"] = spans.seconds(s_warm);
  L["payload.allocs_per_event"] =
      ratio(static_cast<double>(allocs),
            static_cast<double>(st.delivered + st.timers + st.posts));
  L["payload.allocs_per_op"] = ratio(static_cast<double>(allocs), ops);
  L["commit.ops_per_batch"] = probe.ops_per_batch();
  L["commit.lag_p99_ms"] = ms(probe.lag_p99());
  L["commit.retained_log_max"] = static_cast<double>(retained);
  L["rt.msgs_per_op"] = ratio(static_cast<double>(st.delivered), ops);
  L["rt.timers_per_op"] = ratio(static_cast<double>(st.timers), ops);
  L["rt.stalls"] = static_cast<double>(st.stalls);
  L["rt.cpu_ms_per_kop"] =
      ratio(cpu_s * 1e3, static_cast<double>(t.completed_w) / 1e3);
  return out;
}

TrialOut run_trial(const TrialSpec& sp) {
  return sp.tc.runtime == workload::RuntimeKind::kThreads ? run_threads_trial(sp)
                                                          : run_sim_trial(sp);
}

void write_trace(const std::string& path, const TrialOut& out) {
  if (path.empty()) return;
  std::ofstream f(path);
  f << "{\"spans\": [";
  const auto& spans = out.spans.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"start_s\": %.9f, \"end_s\": %.9f}",
                  i ? ", " : "", i, spans[i].name.c_str(), spans[i].parent,
                  spans[i].start_s, spans[i].end_s);
    f << buf;
  }
  f << "], \"layer\": {";
  bool first = true;
  for (const auto& [k, v] : out.report.layer) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", first ? "" : ", ",
                  k.c_str(), v);
    f << buf;
    first = false;
  }
  f << "}}\n";
}

}  // namespace

Report run_workload(const Options& opt) {
  const auto it = registry().find(opt.workload);
  if (it == registry().end())
    throw std::invalid_argument("unknown workload: " + opt.workload);
  const Workload w = it->second();
  TrialSpec base = w.base;
  if (opt.serial) base.tc.sim_threads = 1;
  base.audit = base.audit && opt.audit;
  base.traced = opt.mode == Mode::kTraced;
  base.calibrate = opt.mode == Mode::kFull;
  if (base.traced) base.tc.sim_threads = 1;  // handler timing is per thread

  const auto spec_at = [&](double rate) {
    TrialSpec sp = base;
    sp.rate = rate;
    sp.seed = derive_seed(opt.seed, std::bit_cast<std::uint64_t>(rate));
    return sp;
  };

  // Trace runs measure the operating point only.
  if (opt.mode != Mode::kFull) {
    TrialOut out = run_trial(spec_at(w.ladder[w.op_rung]));
    out.report.e2e["setup_s"] = out.setup_s;
    out.report.e2e["wall_s"] = out.wall_s;
    out.report.e2e["peak_rss_mb"] = out.peak_rss_mb;
    write_trace(opt.trace_out, out);
    return std::move(out.report);
  }

  // The ladder: every rung, so every code version does the same work;
  // max_rate_ops_s is the highest rung below the first that misses the
  // latency limit, and latency metrics come from the operating point.
  Report rep;
  std::map<std::string, std::string> rung_digests;
  std::vector<double> setup_parts, run_parts;
  double wall = 0, setup = 0, max_rate = 0, rss = 0;
  bool passing = true;
  for (std::size_t r = 0; r < w.ladder.size(); ++r) {
    TrialOut out = run_trial(spec_at(w.ladder[r]));
    wall += out.wall_s;
    setup += out.setup_s;
    const auto& sp_parts = out.report.setup_parts;
    const auto& rn_parts = out.report.run_parts;
    setup_parts.insert(setup_parts.end(), sp_parts.begin(), sp_parts.end());
    run_parts.insert(run_parts.end(), rn_parts.begin(), rn_parts.end());
    const auto& sp_ref = out.report.setup_ref;
    const auto& rn_ref = out.report.run_ref;
    rep.setup_ref.insert(rep.setup_ref.end(), sp_ref.begin(), sp_ref.end());
    rep.run_ref.insert(rep.run_ref.end(), rn_ref.begin(), rn_ref.end());
    auto& e = out.report.e2e;
    const bool pass =
        e["p99_ms"] <= ms(w.latency_limit) && e["completed_frac"] >= 0.99;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "rung %.0f req/s: p50 %.3f ms, p99 %.3f ms, completed %.4f "
                  "-> %s (wall %.3f s, rss %.1f MB)",
                  w.ladder[r], e["p50_ms"], e["p99_ms"], e["completed_frac"],
                  pass ? "meets limit" : "misses limit", out.wall_s,
                  out.peak_rss_mb);
    rep.notes.push_back(buf);
    if (pass && passing) max_rate = w.ladder[r];
    passing = passing && pass;
    if (!out.report.ok) {
      rep.ok = false;
      for (auto& e : out.report.errors)
        rep.errors.push_back("rung " + std::to_string(r) + ": " + e);
    }
    if (r == w.op_rung) {
      // Memory is the high-water mark through the operating point: the
      // overloaded rungs above it queue amounts that vary with the seed.
      rss = out.peak_rss_mb;
      rep.attempted = out.report.attempted;
      rep.failed = out.report.failed;
      rep.e2e = out.report.e2e;
      rep.layer = out.report.layer;
      rep.digest = out.report.digest;
      rep.run_wall_s = out.report.run_wall_s;
      rep.win_p50 = out.report.win_p50;
      rep.win_p99 = out.report.win_p99;
      rep.win_p999 = out.report.win_p999;
      for (auto& note : out.report.notes) rep.notes.push_back(note);
      write_trace(opt.trace_out, out);
    }
    rung_digests["rung" + std::to_string(r)] =
        out.report.digest["latency_histogram"] + "/" +
        out.report.digest["fingerprints"] + "/" + out.report.digest["events"];
  }
  rep.digest.merge(rung_digests);
  rep.setup_parts = std::move(setup_parts);
  rep.run_parts = std::move(run_parts);
  rep.e2e["setup_s"] = setup;
  rep.e2e["wall_s"] = wall;
  rep.e2e["max_rate_ops_s"] = max_rate;
  rep.e2e["peak_rss_mb"] = rss;
  return rep;
}

}  // namespace perfbench
