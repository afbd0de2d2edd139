// Scripted-storm regression: a minimized canopus-storm-v1 artifact checked
// into tests/data is parsed and replayed against the exact deployment it
// was captured on, and must reproduce the behaviour it pins — the Canopus
// sponsored-rejoin state transfer (ISSUE 10) with a clean audit.
//
// The artifact was produced by the DISABLED_RegenerateArtifact test below:
// a long-downtime crash/recover pair buried in gray noise, ddmin-reduced by
// StormMinimizer under the oracle "the rejoin still installs a snapshot and
// the audit stays clean". Re-run that test (with
// --gtest_also_run_disabled_tests) to regenerate after a deliberate
// behaviour change, and say so in the commit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "workload/chaos.h"
#include "workload/fault_scenario.h"
#include "workload/storm_minimizer.h"

#ifndef CANOPUS_TEST_DATA_DIR
#define CANOPUS_TEST_DATA_DIR "tests/data"
#endif

namespace canopus::workload {
namespace {

const char* const kArtifact =
    CANOPUS_TEST_DATA_DIR "/canopus_rejoin_storm.json";

// The deployment the artifact's node ids refer to. Any change here
// invalidates the artifact — regenerate it.
TrialConfig replay_config() {
  TrialConfig tc;
  tc.system = System::kCanopus;
  tc.groups = 2;
  tc.per_group = 3;
  tc.client_machines = 1;
  tc.seed = 42;
  tc = fault_tuned(tc);
  tc.warmup = long_downtime_timing().warmup;
  return tc;
}

ChaosResult replay(const simnet::FaultSchedule& storm, double rate,
                   int sim_threads = 1) {
  TrialConfig tc = replay_config();
  tc.sim_threads = sim_threads;
  const ChaosIntensity unused{"replay", 0, 0, 0, 0, 0};
  return run_chaos_trial(tc, unused, long_downtime_timing(), rate, &storm);
}

TEST(StormReplay, MinimizedRejoinArtifactReproduces) {
  std::ifstream in(kArtifact);
  ASSERT_TRUE(in.good()) << "missing artifact " << kArtifact;
  std::stringstream buf;
  buf << in.rdbuf();

  LoadedStorm loaded;
  ASSERT_TRUE(storm_from_json(buf.str(), &loaded))
      << "artifact failed to parse: " << kArtifact;
  EXPECT_EQ(loaded.system, "Canopus");
  ASSERT_FALSE(loaded.storm.events().empty());

  const ChaosResult r = replay(loaded.storm, loaded.offered_rate);
  EXPECT_EQ(r.violations, 0u);
  for (const AuditViolation& v : r.violation_details)
    ADD_FAILURE() << audit_violation_name(v.kind) << ": " << v.detail;
  EXPECT_GE(r.snapshots_installed, 1u)
      << "the minimized storm no longer exercises the rejoin transfer";
  EXPECT_TRUE(r.retention_ok);

  // The artifact replays identically under the parallel event kernel.
  const ChaosResult p = replay(loaded.storm, loaded.offered_rate, 2);
  EXPECT_EQ(p.violations, 0u);
  EXPECT_EQ(p.fingerprint, r.fingerprint);
  EXPECT_EQ(p.committed_writes, r.committed_writes);
  EXPECT_EQ(p.snapshots_installed, r.snapshots_installed);
}

// Round-trip sanity on the parser itself, independent of the artifact.
TEST(StormReplay, JsonRoundTripIsLossless) {
  simnet::FaultSchedule storm;
  storm.crash_at(500 * kMillisecond, 7)
      .recover_at(2'500 * kMillisecond, 7)
      .cpu_slow_at(600 * kMillisecond, 3, 4.5)
      .flap_at(700 * kMillisecond, 2, 5, 80 * kMillisecond);

  StormJsonMeta meta;
  meta.system = "Canopus";
  meta.intensity = "gray-mix";
  meta.seed = 42;
  meta.offered_rate = 5000.0;

  std::string path = ::testing::TempDir() + "storm_roundtrip.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  storm_to_json(f, storm, meta);
  std::fclose(f);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  LoadedStorm loaded;
  ASSERT_TRUE(storm_from_json(buf.str(), &loaded));
  EXPECT_EQ(loaded.system, "Canopus");
  EXPECT_EQ(loaded.seed, 42u);
  EXPECT_EQ(loaded.offered_rate, 5000.0);
  ASSERT_EQ(loaded.storm.events().size(), storm.events().size());
  for (std::size_t i = 0; i < storm.events().size(); ++i) {
    const simnet::FaultEvent& a = storm.events()[i];
    const simnet::FaultEvent& b = loaded.storm.events()[i];
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.d, b.d);
  }
}

TEST(StormReplay, ParserRejectsForeignAndTruncatedDocuments) {
  LoadedStorm out;
  EXPECT_FALSE(storm_from_json("{\"schema\":\"other-v2\"}", &out));
  EXPECT_FALSE(storm_from_json("", &out));
  EXPECT_FALSE(storm_from_json(
      "{\"schema\":\"canopus-storm-v1\",\"system\":\"Canopus\","
      "\"intensity\":\"x\",\"seed\":1,\"offered_rate\":1,"
      "\"events\":[{\"at_ns\":5,\"kind\":\"crash\"",  // truncated event
      &out));
}

// Regenerates tests/data/canopus_rejoin_storm.json: buries the
// long-downtime crash/recover pair in gray noise and lets StormMinimizer
// ddmin it back out under the rejoin oracle. Disabled — run on demand:
//   workload_storm_replay_test --gtest_also_run_disabled_tests
//     --gtest_filter='*Regenerate*'   (one command line)
TEST(StormReplay, DISABLED_RegenerateArtifact) {
  const TrialConfig tc = replay_config();
  const double rate = 5'000.0;
  simnet::Cluster cluster = build_cluster(tc);
  const NodeId victim = cluster.servers[tc.per_group];  // group 1, server 0

  simnet::FaultSchedule storm;
  storm.crash_at(500 * kMillisecond, victim)
      .recover_at(2'500 * kMillisecond, victim);
  // Gray noise the minimizer must strip: none of it is needed for the
  // rejoin transfer to happen.
  storm.cpu_slow_at(600 * kMillisecond, cluster.servers[0], 3.0)
      .cpu_normal_at(1'200 * kMillisecond, cluster.servers[0]);
  storm.dup_at(700 * kMillisecond, cluster.servers[1], cluster.servers[2],
               2 * kMillisecond)
      .dup_stop_at(1'500 * kMillisecond, cluster.servers[1],
                   cluster.servers[2]);
  storm.reorder_at(800 * kMillisecond, cluster.servers[4],
                   cluster.servers[5], kMillisecond)
      .reorder_stop_at(1'600 * kMillisecond, cluster.servers[4],
                       cluster.servers[5]);
  storm.skew_at(900 * kMillisecond, cluster.servers[2], 1.05,
                50 * kMillisecond)
      .skew_clear_at(1'700 * kMillisecond, cluster.servers[2]);

  StormMinimizer::Oracle oracle = [&](const simnet::FaultSchedule& s) {
    const ChaosResult r = replay(s, rate);
    return r.violations == 0 && r.snapshots_installed >= 1;
  };
  MinimizeOptions opt;
  opt.shrink_durations = false;  // keep the artifact's downtime realistic
  StormMinimizer minimizer(oracle, opt);
  const MinimizeResult res = minimizer.minimize(storm);
  ASSERT_TRUE(res.reproduced);

  StormJsonMeta meta;
  meta.system = "Canopus";
  meta.intensity = "long-downtime";
  meta.seed = tc.seed;
  meta.offered_rate = rate;
  meta.reproduced = true;
  meta.original_events = res.original_events;
  meta.probes = res.probes;
  meta.duration_shrinks = res.duration_shrinks;

  std::FILE* f = std::fopen(kArtifact, "w");
  ASSERT_NE(f, nullptr) << "cannot write " << kArtifact;
  storm_to_json(f, res.minimal, meta);
  std::fclose(f);
  std::printf("regenerated %s: %zu -> %zu events, %zu probes\n", kArtifact,
              res.original_events, res.minimal_events, res.probes);
}

}  // namespace
}  // namespace canopus::workload
