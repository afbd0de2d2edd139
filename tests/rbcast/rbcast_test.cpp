#include "rbcast/rbcast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "../testutil/harness.h"

namespace canopus::rbcast {
namespace {

using simnet::Cluster;
using simnet::Network;
using simnet::Simulator;
using testutil::RbcastHost;
using testutil::small_cluster;

class RbcastTest : public ::testing::Test {
 protected:
  void build(int n, std::uint64_t seed = 42) {
    // Old hosts reference the old simulator; destroy them before it goes.
    hosts_.clear();
    net_.reset();
    sim_ = std::make_unique<Simulator>(seed);
    cluster_ = small_cluster(n);
    net_ = std::make_unique<Network>(*sim_, cluster_.topo);
    for (int i = 0; i < n; ++i) {
      hosts_.push_back(std::make_unique<RbcastHost>());
      net_->attach(cluster_.servers[static_cast<size_t>(i)], *hosts_.back());
      hosts_.back()->init(cluster_.servers, *sim_);
    }
  }

  std::vector<std::string> texts(int host) const {
    std::vector<std::string> out;
    for (const auto& d : hosts_[static_cast<size_t>(host)]->delivered)
      out.push_back(testutil::text(d.payload));
    return out;
  }

  std::unique_ptr<Simulator> sim_;
  Cluster cluster_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<RbcastHost>> hosts_;
};

TEST_F(RbcastTest, BroadcastReachesAllIncludingSelf) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  hosts_[0]->rb->broadcast(std::string("m1"), 2);
  sim_->run_until(100 * kMillisecond);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(hosts_[static_cast<size_t>(i)]->delivered.size(), 1u) << i;
    EXPECT_EQ(hosts_[static_cast<size_t>(i)]->delivered[0].origin,
              cluster_.servers[0]);
    EXPECT_EQ(texts(i)[0], "m1");
  }
}

TEST_F(RbcastTest, SameOriginDeliveredInOrderEverywhere) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  for (int i = 0; i < 10; ++i)
    hosts_[1]->rb->broadcast(std::to_string(i), 2);
  sim_->run_until(500 * kMillisecond);
  for (int h = 0; h < 3; ++h) {
    auto t = texts(h);
    ASSERT_EQ(t.size(), 10u);
    for (int i = 0; i < 10; ++i)
      EXPECT_EQ(t[static_cast<size_t>(i)], std::to_string(i));
  }
}

TEST_F(RbcastTest, ConcurrentBroadcastsAllDelivered) {
  build(5);
  sim_->run_until(10 * kMillisecond);
  for (auto& h : hosts_)
    h->rb->broadcast(std::string("from") +
                         std::to_string(h->rb->members()[0]),
                     8);
  // Every node broadcast one message; all five must deliver all five.
  for (size_t i = 0; i < hosts_.size(); ++i)
    hosts_[i]->rb->broadcast("x" + std::to_string(i), 8);
  sim_->run_until(kSecond);
  for (auto& h : hosts_) EXPECT_EQ(h->delivered.size(), 10u);
}

TEST_F(RbcastTest, AgreementOnSameOriginPrefix) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  for (int i = 0; i < 5; ++i) {
    hosts_[0]->rb->broadcast("a" + std::to_string(i), 2);
    hosts_[2]->rb->broadcast("c" + std::to_string(i), 2);
  }
  sim_->run_until(kSecond);
  // Per-origin sequences are identical on every host.
  for (int h = 0; h < 3; ++h) {
    std::vector<std::string> a, c;
    for (const auto& d : hosts_[static_cast<size_t>(h)]->delivered) {
      const std::string s = testutil::text(d.payload);
      (s[0] == 'a' ? a : c).push_back(s);
    }
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(c.size(), 5u);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(a[static_cast<size_t>(i)], "a" + std::to_string(i));
      EXPECT_EQ(c[static_cast<size_t>(i)], "c" + std::to_string(i));
    }
  }
}

TEST_F(RbcastTest, FailedPeerIsDetected) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  net_->crash(cluster_.servers[2]);
  hosts_[2]->rb->stop();
  sim_->run_until(3 * kSecond);
  // Survivors detect the failure of node 2's group leadership.
  for (int h = 0; h < 2; ++h) {
    ASSERT_GE(hosts_[static_cast<size_t>(h)]->failures.size(), 1u) << h;
    EXPECT_EQ(hosts_[static_cast<size_t>(h)]->failures[0],
              cluster_.servers[2]);
  }
}

TEST_F(RbcastTest, InFlightBroadcastSurvivesOriginCrash) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  // Broadcast then crash the origin 3 ms later: replication has reached the
  // followers; the replacement leader must complete delivery (§4.3).
  hosts_[0]->rb->broadcast(std::string("will-survive"), 12);
  sim_->run_until(sim_->now() + 3 * kMillisecond);
  net_->crash(cluster_.servers[0]);
  hosts_[0]->rb->stop();
  sim_->run_until(5 * kSecond);
  for (int h = 1; h < 3; ++h) {
    auto t = texts(h);
    ASSERT_EQ(t.size(), 1u) << h;
    EXPECT_EQ(t[0], "will-survive");
  }
}

TEST_F(RbcastTest, RemoveMemberKeepsBroadcastWorking) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  net_->crash(cluster_.servers[2]);
  hosts_[2]->rb->stop();
  sim_->run_until(3 * kSecond);
  hosts_[0]->rb->remove_member(cluster_.servers[2]);
  hosts_[1]->rb->remove_member(cluster_.servers[2]);
  const auto before0 = hosts_[0]->delivered.size();
  const auto before1 = hosts_[1]->delivered.size();
  hosts_[0]->rb->broadcast(std::string("post-removal"), 12);
  sim_->run_until(sim_->now() + kSecond);
  EXPECT_EQ(hosts_[0]->delivered.size(), before0 + 1);
  EXPECT_EQ(hosts_[1]->delivered.size(), before1 + 1);
}

TEST_F(RbcastTest, MajorityFailureHaltsBroadcast) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  net_->crash(cluster_.servers[1]);
  net_->crash(cluster_.servers[2]);
  hosts_[1]->rb->stop();
  hosts_[2]->rb->stop();
  hosts_[0]->rb->broadcast(std::string("stuck"), 5);
  sim_->run_until(5 * kSecond);
  // 2F+1 = 3 supports F = 1; two failures halt delivery (no commit).
  EXPECT_TRUE(hosts_[0]->delivered.empty());
}

TEST_F(RbcastTest, IsMemberReflectsMembership) {
  build(2);
  EXPECT_TRUE(hosts_[0]->rb->is_member(cluster_.servers[1]));
  hosts_[0]->rb->remove_member(cluster_.servers[1]);
  EXPECT_FALSE(hosts_[0]->rb->is_member(cluster_.servers[1]));
}

// Dissolution hand-off: five groups over a hand-pumped message bus, so a
// test can drop one group's traffic to one member and leave everything
// else running. Node 4 (the origin) crashes; node 1 is cut off from group
// 4 while the survivors elect a replacement leader, commit its no-op and
// dissolve the group. Node 1 then never holds the no-op in its own log.
class Dissolution : public ::testing::Test {
 protected:
  static constexpr NodeId kOrigin = 4;
  static constexpr NodeId kStraggler = 1;

  struct Host {
    std::unique_ptr<ReliableBroadcast> rb;
    std::vector<std::string> from_origin;  ///< kOrigin's deliveries
    std::vector<NodeId> failures;
  };
  struct Wire {
    NodeId src, dst;
    raft::WireMsg msg;
  };

  void SetUp() override {
    const std::vector<NodeId> members = {0, 1, 2, 3, 4};
    for (NodeId self : members) {
      auto h = std::make_unique<Host>();
      Host* hp = h.get();
      ReliableBroadcast::Callbacks cb;
      cb.send = [this, self](NodeId dst, const raft::WireMsg& m) {
        wires_.push_back({self, dst, m});
      };
      cb.deliver = [hp](NodeId origin, const simnet::Payload& payload) {
        if (origin == kOrigin)
          hp->from_origin.push_back(testutil::text(payload));
      };
      // What Canopus does on the upcall: drop the member (dissolving and
      // archiving its group).
      cb.on_peer_failed = [hp](NodeId failed) {
        hp->failures.push_back(failed);
        hp->rb->remove_member(failed);
      };
      h->rb = std::make_unique<ReliableBroadcast>(self, members, sim_,
                                                  std::move(cb), opt_);
      hosts_.push_back(std::move(h));
    }
    for (auto& h : hosts_) h->rb->start();
  }

  /// Runs the clock for `span` in 1 ms steps, delivering every message
  /// (and its consequences) after each step. A crashed origin neither
  /// sends nor receives; `isolate` drops group-kOrigin traffic between
  /// kStraggler and everyone else; `hold_replies` stashes every answer to
  /// a kDissolvedTailRequest in `held_`.
  void run(Time span) {
    const Time end = sim_.now() + span;
    while (sim_.now() < end) {
      sim_.run_until(sim_.now() + kMillisecond);
      while (!wires_.empty()) {
        std::vector<Wire> batch;
        batch.swap(wires_);
        for (const Wire& w : batch) {
          if (crashed_ && (w.src == kOrigin || w.dst == kOrigin)) continue;
          if (isolate && w.msg.group == kOrigin &&
              (w.src == kStraggler || w.dst == kStraggler))
            continue;
          if (drop_append_to_others && w.msg.group == kOrigin &&
              w.msg.type == raft::MsgType::kAppendEntries &&
              w.dst != kStraggler)
            continue;
          if (hold_replies && w.msg.type == raft::MsgType::kGroupDissolved &&
              w.msg.success) {
            held_.push_back(w);
            continue;
          }
          hosts_[w.dst]->rb->on_message(w.src, w.msg);
        }
      }
    }
  }

  void crash_origin() {
    crashed_ = true;
    hosts_[kOrigin]->rb->stop();
  }

  bool survivors_dissolved() const {
    for (NodeId n : {0, 2, 3})
      if (hosts_[n]->rb->is_member(kOrigin)) return false;
    return true;
  }

  Simulator sim_{42};
  raft::Options opt_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<Wire> wires_;
  std::vector<Wire> held_;
  bool crashed_ = false;
  bool isolate = false;
  bool drop_append_to_others = false;
  bool hold_replies = false;
};

// The same hand-off with groups that compact after a few entries, so the
// survivors' logs no longer hold what the straggler misses.
class CompactedDissolution : public Dissolution {
 protected:
  void SetUp() override {
    opt_.compaction_threshold = 4;
    opt_.compaction_keep = 2;
    Dissolution::SetUp();
  }
};

TEST_F(Dissolution, StragglerThatMissedTheNoopDetectsTheFailure) {
  run(10 * kMillisecond);
  hosts_[kOrigin]->rb->broadcast(std::string("a"), 1);
  run(10 * kMillisecond);
  crash_origin();
  isolate = true;
  run(2 * kSecond);
  ASSERT_TRUE(survivors_dissolved());
  ASSERT_TRUE(hosts_[kStraggler]->failures.empty());

  isolate = false;
  run(2 * kSecond);
  ASSERT_EQ(hosts_[kStraggler]->failures, std::vector<NodeId>{kOrigin});
  EXPECT_FALSE(hosts_[kStraggler]->rb->is_member(kOrigin));
  for (NodeId n : {0, 1, 2, 3})
    EXPECT_EQ(hosts_[n]->from_origin, std::vector<std::string>{"a"}) << n;
}

TEST_F(Dissolution, StragglerDropsItsUncommittedTail) {
  run(10 * kMillisecond);
  hosts_[kOrigin]->rb->broadcast(std::string("a"), 1);
  run(10 * kMillisecond);
  // "b" reaches only the straggler's log: never committed, and the
  // replacement leader's no-op takes its index on every survivor.
  drop_append_to_others = true;
  hosts_[kOrigin]->rb->broadcast(std::string("b"), 1);
  run(kMillisecond);
  drop_append_to_others = false;
  crash_origin();
  isolate = true;
  run(2 * kSecond);
  ASSERT_TRUE(survivors_dissolved());

  isolate = false;
  run(2 * kSecond);
  ASSERT_EQ(hosts_[kStraggler]->failures, std::vector<NodeId>{kOrigin});
  for (NodeId n : {0, 1, 2, 3})
    EXPECT_EQ(hosts_[n]->from_origin, std::vector<std::string>{"a"}) << n;
}

TEST_F(CompactedDissolution, StragglerBehindTheSnapshotInstallsIt) {
  run(10 * kMillisecond);
  hosts_[kOrigin]->rb->broadcast(std::string("a"), 1);
  run(10 * kMillisecond);
  // Ten more broadcasts commit and compact without the straggler.
  isolate = true;
  std::vector<std::string> sent = {"a"};
  for (int i = 0; i < 10; ++i) {
    sent.push_back("b" + std::to_string(i));
    hosts_[kOrigin]->rb->broadcast(sent.back(), 2);
    run(kMillisecond);
  }
  run(10 * kMillisecond);
  crash_origin();
  run(2 * kSecond);
  ASSERT_TRUE(survivors_dissolved());
  for (NodeId n : {0, 2, 3}) ASSERT_EQ(hosts_[n]->from_origin, sent) << n;

  isolate = false;
  run(2 * kSecond);
  ASSERT_EQ(hosts_[kStraggler]->failures, std::vector<NodeId>{kOrigin});
  EXPECT_FALSE(hosts_[kStraggler]->rb->is_member(kOrigin));
  // As a live follower behind the compaction base would: the snapshot
  // (empty, the group keeps no state of its own) covers the broadcasts it
  // never held, and the committed tail after it is delivered in order.
  const std::vector<std::string>& got = hosts_[kStraggler]->from_origin;
  ASSERT_GE(got.size(), 1u);
  ASSERT_LT(got.size(), sent.size());
  EXPECT_EQ(got[0], "a");
  EXPECT_TRUE(std::equal(got.begin() + 1, got.end(),
                         sent.end() - static_cast<std::ptrdiff_t>(got.size() - 1)));
}

TEST_F(Dissolution, TailReplyFromBeforeARejoinIsIgnored) {
  run(10 * kMillisecond);
  hosts_[kOrigin]->rb->broadcast(std::string("a"), 1);
  run(10 * kMillisecond);
  crash_origin();
  isolate = true;
  run(2 * kSecond);
  ASSERT_TRUE(survivors_dissolved());

  // The straggler asks every survivor for the tail; hold the answers.
  isolate = false;
  hold_replies = true;
  run(kSecond);
  ASSERT_GE(held_.size(), 2u);
  ASSERT_TRUE(hosts_[kStraggler]->failures.empty());
  Host& straggler = *hosts_[kStraggler];
  const auto deliver = [&](const Wire& w) {
    straggler.rb->on_message(w.src, w.msg);
    sim_.run_until(sim_.now() + kMillisecond);  // the deferred upcall
  };
  deliver(held_[0]);
  ASSERT_EQ(straggler.failures, std::vector<NodeId>{kOrigin});

  // The origin rejoins before the other answers arrive: they belong to
  // the dissolved incarnation, not to the group add_member creates.
  straggler.rb->add_member(kOrigin);
  for (std::size_t i = 1; i < held_.size(); ++i) deliver(held_[i]);
  EXPECT_EQ(straggler.failures, std::vector<NodeId>{kOrigin});
  EXPECT_TRUE(straggler.rb->is_member(kOrigin));
  EXPECT_EQ(straggler.from_origin, std::vector<std::string>{"a"});
}

}  // namespace
}  // namespace canopus::rbcast
