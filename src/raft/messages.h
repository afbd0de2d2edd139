// Raft wire messages. All four RPCs are modelled as asynchronous messages
// (request and response are separate Messages on the simulated network).
#pragma once

#include <vector>

#include "raft/log.h"

namespace canopus::raft {

enum class MsgType {
  kRequestVote,
  kVoteReply,
  kAppendEntries,  // doubles as heartbeat when entries is empty
  kAppendReply,
  /// Leader -> follower state transfer (Raft §7): sent when the follower's
  /// next index has been compacted away. Carries the snapshot payload plus
  /// the last included index/term in prev_log_index/prev_log_term.
  kInstallSnapshot,
  /// Not part of Raft proper: sent by the reliable-broadcast layer when it
  /// receives traffic for a group it has already dissolved (§4.3 "all the
  /// nodes leave that group"). Anchored like an AppendEntries at the
  /// dissolver's commit index (prev_log_index/prev_log_term, leader_commit)
  /// and carrying any committed entries the straggler asked for: the
  /// straggler applies the group's committed log through that index and
  /// dissolves it too. `success` marks a reply to kDissolvedTailRequest.
  kGroupDissolved,
  /// Straggler -> dissolver: our log does not match a kGroupDissolved
  /// anchor; send the committed entries after our commit index
  /// (leader_commit).
  kDissolvedTailRequest,
};

struct WireMsg {
  GroupId group = 0;
  MsgType type = MsgType::kAppendEntries;
  Term term = 0;

  // RequestVote
  LogIndex last_log_index = 0;
  Term last_log_term = 0;

  // VoteReply
  bool vote_granted = false;

  // AppendEntries
  LogIndex prev_log_index = 0;
  Term prev_log_term = 0;
  LogIndex leader_commit = 0;
  std::vector<LogEntry> entries;

  // AppendReply
  bool success = false;
  LogIndex match_index = 0;

  // InstallSnapshot: opaque state-machine snapshot (the owner's registered
  // payload type; may be empty when the state machine is external, e.g. the
  // reliable-broadcast groups whose deliveries are covered by a
  // Canopus-level snapshot). prev_log_index/prev_log_term double as the
  // last included index/term.
  simnet::Payload snapshot;
  std::size_t snapshot_bytes = 0;

  /// Wire size estimate: fixed header + payload bytes of carried entries
  /// (or the carried snapshot).
  std::size_t wire_bytes() const {
    std::size_t b = 64 + snapshot_bytes;
    for (const LogEntry& e : entries) b += 16 + e.bytes;
    return b;
  }
};

}  // namespace canopus::raft

CANOPUS_REGISTER_PAYLOAD(canopus::raft::WireMsg, kRaftWire);
