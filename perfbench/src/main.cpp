// perfbench_run: runs one benchmark workload once and prints a JSON report
// as its last line of standard output (perfbench/run.py aggregates runs).
//
//   perfbench_run --workload NAME --seed N [--mode full|plain|traced]
//                 [--serial 0|1] [--audit 0|1] [--trace-out PATH]
//
// Exit status: 0 when the correctness gate passed, 1 when it failed, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "simnet/payload.h"
#include "trace.h"
#include "workloads.h"

// Counting replacement operator new: every heap allocation of the process.
#include "bench/alloc_count.h"

namespace perfbench {

std::uint64_t alloc_count() { return canopus::bench::heap_allocations(); }

const char* tag_name(canopus::simnet::PayloadTag t) {
  using canopus::simnet::PayloadTag;
  switch (t) {
    case PayloadTag::kInvalid: return "Invalid";
    case PayloadTag::kRaftWire: return "RaftWire";
    case PayloadTag::kRaftKvBatch: return "RaftKvBatch";
    case PayloadTag::kRaftKvForward: return "RaftKvForward";
    case PayloadTag::kRaftKvSnapshot: return "RaftKvSnapshot";
    case PayloadTag::kCanopusProposal: return "CanopusProposal";
    case PayloadTag::kCanopusProposalRequest: return "CanopusProposalRequest";
    case PayloadTag::kCanopusJoinRequest: return "CanopusJoinRequest";
    case PayloadTag::kCanopusJoinAck: return "CanopusJoinAck";
    case PayloadTag::kKvClientBatch: return "KvClientBatch";
    case PayloadTag::kKvReplyBatch: return "KvReplyBatch";
    case PayloadTag::kZabForward: return "ZabForward";
    case PayloadTag::kZabPropose: return "ZabPropose";
    case PayloadTag::kZabAck: return "ZabAck";
    case PayloadTag::kZabCommit: return "ZabCommit";
    case PayloadTag::kZabInform: return "ZabInform";
    case PayloadTag::kZabSyncReq: return "ZabSyncReq";
    case PayloadTag::kZabSnapshot: return "ZabSnapshot";
    case PayloadTag::kZabSyncTooOld: return "ZabSyncTooOld";
    case PayloadTag::kEpaxosPreAccept: return "EpaxosPreAccept";
    case PayloadTag::kEpaxosPreAcceptOk: return "EpaxosPreAcceptOk";
    case PayloadTag::kEpaxosCommit: return "EpaxosCommit";
    case PayloadTag::kEpaxosFetch: return "EpaxosFetch";
    case PayloadTag::kEpaxosCommitFull: return "EpaxosCommitFull";
    case PayloadTag::kEpaxosSeqProbe: return "EpaxosSeqProbe";
    case PayloadTag::kEpaxosSeqInfo: return "EpaxosSeqInfo";
    case PayloadTag::kEpaxosSnapRequest: return "EpaxosSnapRequest";
    case PayloadTag::kEpaxosSnapshot: return "EpaxosSnapshot";
    case PayloadTag::kSwitchFrame: return "SwitchFrame";
    case PayloadTag::kTestText:
    case PayloadTag::kTestInt:
    case PayloadTag::kTestChar: return "Test";
  }
  return "Unknown";
}

const char* tag_layer(canopus::simnet::PayloadTag t) {
  using canopus::simnet::PayloadTag;
  switch (t) {
    case PayloadTag::kRaftWire:
    case PayloadTag::kRaftKvBatch:
    case PayloadTag::kRaftKvForward:
    case PayloadTag::kRaftKvSnapshot: return "raft/rbcast";
    case PayloadTag::kCanopusProposal:
    case PayloadTag::kCanopusProposalRequest:
    case PayloadTag::kCanopusJoinRequest:
    case PayloadTag::kCanopusJoinAck: return "canopus";
    case PayloadTag::kKvClientBatch:
    case PayloadTag::kKvReplyBatch: return "kv";
    case PayloadTag::kZabForward:
    case PayloadTag::kZabPropose:
    case PayloadTag::kZabAck:
    case PayloadTag::kZabCommit:
    case PayloadTag::kZabInform:
    case PayloadTag::kZabSyncReq:
    case PayloadTag::kZabSnapshot:
    case PayloadTag::kZabSyncTooOld: return "zab";
    case PayloadTag::kEpaxosPreAccept:
    case PayloadTag::kEpaxosPreAcceptOk:
    case PayloadTag::kEpaxosCommit:
    case PayloadTag::kEpaxosFetch:
    case PayloadTag::kEpaxosCommitFull:
    case PayloadTag::kEpaxosSeqProbe:
    case PayloadTag::kEpaxosSeqInfo:
    case PayloadTag::kEpaxosSnapRequest:
    case PayloadTag::kEpaxosSnapshot: return "epaxos";
    case PayloadTag::kSwitchFrame: return "rbcast";
    case PayloadTag::kInvalid:
    case PayloadTag::kTestText:
    case PayloadTag::kTestInt:
    case PayloadTag::kTestChar: break;
  }
  return "other";
}

}  // namespace perfbench

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c == '\n' ? ' ' : c);
  }
  std::putchar('"');
}

void print_map(const std::map<std::string, double>& m) {
  std::putchar('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::putchar('}');
}

void print_list(const std::vector<double>& v) {
  std::putchar('[');
  for (std::size_t i = 0; i < v.size(); ++i)
    std::printf("%s%.9f", i ? ", " : "", v[i]);
  std::putchar(']');
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload NAME --seed N "
               "[--mode full|plain|traced] [--serial 0|1] [--audit 0|1] "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--mode") {
      if (v == "full") opt.mode = perfbench::Mode::kFull;
      else if (v == "plain") opt.mode = perfbench::Mode::kPlain;
      else if (v == "traced") opt.mode = perfbench::Mode::kTraced;
      else return usage();
    } else if (a == "--serial") {
      opt.serial = v != "0";
    } else if (a == "--audit") {
      opt.audit = v != "0";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty()) return usage();

  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 2;
  }
  for (const auto& note : rep.notes) std::printf("# %s\n", note.c_str());
  for (const auto& err : rep.errors) std::printf("# GATE FAILED: %s\n", err.c_str());

  std::printf("{\"ok\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"run_wall_s\": %.9f, \"proxies\": %llu, \"e2e\": ",
              rep.ok ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), rep.run_wall_s,
              static_cast<unsigned long long>(rep.proxies));
  print_map(rep.e2e);
  std::printf(", \"layer\": ");
  print_map(rep.layer);
  std::printf(", \"setup_parts\": ");
  print_list(rep.setup_parts);
  std::printf(", \"run_parts\": ");
  print_list(rep.run_parts);
  std::printf(", \"setup_ref\": ");
  print_list(rep.setup_ref);
  std::printf(", \"run_ref\": ");
  print_list(rep.run_ref);
  std::printf(", \"win_p50\": ");
  print_list(rep.win_p50);
  std::printf(", \"win_p99\": ");
  print_list(rep.win_p99);
  std::printf(", \"win_p999\": ");
  print_list(rep.win_p999);
  std::printf(", \"digest\": {");
  bool first = true;
  for (const auto& [k, v] : rep.digest) {
    std::printf("%s", first ? "" : ", ");
    print_json_string(k);
    std::printf(": ");
    print_json_string(v);
    first = false;
  }
  std::printf("}, \"errors\": [");
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (i) std::printf(", ");
    print_json_string(rep.errors[i]);
  }
  std::printf("]}\n");
  return rep.ok ? 0 : 1;
}
