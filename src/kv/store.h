// Replicated key-value state machine + commit audit trail.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "kv/types.h"

namespace canopus::kv {

/// Deterministic snapshot image of a Store: (key, value) pairs sorted by
/// key, so the image is independent of the table's slot order (and
/// therefore identical on every replica that holds the same state).
using StoreImage = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// The state machine every replica applies committed writes to.
///
/// Layout: one contiguous open-addressing table of {key, value} slots —
/// power-of-two capacity, linear probing after a murmur3 fmix64 hash,
/// doubled when an insert would push the load past 7/8. Keys are never
/// erased, so there are no tombstones. Key kEmpty marks a free slot; that
/// one key's entry is kept beside the table, so every 2^64 key is storable
/// and "present with value 0" stays distinct from "absent".
class Store {
 public:
  void apply(const Request& w) {
    if (w.is_write) put(w.key, w.value);
  }

  std::uint64_t read(std::uint64_t key) const {
    if (key == kEmpty) return empty_key_value_.value_or(0);
    if (slots_.empty()) return 0;
    const Slot& s = slots_[slot_of(key)];
    return s.key == key ? s.value : 0;
  }

  std::size_t size() const { return used_ + (empty_key_value_ ? 1 : 0); }

  StoreImage export_image() const {
    StoreImage img;
    img.reserve(size());
    for (const Slot& s : slots_)
      if (s.key != kEmpty) img.emplace_back(s.key, s.value);
    std::sort(img.begin(), img.end());
    // kEmpty is the largest key, so appending it keeps the image sorted.
    if (empty_key_value_) img.emplace_back(kEmpty, *empty_key_value_);
    return img;
  }

  void restore(const StoreImage& img) {
    slots_.assign(capacity_for(img.size()), Slot{});
    used_ = 0;
    empty_key_value_.reset();
    for (const auto& [k, v] : img) put(k, v);
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint64_t value = 0;
  };

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  static std::uint64_t hash(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }

  /// Smallest power-of-two capacity that holds n keys within 7/8 load.
  static std::size_t capacity_for(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (n > cap - cap / 8) cap *= 2;
    return cap;
  }

  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t max_load() const { return slots_.size() - slots_.size() / 8; }

  void put(std::uint64_t key, std::uint64_t value) {
    if (key == kEmpty) {
      empty_key_value_ = value;
      return;
    }
    if (!slots_.empty()) {
      Slot& s = slots_[slot_of(key)];
      if (s.key == key) {
        s.value = value;
        return;
      }
      if (used_ < max_load()) {
        s = {key, value};
        ++used_;
        return;
      }
    }
    grow();
    slots_[slot_of(key)] = {key, value};
    ++used_;
  }

  /// Index of the slot holding `key`, or of the free slot where it belongs.
  /// The table always keeps at least capacity/8 slots free, so the probe
  /// terminates.
  std::size_t slot_of(std::uint64_t key) const {
    std::size_t i = hash(key) & mask();
    while (slots_[i].key != key && slots_[i].key != kEmpty)
      i = (i + 1) & mask();
    return i;
  }

  void grow() {
    std::vector<Slot> old(std::max(kMinCapacity, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.key != kEmpty) slots_[slot_of(s.key)] = s;
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;  ///< occupied table slots (excludes key kEmpty)
  std::optional<std::uint64_t> empty_key_value_;  ///< entry of key kEmpty
};

/// Rolling digest of the committed write sequence. Two replicas that applied
/// the same writes in the same order have equal digests — integration tests
/// use this to assert the paper's Agreement property cheaply.
class CommitDigest {
 public:
  void append(const Request& w) {
    // FNV-1a over the identifying fields.
    auto mix = [this](std::uint64_t x) {
      hash_ ^= x;
      hash_ *= 0x100000001b3ULL;
    };
    mix(w.id.client);
    mix(w.id.seq);
    mix(w.key);
    mix(w.value);
    ++count_;
  }

  std::uint64_t value() const { return hash_; }
  std::uint64_t count() const { return count_; }

  /// Adopts another replica's digest state (snapshot install): subsequent
  /// appends continue the donor's chain exactly.
  void restore(std::uint64_t hash, std::uint64_t count) {
    hash_ = hash;
    count_ = count;
  }

  friend bool operator==(const CommitDigest&, const CommitDigest&) = default;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t count_ = 0;
};

/// Order-insensitive digest of a committed write *set*. EPaxos executes
/// non-interfering commands in whatever order their commits arrive locally,
/// so two replicas agree on the set of committed writes but not on a total
/// order — this is the agreement property its fault scenarios can check.
/// (Ordered systems — Canopus, Raft, Zab — use CommitDigest instead, which
/// also pins the order.)
class SetDigest {
 public:
  void append(const Request& w) {
    // Commutative accumulation (sum mod 2^64) of a per-record mix.
    std::uint64_t x = (std::uint64_t{w.id.client} << 32) ^ w.id.seq;
    x = (x ^ w.key * 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
    x ^= (w.value + 0x94d049bb133111ebULL) * 0x2545f4914f6cdd1dULL;
    x ^= x >> 33;
    sum_ += x;
    ++count_;
  }

  std::uint64_t value() const { return sum_; }
  std::uint64_t count() const { return count_; }

  /// Adopts another replica's digest state (snapshot install).
  void restore(std::uint64_t sum, std::uint64_t count) {
    sum_ = sum;
    count_ = count;
  }

  friend bool operator==(const SetDigest&, const SetDigest&) = default;

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
};

/// A complete state-machine snapshot: the KV image plus the digest states
/// needed so the receiver's audit chain continues the donor's exactly. The
/// image rides a shared_ptr — fanning a snapshot out to N receivers shares
/// one allocation, and copying the frame is O(1).
struct Snapshot {
  std::shared_ptr<const StoreImage> image;
  std::uint64_t digest_hash = 0;   ///< CommitDigest state (ordered systems)
  std::uint64_t digest_count = 0;
  std::uint64_t set_sum = 0;       ///< SetDigest state (EPaxos)
  std::uint64_t set_count = 0;

  std::size_t image_size() const { return image ? image->size() : 0; }
  /// Modeled wire size: 16 bytes per pair plus frame metadata.
  std::size_t wire_bytes() const { return 48 + 16 * image_size(); }
};

}  // namespace canopus::kv
