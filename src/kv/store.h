// Replicated key-value state machine + commit audit trail.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
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
/// Layout: an open-addressing table of {key, value} slots plus one control
/// byte per slot — power-of-two capacity, linear probing after a murmur3
/// fmix64 hash, doubled when an insert would push the load past 7/8. A
/// control byte is kFree for a free slot and otherwise the top 7 bits of
/// the key's hash, so a probe scans the dense byte array and reads a slot
/// only when its tag matches: a read of an absent key normally reads no
/// slot, and an insert of a new key writes only the slot it fills. Keys
/// are never erased, so there are no tombstones, and every 2^64 key is an
/// ordinary key.
class Store {
 public:
  void apply(const Request& w) {
    if (w.is_write) put(w.key, w.value);
  }

  std::uint64_t read(std::uint64_t key) const {
    if (cap_ == 0) return 0;
    const std::size_t i = find(key, hash(key));
    return ctrl()[i] == kFree ? 0 : slots()[i].value;
  }

  std::size_t size() const { return used_; }

  StoreImage export_image() const {
    StoreImage img;
    img.reserve(used_);
    for (std::size_t i = 0; i < cap_; ++i)
      if (ctrl()[i] != kFree)
        img.emplace_back(slots()[i].key, slots()[i].value);
    std::sort(img.begin(), img.end());
    return img;
  }

  void restore(const StoreImage& img) {
    reset(capacity_for(img.size()));
    for (const auto& [k, v] : img) put(k, v);
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t value;
  };

  static constexpr std::uint8_t kFree = 0x80;
  static constexpr std::size_t kMinCapacity = 16;

  static std::uint64_t hash(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }

  /// Control byte of an occupied slot: the hash's top 7 bits (the home slot
  /// comes from its low bits).
  static std::uint8_t tag(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57);
  }

  /// Smallest power-of-two capacity that holds n keys within 7/8 load.
  static std::size_t capacity_for(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (n > cap - cap / 8) cap *= 2;
    return cap;
  }

  std::size_t mask() const { return cap_ - 1; }

  std::size_t max_load() const { return cap_ - cap_ / 8; }

  /// The first cap/sizeof(Slot) slots of the block hold the control bytes.
  std::uint8_t* ctrl() const {
    return reinterpret_cast<std::uint8_t*>(block_.get());
  }
  Slot* slots() const { return block_.get() + cap_ / sizeof(Slot); }

  void put(std::uint64_t key, std::uint64_t value) {
    const std::uint64_t h = hash(key);
    if (cap_ != 0) {
      const std::size_t i = find(key, h);
      if (ctrl()[i] != kFree) {
        slots()[i].value = value;
        return;
      }
      if (used_ < max_load()) {
        insert_at(i, h, key, value);
        return;
      }
    }
    grow();
    insert_at(find_free(h), h, key, value);
  }

  void insert_at(std::size_t i, std::uint64_t h, std::uint64_t key,
                 std::uint64_t value) {
    ctrl()[i] = tag(h);
    slots()[i] = {key, value};
    ++used_;
  }

  /// Index of the slot holding `key`, or of the free slot where it belongs.
  /// The table always keeps at least capacity/8 slots free, so the probe
  /// terminates.
  std::size_t find(std::uint64_t key, std::uint64_t h) const {
    const std::uint8_t t = tag(h);
    const std::uint8_t* c = ctrl();
    std::size_t i = h & mask();
    for (;; i = (i + 1) & mask()) {
      if (c[i] == t) {
        if (slots()[i].key == key) return i;
      } else if (c[i] == kFree) {
        return i;
      }
    }
  }

  /// First free slot of the probe sequence of hash `h`.
  std::size_t find_free(std::uint64_t h) const {
    std::size_t i = h & mask();
    while (ctrl()[i] != kFree) i = (i + 1) & mask();
    return i;
  }

  /// Empties the table and sizes it to `cap` slots. The block is kept when
  /// it already has that capacity (a replica restoring a snapshot of its own
  /// size) and replaced in one allocation otherwise. Only the control bytes
  /// are initialized; a slot is written before its control byte marks it
  /// occupied.
  void reset(std::size_t cap) {
    if (cap != cap_) {
      block_ = std::make_unique_for_overwrite<Slot[]>(cap + cap / sizeof(Slot));
      cap_ = cap;
    }
    used_ = 0;
    std::memset(ctrl(), kFree, cap);
  }

  void grow() {
    const std::unique_ptr<Slot[]> old = std::move(block_);
    const std::size_t old_cap = cap_;
    const std::size_t used = used_;
    const auto* old_ctrl = reinterpret_cast<const std::uint8_t*>(old.get());
    const Slot* old_slots = old.get() + old_cap / sizeof(Slot);
    reset(std::max(kMinCapacity, 2 * old_cap));
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old_ctrl[i] == kFree) continue;
      const std::size_t j = find_free(hash(old_slots[i].key));
      ctrl()[j] = old_ctrl[i];
      slots()[j] = old_slots[i];
    }
    used_ = used;
  }

  std::unique_ptr<Slot[]> block_;  ///< control bytes, then the slots
  std::size_t cap_ = 0;            ///< slots (a power of two, or 0)
  std::size_t used_ = 0;           ///< occupied slots
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
