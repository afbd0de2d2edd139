// Store, digests and wire sizes. The Store model tests drive the
// open-addressing table against a std::map reference; the allocation tests
// use the counting global operator new/delete hook from bench/alloc_count.h
// (replacement allocation functions must be defined in exactly one TU per
// binary — this test IS that TU for this binary).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "alloc_count.h"
#include "common/rng.h"
#include "kv/store.h"
#include "kv/types.h"

namespace canopus::kv {
namespace {

TEST(Store, ReadOfMissingKeyIsZero) {
  Store s;
  EXPECT_EQ(s.read(42), 0u);
  EXPECT_EQ(s.size(), 0u);
}

TEST(Store, ApplyWriteThenRead) {
  Store s;
  Request w;
  w.is_write = true;
  w.key = 7;
  w.value = 77;
  s.apply(w);
  EXPECT_EQ(s.read(7), 77u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Store, ApplyIgnoresReads) {
  Store s;
  Request r;
  r.is_write = false;
  r.key = 7;
  r.value = 99;
  s.apply(r);
  EXPECT_EQ(s.read(7), 0u);
}

TEST(Store, OverwriteKeepsLatest) {
  Store s;
  Request w;
  w.is_write = true;
  w.key = 1;
  for (std::uint64_t v = 1; v <= 5; ++v) {
    w.value = v;
    s.apply(w);
  }
  EXPECT_EQ(s.read(1), 5u);
  EXPECT_EQ(s.size(), 1u);
}

Request write_of(std::uint64_t key, std::uint64_t value) {
  Request w;
  w.is_write = true;
  w.key = key;
  w.value = value;
  return w;
}

constexpr std::uint64_t kSentinelKey = ~std::uint64_t{0};

/// Asserts `s` holds exactly `model`: size, the sorted image, and a read of
/// every model key.
void expect_matches(const Store& s,
                    const std::map<std::uint64_t, std::uint64_t>& model) {
  ASSERT_EQ(s.size(), model.size());
  const StoreImage want(model.begin(), model.end());
  ASSERT_EQ(s.export_image(), want);
  for (const auto& [k, v] : model) ASSERT_EQ(s.read(k), v) << "key " << k;
}

TEST(Store, SentinelKeyZeroKeyAndZeroValue) {
  Store s;
  EXPECT_EQ(s.read(kSentinelKey), 0u);
  s.apply(write_of(kSentinelKey, 0));
  s.apply(write_of(0, 0));
  // Present with value 0 is distinct from absent.
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.export_image(),
            (StoreImage{{0, 0}, {kSentinelKey, 0}}));
  s.apply(write_of(kSentinelKey, 9));
  s.apply(write_of(kSentinelKey - 1, 8));
  EXPECT_EQ(s.read(kSentinelKey), 9u);
  EXPECT_EQ(s.read(kSentinelKey - 1), 8u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.export_image(),
            (StoreImage{{0, 0}, {kSentinelKey - 1, 8}, {kSentinelKey, 9}}));
}

TEST(Store, RandomOpsMatchOrderedMapModel) {
  // Keys: the edge keys, multiples of large powers of two (equal low bits,
  // so they would share a home slot without the hash), small dense ints
  // and random 64-bit keys. Values are 0 a quarter of the time.
  Rng rng(20170712);
  std::vector<std::uint64_t> pool = {0, 1, kSentinelKey, kSentinelKey - 1};
  for (std::uint64_t i = 1; i <= 300; ++i) pool.push_back(i << 20);
  for (std::uint64_t i = 1; i <= 300; ++i) pool.push_back(i << 40);
  for (std::uint64_t i = 2; i < 300; ++i) pool.push_back(i);
  for (int i = 0; i < 600; ++i) pool.push_back(rng());

  Store s;
  std::map<std::uint64_t, std::uint64_t> model;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = pool[rng.below(pool.size())];
    Request r = write_of(key, rng.below(4) == 0 ? 0 : rng());
    r.is_write = rng.below(10) < 7;
    s.apply(r);
    if (r.is_write) model[key] = r.value;
    const auto it = model.find(key);
    ASSERT_EQ(s.read(key), it == model.end() ? 0 : it->second);
    ASSERT_EQ(s.size(), model.size());
    const StoreImage want(model.begin(), model.end());
    ASSERT_EQ(s.export_image(), want) << "step " << step;
  }
  expect_matches(s, model);
  for (std::uint64_t i = 301; i <= 400; ++i) EXPECT_EQ(s.read(i << 20), 0u);
}

TEST(Store, EveryGrowthBoundaryAndOverwriteAfterGrowth) {
  // Insert past each 7/8-load boundary of a 16-slot table doubled up to
  // 2^15 slots, checking the whole store one key before, at and after
  // every boundary; then overwrite every key in the grown table.
  Store s;
  std::map<std::uint64_t, std::uint64_t> model;
  std::vector<std::size_t> checks;
  for (std::size_t cap = 16; cap <= (1u << 15); cap *= 2) {
    const std::size_t limit = cap - cap / 8;
    checks.insert(checks.end(), {limit - 1, limit, limit + 1});
  }
  std::size_t next = 0;
  for (std::uint64_t i = 0; next < checks.size(); ++i) {
    const std::uint64_t key = i << 16;  // multiples of every capacity
    s.apply(write_of(key, i + 1));
    model[key] = i + 1;
    if (model.size() == checks[next]) {
      expect_matches(s, model);
      ++next;
    }
  }
  for (auto& [k, v] : model) {
    v = ~v;
    s.apply(write_of(k, v));
  }
  expect_matches(s, model);
}

TEST(Store, ExportRestoreRoundTrip) {
  Rng rng(5);
  Store src;
  std::map<std::uint64_t, std::uint64_t> model;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.below(3) == 0 ? rng.below(64) << 32 : rng();
    const std::uint64_t value = rng.below(5) == 0 ? 0 : rng();
    src.apply(write_of(key, value));
    model[key] = value;
  }
  src.apply(write_of(kSentinelKey, 0));
  model[kSentinelKey] = 0;
  const StoreImage img = src.export_image();

  Store fresh;
  fresh.restore(img);
  expect_matches(fresh, model);
  EXPECT_EQ(fresh.export_image(), img);

  // Restoring over a populated store replaces its contents entirely.
  Store used;
  for (std::uint64_t k = 0; k < 100; ++k) used.apply(write_of(k, k + 7));
  used.restore(img);
  expect_matches(used, model);

  // The restored table keeps accepting writes past its initial sizing.
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng();
    used.apply(write_of(key, i));
    model[key] = static_cast<std::uint64_t>(i);
  }
  expect_matches(used, model);

  used.restore(StoreImage{});
  EXPECT_EQ(used.size(), 0u);
  EXPECT_EQ(used.read(0), 0u);
  EXPECT_EQ(used.read(kSentinelKey), 0u);
  EXPECT_TRUE(used.export_image().empty());
}

/// murmur3 fmix64, the hash Store probes with: its low bits pick the home
/// slot and its top 7 bits are the slot's control-byte tag.
std::uint64_t store_hash(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

TEST(Store, KeysSharingHomeSlotAndTagStayDistinct) {
  // Keys whose hashes agree in the low 6 bits and the top 7 share both
  // their home slot and their tag in a 16-, 32- and 64-slot table, so only
  // the key comparison behind a tag match tells them apart. Half are
  // written, half only read (absent keys that match a resident tag).
  const auto same_slot_and_tag = [](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t ha = store_hash(a), hb = store_hash(b);
    return (ha & 63) == (hb & 63) && (ha >> 57) == (hb >> 57);
  };
  std::vector<std::uint64_t> twins = {12345};
  for (std::uint64_t k = 0; twins.size() < 16; ++k)
    if (k != twins[0] && same_slot_and_tag(k, twins[0])) twins.push_back(k);
  const std::vector<std::uint64_t> written(twins.begin(), twins.begin() + 8);
  const std::vector<std::uint64_t> absent(twins.begin() + 8, twins.end());

  Store s;
  std::map<std::uint64_t, std::uint64_t> model;
  const auto check = [&](const Store& st) {
    expect_matches(st, model);
    for (const std::uint64_t k : absent) ASSERT_EQ(st.read(k), 0u) << k;
  };
  // Each twin goes in beside filler keys, so the run of twins spans the
  // 16 -> 32 -> 64 growth boundaries; the store is checked after each.
  Rng rng(14);
  for (std::size_t i = 0; i < written.size(); ++i) {
    s.apply(write_of(written[i], i + 1));
    model[written[i]] = i + 1;
    check(s);
    for (int f = 0; f < 4; ++f) {
      const std::uint64_t key = rng();
      s.apply(write_of(key, key / 2));
      model[key] = key / 2;
      check(s);
    }
    // Overwrite an earlier twin: the update must land on its own slot.
    s.apply(write_of(written[i / 2], 100 + i));
    model[written[i / 2]] = 100 + i;
    check(s);
  }
  ASSERT_GT(model.size(), 28u) << "the 32-slot boundary was not crossed";

  // A restored table lays the twins out again from the sorted image.
  Store restored;
  restored.restore(s.export_image());
  check(restored);
  for (std::size_t i = 0; i < written.size(); ++i) {
    restored.apply(write_of(written[i], ~std::uint64_t{i}));
    model[written[i]] = ~std::uint64_t{i};
    check(restored);
  }
}

TEST(StoreAllocation, InsertsAllocateLogarithmicallyThenNothing) {
  // 14 and 1792 fill a 16- and a 2048-slot table exactly to its 7/8 load.
  for (const std::uint64_t n : {14u, 1000u, 1792u, 100000u}) {
    Store s;
    std::uint64_t before = canopus::bench::heap_allocations();
    for (std::uint64_t k = 0; k < n; ++k) s.apply(write_of(k * 977, k));
    const std::uint64_t inserts = canopus::bench::heap_allocations() - before;
    const auto log2n = static_cast<std::uint64_t>(std::bit_width(n - 1));
    EXPECT_LE(inserts, log2n + 2) << n << " inserts";

    before = canopus::bench::heap_allocations();
    std::uint64_t sum = 0;
    for (std::uint64_t k = 0; k < n; ++k) {
      s.apply(write_of(k * 977, k + 1));
      sum += s.read(k * 977);
      sum += s.read(k * 977 + 1);  // absent
    }
    EXPECT_EQ(canopus::bench::heap_allocations() - before, 0u)
        << "overwrites/reads of " << n << " resident keys allocated";
    EXPECT_EQ(sum, n * (n + 1) / 2);
    EXPECT_EQ(s.size(), n);
  }
}

TEST(StoreAllocation, RestoreSizesTheTableOnce) {
  Store src;
  for (std::uint64_t k = 0; k < 50000; ++k) src.apply(write_of(k, k));
  const StoreImage img = src.export_image();
  Store dst;
  const std::uint64_t before = canopus::bench::heap_allocations();
  dst.restore(img);
  EXPECT_EQ(canopus::bench::heap_allocations() - before, 1u);
  EXPECT_EQ(dst.size(), img.size());
}

TEST(StoreAllocation, RestoreReusesATableOfTheSameCapacity) {
  Store src;
  for (std::uint64_t k = 0; k < 50000; ++k) src.apply(write_of(k, k + 1));
  const StoreImage img = src.export_image();
  Store dst;
  for (std::uint64_t k = 0; k < 50000; ++k) dst.apply(write_of(k + 7, k));
  dst.restore(img);  // sizes the table for the image: a new block
  for (std::uint64_t k = 0; k < 50000; ++k) dst.apply(write_of(k + 9, 3));
  const std::uint64_t before = canopus::bench::heap_allocations();
  dst.restore(img);
  EXPECT_EQ(canopus::bench::heap_allocations() - before, 0u);
  EXPECT_EQ(dst.export_image(), img);
  for (std::uint64_t k = 0; k < 50000; ++k) EXPECT_EQ(dst.read(k), k + 1);
  EXPECT_EQ(dst.read(50000 + 8), 0u);  // written before the restore
}

TEST(CommitDigest, EqualForEqualSequences) {
  CommitDigest a, b;
  for (std::uint64_t i = 0; i < 10; ++i) {
    Request w;
    w.id = {static_cast<ClientId>(i), i};
    w.key = i;
    w.value = i * 3;
    a.append(w);
    b.append(w);
  }
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.count(), 10u);
}

TEST(CommitDigest, OrderSensitive) {
  Request x, y;
  x.key = 1;
  x.value = 10;
  y.key = 2;
  y.value = 20;
  CommitDigest a, b;
  a.append(x);
  a.append(y);
  b.append(y);
  b.append(x);
  EXPECT_FALSE(a == b);
}

TEST(CommitDigest, ContentSensitive) {
  Request x;
  x.key = 1;
  x.value = 10;
  CommitDigest a, b;
  a.append(x);
  x.value = 11;
  b.append(x);
  EXPECT_FALSE(a == b);
}

TEST(WireSizes, BatchesScaleWithContent) {
  ClientBatch cb;
  const auto empty = cb.wire_bytes();
  cb.reqs.resize(10);
  EXPECT_EQ(cb.wire_bytes(), empty + 10 * kRequestWire);

  ReplyBatch rb;
  const auto rempty = rb.wire_bytes();
  rb.done.resize(4);
  EXPECT_EQ(rb.wire_bytes(), rempty + 4 * 24);
}

TEST(RequestId, DefaultIsInvalidClient) {
  RequestId id;
  EXPECT_EQ(id.client, kInvalidNode);
  RequestId a{1, 2}, b{1, 2}, c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(b, c);
}

}  // namespace
}  // namespace canopus::kv
