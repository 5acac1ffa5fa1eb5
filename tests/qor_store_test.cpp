// Tests for the persistent labeled-QoR store (core/qor_store.hpp):
// append/reload round-trips with exact doubles, torn-tail crash recovery,
// multi-writer directory sharing, and the contract that justifies the
// subsystem — a second labeling run served entirely from the store, with
// zero flow evaluations.

#include "core/qor_store.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "designs/registry.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace flowgen::core {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under the gtest tmp root.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "flowgen_qor_" + tag + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

StepsKey steps(std::initializer_list<int> kinds) {
  StepsKey out;
  for (const int k : kinds) out.push_back(static_cast<opt::StepId>(k));
  return out;
}

TEST(QorStoreTest, AppendReloadRoundTripsExactly) {
  const std::string dir = fresh_dir("roundtrip");
  const aig::Fingerprint design_a = {1, 2};
  const aig::Fingerprint design_b = {3, 4};
  const map::QoR qor_a{123.456789012345, 9876.54321098765, 42, 7};
  const map::QoR qor_b{0.0, -1.5, 0, 0};
  const map::QoR qor_c{1e-300, 1e300, 1000000, 3};
  {
    QorStore store({dir, "writer", false, nullptr, {}});
    EXPECT_TRUE(store.append(design_a, steps({0, 3, 5}), qor_a));
    EXPECT_TRUE(store.append(design_a, steps({}), qor_b));  // empty flow
    EXPECT_TRUE(store.append(design_b, steps({0, 3, 5}), qor_c));
    // Same key again: no new record, evaluation is pure.
    EXPECT_FALSE(store.append(design_a, steps({0, 3, 5}), qor_a));
    EXPECT_EQ(store.size(), 3u);
  }
  QorStore reloaded({dir, "writer", false, nullptr, {}});
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(reloaded.stats().records_loaded, 3u);
  // Bit patterns survive the disk trip: field-exact equality.
  const auto a = reloaded.lookup(design_a, steps({0, 3, 5}));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, qor_a);
  EXPECT_EQ(*reloaded.lookup(design_a, steps({})), qor_b);
  EXPECT_EQ(*reloaded.lookup(design_b, steps({0, 3, 5})), qor_c);
  // The same flow under the other design is a distinct key.
  EXPECT_NE(*reloaded.lookup(design_b, steps({0, 3, 5})), qor_a);
  EXPECT_FALSE(reloaded.lookup({9, 9}, steps({0, 3, 5})).has_value());
}

TEST(QorStoreTest, TornFinalRecordIsIgnoredAndHealed) {
  const std::string dir = fresh_dir("torn");
  const aig::Fingerprint design = {5, 6};
  {
    QorStore store({dir, "writer", false, nullptr, {}});
    store.append(design, steps({1}), map::QoR{1.0, 2.0, 3, 4});
    store.append(design, steps({2}), map::QoR{5.0, 6.0, 7, 8});
  }
  const std::string log = dir + "/writer.qorlog";
  // Simulate a crash mid-append: chop the last record in half.
  const auto full_size = fs::file_size(log);
  fs::resize_file(log, full_size - 20);

  {
    QorStore recovered({dir, "writer", false, nullptr, {}});
    EXPECT_EQ(recovered.size(), 1u);
    EXPECT_TRUE(recovered.lookup(design, steps({1})).has_value());
    EXPECT_FALSE(recovered.lookup(design, steps({2})).has_value());
    EXPECT_GT(recovered.stats().tail_bytes_dropped, 0u);
    // The writer truncated the tear away; appending resumes cleanly.
    EXPECT_TRUE(recovered.append(design, steps({3}), map::QoR{9.0, 1.0, 1, 1}));
  }
  QorStore healed({dir, "writer", false, nullptr, {}});
  EXPECT_EQ(healed.size(), 2u);
  EXPECT_EQ(healed.stats().tail_bytes_dropped, 0u);
  EXPECT_TRUE(healed.lookup(design, steps({3})).has_value());
}

TEST(QorStoreTest, CleanAttachNeverRewritesTheLog) {
  // Reattaching to a log whose every byte is valid must be a pure read:
  // no truncate, no write, mtime untouched. (The old writer truncated to
  // the consumed prefix on every attach — an fsync-able write per open and
  // a data hazard if another writer shared the stem.)
  const std::string dir = fresh_dir("cleanattach");
  const aig::Fingerprint design = {21, 22};
  {
    QorStore store({dir, "writer", false, nullptr, {}});
    store.append(design, steps({0, 1}), map::QoR{1.0, 2.0, 3, 4});
    store.append(design, steps({2}), map::QoR{5.0, 6.0, 7, 8});
  }
  const std::string log = dir + "/writer.qorlog";
  // Back-date the log so any write (truncate included) is visible.
  struct timespec old_times[2];
  old_times[0].tv_sec = old_times[1].tv_sec = 1000000000;  // 2001
  old_times[0].tv_nsec = old_times[1].tv_nsec = 0;
  ASSERT_EQ(::utimensat(AT_FDCWD, log.c_str(), old_times, 0), 0);
  const auto mtime_before = fs::last_write_time(log);
  const auto size_before = fs::file_size(log);
  {
    QorStore reattached({dir, "writer", false, nullptr, {}});
    EXPECT_EQ(reattached.size(), 2u);
    EXPECT_EQ(reattached.stats().log_truncations, 0u);
  }
  EXPECT_EQ(fs::last_write_time(log), mtime_before);
  EXPECT_EQ(fs::file_size(log), size_before);

  // Negative control: a garbage tail must still be truncated away exactly
  // once, which of course touches the file.
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    out.write("garbage!", 8);
  }
  ASSERT_EQ(::utimensat(AT_FDCWD, log.c_str(), old_times, 0), 0);
  {
    QorStore healed({dir, "writer", false, nullptr, {}});
    EXPECT_EQ(healed.size(), 2u);
    EXPECT_EQ(healed.stats().log_truncations, 1u);
    EXPECT_GT(healed.stats().tail_bytes_dropped, 0u);
  }
  EXPECT_EQ(fs::file_size(log), size_before);
}

TEST(QorStoreTest, CrcCorruptionStopsTheScan) {
  const std::string dir = fresh_dir("crc");
  const aig::Fingerprint design = {7, 8};
  {
    QorStore store({dir, "writer", false, nullptr, {}});
    store.append(design, steps({0}), map::QoR{1.0, 1.0, 1, 1});
    store.append(design, steps({1}), map::QoR{2.0, 2.0, 2, 2});
    store.append(design, steps({2}), map::QoR{3.0, 3.0, 3, 3});
  }
  const std::string log = dir + "/writer.qorlog";
  {
    // Flip one payload byte of the middle record. Each record here is 59
    // bytes (8-byte record header + 50-byte fixed payload + 1 step), after
    // the 8-byte file header.
    std::vector<char> bytes;
    {
      std::ifstream in(log, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(bytes.size(), 8u + 3 * 59u);
    bytes[8 + 59 + 8 + 30] ^= 0x55;  // mid-payload of record 2
    std::ofstream out(log, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  // Stop-at-first-invalid semantics: record 1 survives, 2 and 3 do not —
  // a boundary cannot be trusted past a failed CRC.
  QorStore recovered({dir, "reader", false, nullptr, {}});
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_GT(recovered.stats().tail_bytes_dropped, 0u);
}

TEST(QorStoreTest, TwoWritersShareOneDirectory) {
  const std::string dir = fresh_dir("shared");
  const aig::Fingerprint design = {11, 12};
  {
    QorStore a({dir, "coord-a", false, nullptr, {}});
    a.append(design, steps({0, 1}), map::QoR{1.0, 2.0, 3, 4});
  }
  {
    // A second coordinator starts later and sees a's labels immediately…
    QorStore b({dir, "coord-b", false, nullptr, {}});
    EXPECT_TRUE(b.lookup(design, steps({0, 1})).has_value());
    b.append(design, steps({2, 3}), map::QoR{5.0, 6.0, 7, 8});
  }
  // …and any future reader merges both logs.
  QorStore merged({dir, "coord-c", false, nullptr, {}});
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.stats().files_loaded, 2u);
  EXPECT_TRUE(merged.lookup(design, steps({0, 1})).has_value());
  EXPECT_TRUE(merged.lookup(design, steps({2, 3})).has_value());
}

// The acceptance bar: a completed labeling run re-executed against its
// store performs *zero* flow evaluations and reproduces every label.
TEST(QorStoreTest, SecondLabelingRunIsServedEntirelyFromStore) {
  const std::string dir = fresh_dir("warm");
  const FlowSpace space(2);
  util::Rng rng(3);
  const std::vector<Flow> flows = space.sample_unique(60, rng);

  std::vector<map::QoR> first_qor;
  {
    SynthesisEvaluator evaluator(designs::make_design("alu:4"));
    evaluator.attach_store(
        std::make_shared<QorStore>(QorStoreConfig{dir, "run1", false, nullptr, {}}));
    first_qor = evaluator.evaluate_many(flows);
    EXPECT_EQ(evaluator.evaluations(), flows.size());
  }
  // Fresh process (modelled by a fresh evaluator), same store directory.
  SynthesisEvaluator rerun(designs::make_design("alu:4"));
  rerun.attach_store(
      std::make_shared<QorStore>(QorStoreConfig{dir, "run2", false, nullptr, {}}));
  const std::vector<map::QoR> second_qor = rerun.evaluate_many(flows);
  EXPECT_EQ(rerun.evaluations(), 0u) << "labels must come from the store";
  ASSERT_EQ(second_qor.size(), first_qor.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(second_qor[i], first_qor[i]) << "label diverges at " << i;
  }
  // A different design in the same store stays isolated: nothing warms.
  SynthesisEvaluator other(designs::make_design("mont:8"));
  other.attach_store(
      std::make_shared<QorStore>(QorStoreConfig{dir, "run3", false, nullptr, {}}));
  other.evaluate(flows[0]);
  EXPECT_EQ(other.evaluations(), 1u);
}

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// A v1 log written byte by byte (docs/qor-store.md), so it can hold what
/// append() refuses to write: a key twice, with two QoRs.
class LogWriter {
public:
  LogWriter() {
    put_le(bytes_, 0x46514F52, 4);  // "FQOR"
    put_le(bytes_, 1, 4);           // version 1, reserved bytes
  }

  void add(const aig::Fingerprint& design, const StepsKey& steps,
           const map::QoR& qor) {
    std::vector<std::uint8_t> payload;
    put_le(payload, design[0], 8);
    put_le(payload, design[1], 8);
    put_le(payload, steps.size(), 2);
    payload.insert(payload.end(), steps.begin(), steps.end());
    put_le(payload, std::bit_cast<std::uint64_t>(qor.area_um2), 8);
    put_le(payload, std::bit_cast<std::uint64_t>(qor.delay_ps), 8);
    put_le(payload, qor.num_cells, 8);
    put_le(payload, qor.num_inverters, 8);
    put_le(bytes_, util::crc32(payload), 4);
    put_le(bytes_, payload.size(), 4);
    bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
  }

private:
  std::vector<std::uint8_t> bytes_;
};

// First record wins at every level: a segment over every log, log `a` over
// log `b` (name order), and within a file the earlier record over the
// later. Keys run over four designs and 3..14 steps, left-padded with step
// 0, so many share their first 12 step bytes; the logs are shuffled, so
// loading sorts them and merges them with the 20k-entry segment.
TEST(QorStoreTest, AttachKeepsTheFirstRecordOfEveryKey) {
  const std::string dir = fresh_dir("firstwins");
  const auto design = [](std::size_t i) {
    return aig::Fingerprint{0x1000 * (i % 4) + 7, 0x5eed - i % 4};
  };
  const auto flow = [](std::size_t i) {
    std::size_t j = i / 4;
    StepsKey digits;
    for (; j > 0; j /= 6) digits.insert(digits.begin(), j % 6);
    StepsKey out(std::max<std::size_t>(digits.size(), 3 + i / 4 % 12), 0);
    std::copy(digits.begin(), digits.end(), out.end() - digits.size());
    return out;
  };
  // Version v of key i's QoR: 0 in the segment, 1 and 2 in log a, 3 in b.
  const auto qor = [](std::size_t i, int v) {
    return map::QoR{static_cast<double>(i) + 0.25 * v, 100.0 + v, i,
                    static_cast<std::size_t>(v)};
  };
  constexpr std::size_t kSegment = 20000;
  constexpr std::size_t kLogA = 25000;  // a's new keys: [kSegment, kLogA)
  constexpr std::size_t kLogB = 26000;  // b's new keys: [kLogA, kLogB)
  {
    QorStore seed({dir, "seed", false, nullptr, {}});
    for (std::size_t i = 0; i < kSegment; ++i) {
      ASSERT_TRUE(seed.append(design(i), flow(i), qor(i, 0)));
    }
    ASSERT_TRUE(seed.compact().performed);
  }
  util::Rng rng(7);
  std::vector<std::size_t> a_keys;
  for (std::size_t i = 0; i < kLogA; ++i) {
    if (i >= kSegment || i % 7 == 3) a_keys.push_back(i);
  }
  std::shuffle(a_keys.begin(), a_keys.end(), rng);
  std::vector<std::size_t> a_repeats;
  for (std::size_t i = kSegment; i < kLogA; i += 5) a_repeats.push_back(i);
  std::shuffle(a_repeats.begin(), a_repeats.end(), rng);
  LogWriter a;
  for (const std::size_t i : a_keys) a.add(design(i), flow(i), qor(i, 1));
  for (const std::size_t i : a_repeats) a.add(design(i), flow(i), qor(i, 2));
  a.write(dir + "/a.qorlog");
  std::vector<std::size_t> b_keys;
  for (std::size_t i = 0; i < kLogB; ++i) {
    if (i >= kLogA || i % 3 == 0) b_keys.push_back(i);
  }
  std::shuffle(b_keys.begin(), b_keys.end(), rng);
  LogWriter b;
  for (const std::size_t i : b_keys) b.add(design(i), flow(i), qor(i, 3));
  b.write(dir + "/b.qorlog");

  const auto expect_first_records = [&](QorStore& store) {
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kLogB; ++i) {
      const int v = i < kSegment ? 0 : i < kLogA ? 1 : 3;
      const auto hit = store.lookup(design(i), flow(i));
      if (!hit || *hit != qor(i, v)) ++wrong;
    }
    EXPECT_EQ(wrong, 0u);
  };
  QorStore reader({dir, "reader", false, nullptr, {}});
  EXPECT_EQ(reader.size(), kLogB);
  EXPECT_EQ(reader.stats().records_loaded,
            a_keys.size() + a_repeats.size() + b_keys.size());
  expect_first_records(reader);
  // Keys held by the segment and by the run are not appended again. A new
  // key goes into the index, and compact()'s rescan, which reads it back
  // from the log, must not count it twice.
  EXPECT_FALSE(reader.append(design(5), flow(5), qor(5, 4)));
  EXPECT_FALSE(reader.append(design(kSegment), flow(kSegment), qor(0, 4)));
  EXPECT_FALSE(reader.append(design(kLogA), flow(kLogA), qor(0, 4)));
  EXPECT_TRUE(reader.append(design(kLogB), flow(kLogB), qor(kLogB, 4)));
  EXPECT_EQ(reader.size(), kLogB + 1);
  expect_first_records(reader);

  const QorStore::CompactionResult folded = reader.compact();
  ASSERT_TRUE(folded.performed);
  EXPECT_EQ(folded.records, kLogB + 1);
  EXPECT_EQ(reader.size(), kLogB + 1);
  expect_first_records(reader);
  QorStore compacted({dir, "reader2", false, nullptr, {}});
  EXPECT_EQ(compacted.size(), kLogB + 1);
  expect_first_records(compacted);
  EXPECT_EQ(compacted.lookup(design(kLogB), flow(kLogB)), qor(kLogB, 4));
}

// lookup_sorted answers every key as lookup() does, and counts what a
// lookup() per key counts, on a store holding a segment, a run read from
// two logs and appends in the index, each beside records of neighbouring
// designs. The keys are every flow of up to 4 steps (stored ones, and
// absent ones below, between and above them, prefixes and extensions of
// stored ones, the empty flow), some 5-step extensions, repeats, keys the
// caller already answered, and two keys moved out of order.
TEST(QorStoreTest, SortedBatchLookupMatchesPointLookups) {
  const std::string dir = fresh_dir("batch");
  const aig::Fingerprint design = {0x5000, 7};
  const aig::Fingerprint neighbours[] = {{0x4000, 7}, {0x5000, 6},
                                         {0x5000, 8}, {0x6000, 0}};
  std::vector<Flow> keys{Flow{}};
  std::size_t count = 1;
  for (std::size_t len = 1; len <= 4; ++len) {
    count *= 6;
    for (std::size_t c = 0; c < count; ++c) {
      StepsKey digits(len);
      std::size_t x = c;
      for (auto it = digits.rbegin(); it != digits.rend(); ++it, x /= 6) {
        *it = static_cast<opt::StepId>(x % 6);
      }
      keys.push_back(Flow{digits});
    }
  }
  // Where a flow is stored: 0-1 the segment, 2 log a, 3 log b, 4 the index,
  // 5-6 nowhere (the empty flow among them).
  const auto where = [](const Flow& f) {
    return f.steps.empty() ? 5 : StepsHash{}(f.steps) % 7;
  };
  const auto label = [](const Flow& f) {
    return map::QoR{static_cast<double>(StepsHash{}(f.steps) % 1000), 1.0,
                    f.steps.size(), 3};
  };
  const auto is_stored = [&](const Flow& f) {
    return f.steps.size() <= 4 && where(f) < 5;
  };
  const std::size_t universe = keys.size();
  const auto write = [&](const std::string& writer, std::size_t from,
                         std::size_t to, bool compact) {
    QorStore store({dir, writer, false, nullptr, {}});
    for (std::size_t i = 0; i < universe; ++i) {
      const std::size_t w = where(keys[i]);
      if (w < from || w > to) continue;
      ASSERT_TRUE(store.append(design, keys[i].steps, label(keys[i])));
      store.append(neighbours[i % 4], keys[i].steps, label(keys[0]));
    }
    if (compact) {
      ASSERT_TRUE(store.compact().performed);
    }
  };
  write("seed", 0, 1, true);
  write("a", 2, 2, false);
  write("b", 3, 3, false);
  for (std::size_t i = 0; i < universe; i += 7) {
    StepsKey longer = keys[i].steps;
    longer.resize(5, static_cast<opt::StepId>(i % 6));
    keys.push_back(Flow{longer});
  }
  keys.push_back(Flow{steps({5, 5, 5, 5, 5, 5})});
  for (std::size_t i = 3; i < universe; i += 97) keys.push_back(keys[i]);

  std::vector<std::size_t> order = lexicographic_order(keys);
  // Two stored keys, one in the segment and one in the run, move to the
  // end of the batch, each below the key before it.
  for (const std::size_t store_at : {0u, 2u}) {
    const auto moved = std::find_if(
        order.begin() + static_cast<std::ptrdiff_t>(order.size() / 3),
        order.end(),
        [&](std::size_t i) { return where(keys[i]) == store_at; });
    ASSERT_NE(moved, order.end());
    const std::size_t i = *moved;
    order.erase(moved);
    order.push_back(i);
  }

  const map::QoR sentinel{-1.0, -1.0, 0, 0};
  const auto check = [&](QorStore& store) {
    std::vector<map::QoR> out(keys.size());
    std::vector<bool> answered(keys.size());
    std::size_t skipped = 0;
    for (std::size_t k = 0; k < order.size(); k += 50, ++skipped) {
      answered[order[k]] = true;
      out[order[k]] = sentinel;
    }
    const QorStoreStats before = store.stats();
    const std::size_t hits =
        store.lookup_sorted(design, keys, order, out, answered);
    const QorStoreStats batch = store.stats();
    std::size_t wrong = 0;
    std::size_t stored = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      if (k % 50 == 0) {
        if (!answered[i] || out[i] != sentinel) ++wrong;
        continue;
      }
      const std::optional<map::QoR> point = store.lookup(design, keys[i].steps);
      const std::optional<map::QoR> got =
          answered[i] ? std::optional<map::QoR>(out[i]) : std::nullopt;
      if (got != point) ++wrong;
      if (point) ++stored;
      if (point.has_value() != is_stored(keys[i])) ++wrong;
    }
    EXPECT_EQ(wrong, 0u);
    EXPECT_EQ(hits, stored);
    const QorStoreStats after = store.stats();
    EXPECT_EQ(batch.lookups - before.lookups, keys.size() - skipped);
    EXPECT_EQ(batch.lookups - before.lookups, after.lookups - batch.lookups);
    EXPECT_EQ(batch.hits - before.hits, after.hits - batch.hits);

    // Already in order, the batch needs no permutation.
    std::vector<Flow> sorted;
    for (const std::size_t i : lexicographic_order(keys)) {
      sorted.push_back(keys[i]);
    }
    std::vector<bool> in_order(sorted.size());
    EXPECT_EQ(store.lookup_sorted(design, sorted, {}, out, in_order),
              static_cast<std::size_t>(
                  std::count_if(keys.begin(), keys.end(), is_stored)));
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (in_order[i] && out[i] != label(sorted[i])) ++wrong;
    }
    EXPECT_EQ(wrong, 0u);
  };

  QorStore reader({dir, "reader", false, nullptr, {}});
  for (std::size_t i = 0; i < universe; ++i) {
    if (where(keys[i]) != 4) continue;
    ASSERT_TRUE(reader.append(design, keys[i].steps, label(keys[i])));
    reader.append(neighbours[i % 4], keys[i].steps, label(keys[0]));
  }
  EXPECT_EQ(reader.stats().segments_loaded, 1u);
  EXPECT_GT(reader.index_stats().entries, 0u);
  {
    SCOPED_TRACE("segment, run and index");
    check(reader);
  }
  ASSERT_TRUE(reader.compact().performed);
  {
    SCOPED_TRACE("compacted");
    check(reader);
  }
  QorStore reattached({dir, "reader2", false, nullptr, {}});
  {
    SCOPED_TRACE("re-attached");
    check(reattached);
  }
}

// Batch lookups on one thread while another appends and compacts: every
// answer is a miss or the record its key was stored with, and every key
// stored before the race is found throughout.
TEST(QorStoreTest, BatchLookupsRaceAppendsAndCompactions) {
  const std::string dir = fresh_dir("batchrace");
  const aig::Fingerprint design = {0x77, 0x88};
  util::Rng rng(11);
  const std::vector<Flow> flows = FlowSpace(1).sample_unique(300, rng);
  const auto label = [](const Flow& f) {
    return map::QoR{static_cast<double>(StepsHash{}(f.steps) % 4096), 2.0,
                    f.steps.size(), 1};
  };
  constexpr std::size_t kBefore = 100;
  QorStore store({dir, "writer", false, nullptr, {}});
  for (std::size_t i = 0; i < kBefore; ++i) {
    ASSERT_TRUE(store.append(design, flows[i].steps, label(flows[i])));
  }
  ASSERT_TRUE(store.compact().performed);
  const std::vector<std::size_t> order = lexicographic_order(flows);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = kBefore; i < flows.size(); ++i) {
      store.append(design, flows[i].steps, label(flows[i]));
      if (i % 40 == 0) store.compact();
    }
    done.store(true);
  });
  std::size_t wrong = 0;
  const auto round = [&] {
    std::vector<map::QoR> out(flows.size());
    std::vector<bool> answered(flows.size());
    const std::size_t found =
        store.lookup_sorted(design, flows, order, out, answered);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (answered[i] ? out[i] != label(flows[i]) : i < kBefore) ++wrong;
    }
    return found;
  };
  for (std::size_t rounds = 0; !done.load() || rounds < 3; ++rounds) round();
  writer.join();
  EXPECT_EQ(round(), flows.size());
  EXPECT_EQ(wrong, 0u);
}

TEST(QorStoreTest, RejectsUnusableDirectory) {
  EXPECT_THROW(QorStore({"", "w", false, nullptr, {}}), QorStoreError);
  EXPECT_THROW(QorStore({"/proc/definitely/not/writable", "w", false, nullptr, {}}),
               QorStoreError);
}

}  // namespace
}  // namespace flowgen::core
