// Crash/corruption battery for the QorStore storage engine. Durability is
// the whole point of the store — the paper's framework spends ~95% of its
// wall-clock producing labels — so every claim in docs/qor-store.md is
// pinned here by injection, not asserted:
//
//  * SIGKILL mid-compaction at each injected sync point must leave a
//    readable store: the old view or the new view, never loss, and the
//    next compaction pass completes the fold;
//  * a single flipped bit anywhere in a segment or MANIFEST must raise a
//    typed QorStoreError (whole-file CRC: shared files are written once,
//    damage there is corruption, not a torn tail);
//  * a single flipped bit anywhere in a log must yield a clean stop — a
//    loaded prefix of bit-correct records — never a wrong QoR (per-record
//    CRC: logs do have torn tails, the loader heals around them);
//  * a compaction pass doubles as a sibling sync: records a foreign
//    writer appended after attach are folded in by the rescan.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/qor_store.hpp"
#include "util/failpoint.hpp"

#if defined(__SANITIZE_THREAD__)
#define FLOWGEN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLOWGEN_TSAN 1
#endif
#endif

namespace flowgen::core {
namespace {

namespace fs = std::filesystem;

struct Record {
  aig::Fingerprint design;
  StepsKey steps;
  map::QoR qor;
};

/// Deterministic, registry-valid (paper ids 0..5) record set: every
/// length-1..3 sequence over a few ids, one synthetic design per stripe.
std::vector<Record> seed_records(std::size_t n) {
  std::vector<Record> out;
  std::vector<StepsKey> keys;
  for (opt::StepId a = 0; a < 6; ++a) {
    keys.push_back({a});
    for (opt::StepId b = 0; b < 6; ++b) {
      keys.push_back({a, b});
      keys.push_back({a, b, static_cast<opt::StepId>((a + b) % 6)});
    }
  }
  for (std::size_t i = 0; i < n && i < keys.size(); ++i) {
    Record r;
    r.design = {1 + i / 16, 0x9e3779b9ull + i / 16};
    r.steps = keys[i];
    r.qor = map::QoR{1.5 * static_cast<double>(i) + 0.25,
                     40.0 + static_cast<double>(i), i + 7, i % 5};
    out.push_back(std::move(r));
  }
  return out;
}

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("flowgen_compaction_" + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_records(const std::string& dir, const std::string& writer,
                   const std::vector<Record>& records) {
  QorStore store({dir, writer, false, nullptr, {}});
  for (const Record& r : records) {
    ASSERT_TRUE(store.append(r.design, StepsView(r.steps), r.qor));
  }
  store.flush();
}

/// Every seeded record present and bit-correct — the "never loss, never
/// wrong" invariant all crash points must preserve.
void expect_all_present(QorStore& store, const std::vector<Record>& records) {
  EXPECT_EQ(store.size(), records.size());
  for (const Record& r : records) {
    const auto hit = store.lookup(r.design, StepsView(r.steps));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, r.qor);
  }
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

fs::path find_segment(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".qorseg") return entry.path();
  }
  ADD_FAILURE() << "no .qorseg in " << dir;
  return {};
}

// ------------------------------------------------------- crash injection --

// SIGKILL the process at each sync point inside compact(). The parent
// stays single-threaded until after every fork, so this battery is safe
// under TSan too (unlike the multi-threaded service forks).
TEST(QorCompactionCrashTest, SigkillAtEverySyncPointNeverLosesARecord) {
  const std::vector<Record> records = seed_records(48);
  const char* const points[] = {"segment_written", "manifest_tmp",
                                "manifest_committed", "log_reset"};
  for (const char* point : points) {
    SCOPED_TRACE(point);
    const fs::path dir = fresh_dir(std::string("crash_") + point);
    write_records(dir.string(), "seed", records);

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: compact, dying by SIGKILL the instant the target point is
      // reached. No gtest machinery here — only _exit codes.
      try {
        QorStoreConfig config;
        config.dir = dir.string();
        config.writer_name = "compactor";
        config.compaction_sync_hook = [point](const char* name) {
          if (std::strcmp(name, point) == 0) {
            ::kill(::getpid(), SIGKILL);
          }
        };
        QorStore victim(std::move(config));
        victim.compact();
      } catch (...) {
        ::_exit(2);
      }
      ::_exit(1);  // the sync point never fired
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Old view or new view — every record, bit for bit, either way.
    {
      QorStore reader({dir.string(), "reader", false, nullptr, {}});
      expect_all_present(reader, records);
      // The interrupted fold finishes on the next pass (the dead child's
      // flock died with it)...
      const QorStore::CompactionResult done = reader.compact();
      EXPECT_TRUE(done.performed);
      EXPECT_EQ(done.records, records.size());
      EXPECT_GE(reader.epoch(), 1u);
      expect_all_present(reader, records);
    }
    // ...and the post-recovery directory serves a segment-backed attach.
    QorStore after({dir.string(), "reader2", false, nullptr, {}});
    expect_all_present(after, records);
    EXPECT_GE(after.stats().segments_loaded, 1u);
    EXPECT_EQ(after.stats().segment_records_loaded, records.size());
  }
}

// The `manifest_committed` row of the crash table with the compactor's
// records in its own log: the committed manifest claims only that log's
// header, so the next attach re-reads every record the new segment also
// holds, and each must count once.
TEST(QorCompactionCrashTest,
     OwnLogReReadAfterManifestCommitCountsEachRecordOnce) {
  const std::vector<Record> records = seed_records(48);
  const fs::path dir = fresh_dir("crash_own_log");
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    try {
      QorStoreConfig config;
      config.dir = dir.string();
      config.writer_name = "writer";
      config.compaction_sync_hook = [](const char* name) {
        if (std::strcmp(name, "manifest_committed") == 0) {
          ::kill(::getpid(), SIGKILL);
        }
      };
      QorStore victim(std::move(config));
      for (const Record& r : records) {
        if (!victim.append(r.design, StepsView(r.steps), r.qor)) ::_exit(3);
      }
      victim.compact();
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(1);  // the sync point never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_GT(fs::file_size(dir / "writer.qorlog"), 8u) << "log already reset";

  QorStore reader({dir.string(), "reader", false, nullptr, {}});
  expect_all_present(reader, records);
  EXPECT_EQ(reader.stats().segment_records_loaded, records.size());
  EXPECT_EQ(reader.stats().records_loaded, records.size());
  const QorStore::CompactionResult done = reader.compact();
  EXPECT_TRUE(done.performed);
  EXPECT_EQ(done.records, records.size());
  expect_all_present(reader, records);
}

// Same battery through the failpoint framework: the compaction sync points
// double as "store.compact" sites keyed by the point name, so the harness
// path used by chaos runs (`store.compact=crash@key=...`, settable from the
// command line or admin socket) must kill at exactly the same place the
// in-process hook does — and recovery must hold just the same.
TEST(QorCompactionCrashTest, FailpointCrashAtSyncPointNeverLosesARecord) {
#ifdef FLOWGEN_NO_FAILPOINTS
  GTEST_SKIP() << "failpoint sites compiled out (-DFLOWGEN_FAILPOINTS=OFF)";
#else
  const std::vector<Record> records = seed_records(48);
  const fs::path dir = fresh_dir("crash_failpoint");
  write_records(dir.string(), "seed", records);

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    try {
      util::failpoint::configure("store.compact", "crash@key=manifest_tmp");
      QorStore victim({dir.string(), "compactor", false, nullptr, {}});
      victim.compact();
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(1);  // the armed sync point never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  QorStore reader({dir.string(), "reader", false, nullptr, {}});
  expect_all_present(reader, records);
  const QorStore::CompactionResult done = reader.compact();
  EXPECT_TRUE(done.performed);
  EXPECT_EQ(done.records, records.size());
  expect_all_present(reader, records);
#endif
}

// --------------------------------------------------------- byte-flip fuzz --

// Shared files (segments, MANIFEST) are written once and never truncated:
// any flipped bit is real corruption and must be a typed QorStoreError,
// never a partial or wrong answer.
TEST(QorCompactionFuzzTest, EverySegmentByteFlipIsATypedError) {
  const std::vector<Record> records = seed_records(12);
  const fs::path dir = fresh_dir("fuzz_segment");
  {
    QorStore store({dir.string(), "seed", false, nullptr, {}});
    for (const Record& r : records) {
      ASSERT_TRUE(store.append(r.design, StepsView(r.steps), r.qor));
    }
    ASSERT_TRUE(store.compact().performed);
  }
  {
    // Pristine baseline (also creates fuzz.qorlog so later attaches are
    // pure readers of an unchanged directory).
    QorStore store({dir.string(), "fuzz", false, nullptr, {}});
    expect_all_present(store, records);
  }
  const fs::path segment = find_segment(dir);
  const std::vector<std::uint8_t> pristine = slurp(segment);
  ASSERT_GT(pristine.size(), 44u);
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    spit(segment, bytes);
    EXPECT_THROW(QorStore({dir.string(), "fuzz", false, nullptr, {}}),
                 QorStoreError)
        << "segment byte " << pos << " flipped silently";
  }
  spit(segment, pristine);
  QorStore healed({dir.string(), "fuzz", false, nullptr, {}});
  expect_all_present(healed, records);
}

TEST(QorCompactionFuzzTest, EveryManifestByteFlipIsATypedError) {
  const std::vector<Record> records = seed_records(12);
  const fs::path dir = fresh_dir("fuzz_manifest");
  {
    QorStore store({dir.string(), "seed", false, nullptr, {}});
    for (const Record& r : records) {
      ASSERT_TRUE(store.append(r.design, StepsView(r.steps), r.qor));
    }
    ASSERT_TRUE(store.compact().performed);
  }
  const fs::path manifest = dir / "MANIFEST";
  const std::vector<std::uint8_t> pristine = slurp(manifest);
  ASSERT_GT(pristine.size(), 20u);
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    spit(manifest, bytes);
    EXPECT_THROW(QorStore({dir.string(), "fuzz", false, nullptr, {}}),
                 QorStoreError)
        << "MANIFEST byte " << pos << " flipped silently";
  }
  spit(manifest, pristine);
  QorStore healed({dir.string(), "fuzz", false, nullptr, {}});
  expect_all_present(healed, records);
}

// Logs are different: they legitimately have torn tails, so the loader
// stops at the first invalid record. A flip may cost records after the
// flip point (clean stop) — it must never yield a record whose bits
// differ from what was appended.
TEST(QorCompactionFuzzTest, LogByteFlipsStopCleanlyOrThrowNeverLie) {
  const std::vector<Record> records = seed_records(12);
  const fs::path dir = fresh_dir("fuzz_log");
  write_records(dir.string(), "seed", records);
  const fs::path log = dir / "seed.qorlog";
  const std::vector<std::uint8_t> pristine = slurp(log);
  std::size_t clean_stops = 0;
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    spit(log, bytes);
    try {
      // "fuzz" is a foreign reader of seed.qorlog: the loader must not
      // modify (heal/truncate) a file it does not own.
      QorStore store({dir.string(), "fuzz", false, nullptr, {}});
      EXPECT_LE(store.size(), records.size());
      if (store.size() < records.size()) ++clean_stops;
      for (const Record& r : records) {
        const auto hit = store.lookup(r.design, StepsView(r.steps));
        if (hit.has_value()) {
          EXPECT_EQ(*hit, r.qor)
              << "log byte " << pos << " flipped into a WRONG QoR";
        }
      }
    } catch (const QorStoreError&) {
      ++clean_stops;  // typed refusal is as good as a clean stop
    }
    EXPECT_EQ(slurp(log), bytes)
        << "a reader modified a foreign log (byte " << pos << ")";
  }
  // Most flips land in CRC-protected record bytes; the scan must actually
  // have been stopping, not sailing through corrupt data.
  EXPECT_GT(clean_stops, pristine.size() / 2);
  spit(log, pristine);
  QorStore healed({dir.string(), "fuzz2", false, nullptr, {}});
  expect_all_present(healed, records);
}

// ------------------------------------------------------------ sibling sync --

TEST(QorCompactionTest, CompactionRescanAdoptsForeignRecordsAppendedSinceAttach) {
  const std::vector<Record> records = seed_records(8);
  const fs::path dir = fresh_dir("sibling");
  QorStore a({dir.string(), "a", false, nullptr, {}});
  QorStore b({dir.string(), "b", false, nullptr, {}});
  ASSERT_EQ(b.size(), 0u);

  // A labels after B attached: B cannot see them through its index...
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    ASSERT_TRUE(a.append(records[i].design, StepsView(records[i].steps),
                         records[i].qor));
  }
  a.flush();
  EXPECT_FALSE(b.lookup(records[0].design, StepsView(records[0].steps))
                   .has_value());

  // ...until B compacts: the under-lock rescan folds A's log into both
  // B's index and the new segment.
  const QorStore::CompactionResult folded = b.compact();
  ASSERT_TRUE(folded.performed);
  EXPECT_EQ(folded.records, records.size() - 1);
  EXPECT_GE(folded.logs_folded, 2u);  // a.qorlog and b.qorlog
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    const auto hit = b.lookup(records[i].design, StepsView(records[i].steps));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, records[i].qor);
  }

  // A keeps appending to its (now watermarked) log; a fresh reader merges
  // segment + post-watermark tail and sees everything.
  const Record& last = records.back();
  ASSERT_TRUE(a.append(last.design, StepsView(last.steps), last.qor));
  a.flush();
  QorStore reader({dir.string(), "reader", false, nullptr, {}});
  expect_all_present(reader, records);
  EXPECT_GE(reader.stats().segments_loaded, 1u);
}

// Two compactors, one directory: the flock serialises them — the loser
// returns performed=false instead of double-folding or deadlocking.
TEST(QorCompactionTest, ConcurrentCompactorsSerialiseOnTheLockFile) {
  const std::vector<Record> records = seed_records(6);
  const fs::path dir = fresh_dir("lock");
  write_records(dir.string(), "seed", records);

  // Hold the lock from a forked child, parked until the parent signals.
  int to_child[2];
  int to_parent[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(to_parent), 0);
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    char byte = 0;
    try {
      QorStoreConfig config;
      config.dir = dir.string();
      config.writer_name = "holder";
      config.compaction_sync_hook = [&](const char* name) {
        if (std::strcmp(name, "segment_written") == 0) {
          // Lock held, segment on disk, manifest not yet committed: tell
          // the parent to try compacting now, and wait for its verdict.
          (void)!::write(to_parent[1], "g", 1);
          (void)!::read(to_child[0], &byte, 1);
        }
      };
      QorStore holder(std::move(config));
      const bool performed = holder.compact().performed;
      ::_exit(performed ? 0 : 3);
    } catch (...) {
      ::_exit(2);
    }
  }
  char byte = 0;
  ASSERT_EQ(::read(to_parent[0], &byte, 1), 1);
  {
    QorStore rival({dir.string(), "rival", false, nullptr, {}});
    EXPECT_FALSE(rival.compact().performed) << "flock did not serialise";
  }
  ASSERT_EQ(::write(to_child[1], "k", 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(to_child[0]);
  ::close(to_child[1]);
  ::close(to_parent[0]);
  ::close(to_parent[1]);

  // After the child's commit, the rival's next pass sees nothing stale.
  QorStore reader({dir.string(), "reader", false, nullptr, {}});
  expect_all_present(reader, records);
  EXPECT_GE(reader.epoch(), 1u);
}

}  // namespace
}  // namespace flowgen::core
