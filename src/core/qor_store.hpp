#pragma once
// Persistent labeled-QoR store: a directory of per-writer append logs plus
// compacted, CRC-footered segment files. Segment records stay in their
// sorted on-disk layout and answer lookups by binary search. At attach every
// log tail is read into one buffer and sorted into a run in segment order,
// deduplicated against the segments by a merge, so attach hashes nothing;
// only records this process appends afterwards go into a cuckoo index over
// (design fingerprint, packed flow key). Labeling runs survive process
// restarts and multiple coordinators share one label set. The paper's
// framework spends ~95% of its wall-clock producing these labels; this
// store guarantees no (design, flow) pair is ever paid for twice, across
// restarts, machines and coordinators.
//
// Layout: a store is a *directory*; every writer appends to its own
// `<writer>.qorlog` file and a `compact()` pass folds every log (and any
// previous segment) into one sorted `seg-<epoch>.qorseg` segment named by
// a binary MANIFEST, committed by atomic rename so readers see either the
// old view or the new one, never half of each. One log file has exactly
// one writer, which is what makes sharing safe without any locking
// protocol between writers; compactors serialise on a flock'd lock file.
// Records are CRC-32-stamped (per record in logs, whole-file in segments)
// and the log loader stops at the first invalid record (torn tail from a
// crash), truncating its own file there so the log heals — only when
// there actually is a torn tail; a clean attach performs no write.
// docs/qor-store.md is the normative format description.
//
// Thread-safety: all public methods are safe to call concurrently; one
// mutex serialises index and file access (appends are rare and small next
// to the synthesis work that produces them). A batch of keys takes it once
// (lookup_sorted), not once per key.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/cuckoo_index.hpp"
#include "core/flow.hpp"
#include "map/qor.hpp"
#include "util/failpoint.hpp"

namespace flowgen::core {

/// Raised when the store directory or the writer's own log file cannot be
/// created/opened/written, or when shared state (a segment, the MANIFEST)
/// is corrupt — shared files are written once and never truncated, so
/// damage there is never a torn tail to heal but real corruption.
/// Unreadable *foreign* log files are skipped with a warning instead — a
/// sibling coordinator's crash must not take this one down.
class QorStoreError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

struct QorStoreConfig {
  /// Store directory; created (with parents) when missing.
  std::string dir;
  /// Log-file stem this store appends to ("<dir>/<writer_name>.qorlog").
  /// Empty picks "w<pid>-<k>", unique per process *and* per store
  /// instance. Two live writers must not share a name; reusing a name
  /// across runs is fine and resumes that file.
  std::string writer_name;
  /// fsync after every append. Off, a crash can lose the last few records
  /// (the OS flushes eventually); recovery still reads everything flushed.
  bool fsync_each_append = false;
  /// The transform alphabet whose step ids this store's records are keyed
  /// by; null = the paper registry. Paper-registry stores write the
  /// original v1 file format byte for byte; any other alphabet stamps its
  /// fingerprint into a v2 header. Loading a directory that contains a log
  /// written under a *different* alphabet throws QorStoreError — labels
  /// must never silently change meaning.
  std::shared_ptr<const opt::TransformRegistry> registry;
  /// Test-only: invoked at named sync points inside compact()
  /// ("segment_written", "manifest_tmp", "manifest_committed",
  /// "log_reset") so crash-injection tests can SIGKILL the process at a
  /// chosen instant. Null in production.
  std::function<void(const char*)> compaction_sync_hook;
};

struct QorStoreStats {
  std::size_t files_loaded = 0;    ///< *.qorlog files read at startup
  std::size_t records_loaded = 0;  ///< valid records across those files
  std::size_t tail_bytes_dropped = 0;  ///< bytes discarded at torn tails
  std::size_t appends = 0;         ///< records this process wrote
  std::size_t lookups = 0;
  std::size_t hits = 0;
  // -- segment/compaction era (appended; aggregate-init of the fields
  //    above stays source-compatible) --
  std::size_t segments_loaded = 0;  ///< .qorseg files read at attach
  std::size_t segment_records_loaded = 0;  ///< records bulk-loaded from them
  std::size_t log_truncations = 0;  ///< own-log torn tails healed
  std::size_t compactions = 0;      ///< compact() passes that committed
};

class QorStore {
public:
  /// One compact() outcome. `performed == false` means another process
  /// held the compaction lock or there was nothing to fold — both benign.
  struct CompactionResult {
    bool performed = false;
    std::uint64_t epoch = 0;      ///< manifest epoch after the pass
    std::size_t records = 0;      ///< records in the segment written
    std::size_t logs_folded = 0;  ///< .qorlog files folded/watermarked
  };

  /// Open (creating if needed) the store at `config.dir`: read the
  /// MANIFEST when present, attach its segments, then read every
  /// `*.qorlog` past its manifest watermark into one sorted run. Segment
  /// attach is CRC + structural validation plus an offset scan only, and
  /// the log tails are sorted once and merged against the segments, so
  /// nothing is hashed per record; segment and run records answer lookups
  /// by binary search, and the cuckoo index starts empty.
  /// Throws QorStoreError when the directory or the writer file cannot
  /// be set up, or when a segment/manifest is corrupt.
  explicit QorStore(QorStoreConfig config);
  ~QorStore();

  QorStore(const QorStore&) = delete;
  QorStore& operator=(const QorStore&) = delete;

  /// QoR recorded for (design, flow), or nullopt. Never touches disk.
  std::optional<map::QoR> lookup(const aig::Fingerprint& design,
                                 StepsView steps) const;

  /// lookup() for a batch of `design`'s flows under one lock. The keys are
  /// flows[order[0]], flows[order[1]], ... (flows[0], flows[1], ... when
  /// `order` is empty); a key whose index `answered` already marks is
  /// skipped. A stored key's QoR is written to out[i] and marks answered[i];
  /// a miss leaves both alone. `out` and `answered` are indexed like
  /// `flows`. Keys in segment order (for one design, that is
  /// core::lexicographic_order) make each segment and run one galloping
  /// merge: its cursor only moves forward, 1, 2, 4, ... entries at a time.
  /// Keys out of that order are still answered correctly: a key below the
  /// entry before a cursor restarts that cursor at the front. Counts one
  /// lookup per key looked up and one hit per stored key, the totals of a
  /// lookup() per key. Returns the number of hits.
  std::size_t lookup_sorted(const aig::Fingerprint& design,
                            std::span<const Flow> flows,
                            std::span<const std::size_t> order,
                            std::span<map::QoR> out,
                            std::vector<bool>& answered) const;

  /// Record one label: appended to this writer's log (one write syscall,
  /// CRC-stamped) and indexed. Returns false without writing when the key
  /// is already present — evaluation is pure, so a duplicate carries no
  /// new information. Throws QorStoreError if the write fails.
  bool append(const aig::Fingerprint& design, StepsView steps,
              const map::QoR& qor);

  /// Fold every log (and any previous segment) into one fresh sorted
  /// segment, commit a new MANIFEST (atomic rename), delete the stale
  /// segments and reset this writer's log. The segment is one merge of
  /// what is already sorted (segments, runs and the index's records), each
  /// entry copied verbatim. Serialised across processes by
  /// flock on `<dir>/COMPACT.lock` — a busy lock returns
  /// `performed == false` instead of blocking. Also adopts any foreign-log
  /// records appended since attach (the pre-fold rescan), so a compaction
  /// doubles as a sibling sync. Throws QorStoreError, with nothing written,
  /// when the segment's entries would pass the 4 GiB its u32 offsets
  /// address; the store keeps serving every record from its runs.
  CompactionResult compact();

  /// Total records held (segments, runs and index, deduplicated).
  std::size_t size() const;
  QorStoreStats stats() const;
  CuckooIndexStats index_stats() const;
  /// Manifest epoch this store last loaded or committed (0 = no manifest).
  std::uint64_t epoch() const;

  /// fsync the writer's log file.
  void flush();

  /// Full path of the log file this process appends to.
  const std::string& writer_path() const { return writer_path_; }

  /// The store directory (fleet siblings — QUARANTINE, COMPACT.lock —
  /// live next to the logs and segments).
  const std::string& dir() const { return config_.dir; }

  /// Fingerprint of the alphabet this store's records are keyed by.
  const opt::RegistryFingerprint& registry_fingerprint() const {
    return registry_->fingerprint();
  }
  const std::shared_ptr<const opt::TransformRegistry>& registry() const {
    return registry_;
  }

private:
  struct Manifest {
    std::uint64_t epoch = 0;
    std::vector<std::string> segments;  ///< basenames
    std::vector<std::pair<std::string, std::uint64_t>> logs;  ///< watermarks
  };

  /// Owning byte buffer for one attached segment or run: the mmap'd file
  /// on the segment attach path (no copy, no zero-fill; the pages are
  /// clean, evictable and shared across processes attaching the same
  /// store) or `heap`, which holds a run's log tails or the segment
  /// compact() itself just wrote.
  struct SegmentBuffer {
    std::uint8_t* data = nullptr;
    std::size_t size = 0;
    std::size_t mapped = 0;  ///< bytes to munmap; 0 = `heap` owns them
    std::vector<std::uint8_t> heap;
    SegmentBuffer() = default;
    explicit SegmentBuffer(std::vector<std::uint8_t> bytes)
        : heap(std::move(bytes)) {
      data = heap.data();
      size = heap.size();
    }
    SegmentBuffer(SegmentBuffer&& other) noexcept { swap(other); }
    SegmentBuffer& operator=(SegmentBuffer&& other) noexcept {
      swap(other);
      return *this;
    }
    SegmentBuffer(const SegmentBuffer&) = delete;
    SegmentBuffer& operator=(const SegmentBuffer&) = delete;
    ~SegmentBuffer();
    void swap(SegmentBuffer& other) noexcept {
      std::swap(data, other.data);
      std::swap(size, other.size);
      std::swap(mapped, other.mapped);
      heap.swap(other.heap);
    }
  };

  /// Sorted entries searched by binary search: an attached segment file,
  /// held verbatim (`buf` is the whole CRC-verified file, `offsets` the
  /// start of each entry, read from the file's own offset table), or a
  /// run (`buf` holds log records back to back, `offsets` the payloads
  /// that survived deduplication, in segment order). Neither builds index
  /// entries, which is what keeps attaching a 10^6-record catalogue at
  /// read speed. Offsets are u32, so a segment's entries and a run's
  /// buffer stay within 4 GiB.
  struct Segment {
    SegmentBuffer buf;
    std::vector<std::uint32_t> offsets;
    const std::uint8_t* data() const { return buf.data; }
  };

  /// Log records read but not yet sorted into a run (defined in the .cpp).
  struct PendingRun;
  /// What reading one log found: its valid bytes (header included) and
  /// its size on disk.
  struct LogScan {
    std::string name;  ///< basename
    std::uint64_t valid = 0;
    std::uint64_t file_size = 0;
  };

  /// Read every `*.qorlog` (in name order) past its watermark in
  /// `manifest` and add their records as one run; one LogScan per log.
  std::vector<LogScan> load_logs_locked(
      const std::optional<Manifest>& manifest);
  /// Read one log file from `start` (manifest watermark or header) into
  /// `run`; returns bytes of valid data and sets `file_size` to the bytes
  /// on disk. Invalid tails are counted, not fatal.
  std::uint64_t load_file(const std::string& path, std::uint64_t start,
                          std::uint64_t& file_size, PendingRun& run);
  /// Sort `run` into segment order, drop every record already held (an
  /// earlier duplicate in the run, a segment or run entry, an index entry)
  /// and push the rest onto `segments_`; leaves `run` empty.
  void add_run_locked(PendingRun& run);
  /// Attach one segment; throws QorStoreError on any corruption.
  void load_segment(const std::string& path);
  /// Pointer to the segment or run entry for (design, steps), or null.
  const std::uint8_t* segment_find_locked(const aig::Fingerprint& design,
                                          StepsView steps) const;
  /// Index first, then every segment and run — the store-wide point
  /// lookup.
  std::optional<map::QoR> find_locked(const aig::Fingerprint& design,
                                      StepsView steps) const;
  std::size_t segment_records_locked() const;
  /// Parse `<dir>/MANIFEST`; nullopt when absent, throws when corrupt.
  std::optional<Manifest> read_manifest() const;
  void write_fresh_header_locked();
  /// Compaction sync points are failpoints first ("store.compact" keyed by
  /// the point name, so `store.compact=crash@key=manifest_tmp` kills the
  /// process at that instant) with the legacy in-process hook kept for
  /// tests that need same-process synchronisation rather than injection.
  void sync_point(const char* name) const {
    FLOWGEN_FAILPOINT_KEYED("store.compact", name);
    if (config_.compaction_sync_hook) config_.compaction_sync_hook(name);
  }

  mutable std::mutex mutex_;
  QorStoreConfig config_;
  std::shared_ptr<const opt::TransformRegistry> registry_;
  std::string writer_path_;
  int fd_ = -1;
  /// This process's appends since attach or its last compact(); disjoint
  /// from segments_.
  CuckooIndex index_;
  std::vector<Segment> segments_;  ///< segments and runs, searched in order
  std::uint64_t epoch_ = 0;
  mutable QorStoreStats stats_;  ///< lookups/hits tick under the mutex
};

}  // namespace flowgen::core
