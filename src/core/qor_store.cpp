#include "core/qor_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"

namespace flowgen::core {

namespace {

/// Process-wide store telemetry; several stores sum into one series.
struct StoreMetrics {
  telemetry::Counter& appends;
  telemetry::Counter& lookups;
  telemetry::Counter& hits;
  telemetry::Counter& records_loaded;
  telemetry::Histogram& load_ms;
  telemetry::Counter& segment_records_loaded;
  telemetry::Counter& compactions;
  telemetry::Histogram& compact_ms;
};

StoreMetrics& store_metrics() {
  static StoreMetrics m{
      telemetry::counter("flowgen_qor_store_appends_total",
                         "Label records appended to the QoR store"),
      telemetry::counter("flowgen_qor_store_lookups_total",
                         "QoR store index lookups"),
      telemetry::counter("flowgen_qor_store_hits_total",
                         "QoR store index hits"),
      telemetry::counter("flowgen_qor_store_records_loaded_total",
                         "Label records loaded from .qorlog files"),
      telemetry::histogram("flowgen_qor_store_load_ms",
                           "Per-file .qorlog load+scan latency (ms)",
                           telemetry::default_ms_buckets()),
      telemetry::counter("flowgen_qor_store_segment_records_loaded_total",
                         "Label records bulk-loaded from .qorseg segments"),
      telemetry::counter("flowgen_qor_store_compactions_total",
                         "Compaction passes committed"),
      telemetry::histogram("flowgen_qor_store_compact_ms",
                           "Compaction pass latency (ms)",
                           telemetry::default_ms_buckets()),
  };
  return m;
}

// On-disk layout (little-endian; docs/qor-store.md is the normative spec):
//
// Per-writer log (<writer>.qorlog):
//   file header (8 bytes): u32 magic "FQOR", u8 version, u8 0, u16 0
//   v2 header only: u64 registry_fp[0], u64 registry_fp[1] (16 more bytes)
//   record:  u32 crc32(payload), u32 payload_len, payload
//   payload: u64 fp[0], u64 fp[1], u16 num_steps, steps bytes,
//            u64 bits(area_um2), u64 bits(delay_ps),
//            u64 num_cells, u64 num_inverters
// Version 1 carries no registry fingerprint and means "the paper alphabet";
// a store bound to the paper registry keeps writing v1 files bit for bit,
// so every pre-registry artifact stays valid and every new paper-registry
// file stays readable by old readers. Any other alphabet writes v2 headers.
//
// Compacted segment (seg-<epoch>.qorseg):
//   header (40 bytes): u32 magic "FQSG", u8 version, u8 0, u16 0,
//                      u64 registry_fp[0], u64 registry_fp[1],
//                      u64 epoch, u64 record_count
//   entries: record_count payloads (exact .qorlog payload layout, no
//            per-record framing), sorted by (design fp, steps), deduped
//   offset table: record_count u32 file offsets, one per entry in order —
//            attach validates this table against the entry chain instead
//            of parsing every entry, and lookups binary-search through it
//   footer: u32 crc32 over every preceding byte
// Segments always stamp the registry fingerprint (the paper registry's
// included) — they are a new format with no pre-registry readers to honor.
//
// MANIFEST (committed by rename(MANIFEST.tmp, MANIFEST)):
//   header (8 bytes): u32 magic "FQMF", u8 version, u8 0, u16 0
//   u64 registry_fp[0], u64 registry_fp[1], u64 epoch
//   u32 num_segments, then per segment: u16 name_len, name bytes
//   u32 num_logs, then per log: u16 name_len, name bytes,
//                               u64 consumed_bytes
//   footer: u32 crc32 over every preceding byte
// `consumed_bytes` is the log prefix already folded into the segments; a
// reader scans each log from its watermark (records below it would only
// dedup). No MANIFEST means epoch 0: plain per-writer logs, fully
// backward compatible.
constexpr std::uint32_t kStoreMagic = 0x46514F52;    // "FQOR"
constexpr std::uint32_t kSegmentMagic = 0x46515347;  // "FQSG"
constexpr std::uint32_t kManifestMagic = 0x46514D46;  // "FQMF"
constexpr std::uint8_t kStoreVersion = 1;
constexpr std::uint8_t kStoreVersionRegistry = 2;
constexpr std::uint8_t kSegmentVersion = 1;
constexpr std::uint8_t kManifestVersion = 1;
constexpr std::size_t kFileHeaderBytes = 8;
constexpr std::size_t kRegistryHeaderBytes = kFileHeaderBytes + 16;
constexpr std::size_t kRecordHeaderBytes = 8;
constexpr std::size_t kSegmentHeaderBytes = 40;
constexpr std::size_t kEntryFixedBytes = 50;
/// A payload is 50 bytes + one per step and steps are capped at 64Ki, so
/// 1 MiB rejects corrupt lengths without bounding real records.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
/// Segment entries and run payloads are addressed by u32 offsets, so a
/// segment's entries and a run's buffer end within this many bytes.
constexpr std::uint64_t kMaxOffsetBytes =
    std::numeric_limits<std::uint32_t>::max();

/// Internal: a manifest-listed segment file vanished mid-attach — a
/// concurrent compactor committed a newer manifest and deleted it. The
/// attach loop re-reads the manifest and retries; this never escapes.
struct SegmentMissing {};

void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  put_u16(b, static_cast<std::uint16_t>(v));
  put_u16(b, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
  put_u32(b, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(get_u16(p)) |
         (static_cast<std::uint32_t>(get_u16(p + 2)) << 16);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Read up to `n` bytes at file offset `at`; fewer only at end of file or
/// on an error.
std::size_t pread_full(int fd, std::uint8_t* out, std::size_t n,
                       std::uint64_t at) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r =
        ::pread(fd, out + done, n - done, static_cast<off_t>(at + done));
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;
  }
  return done;
}

/// Whole-file read of an fstat-sized buffer (the MANIFEST). Returns false
/// when the file does not exist.
bool read_whole_file(const std::string& path,
                     std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  out.resize(static_cast<std::size_t>(st.st_size));
  out.resize(pread_full(fd, out.data(), out.size(), 0));
  ::close(fd);
  return true;
}

void write_file_or_throw(const std::string& path,
                         const std::vector<std::uint8_t>& bytes,
                         bool sync) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw QorStoreError("QorStore: cannot create '" + path +
                        "': " + std::strerror(errno));
  }
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw QorStoreError("QorStore: write to '" + path +
                        "' failed: " + std::strerror(err));
  }
  if (sync) ::fsync(fd);
  ::close(fd);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Three-way compare of the segment entry at `e` against (design, steps),
/// in segment sort order: design fingerprint, then steps lexicographic.
int compare_entry(const std::uint8_t* e, const aig::Fingerprint& design,
                  StepsView steps) {
  const std::uint64_t d0 = get_u64(e);
  if (d0 != design[0]) return d0 < design[0] ? -1 : 1;
  const std::uint64_t d1 = get_u64(e + 8);
  if (d1 != design[1]) return d1 < design[1] ? -1 : 1;
  const std::uint16_t n = get_u16(e + 16);
  const std::size_t common = std::min<std::size_t>(n, steps.size());
  if (common > 0) {
    const int c = std::memcmp(e + 18, steps.data(), common);
    if (c != 0) return c < 0 ? -1 : 1;
  }
  if (n != steps.size()) return n < steps.size() ? -1 : 1;
  return 0;
}

aig::Fingerprint entry_design(const std::uint8_t* e) {
  return {get_u64(e), get_u64(e + 8)};
}

StepsView entry_steps(const std::uint8_t* e) {
  return StepsView(e + 18, get_u16(e + 16));
}

/// compare_entry of two encoded entries.
int compare_entries(const std::uint8_t* a, const std::uint8_t* b) {
  return compare_entry(a, entry_design(b), entry_steps(b));
}

/// A run's sort key: the design fingerprint and the first 12 step bytes,
/// big-endian and zero past the flow's end, packed as lexicographic_order
/// packs them. Where two keys differ their entries compare the same way (a
/// padding zero sorts a flow before the flows it is a prefix of); only
/// equal keys read the entries themselves.
struct RunKey {
  std::uint64_t design0 = 0;
  std::uint64_t design1 = 0;
  std::uint64_t head = 0;    ///< step bytes 0-7
  std::uint32_t tail = 0;    ///< step bytes 8-11
  std::uint32_t offset = 0;  ///< entry offset in its buffer
};
static_assert(sizeof(RunKey) == 32);

RunKey run_key(const std::uint8_t* data, std::uint32_t offset) {
  const std::uint8_t* e = data + offset;
  const std::uint8_t* steps = e + 18;
  std::uint8_t padded[12] = {};
  if (get_u16(e + 16) < 12) {
    std::memcpy(padded, steps, get_u16(e + 16));
    steps = padded;
  }
  RunKey key{get_u64(e), get_u64(e + 8), 0, 0, offset};
  for (std::size_t i = 0; i < 8; ++i) key.head = (key.head << 8) | steps[i];
  for (std::size_t i = 8; i < 12; ++i) key.tail = (key.tail << 8) | steps[i];
  return key;
}

/// Three-way compare, in segment order, of the entry `a` keys in `a_data`
/// with the entry `b` keys in `b_data`.
int compare_keys(const RunKey& a, const std::uint8_t* a_data,
                 const RunKey& b, const std::uint8_t* b_data) {
  if (a.design0 != b.design0) return a.design0 < b.design0 ? -1 : 1;
  if (a.design1 != b.design1) return a.design1 < b.design1 ? -1 : 1;
  if (a.head != b.head) return a.head < b.head ? -1 : 1;
  if (a.tail != b.tail) return a.tail < b.tail ? -1 : 1;
  return compare_entries(a_data + a.offset, b_data + b.offset);
}

/// Keys of the payloads at `offsets` (in load order) in segment order,
/// keeping only the first record of each key in load order.
std::vector<RunKey> sorted_first_records(
    const std::uint8_t* data, const std::vector<std::uint32_t>& offsets) {
  std::vector<RunKey> keys(offsets.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = run_key(data, offsets[i]);
  }
  std::sort(keys.begin(), keys.end(),
            [data](const RunKey& a, const RunKey& b) {
              const int c = compare_keys(a, data, b, data);
              return c != 0 ? c < 0 : a.offset < b.offset;
            });
  const auto repeat = std::unique(
      keys.begin(), keys.end(), [data](const RunKey& a, const RunKey& b) {
        return compare_keys(a, data, b, data) == 0;
      });
  keys.erase(repeat, keys.end());
  return keys;
}

/// The first position in [from, n) whose entry does not sort below a key,
/// given that every position before `from` does; `below(p)` says whether
/// entry p does. The cursor gallops 1, 2, 4, ... positions ahead and
/// binary-searches the last step, so moving it d positions costs about
/// 2 log d comparisons: a merge of k sorted keys into n entries costs about
/// k log(n / k) (Bentley & Yao's unbounded search). Attach's merge against
/// the segments, the batch lookup and compaction's merge all move by it.
template <typename Below>
std::size_t gallop(std::size_t from, std::size_t n, Below below) {
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < n && below(hi); step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, n);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (below(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Drop from `keys` (entries of `data`, in segment order) every entry that
/// `held` (entries at `held_offsets`, in segment order) also holds: one
/// galloping merge.
void drop_held(const std::uint8_t* held,
               const std::vector<std::uint32_t>& held_offsets,
               const std::uint8_t* data, std::vector<RunKey>& keys) {
  const auto compare = [held, data](std::uint32_t h, const RunKey& key) {
    return compare_keys(run_key(held, h), held, key, data);
  };
  const std::size_t n = held_offsets.size();
  std::size_t cursor = 0;  // every held entry before it sorts below
  std::size_t kept = 0;
  for (const RunKey& key : keys) {
    cursor = gallop(cursor, n, [&](std::size_t at) {
      return compare(held_offsets[at], key) < 0;
    });
    if (cursor < n && compare(held_offsets[cursor], key) == 0) continue;
    keys[kept++] = key;
  }
  keys.resize(kept);
}

/// Append the payload of (design, steps, qor) to `b`.
void put_payload(std::vector<std::uint8_t>& b, const aig::Fingerprint& design,
                 StepsView steps, const map::QoR& qor) {
  put_u64(b, design[0]);
  put_u64(b, design[1]);
  put_u16(b, static_cast<std::uint16_t>(steps.size()));
  b.insert(b.end(), steps.begin(), steps.end());
  put_u64(b, std::bit_cast<std::uint64_t>(qor.area_um2));
  put_u64(b, std::bit_cast<std::uint64_t>(qor.delay_ps));
  put_u64(b, static_cast<std::uint64_t>(qor.num_cells));
  put_u64(b, static_cast<std::uint64_t>(qor.num_inverters));
}

/// Bytes of the segment entry (or run payload) at `e`.
std::size_t entry_bytes(const std::uint8_t* e) {
  return kEntryFixedBytes + get_u16(e + 16);
}

map::QoR decode_entry_qor(const std::uint8_t* e) {
  const std::uint8_t* q = e + 18 + get_u16(e + 16);
  map::QoR qor;
  qor.area_um2 = std::bit_cast<double>(get_u64(q));
  qor.delay_ps = std::bit_cast<double>(get_u64(q + 8));
  qor.num_cells = static_cast<std::size_t>(get_u64(q + 16));
  qor.num_inverters = static_cast<std::size_t>(get_u64(q + 24));
  return qor;
}

}  // namespace

QorStore::QorStore(QorStoreConfig config)
    : config_(std::move(config)),
      registry_(config_.registry ? config_.registry
                                 : opt::TransformRegistry::paper()) {
  namespace fs = std::filesystem;
  if (config_.dir.empty()) {
    throw QorStoreError("QorStore: empty store directory");
  }
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    throw QorStoreError("QorStore: cannot create '" + config_.dir +
                        "': " + ec.message());
  }
  if (config_.writer_name.empty()) {
    // Unique per process *and* per instance: several stores in one
    // process (e.g. two pipelines sharing a directory) must never share a
    // log file — one file, one writer is the whole multi-writer protocol.
    static std::atomic<unsigned> instance{0};
    config_.writer_name = "w" + std::to_string(::getpid()) + "-" +
                          std::to_string(instance.fetch_add(1));
  }
  writer_path_ = config_.dir + "/" + config_.writer_name + ".qorlog";

  // Manifest + segments first (the bulk of a mature store), then every log
  // past its watermark. A concurrent compactor may delete a listed segment
  // between our manifest read and the segment open; the new manifest is
  // already live then, so re-read and retry — bounded, since each retry
  // needs another full compaction to race us.
  std::optional<Manifest> manifest;
  for (int attempt = 0;; ++attempt) {
    segments_.clear();  // a failed attempt may have attached some already
    manifest = read_manifest();
    try {
      if (manifest) {
        for (const std::string& seg : manifest->segments) {
          load_segment(config_.dir + "/" + seg);
        }
        epoch_ = manifest->epoch;
      }
      break;
    } catch (const SegmentMissing&) {
      if (attempt >= 4) {
        throw QorStoreError(
            "QorStore: manifest in '" + config_.dir +
            "' names segments that keep vanishing — giving up");
      }
    }
  }
  // Every log past its watermark; ours may be among them when a writer
  // name is reused across runs.
  std::uint64_t own_valid_bytes = 0;
  std::uint64_t own_file_size = 0;
  for (const LogScan& log : load_logs_locked(manifest)) {
    if (log.name == config_.writer_name + ".qorlog") {
      own_valid_bytes = log.valid;
      own_file_size = log.file_size;
    }
  }

  // O_APPEND as defense in depth: even a buggy second writer on this file
  // could then only interleave whole-ish records at the end, not overwrite
  // earlier ones. ftruncate (healing, below and in append) still works.
  fd_ = ::open(writer_path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw QorStoreError("QorStore: cannot open '" + writer_path_ +
                        "': " + std::strerror(errno));
  }
  if (own_valid_bytes > 0) {
    // Heal our own log — but only when there is a torn tail to drop. A
    // clean attach must not write: re-truncating to the unchanged size
    // would still dirty the inode (mtime) on every startup. Foreign files
    // are never modified.
    if (own_valid_bytes < own_file_size) {
      if (::ftruncate(fd_, static_cast<off_t>(own_valid_bytes)) != 0) {
        throw QorStoreError("QorStore: cannot truncate '" + writer_path_ +
                            "'");
      }
      ++stats_.log_truncations;
    }
  } else {
    // Fresh (or unreadably corrupt) file: start it over with a header.
    write_fresh_header_locked();
  }
}

QorStore::~QorStore() {
  if (fd_ >= 0) ::close(fd_);
}

QorStore::SegmentBuffer::~SegmentBuffer() {
  if (mapped) ::munmap(data, mapped);
}

void QorStore::write_fresh_header_locked() {
  // The paper registry writes the original v1 header (its files stay byte
  // identical to pre-registry stores); other alphabets stamp their
  // fingerprint into a v2 header.
  std::vector<std::uint8_t> header;
  put_u32(header, kStoreMagic);
  const bool paper = registry_->is_paper();
  header.push_back(paper ? kStoreVersion : kStoreVersionRegistry);
  header.push_back(0);
  put_u16(header, 0);
  if (!paper) {
    const opt::RegistryFingerprint& fp = registry_->fingerprint();
    put_u64(header, fp[0]);
    put_u64(header, fp[1]);
  }
  if (::ftruncate(fd_, 0) != 0 ||
      ::write(fd_, header.data(), header.size()) !=
          static_cast<ssize_t>(header.size())) {
    throw QorStoreError("QorStore: cannot initialise '" + writer_path_ +
                        "'");
  }
}

/// Log records read at attach or by compact()'s rescan, in load order:
/// `bytes` holds their frames back to back, `offsets` the start of each
/// valid payload in `bytes`.
struct QorStore::PendingRun {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offsets;
};

std::vector<QorStore::LogScan> QorStore::load_logs_locked(
    const std::optional<Manifest>& manifest) {
  namespace fs = std::filesystem;
  std::map<std::string, std::uint64_t> watermarks;
  if (manifest) {
    for (const auto& [name, consumed] : manifest->logs) {
      watermarks[name] = consumed;
    }
  }
  // Deterministic (sorted) order: among records with one key, the first
  // loaded wins.
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    if (entry.path().extension() == ".qorlog") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  const auto watermark = [&](const std::string& name) -> std::uint64_t {
    const auto wm = watermarks.find(name);
    return wm == watermarks.end() ? 0 : wm->second;
  };
  // Every tail lands in one buffer: size it once from the file sizes (a
  // log shorter than its watermark is read whole). Grown log by log
  // instead, the buffer is copied at each doubling, and old and new copies
  // meet in memory: a 10^6-record store spread over 5 logs then attaches
  // in 440-540 ms at a 132 MB peak, against 360-420 ms and 107 MB.
  PendingRun run;
  std::uint64_t tail_bytes = 0;
  for (const std::string& name : names) {
    const std::uint64_t size = fs::file_size(config_.dir + "/" + name, ec);
    if (ec) continue;
    tail_bytes += size >= watermark(name) ? size - watermark(name) : size;
  }
  run.bytes.reserve(
      static_cast<std::size_t>(std::min(tail_bytes, kMaxOffsetBytes)));
  std::vector<LogScan> scans;
  for (const std::string& name : names) {
    LogScan scan{name};
    scan.valid = load_file(config_.dir + "/" + name, watermark(name),
                           scan.file_size, run);
    scans.push_back(std::move(scan));
  }
  add_run_locked(run);
  return scans;
}

std::uint64_t QorStore::load_file(const std::string& path,
                                  std::uint64_t start,
                                  std::uint64_t& file_size, PendingRun& run) {
  telemetry::Span span("store", "load_qorlog");
  span.arg("path", path);
  const bool timed = telemetry::enabled();
  const std::uint64_t t0 = timed ? telemetry::trace_now_us() : 0;
  const std::size_t loaded_before = stats_.records_loaded;
  const auto finish = [&](std::uint64_t valid) {
    StoreMetrics& m = store_metrics();
    m.records_loaded.inc(stats_.records_loaded - loaded_before);
    if (timed) {
      m.load_ms.observe(
          static_cast<double>(telemetry::trace_now_us() - t0) / 1000.0);
    }
    return valid;
  };
  // A log whose manifest watermark covers it exactly is fully folded into
  // the segments — stat it and move on instead of reading megabytes of
  // already-consumed records back in. (A *shorter* file was reset by its
  // owner; a *longer* one has a live tail; both take the read path below.)
  if (start >= kFileHeaderBytes) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 &&
        static_cast<std::uint64_t>(st.st_size) == start) {
      file_size = start;
      ++stats_.files_loaded;
      return finish(start);
    }
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  struct FdClose {
    int fd;
    ~FdClose() {
      if (fd >= 0) ::close(fd);
    }
  } fd_close{fd};
  struct stat st{};
  if (fd < 0 || ::fstat(fd, &st) != 0) {
    util::log_warn("QorStore: cannot read ", path, " — skipped");
    file_size = 0;
    return finish(0);
  }
  std::uint64_t end = static_cast<std::uint64_t>(st.st_size);
  file_size = end;
  std::uint8_t header[kRegistryHeaderBytes] = {};
  const std::size_t header_bytes = pread_full(
      fd, header, static_cast<std::size_t>(std::min<std::uint64_t>(
                      end, kRegistryHeaderBytes)),
      0);
  if (header_bytes < kFileHeaderBytes || get_u32(header) != kStoreMagic ||
      (header[4] != kStoreVersion && header[4] != kStoreVersionRegistry)) {
    util::log_warn("QorStore: ", path, " has no valid header — skipped");
    stats_.tail_bytes_dropped += end;
    return finish(0);
  }
  // Alphabet check before any record is loaded: v1 files are keyed by the
  // paper registry by definition, v2 files carry their registry's
  // fingerprint. A mismatch means the directory mixes alphabets — the step
  // bytes of those records name different transforms — and loading them
  // would be silent label corruption, so it is a typed error, never a skip.
  opt::RegistryFingerprint file_registry = opt::paper_registry_fingerprint();
  std::uint64_t pos = kFileHeaderBytes;
  if (header[4] == kStoreVersionRegistry) {
    if (header_bytes < kRegistryHeaderBytes) {
      util::log_warn("QorStore: ", path, " has a torn v2 header — skipped");
      stats_.tail_bytes_dropped += end;
      return finish(0);
    }
    file_registry[0] = get_u64(header + kFileHeaderBytes);
    file_registry[1] = get_u64(header + kFileHeaderBytes + 8);
    pos = kRegistryHeaderBytes;
  }
  if (file_registry != registry_->fingerprint()) {
    throw QorStoreError(
        "QorStore: '" + path + "' is keyed by registry " +
        opt::registry_fingerprint_hex(file_registry) +
        " but this store uses " +
        opt::registry_fingerprint_hex(registry_->fingerprint()) +
        " — refusing to mix alphabets in one directory");
  }
  ++stats_.files_loaded;
  // Skip the manifest watermark: that prefix is already folded into a
  // segment (records below it would only dedup). A log *shorter* than its
  // watermark was reset by its owner after a compaction — its records
  // live in the segment — so scan the whole (usually empty) file instead.
  if (start > pos && start <= end) pos = start;
  // The tail goes straight into the run's buffer, in slices that keep the
  // buffer within kMaxOffsetBytes.
  while (pos < end) {
    const std::uint64_t slice_pos = pos;
    const std::size_t base = run.bytes.size();
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(end - pos, kMaxOffsetBytes - base));
    run.bytes.resize(base + want);
    const std::size_t got =
        pread_full(fd, run.bytes.data() + base, want, slice_pos);
    if (got < want) end = slice_pos + got;  // the file shrank under us
    const std::size_t slice_end = base + got;
    std::size_t at = base;
    while (slice_end - at >= kRecordHeaderBytes) {
      const std::uint8_t* frame = run.bytes.data() + at;
      const std::uint32_t crc = get_u32(frame);
      const std::uint32_t len = get_u32(frame + 4);
      if (len > kMaxPayloadBytes ||
          len > slice_end - at - kRecordHeaderBytes) {
        break;  // torn/EOF
      }
      const std::uint8_t* payload = frame + kRecordHeaderBytes;
      if (util::crc32({payload, len}) != crc) break;
      // CRC-valid: decode. A structurally short payload still stops the
      // scan (it cannot be a boundary confusion — CRC already matched —
      // but a foreign writer bug must not crash this process).
      if (len < kEntryFixedBytes) break;
      const std::uint16_t num_steps = get_u16(payload + 16);
      if (len != kEntryFixedBytes + num_steps) break;
      // The file's registry fingerprint matched, so every step byte must
      // name one of its specs; an out-of-range id is corruption and stops
      // the scan like any other invalid record.
      const std::uint8_t* steps = payload + 18;
      if (std::any_of(steps, steps + num_steps, [&](std::uint8_t id) {
            return id >= registry_->size();
          })) {
        break;
      }
      run.offsets.push_back(
          static_cast<std::uint32_t>(at + kRecordHeaderBytes));
      ++stats_.records_loaded;
      at += kRecordHeaderBytes + len;
    }
    run.bytes.resize(at);
    pos = slice_pos + (at - base);
    // A slice the run's room cut short may end mid-record: seal the run and
    // re-read that record into a fresh one. Anywhere else the scan stopped
    // at an invalid record.
    const bool cut = slice_pos + got < end &&
                     slice_end - at < kRecordHeaderBytes + kMaxPayloadBytes;
    if (pos == end || !cut || at == 0) break;
    add_run_locked(run);
  }
  if (pos < end) {
    stats_.tail_bytes_dropped += end - pos;
    util::log_warn("QorStore: ", path, ": dropped ", end - pos,
                   " byte(s) of torn tail at offset ", pos);
  }
  file_size = end;
  return finish(pos);
}

void QorStore::add_run_locked(PendingRun& run) {
  telemetry::Span span("store", "build_run");
  PendingRun taken = std::exchange(run, PendingRun{});
  if (taken.offsets.empty()) return;
  const std::uint8_t* data = taken.bytes.data();
  std::vector<RunKey> keys = sorted_first_records(data, taken.offsets);
  // First record wins: every segment and earlier run was attached or
  // loaded before this run, and the index holds appends (which compact()'s
  // rescan reads back from the log).
  for (const Segment& s : segments_) {
    drop_held(s.data(), s.offsets, data, keys);
  }
  if (index_.size() > 0) {
    std::erase_if(keys, [&](const RunKey& key) {
      const std::uint8_t* e = data + key.offset;
      return index_.find(entry_design(e), entry_steps(e)).has_value();
    });
  }
  if (keys.empty()) return;
  taken.offsets.clear();
  for (const RunKey& key : keys) taken.offsets.push_back(key.offset);
  // A run keeps the bytes its reads produced, not the room reserved for
  // them: a tail cut short by an invalid record, or a log that shrank after
  // it was sized, leaves room behind. One torn record is not worth copying
  // the buffer for, so only a sizeable share is given back.
  if (taken.bytes.capacity() - taken.bytes.size() > taken.bytes.size() / 8) {
    taken.bytes.shrink_to_fit();
  }
  Segment segment;
  segment.buf = SegmentBuffer(std::move(taken.bytes));
  segment.offsets = std::move(taken.offsets);
  segments_.push_back(std::move(segment));
}

void QorStore::load_segment(const std::string& path) {
  telemetry::Span span("store", "load_segment");
  span.arg("path", path);
  // mmap, not read: no 60 MB copy, no page-fault fill, and siblings
  // attaching the same store share the page-cache pages. Segments are
  // written once and only ever *unlinked* (never truncated), and an
  // unlinked mapping stays valid, so the mapping cannot SIGBUS under a
  // concurrent compactor.
  Segment segment;
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw SegmentMissing{};
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw SegmentMissing{};
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size < kSegmentHeaderBytes + 4) {
      ::close(fd);
      throw QorStoreError("QorStore: segment '" + path + "' is truncated");
    }
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      throw QorStoreError("QorStore: cannot map segment '" + path +
                          "': " + std::strerror(errno));
    }
    ::madvise(map, size, MADV_WILLNEED);
    segment.buf.data = static_cast<std::uint8_t*>(map);
    segment.buf.size = size;
    segment.buf.mapped = size;
  }
  const std::uint8_t* data = segment.data();
  const std::size_t size = segment.buf.size;
  // Whole-file CRC before any field is believed: a segment is written once
  // and never appended to, so *any* mismatch is corruption, not a torn
  // tail — typed error, never a silent partial load.
  const std::uint32_t want_crc = get_u32(data + size - 4);
  if (util::crc32({data, size - 4}) != want_crc) {
    throw QorStoreError("QorStore: segment '" + path +
                        "' fails its CRC — corrupt");
  }
  if (get_u32(data) != kSegmentMagic || data[4] != kSegmentVersion) {
    throw QorStoreError("QorStore: segment '" + path +
                        "' has an unknown header");
  }
  opt::RegistryFingerprint seg_registry;
  seg_registry[0] = get_u64(data + 8);
  seg_registry[1] = get_u64(data + 16);
  if (seg_registry != registry_->fingerprint()) {
    throw QorStoreError(
        "QorStore: segment '" + path + "' is keyed by registry " +
        opt::registry_fingerprint_hex(seg_registry) + " but this store uses " +
        opt::registry_fingerprint_hex(registry_->fingerprint()));
  }
  const std::uint64_t record_count = get_u64(data + 32);
  const std::size_t end = size - 4;
  // The file carries its own offset table (record_count u32s just before
  // the CRC footer). Attach validates that the table and the entry chain
  // agree — each offset continues exactly where the previous entry ended
  // and every entry fits before the table — but parses no entry bodies:
  // the CRC already vouches for the bytes, and the writer validated step
  // ids at append time. This is the whole reason attach stays O(file
  // read) at 10^6 records. The entries stay in the file's own sorted
  // layout; `offsets` makes them binary-searchable.
  if (record_count > (end - kSegmentHeaderBytes) / 4) {
    throw QorStoreError("QorStore: segment '" + path + "' is truncated");
  }
  const std::size_t table_start =
      end - static_cast<std::size_t>(record_count) * 4;
  segment.offsets.reserve(static_cast<std::size_t>(record_count));
  std::size_t expect = kSegmentHeaderBytes;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    const std::uint32_t off = get_u32(data + table_start + i * 4);
    if (off != expect || off + kEntryFixedBytes > table_start) {
      throw QorStoreError("QorStore: segment '" + path +
                          "' offset table disagrees with its entries — "
                          "corrupt");
    }
    const std::uint16_t num_steps = get_u16(data + off + 16);
    if (off + kEntryFixedBytes + num_steps > table_start) {
      throw QorStoreError("QorStore: segment '" + path +
                          "' ends mid-entry — corrupt");
    }
    expect = off + kEntryFixedBytes + num_steps;
    segment.offsets.push_back(off);
  }
  if (expect != table_start) {
    throw QorStoreError("QorStore: segment '" + path +
                        "' carries bytes past its last entry — corrupt");
  }
  segments_.push_back(std::move(segment));
  ++stats_.segments_loaded;
  stats_.segment_records_loaded += static_cast<std::size_t>(record_count);
  store_metrics().segment_records_loaded.inc(record_count);
}

std::optional<QorStore::Manifest> QorStore::read_manifest() const {
  const std::string path = config_.dir + "/MANIFEST";
  std::vector<std::uint8_t> data;
  if (!read_whole_file(path, data)) return std::nullopt;
  // The manifest is rename-committed, so a torn one cannot exist; any
  // invalid byte is corruption of the store's root pointer — typed error.
  const auto corrupt = [&](const char* why) {
    return QorStoreError("QorStore: MANIFEST in '" + config_.dir + "' " +
                         why);
  };
  if (data.size() < 40 + 4) throw corrupt("is truncated");
  if (util::crc32({data.data(), data.size() - 4}) !=
      get_u32(data.data() + data.size() - 4)) {
    throw corrupt("fails its CRC — corrupt");
  }
  if (get_u32(data.data()) != kManifestMagic ||
      data[4] != kManifestVersion) {
    throw corrupt("has an unknown header");
  }
  opt::RegistryFingerprint fp{get_u64(data.data() + 8),
                              get_u64(data.data() + 16)};
  if (fp != registry_->fingerprint()) {
    throw QorStoreError(
        "QorStore: MANIFEST in '" + config_.dir + "' is keyed by registry " +
        opt::registry_fingerprint_hex(fp) + " but this store uses " +
        opt::registry_fingerprint_hex(registry_->fingerprint()) +
        " — refusing to mix alphabets in one directory");
  }
  Manifest m;
  m.epoch = get_u64(data.data() + 24);
  std::size_t pos = 32;
  const std::size_t end = data.size() - 4;
  const auto read_name = [&](std::string& out) {
    if (end - pos < 2) throw corrupt("ends mid-name");
    const std::uint16_t len = get_u16(data.data() + pos);
    pos += 2;
    if (end - pos < len) throw corrupt("ends mid-name");
    out.assign(reinterpret_cast<const char*>(data.data() + pos), len);
    pos += len;
    if (out.find('/') != std::string::npos) throw corrupt("names a path");
  };
  if (end - pos < 4) throw corrupt("ends mid-list");
  std::uint32_t num_segments = get_u32(data.data() + pos);
  pos += 4;
  for (std::uint32_t i = 0; i < num_segments; ++i) {
    std::string name;
    read_name(name);
    m.segments.push_back(std::move(name));
  }
  if (end - pos < 4) throw corrupt("ends mid-list");
  std::uint32_t num_logs = get_u32(data.data() + pos);
  pos += 4;
  for (std::uint32_t i = 0; i < num_logs; ++i) {
    std::string name;
    read_name(name);
    if (end - pos < 8) throw corrupt("ends mid-watermark");
    m.logs.emplace_back(std::move(name), get_u64(data.data() + pos));
    pos += 8;
  }
  if (pos != end) throw corrupt("carries bytes past its last entry");
  return m;
}

const std::uint8_t* QorStore::segment_find_locked(
    const aig::Fingerprint& design, StepsView steps) const {
  for (const Segment& s : segments_) {
    std::size_t lo = 0;
    std::size_t hi = s.offsets.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const std::uint8_t* e = s.data() + s.offsets[mid];
      if (compare_entry(e, design, steps) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < s.offsets.size()) {
      const std::uint8_t* e = s.data() + s.offsets[lo];
      if (compare_entry(e, design, steps) == 0) return e;
    }
  }
  return nullptr;
}

std::optional<map::QoR> QorStore::find_locked(const aig::Fingerprint& design,
                                              StepsView steps) const {
  // Appends since attach probe the cuckoo index in O(1); segment and run
  // records binary-search. The sets are kept disjoint, so order is a
  // fast-path choice, not a correctness one.
  if (const auto hit = index_.find(design, steps)) return hit;
  if (const std::uint8_t* e = segment_find_locked(design, steps)) {
    return decode_entry_qor(e);
  }
  return std::nullopt;
}

std::size_t QorStore::segment_records_locked() const {
  std::size_t n = 0;
  for (const Segment& s : segments_) n += s.offsets.size();
  return n;
}

std::optional<map::QoR> QorStore::lookup(const aig::Fingerprint& design,
                                         StepsView steps) const {
  std::lock_guard lock(mutex_);
  ++stats_.lookups;
  store_metrics().lookups.inc();
  const auto hit = find_locked(design, steps);
  if (!hit) return std::nullopt;
  ++stats_.hits;
  store_metrics().hits.inc();
  return hit;
}

std::size_t QorStore::lookup_sorted(const aig::Fingerprint& design,
                                    std::span<const Flow> flows,
                                    std::span<const std::size_t> order,
                                    std::span<map::QoR> out,
                                    std::vector<bool>& answered) const {
  const std::size_t keys = order.empty() ? flows.size() : order.size();
  const auto index_at = [&](std::size_t k) {
    return order.empty() ? k : order[k];
  };
  std::lock_guard lock(mutex_);
  std::size_t looked_up = 0;
  std::size_t hits = 0;
  const auto hit = [&](std::size_t i, const map::QoR& qor) {
    out[i] = qor;
    answered[i] = true;
    ++hits;
  };
  // The index (appends since attach, usually few) by hashing, then one
  // pass per segment and run. They are disjoint, so the order of the
  // passes is a choice of speed, not of answers.
  for (std::size_t k = 0; k < keys; ++k) {
    const std::size_t i = index_at(k);
    if (answered[i]) continue;
    ++looked_up;
    if (index_.size() == 0) continue;
    if (const auto qor = index_.find(design, flows[i].steps)) hit(i, *qor);
  }
  // Sorted keys visit their Flow structs, step blocks and output slots at
  // random, and a run's entries sit at random in its buffer: each pass
  // fetches them kAhead keys or entries before it needs them (a Flow a
  // further kAhead keys before its steps), so their cache misses overlap
  // instead of following one another.
  constexpr std::size_t kAhead = 8;
  for (const Segment& s : segments_) {
    const std::size_t n = s.offsets.size();
    std::size_t cursor = 0;  // every entry before it sorts below the key
    for (std::size_t k = 0; k < keys && hits < looked_up; ++k) {
      if (k + 2 * kAhead < keys) {
        __builtin_prefetch(&flows[index_at(k + 2 * kAhead)]);
      }
      if (k + kAhead < keys && !answered[index_at(k + kAhead)]) {
        __builtin_prefetch(flows[index_at(k + kAhead)].steps.data());
        __builtin_prefetch(&out[index_at(k + kAhead)], 1);
      }
      const std::size_t i = index_at(k);
      if (answered[i]) continue;
      if (cursor + kAhead < n) {
        const std::uint8_t* e = s.data() + s.offsets[cursor + kAhead];
        __builtin_prefetch(e);
        __builtin_prefetch(e + 63);  // the second line a short entry spans
      }
      const StepsView steps(flows[i].steps);
      const auto below = [&](std::size_t at) {
        return compare_entry(s.data() + s.offsets[at], design, steps) < 0;
      };
      // A key below its predecessor breaks the invariant: start over.
      if (cursor > 0 && !below(cursor - 1)) cursor = 0;
      cursor = gallop(cursor, n, below);
      if (cursor == n) continue;
      const std::uint8_t* e = s.data() + s.offsets[cursor];
      if (compare_entry(e, design, steps) == 0) hit(i, decode_entry_qor(e));
    }
  }
  stats_.lookups += looked_up;
  stats_.hits += hits;
  StoreMetrics& m = store_metrics();
  m.lookups.inc(looked_up);
  m.hits.inc(hits);
  return hits;
}

bool QorStore::append(const aig::Fingerprint& design, StepsView steps,
                      const map::QoR& qor) {
  // Chaos runs inject disk-full / I/O errors here; callers must treat a
  // failed append as "label not persisted", never "label wrong".
  FLOWGEN_FAILPOINT("store.append");
  if (steps.size() > 0xFFFF) throw QorStoreError("flow too long for record");
  registry_->validate_steps(steps);  // no undefined step byte ever persists
  std::lock_guard lock(mutex_);
  if (find_locked(design, steps)) return false;

  std::vector<std::uint8_t> payload;
  payload.reserve(kEntryFixedBytes + steps.size());
  put_payload(payload, design, steps, qor);

  std::vector<std::uint8_t> record;
  record.reserve(kRecordHeaderBytes + payload.size());
  put_u32(record, util::crc32(payload));
  put_u32(record, static_cast<std::uint32_t>(payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());

  // Normally one write syscall per record: a *crash* leaves at worst one
  // torn record at the tail, which reload detects (CRC) and truncates
  // away. A short write or error while the process lives is different —
  // later appends would land after the torn bytes and be unreachable past
  // the CRC stop on reload — so roll the file back to the record boundary
  // before giving up or retrying.
  const off_t start = ::lseek(fd_, 0, SEEK_END);
  std::size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = errno;
    if (start >= 0) ::ftruncate(fd_, start);  // drop the partial record
    throw QorStoreError("QorStore: write to '" + writer_path_ +
                        "' failed: " + std::strerror(err));
  }
  if (config_.fsync_each_append) ::fsync(fd_);
  index_.insert(design, steps, qor);
  ++stats_.appends;
  store_metrics().appends.inc();
  return true;
}

QorStore::CompactionResult QorStore::compact() {
  telemetry::Span span("store", "compact");
  const bool timed = telemetry::enabled();
  const std::uint64_t t0 = timed ? telemetry::trace_now_us() : 0;
  namespace fs = std::filesystem;
  CompactionResult result;

  // One compactor per directory: flock on a dedicated lock file. A busy
  // lock means a sibling is already folding this directory — nothing to
  // wait for, its pass covers our records too.
  const std::string lock_path = config_.dir + "/COMPACT.lock";
  const int lock_fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (lock_fd < 0) {
    throw QorStoreError("QorStore: cannot open '" + lock_path +
                        "': " + std::strerror(errno));
  }
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd);
    return result;
  }
  struct LockRelease {
    int fd;
    ~LockRelease() {
      ::flock(fd, LOCK_UN);
      ::close(fd);
    }
  } lock_release{lock_fd};

  std::lock_guard lock(mutex_);

  // Catch up with the directory as it is *now*, under the compaction
  // lock: adopt any segment a sibling committed since attach, then scan
  // every log past its watermark — the fold must cover records we did not
  // produce, and the new watermarks must equal exactly what the segment
  // will contain.
  std::optional<Manifest> disk = read_manifest();
  std::uint64_t base_epoch = epoch_;
  if (disk) {
    base_epoch = std::max(base_epoch, disk->epoch);
    if (disk->epoch > epoch_) {
      for (const std::string& seg : disk->segments) {
        try {
          load_segment(config_.dir + "/" + seg);
        } catch (const SegmentMissing&) {
          // Cannot happen while we hold the lock — only compactors delete.
          throw QorStoreError("QorStore: segment '" + seg +
                              "' vanished under the compaction lock");
        }
      }
      epoch_ = disk->epoch;
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> new_logs;
  for (const LogScan& log : load_logs_locked(disk)) {
    // Our own log is reset to a bare header below, after the manifest
    // commit; the manifest therefore claims only that header for it. A
    // crash between commit and reset re-reads (and dedups) the old bytes
    // on the next attach — slower, never lossy.
    new_logs.emplace_back(
        log.name, log.name == config_.writer_name + ".qorlog"
                      ? (registry_->is_paper() ? kFileHeaderBytes
                                               : kRegistryHeaderBytes)
                      : log.valid);
  }
  result.logs_folded = new_logs.size();
  if (index_.size() + segment_records_locked() == 0) {
    return result;  // nothing to fold
  }

  // One sorted, deduped segment carrying every record we hold: the
  // attached segments and runs plus the live index. Sorting makes the fold
  // deterministic: the same record set compacts to the same bytes no matter
  // which logs or segments carried it. Every segment and run is sorted
  // already and the index's records are sorted here, so the segment is one
  // merge of them, every entry a payload copied verbatim. Only an adopted
  // sibling segment repeats keys (it typically holds our own earlier
  // appends, folded there from our log); the merge keeps the first copy of
  // each key, in segments_ order, then the index. Duplicate keys carry
  // identical QoR (evaluation is pure), so which copy survives is
  // immaterial.
  std::vector<const Segment*> inputs;
  std::size_t bound = kSegmentHeaderBytes;  // the entries end before it
  std::size_t records = index_.size();
  for (const Segment& s : segments_) {
    inputs.push_back(&s);
    bound += s.buf.size;
    records += s.offsets.size();
  }
  const auto too_big = [&] {
    return QorStoreError(
        "QorStore: compacting " + std::to_string(records) + " records in '" +
        config_.dir +
        "' needs segment entries past the 4 GiB that segment offsets "
        "address — nothing written");
  };
  Segment appended;  // the index's records, encoded and sorted like a run
  if (index_.size() > 0) {
    std::vector<std::uint8_t> bytes;
    index_.for_each([&](const aig::Fingerprint& design, StepsView steps,
                        const map::QoR& qor) {
      appended.offsets.push_back(static_cast<std::uint32_t>(bytes.size()));
      put_payload(bytes, design, steps, qor);
      // Every index record lands in the segment, so past 4 GiB here the
      // segment would be too.
      if (bytes.size() > kMaxOffsetBytes) throw too_big();
    });
    const std::vector<RunKey> keys =
        sorted_first_records(bytes.data(), appended.offsets);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      appended.offsets[i] = keys[i].offset;
    }
    bound += bytes.size();
    appended.buf = SegmentBuffer(std::move(bytes));
    inputs.push_back(&appended);
  }
  // Size the segment buffer once: the entries end within 4 GiB (checked
  // before each one is copied) and the offset table and CRC follow them.
  // Past that limit nothing is written, renamed or reset, and every record
  // stays in the logs and runs it was loaded from.
  std::vector<std::uint8_t> seg;
  seg.reserve(std::min<std::size_t>(bound, kMaxOffsetBytes) + records * 4 + 4);
  const std::uint64_t new_epoch = base_epoch + 1;
  const std::string segment_name = "seg-" + hex16(new_epoch) + ".qorseg";
  put_u32(seg, kSegmentMagic);
  seg.push_back(kSegmentVersion);
  seg.push_back(0);
  put_u16(seg, 0);
  const opt::RegistryFingerprint& fp = registry_->fingerprint();
  put_u64(seg, fp[0]);
  put_u64(seg, fp[1]);
  put_u64(seg, new_epoch);
  put_u64(seg, 0);  // record_count, filled in after the merge
  std::vector<std::uint32_t> new_offsets;
  new_offsets.reserve(records);
  // The merge: the input with the smallest head (the earliest on a tie)
  // gives every entry below the smallest head of the others, found by
  // galloping, in one step. Inputs hold no repeats, so only the first entry
  // of a step can repeat the last one copied. (Copying one entry per step
  // instead compacted the recall fixture's shape 6% slower: micro_store
  // BM_StoreCompact/mixed/1000000 on a 4-core host, medians of 8
  // alternating runs, 389 against 366 ms.)
  std::vector<std::size_t> pos(inputs.size(), 0);
  const auto head = [&](std::size_t in) {
    return inputs[in]->data() + inputs[in]->offsets[pos[in]];
  };
  const std::uint8_t* last = nullptr;
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  while (true) {
    std::size_t best = kNone;
    std::size_t second = kNone;
    for (std::size_t in = 0; in < inputs.size(); ++in) {
      if (pos[in] == inputs[in]->offsets.size()) continue;
      if (best == kNone || compare_entries(head(in), head(best)) < 0) {
        second = best;
        best = in;
      } else if (second == kNone ||
                 compare_entries(head(in), head(second)) < 0) {
        second = in;
      }
    }
    if (best == kNone) break;
    const std::uint8_t* data = inputs[best]->data();
    const std::vector<std::uint32_t>& offsets = inputs[best]->offsets;
    std::size_t end = offsets.size();
    if (second != kNone) {
      const std::uint8_t* bound_entry = head(second);
      end = gallop(pos[best] + 1, end, [&](std::size_t at) {
        return compare_entries(data + offsets[at], bound_entry) < 0;
      });
    }
    std::size_t at = pos[best];
    if (last != nullptr && compare_entries(head(best), last) == 0) ++at;
    for (; at < end; ++at) {
      const std::uint8_t* e = data + offsets[at];
      const std::size_t bytes = entry_bytes(e);
      if (seg.size() + bytes > kMaxOffsetBytes) throw too_big();
      new_offsets.push_back(static_cast<std::uint32_t>(seg.size()));
      seg.insert(seg.end(), e, e + bytes);
    }
    last = data + offsets[end - 1];
    pos[best] = end;
  }
  const std::uint64_t record_count = new_offsets.size();
  for (std::size_t i = 0; i < 8; ++i) {
    seg[32 + i] = static_cast<std::uint8_t>(record_count >> (8 * i));
  }
  // The offset table readers attach by: one u32 per entry, in order,
  // between the last entry and the CRC footer.
  for (const std::uint32_t off : new_offsets) put_u32(seg, off);
  put_u32(seg, util::crc32(seg));
  // The segment lands under its final name but is invisible until the
  // manifest names it; a crash from here on leaves at worst a stray file
  // the next compactor deletes.
  write_file_or_throw(config_.dir + "/" + segment_name, seg, true);
  sync_point("segment_written");

  std::vector<std::uint8_t> man;
  put_u32(man, kManifestMagic);
  man.push_back(kManifestVersion);
  man.push_back(0);
  put_u16(man, 0);
  put_u64(man, fp[0]);
  put_u64(man, fp[1]);
  put_u64(man, new_epoch);
  put_u32(man, 1);
  put_u16(man, static_cast<std::uint16_t>(segment_name.size()));
  man.insert(man.end(), segment_name.begin(), segment_name.end());
  put_u32(man, static_cast<std::uint32_t>(new_logs.size()));
  for (const auto& [name, consumed] : new_logs) {
    put_u16(man, static_cast<std::uint16_t>(name.size()));
    man.insert(man.end(), name.begin(), name.end());
    put_u64(man, consumed);
  }
  put_u32(man, util::crc32(man));
  const std::string tmp_path = config_.dir + "/MANIFEST.tmp";
  write_file_or_throw(tmp_path, man, true);
  sync_point("manifest_tmp");
  if (::rename(tmp_path.c_str(), (config_.dir + "/MANIFEST").c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp_path.c_str());
    ::unlink((config_.dir + "/" + segment_name).c_str());
    throw QorStoreError("QorStore: cannot commit MANIFEST in '" +
                        config_.dir + "': " + std::strerror(err));
  }
  fsync_dir(config_.dir);
  sync_point("manifest_committed");

  // The new manifest is the truth now; everything it does not name is
  // garbage. Only the lock holder deletes, so a reader that loaded the
  // *previous* manifest either finished already or retries on the new one.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    if (entry.path().extension() == ".qorseg" &&
        entry.path().filename().string() != segment_name) {
      fs::remove(entry.path(), ec);
    }
  }
  // Reset our own log: its records live in the segment now. Foreign logs
  // are never touched — their owners reset them in their own passes.
  write_fresh_header_locked();
  sync_point("log_reset");

  // Collapse the in-memory view to match the directory: one segment (the
  // bytes we just wrote) holding every record, and an empty index for
  // appends to come.
  Segment fresh;
  fresh.buf = SegmentBuffer(std::move(seg));
  fresh.offsets = std::move(new_offsets);
  segments_.clear();
  segments_.push_back(std::move(fresh));
  index_ = CuckooIndex();

  epoch_ = new_epoch;
  ++stats_.compactions;
  store_metrics().compactions.inc();
  if (timed) {
    store_metrics().compact_ms.observe(
        static_cast<double>(telemetry::trace_now_us() - t0) / 1000.0);
  }
  result.performed = true;
  result.epoch = new_epoch;
  result.records = static_cast<std::size_t>(record_count);
  return result;
}

std::size_t QorStore::size() const {
  std::lock_guard lock(mutex_);
  return index_.size() + segment_records_locked();
}

QorStoreStats QorStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

CuckooIndexStats QorStore::index_stats() const {
  std::lock_guard lock(mutex_);
  return index_.stats();
}

std::uint64_t QorStore::epoch() const {
  std::lock_guard lock(mutex_);
  return epoch_;
}

void QorStore::flush() {
  std::lock_guard lock(mutex_);
  if (fd_ >= 0) ::fsync(fd_);
}

}  // namespace flowgen::core
