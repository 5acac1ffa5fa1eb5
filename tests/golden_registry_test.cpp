// Golden back-compat suite for the registry redesign. The files under
// tests/golden/ were produced by the pre-registry (protocol v2 / store v1)
// code and are never regenerated: these tests pin that the default
// registry reproduces every byte — store records, flow keys, wire payload
// layouts — and that labels written before the registry existed still
// decode to identical QoR. If one of these fails, a cache/store/wire
// artifact someone has on disk just became unreadable or, worse, silently
// different. Fix the code, not the golden files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>

#include "core/evaluator.hpp"
#include "core/flow.hpp"
#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"
#include "map/mapper.hpp"
#include "opt/registry.hpp"
#include "service/wire.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace flowgen {
namespace {

namespace fs = std::filesystem;

/// Locate tests/golden regardless of the ctest working directory.
fs::path golden_dir() {
  for (fs::path dir : {fs::path(FLOWGEN_SOURCE_DIR) / "tests" / "golden"}) {
    if (fs::exists(dir)) return dir;
  }
  throw std::runtime_error("tests/golden not found");
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

fs::path fresh_temp_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("flowgen_golden_" + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The flows the golden store was built from, in append order.
const std::vector<std::string>& golden_keys() {
  static const std::vector<std::string> keys = {
      "", "0", "5", "012345", "543210", "002244", "112233", "0213"};
  return keys;
}

TEST(GoldenRegistryTest, PackedFlowKeysAreUnchanged) {
  // The digit key <-> packed byte mapping predates the registry; ids 0..5
  // must keep meaning exactly what they meant.
  const core::Flow f = core::Flow::from_key("012345");
  EXPECT_EQ(f.steps, (core::StepsKey{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(f.key(), "012345");
  EXPECT_EQ(f.to_string(),
            "balance; restructure; rewrite; refactor; rewrite -z; "
            "refactor -z");
}

TEST(GoldenRegistryTest, DesignAndPassFingerprintsArePinned) {
  // Literal structural fingerprints of every registry design, of alu16
  // after one pass of each paper transform, and alu16's QoR under four
  // m = 2 flows. Node ids, creation order and every land() result feed
  // these, so any change to structural hashing, the window kernels or the
  // mapper that reorders node creation or moves a label fails here, at
  // alu16 scale, not only in the end-to-end benchmark's digests.
  struct Pin {
    const char* name;
    aig::Fingerprint fp;
  };
  const Pin designs_pinned[] = {
      {"alu16", {0x58d6ce02a59220dcull, 0xed752f49b11e889dull}},
      {"alu64", {0x20d5cb3b7082b6d4ull, 0x81c54f627e6be74dull}},
      {"mont16", {0x84f667bdd087395aull, 0x55aefd8a9dafa36eull}},
      {"mont64", {0xb6e8c6fa47aee73aull, 0x411694cd5da903a0ull}},
      {"spn16", {0x7f771e6bcb259cc3ull, 0x57544a8929454574ull}},
      {"spn32", {0xc616514356892abbull, 0x9bc75099339671f6ull}},
      {"aes32", {0xcacf49871773d247ull, 0x245b0331653549e2ull}},
      {"aes128", {0x2e7b2bd733ab7355ull, 0xad80f58b1c834cb0ull}},
  };
  ASSERT_EQ(designs::known_designs().size(), std::size(designs_pinned));
  for (const Pin& pin : designs_pinned) {
    EXPECT_EQ(designs::make_design(pin.name).fingerprint(), pin.fp)
        << pin.name;
  }

  const Pin passes_pinned[] = {
      {"balance", {0x8fff083d1d9120d1ull, 0xcae93d19b69db6bdull}},
      {"restructure", {0x1d560cb30bd84b17ull, 0x7f2a113f6dd3b1e1ull}},
      {"rewrite", {0x296f1ccfcf7a73a2ull, 0x584cb2850324dd1cull}},
      {"refactor", {0xcb8d169257ac57c1ull, 0x0fa7eaeb307fb9acull}},
      {"rewrite -z", {0xb65909c9bae9527eull, 0xeb4c836fc32d3716ull}},
      {"refactor -z", {0x13b0e8a845c87746ull, 0x7c5388a74076301dull}},
  };
  const aig::Aig alu16 = designs::make_design("alu16");
  const auto& specs = opt::TransformRegistry::paper()->specs();
  ASSERT_EQ(specs.size(), std::size(passes_pinned));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(opt::spec_text(specs[i]), passes_pinned[i].name);
    EXPECT_EQ(opt::apply_spec(alu16, specs[i]).fingerprint(),
              passes_pinned[i].fp)
        << passes_pinned[i].name;
  }

  struct QorPin {
    const char* key;
    map::QoR qor;
  };
  const QorPin qor_pinned[] = {
      {"012345012345", {0x1.6fced916872bdp+7, 0x1.008p+9, 647, 202}},
      {"543210543210", {0x1.6db851eb85206p+7, 0x1.e4p+8, 669, 190}},
      {"001122334455", {0x1.6204189374bcap+7, 0x1.eep+8, 588, 204}},
      {"240513315042", {0x1.6ef851eb8520bp+7, 0x1.efp+8, 672, 165}},
  };
  core::SynthesisEvaluator evaluator(alu16);
  for (const QorPin& pin : qor_pinned) {
    EXPECT_EQ(evaluator.evaluate(core::Flow::from_key(pin.key)), pin.qor)
        << pin.key;
  }
}

TEST(GoldenRegistryTest, SmallDesignFlowDigestsArePinned) {
  // One CRC-32 per design over 32 random m = 2 and 32 random m = 4 flows:
  // for each flow, the fingerprint of the graph its steps produce from
  // scratch and its QoR record. Every accept/reject decision of every pass
  // along those flows feeds the digest, so a kernel change that moves one
  // fails here on three more generators than alu16, not only in the
  // end-to-end benchmark's alu16 digest.
  struct DigestPin {
    const char* design;
    std::uint32_t crc;
  };
  const DigestPin pins[] = {
      {"alu:8", 0x34475669u},
      {"spn16", 0xb69aa762u},
      {"mont:6", 0xbff96638u},
  };
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  for (const DigestPin& pin : pins) {
    const aig::Aig design = designs::make_design(pin.design);
    std::vector<std::uint8_t> bytes;
    auto put = [&](std::uint64_t v) {  // little-endian
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
      }
    };
    for (unsigned m : {2u, 4u}) {
      util::Rng rng(m);
      for (const core::Flow& flow :
           core::FlowSpace(m).sample_unique(32, rng)) {
        const aig::Aig g = registry.apply_steps(design, flow.steps);
        const map::QoR qor = map::evaluate_qor(g);
        for (std::uint64_t w : g.fingerprint()) put(w);
        put(std::bit_cast<std::uint64_t>(qor.area_um2));
        put(std::bit_cast<std::uint64_t>(qor.delay_ps));
        put(qor.num_cells);
        put(qor.num_inverters);
      }
    }
    EXPECT_EQ(util::crc32(bytes), pin.crc) << pin.design;
  }
}

TEST(GoldenRegistryTest, V2StoreFileLoadsAndYieldsIdenticalQor) {
  // Copy the golden v1-format log into a scratch store directory and load
  // it with the registry-era QorStore (paper registry, the default).
  const fs::path dir = fresh_temp_dir("load");
  fs::copy_file(golden_dir() / "v2-store" / "golden.qorlog",
                dir / "golden.qorlog");
  core::QorStoreConfig config;
  config.dir = dir.string();
  config.writer_name = "reader";
  core::QorStore store(std::move(config));
  EXPECT_EQ(store.size(), golden_keys().size());
  EXPECT_EQ(store.stats().tail_bytes_dropped, 0u);

  // Every stored label must equal a fresh registry-era evaluation bit for
  // bit — pre-registry labels and registry-era synthesis agree exactly.
  const aig::Aig design = designs::make_design("alu:4");
  const aig::Fingerprint fp = design.fingerprint();
  core::SynthesisEvaluator evaluator(design);
  for (const std::string& key : golden_keys()) {
    const core::Flow flow = core::Flow::from_key(key);
    const auto stored = store.lookup(fp, core::StepsView(flow.steps));
    ASSERT_TRUE(stored.has_value()) << key;
    const map::QoR fresh = evaluator.evaluate(flow);
    EXPECT_EQ(*stored, fresh) << key;
  }
}

TEST(GoldenRegistryTest, PaperRegistryStoreWritesByteIdenticalFiles) {
  // Re-append the golden records through the registry-era writer (paper
  // registry, same order) and require the produced log to be byte for byte
  // the golden file — "default-registry stored bytes are v2 bytes".
  const fs::path load_dir = fresh_temp_dir("reload");
  fs::copy_file(golden_dir() / "v2-store" / "golden.qorlog",
                load_dir / "golden.qorlog");
  core::QorStoreConfig load_config;
  load_config.dir = load_dir.string();
  load_config.writer_name = "reader";
  core::QorStore loaded(std::move(load_config));

  const fs::path write_dir = fresh_temp_dir("rewrite");
  core::QorStoreConfig write_config;
  write_config.dir = write_dir.string();
  write_config.writer_name = "golden";  // same stem as the original writer
  core::QorStore writer(std::move(write_config));
  const aig::Fingerprint fp =
      designs::make_design("alu:4").fingerprint();
  for (const std::string& key : golden_keys()) {
    const core::Flow flow = core::Flow::from_key(key);
    const auto qor = loaded.lookup(fp, core::StepsView(flow.steps));
    ASSERT_TRUE(qor.has_value()) << key;
    EXPECT_TRUE(writer.append(fp, core::StepsView(flow.steps), *qor));
  }
  writer.flush();

  EXPECT_EQ(read_file(write_dir / "golden.qorlog"),
            read_file(golden_dir() / "v2-store" / "golden.qorlog"));
}

TEST(GoldenRegistryTest, CompactingTheGoldenLogIsByteIdentical) {
  // Compaction of the golden v1 log must reproduce the committed segment
  // and manifest byte for byte: entry sort order, header layout, watermark
  // encoding and the whole-file CRC are all pinned. The fixture was
  // produced once by the first compaction-capable build and is never
  // regenerated.
  const fs::path dir = fresh_temp_dir("compact");
  fs::copy_file(golden_dir() / "v2-store" / "golden.qorlog",
                dir / "golden.qorlog");
  core::QorStoreConfig config;
  config.dir = dir.string();
  config.writer_name = "compactor";  // same stem the fixture was built with
  core::QorStore store(std::move(config));
  const auto result = store.compact();
  EXPECT_TRUE(result.performed);
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_EQ(result.records, golden_keys().size());

  const fs::path fixture = golden_dir() / "compacted-store";
  EXPECT_EQ(read_file(dir / "seg-0000000000000001.qorseg"),
            read_file(fixture / "seg-0000000000000001.qorseg"));
  EXPECT_EQ(read_file(dir / "MANIFEST"), read_file(fixture / "MANIFEST"));
}

TEST(GoldenRegistryTest, CommittedSegmentLoadsAndYieldsIdenticalQor) {
  // A store directory holding only the committed segment + manifest (the
  // logs the manifest names are long gone — normal after log resets) must
  // load entirely from the segment and serve every golden label bit for
  // bit against fresh synthesis.
  const fs::path dir = fresh_temp_dir("segload");
  fs::copy_file(golden_dir() / "compacted-store" / "MANIFEST",
                dir / "MANIFEST");
  fs::copy_file(golden_dir() / "compacted-store" /
                    "seg-0000000000000001.qorseg",
                dir / "seg-0000000000000001.qorseg");
  core::QorStoreConfig config;
  config.dir = dir.string();
  config.writer_name = "reader";
  core::QorStore store(std::move(config));
  EXPECT_EQ(store.size(), golden_keys().size());
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.stats().segments_loaded, 1u);
  EXPECT_EQ(store.stats().segment_records_loaded, golden_keys().size());

  const aig::Aig design = designs::make_design("alu:4");
  const aig::Fingerprint fp = design.fingerprint();
  core::SynthesisEvaluator evaluator(design);
  for (const std::string& key : golden_keys()) {
    const core::Flow flow = core::Flow::from_key(key);
    const auto stored = store.lookup(fp, core::StepsView(flow.steps));
    ASSERT_TRUE(stored.has_value()) << key;
    EXPECT_EQ(*stored, evaluator.evaluate(flow)) << key;
  }
}

TEST(GoldenRegistryTest, CompactingTheV2ExtendedLogIsByteIdentical) {
  // Same pin for v2-header stores: the committed ext.qorlog (extended
  // alphabet, id 6 = restructure max_divisors=12) must compact into the
  // committed segment and manifest exactly.
  std::vector<opt::TransformSpec> specs =
      opt::TransformRegistry::paper()->specs();
  opt::TransformSpec extra;
  extra.base = opt::TransformKind::kRestructure;
  extra.max_divisors = 12;
  specs.push_back(extra);
  const auto registry =
      std::make_shared<const opt::TransformRegistry>(std::move(specs));

  const fs::path fixture = golden_dir() / "compacted-store-v2";
  const fs::path dir = fresh_temp_dir("compact_v2");
  fs::copy_file(fixture / "ext.qorlog", dir / "ext.qorlog");
  core::QorStoreConfig config;
  config.dir = dir.string();
  config.writer_name = "compactor";
  config.registry = registry;
  core::QorStore store(std::move(config));
  EXPECT_EQ(store.size(), 3u);
  const auto result = store.compact();
  EXPECT_TRUE(result.performed);
  EXPECT_EQ(result.records, 3u);

  EXPECT_EQ(read_file(dir / "seg-0000000000000001.qorseg"),
            read_file(fixture / "seg-0000000000000001.qorseg"));
  EXPECT_EQ(read_file(dir / "MANIFEST"), read_file(fixture / "MANIFEST"));

  // The records round-trip through the segment under the same registry.
  core::QorStoreConfig reload;
  reload.dir = dir.string();
  reload.writer_name = "reader";
  reload.registry = registry;
  core::QorStore reloaded(std::move(reload));
  EXPECT_EQ(reloaded.size(), 3u);
  const core::StepsKey steps = {0, 6, 3};
  const auto hit = reloaded.lookup({42, 43}, core::StepsView(steps));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (map::QoR{12.5, 90.0, 7, 1}));
}

TEST(GoldenRegistryTest, RegistryFingerprintMismatchIsATypedError) {
  // A golden (v1 = paper) log in a directory opened under a different
  // alphabet must be refused loudly: the same step bytes would name
  // different transforms.
  const fs::path dir = fresh_temp_dir("mismatch");
  fs::copy_file(golden_dir() / "v2-store" / "golden.qorlog",
                dir / "golden.qorlog");
  std::vector<opt::TransformSpec> specs =
      opt::TransformRegistry::paper()->specs();
  opt::TransformSpec extra;
  extra.base = opt::TransformKind::kRewrite;
  extra.cut_size = 3;
  specs.push_back(extra);
  core::QorStoreConfig config;
  config.dir = dir.string();
  config.registry =
      std::make_shared<const opt::TransformRegistry>(std::move(specs));
  EXPECT_THROW(core::QorStore{std::move(config)}, core::QorStoreError);
}

TEST(GoldenRegistryTest, NonPaperStoresRoundTripUnderTheirRegistry) {
  // v2-header stores: written and reloaded under the same extended
  // alphabet, and refused by a paper-registry reader.
  std::vector<opt::TransformSpec> specs =
      opt::TransformRegistry::paper()->specs();
  opt::TransformSpec extra;
  extra.base = opt::TransformKind::kRestructure;
  extra.max_divisors = 12;
  specs.push_back(extra);
  const auto registry =
      std::make_shared<const opt::TransformRegistry>(std::move(specs));

  const fs::path dir = fresh_temp_dir("v2header");
  const aig::Fingerprint design_fp = {42, 43};
  const core::StepsKey steps = {0, 6, 3};  // uses the extended id 6
  const map::QoR qor{12.5, 90.0, 7, 1};
  {
    core::QorStoreConfig config;
    config.dir = dir.string();
    config.writer_name = "ext";
    config.registry = registry;
    core::QorStore store(std::move(config));
    EXPECT_TRUE(store.append(design_fp, core::StepsView(steps), qor));
    store.flush();
  }
  {
    core::QorStoreConfig config;
    config.dir = dir.string();
    config.writer_name = "ext";
    config.registry = registry;
    core::QorStore reloaded(std::move(config));
    EXPECT_EQ(reloaded.size(), 1u);
    const auto hit = reloaded.lookup(design_fp, core::StepsView(steps));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, qor);
  }
  core::QorStoreConfig paper_config;
  paper_config.dir = dir.string();
  EXPECT_THROW(core::QorStore{std::move(paper_config)},
               core::QorStoreError);
}

TEST(GoldenRegistryTest, V6EvalRequestLayoutIsPinned) {
  // The v6 request: the v3 layout again — v5 dropped the v4 flags byte
  // that sat between the registry fingerprint and the flow count, and v6
  // only retired message types. Pinned inline so the next protocol change
  // is a conscious version bump.
  service::EvalRequestMsg msg;
  msg.request_id = 0x0807060504030201ull;
  msg.design = {0x1111111111111111ull, 0x2222222222222222ull};
  msg.registry = {0x3333333333333333ull, 0x4444444444444444ull};
  msg.flows.push_back({0, 2, 5});
  const std::vector<std::uint8_t> expect = {
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // request id (LE)
      0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11,  // design fp[0]
      0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22,  // design fp[1]
      0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0x33,  // registry fp[0]
      0x44, 0x44, 0x44, 0x44, 0x44, 0x44, 0x44, 0x44,  // registry fp[1]
      0x01, 0x00, 0x00, 0x00,                          // 1 flow
      0x03, 0x00,                                      // 3 steps
      0x00, 0x02, 0x05,                                // packed step ids
  };
  EXPECT_EQ(service::encode_eval_request(msg), expect);
  const service::EvalRequestMsg decoded =
      service::decode_eval_request(expect);
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.design, msg.design);
  EXPECT_EQ(decoded.registry, msg.registry);
  EXPECT_EQ(decoded.flows, msg.flows);

  // A v5 peer is refused at its first frame: the header's version byte
  // is checked on every frame, so a v5 request never reaches the decoder.
  std::vector<std::uint8_t> v5_frame =
      service::encode_frame(service::MsgType::kEvalRequest, expect);
  ASSERT_EQ(v5_frame[4], service::kProtocolVersion);
  v5_frame[4] = 5;
  auto [tx, rx] = service::socket_pair();
  tx.send_all(v5_frame.data(), v5_frame.size());
  EXPECT_THROW(service::recv_frame(rx, 1000), service::WireError);
}

TEST(GoldenRegistryTest, V4StreamFramePayloadsArePinned) {
  // EvalResult and ShardDone are new in v4; pin their byte layouts the
  // same way. The QoR record inside EvalResult is the 32-byte shape the
  // v2 wire already carried, spelled out byte for byte.
  service::EvalResultMsg res;
  res.request_id = 0x0102030405060708ull;
  res.index = 7;
  res.result = map::QoR{14.5, 102.0, 9, 2};
  const std::vector<std::uint8_t> expect = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // request id (LE)
      0x07, 0x00, 0x00, 0x00,                          // index
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2d, 0x40,  // area 14.5 (f64)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x59, 0x40,  // delay 102.0 (f64)
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // cells 9
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // inverters 2
  };
  EXPECT_EQ(service::encode_eval_result(res), expect);
  const auto record = service::qor_record_bytes(res.result);
  EXPECT_TRUE(std::equal(record.begin(), record.end(), expect.begin() + 12));
  const service::EvalResultMsg back = service::decode_eval_result(expect);
  EXPECT_EQ(back.request_id, res.request_id);
  EXPECT_EQ(back.index, res.index);
  EXPECT_EQ(back.result, res.result);

  service::ShardDoneMsg done;
  done.request_id = 0x0102030405060708ull;
  done.count = 2;
  done.crc32 = 0xA1B2C3D4u;
  const std::vector<std::uint8_t> done_expect = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // request id (LE)
      0x02, 0x00, 0x00, 0x00,                          // count
      0xD4, 0xC3, 0xB2, 0xA1,                          // crc32 (LE)
  };
  EXPECT_EQ(service::encode_shard_done(done), done_expect);
  const service::ShardDoneMsg dback = service::decode_shard_done(done_expect);
  EXPECT_EQ(dback.request_id, done.request_id);
  EXPECT_EQ(dback.count, done.count);
  EXPECT_EQ(dback.crc32, done.crc32);
}

}  // namespace
}  // namespace flowgen
