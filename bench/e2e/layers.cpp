// Per-layer metrics of traced runs: the layers' own metrics pages, and
// probes that time calls into the public functions of the transform,
// mapping, store, wire and classifier layers on the workload's own labeled
// flows.

#include <filesystem>

#include "core/labeler.hpp"
#include "core/qor_store.hpp"
#include "e2e.hpp"
#include "nn/optimizers.hpp"
#include "opt/registry.hpp"
#include "service/wire.hpp"
#include "util/rng.hpp"

namespace flowgen::e2e {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kReplayFlows = 32;
constexpr std::size_t kLookups = 100000;       // per residency
constexpr std::size_t kWireCalls = 100000;     // per direction
constexpr std::size_t kFixtureAppends = 50000; // scratch appends on recalls
constexpr std::size_t kTrainSteps = 100;
constexpr std::size_t kPredictFlows = 2000;

}  // namespace

core::ClassifierConfig small_classifier(std::size_t flow_length,
                                        std::uint64_t seed) {
  core::ClassifierConfig config;
  config.flow_length = flow_length;
  config.num_transforms = opt::TransformRegistry::paper()->size();
  config.num_classes = core::LabelerConfig{}.quantiles.size() + 1;
  config.conv_filters = 16;
  config.local_filters = 8;
  config.dense_units = 32;
  config.seed = seed;
  return config;
}

void page_layers(const std::vector<Page>& pages, Report& report) {
  Page total;
  for (const Page& page : pages) add_page(total, page);
  const auto value = [&](const char* key) { return page_value(total, key); };
  const auto count = [&](const char* name, const char* key) {
    report.add_layer(name, value(key), "count");
  };
  const double applied = value("flowgen_transforms_applied_total");
  if (applied > 0) {
    for (const opt::TransformSpec& spec :
         opt::TransformRegistry::paper()->specs()) {
      for (const char* analysis : {"cold", "warm"}) {
        report.add_layer(
            "opt.engine_" + std::string(analysis) + "_ms." +
                spec_key(spec.name),
            page_mean(total, "flowgen_transform_ms",
                      "{analysis=\"" + std::string(analysis) + "\",spec=\"" +
                          spec.name + "\"}"),
            "ms");
      }
    }
    report.add_layer("map.engine_ms",
                     page_mean(total, "flowgen_mapping_ms", ""), "ms");
  }
  count("opt.passes_applied", "flowgen_transforms_applied_total");
  count("opt.passes_skipped", "flowgen_transforms_skipped_total");
  count("map.mappings", "flowgen_mappings_total");
  count("map.mappings_deduped", "flowgen_mappings_deduped_total");

  const double lookups = value("flowgen_flow_cache_lookups_total");
  const double hits = value("flowgen_flow_cache_hits_total");
  report.add_layer("flow_cache.hit_rate", lookups > 0 ? hits / lookups : 0.0,
                   "ratio");
  count("flow_cache.steps_saved", "flowgen_flow_cache_steps_saved_total");
  count("flow_cache.evictions", "flowgen_flow_cache_evictions_total");
  count("flow_cache.analysis_evictions",
        "flowgen_flow_cache_analysis_evictions_total");
  // Live bytes at the end of a batch: a gauge, so per batch, not summed.
  for (const char* what : {"bytes", "analysis_bytes"}) {
    std::vector<double> bytes;
    for (const Page& page : pages) {
      bytes.push_back(
          page_value(page, "flowgen_flow_cache_" + std::string(what)));
    }
    report.add_layer("flow_cache." + std::string(what), median(bytes), "B");
  }
  count("evaluator.evaluations", "flowgen_evaluations_total");
  count("store.lookups", "flowgen_qor_store_lookups_total");
  count("store.hits", "flowgen_qor_store_hits_total");
  count("store.appends", "flowgen_qor_store_appends_total");
}

void probe_replay(const aig::Aig& design, const std::vector<core::Flow>& flows,
                  const std::vector<map::QoR>* engine, Report& report) {
  const std::vector<std::size_t> picked = first_sorted(flows, kReplayFlows);
  std::vector<core::Flow> subset;
  for (const std::size_t i : picked) subset.push_back(flows[i]);
  ReplayTimes times;
  const std::vector<map::QoR> qor = replay(design, subset, 1, &times);
  for (const opt::TransformSpec& spec :
       opt::TransformRegistry::paper()->specs()) {
    const std::string key = spec_key(spec.name);
    report.add_layer("opt.replay_ms." + key, median(times.per_spec_ms[key]),
                     "ms");
  }
  report.add_layer("map.replay_ms", median(times.map_ms), "ms");
  if (!engine) return;
  for (std::size_t j = 0; j < picked.size(); ++j) {
    if (qor[j] != (*engine)[picked[j]]) {
      report.fail(1, "replay of flow " + flows[picked[j]].key() +
                         " disagrees with the engine: " + qor[j].to_string() +
                         " vs " + (*engine)[picked[j]].to_string());
    }
  }
}

void probe_store(const Options& options, const ProbeInput& in,
                 Report& report) {
  const std::vector<core::Flow>& flows = *in.flows;
  const std::vector<map::QoR>& qor = *in.qor;
  const aig::Fingerprint fp = in.design->fingerprint();
  const std::string scratch = options.scratch + "/probe-store";
  fs::remove_all(scratch);

  // The write path: append the labels into a scratch store. Without a
  // store of its own the workload's labels become one, in the fixture's
  // shape (first 3/4 compacted into a segment, the rest left in the log).
  std::string dir = in.store_dir;
  std::size_t segment = in.segment_records;
  std::size_t records = flows.size();
  double append_s = 0.0;
  std::size_t appended = 0;
  {
    core::QorStore writer(store_config(scratch, "probe-writer"));
    const auto append = [&](std::size_t begin, std::size_t end) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = begin; i < end; ++i) {
        appended += writer.append(fp, flows[i].steps, qor[i]) ? 1 : 0;
      }
      append_s += seconds_since(t0);
    };
    if (dir.empty()) {
      segment = records * 3 / 4;
      append(0, segment);
      writer.compact();
      append(segment, records);
      dir = scratch;
    } else {
      append(0, std::min(records, kFixtureAppends));
    }
  }
  report.add_layer("store.append_us",
                   appended ? append_s / static_cast<double>(appended) * 1e6
                            : 0.0,
                   "us");

  const double rss0 = vm_rss_mb();
  const Clock::time_point t0 = Clock::now();
  core::QorStore reader(store_config(dir, "probe-reader"));
  report.add_layer("store.attach_s", seconds_since(t0), "s");
  report.add_layer("store.attach_rss_mb", vm_rss_mb() - rss0, "MiB");

  const auto lookup_ns = [&](std::size_t begin, std::size_t end) {
    if (begin >= end) return 0.0;
    std::size_t wrong = 0;
    const Clock::time_point l0 = Clock::now();
    for (std::size_t j = 0; j < kLookups; ++j) {
      const std::size_t i = begin + (j * 2654435761u) % (end - begin);
      const std::optional<map::QoR> got = reader.lookup(fp, flows[i].steps);
      if (!got || *got != qor[i]) ++wrong;
    }
    const double ns = seconds_since(l0) * 1e9 / static_cast<double>(kLookups);
    if (wrong) report.fail(wrong, "store lookups returned a wrong record");
    return ns;
  };
  report.add_layer("store.lookup_ns.segment", lookup_ns(0, segment), "ns");
  report.add_layer("store.lookup_ns.log", lookup_ns(segment, records), "ns");
  const core::CuckooIndexStats index = reader.index_stats();
  report.add_layer("store.index_kicks", static_cast<double>(index.kicks),
                   "count");
  report.add_layer("store.index_rehashes", static_cast<double>(index.rehashes),
                   "count");
  fs::remove_all(scratch);
}

void probe_wire(const ProbeInput& in, Report& report) {
  const std::vector<map::QoR>& qor = *in.qor;
  const std::size_t n = std::min(qor.size(), kWireCalls);
  std::vector<std::vector<std::uint8_t>> payloads(n);
  Clock::time_point t0 = Clock::now();
  for (std::size_t j = 0; j < kWireCalls; ++j) {
    const std::size_t i = j % n;
    std::vector<std::uint8_t> bytes = service::encode_eval_result(
        {1, static_cast<std::uint32_t>(i), qor[i]});
    if (j < n) payloads[i] = std::move(bytes);
  }
  report.add_layer("wire.encode_ns.eval_result",
                   seconds_since(t0) * 1e9 / static_cast<double>(kWireCalls),
                   "ns");

  std::size_t wrong = 0;
  t0 = Clock::now();
  for (std::size_t j = 0; j < kWireCalls; ++j) {
    const std::size_t i = j % n;
    const service::EvalResultMsg m = service::decode_eval_result(payloads[i]);
    if (m.index != i || m.result != qor[i]) ++wrong;
  }
  report.add_layer("wire.decode_ns.eval_result",
                   seconds_since(t0) * 1e9 / static_cast<double>(kWireCalls),
                   "ns");
  if (wrong) report.fail(wrong, "EvalResult decode did not round-trip");

  // A streamed shard costs one EvalRequest carrying every flow plus one
  // EvalResult frame per flow.
  service::EvalRequestMsg request;
  for (std::size_t i = 0; i < n; ++i) {
    request.flows.push_back((*in.flows)[i].steps);
  }
  const std::size_t request_bytes =
      service::encode_frame(service::MsgType::kEvalRequest,
                            service::encode_eval_request(request))
          .size();
  const std::size_t result_bytes =
      service::encode_frame(service::MsgType::kEvalResult, payloads[0]).size();
  report.add_layer("wire.bytes_per_flow",
                   static_cast<double>(request_bytes) / static_cast<double>(n) +
                       static_cast<double>(result_bytes),
                   "B");
}

void probe_classifier(const Options& options, const ProbeInput& in,
                      Report& report) {
  const std::size_t n = std::min(in.flows->size(), kPredictFlows);
  const std::span<const core::Flow> flows(in.flows->data(), n);
  core::Labeler labeler(core::LabelerConfig{});
  labeler.fit(std::span<const map::QoR>(in.qor->data(), n));
  const std::vector<std::uint32_t> labels =
      labeler.classify_all(std::span<const map::QoR>(in.qor->data(), n));

  core::CnnFlowClassifier classifier(
      small_classifier(flows[0].length(), options.seed));
  const std::unique_ptr<nn::Optimizer> optimizer =
      nn::make_optimizer("RMSProp", 1e-4);
  util::Rng rng(options.seed);
  std::vector<double> step_ms;
  for (std::size_t step = 0; step < kTrainSteps; ++step) {
    std::vector<core::Flow> batch;
    std::vector<std::uint32_t> batch_labels;
    for (std::size_t b = 0; b < 5; ++b) {
      const auto pick = static_cast<std::size_t>(rng.below(n));
      batch.push_back(flows[pick]);
      batch_labels.push_back(labels[pick]);
    }
    const Clock::time_point t0 = Clock::now();
    classifier.train_batch(batch, batch_labels, *optimizer);
    step_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.add_layer("classifier.train_step_ms", median(step_ms), "ms");

  const Clock::time_point t0 = Clock::now();
  for (std::size_t begin = 0; begin < n; begin += 256) {
    classifier.predict_proba(
        flows.subspan(begin, std::min<std::size_t>(256, n - begin)));
  }
  report.add_layer("classifier.predict_us_per_flow",
                   seconds_since(t0) * 1e6 / static_cast<double>(n), "us");
}

}  // namespace flowgen::e2e
