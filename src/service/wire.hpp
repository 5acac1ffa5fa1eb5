#pragma once
// The evald wire protocol: length-prefixed, versioned binary frames. One
// frame = one message; payloads are little-endian and carry flows in the
// same packed uint8 step encoding the evaluator's memo keys on, so a
// request is essentially a batch of StepsKeys and a response a batch of
// QoRs.
//
// Version 2 made the fleet design-agnostic: LoadDesign ships a serialized
// netlist (aig/serialize.hpp) to a worker, every EvalRequest names its
// design by 128-bit content fingerprint, and HelloAck reports the version
// and fingerprint the worker actually serves. Version 3 does the same for
// the transform *alphabet*: LoadRegistry ships a TransformRegistry
// (opt/registry.hpp) once per connection, Hello/HelloAck carry registry
// fingerprints, and every EvalRequest names the registry its packed step
// bytes are ids into — one fleet serves many alphabets the way v2 made it
// serve many designs. Version 4 made results *stream*: every flow is
// answered by its own EvalResult frame, and a terminal ShardDone frame
// carries the count and a CRC-32 of the emitted QoR records — the
// coordinator applies (and persists) results as they land, resets liveness
// deadlines on every frame, and on worker loss requeues only the flows it
// never received. Version 5 makes streaming the only answer shape: the
// EvalRequest flags byte and the whole-shard answer frame are gone.
// Version 6 retires the live store-streaming frames (types 17 and 18):
// coordinators that share a store directory share labels through it.
// docs/protocol.md is the normative description of the format.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/flow.hpp"
#include "map/qor.hpp"
#include "opt/registry.hpp"
#include "service/transport.hpp"

namespace flowgen::service {

/// Bumped on any incompatible frame or payload change. Carried in every
/// frame header and in Hello/HelloAck; both sides reject mismatches
/// instead of guessing (v1–v5 peers are refused at the first frame).
inline constexpr std::uint8_t kProtocolVersion = 6;

/// "FLOW" — rejects stray connections speaking the wrong protocol.
inline constexpr std::uint32_t kFrameMagic = 0x464C4F57;

/// Upper bound on one payload; a 1M-flow batch is ~20 MB and a serialized
/// million-gate netlist ~3 MB, so 64 MiB leaves headroom while still
/// catching corrupt length prefixes immediately.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/// All-zero fingerprint = "no design"; a worker acks it before any design
/// is configured, and no real graph fingerprints to it (the constant-only
/// graph already mixes non-zero lane seeds).
inline constexpr aig::Fingerprint kNoDesign = {0, 0};

enum class MsgType : std::uint8_t {
  kHello = 1,          ///< client -> worker: version + registry design id
  kHelloAck = 2,       ///< worker -> client: version + served id + fp
  kEvalRequest = 3,    ///< client -> worker: request id + design fp + flows
  // Type 4 was the whole-shard answer (v2-v4); retired in v5, never reused.
  kError = 5,          ///< either direction: request id (0 = none) + message
  kShutdown = 6,       ///< client -> worker: drain and exit
  kPing = 7,           ///< liveness probe: echoes a nonce
  kPong = 8,
  kLoadDesign = 9,     ///< client -> worker: serialized AIG (v2)
  kLoadDesignAck = 10, ///< worker -> client: fingerprint now loaded (v2)
  kLoadRegistry = 11,  ///< client -> worker: encoded TransformRegistry (v3)
  kLoadRegistryAck = 12, ///< worker -> client: registry fp now loaded (v3)
  kEvalResult = 13,    ///< worker -> client: one streamed flow QoR (v4)
  kShardDone = 14,     ///< worker -> client: stream terminator, count + CRC (v4)
  kGetMetrics = 15,    ///< client -> worker: scrape request, echoes a nonce
  kMetricsText = 16,   ///< worker -> client: nonce + Prometheus text
  // Types 17 and 18 streamed QoR-store appends (post-v4); retired in v6,
  // never reused.
};

/// Malformed frame or payload bytes (bad magic/version/length, truncated
/// or trailing data, counts exceeding the payload). Distinct from
/// TransportError: the socket is healthy, the bytes are not.
class WireError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// One received message: its type and the raw (still-encoded) payload.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Serialize + send one frame (header then payload) as a single buffer.
/// timeout_ms >= 0 bounds each wait for socket buffer space (see
/// Socket::send_all) — the coordinator uses this so a worker that stops
/// reading counts as lost instead of wedging the dispatch loop. Throws
/// WireError on oversized payloads, TransportError on socket failure.
/// Thread-safety: per-socket external serialisation is the caller's job.
void send_frame(Socket& sock, MsgType type,
                std::span<const std::uint8_t> payload, int timeout_ms = -1);

/// Receive one frame. Returns nullopt on clean EOF at a frame boundary;
/// throws TransportError on socket failure/timeout and WireError on
/// malformed headers (bad magic/version/length).
std::optional<Frame> recv_frame(Socket& sock, int timeout_ms = -1);

/// Header + payload as one contiguous buffer — exactly the bytes
/// send_frame writes. The coordinator's event loop enqueues these on its
/// buffered non-blocking writers instead of calling send_frame directly.
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::span<const std::uint8_t> payload);

/// encode_frame's bytes appended to `out` instead of returned in a buffer
/// of their own (the worker queues its outgoing frames this way).
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::span<const std::uint8_t> payload);

/// The 32-byte wire record of one QoR (f64 area, f64 delay, u64 cells,
/// u64 inverters, little-endian) — the unit EvalResult carries and
/// ShardDone's CRC-32 chains over.
std::array<std::uint8_t, 32> qor_record_bytes(const map::QoR& q);

// --------------------------------------------------------------- payloads --

/// Handshake opener. `design_id` names a designs::make_design circuit the
/// worker should elaborate; empty means "no registry design" — the client
/// either ships netlists via LoadDesign or uses whatever the worker has.
/// `registry` is the fingerprint of the transform alphabet the client
/// intends to evaluate under (the paper registry by default); the ack tells
/// the client whether it must ship the specs via LoadRegistry.
struct HelloMsg {
  std::uint8_t version = kProtocolVersion;
  std::string design_id;
  opt::RegistryFingerprint registry = opt::paper_registry_fingerprint();
};

/// Handshake answer: the protocol version the worker speaks, the identity
/// (registry id when known, content fingerprint always) of its current
/// design — kNoDesign and an empty id before any is configured — and
/// `registry`, which echoes the Hello's registry fingerprint iff the
/// worker has that alphabet loaded (every worker is born with the paper
/// registry); otherwise the worker's fallback (paper) fingerprint, telling
/// the client to ship a LoadRegistry before evaluating.
struct HelloAckMsg {
  std::uint8_t version = kProtocolVersion;
  std::string design_id;
  aig::Fingerprint fingerprint = kNoDesign;
  opt::RegistryFingerprint registry = opt::paper_registry_fingerprint();
};

/// A batch of flows to evaluate against the design named by `design`,
/// whose packed step bytes are ids into the alphabet named by `registry`.
/// The worker answers kError if either fingerprint is not loaded, and
/// otherwise streams one EvalResult per flow and a ShardDone.
struct EvalRequestMsg {
  std::uint64_t request_id = 0;
  aig::Fingerprint design = kNoDesign;
  opt::RegistryFingerprint registry = opt::paper_registry_fingerprint();
  std::vector<core::StepsKey> flows;
};

/// One streamed flow result (v4): `index` is the flow's position in its
/// request. Workers may emit results out of request order (they don't
/// today, but the index — not arrival order — is normative).
struct EvalResultMsg {
  std::uint64_t request_id = 0;
  std::uint32_t index = 0;
  map::QoR result;
};

/// Terminal frame of a streamed request (v4): how many EvalResults were
/// emitted and a CRC-32 (util::crc32) chained over their 32-byte QoR
/// records in emission order. A count or CRC mismatch means frames were
/// lost or corrupted in flight; the coordinator drops the worker and
/// reruns the shard rather than trusting a torn stream.
struct ShardDoneMsg {
  std::uint64_t request_id = 0;
  std::uint32_t count = 0;
  std::uint32_t crc32 = 0;
};

/// Failure report; `request_id` 0 when not tied to a request.
struct ErrorMsg {
  std::uint64_t request_id = 0;
  std::string message;
};

/// A worker's metrics scrape (answer to kGetMetrics, whose payload is the
/// encode_u64 nonce echoed back here). `text` is the worker's full
/// Prometheus text-exposition page; the coordinator merges these with its
/// own scrape (telemetry::merge_prometheus) into the fleet-wide view.
/// Added after v4 shipped without a version bump: peers that predate it
/// answer kGetMetrics with kError, which scrapers treat as "no data".
struct MetricsTextMsg {
  std::uint64_t nonce = 0;
  std::string text;
};

// Encoders are pure (no I/O); they throw WireError only on unencodable
// values (strings > 64 KiB, flows > 64Ki steps).
std::vector<std::uint8_t> encode_hello(const HelloMsg& m);
std::vector<std::uint8_t> encode_hello_ack(const HelloAckMsg& m);
std::vector<std::uint8_t> encode_eval_request(const EvalRequestMsg& m);
std::vector<std::uint8_t> encode_eval_result(const EvalResultMsg& m);
std::vector<std::uint8_t> encode_shard_done(const ShardDoneMsg& m);
std::vector<std::uint8_t> encode_error(const ErrorMsg& m);
std::vector<std::uint8_t> encode_u64(std::uint64_t value);  // ping/pong
/// LoadDesign's payload is exactly the aig::encode_binary blob, and
/// LoadRegistry's exactly the TransformRegistry::encode blob — no extra
/// wrapping, so those encoders are the identity and are not spelled out.
std::vector<std::uint8_t> encode_load_design_ack(const aig::Fingerprint& fp);
/// LoadRegistryAck: the 16-byte registry fingerprint now loaded.
std::vector<std::uint8_t> encode_load_registry_ack(
    const opt::RegistryFingerprint& fp);
/// MetricsText: u64 nonce + the Prometheus page (rest of the payload; the
/// page routinely exceeds the 64 KiB string cap, so it is not length-prefixed).
std::vector<std::uint8_t> encode_metrics_text(const MetricsTextMsg& m);

/// One whole EvalResult frame for `m` appended to `out`, byte-identical to
/// encode_frame(kEvalResult, encode_eval_result(m)) but written in place:
/// nothing is allocated once `out` has the capacity. Returns the frame's
/// 32-byte QoR record inside `out` (valid until `out` next changes), for
/// ShardDone's CRC.
std::span<const std::uint8_t, 32> append_eval_result_frame(
    std::vector<std::uint8_t>& out, const EvalResultMsg& m);

/// Decoders throw WireError on truncated or trailing bytes.
HelloMsg decode_hello(std::span<const std::uint8_t> payload);
HelloAckMsg decode_hello_ack(std::span<const std::uint8_t> payload);
EvalRequestMsg decode_eval_request(std::span<const std::uint8_t> payload);
EvalResultMsg decode_eval_result(std::span<const std::uint8_t> payload);
ShardDoneMsg decode_shard_done(std::span<const std::uint8_t> payload);
ErrorMsg decode_error(std::span<const std::uint8_t> payload);
std::uint64_t decode_u64(std::span<const std::uint8_t> payload);
aig::Fingerprint decode_load_design_ack(std::span<const std::uint8_t> payload);
opt::RegistryFingerprint decode_load_registry_ack(
    std::span<const std::uint8_t> payload);
MetricsTextMsg decode_metrics_text(std::span<const std::uint8_t> payload);

}  // namespace flowgen::service
