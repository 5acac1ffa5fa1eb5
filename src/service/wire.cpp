#include "service/wire.hpp"

#include <bit>
#include <cstring>

namespace flowgen::service {

namespace {

// Frame header layout (12 bytes, little-endian):
//   u32 magic, u8 version, u8 type, u16 reserved, u32 payload_len
constexpr std::size_t kHeaderBytes = 12;
// EvalResult payload: u64 request id, u32 index, the 32-byte QoR record.
constexpr std::size_t kEvalResultBytes = 8 + 4 + 32;

// Little-endian stores into bytes the caller has already sized: the fixed
// layouts (frame header, QoR record, EvalResult) are written in place by
// these, with no buffer of their own.
void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_header(std::uint8_t* p, MsgType type, std::uint32_t payload_len) {
  put_u32(p, kFrameMagic);
  p[4] = kProtocolVersion;
  p[5] = static_cast<std::uint8_t>(type);
  p[6] = p[7] = 0;  // reserved
  put_u32(p + 8, payload_len);
}
void put_qor(std::uint8_t* p, const map::QoR& q) {
  put_u64(p, std::bit_cast<std::uint64_t>(q.area_um2));
  put_u64(p + 8, std::bit_cast<std::uint64_t>(q.delay_ps));
  put_u64(p + 16, q.num_cells);
  put_u64(p + 24, q.num_inverters);
}
void put_eval_result(std::uint8_t* p, const EvalResultMsg& m) {
  put_u64(p, m.request_id);
  put_u32(p + 8, m.index);
  put_qor(p + 12, m.result);
}

class Writer {
public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  /// A design or registry fingerprint: two u64 lanes.
  void fp(const std::array<std::uint64_t, 2>& f) {
    u64(f[0]);
    u64(f[1]);
  }
  /// The 32-byte QoR record (qor_record_bytes).
  void qor(const map::QoR& q) {
    const std::size_t at = buf_.size();
    buf_.resize(at + 32);
    put_qor(buf_.data() + at, q);
  }
  void str(const std::string& s) {
    if (s.size() > 0xFFFF) throw WireError("string field too long");
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::array<std::uint64_t, 2> fp() {
    const std::uint64_t lo = u64();
    return {lo, u64()};
  }
  map::QoR qor() {
    map::QoR q;
    q.area_um2 = f64();
    q.delay_ps = f64();
    q.num_cells = static_cast<std::size_t>(u64());
    q.num_inverters = static_cast<std::size_t>(u64());
    return q;
  }
  std::string str() {
    const std::uint16_t len = u16();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  std::span<const std::uint8_t> bytes(std::size_t len) {
    need(len);
    const auto s = data_.subspan(pos_, len);
    pos_ += len;
    return s;
  }
  void expect_end() const {
    if (pos_ != data_.size()) throw WireError("trailing bytes in payload");
  }
  /// For validating wire-supplied element counts before reserving: a count
  /// that cannot fit in the remaining bytes is corrupt, and must fail here
  /// rather than inside a multi-gigabyte reserve().
  std::size_t remaining() const { return data_.size() - pos_; }

private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw WireError("truncated payload");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayloadBytes) throw WireError("payload too large");
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes + payload.size());
  put_header(out.data() + at, type, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(out.data() + at + kHeaderBytes, payload.data(),
                payload.size());
  }
}

std::span<const std::uint8_t, 32> append_eval_result_frame(
    std::vector<std::uint8_t>& out, const EvalResultMsg& m) {
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes + kEvalResultBytes);
  std::uint8_t* frame = out.data() + at;
  put_header(frame, MsgType::kEvalResult, kEvalResultBytes);
  put_eval_result(frame + kHeaderBytes, m);
  return std::span<const std::uint8_t, 32>(frame + kHeaderBytes + 12, 32);
}

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> buf;
  append_frame(buf, type, payload);
  return buf;
}

void send_frame(Socket& sock, MsgType type,
                std::span<const std::uint8_t> payload, int timeout_ms) {
  // Header and payload leave in one buffer (and one send) so a frame is
  // never split by a crash between two writes.
  const std::vector<std::uint8_t> buf = encode_frame(type, payload);
  sock.send_all(buf.data(), buf.size(), timeout_ms);
}

std::optional<Frame> recv_frame(Socket& sock, int timeout_ms) {
  std::uint8_t header[kHeaderBytes];
  if (!sock.recv_all(header, sizeof header, timeout_ms)) return std::nullopt;
  Reader r({header, sizeof header});
  if (r.u32() != kFrameMagic) throw WireError("bad frame magic");
  const std::uint8_t version = r.u8();
  if (version != kProtocolVersion) {
    throw WireError("protocol version mismatch: got " +
                    std::to_string(version) + ", want " +
                    std::to_string(kProtocolVersion));
  }
  Frame f;
  f.type = static_cast<MsgType>(r.u8());
  r.u16();  // reserved
  const std::uint32_t len = r.u32();
  if (len > kMaxPayloadBytes) throw WireError("oversized frame payload");
  f.payload.resize(len);
  if (len > 0 && !sock.recv_all(f.payload.data(), len, timeout_ms)) {
    throw TransportError("peer closed mid-frame");
  }
  return f;
}

std::vector<std::uint8_t> encode_hello(const HelloMsg& m) {
  Writer w;
  w.u8(m.version);
  w.str(m.design_id);
  w.fp(m.registry);
  return w.take();
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckMsg& m) {
  Writer w;
  w.u8(m.version);
  w.str(m.design_id);
  w.fp(m.fingerprint);
  w.fp(m.registry);
  return w.take();
}

std::vector<std::uint8_t> encode_load_design_ack(const aig::Fingerprint& fp) {
  Writer w;
  w.fp(fp);
  return w.take();
}

std::vector<std::uint8_t> encode_load_registry_ack(
    const opt::RegistryFingerprint& fp) {
  Writer w;
  w.fp(fp);
  return w.take();
}

std::vector<std::uint8_t> encode_eval_request(const EvalRequestMsg& m) {
  Writer w;
  w.u64(m.request_id);
  w.fp(m.design);
  w.fp(m.registry);
  w.u32(static_cast<std::uint32_t>(m.flows.size()));
  for (const core::StepsKey& steps : m.flows) {
    if (steps.size() > 0xFFFF) throw WireError("flow too long");
    w.u16(static_cast<std::uint16_t>(steps.size()));
    for (const opt::StepId s : steps) w.u8(s);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_eval_result(const EvalResultMsg& m) {
  std::vector<std::uint8_t> out(kEvalResultBytes);
  put_eval_result(out.data(), m);
  return out;
}

std::vector<std::uint8_t> encode_shard_done(const ShardDoneMsg& m) {
  Writer w;
  w.u64(m.request_id);
  w.u32(m.count);
  w.u32(m.crc32);
  return w.take();
}

std::array<std::uint8_t, 32> qor_record_bytes(const map::QoR& q) {
  std::array<std::uint8_t, 32> out;
  put_qor(out.data(), q);
  return out;
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& m) {
  Writer w;
  w.u64(m.request_id);
  w.str(m.message);
  return w.take();
}

std::vector<std::uint8_t> encode_u64(std::uint64_t value) {
  Writer w;
  w.u64(value);
  return w.take();
}

HelloMsg decode_hello(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  HelloMsg m;
  m.version = r.u8();
  m.design_id = r.str();
  m.registry = r.fp();
  r.expect_end();
  return m;
}

HelloAckMsg decode_hello_ack(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  HelloAckMsg m;
  m.version = r.u8();
  m.design_id = r.str();
  m.fingerprint = r.fp();
  m.registry = r.fp();
  r.expect_end();
  return m;
}

aig::Fingerprint decode_load_design_ack(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const aig::Fingerprint fp = r.fp();
  r.expect_end();
  return fp;
}

opt::RegistryFingerprint decode_load_registry_ack(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const opt::RegistryFingerprint fp = r.fp();
  r.expect_end();
  return fp;
}

EvalRequestMsg decode_eval_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  EvalRequestMsg m;
  m.request_id = r.u64();
  m.design = r.fp();
  m.registry = r.fp();
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 2) {  // every flow costs >= 2 length bytes
    throw WireError("flow count exceeds payload");
  }
  m.flows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t len = r.u16();
    const auto raw = r.bytes(len);
    m.flows.emplace_back(raw.begin(), raw.end());
  }
  r.expect_end();
  return m;
}

EvalResultMsg decode_eval_result(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  EvalResultMsg m;
  m.request_id = r.u64();
  m.index = r.u32();
  m.result = r.qor();
  r.expect_end();
  return m;
}

ShardDoneMsg decode_shard_done(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ShardDoneMsg m;
  m.request_id = r.u64();
  m.count = r.u32();
  m.crc32 = r.u32();
  r.expect_end();
  return m;
}

ErrorMsg decode_error(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ErrorMsg m;
  m.request_id = r.u64();
  m.message = r.str();
  r.expect_end();
  return m;
}

std::uint64_t decode_u64(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const std::uint64_t v = r.u64();
  r.expect_end();
  return v;
}

std::vector<std::uint8_t> encode_metrics_text(const MetricsTextMsg& m) {
  Writer w;
  w.u64(m.nonce);
  std::vector<std::uint8_t> buf = w.take();
  // The page is the rest of the frame (no u16 length prefix: a fleet
  // worker's scrape easily exceeds the 64 KiB string cap).
  buf.insert(buf.end(), m.text.begin(), m.text.end());
  if (buf.size() > kMaxPayloadBytes) throw WireError("metrics page too large");
  return buf;
}

MetricsTextMsg decode_metrics_text(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  MetricsTextMsg m;
  m.nonce = r.u64();
  const auto rest = r.bytes(r.remaining());
  m.text.assign(reinterpret_cast<const char*>(rest.data()), rest.size());
  r.expect_end();
  return m;
}

}  // namespace flowgen::service
