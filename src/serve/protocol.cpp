#include "serve/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace diva::serve {

namespace {

/// Frames are images-dominated; anything past this is a corrupt length
/// field, not a real request (1 GiB of float32 is ~256M pixels).
constexpr std::uint64_t kMaxPayload = 1ULL << 30;

constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 8;

void append_header(std::vector<std::uint8_t>& frame, MsgType type,
                   std::uint64_t payload_bytes) {
  WireWriter w;
  w.u32(kMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(payload_bytes);
  const auto header = w.take();
  frame.insert(frame.end(), header.begin(), header.end());
}

std::vector<std::uint8_t> finish_frame(MsgType type, WireWriter&& payload) {
  std::vector<std::uint8_t> body = payload.take();
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + body.size());
  append_header(frame, type, body.size());
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

void write_spec(WireWriter& w, const AttackSpec& spec) {
  DIVA_CHECK(!spec.cfg.step_callback,
             "attack specs with step callbacks cannot travel the wire");
  w.f32(spec.cfg.epsilon);
  w.f32(spec.cfg.alpha);
  w.i32(spec.cfg.steps);
  w.u8(spec.cfg.random_start ? 1 : 0);
  w.u64(spec.cfg.seed);
  w.f32(spec.cfg.momentum);
  w.f32(spec.c);
  w.f32(spec.k);
  w.i32(spec.target);
}

AttackSpec read_spec(WireReader& r) {
  AttackSpec spec;
  spec.cfg.epsilon = r.f32();
  spec.cfg.alpha = r.f32();
  spec.cfg.steps = r.i32();
  spec.cfg.random_start = r.u8() != 0;
  spec.cfg.seed = r.u64();
  spec.cfg.momentum = r.f32();
  spec.c = r.f32();
  spec.k = r.f32();
  spec.target = r.i32();
  return spec;
}

void write_batch(WireWriter& w, const Tensor& images,
                 const std::vector<int>& labels) {
  DIVA_CHECK(images.rank() == 4, "wire batches must be NCHW, got rank "
                                     << images.rank());
  DIVA_CHECK(static_cast<std::int64_t>(labels.size()) == images.dim(0),
             "labels size " << labels.size() << " != batch " << images.dim(0));
  for (std::size_t d = 0; d < 4; ++d) w.i64(images.dim(d));
  for (const int label : labels) w.i32(label);
  w.floats(images.raw(), static_cast<std::size_t>(images.numel()));
}

/// Reads NCHW dims and checks, before anything is allocated, that the
/// rest of the payload holds the tensor's floats plus, with `labels`, one
/// int32 label per image. The element count is overflow-checked.
Shape read_tensor_shape(WireReader& r, bool labels) {
  std::int64_t dims[4];
  std::int64_t numel = 1;
  for (auto& d : dims) {
    d = r.i64();
    DIVA_CHECK(d > 0 && d <= (1 << 24), "implausible wire tensor dim " << d);
    DIVA_CHECK(!__builtin_mul_overflow(numel, d, &numel),
               "wire tensor element count overflows int64");
  }
  // Labels and pixels are four bytes each; numel + dims[0] fits in u64.
  const std::uint64_t values =
      static_cast<std::uint64_t>(numel) +
      (labels ? static_cast<std::uint64_t>(dims[0]) : 0);
  DIVA_CHECK(values <= r.remaining() / 4,
             "wire tensor [" << dims[0] << "," << dims[1] << "," << dims[2]
                             << "," << dims[3] << "] needs " << values * 4
                             << " bytes, payload has " << r.remaining());
  return Shape{dims[0], dims[1], dims[2], dims[3]};
}

Tensor read_tensor(WireReader& r, const Shape& shape) {
  Tensor t(shape);
  r.floats(t.raw(), static_cast<std::size_t>(t.numel()));
  return t;
}

void read_batch(WireReader& r, Tensor* images, std::vector<int>* labels) {
  const Shape shape = read_tensor_shape(r, /*labels=*/true);
  labels->clear();
  labels->reserve(static_cast<std::size_t>(shape[0]));
  for (std::int64_t i = 0; i < shape[0]; ++i) labels->push_back(r.i32());
  *images = read_tensor(r, shape);
}

void write_verdicts(WireWriter& w, const std::vector<SampleVerdict>& vs) {
  w.u64(vs.size());
  for (const SampleVerdict& v : vs) {
    w.u8(static_cast<std::uint8_t>((v.fooled ? 1 : 0) |
                                   (v.preserved ? 2 : 0) |
                                   (v.evaded ? 4 : 0)));
  }
}

std::vector<SampleVerdict> read_verdicts(WireReader& r) {
  const std::uint64_t n = r.u64();
  DIVA_CHECK(n <= (1ULL << 24) && n <= r.remaining(),
             "implausible verdict count " << n << " for " << r.remaining()
                                          << " payload bytes");
  std::vector<SampleVerdict> vs(static_cast<std::size_t>(n));
  for (auto& v : vs) {
    const std::uint8_t bits = r.u8();
    v.fooled = (bits & 1) != 0;
    v.preserved = (bits & 2) != 0;
    v.evaded = (bits & 4) != 0;
  }
  return vs;
}

void write_job(WireWriter& w, const WireJob& job) {
  w.u64(job.ticket);
  w.str(job.attack);
  w.u8(static_cast<std::uint8_t>(job.original));
  w.u8(static_cast<std::uint8_t>(job.adapted));
  write_spec(w, job.spec);
  w.i64(job.first_sample);
  write_batch(w, job.images, job.labels);
}

scenario::OriginalKind read_original_kind(WireReader& r) {
  const std::uint8_t raw = r.u8();
  DIVA_CHECK(raw <= static_cast<std::uint8_t>(
                        scenario::OriginalKind::kSurrogate),
             "bad original-kind byte " << static_cast<int>(raw));
  return static_cast<scenario::OriginalKind>(raw);
}

scenario::AdaptedKind read_adapted_kind(WireReader& r) {
  const std::uint8_t raw = r.u8();
  DIVA_CHECK(raw <= static_cast<std::uint8_t>(
                        scenario::AdaptedKind::kInt8EarlyExit),
             "bad adapted-kind byte " << static_cast<int>(raw));
  return static_cast<scenario::AdaptedKind>(raw);
}

WireJob read_job(WireReader& r) {
  WireJob job;
  job.ticket = r.u64();
  job.attack = r.str();
  job.original = read_original_kind(r);
  job.adapted = read_adapted_kind(r);
  job.spec = read_spec(r);
  job.first_sample = r.i64();
  read_batch(r, &job.images, &job.labels);
  return job;
}

}  // namespace

// ---------------------------------------------------------------------------
// WireWriter / WireReader
// ---------------------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u32(bits);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::floats(const float* data, std::size_t count) {
  const std::size_t old = buf_.size();
  buf_.resize(old + count * sizeof(float));
  std::memcpy(buf_.data() + old, data, count * sizeof(float));
}

const std::uint8_t* WireReader::need(std::size_t n) {
  DIVA_CHECK(off_ + n <= size_, "truncated frame payload: need "
                                    << n << " bytes at offset " << off_
                                    << " of " << size_);
  const std::uint8_t* at = p_ + off_;
  off_ += n;
  return at;
}

std::uint8_t WireReader::u8() { return *need(1); }

std::uint16_t WireReader::u16() {
  const std::uint8_t* b = need(2);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t WireReader::u32() {
  const std::uint8_t* b = need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  const std::uint8_t* b = need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

float WireReader::f32() {
  const std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  const std::uint8_t* b = need(n);
  return std::string(reinterpret_cast<const char*>(b), n);
}

void WireReader::floats(float* dst, std::size_t count) {
  const std::uint8_t* b = need(count * sizeof(float));
  std::memcpy(dst, b, count * sizeof(float));
}

void WireReader::expect_done() const {
  DIVA_CHECK(off_ == size_, "frame payload has " << (size_ - off_)
                                                 << " trailing bytes");
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_attack_request(const AttackRequest& req) {
  WireWriter w;
  w.u64(req.id);
  w.str(req.attack);
  w.u8(static_cast<std::uint8_t>(req.original));
  w.u8(static_cast<std::uint8_t>(req.adapted));
  write_spec(w, req.spec);
  write_batch(w, req.images, req.labels);
  return finish_frame(MsgType::kAttackRequest, std::move(w));
}

AttackRequest decode_attack_request(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  AttackRequest req;
  req.id = r.u64();
  req.attack = r.str();
  req.original = read_original_kind(r);
  req.adapted = read_adapted_kind(r);
  req.spec = read_spec(r);
  read_batch(r, &req.images, &req.labels);
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_result_chunk(const ResultChunk& chunk) {
  DIVA_CHECK(chunk.adv.rank() == 4 &&
                 chunk.adv.dim(0) == chunk.hi - chunk.lo &&
                 static_cast<std::int64_t>(chunk.verdicts.size()) ==
                     chunk.hi - chunk.lo,
             "result chunk shape mismatch");
  WireWriter w;
  w.u64(chunk.id);
  w.i64(chunk.lo);
  w.i64(chunk.hi);
  w.f64(chunk.seconds);
  w.u32(chunk.worker);
  write_verdicts(w, chunk.verdicts);
  for (std::size_t d = 0; d < 4; ++d) w.i64(chunk.adv.dim(d));
  w.floats(chunk.adv.raw(), static_cast<std::size_t>(chunk.adv.numel()));
  return finish_frame(MsgType::kResultChunk, std::move(w));
}

ResultChunk decode_result_chunk(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  ResultChunk chunk;
  chunk.id = r.u64();
  chunk.lo = r.i64();
  chunk.hi = r.i64();
  chunk.seconds = r.f64();
  chunk.worker = r.u32();
  chunk.verdicts = read_verdicts(r);
  chunk.adv = read_tensor(r, read_tensor_shape(r, /*labels=*/false));
  r.expect_done();
  DIVA_CHECK(chunk.hi > chunk.lo && chunk.adv.dim(0) == chunk.hi - chunk.lo &&
                 static_cast<std::int64_t>(chunk.verdicts.size()) ==
                     chunk.hi - chunk.lo,
             "result chunk range/payload mismatch");
  return chunk;
}

std::vector<std::uint8_t> encode_request_done(const RequestDone& done) {
  WireWriter w;
  w.u64(done.id);
  w.i64(done.total);
  w.f64(done.seconds);
  return finish_frame(MsgType::kRequestDone, std::move(w));
}

RequestDone decode_request_done(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  RequestDone done;
  done.id = r.u64();
  done.total = r.i64();
  done.seconds = r.f64();
  r.expect_done();
  return done;
}

std::vector<std::uint8_t> encode_error(const ErrorReply& err) {
  WireWriter w;
  w.u64(err.id);
  w.str(err.message);
  return finish_frame(MsgType::kError, std::move(w));
}

ErrorReply decode_error(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  ErrorReply err;
  err.id = r.u64();
  err.message = r.str();
  r.expect_done();
  return err;
}

std::vector<std::uint8_t> encode_job_batch(const std::vector<WireJob>& jobs) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(jobs.size()));
  for (const WireJob& job : jobs) write_job(w, job);
  return finish_frame(MsgType::kJobBatch, std::move(w));
}

std::vector<WireJob> decode_job_batch(
    const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  const std::uint32_t n = r.u32();
  // Every job encodes to more than one byte.
  DIVA_CHECK(n <= (1u << 20) && n <= r.remaining(),
             "implausible job-batch size " << n);
  std::vector<WireJob> jobs;
  for (std::uint32_t i = 0; i < n; ++i) jobs.push_back(read_job(r));
  r.expect_done();
  return jobs;
}

std::vector<std::uint8_t> encode_job_result(const JobResult& result) {
  WireWriter w;
  w.u64(result.ticket);
  w.i64(result.first_sample);
  w.f64(result.seconds);
  w.str(result.error);
  if (result.error.empty()) {
    write_verdicts(w, result.verdicts);
    for (std::size_t d = 0; d < 4; ++d) w.i64(result.adv.dim(d));
    w.floats(result.adv.raw(), static_cast<std::size_t>(result.adv.numel()));
  }
  return finish_frame(MsgType::kJobResult, std::move(w));
}

JobResult decode_job_result(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  JobResult result;
  result.ticket = r.u64();
  result.first_sample = r.i64();
  result.seconds = r.f64();
  result.error = r.str();
  if (result.error.empty()) {
    result.verdicts = read_verdicts(r);
    result.adv = read_tensor(r, read_tensor_shape(r, /*labels=*/false));
  }
  r.expect_done();
  return result;
}

std::vector<std::uint8_t> encode_shutdown() {
  return finish_frame(MsgType::kShutdown, WireWriter{});
}

std::vector<std::uint8_t> encode_stats_request() {
  return finish_frame(MsgType::kStatsRequest, WireWriter{});
}

std::vector<std::uint8_t> encode_stats_reply(
    const telemetry::Snapshot& snap) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    w.str(name);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    w.str(name);
    w.u64(h.count);
    w.u64(h.sum);
    // Sparse buckets: [index, count] pairs for the non-zero ones.
    std::uint32_t nonzero = 0;
    for (const std::uint64_t b : h.buckets) nonzero += b != 0 ? 1 : 0;
    w.u32(nonzero);
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      w.u16(static_cast<std::uint16_t>(b));
      w.u64(h.buckets[b]);
    }
  }
  return finish_frame(MsgType::kStatsReply, std::move(w));
}

telemetry::Snapshot decode_stats_reply(
    const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  telemetry::Snapshot snap;
  // Each count is bounded by the entries the rest of the payload can
  // hold at their minimum wire size, so a short payload cannot make the
  // loops below allocate (a histogram's 256 buckets) before reading.
  constexpr std::size_t kMinCounterBytes = 4 + 8;        // name len, value
  constexpr std::size_t kMinHistBytes = 4 + 8 + 8 + 4;   // + count, sum, nz
  const std::uint32_t n_counters = r.u32();
  DIVA_CHECK(n_counters <= (1u << 20) &&
                 n_counters <= r.remaining() / kMinCounterBytes,
             "implausible counter count " << n_counters << " for "
                                          << r.remaining()
                                          << " payload bytes");
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    const std::string name = r.str();
    snap.counters[name] = r.u64();
  }
  const std::uint32_t n_hists = r.u32();
  DIVA_CHECK(n_hists <= (1u << 20) && n_hists <= r.remaining() / kMinHistBytes,
             "implausible histogram count " << n_hists << " for "
                                            << r.remaining()
                                            << " payload bytes");
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    const std::string name = r.str();
    telemetry::HistogramData h;
    h.buckets.assign(telemetry::kHistBuckets, 0);
    h.count = r.u64();
    h.sum = r.u64();
    const std::uint32_t nonzero = r.u32();
    DIVA_CHECK(nonzero <= static_cast<std::uint32_t>(telemetry::kHistBuckets),
               "implausible bucket count " << nonzero);
    for (std::uint32_t b = 0; b < nonzero; ++b) {
      const std::uint16_t idx = r.u16();
      DIVA_CHECK(idx < telemetry::kHistBuckets, "bucket index out of range "
                                                    << idx);
      h.buckets[idx] = r.u64();
    }
    snap.histograms[name] = std::move(h);
  }
  r.expect_done();
  return snap;
}

MsgType split_frame(const std::vector<std::uint8_t>& frame,
                    std::vector<std::uint8_t>* payload) {
  DIVA_CHECK(frame.size() >= kHeaderBytes, "frame shorter than its header");
  WireReader r(frame.data(), kHeaderBytes);
  DIVA_CHECK(r.u32() == kMagic, "bad frame magic");
  const std::uint16_t version = r.u16();
  DIVA_CHECK(version == kProtocolVersion,
             "protocol version mismatch: got " << version << ", want "
                                               << kProtocolVersion);
  const std::uint16_t raw_type = r.u16();
  DIVA_CHECK(raw_type >= 1 &&
                 raw_type <= static_cast<std::uint16_t>(MsgType::kStatsReply),
             "unknown frame type " << raw_type);
  const std::uint64_t len = r.u64();
  DIVA_CHECK(len <= kMaxPayload, "frame payload too large: " << len);
  DIVA_CHECK(frame.size() == kHeaderBytes + len,
             "frame length mismatch: header says " << len << ", have "
                                                   << frame.size() -
                                                          kHeaderBytes);
  payload->assign(frame.begin() + kHeaderBytes, frame.end());
  return static_cast<MsgType>(raw_type);
}

// ---------------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------------

namespace {

/// Full read; returns bytes read (short only at EOF). Throws on errors.
std::size_t read_fully(int fd, std::uint8_t* dst, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, dst + got, n - got);
    if (r == 0) break;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      DIVA_FAIL("socket read failed: " << std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

void write_frame(int fd, const std::vector<std::uint8_t>& frame) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE instead of SIGPIPE.
    const ssize_t r = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      DIVA_FAIL("socket write failed: " << std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

bool read_frame(int fd, MsgType* type, std::vector<std::uint8_t>* payload) {
  std::uint8_t header[kHeaderBytes];
  const std::size_t got = read_fully(fd, header, kHeaderBytes);
  if (got == 0) return false;  // clean EOF between frames
  DIVA_CHECK(got == kHeaderBytes, "EOF inside a frame header");
  WireReader r(header, kHeaderBytes);
  DIVA_CHECK(r.u32() == kMagic, "bad frame magic");
  const std::uint16_t version = r.u16();
  DIVA_CHECK(version == kProtocolVersion,
             "protocol version mismatch: got " << version << ", want "
                                               << kProtocolVersion);
  const std::uint16_t raw_type = r.u16();
  DIVA_CHECK(raw_type >= 1 &&
                 raw_type <= static_cast<std::uint16_t>(MsgType::kStatsReply),
             "unknown frame type " << raw_type);
  const std::uint64_t len = r.u64();
  DIVA_CHECK(len <= kMaxPayload, "frame payload too large: " << len);
  payload->resize(static_cast<std::size_t>(len));
  if (len > 0) {
    DIVA_CHECK(read_fully(fd, payload->data(), payload->size()) ==
                   payload->size(),
               "EOF inside a frame payload");
  }
  *type = static_cast<MsgType>(raw_type);
  return true;
}

}  // namespace diva::serve
