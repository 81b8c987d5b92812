// Serve-subsystem unit tests that need no sockets and no forked
// workers: wire codec round-trips (bit-exact floats), frame error
// paths, shard-job geometry, the batching queue's coalescing contract,
// request validation against the registry's exact error shapes, and the
// env helpers behind the DIVA_SERVE_* knobs.
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "models/factory.h"
#include "nn/init.h"
#include "quant/qat.h"
#include "runtime/env.h"
#include "serve/client.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "test_helpers.h"

namespace diva::serve {
namespace {

using scenario::AdaptedKind;
using scenario::OriginalKind;
using testing::random_tensor;

Tensor awkward_floats(const Shape& shape, std::uint64_t seed) {
  Tensor t = random_tensor(shape, seed, -1.0f, 1.0f);
  // Values that expose any codec rounding: denormal, huge, negative zero.
  if (t.numel() >= 3) {
    t.raw()[0] = 1e-41f;
    t.raw()[1] = -0.0f;
    t.raw()[2] = 3.4e38f;
  }
  return t;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

AttackRequest sample_request() {
  AttackRequest req;
  req.id = 42;
  req.attack = "diva";
  req.original = OriginalKind::kFloat;
  req.adapted = AdaptedKind::kInt8Ste;
  req.spec.cfg.epsilon = 0.05f;
  req.spec.cfg.alpha = 0.0123f;
  req.spec.cfg.steps = 7;
  req.spec.cfg.random_start = true;
  req.spec.cfg.seed = 0xC0FFEE;
  req.spec.cfg.momentum = 0.5f;
  req.spec.c = 1.25f;
  req.spec.k = 2.5f;
  req.spec.target = 3;
  req.images = awkward_floats(Shape{5, 1, 4, 4}, 9);
  req.labels = {0, 1, 2, 3, 4};
  return req;
}

// ---------------------------------------------------------------------------
// Codec round-trips
// ---------------------------------------------------------------------------

TEST(ServeProtocol, AttackRequestRoundTripsBitExactly) {
  const AttackRequest req = sample_request();
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(split_frame(encode_attack_request(req), &payload),
            MsgType::kAttackRequest);
  const AttackRequest back = decode_attack_request(payload);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.attack, req.attack);
  EXPECT_EQ(back.original, req.original);
  EXPECT_EQ(back.adapted, req.adapted);
  EXPECT_EQ(back.spec.cfg.steps, req.spec.cfg.steps);
  EXPECT_EQ(back.spec.cfg.seed, req.spec.cfg.seed);
  EXPECT_EQ(back.spec.cfg.random_start, req.spec.cfg.random_start);
  // Floats must survive as bits, not as values-printed-and-reparsed.
  EXPECT_EQ(std::memcmp(&back.spec.cfg.epsilon, &req.spec.cfg.epsilon, 4), 0);
  EXPECT_EQ(std::memcmp(&back.spec.c, &req.spec.c, 4), 0);
  EXPECT_TRUE(bit_identical(back.images, req.images));
  EXPECT_EQ(back.labels, req.labels);
}

TEST(ServeProtocol, ResultChunkRoundTrips) {
  ResultChunk chunk;
  chunk.id = 7;
  chunk.lo = 8;
  chunk.hi = 11;
  chunk.adv = awkward_floats(Shape{3, 1, 4, 4}, 21);
  chunk.verdicts = {{true, false, false}, {true, true, true},
                    {false, true, false}};
  chunk.seconds = 0.125;
  chunk.worker = 3;
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(split_frame(encode_result_chunk(chunk), &payload),
            MsgType::kResultChunk);
  const ResultChunk back = decode_result_chunk(payload);
  EXPECT_EQ(back.id, chunk.id);
  EXPECT_EQ(back.lo, chunk.lo);
  EXPECT_EQ(back.hi, chunk.hi);
  EXPECT_TRUE(bit_identical(back.adv, chunk.adv));
  ASSERT_EQ(back.verdicts.size(), chunk.verdicts.size());
  for (std::size_t i = 0; i < back.verdicts.size(); ++i) {
    EXPECT_EQ(back.verdicts[i].fooled, chunk.verdicts[i].fooled);
    EXPECT_EQ(back.verdicts[i].preserved, chunk.verdicts[i].preserved);
    EXPECT_EQ(back.verdicts[i].evaded, chunk.verdicts[i].evaded);
  }
  EXPECT_EQ(back.seconds, chunk.seconds);
  EXPECT_EQ(back.worker, chunk.worker);
}

TEST(ServeProtocol, JobBatchAndResultRoundTrip) {
  WireJob job;
  job.ticket = 99;
  job.attack = "pgd";
  job.original = OriginalKind::kNone;
  job.adapted = AdaptedKind::kInt8Fd;
  job.spec.cfg.steps = 3;
  job.first_sample = 16;
  job.images = awkward_floats(Shape{2, 1, 3, 3}, 33);
  job.labels = {5, 6};
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(split_frame(encode_job_batch({job, job}), &payload),
            MsgType::kJobBatch);
  const auto jobs = decode_job_batch(payload);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[1].ticket, 99u);
  EXPECT_EQ(jobs[1].attack, "pgd");
  EXPECT_EQ(jobs[1].first_sample, 16);
  EXPECT_TRUE(bit_identical(jobs[1].images, job.images));

  JobResult ok;
  ok.ticket = 99;
  ok.first_sample = 16;
  ok.adv = job.images;
  ok.verdicts = {{true, true, true}, {false, false, false}};
  ok.seconds = 1.5;
  ASSERT_EQ(split_frame(encode_job_result(ok), &payload), MsgType::kJobResult);
  const JobResult ok_back = decode_job_result(payload);
  EXPECT_TRUE(ok_back.error.empty());
  EXPECT_TRUE(bit_identical(ok_back.adv, ok.adv));
  EXPECT_EQ(ok_back.verdicts.size(), 2u);

  JobResult fail;
  fail.ticket = 100;
  fail.error = "diva needs an original-model source";
  ASSERT_EQ(split_frame(encode_job_result(fail), &payload),
            MsgType::kJobResult);
  const JobResult fail_back = decode_job_result(payload);
  EXPECT_EQ(fail_back.error, fail.error);
  EXPECT_TRUE(fail_back.verdicts.empty());
}

TEST(ServeProtocol, ErrorAndDoneRoundTrip) {
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(split_frame(encode_error({12, "nope"}), &payload),
            MsgType::kError);
  const ErrorReply err = decode_error(payload);
  EXPECT_EQ(err.id, 12u);
  EXPECT_EQ(err.message, "nope");

  ASSERT_EQ(split_frame(encode_request_done({12, 32, 0.5}), &payload),
            MsgType::kRequestDone);
  const RequestDone done = decode_request_done(payload);
  EXPECT_EQ(done.id, 12u);
  EXPECT_EQ(done.total, 32);

  ASSERT_EQ(split_frame(encode_shutdown(), &payload), MsgType::kShutdown);
  EXPECT_TRUE(payload.empty());
}

TEST(ServeProtocol, StatsRequestHasNoPayload) {
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(split_frame(encode_stats_request(), &payload),
            MsgType::kStatsRequest);
  EXPECT_TRUE(payload.empty());
}

TEST(ServeProtocol, StatsReplyRoundTripsBitExactly) {
  telemetry::Snapshot snap;
  snap.counters["kernels.igemm.macs.avx2"] = 0xFFFFFFFFFFFFFFFFull;
  snap.counters["serve.requests.completed"] = 0;
  snap.counters["attack.fd.spsa_probes"] = 12345678901234ull;
  telemetry::HistogramData h;
  h.buckets.assign(telemetry::kHistBuckets, 0);
  h.buckets[0] = 3;
  h.buckets[17] = 1;
  h.buckets[telemetry::kHistBuckets - 1] = 9;
  h.count = 13;
  h.sum = 0xDEADBEEFCAFEull;
  snap.histograms["serve.request_us"] = h;
  telemetry::HistogramData never_hit;  // registered but never recorded
  never_hit.buckets.assign(telemetry::kHistBuckets, 0);
  snap.histograms["serve.batch.jobs"] = never_hit;

  std::vector<std::uint8_t> payload;
  ASSERT_EQ(split_frame(encode_stats_reply(snap), &payload),
            MsgType::kStatsReply);
  const telemetry::Snapshot back = decode_stats_reply(payload);
  // operator== compares counters and histogram contents field-wise;
  // everything on the wire is integers, so equality is bit-exactness.
  EXPECT_TRUE(back == snap);
}

TEST(ServeProtocol, StatsReplyRejectsCorruptPayload) {
  telemetry::Snapshot snap;
  snap.counters["a"] = 1;
  std::vector<std::uint8_t> payload;
  split_frame(encode_stats_reply(snap), &payload);
  payload.resize(payload.size() - 1);
  EXPECT_THROW(decode_stats_reply(payload), Error);
}

// ---------------------------------------------------------------------------
// Frame error paths
// ---------------------------------------------------------------------------

TEST(ServeProtocol, SplitFrameRejectsCorruption) {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> frame = encode_error({1, "x"});

  std::vector<std::uint8_t> bad = frame;
  bad[0] ^= 0xFF;  // magic
  EXPECT_THROW(split_frame(bad, &payload), Error);

  bad = frame;
  bad[4] += 1;  // version
  EXPECT_THROW(split_frame(bad, &payload), Error);

  bad = frame;
  bad[6] = 0x7F;  // unknown type
  EXPECT_THROW(split_frame(bad, &payload), Error);

  bad = frame;
  bad.pop_back();  // length mismatch
  EXPECT_THROW(split_frame(bad, &payload), Error);

  bad.assign(frame.begin(), frame.begin() + 10);  // truncated header
  EXPECT_THROW(split_frame(bad, &payload), Error);
}

TEST(ServeProtocol, DecodeRejectsTruncatedPayload) {
  std::vector<std::uint8_t> payload;
  split_frame(encode_attack_request(sample_request()), &payload);
  payload.resize(payload.size() / 2);
  EXPECT_THROW(decode_attack_request(payload), Error);
}

/// Overwrites consecutive little-endian i64 fields of a payload.
void put_i64s(std::vector<std::uint8_t>& payload, std::size_t at,
              std::initializer_list<std::int64_t> values) {
  WireWriter w;
  for (const std::int64_t v : values) w.i64(v);
  const auto bytes = w.take();
  ASSERT_LE(at + bytes.size(), payload.size());
  std::copy(bytes.begin(), bytes.end(), payload.begin() + at);
}

/// Payload of a one-image request, truncated to its dims and label.
std::vector<std::uint8_t> request_claiming(
    std::initializer_list<std::int64_t> dims) {
  AttackRequest req = sample_request();
  req.images = Tensor(Shape{1, 1, 1, 1});
  req.labels = {0};
  std::vector<std::uint8_t> payload;
  split_frame(encode_attack_request(req), &payload);
  // Tail: four i64 dims, one i32 label, one float pixel.
  put_i64s(payload, payload.size() - 40, dims);
  payload.resize(payload.size() - 4);
  return payload;
}

/// Runs a decode that must throw diva::Error and returns the message,
/// so a test can tell which check fired.
template <typename F>
std::string decode_error(F decode) {
  try {
    decode();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "decode did not throw diva::Error";
  return "";
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(ServeProtocol, DecodeRejectsOversizedDimsBeforeAllocating) {
  // A 91-byte request whose header dims claim a 1 GiB tensor must throw
  // without allocating (and zeroing) it first.
  const auto payload = request_claiming({1, 1024, 1024, 256});
  EXPECT_EQ(payload.size(), 91u);
  const long before = peak_rss_kb();
  const std::string msg =
      decode_error([&] { decode_attack_request(payload); });
  // The size check fired, not a read past the end after allocating. The
  // RSS bound only sees growth above the process's earlier peak.
  EXPECT_NE(msg.find("needs 1073741828 bytes, payload has 4"),
            std::string::npos)
      << msg;
  EXPECT_LT(peak_rss_kb() - before, 256L * 1024) << "decoder allocated first";
}

TEST(ServeProtocol, DecodeRejectsDimsWhoseProductOverflows) {
  // Each dim passes the per-dim cap; their product (2^96) wraps int64.
  constexpr std::int64_t kDim = 1 << 24;
  const auto request = request_claiming({kDim, kDim, kDim, kDim});
  EXPECT_NE(decode_error([&] { decode_attack_request(request); })
                .find("element count overflows"),
            std::string::npos);

  ResultChunk chunk;
  chunk.lo = 0;
  chunk.hi = 1;
  chunk.adv = Tensor(Shape{1, 1, 1, 1});
  chunk.verdicts = {{true, true, true}};
  std::vector<std::uint8_t> payload;
  split_frame(encode_result_chunk(chunk), &payload);
  // Tail: four i64 dims, one float.
  put_i64s(payload, payload.size() - 36, {kDim, kDim, kDim, kDim});
  EXPECT_NE(decode_error([&] { decode_result_chunk(payload); })
                .find("element count overflows"),
            std::string::npos);
}

TEST(ServeProtocol, DecodeRejectsVerdictCountLargerThanPayload) {
  JobResult result;
  result.adv = Tensor(Shape{1, 1, 1, 1});
  result.verdicts = {{false, true, false}};
  std::vector<std::uint8_t> payload;
  split_frame(encode_job_result(result), &payload);
  // ticket, first_sample, seconds, empty error string, then the count
  // (at the 2^24 cap: 48 MiB of verdicts if allocated up front).
  put_i64s(payload, 8 + 8 + 8 + 4, {std::int64_t{1} << 24});
  const long before = peak_rss_kb();
  const std::string msg = decode_error([&] { decode_job_result(payload); });
  // Rejected by the payload-size check, before the verdicts are allocated.
  EXPECT_NE(msg.find("payload bytes"), std::string::npos) << msg;
  EXPECT_LT(peak_rss_kb() - before, 16L * 1024) << "decoder allocated first";
}

TEST(ServeProtocol, DecodeRejectsHistogramCountLargerThanPayload) {
  // 20000 minimal, distinctly named histograms behind a count of 2^20.
  // Decoded one by one, each would allocate its 256 buckets (about
  // 40 MiB in all) before the payload ran out.
  WireWriter w;
  w.u32(0);  // no counters
  w.u32(1u << 20);
  for (int i = 0; i < 20000; ++i) {
    w.str("h" + std::to_string(i));
    w.u64(0);  // count
    w.u64(0);  // sum
    w.u32(0);  // no non-zero buckets
  }
  const std::vector<std::uint8_t> payload = w.take();
  const long before = peak_rss_kb();
  const std::string msg = decode_error([&] { decode_stats_reply(payload); });
  EXPECT_NE(msg.find("implausible histogram count 1048576"), std::string::npos)
      << msg;
  EXPECT_LT(peak_rss_kb() - before, 16L * 1024) << "decoder allocated first";
}

TEST(ServeProtocol, FrameIoRoundTripsOverSocketpair) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const AttackRequest req = sample_request();
  write_frame(sv[0], encode_attack_request(req));
  MsgType type;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(sv[1], &type, &payload));
  EXPECT_EQ(type, MsgType::kAttackRequest);
  EXPECT_TRUE(bit_identical(decode_attack_request(payload).images,
                            req.images));
  ::close(sv[0]);  // clean EOF
  EXPECT_FALSE(read_frame(sv[1], &type, &payload));
  ::close(sv[1]);
}

// ---------------------------------------------------------------------------
// Shard geometry + batching queue
// ---------------------------------------------------------------------------

std::shared_ptr<const AttackRequest> tiny_request(std::int64_t n) {
  AttackRequest req;
  req.attack = "pgd";
  req.images = Tensor(Shape{n, 1, 2, 2});
  req.labels.assign(static_cast<std::size_t>(n), 0);
  return std::make_shared<const AttackRequest>(std::move(req));
}

TEST(ServeQueue, ShardJobsUseEngineGeometry) {
  std::uint64_t ticket = 5;
  const auto jobs = make_shard_jobs(tiny_request(10), 77, 4, &ticket);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].lo, 0);
  EXPECT_EQ(jobs[0].hi, 4);
  EXPECT_EQ(jobs[1].lo, 4);
  EXPECT_EQ(jobs[1].hi, 8);
  EXPECT_EQ(jobs[2].lo, 8);
  EXPECT_EQ(jobs[2].hi, 10);
  EXPECT_EQ(jobs[0].ticket, 5u);
  EXPECT_EQ(jobs[2].ticket, 7u);
  EXPECT_EQ(ticket, 8u);
  for (const auto& j : jobs) EXPECT_EQ(j.request_key, 77u);
}

TEST(ServeQueue, PopBatchHonorsMaxJobsInFifoOrder) {
  BatchingQueue q;
  std::uint64_t ticket = 0;
  q.push(make_shard_jobs(tiny_request(20), 1, 4, &ticket));
  ASSERT_EQ(q.size(), 5u);
  const CoalescePolicy policy{3, std::chrono::microseconds(0)};
  auto batch = q.pop_batch(policy);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].ticket, 0u);
  EXPECT_EQ(batch[2].ticket, 2u);
  batch = q.pop_batch(policy);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].ticket, 3u);
}

TEST(ServeQueue, RequeuePutsJobsAtTheFrontInOrder) {
  BatchingQueue q;
  std::uint64_t ticket = 0;
  q.push(make_shard_jobs(tiny_request(8), 1, 4, &ticket));   // tickets 0,1
  q.push(make_shard_jobs(tiny_request(4), 2, 4, &ticket));   // ticket 2
  const CoalescePolicy two{2, std::chrono::microseconds(0)};
  auto inflight = q.pop_batch(two);  // 0,1
  ASSERT_EQ(inflight.size(), 2u);
  q.requeue(std::move(inflight));  // dead worker path
  const auto batch = q.pop_batch(CoalescePolicy{8, {}});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].ticket, 0u);
  EXPECT_EQ(batch[1].ticket, 1u);
  EXPECT_EQ(batch[2].ticket, 2u);
}

TEST(ServeQueue, CloseDrainsThenReturnsEmpty) {
  BatchingQueue q;
  std::uint64_t ticket = 0;
  q.push(make_shard_jobs(tiny_request(4), 1, 4, &ticket));
  q.close();
  EXPECT_TRUE(q.closed());
  q.push(make_shard_jobs(tiny_request(4), 2, 4, &ticket));  // dropped
  EXPECT_EQ(q.pop_batch(CoalescePolicy{8, {}}).size(), 1u);
  EXPECT_TRUE(q.pop_batch(CoalescePolicy{8, {}}).empty());
}

TEST(ServeQueue, CoalescingWindowGathersLateArrivals) {
  BatchingQueue q;
  std::uint64_t ticket = 0;
  q.push(make_shard_jobs(tiny_request(4), 1, 4, &ticket));
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::uint64_t t2 = 10;
    q.push(make_shard_jobs(tiny_request(4), 2, 4, &t2));
  });
  // Generous window so the late push lands well inside it.
  const auto batch =
      q.pop_batch(CoalescePolicy{2, std::chrono::microseconds(2'000'000)});
  late.join();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1].ticket, 10u);
}

// ---------------------------------------------------------------------------
// Request validation: the server must reject with the registry's own
// error shapes, never invent parallel ones.
// ---------------------------------------------------------------------------

class ServeValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = make_digit_net(NetMode::kFloat);
    init_parameters(*original_, 301);
    qat_ = make_digit_net(NetMode::kQat);
    init_parameters(*qat_, 302);
    calibrate(*qat_, {random_tensor(Shape{4, 1, 28, 28}, 303, 0.0f, 1.0f)});
    quantized_ = std::make_unique<QuantizedModel>(
        QuantizedModel::compile(*qat_, Shape{1, 28, 28}));
    pool_.original = original_.get();
    pool_.adapted_qat = qat_.get();
    pool_.quantized = quantized_.get();

    cfg_.socket_path = "/tmp/diva_test_validate.sock";
    server_ = std::make_unique<AttackServer>(pool_, cfg_);  // never started
  }

  AttackRequest valid_request() const {
    AttackRequest req;
    req.attack = "diva";
    req.original = scenario::OriginalKind::kFloat;
    req.adapted = scenario::AdaptedKind::kInt8Ste;
    req.spec.cfg.epsilon = 0.05f;
    req.spec.cfg.alpha = 0.01f;
    req.spec.cfg.steps = 2;
    req.images = testing::random_tensor(Shape{2, 1, 28, 28}, 7, 0.0f, 1.0f);
    req.labels = {0, 1};
    return req;
  }

  std::unique_ptr<Sequential> original_, qat_;
  std::unique_ptr<QuantizedModel> quantized_;
  scenario::ModelPool pool_;
  ServeConfig cfg_;
  std::unique_ptr<AttackServer> server_;
};

TEST_F(ServeValidationTest, AcceptsAWellFormedRequest) {
  EXPECT_EQ(server_->validate_request(valid_request()), "");
}

TEST_F(ServeValidationTest, UnknownKindUsesRegistryErrorText) {
  AttackRequest req = valid_request();
  req.attack = "nope";
  std::string expected;
  try {
    attack_traits("nope");
  } catch (const Error& e) {
    expected = e.what();
  }
  ASSERT_NE(expected, "");
  EXPECT_EQ(server_->validate_request(req), expected);
  EXPECT_NE(expected.find("unknown attack kind 'nope'"), std::string::npos);
}

TEST_F(ServeValidationTest, TraitMismatchUsesValidateAttackTargetsText) {
  AttackRequest req = valid_request();
  req.original = scenario::OriginalKind::kNone;  // diva needs an original
  const AttackTargets targets{
      nullptr, scenario::make_adapted_source(pool_, req.adapted, {})};
  const std::string expected = validate_attack_targets("diva", targets);
  ASSERT_NE(expected, "");
  EXPECT_EQ(server_->validate_request(req), expected);
}

TEST_F(ServeValidationTest, MissingPoolModelUsesScenarioDiagnostics) {
  scenario::ModelPool no_surrogate = pool_;
  AttackServer server(no_surrogate, cfg_);
  AttackRequest req = valid_request();
  req.original = scenario::OriginalKind::kSurrogate;
  EXPECT_EQ(server.validate_request(req),
            scenario::pool_missing_reason(no_surrogate, req.original,
                                          req.adapted));
  EXPECT_NE(server.validate_request(req).find("surrogate"),
            std::string::npos);
}

TEST_F(ServeValidationTest, RejectsGeometryAndBudgetErrors) {
  AttackRequest req = valid_request();
  req.labels.pop_back();
  EXPECT_NE(server_->validate_request(req), "");

  req = valid_request();
  req.spec.cfg.steps = 0;
  EXPECT_NE(server_->validate_request(req), "");

  req = valid_request();
  req.adapted = scenario::AdaptedKind::kInt8Batched;
  const std::string reason = server_->validate_request(req);
  EXPECT_NE(reason.find("int8-batched"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Env helpers (the one path for DIVA_SERVE_* and bench knobs)
// ---------------------------------------------------------------------------

TEST(EnvHelpers, FlagIntStringSemantics) {
  ::setenv("DIVA_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("DIVA_TEST_FLAG", false));
  ::setenv("DIVA_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env_flag("DIVA_TEST_FLAG", true));
  ::setenv("DIVA_TEST_FLAG", "", 1);
  EXPECT_FALSE(env_flag("DIVA_TEST_FLAG", true));
  ::unsetenv("DIVA_TEST_FLAG");
  EXPECT_TRUE(env_flag("DIVA_TEST_FLAG", true));

  ::setenv("DIVA_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("DIVA_TEST_INT", 7), 42);
  ::setenv("DIVA_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(env_int("DIVA_TEST_INT", 7), 7);
  ::unsetenv("DIVA_TEST_INT");
  EXPECT_EQ(env_int("DIVA_TEST_INT", 7), 7);

  ::setenv("DIVA_TEST_STR", "", 1);
  EXPECT_EQ(env_string("DIVA_TEST_STR", "fallback"), "");
  ::unsetenv("DIVA_TEST_STR");
  EXPECT_EQ(env_string("DIVA_TEST_STR", "fallback"), "fallback");
}

TEST(EnvHelpers, ClampedCountKnobsRejectOutOfRangeOverrides) {
  // Size/count knobs read through the clamped helpers: a typo'd
  // negative or zero override must fall back, never flow into an
  // allocation size or loop bound.
  ::setenv("DIVA_TEST_INT", "3", 1);
  EXPECT_EQ(env_int_positive("DIVA_TEST_INT", 7), 3);
  EXPECT_EQ(env_int_nonneg("DIVA_TEST_INT", 7), 3);

  ::setenv("DIVA_TEST_INT", "0", 1);
  EXPECT_EQ(env_int_positive("DIVA_TEST_INT", 7), 7);  // counts need >= 1
  EXPECT_EQ(env_int_nonneg("DIVA_TEST_INT", 7), 0);    // 0 = "off" is valid

  ::setenv("DIVA_TEST_INT", "-5", 1);
  EXPECT_EQ(env_int_positive("DIVA_TEST_INT", 7), 7);
  EXPECT_EQ(env_int_nonneg("DIVA_TEST_INT", 7), 7);

  ::unsetenv("DIVA_TEST_INT");
  EXPECT_EQ(env_int_positive("DIVA_TEST_INT", 7), 7);
  EXPECT_EQ(env_int_nonneg("DIVA_TEST_INT", 7), 7);
}

}  // namespace
}  // namespace diva::serve
