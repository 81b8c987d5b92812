#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>

#include "core/trainer.h"
#include "data/synth_digits.h"
#include "data/synth_imagenet.h"
#include "models/factory.h"
#include "nn/fold_bn.h"
#include "nn/init.h"
#include "perfbench.h"
#include "quant/qat.h"
#include "runtime/rng.h"
#include "runtime/thread_pool.h"

namespace perfbench {

using namespace diva;

scenario::ModelPool Pool::model_pool() const {
  scenario::ModelPool p;
  p.original = original.get();
  p.adapted_qat = qat.get();
  p.quantized = digit.get();
  return p;
}

namespace {

std::unique_ptr<Pool> build_pool_on_this_thread() {
  auto pool = std::make_unique<Pool>();

  // Digit track: the tests/test_scenario_matrix.cpp fixture recipe for
  // the float original, its QAT twin and the compiled int8 artifact.
  const SynthDigits gen(77);
  const Dataset train = gen.generate(40, 0);
  pool->original = make_digit_net(NetMode::kFloat);
  init_parameters(*pool->original, 11);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.seed = 12;
  train_classifier(*pool->original, train, cfg);

  pool->qat = make_digit_net(NetMode::kQat);
  fold_batchnorm_into(*pool->original, *pool->qat);
  calibrate(*pool->qat, {train.images});
  TrainConfig qcfg;
  qcfg.epochs = 2;
  qcfg.lr = 0.01f;
  qcfg.seed = 15;
  train_classifier(*pool->qat, train, qcfg);
  const Shape digit_shape{SynthDigits::kChannels, SynthDigits::kHeight,
                          SynthDigits::kWidth};
  pool->digit = std::make_unique<QuantizedModel>(
      QuantizedModel::compile(*pool->qat, digit_shape));
  pool->graphs.push_back({"digit", digit_shape, pool->digit.get()});
  // Eval mode from here on: the QAT observers stay frozen.
  pool->original->set_training(false);
  pool->qat->set_training(false);

  // Zoo graphs: untrained weights, real calibration. Their int8
  // arithmetic cost does not depend on the weight values.
  const Shape img_shape{SynthImageNet::kChannels, SynthImageNet::kHeight,
                        SynthImageNet::kWidth};
  const Dataset calib = SynthImageNet(10).generate(4, 0);
  const struct {
    const char* name;
    std::unique_ptr<Sequential> (*make)();
  } zoo[] = {
      {"resnet", [] { return make_model(Arch::kResNet, 10, NetMode::kQat); }},
      {"mobilenet",
       [] { return make_model(Arch::kMobileNet, 10, NetMode::kQat); }},
      {"densenet",
       [] { return make_model(Arch::kDenseNet, 10, NetMode::kQat); }},
      {"edge_residual",
       [] { return make_edge_residual_net(10, NetMode::kQat, 3); }},
  };
  std::uint64_t init_seed = 101;
  for (const auto& z : zoo) {
    auto net = z.make();
    init_parameters(*net, init_seed++);
    calibrate(*net, {calib.images});
    pool->zoo_int8.push_back(std::make_unique<QuantizedModel>(
        QuantizedModel::compile(*net, img_shape)));
    pool->zoo_qat.push_back(std::move(net));
    pool->graphs.push_back({z.name, img_shape, pool->zoo_int8.back().get()});
  }
  return pool;
}

}  // namespace

std::unique_ptr<Pool> build_pool() {
  // Training runs as one task on a 1-thread pool, where nested
  // parallel_for calls run inline. With the shared pool, Conv2d::backward
  // sums per-chunk weight gradients in completion order, so the trained
  // nets (and every quality number) would differ from run to run. The
  // same thread serves every set-up, so its heap is reused and peak RSS
  // does not depend on how many set-ups ran.
  static ThreadPool one(1);
  std::promise<std::unique_ptr<Pool>> done;
  one.submit([&] {
    try {
      done.set_value(build_pool_on_this_thread());
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  return done.get_future().get();
}

// ---------------------------------------------------------------------------
// Report / Checks.
// ---------------------------------------------------------------------------

void Report::put(Metric m) {
  for (Metric& old : metrics_) {
    if (old.name == m.name) {
      old = std::move(m);
      return;
    }
  }
  metrics_.push_back(std::move(m));
}

void Report::e2e(const std::string& name, const std::string& alias,
                 double value, const std::string& unit) {
  put({name, value, unit, Kind::kEndToEnd, alias});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  put({name, value, unit, Kind::kLayer, ""});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  put({name, value, unit, Kind::kInfo, ""});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Checks::check(const std::string& name, bool ok) {
  ++attempted;
  if (!ok) {
    ++failed;
    ++failures[name];
  }
}

void Checks::ops(std::int64_t n, std::int64_t bad) {
  attempted += n;
  failed += bad;
  if (bad > 0) failures["operation"] += bad;
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream) {
  return hash_combine(hash_combine(0xBE7C4ULL, seed), stream);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

bool in_eps_ball(const Tensor& adv, const Tensor& x, float eps) {
  if (adv.shape() != x.shape()) return false;
  // The projection clamps in float; allow the rounding of x +- eps.
  const float tol = eps + 1e-6f;
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    const float a = adv[i];
    if (!(a >= 0.0f && a <= 1.0f)) return false;
    if (!(std::fabs(a - x[i]) <= tol)) return false;
  }
  return true;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail(const std::vector<double>& v, std::size_t min_n, double* pct) {
  const double n = static_cast<double>(std::min(min_n, v.size()));
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      *pct = p;
      return quantile(v, p / 100.0);
    }
  }
  *pct = 50.0;
  return quantile(v, 0.5);
}

std::uint64_t counter_sum(const telemetry::Snapshot& s,
                          const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += value;
  }
  return total;
}

std::uint64_t counter(const telemetry::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

}  // namespace perfbench
