#include "kernels/kernel_dispatch.h"

#include <cstdio>

#include "kernels/cpu_features.h"
#include "kernels/isa_variants.h"
#include "runtime/check.h"
#include "runtime/env.h"

namespace diva {

namespace {

constexpr IsaTier kAllTiers[] = {IsaTier::kScalar, IsaTier::kAvx2,
                                 IsaTier::kAvx512, IsaTier::kAvx512Vnni};

/// Compiled in AND supported by the host CPU.
bool tier_runnable(IsaTier t) {
  [[maybe_unused]] const CpuFeatures& f = cpu_features();
  switch (t) {
    case IsaTier::kScalar:
      return true;
    case IsaTier::kAvx2:
#ifdef DIVA_ISA_HAVE_AVX2
      return f.avx2 && f.fma;
#else
      return false;
#endif
    case IsaTier::kAvx512:
#ifdef DIVA_ISA_HAVE_AVX512
      return f.avx512f && f.avx512bw && f.avx512vl;
#else
      return false;
#endif
    case IsaTier::kAvx512Vnni:
#if defined(DIVA_ISA_HAVE_AVX512) && defined(DIVA_ISA_HAVE_AVX512VNNI)
      return f.avx512f && f.avx512bw && f.avx512vl && f.avx512vnni;
#else
      return false;
#endif
  }
  return false;
}

KernelDispatch make_dispatch(IsaTier tier) {
  KernelDispatch d;
  d.tier = tier;
  d.sgemm = detail::sgemm_variant_scalar();
  d.igemm = detail::igemm_variant_scalar();
  d.requant = detail::requant_variant_scalar();
  switch (tier) {
    case IsaTier::kScalar:
      break;
#ifdef DIVA_ISA_HAVE_AVX2
    case IsaTier::kAvx2:
      d.sgemm = detail::sgemm_variant_avx2();
      d.igemm = detail::igemm_variant_avx2();
      d.requant = detail::requant_variant_avx2();
      break;
#endif
#ifdef DIVA_ISA_HAVE_AVX512
    case IsaTier::kAvx512:
      d.sgemm = detail::sgemm_variant_avx512();
      d.igemm = detail::igemm_variant_avx512();
      d.requant = detail::requant_variant_avx512();
      break;
#ifdef DIVA_ISA_HAVE_AVX512VNNI
    case IsaTier::kAvx512Vnni:
      d.sgemm = detail::sgemm_variant_avx512();
      d.igemm = detail::igemm_variant_avx512_vnni();
      // The VNNI tier changes only the inner product instruction; the
      // requant epilogue reuses the AVX-512 F/BW variant.
      d.requant = detail::requant_variant_avx512();
      break;
#endif
#endif
    default:
      // A tier whose TU was not compiled; tier_runnable() keeps
      // resolution away from here, and force_isa_tier() rejects it.
      DIVA_CHECK(false, "kernel tier not compiled into this binary");
  }
  return d;
}

KernelDispatch resolve_dispatch() {
  IsaTier clamp = IsaTier::kAvx512Vnni;
  bool clamped = false;
  const std::string req = env_string("DIVA_ISA_MAX", "");
  if (!req.empty()) {
    if (parse_isa_tier(req, &clamp)) {
      clamped = true;
    } else {
      std::fprintf(stderr,
                   "[diva] DIVA_ISA_MAX=%s not recognized "
                   "(scalar|avx2|avx512|avx512vnni); ignoring\n",
                   req.c_str());
    }
  }
  IsaTier tier = IsaTier::kScalar;
  for (int t = static_cast<int>(clamp); t >= 0; --t) {
    if (tier_runnable(static_cast<IsaTier>(t))) {
      tier = static_cast<IsaTier>(t);
      break;
    }
  }
  if (env_flag("DIVA_LOG_ISA")) {
    const std::string flags = cpu_features_summary();
    std::fprintf(stderr, "[diva] kernel dispatch: %s (cpu: %s)%s\n",
                 isa_tier_name(tier),
                 flags.empty() ? "baseline x86-64" : flags.c_str(),
                 clamped ? " [clamped by DIVA_ISA_MAX]" : "");
  }
  return make_dispatch(tier);
}

KernelDispatch& mutable_dispatch() {
  static KernelDispatch d = resolve_dispatch();
  return d;
}

}  // namespace

const char* isa_tier_name(IsaTier t) {
  switch (t) {
    case IsaTier::kScalar:
      return "scalar";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
    case IsaTier::kAvx512Vnni:
      return "avx512vnni";
  }
  return "unknown";
}

bool parse_isa_tier(const std::string& name, IsaTier* out) {
  for (const IsaTier t : kAllTiers) {
    if (name == isa_tier_name(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

const KernelDispatch& kernel_dispatch() { return mutable_dispatch(); }

IsaTier active_isa_tier() { return kernel_dispatch().tier; }

std::vector<IsaTier> available_isa_tiers() {
  std::vector<IsaTier> tiers;
  for (const IsaTier t : kAllTiers) {
    if (tier_runnable(t)) tiers.push_back(t);
  }
  return tiers;
}

IgemmVariant igemm_variant_for(IsaTier tier) {
  DIVA_CHECK(tier_runnable(tier),
             "isa tier " << isa_tier_name(tier)
                         << " is not runnable on this host/build");
  return make_dispatch(tier).igemm;
}

void force_isa_tier(IsaTier tier) {
  DIVA_CHECK(tier_runnable(tier),
             "isa tier " << isa_tier_name(tier)
                         << " is not runnable on this host/build");
  mutable_dispatch() = make_dispatch(tier);
}

}  // namespace diva
