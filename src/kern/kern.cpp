/// Kernel dispatch: picks the scalar or AVX2 implementation once, from
/// (a) what ROTA_SIMD compiled in, (b) what CPUID reports, and (c) an
/// optional ROTA_SIMD environment override (auto/avx2/off) for narrowing
/// the choice at runtime without a rebuild. force_isa() lets tests pin a
/// path and compare both in one process.

#include "kern/kern.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/check.hpp"

namespace rota::kern {

namespace {

#if defined(ROTA_KERN_HAVE_AVX2)
constexpr bool kAvx2Compiled = true;
#else
constexpr bool kAvx2Compiled = false;
#endif

std::atomic<const detail::Kernels*> g_kernels{nullptr};
std::atomic<Isa> g_isa{Isa::kScalar};

void install(Isa isa) {
  // Order matters for racing readers: publish the ISA tag first, then the
  // table with release semantics; active() acquires the table and only
  // then trusts the tag.
  g_isa.store(isa, std::memory_order_relaxed);
  g_kernels.store(isa == Isa::kAvx2
#if defined(ROTA_KERN_HAVE_AVX2)
                      ? &detail::avx2_kernels()
#else
                      ? nullptr  // unreachable: force_isa validates first
#endif
                      : &detail::scalar_kernels(),
                  std::memory_order_release);
}

/// One-time default selection. The ROTA_SIMD *environment variable* can
/// only narrow what the build compiled in: "off" forces scalar, "avx2"
/// requires the AVX2 path (throws when unavailable so a mis-deployed
/// binary fails loudly instead of silently slowing down), "auto" or
/// unset means use AVX2 when available.
Isa pick_default() {
  const char* env = std::getenv("ROTA_SIMD");
  const std::string mode = (env != nullptr) ? env : "auto";
  ROTA_REQUIRE(mode == "auto" || mode == "avx2" || mode == "off",
               "ROTA_SIMD environment override must be auto, avx2 or off, "
               "got '" + mode + "'");
  if (mode == "off") return Isa::kScalar;
  if (mode == "avx2") {
    ROTA_REQUIRE(avx2_available(),
                 kAvx2Compiled
                     ? "ROTA_SIMD=avx2 but this CPU does not support AVX2"
                     : "ROTA_SIMD=avx2 but this binary was built with "
                       "ROTA_SIMD=off");
    return Isa::kAvx2;
  }
  return avx2_available() ? Isa::kAvx2 : Isa::kScalar;
}

const detail::Kernels& active() {
  const detail::Kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k != nullptr) return *k;
  // Racing first calls both compute the same default; the double store is
  // benign.
  install(pick_default());
  return *g_kernels.load(std::memory_order_acquire);
}

}  // namespace

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
  }
  ROTA_UNREACHABLE("unhandled Isa");
}

std::string_view compiled_simd() { return kAvx2Compiled ? "avx2" : "off"; }

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool avx2_available() { return kAvx2Compiled && cpu_has_avx2(); }

Isa active_isa() {
  (void)active();  // ensure the default is installed
  return g_isa.load(std::memory_order_relaxed);
}

void force_isa(Isa isa) {
  ROTA_REQUIRE(isa == Isa::kScalar || avx2_available(),
               "cannot force the AVX2 kernels: not compiled in or not "
               "supported by this CPU");
  install(isa);
}

double sum_pow(const double* x, double p, std::size_t n) {
  ROTA_REQUIRE(p > 0.0, "sum_pow exponent must be positive");
  ROTA_REQUIRE(n == 0 || x != nullptr, "sum_pow needs a non-null batch");
  return active().sum_pow(x, p, n);
}

double sum_exp_affine(const double* a, const double* w, double m,
                      std::size_t n) {
  ROTA_REQUIRE(n == 0 || (a != nullptr && w != nullptr),
               "sum_exp_affine needs non-null batches");
  return active().sum_exp_affine(a, w, m, n);
}

double weibull_min(const double* u, const double* c_pow, std::size_t n) {
  ROTA_REQUIRE(n == 0 || (u != nullptr && c_pow != nullptr),
               "weibull_min needs non-null batches");
  return active().weibull_min(u, c_pow, n);
}

void weibull_powers(const double* u, const double* c_pow, double* out,
                    std::size_t n) {
  ROTA_REQUIRE(n == 0 || (u != nullptr && c_pow != nullptr && out != nullptr),
               "weibull_powers needs non-null batches");
  active().weibull_powers(u, c_pow, out, n);
}

void poisson_binomial_x4(const double* p_fail, const std::size_t* level_of,
                         std::size_t n, std::size_t cap, double* dp,
                         double* sums) {
  ROTA_REQUIRE(cap >= 1, "poisson_binomial_x4 needs at least one dp slot");
  ROTA_REQUIRE(p_fail != nullptr && dp != nullptr && sums != nullptr &&
                   (n == 0 || level_of != nullptr),
               "poisson_binomial_x4 needs non-null buffers");
  active().poisson_binomial_x4(p_fail, level_of, n, cap, dp, sums);
}

void add_i64(std::int64_t* dst, const std::int64_t* src, std::size_t n) {
  ROTA_REQUIRE(n == 0 || (dst != nullptr && src != nullptr),
               "add_i64 needs non-null batches");
  active().add_i64(dst, src, n);
}

void add_scalar_i64(std::int64_t* dst, std::int64_t value, std::size_t n) {
  ROTA_REQUIRE(n == 0 || dst != nullptr,
               "add_scalar_i64 needs a non-null batch");
  active().add_scalar_i64(dst, value, n);
}

I64Stats minmax_sum_i64(const std::int64_t* x, std::size_t n) {
  ROTA_REQUIRE(n > 0 && x != nullptr,
               "minmax_sum_i64 needs a non-empty batch");
  return active().minmax_sum_i64(x, n);
}

}  // namespace rota::kern
