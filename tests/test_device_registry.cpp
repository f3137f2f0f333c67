// Unit tests for the function-level SIMD dispatch registry
// (device/kernel_registry.hpp): registration validation, resolution policy
// (capability caps, per-kernel overrides, unsupported-ISA fallback),
// deterministic autotune, and the docs/KERNELS.md catalog sync check.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>

#include "blast/simd_kernels.hpp"
#include "cascade/simd_kernels.hpp"
#include "device/dispatch.hpp"
#include "device/kernel_registry.hpp"
#include "dist/lane_kernels.hpp"

namespace ripple::device {
namespace {

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { set_simd_override(level); }
  ~ScopedSimdLevel() { set_simd_override(std::nullopt); }
};

// A tiny concrete kernel signature for registry-only tests.
using TestFn = void (*)(int*);
std::atomic<int> scalar_calls{0};
std::atomic<int> vector_calls{0};
void test_scalar(int* out) {
  ++scalar_calls;
  *out = 1;
}
void test_vector(int* out) {
  ++vector_calls;
  *out = 2;
}
AnyKernelFn erase(TestFn fn) { return reinterpret_cast<AnyKernelFn>(fn); }

/// A vector level this binary/host cannot run: NEON on x86, AVX2 on ARM.
SimdLevel unsupported_level() {
  return level_supported(SimdLevel::kNeon) ? SimdLevel::kAvx2
                                           : SimdLevel::kNeon;
}

TEST(KernelRegistry, DuplicateRegistrationRejected) {
  KernelRegistry registry;
  registry.register_variant("k", "test", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  EXPECT_THROW(registry.register_variant("k", "test", SimdLevel::kScalar, 1,
                                         erase(&test_vector)),
               std::logic_error);
}

TEST(KernelRegistry, RegistrationValidation) {
  KernelRegistry registry;
  EXPECT_THROW(
      registry.register_variant("k", "test", SimdLevel::kScalar, 1, nullptr),
      std::logic_error);
  EXPECT_THROW(registry.register_variant("k", "test", SimdLevel::kScalar, 4,
                                         erase(&test_scalar)),
               std::logic_error);
  EXPECT_THROW(registry.register_variant("k", "test", SimdLevel::kAvx2, 0,
                                         erase(&test_vector)),
               std::logic_error);
}

TEST(KernelRegistry, ResolveRequiresScalarBaseline) {
  KernelRegistry registry;
  EXPECT_THROW(registry.resolve("missing"), std::logic_error);
  registry.register_variant("k", "test", SimdLevel::kAvx2, 8,
                            erase(&test_vector));
  EXPECT_THROW(registry.resolve("k"), std::logic_error);
}

TEST(KernelRegistry, UnsupportedIsaFallsBackToScalar) {
  KernelRegistry registry;
  registry.register_variant("k", "test", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  registry.register_variant("k", "test", unsupported_level(), 4,
                            erase(&test_vector));
  const KernelVariant variant = registry.resolve("k");
  EXPECT_EQ(variant.level, SimdLevel::kScalar);
  EXPECT_EQ(variant.lanes, 1u);
  EXPECT_EQ(variant.fn, erase(&test_scalar));
}

TEST(KernelRegistry, ResolvesHighestSupportedLevel) {
  KernelRegistry registry;
  registry.register_variant("k", "test", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  const SimdLevel best = active_simd_level();
  if (best == SimdLevel::kScalar) {
    GTEST_SKIP() << "host runs scalar only; nothing to prefer";
  }
  registry.register_variant("k", "test", best, 8, erase(&test_vector));
  EXPECT_EQ(registry.resolved_level("k"), best);
}

TEST(KernelRegistry, PerKernelOverrideClampsThatKernelOnly) {
  KernelRegistry registry;
  for (const char* name : {"a", "b"}) {
    registry.register_variant(name, "test", SimdLevel::kScalar, 1,
                              erase(&test_scalar));
  }
  const SimdLevel best = active_simd_level();
  if (best == SimdLevel::kScalar) {
    GTEST_SKIP() << "host runs scalar only; overrides cannot move anything";
  }
  registry.register_variant("a", "test", best, 8, erase(&test_vector));
  registry.register_variant("b", "test", best, 8, erase(&test_vector));

  registry.set_kernel_override("a", SimdLevel::kScalar);
  EXPECT_EQ(registry.resolved_level("a"), SimdLevel::kScalar);
  EXPECT_EQ(registry.resolved_level("b"), best);
  EXPECT_EQ(registry.kernel_override("a"), SimdLevel::kScalar);

  // Pinning above capability clamps by min(): kAvx512 on any host resolves
  // the best supported variant, never an unrunnable one.
  registry.set_kernel_override("a", SimdLevel::kAvx512);
  EXPECT_EQ(registry.resolved_level("a"), best);

  registry.set_kernel_override("a", std::nullopt);
  EXPECT_EQ(registry.resolved_level("a"), best);
  EXPECT_FALSE(registry.kernel_override("a").has_value());
}

TEST(KernelRegistry, GlobalOverrideCapsResolution) {
  KernelRegistry registry;
  registry.register_variant("k", "test", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  const SimdLevel best = active_simd_level();
  if (best == SimdLevel::kScalar) {
    GTEST_SKIP() << "host runs scalar only";
  }
  registry.register_variant("k", "test", best, 8, erase(&test_vector));
  ScopedSimdLevel pin(SimdLevel::kScalar);
  EXPECT_EQ(registry.resolved_level("k"), SimdLevel::kScalar);
}

TEST(KernelRegistry, DispatchGenerationMovesOnEveryChange) {
  KernelRegistry registry;
  std::uint64_t generation = dispatch_generation();
  const auto expect_bumped = [&generation](const char* what) {
    const std::uint64_t now = dispatch_generation();
    EXPECT_GT(now, generation) << what;
    generation = now;
  };
  registry.register_variant("k", "test", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  expect_bumped("register_variant");
  registry.set_kernel_override("k", SimdLevel::kScalar);
  expect_bumped("set_kernel_override");
  set_simd_override(SimdLevel::kScalar);
  expect_bumped("set_simd_override");
  set_simd_override(std::nullopt);
  expect_bumped("release override");
}

std::uint64_t microbench_test(AnyKernelFn variant) {
  int out = 0;
  reinterpret_cast<TestFn>(variant)(&out);
  return 1024;
}

TEST(KernelRegistry, AutotuneMeasuresEverySupportedVariantDeterministically) {
  KernelRegistry registry;
  registry.register_variant("k", "test", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  const SimdLevel best = active_simd_level();
  if (best != SimdLevel::kScalar) {
    registry.register_variant("k", "test", best, 8, erase(&test_vector));
  }
  registry.set_microbench("k", &microbench_test);

  scalar_calls = 0;
  vector_calls = 0;
  AutotuneOptions options;
  options.repeats = 2;
  const AutotuneReport report = registry.autotune(options);
  ASSERT_EQ(report.kernels.size(), 1u);
  const AutotuneKernelReport& kernel = report.kernels[0];
  EXPECT_EQ(kernel.kernel, "k");
  const std::size_t expected_variants =
      best == SimdLevel::kScalar ? 1u : 2u;
  ASSERT_EQ(kernel.measured.size(), expected_variants);
  // Warmup + repeats per variant.
  EXPECT_EQ(scalar_calls.load(), 3);
  if (best != SimdLevel::kScalar) EXPECT_EQ(vector_calls.load(), 3);
  for (const AutotuneMeasurement& m : kernel.measured) {
    EXPECT_GT(m.ns_per_item, 0.0);
    EXPECT_TRUE(report.ns_per_item("k", m.level).has_value());
  }
  EXPECT_GE(report.wall_us, 0.0);

  // The winner is recorded and preferred; clear_autotune releases it.
  EXPECT_EQ(registry.autotuned_level("k"), kernel.winner);
  EXPECT_EQ(registry.resolved_level("k"), kernel.winner);
  registry.clear_autotune();
  EXPECT_FALSE(registry.autotuned_level("k").has_value());
}

TEST(KernelRegistry, AutotuneWithoutApplyLeavesResolutionAlone) {
  KernelRegistry registry;
  registry.register_variant("k", "test", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  registry.set_microbench("k", &microbench_test);
  AutotuneOptions options;
  options.apply = false;
  const AutotuneReport report = registry.autotune(options);
  EXPECT_EQ(report.kernels.size(), 1u);
  EXPECT_FALSE(registry.autotuned_level("k").has_value());
}

TEST(KernelRegistry, DumpListsEveryVariantSorted) {
  KernelRegistry registry;
  registry.register_variant("b.k", "b", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  registry.register_variant("a.k", "a", SimdLevel::kScalar, 1,
                            erase(&test_scalar));
  registry.register_variant("a.k", "a", unsupported_level(), 4,
                            erase(&test_vector));
  const std::vector<KernelCatalogRow> rows = registry.dump();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].kernel, "a.k");
  EXPECT_EQ(rows[0].level, SimdLevel::kScalar);
  EXPECT_TRUE(rows[0].supported);
  EXPECT_EQ(rows[1].kernel, "a.k");
  EXPECT_EQ(rows[1].level, unsupported_level());
  EXPECT_FALSE(rows[1].supported);
  EXPECT_EQ(rows[2].kernel, "b.k");
  EXPECT_EQ(registry.kernel_names(),
            (std::vector<std::string>{"a.k", "b.k"}));
}

/// docs/KERNELS.md's catalog table and the live registry must list exactly
/// the same kernel names — the doc cannot go stale without failing CI.
TEST(KernelRegistry, CatalogDocMatchesRegistryDump) {
  blast::simd::register_kernels();
  cascade::simd::register_kernels();
  dist::lanes::register_kernels();

  const std::string path = std::string(RIPPLE_REPO_ROOT) + "/docs/KERNELS.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();

  // Every registered kernel appears in the doc...
  const std::vector<std::string> names =
      KernelRegistry::instance().kernel_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/KERNELS.md is missing kernel `" << name << "`";
  }

  // ...and every catalog-table kernel cell names a registered kernel: rows
  // look like "| `blast.seed_probe` | ...".
  std::istringstream lines(doc);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    const std::string name = line.substr(3, end - 3);
    ++rows;
    EXPECT_TRUE(KernelRegistry::instance().has_kernel(name))
        << "docs/KERNELS.md lists unknown kernel `" << name << "`";
  }
  EXPECT_EQ(rows, names.size())
      << "docs/KERNELS.md catalog table row count diverged from the registry";
}

}  // namespace
}  // namespace ripple::device
