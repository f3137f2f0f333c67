// Function-level SIMD dispatch: a registry mapping named stage kernels to
// their vectorized variants, in the style of Ripple's vector bitcode
// libraries (scalar function -> SIMD equivalent by name).
//
// The global SimdLevel cap (device/dispatch.hpp) answers "what may run";
// this registry answers "what runs for *this* kernel". Each kernel owns a
// scalar baseline plus any number of per-ISA variants registered by name,
// level, and lane width:
//
//   KernelRegistry::instance().register_variant(
//       "blast.seed_probe", "blast", SimdLevel::kAvx512, 16,
//       reinterpret_cast<AnyKernelFn>(&seed_filter_avx512));
//
// Callers resolve once per batch through a cached KernelHandle<FnPtr>: the
// handle re-resolves only when the dispatch generation moves (registration,
// override, or autotune), so the steady-state cost is one relaxed atomic
// load per batch. Resolution picks, among variants that are compiled in,
// supported by the host CPU, and at or below the effective cap
// (min(active_simd_level(), per-kernel override)), the autotuned winner if
// one is recorded and eligible, else the highest-preference level. A kernel
// with no eligible vector variant falls back to its scalar baseline, which
// registration requires.
//
// Autotune is gated (nothing runs it implicitly) and deterministic in its
// inputs: each kernel registers a microbench closure over fixed-seed
// committed fixtures, and autotune() replays it per supported variant,
// recording ns/item and the per-kernel winner. The report is the measured
// per-ISA cost surface (`ripple_cli kernels --simd-autotune` prints it).
//
// The full catalog (docs/KERNELS.md) is generated from dump(); a test diffs
// the two so the doc cannot go stale.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "device/dispatch.hpp"

namespace ripple::device {

/// Type-erased kernel entry point. Variants of one kernel share a concrete
/// signature; KernelHandle<FnPtr> casts back to it. Calling through the
/// original type is what keeps the erasure well-defined.
using AnyKernelFn = void (*)();

/// Deterministic replay harness for one kernel: run `variant` (already cast
/// to the kernel's signature inside) once over the kernel's committed
/// fixed-seed inputs and return the number of items processed.
using MicrobenchFn = std::uint64_t (*)(AnyKernelFn variant);

struct KernelVariant {
  SimdLevel level = SimdLevel::kScalar;
  std::uint32_t lanes = 1;
  AnyKernelFn fn = nullptr;
};

/// One catalog line of the registry dump (the source of docs/KERNELS.md).
struct KernelCatalogRow {
  std::string kernel;
  std::string subsystem;
  SimdLevel level = SimdLevel::kScalar;
  std::uint32_t lanes = 1;
  bool supported = false;  ///< compiled in and runnable on this host
};

struct AutotuneOptions {
  int repeats = 3;    ///< timed replays per variant; the minimum is kept
  bool apply = true;  ///< record winners so resolution prefers them
};

struct AutotuneMeasurement {
  SimdLevel level = SimdLevel::kScalar;
  std::uint32_t lanes = 1;
  double ns_per_item = 0.0;
};

struct AutotuneKernelReport {
  std::string kernel;
  std::vector<AutotuneMeasurement> measured;  ///< ascending by level
  SimdLevel winner = SimdLevel::kScalar;
};

struct AutotuneReport {
  std::vector<AutotuneKernelReport> kernels;  ///< ascending by kernel name
  double wall_us = 0.0;

  /// ns/item for (kernel, level); nullopt when not measured.
  std::optional<double> ns_per_item(std::string_view kernel,
                                    SimdLevel level) const noexcept;
};

class KernelRegistry {
 public:
  /// The process-wide registry every KernelHandle resolves against. Local
  /// instances can be constructed for tests.
  static KernelRegistry& instance();

  KernelRegistry() = default;
  KernelRegistry(const KernelRegistry&) = delete;
  KernelRegistry& operator=(const KernelRegistry&) = delete;

  /// Register one variant. The first registration of a kernel names its
  /// owning subsystem and must include a scalar baseline before any resolve.
  /// Throws std::logic_error on a duplicate (kernel, level), a null fn, a
  /// scalar variant with lanes != 1, or lanes == 0.
  void register_variant(std::string_view kernel, std::string_view subsystem,
                        SimdLevel level, std::uint32_t lanes, AnyKernelFn fn);

  /// Attach the deterministic microbench autotune() replays for `kernel`.
  void set_microbench(std::string_view kernel, MicrobenchFn fn);

  bool has_kernel(std::string_view kernel) const;

  /// The variant `kernel` should run right now (see file comment for the
  /// policy). Throws std::logic_error for an unknown kernel or one missing
  /// its scalar baseline.
  KernelVariant resolve(std::string_view kernel);

  SimdLevel resolved_level(std::string_view kernel);

  /// Pin (or release) a per-kernel cap. Like the global override it clamps
  /// by min(): pinning kAvx512 on an AVX2 host resolves the AVX2 variant.
  void set_kernel_override(std::string_view kernel,
                           std::optional<SimdLevel> level);
  std::optional<SimdLevel> kernel_override(std::string_view kernel) const;

  /// Replay every registered microbench against every supported variant of
  /// its kernel; record winners (when options.apply) and return the measured
  /// per-ISA cost surface. Gated: nothing calls this implicitly.
  AutotuneReport autotune(const AutotuneOptions& options = {});

  std::optional<SimdLevel> autotuned_level(std::string_view kernel) const;
  void clear_autotune();

  /// Every registered (kernel, level) pair, ascending by name then level.
  std::vector<KernelCatalogRow> dump() const;
  /// Sorted distinct kernel names.
  std::vector<std::string> kernel_names() const;

 private:
  struct Entry {
    std::string subsystem;
    std::array<AnyKernelFn, kSimdLevelCount> fn{};
    std::array<std::uint32_t, kSimdLevelCount> lanes{};
    MicrobenchFn microbench = nullptr;
    std::optional<SimdLevel> override_level;
    std::optional<SimdLevel> autotuned;
  };

  KernelVariant resolve_locked(const std::string& name, const Entry& entry,
                               SimdLevel cap) const;

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> kernels_;
};

/// Per-call-site cached resolution: keeps the resolved variant until the
/// dispatch generation moves. Intended as a thread_local in the kernel's
/// batch wrapper, constructed from a string literal.
template <typename FnPtr>
class KernelHandle {
 public:
  explicit KernelHandle(const char* kernel) noexcept : kernel_(kernel) {}

  /// The resolved entry point, cast back to the kernel's signature.
  FnPtr fn() {
    refresh();
    return reinterpret_cast<FnPtr>(variant_.fn);
  }

  /// The resolved variant (for level-dependent shape gates in wrappers).
  const KernelVariant& variant() {
    refresh();
    return variant_;
  }

 private:
  void refresh() {
    const std::uint64_t generation = dispatch_generation();
    if (variant_.fn == nullptr || generation != generation_) {
      variant_ = KernelRegistry::instance().resolve(kernel_);
      generation_ = generation;
    }
  }

  const char* kernel_;
  KernelVariant variant_{};
  std::uint64_t generation_ = 0;
};

}  // namespace ripple::device
