// Congestion-control state shared by every scheme. A sender QP owns one
// algorithm; it owns the pacing rate / window it computes and the QP
// consults them before each transmission. The per-event entries (OnAck,
// OnCnp, OnBytesSent, Shutdown) are plain members of the concrete classes,
// reached only through InlineCc's CcMode tag switch (core/cc_inline.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fncc {

enum class CcMode {
  kFncc,        // the paper's contribution (fast notification + LHCS)
  kFnccNoLhcs,  // ablation: fast notification only (Fig. 13)
  kHpcc,        // Li et al., SIGCOMM'19
  kDcqcn,       // Zhu et al., SIGCOMM'15
  kRocc,        // Taheri et al., CoNEXT'20 (switch PI fair rate)
  kTimely,      // Mittal et al., SIGCOMM'15 (RTT gradient; extension)
  kSwift,       // Kumar et al., SIGCOMM'20 (delay target; extension)
};

[[nodiscard]] const char* CcModeName(CcMode mode);

/// Every implemented algorithm, in the canonical comparison order the
/// examples and sweeps use.
inline constexpr CcMode kAllCcModes[] = {
    CcMode::kFncc, CcMode::kFnccNoLhcs, CcMode::kHpcc,  CcMode::kDcqcn,
    CcMode::kRocc, CcMode::kTimely,     CcMode::kSwift,
};

/// Inverse of CcModeName (exact match). Returns false on an unknown name,
/// leaving *mode untouched.
[[nodiscard]] bool ParseCcMode(const std::string& name, CcMode* mode);

struct DcqcnParams {
  double g = 1.0 / 256.0;
  Time alpha_timer = 55 * kMicrosecond;
  Time increase_timer = 55 * kMicrosecond;
  std::uint64_t byte_counter = 10'000'000;
  int fast_recovery_stages = 5;
  /// Additive/hyper increase steps. Scaled linearly with line rate from the
  /// 40/400 Mbps the DCQCN paper recommends at 40 Gbps.
  double rate_ai_fraction = 0.001;   // of line rate
  double rate_hai_fraction = 0.01;   // of line rate
  double min_rate_gbps = 0.1;

  [[nodiscard]] bool operator==(const DcqcnParams&) const = default;
};

struct RoccSenderParams {
  /// With no switch feedback for this long, probe upward additively.
  Time feedback_hold = 100 * kMicrosecond;
  double probe_fraction = 0.01;  // of line rate, per ACK while probing

  [[nodiscard]] bool operator==(const RoccSenderParams&) const = default;
};

struct TimelyParams {
  /// 0 = auto-scale from the flow's base RTT (t_low 1.5x, t_high 5x).
  Time t_low = 0;
  Time t_high = 0;
  Time min_rtt = 0;  // 0 = base RTT
  double addstep_fraction = 0.01;  // of line rate
  double beta = 0.8;
  double alpha_ewma = 0.875;  // RTT-diff EWMA weight on history
  int hai_threshold = 5;
  double min_rate_gbps = 0.1;

  [[nodiscard]] bool operator==(const TimelyParams&) const = default;
};

/// Constants the HPCC-family per-ACK path derives from the plain config
/// fields. Resolved once by the HpccAlgorithm constructor — before the
/// flow table interns the config — so every flow of a scenario reads them
/// from the one shared pooled line instead of carrying ~2 cache lines of
/// identical copies in its own per-ACK footprint.
struct HpccDerivedConsts {
  double t_sec = 0.0;            // ToSeconds(base_rtt), the T of Alg. 3
  double wai_bytes = 0.0;        // resolved W_AI (auto rule applied)
  double max_window_bytes = 0.0; // BDP
  double min_window_bytes = 0.0;

  [[nodiscard]] bool operator==(const HpccDerivedConsts&) const = default;
};

/// Fully resolved per-flow configuration (the harness fills line rate and
/// base RTT from the topology before starting each flow). Field-wise
/// equality lets the flow table intern one shared copy per distinct
/// configuration (see FlowTable::InternConfig) instead of keeping ~250
/// bytes of identical constants in every flow's cache footprint.
struct CcConfig {
  CcMode mode = CcMode::kFncc;
  double line_rate_gbps = 100.0;
  Time base_rtt = 0;  // T in Alg. 3; must be set
  std::uint32_t mtu_bytes = kDefaultMtuBytes;

  // HPCC / FNCC (Alg. 3).
  double eta = 0.95;
  int max_stage = 5;
  /// Additive-increase step W_AI in bytes; 0 = auto (BDP * (1-eta) / 4).
  double wai_bytes = 0;
  double min_window_fraction_of_mtu = 0.05;

  // FNCC last-hop congestion speedup (Alg. 2).
  double lhcs_alpha = 1.05;
  double lhcs_beta = 0.9;

  /// Derived per-ACK constants (HPCC family); filled by the algorithm
  /// constructor, equal whenever the fields above are equal, so interning
  /// still pools flows correctly.
  HpccDerivedConsts hpcc_derived;

  DcqcnParams dcqcn;
  RoccSenderParams rocc;
  TimelyParams timely;

  [[nodiscard]] bool operator==(const CcConfig&) const = default;

  [[nodiscard]] double BdpBytesValue() const {
    return BdpBytes(line_rate_gbps, base_rtt);
  }
};

/// The two per-flow control words every transmission decision reads and
/// every ACK may write. They normally live *outside* the algorithm object,
/// in the flow table's dense hot-row array (one cache line per flow slot,
/// see transport/hot_flow.hpp); an unbound algorithm falls back to a pair
/// of words it owns. Binding is a pure relocation: values are copied, so
/// results are bit-identical wherever the words live.
struct CcHotWords {
  double rate_gbps = 0.0;
  double window_bytes = 0.0;
};

/// State base of every scheme: the pacing rate and optional window the QP
/// enforces, the interned config and the on_update hook. It declares no
/// per-event entry; each concrete class has plain members only for the
/// events it reacts to, and InlineCc dispatches on CcMode to them.
///
/// Layout is hot/cold split: the per-ACK path touches only the first bytes
/// of the object (vptr, hot-word pointer, config pointer, window flag), so
/// a derived class's own per-ACK scalars share the object's first cache
/// line. Everything cold after construction — the fallback hot words, the
/// owned config copy, the on_update callback — lives behind one pointer in
/// a side allocation.
class CcAlgorithm {
 public:
  explicit CcAlgorithm(const CcConfig& config)
      : cold_(std::make_unique<ColdParts>(config)) {
    words_ = &cold_->own_words;
    config_ = &cold_->owned_config;
  }
  // The only virtual member, kept so the class stays polymorphic:
  // SenderQp::cc() hands out a CcAlgorithm& that is dynamic_cast to
  // FnccAlgorithm to read LHCS counters (HarvestSender in
  // harness/experiment_runner.cpp, the incast integration test and the
  // benchmark's traced replica, whose sources are frozen).
  virtual ~CcAlgorithm() = default;
  CcAlgorithm(const CcAlgorithm&) = delete;
  CcAlgorithm& operator=(const CcAlgorithm&) = delete;

  /// Current pacing rate in Gbps. Always valid.
  [[nodiscard]] double rate_gbps() const { return words_->rate_gbps; }

  /// In-flight byte cap; only meaningful when uses_window() is true.
  [[nodiscard]] double window_bytes() const { return words_->window_bytes; }

  /// Whether the scheme enforces a window: a constructor-set flag, read
  /// inline before every transmission.
  [[nodiscard]] bool uses_window() const { return uses_window_; }

  /// Relocate the hot words into an externally owned slot (the flow
  /// table's SoA row). Copies the current values first, so binding at any
  /// point — before or after the constructor seeded rate/window — is
  /// value-preserving.
  void BindHotWords(CcHotWords* words) {
    *words = *words_;
    words_ = words;
  }

  /// Swap the owned config copy for a pooled one with identical values
  /// (FlowTable interns the post-construction config, so auto-resolved
  /// params — e.g. Timely's RTT thresholds — are already final). A pure
  /// relocation: every subsequent read sees the same values from a line
  /// shared by all flows of the scenario. The owned copy stays allocated,
  /// so nothing dangles if the caller's pool dies first.
  void AdoptSharedConfig(const CcConfig& shared) {
    assert(shared == *config_ && "interned config must be value-identical");
    config_ = &shared;
  }

  [[nodiscard]] const CcConfig& config() const { return *config_; }

  /// Set by the QP; algorithms invoke it (NotifyUpdate) after asynchronous
  /// timer-driven rate increases so a pacing-blocked QP can re-arm earlier.
  void set_on_update(std::function<void()> fn) {
    cold_->on_update = std::move(fn);
  }

 protected:
  [[nodiscard]] const CcConfig& cfg() const { return *config_; }

  /// Constructor-time only: resolve auto-scaled params in the owned copy.
  /// Must never be called after AdoptSharedConfig (the pool interns the
  /// resolved values; mutating afterwards would desynchronize flows).
  [[nodiscard]] CcConfig& mutable_config() {
    assert(config_ == &cold_->owned_config &&
           "config already shared; constructor-time resolution only");
    return cold_->owned_config;
  }

  [[nodiscard]] double& rate_mut() { return words_->rate_gbps; }
  [[nodiscard]] double& window_mut() { return words_->window_bytes; }

  void NotifyUpdate() {
    if (cold_->on_update) cold_->on_update();
  }

  bool uses_window_ = false;  // set once by window-based schemes' ctors

  /// Spare constructor-set flag packed into the base's first-line padding,
  /// for a derived scheme's hottest boolean (FNCC: "LHCS enabled"). Keeps
  /// the per-ACK hook off the object's cold tail lines.
  bool scheme_flag_ = false;

 private:
  struct ColdParts {
    explicit ColdParts(const CcConfig& c) : owned_config(c) {}
    CcHotWords own_words;   // fallback target until BindHotWords
    CcConfig owned_config;  // fallback source until AdoptSharedConfig
    std::function<void()> on_update;
  };

  CcHotWords* words_ = nullptr;        // -> flow-table row or own_words
  const CcConfig* config_ = nullptr;   // -> pooled config or owned_config
  std::unique_ptr<ColdParts> cold_;
};

}  // namespace fncc
