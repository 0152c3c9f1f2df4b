// InlineCc: per-flow congestion-control state laid out inline, dispatched
// by CcMode tag.
//
// The CC set is closed and known at config time (CcMode enumerates all
// seven built-in algorithms), so InlineCc stores the concrete algorithm in a
// tagged union and every entry point (OnAck / OnCnp / OnBytesSent /
// Shutdown) is a switch over the mode calling the concrete class's plain
// member directly. This is the only way into an algorithm: the concrete
// classes share a state base (CcAlgorithm) but no per-event interface, and
// a scheme has a member only for the events it reacts to. Combined with the
// flow table (transport/flow_table.hpp) this puts the CC state in the same
// cache lines as the rest of the flow's slot — no unique_ptr indirection
// between an ACK arriving and the window/rate it updates.
//
// base() exposes the contained algorithm's shared state (rate, window,
// config, on_update) for cold-path consumers and dynamic_cast probes. This
// lives in core/ (not cc/) because FNCC — the paper's contribution — is
// among the constructed types.
#pragma once

#include <cassert>
#include <new>

#include "cc/cc_algorithm.hpp"
#include "cc/dcqcn.hpp"
#include "cc/hpcc.hpp"
#include "cc/rocc.hpp"
#include "cc/swift.hpp"
#include "cc/timely.hpp"
#include "core/fncc.hpp"

namespace fncc {

class InlineCc {
 public:
  InlineCc() {}
  ~InlineCc() { Destroy(); }
  InlineCc(const InlineCc&) = delete;
  InlineCc& operator=(const InlineCc&) = delete;

  /// Constructs the algorithm for `config.mode` in place. Must be called
  /// exactly once before any dispatch (Destroy() allows re-Emplace).
  void Emplace(const CcConfig& config, Simulator* sim);

  /// Destroys the contained algorithm (no-op when empty).
  void Destroy();

  [[nodiscard]] bool engaged() const { return base_ != nullptr; }
  [[nodiscard]] CcMode mode() const { return mode_; }

  /// The contained algorithm's shared state — cold-path consumers only
  /// (stats, tests, hot-word binding, on_update wiring).
  [[nodiscard]] CcAlgorithm& base() { return *base_; }
  [[nodiscard]] const CcAlgorithm& base() const { return *base_; }

  // -- Dispatch: mode-tagged, no indirect calls ----------------------------

  /// Per-ACK update. The mode tag is supplied by the caller: the batched
  /// ACK path reads it from the flow's hot row (the same cache line that
  /// holds the rate/window words), so dispatch needs no load from this
  /// object at all.
  void OnAck(CcMode mode, const Packet& ack, std::uint64_t snd_nxt) {
    assert(mode == mode_);
    switch (mode) {
      case CcMode::kFncc:
      case CcMode::kFnccNoLhcs:
        u_.fncc.OnAck(ack, snd_nxt);
        return;
      case CcMode::kHpcc:
        u_.hpcc.OnAck(ack, snd_nxt);
        return;
      case CcMode::kDcqcn:
        return;  // DCQCN reacts to CNPs, sent bytes and timers only
      case CcMode::kRocc:
        u_.rocc.OnAck(ack, snd_nxt);
        return;
      case CcMode::kTimely:
        u_.timely.OnAck(ack, snd_nxt);
        return;
      case CcMode::kSwift:
        u_.swift.OnAck(ack, snd_nxt);
        return;
    }
  }

  // DCQCN is the only scheme with CNP, sent-byte or timer state, so the
  // remaining entries are single-case switches. A scheme that grows one of
  // these members must add its case here.

  /// Congestion notification packet (at most once per CNP interval).
  void OnCnp() {
    if (mode_ == CcMode::kDcqcn) u_.dcqcn.OnCnp();
  }

  /// Bytes handed to the NIC (once per transmitted packet).
  void OnBytesSent(std::uint64_t bytes) {
    if (mode_ == CcMode::kDcqcn) u_.dcqcn.OnBytesSent(bytes);
  }

  /// Flow finished: cancel any self-rescheduling timers.
  void Shutdown() {
    if (mode_ == CcMode::kDcqcn) u_.dcqcn.Shutdown();
  }

  // -- Hot consultation (plain field reads on the base) -------------------

  [[nodiscard]] double rate_gbps() const { return base_->rate_gbps(); }
  [[nodiscard]] double window_bytes() const { return base_->window_bytes(); }
  [[nodiscard]] bool uses_window() const { return base_->uses_window(); }
  [[nodiscard]] const CcConfig& config() const { return base_->config(); }

 private:
  // Non-trivial members: lifetime is managed manually via placement new in
  // Emplace() and explicit destructor calls in Destroy().
  union Storage {
    Storage() {}
    ~Storage() {}
    FnccAlgorithm fncc;
    HpccAlgorithm hpcc;
    DcqcnAlgorithm dcqcn;
    RoccAlgorithm rocc;
    TimelyAlgorithm timely;
    SwiftAlgorithm swift;
  };

  // Header (base pointer + tag) first: the cold-path consultations that
  // read through base_ touch the object's first bytes without paging in
  // the ~560-byte union behind them.
  CcAlgorithm* base_ = nullptr;  // points into u_; null when empty
  CcMode mode_ = CcMode::kFncc;
  Storage u_;
};

}  // namespace fncc
