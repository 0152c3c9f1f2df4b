// Timely (Mittal et al., SIGCOMM'15): RTT-gradient rate control. Included
// as an extra end-to-end baseline (the paper cites it among the schemes
// FNCC improves on); not part of the headline figures.
#pragma once

#include "cc/cc_algorithm.hpp"

namespace fncc {

class TimelyAlgorithm final : public CcAlgorithm {
 public:
  TimelyAlgorithm(const CcConfig& config, Simulator* sim)
      : CcAlgorithm(config), sim_(sim) {
    rate_mut() = cfg().line_rate_gbps;
    // Resolve the auto-scaled thresholds into the owned copy now, before
    // the flow table interns the (resolved) config for sharing.
    TimelyParams& p = mutable_config().timely;
    if (p.min_rtt == 0) p.min_rtt = cfg().base_rtt;
    if (p.t_low == 0) p.t_low = cfg().base_rtt * 3 / 2;
    if (p.t_high == 0) p.t_high = cfg().base_rtt * 5;
  }

  void OnAck(const Packet& ack, std::uint64_t snd_nxt);

  [[nodiscard]] double normalized_gradient() const { return gradient_; }

 private:
  Simulator* sim_;
  Time prev_rtt_ = 0;
  double rtt_diff_us_ = 0.0;
  double gradient_ = 0.0;
  int completed_in_low_ = 0;  // consecutive gradient<=0 ACKs, for HAI
};

}  // namespace fncc
