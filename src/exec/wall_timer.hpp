// Host wall-clock stopwatch shared by the sweep timing paths (harness
// batch APIs, bench sweep meta). Wall time is telemetry only: it is
// machine- and thread-count-dependent and excluded from every determinism
// guarantee and equivalence comparison.
#pragma once

#include <chrono>

namespace fncc {

class WallTimer {
 public:
  /// Seconds elapsed since construction.
  [[nodiscard]] double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Seconds elapsed since construction or the previous Lap, whichever is
  /// later; starts the next lap.
  double Lap() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - lap_).count();
    lap_ = now;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point lap_ = start_;
};

}  // namespace fncc
