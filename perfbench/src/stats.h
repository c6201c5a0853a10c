// The benchmark's own arithmetic: which samples a run reports, and the two
// yield ratios. Header-only so the self-tests exercise exactly this code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// The fastest sample: the timing statistic every end-to-end time reports.
/// Host speed drifts between plateaus, and a slower plateau only ever adds
/// time, so the minimum is the estimate least disturbed by it. 0 when empty.
inline double fastest(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

/// Nearest-rank quantile: the smallest sample with at least q of all samples
/// at or below it (q in (0, 1]). quantile(x, 0.5) is the lower median;
/// quantile(x, 0.9) of ten samples is the ninth smallest. 0 when empty.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(i, samples.size() - 1)];
}

/// Calls at least this long span the host's millisecond-scale slow bursts on
/// every run, so none of their runs is fast; see SlotTimes.
inline constexpr double kLongCallMs = 10.0;

/// The time of each slot over equally shaped samples, in units of the
/// host-speed reference. A run's samples are its passes, a slot is one
/// (design, stage) call, and every slot of a sample comes with the
/// reference's time measured just before that design pass.
///  - A short call lands in the host's fast moments on some passes, as the
///    reference does: it reports its fastest time over the reference's.
///  - A long call, whose fastest run takes kLongCallMs or more, spans the
///    host's slow bursts on every pass: it reports the tenth percentile of
///    its time over the reference measured just before it. Unlike the
///    minimum, no single pass whose reference sample was slow can set it.
class SlotTimes {
 public:
  void add(const std::vector<double>& ms, const std::vector<double>& referenceMs) {
    if (samples_++ == 0) {
      fastest_ = ms;
      long_.resize(ms.size());
    }
    if (ms.size() != fastest_.size() || referenceMs.size() != ms.size())
      throw std::invalid_argument("SlotTimes: samples differ in shape");
    for (std::size_t i = 0; i < ms.size(); ++i) {
      fastest_[i] = std::min(fastest_[i], ms[i]);
      fastestReference_ = std::min(fastestReference_, referenceMs[i]);
      // Only a run this long can belong to a long call; keeping no others
      // bounds the memory by the run's length.
      if (ms[i] >= kLongCallMs) long_[i].push_back(ms[i] / referenceMs[i]);
    }
  }
  std::vector<double> values() const {
    std::vector<double> out(fastest_.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = fastest_[i] >= kLongCallMs ? quantile(long_[i], 0.1)
                                          : fastest_[i] / fastestReference_;
    return out;
  }
  double sum() const {
    double total = 0;
    for (double v : values()) total += v;
    return total;
  }
  int samples() const { return samples_; }

 private:
  std::vector<double> fastest_;
  std::vector<std::vector<double>> long_;  ///< each long run over its reference
  double fastestReference_ = std::numeric_limits<double>::infinity();
  int samples_ = 0;
};

/// num / den, or 0 when nothing was attempted.
inline double yieldRatio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// mfsa.commit_yield: committed moves per costed candidate.
inline double commitYield(std::uint64_t commits, std::uint64_t candidates) {
  return yieldRatio(commits, candidates);
}

/// tune.stitch_yield: accepted stitches per stitch tried.
inline double stitchYield(std::uint64_t stitches, std::uint64_t rejected) {
  return yieldRatio(stitches, stitches + rejected);
}

}  // namespace perfbench
