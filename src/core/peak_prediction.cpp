#include "core/peak_prediction.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace slackvm::core {

double MaxPredictor::predict(std::span<const double> usage) const {
  if (usage.empty()) {
    return 1.0;
  }
  return std::clamp(*std::ranges::max_element(usage), 0.0, 1.0);
}

PercentilePredictor::PercentilePredictor(double q) : q_(q) {
  SLACKVM_ASSERT(q > 0.0 && q <= 100.0);
}

double PercentilePredictor::predict(std::span<const double> usage) const {
  if (usage.empty()) {
    return 1.0;
  }
  return std::clamp(percentile(usage, q_), 0.0, 1.0);
}

std::string PercentilePredictor::name() const {
  // Appending (not "p" + std::string) sidesteps GCC 12's -Wrestrict false
  // positive on the inlined string insert at -O3.
  std::string name = "p";
  name += std::to_string(static_cast<int>(q_));
  return name;
}

MeanStdDevPredictor::MeanStdDevPredictor(double k) : k_(k) {
  SLACKVM_ASSERT(k >= 0.0);
}

double MeanStdDevPredictor::predict(std::span<const double> usage) const {
  if (usage.empty()) {
    return 1.0;
  }
  RunningStats stats;
  for (double u : usage) {
    stats.add(u);
  }
  return std::clamp(stats.mean() + k_ * stats.stddev(), 0.0, 1.0);
}

std::string MeanStdDevPredictor::name() const {
  return "mean+" + std::to_string(static_cast<int>(k_)) + "sd";
}

std::uint8_t safe_ratio_for_peak(double predicted_peak, std::uint8_t max_ratio) {
  SLACKVM_ASSERT(max_ratio >= 1);
  if (predicted_peak <= 0.0) {
    return max_ratio;
  }
  const double raw = 1.0 / predicted_peak;
  const double clamped = std::clamp(raw, 1.0, static_cast<double>(max_ratio));
  return static_cast<std::uint8_t>(clamped);
}

}  // namespace slackvm::core
