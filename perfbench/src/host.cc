#include "host.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>

#include "stats.h"
#include "trace.h"

namespace perfbench {

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  long long value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double QuietMedian(std::vector<Timed> samples) {
  std::vector<double> values;
  for (size_t i : QuietHalf(samples.size(),
                            [&](size_t k) { return samples[k].steal; })) {
    values.push_back(samples[i].value);
  }
  return Median(values);
}

StealClock::StealClock() : thread_([this] { Loop(); }) {}

StealClock::~StealClock() { Stop(); }

void StealClock::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

long long StealClock::TicksBetween(int64_t from, int64_t to) const {
  std::lock_guard<std::mutex> lock(mu_);
  return At(to) - At(from);
}

void StealClock::Loop() {
  while (!stop_.load()) {
    const long long steal = ReadStealTicks();
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.emplace_back(NowNs(), steal);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

long long StealClock::At(int64_t t) const {
  long long value = samples_.empty() ? 0 : samples_.front().second;
  for (const auto& [when, steal] : samples_) {
    if (when > t) break;
    value = steal;
  }
  return value;
}

}  // namespace perfbench
