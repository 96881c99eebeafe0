#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

// The hypervisor's steal counter, and the statistics the benchmark gates
// on because of it. On a shared virtual machine the host takes CPU time
// away from the guest in bursts; a sample taken during one measures the
// host, not the program (on a 4-vCPU cloud VM the same quarter-scale
// Fig. 4 pool run took 0.25 s or 0.44 s, and a point query's p50 was
// 0.12 ms or 0.5 ms, depending on steal).
// Every gated timing is therefore the median over the least-stolen half
// of its samples; the raw figures are printed beside it.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// All and stolen CPU ticks (USER_HZ, summed over CPUs) from /proc/stat;
/// steal is 0 where the kernel does not report it.
struct CpuTicks {
  long long total = 0;
  long long steal = 0;
};
CpuTicks ReadCpuTicks();

inline long long ReadStealTicks() { return ReadCpuTicks().steal; }

/// A timing and the steal ticks that elapsed while it was taken.
struct Timed {
  double value = 0.0;
  long long steal = 0;
};

/// Median of the least-stolen half of `samples` (at least one sample;
/// 0 when empty).
double QuietMedian(std::vector<Timed> samples);

/// The least-stolen half of `n` items whose steal `steal_of(i)` gives, as
/// indices in ascending order.
template <typename StealOf>
std::vector<size_t> QuietHalf(size_t n, StealOf steal_of);

/// Samples ReadStealTicks() every 10 ms on a background thread, so steal
/// can be charged to intervals shorter than a second.
class StealClock {
 public:
  StealClock();
  ~StealClock();
  StealClock(const StealClock&) = delete;
  StealClock& operator=(const StealClock&) = delete;

  void Stop();

  /// Steal ticks between two NowNs() times.
  long long TicksBetween(int64_t from, int64_t to) const;

 private:
  void Loop();
  long long At(int64_t t) const;  ///< Requires mu_.

  mutable std::mutex mu_;
  std::vector<std::pair<int64_t, long long>> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

template <typename StealOf>
std::vector<size_t> QuietHalf(size_t n, StealOf steal_of) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_of(a) < steal_of(b);
  });
  order.resize((n + 1) / 2);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
