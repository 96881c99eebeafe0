#include "provenance.h"

#include <sched.h>

#include <fstream>
#include <thread>

#include "util/json.h"

namespace perfbench {

namespace {

/// The clone analysis/tidlist.cc's target_clones dispatch resolves to.
std::string SimdTarget() {
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__)
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("popcnt")) return "popcnt";
  return "default";
#else
  return "portable";
#endif
}

std::string ReadLine(const std::string& path) {
  std::ifstream file(path);
  std::string line;
  std::getline(file, line);
  return line;
}

/// Size of the highest-level cache cpu0 reports, as sysfs prints it.
std::string LastLevelCache() {
  std::string size = "unknown";
  int best = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = ReadLine(dir + "level");
    if (level.empty()) continue;
    if (std::stoi(level) >= best) {
      best = std::stoi(level);
      size = "L" + level + " " + ReadLine(dir + "size");
    }
  }
  return size;
}

int UsableCores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace

std::string ProvenanceJson(const std::string& commit, const std::string& dirty,
                           const std::string& source_digest) {
  culevo::JsonWriter json;
  json.BeginObject();
  json.Key("commit");
  json.String(commit);
  json.Key("dirty");
  json.String(dirty);
  json.Key("source_sha256");
  json.String(source_digest);
  json.Key("nproc");
  json.Int(UsableCores());
  json.Key("hardware_threads");
  json.Int(static_cast<long long>(std::thread::hardware_concurrency()));
  json.Key("compiler");
  json.String(std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")");
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.Key("cxx_flags");
  json.String(PERFBENCH_CXX_FLAGS);
  json.Key("simd_target");
  json.String(SimdTarget());
  json.Key("llc");
  json.String(LastLevelCache());
  json.EndObject();
  return std::move(json).Take();
}

}  // namespace perfbench
