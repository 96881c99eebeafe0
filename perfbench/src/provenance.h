#ifndef PERFBENCH_PROVENANCE_H_
#define PERFBENCH_PROVENANCE_H_

#include <string>

namespace perfbench {

/// Where a result was measured, as one JSON object: the source revision
/// (from the caller: the checkout may not be a git repository), core
/// count, compiler, build type and flags, the ISA clone the mining kernels
/// dispatch to, and the last-level cache size.
std::string ProvenanceJson(const std::string& commit, const std::string& dirty,
                           const std::string& source_digest);

}  // namespace perfbench

#endif  // PERFBENCH_PROVENANCE_H_
