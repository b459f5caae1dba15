#include "common/json.hpp"

// Set by CMake on this file alone (XCHAIN_STAMP_DEFINES), so a new commit
// recompiles one file. Builds that compile src/ on their own, such as
// perfbench, set none of them.
#ifndef XCHAIN_GIT_COMMIT
#define XCHAIN_GIT_COMMIT "unknown"
#define XCHAIN_BUILD_TYPE "unknown"
#define XCHAIN_COMPILER "unknown"
#endif

namespace xchain {

const BuildStamp& build_stamp() {
  static const BuildStamp stamp{XCHAIN_GIT_COMMIT, XCHAIN_BUILD_TYPE,
                                XCHAIN_COMPILER};
  return stamp;
}

}  // namespace xchain
