#include "query/backend.h"

namespace dki {

const char* EvalBackendName(EvalBackend backend) {
  switch (backend) {
    case EvalBackend::kNfa:
      return "nfa";
    case EvalBackend::kNfaPrefilter:
      return "prefilter";
  }
  return "unknown";
}

}  // namespace dki
