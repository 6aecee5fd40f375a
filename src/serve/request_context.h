#ifndef HIGNN_SERVE_REQUEST_CONTEXT_H_
#define HIGNN_SERVE_REQUEST_CONTEXT_H_

#include "obs/request_phases.h"

namespace hignn {

/// \brief Per-request trace state threaded through the serving path; the
/// record and its phase model live in obs/request_phases.h.
using RequestContext = obs::RequestContext;

}  // namespace hignn

#endif  // HIGNN_SERVE_REQUEST_CONTEXT_H_
