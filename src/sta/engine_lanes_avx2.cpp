// AVX2 (W=4) instantiation of the lane-block walker.  Compiled with
// -mavx2 (see CMakeLists.txt) but without -mfma and with
// -ffp-contract=off: per lane every vector op is the scalar IEEE
// operation, so this instantiation is bitwise identical to the W=1
// oracle in engine_lanes.cpp.  Reached exclusively through the
// lane_width_available(4) dispatch in evaluate_points_delta_lanes().
#if defined(__AVX2__)

#include "sta/engine_lanes_impl.hpp"

namespace waveletic::sta {

template void StaEngine::evaluate_delta_block<4>(
    const LaneBlock& block, LaneOutput out,
    std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines, wave::Workspace* workspace,
    LaneScratch& s) const;

}  // namespace waveletic::sta

#endif  // __AVX2__
