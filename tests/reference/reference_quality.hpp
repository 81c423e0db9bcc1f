// The signal-quality census as it ran before blocks of plain samples went
// through a dispatched scan: core::StreamingCensus::update's per-sample
// walk and finalize's sample-by-sample clipping count, frozen here so the
// differential fuzz tests can hold the census to it bit for bit.
#pragma once

#include <cstddef>
#include <span>

#include "common/signal.hpp"
#include "core/quality.hpp"

namespace vibguard::testing {

/// StreamingCensus::update, one sample at a time, on the same state.
void reference_census_update(core::StreamingCensus& census,
                             std::span<const double> samples,
                             std::size_t min_gap_samples);

/// StreamingCensus::finalize with the clipping census counted in a scalar
/// loop (finite samples with |x| >= clip level).
core::ChannelQuality reference_census_finalize(
    const core::StreamingCensus& census, const Signal& signal,
    const core::QualityConfig& cfg);

/// assess_channel built on the two functions above.
core::ChannelQuality reference_assess_channel(const Signal& signal,
                                              const core::QualityConfig& cfg);

}  // namespace vibguard::testing
