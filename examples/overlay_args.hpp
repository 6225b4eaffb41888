// --n / --d / --seed for the one-shot examples, range-checked the way
// size_service checks them (n in [3, 2^32 - 1]; d even, in [4, 762]), so a
// bad value is reported at the command line instead of reaching a throw
// inside the overlay build.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/small_world.hpp"
#include "util/cli.hpp"

namespace byz::examples {

/// Throws std::invalid_argument naming the flag when --n or --d is out of
/// range.
inline graph::OverlayParams read_overlay_params(const util::ArgParser& args) {
  graph::OverlayParams params;
  params.n = args.integer_in<graph::NodeId>("n", 3, 0xFFFFFFFF);
  // k = ceil(d/3) must stay below the 8-bit kNotInBall distance sentinel.
  params.d = args.integer_in<std::uint32_t>("d", 4, 762);
  if (params.d % 2 != 0) {
    throw std::invalid_argument("option --d must be an even H-degree, got " +
                                std::to_string(params.d));
  }
  params.seed = static_cast<std::uint64_t>(args.integer("seed"));
  return params;
}

}  // namespace byz::examples
