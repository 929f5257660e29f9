// Fixture for check_invariants_test.py: a second live-pool loop that gathers
// LIF state itself instead of driving core::LivePool (one finding, line 9).
#include <cstddef>
#include <vector>

template <typename Net>
void refill(Net& net, std::vector<std::size_t>& keep) {
  keep.push_back(static_cast<std::size_t>(-1));
  net.compact_inference_state(keep);  // line 9: outside src/core/live_pool.cpp
}
