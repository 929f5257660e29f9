// Fixture: the one allowed caller. core::LivePool reconciles LIF state with
// compact_inference_state(keep) between steps (prose mentions are fine
// anywhere, and so is "compact_inference_state(" in a string).
#include <cstddef>
#include <vector>

template <typename Net>
void reconcile(Net& net, const std::vector<std::size_t>& keep) {
  net.compact_inference_state(keep);
}
