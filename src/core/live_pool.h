// The live-pool stepping core shared by every batched DT-SNN driver.
//
// DT-SNN inference is a per-input loop (Eq. 8): encode the next frame, step
// the SNN, accumulate the cumulative-mean output, and exit when the exit
// policy fires or the timestep budget runs out. LivePool runs that loop for
// a pool of inputs at once, each at its own timestep (LIF state is per-row,
// so mixed-timestep batches are exact):
//
//   admit(sample, spec, payload)   a row joins between steps at t = 0
//   step(...)                      reconcile LIF state, write_frame per row,
//                                  net.step, cumulative_mean_step, decide
//                                  (budget → policy → caller rule), emit
//                                  exits via make_exit_result, compact
//   remove_if(pred)                rows leave between steps (cancellation)
//   reset()                        drop everything after a throw
//
// LIF state is reconciled lazily at the start of each step: begin_inference
// on the first admission into an empty pool, otherwise one
// compact_inference_state(keep + kFreshRow…) gather — survivors keep their
// rows in order, admissions become fresh zero-state rows — issued only when
// rows were removed or admitted since the last step. The gather never
// perturbs a surviving row, so every row's trajectory, decision and logits
// are bitwise identical to the batch-1 SequentialEngine oracle regardless
// of pool composition.
//
// Drivers: core::BatchedSequentialEngine (refill from a request list) and
// the serve::ServingFleet worker (scheduler admission, deadlines as the
// caller rule, cancellation). LivePool is the only caller of
// SpikingNetwork::compact_inference_state outside src/snn/ and tests/
// (enforced by scripts/check_invariants.py, rule live-pool).

#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/exit_policy.h"
#include "core/inference.h"
#include "data/dataset.h"
#include "snn/network.h"

namespace dtsnn::core {

/// How one admitted row runs. `policy` must outlive the row.
struct LiveRowSpec {
  const ExitPolicy* policy = nullptr;
  std::size_t budget = 0;  ///< timestep budget, >= 1
  bool record_logits = false;
};

/// Which check claimed an exit; checks run in this order and short-circuit,
/// so a policy is consulted for exactly the rows the batch-1 oracle consults.
enum class ExitCause { kBudget, kPolicy, kRule };

namespace detail {

/// The payload-free half of LivePool: row state, the contiguous [rows, K]
/// accumulator, and the network's inference state.
class LivePoolRows {
 public:
  /// Extra exit rule for row j, consulted after budget and policy.
  using RowRule = std::function<bool(std::size_t)>;
  /// Receives row j's exit; InferenceResult::sample is set, request_index
  /// is the caller's.
  using RowExit = std::function<void(std::size_t, InferenceResult&&, ExitCause)>;

  /// `net` and `dataset` must outlive the pool; the pool owns the network's
  /// single-step inference state while it holds rows.
  LivePoolRows(snn::SpikingNetwork& net, const data::Dataset& dataset);

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }

  void admit(std::size_t sample, const LiveRowSpec& spec);
  /// Keep rows `survivors` (ascending indices), in order.
  void retain(std::span<const std::size_t> survivors);
  /// One timestep for every row; returns the surviving rows' pre-step
  /// indices (valid until the next call). Must not be called when empty.
  std::span<const std::size_t> step(const RowRule& rule, const RowExit& on_exit);
  void reset();

 private:
  struct Row {
    std::size_t sample = 0;
    std::size_t t = 0;  ///< 0-based timestep the next step runs
    LiveRowSpec spec;
    std::vector<float> history;  ///< cum-logit trajectory when recording
  };

  void reconcile();

  snn::SpikingNetwork& net_;
  const data::Dataset& dataset_;
  const snn::Shape frame_shape_;
  const std::size_t frame_numel_;
  const std::size_t k_;
  std::vector<Row> rows_;
  std::vector<double> acc_;  ///< [rows, K] SequentialEngine arithmetic
  std::vector<float> cum_;
  /// Per row: its row in the network's inference state, or kFreshRow.
  std::vector<std::size_t> keep_;
  bool active_ = false;   ///< the network holds inference state for keep_
  bool changed_ = false;  ///< rows removed or admitted since the last step
  std::vector<std::size_t> survivors_;
};

}  // namespace detail

/// A live pool whose rows each carry a caller `Payload` (a request index, a
/// serving slot, ...), moved along with its row.
template <typename Payload>
class LivePool {
 public:
  LivePool(snn::SpikingNetwork& net, const data::Dataset& dataset) : rows_(net, dataset) {}

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }
  /// Every row's payload. After a throw out of step(), rows that already
  /// exited (or moved) hold moved-from payloads until reset().
  [[nodiscard]] std::span<Payload> payloads() { return payloads_; }

  void admit(std::size_t sample, const LiveRowSpec& spec, Payload payload) {
    rows_.admit(sample, spec);
    payloads_.push_back(std::move(payload));
  }

  /// Remove the rows whose payload matches; returns how many left.
  template <typename Pred>
  std::size_t remove_if(Pred&& pred) {
    kept_.clear();
    for (std::size_t j = 0; j < payloads_.size(); ++j) {
      if (!pred(payloads_[j])) kept_.push_back(j);
    }
    const std::size_t removed = payloads_.size() - kept_.size();
    if (removed > 0) {
      rows_.retain(kept_);
      gather(kept_);
    }
    return removed;
  }

  /// One timestep. `on_exit(InferenceResult&&, Payload&&, ExitCause)` gets
  /// each exiting row; `rule(const Payload&)` is the optional extra exit
  /// rule, consulted only when neither budget nor policy exited the row.
  template <typename OnExit>
  void step(OnExit&& on_exit) {
    finish_step(rows_.step({}, exit_sink(on_exit)));
  }
  template <typename Rule, typename OnExit>
  void step(Rule&& rule, OnExit&& on_exit) {
    finish_step(rows_.step([&](std::size_t j) { return rule(payloads_[j]); },
                           exit_sink(on_exit)));
  }

  void reset() {
    rows_.reset();
    payloads_.clear();
  }

 private:
  template <typename OnExit>
  detail::LivePoolRows::RowExit exit_sink(OnExit& on_exit) {
    return [&](std::size_t j, InferenceResult&& r, ExitCause cause) {
      on_exit(std::move(r), std::move(payloads_[j]), cause);
    };
  }
  void finish_step(std::span<const std::size_t> survivors) {
    if (survivors.size() != payloads_.size()) gather(survivors);
  }
  void gather(std::span<const std::size_t> keep) {
    for (std::size_t j = 0; j < keep.size(); ++j) {
      if (keep[j] != j) payloads_[j] = std::move(payloads_[keep[j]]);
    }
    payloads_.erase(payloads_.begin() + static_cast<std::ptrdiff_t>(keep.size()),
                    payloads_.end());
  }

  detail::LivePoolRows rows_;
  std::vector<Payload> payloads_;
  std::vector<std::size_t> kept_;
};

}  // namespace dtsnn::core
