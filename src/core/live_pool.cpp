#include "core/live_pool.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

#include "snn/layer.h"
#include "snn/loss.h"

namespace dtsnn::core::detail {

LivePoolRows::LivePoolRows(snn::SpikingNetwork& net, const data::Dataset& dataset)
    : net_(net),
      dataset_(dataset),
      frame_shape_(dataset.frame_shape()),
      frame_numel_(snn::shape_numel(frame_shape_)),
      k_(net.num_classes()),
      cum_(k_) {}

void LivePoolRows::admit(std::size_t sample, const LiveRowSpec& spec) {
  rows_.push_back({sample, 0, spec, {}});
  acc_.resize(rows_.size() * k_, 0.0);
  keep_.push_back(snn::Layer::kFreshRow);
  changed_ = true;
}

void LivePoolRows::retain(std::span<const std::size_t> survivors) {
  // survivors is ascending, so src >= j and in-place forward moves are safe.
  for (std::size_t j = 0; j < survivors.size(); ++j) {
    const std::size_t src = survivors[j];
    if (src == j) continue;
    rows_[j] = std::move(rows_[src]);
    std::copy(acc_.begin() + static_cast<std::ptrdiff_t>(src * k_),
              acc_.begin() + static_cast<std::ptrdiff_t>((src + 1) * k_),
              acc_.begin() + static_cast<std::ptrdiff_t>(j * k_));
    keep_[j] = keep_[src];
  }
  if (survivors.size() == rows_.size()) return;
  rows_.resize(survivors.size());
  acc_.resize(rows_.size() * k_);
  keep_.resize(rows_.size());
  changed_ = true;
  // An empty pool holds no state worth gathering: the next admission begins
  // a fresh inference sequence.
  if (rows_.empty()) active_ = false;
}

void LivePoolRows::reconcile() {
  if (!active_) {
    net_.begin_inference(rows_.size());
    active_ = true;
  } else if (changed_) {
    net_.compact_inference_state(keep_);
  }
  changed_ = false;
  // After this step the network's state rows are the pool's rows, in order.
  std::iota(keep_.begin(), keep_.end(), std::size_t{0});
}

std::span<const std::size_t> LivePoolRows::step(const RowRule& rule, const RowExit& on_exit) {
  assert(!rows_.empty());
  reconcile();

  // Encode each row's own next frame, then one timestep for the whole pool.
  const snn::Shape& fs = frame_shape_;
  snn::Tensor x({rows_.size(), fs[0], fs[1], fs[2]});
  for (std::size_t j = 0; j < rows_.size(); ++j) {
    dataset_.write_frame(rows_[j].sample, rows_[j].t,
                         {x.data() + j * frame_numel_, frame_numel_});
  }
  const snn::Tensor y = net_.step(x);  // [rows, K]

  survivors_.clear();
  for (std::size_t j = 0; j < rows_.size(); ++j) {
    Row& row = rows_[j];
    snn::cumulative_mean_step(y.data() + j * k_, acc_.data() + j * k_, cum_.data(), k_,
                              row.t);
    if (row.spec.record_logits) row.history.insert(row.history.end(), cum_.begin(), cum_.end());
    // Budget first, policy only below it (the oracle's short-circuit), the
    // caller's rule only when neither claimed the exit.
    std::optional<ExitCause> cause;
    if (row.t + 1 == row.spec.budget) {
      cause = ExitCause::kBudget;
    } else if (row.spec.policy->should_exit(cum_)) {
      cause = ExitCause::kPolicy;
    } else if (rule && rule(j)) {
      cause = ExitCause::kRule;
    }
    if (cause) {
      InferenceResult r = make_exit_result(cum_, row.t, row.spec.record_logits, row.history);
      r.sample = row.sample;
      on_exit(j, std::move(r), *cause);
    } else {
      ++row.t;
      survivors_.push_back(j);
    }
  }
  retain(survivors_);
  return survivors_;
}

void LivePoolRows::reset() {
  rows_.clear();
  acc_.clear();
  keep_.clear();
  active_ = false;
  changed_ = false;
}

}  // namespace dtsnn::core::detail
