// Tenant classes and per-tenant quotas for the serving fleet.
//
// A tenant class is a traffic contract: a human-readable name, a
// weighted-fair share, and admission quotas. Quotas are the backpressure
// surface of multi-tenant serving — one tenant flooding the queue gets its
// *own* submissions rejected (loudly, with a typed error) instead of
// crowding out everyone else's latency:
//
//   max_queued     cap on the tenant's samples waiting for admission;
//                  submissions that would exceed it throw TenantQuotaError.
//   max_in_flight  cap on the tenant's samples resident in worker pools at
//                  once; excess queued samples simply wait (schedulers skip
//                  them), so a bulk tenant can never occupy every pool slot.
//
// The registry is immutable once handed to a fleet: tenant ids are
// dense indices assigned at registration, and tenant 0 always exists (the
// default class every untagged request lands in). Counters live with the
// fleet, not here — the registry is pure configuration.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dtsnn::serve {

/// Dense tenant-class index into the owning registry.
using TenantId = std::uint32_t;

/// Tenant 0: the implicit class for untagged requests; unlimited quotas,
/// weight 1 — a single-tenant deployment never notices the tenant layer.
inline constexpr TenantId kDefaultTenant = 0;

struct TenantSpec {
  std::string name = "default";
  /// Weighted-fair share (weighted_fair scheduler): a weight-3 tenant is
  /// admitted 3 samples for every 1 of a weight-1 tenant while both are
  /// backlogged. Must be finite and > 0.
  double weight = 1.0;
  /// Max samples of this tenant resident in worker pools at once; 0 = no cap.
  std::size_t max_in_flight = 0;
  /// Max samples of this tenant waiting for admission; 0 = no cap.
  std::size_t max_queued = 0;
};

/// Thrown when a submission would exceed its tenant's max_queued quota —
/// deliberately distinct from the queue-full std::runtime_error so clients
/// can tell "the server is overloaded" from "you are over your contract".
class TenantQuotaError : public std::runtime_error {
 public:
  TenantQuotaError(TenantId tenant, std::string message)
      : std::runtime_error(std::move(message)), tenant_(tenant) {}
  [[nodiscard]] TenantId tenant() const { return tenant_; }

 private:
  TenantId tenant_;
};

class TenantRegistry {
 public:
  /// Starts with tenant 0 (the default class).
  TenantRegistry();

  /// Register a tenant class; returns its id (dense, in registration
  /// order). Throws std::invalid_argument for a non-finite or non-positive
  /// weight; an empty name becomes "tenant<id>".
  TenantId register_tenant(TenantSpec spec);

  /// Spec lookup; throws std::out_of_range naming the bad id.
  [[nodiscard]] const TenantSpec& spec(TenantId id) const;
  [[nodiscard]] bool contains(TenantId id) const { return id < specs_.size(); }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

 private:
  std::vector<TenantSpec> specs_;
};

}  // namespace dtsnn::serve
