#ifndef SENTINELPP_CORE_POLICY_UPDATE_H_
#define SENTINELPP_CORE_POLICY_UPDATE_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"

namespace sentinel {

/// \brief A base-state reconcile precomputed off the shard thread: the
/// removal half (always replayed) plus the add half (replayed only while
/// the runtime DB provably still contains everything `from` installed).
///
/// ReconcileBaseState's removal steps (retire constraints, deassign, revoke,
/// unlink, delete) are pure from→to diffs, so they can be computed once on
/// the admin caller's thread and replayed per shard. The *add* lists are the
/// from→to policy diff of the same relations; they are sufficient only when
/// no runtime base-state REMOVAL (deassign, revoke, delete-user/role/edge/
/// SoD-set — e.g. an active-security rule deassigning a violator) has run
/// since the last reconcile: then the runtime DB is a superset of `from`'s
/// entries and the only possibly-missing entries are exactly the policy
/// diff. When removals did run, commit replays the add half of the diff
/// from an empty policy, every entry of `to`, through the same presence
/// guards, which re-syncs runtime-diverged state (e.g. a runtime-deassigned
/// assignment the new policy still lists).
struct BaseStateDelta {
  std::vector<std::string> drop_ssd;
  std::vector<std::string> drop_dsd;
  std::vector<std::pair<UserName, RoleName>> deassign;
  std::vector<std::pair<RoleName, Permission>> revoke;
  /// Hierarchy edges to delete, as (senior, junior).
  std::vector<std::pair<RoleName, RoleName>> drop_edges;
  std::vector<RoleName> drop_roles;
  std::vector<UserName> drop_users;
  /// The add half, in install order (users/roles, then edges/grants/
  /// assignments, then SoD sets): entries of `to` absent from `from`.
  std::vector<UserName> add_users;
  std::vector<RoleName> add_roles;
  /// Hierarchy edges to add, as (senior, junior).
  std::vector<std::pair<RoleName, RoleName>> add_edges;
  std::vector<std::pair<RoleName, Permission>> add_grants;
  std::vector<std::pair<UserName, RoleName>> add_assignments;
  /// SoD sets of `to` that are new or whose membership/cardinality changed
  /// (the matching drop_* entry retired the old definition first).
  std::vector<std::string> add_ssd;
  std::vector<std::string> add_dsd;
  /// True iff purposes or object policies differ — gates the privacy-store
  /// rebuild (the only step that mutates the PrivacyStore).
  bool privacy_changed = false;
  /// Roles of `to` carrying an enabling window — the only roles whose
  /// enablement must be recomputed against the clock at commit time.
  std::vector<RoleName> window_roles;
  /// Roles present in `to` without an enabling window that had one in
  /// `from` (window removed → force-enable at commit time).
  std::set<RoleName> window_removed;

  friend bool operator==(const BaseStateDelta&,
                         const BaseStateDelta&) = default;
};

/// Diffs `from` → `to` into the delta above, visiting only the roles and
/// users the two may hold differently (Policy::DiffRoles). Pure;
/// thread-safe.
BaseStateDelta ComputeBaseStateDelta(const Policy& from, const Policy& to);

/// \brief Everything a pauseless policy swap needs, built off the shard
/// thread by AuthorizationEngine::PreparePolicyUpdate.
///
/// `base` pins the generation this plan was diffed against: commit refuses
/// (FailedPrecondition) when the engine's live policy is a different object,
/// so a stale plan can never silently clobber an interleaved update. `next`
/// is the immutable generation the engine flips to — one allocation shared
/// by every shard, retired by shared_ptr refcount when the last shard (and
/// the service's own handle) lets go.
struct PolicyUpdatePlan {
  std::shared_ptr<const Policy> base;
  std::shared_ptr<const Policy> next;
  std::set<RoleName> affected_roles;
  std::set<UserName> affected_users;
  bool directives_changed = false;
  BaseStateDelta delta;
};

}  // namespace sentinel

#endif  // SENTINELPP_CORE_POLICY_UPDATE_H_
