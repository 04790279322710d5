#ifndef SENTINELPP_CORE_POLICY_H_
#define SENTINELPP_CORE_POLICY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "core/privacy.h"
#include "gtrbac/periodic_expression.h"
#include "gtrbac/temporal_constraint.h"
#include "rbac/sod.h"
#include "rbac/types.h"

namespace sentinel {

/// \brief One role node of the access-specification graph (Figure 1),
/// with its relationship flags and per-role constraint annotations.
struct RoleSpec {
  RoleName name;
  /// Immediate hierarchy edges: this role is senior of each listed role.
  std::set<RoleName> juniors;
  /// Permissions granted directly to this role.
  std::set<Permission> permissions;
  /// Rule 4: max sessions the role may be active in at once (0 = no limit).
  int activation_cardinality = 0;
  /// GTRBAC shift: when present, the role is enabled only inside windows.
  std::optional<PeriodicExpression> enabling_window;
  /// Rule 7 (localized): per-activation duration bound (0 = none).
  Duration max_activation = 0;
  /// Prerequisite roles: must be active in the session before this one.
  std::set<RoleName> prerequisites;
  /// Context-aware RBAC: environment keys that must hold the given values
  /// for the role to be activated — and to *stay* active (a context change
  /// that breaks a constraint force-deactivates the role, the paper's §1
  /// "constraints should hold TRUE until the role is deactivated").
  std::map<std::string, std::string> required_context;

  friend bool operator==(const RoleSpec&, const RoleSpec&) = default;
};

/// \brief One user with assignments and user-specific (specialized-rule)
/// constraints.
struct UserSpec {
  UserName name;
  std::set<RoleName> assignments;
  /// Scenario 1 (§4.3): max roles active at a time across the user's
  /// sessions (0 = no limit).
  int max_active_roles = 0;
  /// Rule 7 (specialized): per-role activation duration bounds.
  std::map<RoleName, Duration> role_durations;

  friend bool operator==(const UserSpec&, const UserSpec&) = default;
};

/// \brief Control-flow dependency (Rule 8): enabling `trigger` requires
/// enabling `companion` too; disabling `companion` disables `trigger`.
struct CfdPair {
  RoleName trigger;    // e.g. SysAdmin
  RoleName companion;  // e.g. SysAudit

  friend bool operator==(const CfdPair&, const CfdPair&) = default;
};

/// \brief Transaction-based activation (Rule 9 / active security):
/// `dependent` can only be activated while `controller` is active, and is
/// deactivated when the controller deactivates.
struct TransactionActivation {
  std::string name;
  RoleName controller;  // e.g. Manager
  RoleName dependent;   // e.g. JuniorEmp

  friend bool operator==(const TransactionActivation&,
                         const TransactionActivation&) = default;
};

/// \brief Active-security threshold directive (§1): `threshold` denials
/// within `window` raise an internal alert; optionally, rules whose names
/// start with one of `disable_rule_prefixes` are disabled.
struct ThresholdDirective {
  std::string name;
  int threshold = 5;
  Duration window = kMinute;
  std::vector<std::string> disable_rule_prefixes;
  /// Roles to disable (and deactivate everywhere) when the alert fires —
  /// the paper's "deactivate a set of roles" alert action (§3).
  std::vector<RoleName> disable_roles;
  /// Per-principal throttle reaction: when > 0, a single user accruing
  /// `threshold` denials inside `window` (tracked per user, separately
  /// from the aggregate alert window) has their admission quota clamped to
  /// this rate in tokens/s — delivered through
  /// AuthorizationEngine::NotifyThrottle to the hosting service's policer.
  /// 0 (the default) keeps the directive alert-only.
  double throttle_rate_per_s = 0;
  /// Bucket depth for the penalty quota (values < 1 behave as 1).
  int64_t throttle_burst = 1;

  friend bool operator==(const ThresholdDirective&,
                         const ThresholdDirective&) = default;
};

/// \brief Periodic audit directive: a report every `interval` (PERIODIC
/// event, §3: "periodically monitor the underlying system and generate
/// reports").
struct AuditDirective {
  std::string name;
  Duration interval = kHour;

  friend bool operator==(const AuditDirective&,
                         const AuditDirective&) = default;
};

/// \brief Purpose registration for privacy-aware RBAC.
struct PurposeSpec {
  PurposeName name;
  PurposeName parent;  // Empty for roots.

  friend bool operator==(const PurposeSpec&, const PurposeSpec&) = default;
};

/// \brief Per-object allowed purposes.
struct ObjectPolicySpec {
  ObjectName object;
  std::set<PurposeName> purposes;

  friend bool operator==(const ObjectPolicySpec&,
                         const ObjectPolicySpec&) = default;
};

/// \brief The high-level enterprise access control policy — everything the
/// paper's RBAC Manager captures, in one value type. The rule generator
/// compiles a Policy into the engine's rule pool; edits produce a new
/// Policy whose diff drives incremental regeneration.
///
/// The two large sections, roles and users, are copy-on-write: a copy
/// shares them with its source, and whichever side first writes a section
/// clones it. AddRole/MutableRole clone the roles, AddUser/RemoveUser/
/// MutableUser clone the users, and RemoveRole clones both because it
/// scrubs user assignments. A clone journals the keys written since, so
/// the diffs and Validate(&base) below visit only those keys when one
/// policy's section was cloned from the other's, and nothing when the two
/// still share it. Copying a `const Policy` from several threads at once is
/// safe.
class Policy {
 public:
  Policy() = default;
  explicit Policy(std::string name) : name_(std::move(name)) {}

  // Value semantics: policies are edited by copy-and-mutate.
  Policy(const Policy&) = default;
  Policy& operator=(const Policy&) = default;
  Policy(Policy&&) = default;
  Policy& operator=(Policy&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ------------------------------------------------------------ Mutation

  Status AddRole(RoleSpec role);
  Status RemoveRole(const RoleName& role);
  /// The returned pointer is valid only until this policy is next copied
  /// or mutated: a later write may clone the section it points into.
  Result<RoleSpec*> MutableRole(const RoleName& role);

  Status AddUser(UserSpec user);
  Status RemoveUser(const UserName& user);
  /// Valid only until this policy is next copied or mutated (see above).
  Result<UserSpec*> MutableUser(const UserName& user);

  Status AddSsd(SodSet set);
  Status RemoveSsd(const std::string& name);
  Status AddDsd(SodSet set);
  Status RemoveDsd(const std::string& name);

  Status AddCfd(CfdPair pair);
  Status AddTransaction(TransactionActivation tx);
  Status AddThreshold(ThresholdDirective directive);
  Status AddAudit(AuditDirective directive);
  Status AddTimeSod(TimeSod constraint);
  Status AddPurpose(PurposeSpec purpose);
  Status AddObjectPolicy(ObjectPolicySpec policy);

  // -------------------------------------------------------------- Access

  const std::map<RoleName, RoleSpec>& roles() const { return roles_.get(); }
  const std::map<UserName, UserSpec>& users() const { return users_.get(); }
  const std::map<std::string, SodSet>& ssd_sets() const { return ssd_sets_; }
  const std::map<std::string, SodSet>& dsd_sets() const { return dsd_sets_; }
  const std::vector<CfdPair>& cfd_pairs() const { return cfd_pairs_; }
  const std::vector<TransactionActivation>& transactions() const {
    return transactions_;
  }
  const std::vector<ThresholdDirective>& thresholds() const {
    return thresholds_;
  }
  const std::vector<AuditDirective>& audits() const { return audits_; }
  const std::vector<TimeSod>& time_sods() const { return time_sods_; }
  const std::vector<PurposeSpec>& purposes() const { return purposes_; }
  const std::vector<ObjectPolicySpec>& object_policies() const {
    return object_policies_;
  }

  bool HasRole(const RoleName& role) const { return roles().count(role) > 0; }

  /// True when both policies hold the very same role (user) section — one
  /// was copied from the other and neither has written it since — so their
  /// contents are equal without a walk.
  bool SharesRolesWith(const Policy& other) const {
    return roles_.SameAs(other.roles_);
  }
  bool SharesUsersWith(const Policy& other) const {
    return users_.SameAs(other.users_);
  }

  /// Role properties the generator keys AAR variants on (paper §4.3.1).
  bool RoleInHierarchy(const RoleName& role) const;
  bool RoleInDsd(const RoleName& role) const;
  bool RoleInSsd(const RoleName& role) const;
  /// True when the role is the dependent of a transaction activation (its
  /// activation is handled by the ASEC Aperiodic rule, not a plain AAR).
  bool RoleIsTransactionDependent(const RoleName& role) const;

  // ---------------------------------------------------------- Validation

  /// Structural consistency: every referenced role/user/purpose exists,
  /// hierarchy is acyclic, SoD sets are sane, directives well-formed.
  ///
  /// `validated_base`, when given, must be a policy that already passed
  /// Validate(). If this policy still has every role the base had, an
  /// entry of a section shared with the base, or one the journal says was
  /// not written since a clone linked the two, passes as it did there: the
  /// per-role and per-user checks run only for the journaled entries, and
  /// the cycle check only from the hierarchy edges they added. A section
  /// not linked to the base's is checked in full, as are the constraint
  /// sections. The result is the Status that Validate() returns.
  Status Validate(const Policy* validated_base = nullptr) const;

  // ------------------------------------------------------------- Diffing

  /// Calls `visit(name, in_from, in_to)` for each role the two policies
  /// may hold differently, in name order, with a null spec on the side
  /// that lacks the role. A pair whose role sections are linked (one was
  /// cloned from the other) visits only the clone's journaled names; a
  /// shared section visits none; any other pair visits every name of
  /// either. A visited role may be equal on both sides: `visit` compares.
  template <typename Visit>
  static void DiffRoles(const Policy& from, const Policy& to, Visit&& visit) {
    DiffSections(from.roles_, to.roles_, visit);
  }
  /// The same over the user sections.
  template <typename Visit>
  static void DiffUsers(const Policy& from, const Policy& to, Visit&& visit) {
    DiffSections(from.users_, to.users_, visit);
  }

  /// Roles whose generated rules must be rebuilt when moving from `from`
  /// to `to` (changed/added/removed role specs, membership in changed SoD
  /// sets / CFDs / transactions / time-SoDs). The role specs are compared
  /// through DiffRoles.
  static std::set<RoleName> AffectedRoles(const Policy& from,
                                          const Policy& to);
  /// Users whose specialized rules must be rebuilt (through DiffUsers).
  static std::set<UserName> AffectedUsers(const Policy& from,
                                          const Policy& to);
  /// True when directive sections (thresholds/audits) differ.
  static bool DirectivesChanged(const Policy& from, const Policy& to);

  friend bool operator==(const Policy&, const Policy&) = default;

 private:
  /// \brief One copy-on-write section with a write journal. Copies share
  /// the map until either side writes; the writer clones first.
  ///
  /// Ownership is a flag that a copy sets on BOTH sides, and a flagged
  /// section is cloned before any write, even after the other side is
  /// gone. `use_count() == 1` would not do: its relaxed read does not
  /// order another thread's last read of the map before this side's
  /// write. The flag is atomic because several threads may copy one
  /// `const` generation at once. A null map reads as empty.
  ///
  /// The journal sits beside the map, so a copy carries it along and only
  /// the owner of a map ever writes it. A map takes an id from a
  /// process-wide counter when it is created or cloned; ids are never
  /// reused, because an address freed with its map can come back and a
  /// false link would silently shrink a diff. A clone records its source's
  /// id as its origin and the keys written since (`Mutable` takes the key
  /// it writes). A fresh map is untracked, and so is one rewritten
  /// wholesale (`Sweep`). Since a map is never written once copied, a
  /// clone differs from its origin only at its journaled keys.
  template <typename Map>
  class Section {
   public:
    using Key = typename Map::key_type;

    Section() = default;
    Section(const Section& other) : node_(other.node_) { MarkShared(other); }
    Section& operator=(const Section& other) {
      if (this != &other) {
        node_ = other.node_;
        MarkShared(other);
      }
      return *this;
    }
    Section(Section&& other) noexcept
        : node_(std::move(other.node_)),
          shared_(other.shared_.load(std::memory_order_relaxed)) {}
    Section& operator=(Section&& other) noexcept {
      node_ = std::move(other.node_);
      shared_.store(other.shared_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      return *this;
    }

    const Map& get() const { return node_ != nullptr ? node_->map : Empty(); }

    /// The map to write at `key`, cloned first unless this side owns it
    /// alone; a tracked map journals the key.
    Map& Mutable(const Key& key) {
      Map& map = Own();
      if (node_->origin != 0) node_->touched.insert(key);
      return map;
    }
    /// The map to rewrite at any key: owned as by Mutable, then untracked.
    Map& Sweep() {
      Map& map = Own();
      node_->origin = 0;
      node_->touched.clear();
      return map;
    }

    bool SameAs(const Section& other) const { return node_ == other.node_; }

    /// The keys at which `a` and `b` can differ: none when they share the
    /// map, the clone's journal when one was cloned from the other, and
    /// null when they are not linked.
    static const std::set<Key>* Edits(const Section& a, const Section& b) {
      static const std::set<Key> none;
      if (a.SameAs(b)) return &none;
      if (a.node_ == nullptr || b.node_ == nullptr) return nullptr;
      if (b.node_->origin == a.node_->id) return &b.node_->touched;
      if (a.node_->origin == b.node_->id) return &a.node_->touched;
      return nullptr;
    }

    friend bool operator==(const Section& a, const Section& b) {
      return a.SameAs(b) || a.get() == b.get();
    }

   private:
    struct Node {
      Node() = default;
      explicit Node(const Map& source) : map(source) {}
      const uint64_t id = NextSectionId();
      uint64_t origin = 0;  // 0: untracked. Ids start at 1.
      std::set<Key> touched;
      Map map;
    };

    static const Map& Empty() {
      static const Map empty;
      return empty;
    }
    /// Makes this side the map's sole owner, cloning a shared map.
    Map& Own() {
      if (node_ == nullptr) {
        node_ = std::make_shared<Node>();
      } else if (shared_.load(std::memory_order_relaxed)) {
        auto clone = std::make_shared<Node>(node_->map);
        clone->origin = node_->id;
        node_ = std::move(clone);
      }
      shared_.store(false, std::memory_order_relaxed);
      return node_->map;
    }
    void MarkShared(const Section& other) {
      const bool shared = node_ != nullptr;
      if (shared) other.shared_.store(true, std::memory_order_relaxed);
      shared_.store(shared, std::memory_order_relaxed);
    }

    std::shared_ptr<Node> node_;
    mutable std::atomic<bool> shared_{false};
  };

  /// Ids for Section maps: 1, 2, ... and never the same twice.
  static uint64_t NextSectionId();

  /// DiffRoles and DiffUsers: the one walk of both sections' candidates.
  template <typename Map, typename Visit>
  static void DiffSections(const Section<Map>& from, const Section<Map>& to,
                           Visit& visit) {
    const Map& a = from.get();
    const Map& b = to.get();
    if (const auto* edits = Section<Map>::Edits(from, to)) {
      for (const auto& key : *edits) {
        const auto i = a.find(key);
        const auto j = b.find(key);
        if (i == a.end() && j == b.end()) continue;
        visit(key, i == a.end() ? nullptr : &i->second,
              j == b.end() ? nullptr : &j->second);
      }
      return;
    }
    // Unlinked: merge both maps' keys, in name order.
    auto i = a.begin();
    auto j = b.begin();
    while (i != a.end() || j != b.end()) {
      if (j == b.end() || (i != a.end() && i->first < j->first)) {
        visit(i->first, &i->second, nullptr);
        ++i;
      } else if (i == a.end() || j->first < i->first) {
        visit(j->first, nullptr, &j->second);
        ++j;
      } else {
        visit(i->first, &i->second, &j->second);
        ++i;
        ++j;
      }
    }
  }

  std::string name_;
  Section<std::map<RoleName, RoleSpec>> roles_;
  Section<std::map<UserName, UserSpec>> users_;
  std::map<std::string, SodSet> ssd_sets_;
  std::map<std::string, SodSet> dsd_sets_;
  std::vector<CfdPair> cfd_pairs_;
  std::vector<TransactionActivation> transactions_;
  std::vector<ThresholdDirective> thresholds_;
  std::vector<AuditDirective> audits_;
  std::vector<TimeSod> time_sods_;
  std::vector<PurposeSpec> purposes_;
  std::vector<ObjectPolicySpec> object_policies_;
};

}  // namespace sentinel

#endif  // SENTINELPP_CORE_POLICY_H_
