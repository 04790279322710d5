#include "core/policy.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace sentinel {

namespace {

using RoleMap = std::map<RoleName, RoleSpec>;

/// Detects a cycle in the hierarchy edges of a role map via DFS coloring.
/// Colours are keyed by node, so a step copies no name.
bool HierarchyHasCycle(const RoleMap& roles) {
  enum class Color { kWhite, kGray, kBlack };
  std::unordered_map<const RoleSpec*, Color> color;  // Absent: white.
  color.reserve(roles.size());

  // Iterative DFS with an explicit stack of (node, child cursor).
  std::vector<std::pair<const RoleSpec*, std::set<RoleName>::const_iterator>>
      stack;
  for (const auto& [start, spec] : roles) {
    if (color[&spec] != Color::kWhite) continue;
    color[&spec] = Color::kGray;
    stack.push_back({&spec, spec.juniors.begin()});
    while (!stack.empty()) {
      auto& [node, cursor] = stack.back();
      if (cursor == node->juniors.end()) {
        color[node] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      auto it = roles.find(*cursor++);
      if (it == roles.end()) continue;  // Dangling edge caught elsewhere.
      Color& next = color[&it->second];
      if (next == Color::kGray) return true;
      if (next == Color::kWhite) {
        next = Color::kGray;
        stack.push_back({&it->second, it->second.juniors.begin()});
      }
    }
  }
  return false;
}

/// True when `target` is `start` or lies below it along junior edges.
bool Reaches(const RoleMap& roles, const RoleName& start,
             const RoleName& target) {
  std::unordered_set<const RoleSpec*> seen;
  std::vector<const RoleSpec*> stack;
  const auto push = [&](const RoleName& name) {
    if (name == target) return true;
    auto it = roles.find(name);
    if (it != roles.end() && seen.insert(&it->second).second) {
      stack.push_back(&it->second);
    }
    return false;
  };
  if (push(start)) return true;
  while (!stack.empty()) {
    const RoleSpec* node = stack.back();
    stack.pop_back();
    for (const RoleName& junior : node->juniors) {
      if (push(junior)) return true;
    }
  }
  return false;
}

/// Runs `check(name, spec)` over the entries of `map` in name order, or
/// over those at `keys` only when given, and returns the first error.
template <typename Map, typename Check>
Status CheckEntries(const Map& map,
                    const std::set<typename Map::key_type>* keys,
                    Check&& check) {
  if (keys == nullptr) {
    for (const auto& [name, spec] : map) {
      SENTINEL_RETURN_IF_ERROR(check(name, spec));
    }
    return Status::OK();
  }
  for (const auto& key : *keys) {
    auto it = map.find(key);
    if (it != map.end()) SENTINEL_RETURN_IF_ERROR(check(it->first, it->second));
  }
  return Status::OK();
}

std::atomic<uint64_t> next_section_id{1};

}  // namespace

uint64_t Policy::NextSectionId() {
  return next_section_id.fetch_add(1, std::memory_order_relaxed);
}

Status Policy::AddRole(RoleSpec role) {
  if (role.name.empty()) {
    return Status::InvalidArgument("role name must not be empty");
  }
  if (HasRole(role.name)) {
    return Status::AlreadyExists("role already in policy: " + role.name);
  }
  const RoleName name = role.name;
  roles_.Mutable(name).emplace(name, std::move(role));
  return Status::OK();
}

Status Policy::RemoveRole(const RoleName& role) {
  if (!HasRole(role)) {
    return Status::NotFound("role not in policy: " + role);
  }
  // Scrub references so the policy stays self-consistent. The scrub may
  // write any role and user, so both sections leave their journals.
  RoleMap& roles = roles_.Sweep();
  roles.erase(role);
  for (auto& [name, spec] : roles) {
    spec.juniors.erase(role);
    spec.prerequisites.erase(role);
  }
  for (auto& [name, spec] : users_.Sweep()) {
    spec.assignments.erase(role);
    spec.role_durations.erase(role);
  }
  for (auto it = ssd_sets_.begin(); it != ssd_sets_.end();) {
    it->second.roles.erase(role);
    if (static_cast<int>(it->second.roles.size()) < it->second.n) {
      it = ssd_sets_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = dsd_sets_.begin(); it != dsd_sets_.end();) {
    it->second.roles.erase(role);
    if (static_cast<int>(it->second.roles.size()) < it->second.n) {
      it = dsd_sets_.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(cfd_pairs_, [&](const CfdPair& pair) {
    return pair.trigger == role || pair.companion == role;
  });
  std::erase_if(transactions_, [&](const TransactionActivation& tx) {
    return tx.controller == role || tx.dependent == role;
  });
  for (auto it = time_sods_.begin(); it != time_sods_.end();) {
    it->roles.erase(role);
    if (it->roles.size() < 2) {
      it = time_sods_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Result<RoleSpec*> Policy::MutableRole(const RoleName& role) {
  if (!HasRole(role)) {
    return Status::NotFound("role not in policy: " + role);
  }
  return &roles_.Mutable(role).at(role);
}

Status Policy::AddUser(UserSpec user) {
  if (user.name.empty()) {
    return Status::InvalidArgument("user name must not be empty");
  }
  if (users().count(user.name) > 0) {
    return Status::AlreadyExists("user already in policy: " + user.name);
  }
  const UserName name = user.name;
  users_.Mutable(name).emplace(name, std::move(user));
  return Status::OK();
}

Status Policy::RemoveUser(const UserName& user) {
  if (users().count(user) == 0) {
    return Status::NotFound("user not in policy: " + user);
  }
  users_.Mutable(user).erase(user);
  return Status::OK();
}

Result<UserSpec*> Policy::MutableUser(const UserName& user) {
  if (users().count(user) == 0) {
    return Status::NotFound("user not in policy: " + user);
  }
  return &users_.Mutable(user).at(user);
}

Status Policy::AddSsd(SodSet set) {
  if (ssd_sets_.count(set.name) > 0) {
    return Status::AlreadyExists("SSD set already in policy: " + set.name);
  }
  const std::string name = set.name;
  ssd_sets_.emplace(name, std::move(set));
  return Status::OK();
}

Status Policy::RemoveSsd(const std::string& name) {
  if (ssd_sets_.erase(name) == 0) {
    return Status::NotFound("SSD set not in policy: " + name);
  }
  return Status::OK();
}

Status Policy::AddDsd(SodSet set) {
  if (dsd_sets_.count(set.name) > 0) {
    return Status::AlreadyExists("DSD set already in policy: " + set.name);
  }
  const std::string name = set.name;
  dsd_sets_.emplace(name, std::move(set));
  return Status::OK();
}

Status Policy::RemoveDsd(const std::string& name) {
  if (dsd_sets_.erase(name) == 0) {
    return Status::NotFound("DSD set not in policy: " + name);
  }
  return Status::OK();
}

Status Policy::AddCfd(CfdPair pair) {
  cfd_pairs_.push_back(std::move(pair));
  return Status::OK();
}

Status Policy::AddTransaction(TransactionActivation tx) {
  transactions_.push_back(std::move(tx));
  return Status::OK();
}

Status Policy::AddThreshold(ThresholdDirective directive) {
  thresholds_.push_back(std::move(directive));
  return Status::OK();
}

Status Policy::AddAudit(AuditDirective directive) {
  audits_.push_back(std::move(directive));
  return Status::OK();
}

Status Policy::AddTimeSod(TimeSod constraint) {
  time_sods_.push_back(std::move(constraint));
  return Status::OK();
}

Status Policy::AddPurpose(PurposeSpec purpose) {
  purposes_.push_back(std::move(purpose));
  return Status::OK();
}

Status Policy::AddObjectPolicy(ObjectPolicySpec policy) {
  object_policies_.push_back(std::move(policy));
  return Status::OK();
}

bool Policy::RoleInHierarchy(const RoleName& role) const {
  auto it = roles().find(role);
  if (it == roles().end()) return false;
  if (!it->second.juniors.empty()) return true;
  for (const auto& [name, spec] : roles()) {
    if (spec.juniors.count(role) > 0) return true;
  }
  return false;
}

bool Policy::RoleInDsd(const RoleName& role) const {
  for (const auto& [name, set] : dsd_sets_) {
    if (set.roles.count(role) > 0) return true;
  }
  return false;
}

bool Policy::RoleInSsd(const RoleName& role) const {
  for (const auto& [name, set] : ssd_sets_) {
    if (set.roles.count(role) > 0) return true;
  }
  return false;
}

bool Policy::RoleIsTransactionDependent(const RoleName& role) const {
  for (const TransactionActivation& tx : transactions_) {
    if (tx.dependent == role) return true;
  }
  return false;
}

Status Policy::Validate(const Policy* validated_base) const {
  // Builds its message only when the role is missing.
  auto require_role = [this](const RoleName& role,
                             const auto&... where) -> Status {
    if (HasRole(role)) return Status::OK();
    std::string message = "unknown role '" + role + "' in ";
    ((message += where), ...);
    return Status::InvalidArgument(std::move(message));
  };

  // Against a validated base, an entry this policy holds as the base did
  // passes as it did there, unless a role it names is gone. So while every
  // role of the base is still here, only the entries that the journal says
  // may differ are checked (none of a shared section); a section not
  // linked to the base's is checked in full.
  const std::set<RoleName>* role_edits = nullptr;
  const std::set<UserName>* user_edits = nullptr;
  if (validated_base != nullptr) {
    role_edits = decltype(roles_)::Edits(roles_, validated_base->roles_);
    user_edits = decltype(users_)::Edits(users_, validated_base->users_);
    bool role_removed = false;
    if (role_edits != nullptr || user_edits != nullptr) {
      DiffRoles(*validated_base, *this,
                [&role_removed](const RoleName&, const RoleSpec*,
                                const RoleSpec* now) {
                  role_removed |= now == nullptr;
                });
    }
    if (role_removed) {
      role_edits = nullptr;
      user_edits = nullptr;
    }
  }

  SENTINEL_RETURN_IF_ERROR(CheckEntries(
      roles(), role_edits,
      [&](const RoleName& name, const RoleSpec& spec) -> Status {
        for (const RoleName& junior : spec.juniors) {
          SENTINEL_RETURN_IF_ERROR(
              require_role(junior, "hierarchy under role ", name));
        }
        for (const RoleName& prereq : spec.prerequisites) {
          SENTINEL_RETURN_IF_ERROR(
              require_role(prereq, "prerequisites of role ", name));
          if (prereq == name) {
            return Status::InvalidArgument("role " + name +
                                           " cannot be its own prerequisite");
          }
        }
        if (spec.activation_cardinality < 0) {
          return Status::InvalidArgument("negative cardinality on role " +
                                         name);
        }
        if (spec.max_activation < 0) {
          return Status::InvalidArgument("negative max-activation on role " +
                                         name);
        }
        return Status::OK();
      }));
  bool cycle = false;
  if (role_edits == nullptr) {
    cycle = HierarchyHasCycle(roles());
  } else {
    // The base is acyclic, so a new cycle runs through an edge the edit
    // added: look for each such edge's senior below its junior.
    DiffRoles(*validated_base, *this,
              [&](const RoleName& name, const RoleSpec* was,
                  const RoleSpec* now) {
                if (cycle || now == nullptr) return;
                for (const RoleName& junior : now->juniors) {
                  if ((was == nullptr || was->juniors.count(junior) == 0) &&
                      Reaches(roles(), junior, name)) {
                    cycle = true;
                    return;
                  }
                }
              });
  }
  if (cycle) {
    return Status::ConstraintViolation("role hierarchy contains a cycle");
  }

  // The user checks read only the users and the role names.
  SENTINEL_RETURN_IF_ERROR(CheckEntries(
      users(), user_edits,
      [&](const UserName& name, const UserSpec& spec) -> Status {
        for (const RoleName& role : spec.assignments) {
          SENTINEL_RETURN_IF_ERROR(
              require_role(role, "assignments of user ", name));
        }
        for (const auto& [role, duration] : spec.role_durations) {
          SENTINEL_RETURN_IF_ERROR(
              require_role(role, "durations of user ", name));
          if (duration <= 0) {
            return Status::InvalidArgument(
                "non-positive duration for user " + name + " role " + role);
          }
        }
        if (spec.max_active_roles < 0) {
          return Status::InvalidArgument("negative max-active on user " +
                                         name);
        }
        return Status::OK();
      }));

  auto check_sod = [&](const std::map<std::string, SodSet>& sets,
                       const char* kind) -> Status {
    for (const auto& [name, set] : sets) {
      if (set.n < 2) {
        return Status::InvalidArgument(std::string(kind) + " set " + name +
                                       " needs cardinality >= 2");
      }
      if (static_cast<int>(set.roles.size()) < set.n) {
        return Status::InvalidArgument(std::string(kind) + " set " + name +
                                       " smaller than its cardinality");
      }
      for (const RoleName& role : set.roles) {
        SENTINEL_RETURN_IF_ERROR(require_role(role, kind, " set ", name));
      }
    }
    return Status::OK();
  };
  SENTINEL_RETURN_IF_ERROR(check_sod(ssd_sets_, "SSD"));
  SENTINEL_RETURN_IF_ERROR(check_sod(dsd_sets_, "DSD"));

  std::set<RoleName> cfd_triggers;
  for (const CfdPair& pair : cfd_pairs_) {
    SENTINEL_RETURN_IF_ERROR(require_role(pair.trigger, "CFD pair"));
    SENTINEL_RETURN_IF_ERROR(require_role(pair.companion, "CFD pair"));
    if (pair.trigger == pair.companion) {
      return Status::InvalidArgument("CFD pair must name two distinct roles");
    }
    if (!cfd_triggers.insert(pair.trigger).second) {
      return Status::InvalidArgument(
          "role " + pair.trigger + " triggers more than one CFD pair");
    }
  }
  std::set<RoleName> tx_dependents;
  for (const TransactionActivation& tx : transactions_) {
    SENTINEL_RETURN_IF_ERROR(
        require_role(tx.controller, "transaction ", tx.name));
    SENTINEL_RETURN_IF_ERROR(
        require_role(tx.dependent, "transaction ", tx.name));
    if (tx.controller == tx.dependent) {
      return Status::InvalidArgument("transaction " + tx.name +
                                     " controller equals dependent");
    }
    if (!tx_dependents.insert(tx.dependent).second) {
      return Status::InvalidArgument(
          "role " + tx.dependent +
          " is the dependent of more than one transaction");
    }
  }
  for (const ThresholdDirective& directive : thresholds_) {
    if (directive.threshold < 1 || directive.window <= 0) {
      return Status::InvalidArgument("malformed threshold directive " +
                                     directive.name);
    }
    for (const RoleName& role : directive.disable_roles) {
      SENTINEL_RETURN_IF_ERROR(
          require_role(role, "threshold directive ", directive.name));
    }
  }
  for (const AuditDirective& directive : audits_) {
    if (directive.interval <= 0) {
      return Status::InvalidArgument("malformed audit directive " +
                                     directive.name);
    }
  }
  for (const TimeSod& constraint : time_sods_) {
    if (constraint.roles.size() < 2) {
      return Status::InvalidArgument("time-SoD " + constraint.name +
                                     " needs at least two roles");
    }
    for (const RoleName& role : constraint.roles) {
      SENTINEL_RETURN_IF_ERROR(
          require_role(role, "time-SoD ", constraint.name));
    }
  }

  std::set<PurposeName> known_purposes;
  for (const PurposeSpec& purpose : purposes_) {
    if (!purpose.parent.empty() &&
        known_purposes.count(purpose.parent) == 0) {
      return Status::InvalidArgument(
          "purpose " + purpose.name +
          " declared before its parent " + purpose.parent);
    }
    if (!known_purposes.insert(purpose.name).second) {
      return Status::InvalidArgument("duplicate purpose: " + purpose.name);
    }
  }
  for (const ObjectPolicySpec& policy : object_policies_) {
    for (const PurposeName& purpose : policy.purposes) {
      if (known_purposes.count(purpose) == 0) {
        return Status::InvalidArgument("object policy for " + policy.object +
                                       " names unknown purpose " + purpose);
      }
    }
  }
  return Status::OK();
}

std::set<RoleName> Policy::AffectedRoles(const Policy& from,
                                         const Policy& to) {
  std::set<RoleName> affected;
  // Changed, added or removed role specs.
  DiffRoles(from, to,
            [&affected](const RoleName& name, const RoleSpec* was,
                        const RoleSpec* now) {
              if (was == nullptr || now == nullptr || !(*was == *now)) {
                affected.insert(affected.end(), name);
              }
            });
  // Membership in changed constraint sections.
  auto mark_sod_changes = [&](const std::map<std::string, SodSet>& a,
                              const std::map<std::string, SodSet>& b) {
    for (const auto& [name, set] : a) {
      auto it = b.find(name);
      if (it == b.end() || !(it->second == set)) {
        affected.insert(set.roles.begin(), set.roles.end());
        if (it != b.end()) {
          affected.insert(it->second.roles.begin(), it->second.roles.end());
        }
      }
    }
  };
  mark_sod_changes(from.ssd_sets_, to.ssd_sets_);
  mark_sod_changes(to.ssd_sets_, from.ssd_sets_);
  mark_sod_changes(from.dsd_sets_, to.dsd_sets_);
  mark_sod_changes(to.dsd_sets_, from.dsd_sets_);

  auto mark_vector_changes = [&affected](auto const& a, auto const& b,
                                         auto roles_of) {
    for (const auto& item : a) {
      if (std::find(b.begin(), b.end(), item) == b.end()) {
        for (const RoleName& role : roles_of(item)) affected.insert(role);
      }
    }
  };
  auto cfd_roles = [](const CfdPair& pair) {
    return std::vector<RoleName>{pair.trigger, pair.companion};
  };
  mark_vector_changes(from.cfd_pairs_, to.cfd_pairs_, cfd_roles);
  mark_vector_changes(to.cfd_pairs_, from.cfd_pairs_, cfd_roles);
  auto tx_roles = [](const TransactionActivation& tx) {
    return std::vector<RoleName>{tx.controller, tx.dependent};
  };
  mark_vector_changes(from.transactions_, to.transactions_, tx_roles);
  mark_vector_changes(to.transactions_, from.transactions_, tx_roles);
  auto tsod_roles = [](const TimeSod& constraint) {
    return std::vector<RoleName>(constraint.roles.begin(),
                                 constraint.roles.end());
  };
  mark_vector_changes(from.time_sods_, to.time_sods_, tsod_roles);
  mark_vector_changes(to.time_sods_, from.time_sods_, tsod_roles);
  return affected;
}

std::set<UserName> Policy::AffectedUsers(const Policy& from,
                                         const Policy& to) {
  std::set<UserName> affected;
  DiffUsers(from, to,
            [&affected](const UserName& name, const UserSpec* was,
                        const UserSpec* now) {
              if (was == nullptr || now == nullptr || !(*was == *now)) {
                affected.insert(affected.end(), name);
              }
            });
  return affected;
}

bool Policy::DirectivesChanged(const Policy& from, const Policy& to) {
  return !(from.thresholds_ == to.thresholds_ &&
           from.audits_ == to.audits_ &&
           from.purposes_ == to.purposes_ &&
           from.object_policies_ == to.object_policies_);
}

}  // namespace sentinel
