#include "rbac/database.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gtrbac/role_state.h"

namespace sentinel {
namespace {

class RbacDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddUser("bob").ok());
    ASSERT_TRUE(db_.AddRole("R1").ok());
  }
  RbacDatabase db_;
};

TEST_F(RbacDatabaseTest, ElementSets) {
  EXPECT_TRUE(db_.HasUser("bob"));
  EXPECT_FALSE(db_.HasUser("alice"));
  EXPECT_TRUE(db_.AddUser("bob").IsAlreadyExists());
  EXPECT_TRUE(db_.AddUser("").IsInvalidArgument());
  EXPECT_TRUE(db_.DeleteUser("ghost").IsNotFound());
  EXPECT_TRUE(db_.AddRole("R1").IsAlreadyExists());
}

TEST_F(RbacDatabaseTest, AssignmentRelation) {
  ASSERT_TRUE(db_.Assign("bob", "R1").ok());
  EXPECT_TRUE(db_.IsAssigned("bob", "R1"));
  EXPECT_EQ(db_.AssignedRoles("bob").count("R1"), 1u);
  EXPECT_EQ(db_.AssignedUsers("R1").count("bob"), 1u);
  EXPECT_TRUE(db_.Assign("bob", "R1").IsAlreadyExists());
  EXPECT_TRUE(db_.Assign("ghost", "R1").IsNotFound());
  EXPECT_TRUE(db_.Assign("bob", "ghost").IsNotFound());
  ASSERT_TRUE(db_.Deassign("bob", "R1").ok());
  EXPECT_FALSE(db_.IsAssigned("bob", "R1"));
  EXPECT_TRUE(db_.Deassign("bob", "R1").IsNotFound());
}

TEST_F(RbacDatabaseTest, PermissionRelationImplicitlyRegistersOpsObjects) {
  const Permission read{"read", "ledger"};
  ASSERT_TRUE(db_.Grant(read, "R1").ok());
  EXPECT_TRUE(db_.IsGranted(read, "R1"));
  EXPECT_TRUE(db_.HasOperation("read"));
  EXPECT_TRUE(db_.HasObject("ledger"));
  EXPECT_TRUE(db_.Grant(read, "R1").IsAlreadyExists());
  EXPECT_EQ(db_.RolePermissions("R1").size(), 1u);
  ASSERT_TRUE(db_.Revoke(read, "R1").ok());
  EXPECT_FALSE(db_.IsGranted(read, "R1"));
  EXPECT_TRUE(db_.Revoke(read, "R1").IsNotFound());
}

TEST_F(RbacDatabaseTest, SessionsLifecycle) {
  ASSERT_TRUE(db_.CreateSession("bob", "s1").ok());
  EXPECT_TRUE(db_.HasSession("s1"));
  EXPECT_TRUE(db_.CreateSession("bob", "s1").IsAlreadyExists());
  EXPECT_TRUE(db_.CreateSession("ghost", "s2").IsNotFound());
  auto info = db_.GetSession("s1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->user, "bob");
  EXPECT_EQ(db_.UserSessions("bob").count("s1"), 1u);
  ASSERT_TRUE(db_.DeleteSession("s1").ok());
  EXPECT_FALSE(db_.HasSession("s1"));
  EXPECT_TRUE(db_.DeleteSession("s1").IsNotFound());
}

TEST_F(RbacDatabaseTest, SessionRolesAndActiveCounts) {
  ASSERT_TRUE(db_.CreateSession("bob", "s1").ok());
  ASSERT_TRUE(db_.AddSessionRole("s1", "R1").ok());
  EXPECT_TRUE(db_.IsSessionRoleActive("s1", "R1"));
  EXPECT_EQ(db_.ActiveSessionCount("R1"), 1);
  EXPECT_TRUE(db_.AddSessionRole("s1", "R1").IsAlreadyExists());
  EXPECT_TRUE(db_.AddSessionRole("s1", "ghost").IsNotFound());
  EXPECT_TRUE(db_.AddSessionRole("ghost", "R1").IsNotFound());
  ASSERT_TRUE(db_.DropSessionRole("s1", "R1").ok());
  EXPECT_EQ(db_.ActiveSessionCount("R1"), 0);
  EXPECT_TRUE(db_.DropSessionRole("s1", "R1").IsNotFound());
}

TEST_F(RbacDatabaseTest, ActiveCountPerSessionNotPerRoleInstance) {
  ASSERT_TRUE(db_.AddUser("alice").ok());
  ASSERT_TRUE(db_.CreateSession("bob", "s1").ok());
  ASSERT_TRUE(db_.CreateSession("alice", "s2").ok());
  ASSERT_TRUE(db_.AddSessionRole("s1", "R1").ok());
  ASSERT_TRUE(db_.AddSessionRole("s2", "R1").ok());
  EXPECT_EQ(db_.ActiveSessionCount("R1"), 2);
}

TEST_F(RbacDatabaseTest, DeleteUserCascadesToSessionsAndAssignments) {
  ASSERT_TRUE(db_.Assign("bob", "R1").ok());
  ASSERT_TRUE(db_.CreateSession("bob", "s1").ok());
  ASSERT_TRUE(db_.AddSessionRole("s1", "R1").ok());
  ASSERT_TRUE(db_.DeleteUser("bob").ok());
  EXPECT_FALSE(db_.HasSession("s1"));
  EXPECT_EQ(db_.AssignedUsers("R1").size(), 0u);
  EXPECT_EQ(db_.ActiveSessionCount("R1"), 0);
}

TEST_F(RbacDatabaseTest, DeleteRoleCascades) {
  ASSERT_TRUE(db_.Assign("bob", "R1").ok());
  ASSERT_TRUE(db_.CreateSession("bob", "s1").ok());
  ASSERT_TRUE(db_.AddSessionRole("s1", "R1").ok());
  ASSERT_TRUE(db_.Grant(Permission{"read", "x"}, "R1").ok());
  ASSERT_TRUE(db_.DeleteRole("R1").ok());
  EXPECT_FALSE(db_.IsAssigned("bob", "R1"));
  EXPECT_FALSE(db_.IsSessionRoleActive("s1", "R1"));
  EXPECT_EQ(db_.ActiveSessionCount("R1"), 0);
  EXPECT_EQ(db_.RolePermissions("R1").size(), 0u);
  // The session itself survives role deletion.
  EXPECT_TRUE(db_.HasSession("s1"));
}

TEST_F(RbacDatabaseTest, SessionIdsSorted) {
  ASSERT_TRUE(db_.CreateSession("bob", "s2").ok());
  ASSERT_TRUE(db_.CreateSession("bob", "s1").ok());
  const auto ids = db_.SessionIds();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "s1");
  EXPECT_EQ(ids[1], "s2");

  // Every name-returning read is in name order, also for names interned
  // against it ("al" after "bob", "R0" after "R1").
  ASSERT_TRUE(db_.AddUser("al").ok());
  ASSERT_TRUE(db_.AddRole("R0").ok());
  ASSERT_TRUE(db_.Assign("bob", "R1").ok());
  ASSERT_TRUE(db_.Assign("bob", "R0").ok());
  ASSERT_TRUE(db_.Assign("al", "R1").ok());
  ASSERT_TRUE(db_.AddSessionRole("s2", "R1").ok());
  ASSERT_TRUE(db_.AddSessionRole("s2", "R0").ok());
  const auto in_order = [](const auto& names) {
    return std::vector<std::string>(names.begin(), names.end());
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(in_order(db_.users()), (Names{"al", "bob"}));
  EXPECT_EQ(in_order(db_.AssignedRoles("bob")), (Names{"R0", "R1"}));
  EXPECT_EQ(in_order(db_.AssignedUsers("R1")), (Names{"al", "bob"}));
  EXPECT_EQ(in_order(db_.UserSessions("bob")), (Names{"s1", "s2"}));
  auto info = db_.GetSession("s2");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(in_order(info->active_roles), (Names{"R0", "R1"}));
}

TEST_F(RbacDatabaseTest, ReadsOfUnknownNamesNeverIntern) {
  ASSERT_TRUE(db_.CreateSession("bob", "s1").ok());
  RoleStateTable state(&db_.symbols());
  const size_t before = db_.symbols().size();
  EXPECT_FALSE(db_.HasUser("ghost-user"));
  EXPECT_FALSE(db_.HasRole("ghost-role"));
  EXPECT_FALSE(db_.IsAssigned("ghost-user", "ghost-role"));
  EXPECT_FALSE(db_.IsSessionRoleActive("ghost-session", "ghost-role"));
  EXPECT_TRUE(db_.AssignedRoles("ghost-user").empty());
  EXPECT_TRUE(state.IsEnabled("ghost-role"));
  // Errors still name what was asked for.
  EXPECT_EQ(db_.GetSession("ghost-session").status().message(),
            "no such session: ghost-session");
  EXPECT_EQ(db_.Assign("ghost-user", "R1").message(),
            "no such user: ghost-user");
  EXPECT_EQ(db_.DropSessionRole("s1", "ghost-role").message(),
            "ghost-role not active in s1");
  EXPECT_EQ(db_.symbols().size(), before);
}

}  // namespace
}  // namespace sentinel
