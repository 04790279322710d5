#include "rules/rule_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "tests/test_util.h"

namespace sentinel {
namespace {

class RuleManagerTest : public ::testing::Test {
 protected:
  RuleManagerTest()
      : clock_(testutil::Noon()), detector_(&clock_), manager_(&detector_) {
    event_ = *detector_.DefinePrimitive("e");
  }

  Symbol Sym(const std::string& name) {
    return detector_.symbols().Intern(name);
  }

  SimulatedClock clock_;
  EventDetector detector_;
  RuleManager manager_;
  EventId event_ = kInvalidEventId;
};

TEST_F(RuleManagerTest, ThenRunsWhenConditionsHold) {
  int then_count = 0, else_count = 0;
  Rule rule("r1", event_);
  rule.When("always", [](RuleContext&) { return true; })
      .Then("count", [&](RuleContext&) { ++then_count; })
      .Else("alt", [&](RuleContext&) { ++else_count; });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(then_count, 1);
  EXPECT_EQ(else_count, 0);
}

TEST_F(RuleManagerTest, ElseRunsWhenAnyConditionFails) {
  int then_count = 0, else_count = 0;
  Rule rule("r1", event_);
  rule.When("yes", [](RuleContext&) { return true; })
      .When("no", [](RuleContext&) { return false; })
      .Then("count", [&](RuleContext&) { ++then_count; })
      .Else("alt", [&](RuleContext&) { ++else_count; });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(then_count, 0);
  EXPECT_EQ(else_count, 1);
}

TEST_F(RuleManagerTest, ConditionsShortCircuitLeftToRight) {
  std::vector<int> evaluated;
  Rule rule("r1", event_);
  rule.When("c1",
            [&](RuleContext&) {
              evaluated.push_back(1);
              return false;
            })
      .When("c2", [&](RuleContext&) {
        evaluated.push_back(2);
        return true;
      });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(evaluated, (std::vector<int>{1}));
}

TEST_F(RuleManagerTest, EmptyWhenMeansTrue) {
  int then_count = 0;
  Rule rule("r1", event_);
  rule.Then("count", [&](RuleContext&) { ++then_count; });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(then_count, 1);
}

TEST_F(RuleManagerTest, PriorityOrdersFiring) {
  std::vector<std::string> order;
  auto make = [&](const std::string& name, int priority) {
    Rule rule(name, event_, Rule::Options{priority, true,
                                          RuleClass::kActivityControl,
                                          RuleGranularity::kLocalized});
    rule.Then("mark", [&order, name](RuleContext&) { order.push_back(name); });
    ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  };
  make("low", 0);
  make("high", 10);
  make("mid", 5);
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"high", "mid", "low"}));
}

TEST_F(RuleManagerTest, EqualPriorityFiresInInsertionOrder) {
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c"}) {
    Rule rule(name, event_);
    rule.Then("mark", [&order, name](RuleContext&) { order.push_back(name); });
    ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  }
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(RuleManagerTest, DuplicateNameRejected) {
  ASSERT_TRUE(manager_.AddRule(Rule("r1", event_)).ok());
  EXPECT_TRUE(manager_.AddRule(Rule("r1", event_)).status().IsAlreadyExists());
}

TEST_F(RuleManagerTest, UnknownEventRejected) {
  EXPECT_FALSE(manager_.AddRule(Rule("r1", 999)).ok());
}

TEST_F(RuleManagerTest, DisabledRuleDoesNotFire) {
  int count = 0;
  Rule rule("r1", event_);
  rule.Then("count", [&](RuleContext&) { ++count; });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(manager_.SetEnabled("r1", false).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(count, 0);
  ASSERT_TRUE(manager_.SetEnabled("r1", true).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(count, 1);
}

TEST_F(RuleManagerTest, RemoveRuleStopsFiring) {
  int count = 0;
  Rule rule("r1", event_);
  rule.Then("count", [&](RuleContext&) { ++count; });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(manager_.RemoveRule("r1").ok());
  EXPECT_TRUE(manager_.RemoveRule("r1").IsNotFound());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(count, 0);
  EXPECT_EQ(manager_.rule_count(), 0u);
}

TEST_F(RuleManagerTest, RemoveIfByPredicate) {
  for (const char* name : {"AAR.PC", "AAR.AM", "CC.PC"}) {
    ASSERT_TRUE(manager_.AddRule(Rule(name, event_)).ok());
  }
  const int removed = manager_.RemoveIf([](const Rule& rule) {
    return rule.name().rfind("AAR.", 0) == 0;
  });
  EXPECT_EQ(removed, 2);
  EXPECT_EQ(manager_.rule_count(), 1u);
  EXPECT_TRUE(manager_.Find("CC.PC").ok());
}

TEST_F(RuleManagerTest, DisableIfCountsOnlyEnabled) {
  ASSERT_TRUE(manager_.AddRule(Rule("a", event_)).ok());
  ASSERT_TRUE(manager_.AddRule(Rule("b", event_)).ok());
  ASSERT_TRUE(manager_.SetEnabled("b", false).ok());
  const int disabled = manager_.DisableIf([](const Rule&) { return true; });
  EXPECT_EQ(disabled, 1);
}

TEST_F(RuleManagerTest, DecisionPlumbedToContext) {
  Decision decision;
  Rule rule("r1", event_);
  rule.When("fail", [](RuleContext&) { return false; })
      .Else("deny", [](RuleContext& c) {
        ASSERT_NE(c.decision, nullptr);
        c.decision->Deny("r1", "Access Denied Cannot Activate");
      });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  {
    ScopedDecision scope(&manager_, &decision);
    ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  }
  EXPECT_TRUE(decision.decided);
  EXPECT_FALSE(decision.allowed);
  EXPECT_EQ(decision.rule, "r1");
  EXPECT_EQ(decision.reason, "Access Denied Cannot Activate");
}

TEST_F(RuleManagerTest, NullDecisionWhenNoneInstalled) {
  bool saw_null = false;
  Rule rule("r1", event_);
  rule.Then("check", [&](RuleContext& c) { saw_null = (c.decision == nullptr); });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_TRUE(saw_null);
}

TEST_F(RuleManagerTest, CascadedRulesViaRaisedEvents) {
  const EventId second = *detector_.DefinePrimitive("second");
  std::vector<std::string> order;
  Rule first("first", event_);
  first.Then("raise second", [&](RuleContext& c) {
    order.push_back("first");
    (void)c.detector->Raise(second, {});
  });
  ASSERT_TRUE(manager_.AddRule(std::move(first)).ok());
  Rule chained("chained", second);
  chained.Then("mark", [&](RuleContext&) { order.push_back("chained"); });
  ASSERT_TRUE(manager_.AddRule(std::move(chained)).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"first", "chained"}));
}

TEST_F(RuleManagerTest, CascadeBudgetStopsRunawayLoops) {
  CapturingLogSink sink;
  manager_.set_cascade_limit(16);
  manager_.ResetCascadeBudget();
  // A self-triggering rule: fires on e and raises e again.
  Rule rule("loop", event_);
  rule.Then("re-raise",
            [&](RuleContext& c) { (void)c.detector->Raise(event_, {}); });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(detector_.Raise(event_, {}).ok());
  EXPECT_EQ(manager_.total_fired(), 16u);
  EXPECT_GE(manager_.dropped_firings(), 1u);
  EXPECT_TRUE(sink.Contains("cascade budget exhausted"));
}

TEST_F(RuleManagerTest, StatsCountFirings) {
  Rule rule("r1", event_);
  const Symbol heads = Sym("heads");
  rule.When("coin", [heads](RuleContext& c) { return c.ParamBool(heads); });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(detector_.Raise(event_, {{heads, Value(true)}}).ok());
  ASSERT_TRUE(detector_.Raise(event_, {{heads, Value(false)}}).ok());
  const Rule* rule_ptr = *manager_.Find("r1");
  EXPECT_EQ(rule_ptr->fired_count(), 2u);
  EXPECT_EQ(rule_ptr->condition_true_count(), 1u);
  EXPECT_EQ(manager_.total_fired(), 2u);
}

TEST_F(RuleManagerTest, DescribeRendersOwteListing) {
  Rule rule("AAR.R1", event_,
            Rule::Options{0, true, RuleClass::kActivityControl,
                          RuleGranularity::kLocalized});
  rule.When("user IN userL", [](RuleContext&) { return true; })
      .Then("addSessionRoleR1(sessionId)", [](RuleContext&) {})
      .Else("raise error \"Access Denied Cannot Activate\"",
            [](RuleContext&) {});
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  const std::string pool = manager_.DescribePool();
  EXPECT_NE(pool.find("RULE [ AAR.R1"), std::string::npos);
  EXPECT_NE(pool.find("ON    e"), std::string::npos);
  EXPECT_NE(pool.find("WHEN  user IN userL"), std::string::npos);
  EXPECT_NE(pool.find("THEN  <addSessionRoleR1(sessionId)>"),
            std::string::npos);
  EXPECT_NE(pool.find("ELSE"), std::string::npos);
}

TEST_F(RuleManagerTest, CountByClass) {
  ASSERT_TRUE(manager_
                  .AddRule(Rule("adm", event_,
                                Rule::Options{0, true,
                                              RuleClass::kAdministrative,
                                              RuleGranularity::kGlobalized}))
                  .ok());
  ASSERT_TRUE(manager_.AddRule(Rule("act", event_)).ok());
  EXPECT_EQ(manager_.CountByClass(RuleClass::kAdministrative), 1);
  EXPECT_EQ(manager_.CountByClass(RuleClass::kActivityControl), 1);
  EXPECT_EQ(manager_.CountByClass(RuleClass::kActiveSecurity), 0);
}

TEST_F(RuleManagerTest, RuleParamAccessors) {
  std::string user;
  int64_t count = 0;
  bool flag = false, has = false;
  Rule rule("r1", event_);
  rule.Then("read", [&](RuleContext& c) {
    user = c.ParamString(Sym("user"));
    count = c.ParamInt(Sym("count"));
    flag = c.ParamBool(Sym("flag"));
    has = c.HasParam(Sym("user")) && !c.HasParam(Sym("absent"));
  });
  ASSERT_TRUE(manager_.AddRule(std::move(rule)).ok());
  ASSERT_TRUE(detector_
                  .Raise(event_, {{Sym("user"), Value(Sym("bob"))},
                                  {Sym("count"), Value(int64_t{5})},
                                  {Sym("flag"), Value(true)}})
                  .ok());
  EXPECT_EQ(user, "bob");
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(flag);
  EXPECT_TRUE(has);
}

}  // namespace
}  // namespace sentinel
