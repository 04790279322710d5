// Quickstart: the paper's Rule 1 and Rule 2, spelled twice.
//
// Part 1 drives the OWTE substrate directly (events + rules, the Sentinel+
// analog): user Bob opens "patient.dat" with vi; a rule checks access and
// either opens the file or raises the paper's error; a PLUS event closes
// the file forcefully after 2 hours.
//
// Part 2 shows the same protection expressed as a high-level policy loaded
// into the AuthorizationEngine, where the rules are *generated*.

#include <cstdio>
#include <string>

#include "common/calendar.h"
#include "common/clock.h"
#include "core/engine.h"
#include "core/policy_parser.h"
#include "event/event_detector.h"
#include "rules/rule_manager.h"

namespace {

using namespace sentinel;  // Example code; the library never does this.

void Part1_HandWrittenOwteRules() {
  std::printf("== Part 1: hand-written OWTE rules on the substrate ==\n");

  SimulatedClock clock(MakeTime(2026, 7, 6, 9, 0, 0));
  EventDetector detector(&clock);
  RuleManager rules(&detector);

  // Whether Bob currently holds the permission, and the "file system".
  bool bob_has_access = true;
  bool file_open = false;

  // EVENT E1 = Bob -> vi(patient.dat)
  const EventId e1 = *detector.DefinePrimitive("Bob->vi(patient.dat)");
  // EVENT E2 = PLUS(E1, 2 hours)
  const EventId e2 = *detector.DefinePlus("PLUS(E1, 2h)", e1, 2 * kHour);

  // RULE R1: ON E1 WHEN checkaccess THEN open ELSE error.
  Rule r1("R1", e1);
  r1.When("checkaccess(Bob, patient.dat) IS TRUE",
          [&](RuleContext&) { return bob_has_access; })
      .Then("allow opening patient.dat",
            [&](RuleContext&) {
              file_open = true;
              std::printf("  [%s] patient.dat opened for Bob\n",
                          FormatTime(clock.Now()).c_str());
            })
      .Else("raise error \"insufficient privileges\"", [&](RuleContext&) {
        std::printf("  [%s] ERROR insufficient privileges\n",
                    FormatTime(clock.Now()).c_str());
      });
  (void)rules.AddRule(std::move(r1));

  // RULE C1: ON PLUS(E1, 2h) WHEN TRUE THEN <Closefile>.
  Rule c1("C1", e2);
  c1.Then("Closefile", [&](RuleContext&) {
    if (file_open) {
      file_open = false;
      std::printf("  [%s] patient.dat closed forcefully (2h elapsed)\n",
                  FormatTime(clock.Now()).c_str());
    }
  });
  (void)rules.AddRule(std::move(c1));

  // Bob opens the file at 09:00...
  // Event parameters are interned names: symbols of the detector's table.
  SymbolTable& names = detector.symbols();
  (void)detector.Raise(e1,
                       {{names.Intern("user"), Value(names.Intern("Bob"))}});
  // ...and keeps working. At 11:00 the PLUS event fires.
  detector.AdvanceTo(clock.Now() + 3 * kHour, &clock);
  std::printf("  file open at end: %s\n\n", file_open ? "yes" : "no");
}

void Part2_GeneratedRulesFromPolicy() {
  std::printf("== Part 2: the same protection from a high-level policy ==\n");

  auto policy = PolicyParser::Parse(R"(
policy "clinic"

# Staff may read patient records, but an activation lasts at most 2h.
role Staff { max-activation: 2h  permission: read(patient.dat) }
user Bob { assign: Staff }
)");
  if (!policy.ok()) {
    std::printf("policy error: %s\n", policy.status().ToString().c_str());
    return;
  }

  SimulatedClock clock(MakeTime(2026, 7, 6, 9, 0, 0));
  AuthorizationEngine engine(&clock);
  if (Status s = engine.LoadPolicy(*policy); !s.ok()) {
    std::printf("load error: %s\n", s.ToString().c_str());
    return;
  }
  std::printf("  generated %zu rules from %zu-role policy\n",
              engine.rule_manager().rule_count(), policy->roles().size());

  (void)engine.CreateSession("Bob", "s1");
  Decision activation = engine.AddActiveRole("Bob", "s1", "Staff");
  std::printf("  activate Staff: %s (rule %s)\n",
              activation.allowed ? "ALLOW" : "DENY",
              activation.rule.c_str());

  Decision read = engine.CheckAccess("s1", "read", "patient.dat");
  std::printf("  read patient.dat: %s\n", read.allowed ? "ALLOW" : "DENY");

  // Three hours later the generated DUR rule has force-deactivated Staff.
  engine.AdvanceBy(3 * kHour);
  Decision later = engine.CheckAccess("s1", "read", "patient.dat");
  std::printf("  read after 3h: %s (%s)\n",
              later.allowed ? "ALLOW" : "DENY", later.reason.c_str());
}

}  // namespace

int main() {
  Part1_HandWrittenOwteRules();
  Part2_GeneratedRulesFromPolicy();
  return 0;
}
