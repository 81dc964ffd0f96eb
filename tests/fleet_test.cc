#include <gtest/gtest.h>

#include "src/apps/app.h"
#include "src/coop/fleet.h"
#include "src/support/str.h"

namespace gist {
namespace {

FleetOptions SmallFleet(uint64_t seed) {
  FleetOptions options;
  options.runs_per_iteration = 200;
  options.max_iterations = 6;
  options.fleet_seed = seed;
  return options;
}

TEST(FleetTest, DeterministicForSameSeed) {
  auto app1 = MakeAppByName("memcached");
  auto app2 = MakeAppByName("memcached");
  auto check = [](const FailureSketch& sketch) { return sketch.InstrSet().size() >= 6; };

  Fleet fleet1(app1->module(),
               [&](uint64_t ri, Rng& rng) { return app1->MakeWorkload(ri, rng); },
               SmallFleet(5));
  Fleet fleet2(app2->module(),
               [&](uint64_t ri, Rng& rng) { return app2->MakeWorkload(ri, rng); },
               SmallFleet(5));
  FleetResult r1 = fleet1.Run(check);
  FleetResult r2 = fleet2.Run(check);
  EXPECT_EQ(r1.first_failure_found, r2.first_failure_found);
  EXPECT_EQ(r1.failure_recurrences, r2.failure_recurrences);
  EXPECT_EQ(r1.sigma_final, r2.sigma_final);
  EXPECT_EQ(r1.sketch.InstrSet(), r2.sketch.InstrSet());
  EXPECT_DOUBLE_EQ(r1.sim_seconds, r2.sim_seconds);
}

TEST(FleetTest, ReportsWhenNoFailureInBudget) {
  // A workload generator that never triggers the bug: curl with balanced
  // braces only.
  auto app = MakeAppByName("curl");
  FleetOptions options = SmallFleet(1);
  options.max_first_failure_runs = 50;
  Fleet fleet(
      app->module(),
      [&](uint64_t ri, Rng& rng) {
        Workload w = app->MakeWorkload(ri, rng);
        w.inputs[0] = 0;  // always balanced: never crashes
        return w;
      },
      options);
  FleetResult result = fleet.Run([](const FailureSketch&) { return true; });
  EXPECT_FALSE(result.first_failure_found);
  EXPECT_FALSE(result.root_cause_found);
  EXPECT_EQ(result.failure_recurrences, 0u);
}

TEST(FleetTest, IterationStatsAreConsistent) {
  auto app = MakeAppByName("sqlite");
  Fleet fleet(app->module(),
              [&](uint64_t ri, Rng& rng) { return app->MakeWorkload(ri, rng); },
              SmallFleet(3));
  const std::vector<InstrId>& root_cause = app->root_cause_instrs();
  FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : root_cause) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });
  ASSERT_TRUE(result.root_cause_found);
  ASSERT_FALSE(result.iterations.empty());
  // Sigma doubles between consecutive window-growing iterations.
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_GE(result.iterations[i].sigma, result.iterations[i - 1].sigma);
  }
  // Only the last iteration found the root cause.
  for (size_t i = 0; i + 1 < result.iterations.size(); ++i) {
    EXPECT_FALSE(result.iterations[i].root_cause_found);
  }
  EXPECT_TRUE(result.iterations.back().root_cause_found);
  // Simulated latency accrues with runs.
  EXPECT_GT(result.sim_seconds, 0.0);
  EXPECT_GT(result.avg_overhead_percent, 0.0);
}

TEST(FleetTest, CooperativeWatchRotationCoversAllAccessesAcrossClients) {
  // Build a program whose slice contains more than 4 watchable accesses so
  // the rotation kicks in (paper §3.2.3). Five globals, all feeding the
  // failing assert.
  Module module;
  IrBuilder b(module);
  std::vector<GlobalId> globals;
  for (int i = 0; i < 6; ++i) {
    globals.push_back(module.CreateGlobal(StrFormat("g%d", i), 1, 1));
  }
  b.StartFunction("main", 0);
  Reg sum = b.Const(0);
  for (GlobalId g : globals) {
    const Reg addr = b.AddrOfGlobal(g);
    const Reg value = b.Load(addr);
    sum = b.Add(sum, value);
  }
  const Reg limit = b.Const(3);
  const Reg ok = b.Lt(sum, limit);
  b.Assert(ok, "sum too large");  // always fails (sum == 6)
  b.Ret();

  Fleet fleet(
      module,
      [](uint64_t, Rng& rng) {
        Workload w;
        w.schedule_seed = rng.NextU64();
        return w;
      },
      SmallFleet(2));

  // Run the loop; every monitored run fails, so the early exit triggers per
  // iteration quickly. The check requires all six loads in the sketch, which
  // needs the rotation to have covered all six addresses eventually.
  std::vector<InstrId> loads;
  for (BlockId bb = 0; bb < module.function(0).num_blocks(); ++bb) {
    for (const Instruction& instr : module.function(0).block(bb).instructions()) {
      if (instr.op == Opcode::kLoad) {
        loads.push_back(instr.id);
      }
    }
  }
  ASSERT_EQ(loads.size(), 6u);

  FleetResult result = fleet.Run([&](const FailureSketch& sketch) {
    for (InstrId id : loads) {
      if (!sketch.Contains(id)) {
        return false;
      }
    }
    return true;
  });
  EXPECT_TRUE(result.root_cause_found)
      << "rotating 4 watchpoints across clients must cover all 6 accesses";
}

}  // namespace
}  // namespace gist
