// Determinism contract of corpus-scale scoring (DESIGN.md §13):
//   1. a sweep's gist.corpusscore.v1 report is byte-identical for any --jobs
//      and any execution tier — per-program fleets are bit-deterministic, so
//      the aggregate must be too;
//   2. fault injection keeps that invariance: for every bug family, a
//      fleet_chaos-style faulted sweep produces byte-identical reports across
//      worker counts, and the diagnosis verdicts survive the attrition;
//   3. the baseline gate is strict — a missing metric or a regressed rate is
//      a violation, matching metrics are not.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/score.h"

namespace gist {
namespace {

std::vector<GeneratedProgram> SmallCorpus() {
  CorpusOptions options;
  options.seed = 2015;
  options.count = static_cast<uint32_t>(kNumBugFamilies);
  return GenerateCorpus(options);
}

CorpusScoreOptions FastOptions(uint32_t jobs) {
  CorpusScoreOptions options;
  options.jobs = jobs;
  options.runs_per_iteration = 200;
  options.max_iterations = 8;
  return options;
}

TEST(CorpusScoreTest, ReportIsByteIdenticalAcrossJobs) {
  const std::vector<GeneratedProgram> programs = SmallCorpus();
  const std::string one = ScoreCorpus(programs, FastOptions(1)).ReportJson();
  const std::string two = ScoreCorpus(programs, FastOptions(2)).ReportJson();
  const std::string eight = ScoreCorpus(programs, FastOptions(8)).ReportJson();
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(CorpusScoreTest, ReportIsByteIdenticalAcrossTiers) {
  const std::vector<GeneratedProgram> programs = SmallCorpus();
  CorpusScoreOptions fast = FastOptions(4);
  CorpusScoreOptions reference = fast;
  reference.tier = ExecTier::kReference;
  const std::string a = ScoreCorpus(programs, fast).ReportJson();
  const std::string b = ScoreCorpus(programs, reference).ReportJson();
  EXPECT_EQ(a, b);
}

// Satellite guarantee: one program per family through fault injection, with
// verdicts bit-identical across worker counts. Attrition may cost extra
// recurrences but never the diagnosis.
TEST(CorpusScoreTest, ChaosVerdictsAreBitIdenticalAcrossJobsPerFamily) {
  const std::vector<GeneratedProgram> programs = SmallCorpus();
  ASSERT_EQ(programs.size(), kNumBugFamilies);
  for (size_t i = 0; i < programs.size(); ++i) {
    const std::vector<GeneratedProgram> family_corpus =
        [&] {
          CorpusOptions options;
          options.seed = 2015;
          options.count = static_cast<uint32_t>(kNumBugFamilies);
          std::vector<GeneratedProgram> all = GenerateCorpus(options);
          std::vector<GeneratedProgram> one;
          one.push_back(std::move(all[i]));
          return one;
        }();
    CorpusScoreOptions chaos = FastOptions(1);
    chaos.faults = CorpusChaosFaults();
    const std::string one_job = ScoreCorpus(family_corpus, chaos).ReportJson();
    chaos.jobs = 2;
    const std::string two_jobs = ScoreCorpus(family_corpus, chaos).ReportJson();
    chaos.jobs = 8;
    const std::string eight_jobs = ScoreCorpus(family_corpus, chaos).ReportJson();
    const char* family = BugFamilyName(family_corpus[0].manifest.family);
    EXPECT_EQ(one_job, two_jobs) << family;
    EXPECT_EQ(one_job, eight_jobs) << family;

    // The faulted fleet must still reach the planted diagnosis.
    const CorpusScore rescored = ScoreCorpus(family_corpus, chaos);
    ASSERT_EQ(rescored.programs.size(), 1u);
    EXPECT_TRUE(rescored.programs[0].manifested) << family;
    EXPECT_TRUE(rescored.programs[0].failure_match) << family;
    EXPECT_TRUE(rescored.programs[0].root_cause_found) << family;
  }
}

TEST(CorpusScoreTest, BaselineGateIsStrict) {
  const std::vector<GeneratedProgram> programs = SmallCorpus();
  const CorpusScore score = ScoreCorpus(programs, FastOptions(8));

  // A score checked against its own metrics passes.
  EXPECT_TRUE(CheckAgainstBaseline(score, score.BaselineMetrics()).ok);

  // A missing metric is a violation (the gate never silently skips keys).
  std::map<std::string, double> missing = score.BaselineMetrics();
  missing.erase("corpus_root_cause_rate");
  EXPECT_FALSE(CheckAgainstBaseline(score, missing).ok);

  // A baseline floor above the scored value is a regression.
  std::map<std::string, double> raised = score.BaselineMetrics();
  raised["corpus_mean_overall"] += 1.0;
  EXPECT_FALSE(CheckAgainstBaseline(score, raised).ok);

  // The bad-tail bucket may only shrink: a baseline BELOW the scored
  // low-bucket rate is a violation, a baseline above it is not.
  std::map<std::string, double> tail = score.BaselineMetrics();
  tail["corpus_bucket_low_rate"] += 0.25;
  EXPECT_TRUE(CheckAgainstBaseline(score, tail).ok);

  // An empty baseline (missing BENCH_corpus.json) fails every metric.
  const BaselineCheck empty = CheckAgainstBaseline(score, {});
  EXPECT_FALSE(empty.ok);
  EXPECT_EQ(empty.violations.size(), score.BaselineMetrics().size());
}

TEST(CorpusScoreTest, FlatJsonRoundTrips) {
  const std::string path = testing::TempDir() + "/gist_corpus_flat.json";
  const std::map<std::string, double> values = {
      {"corpus_programs", 49.0}, {"corpus_mean_overall", 88.2041}, {"zero", 0.0}};
  ASSERT_TRUE(WriteFlatJson(path, values));
  const std::map<std::string, double> back = ReadFlatJson(path);
  ASSERT_EQ(back.size(), values.size());
  EXPECT_EQ(back.at("corpus_programs"), 49.0);
  EXPECT_NEAR(back.at("corpus_mean_overall"), 88.2041, 1e-4);
  EXPECT_EQ(back.at("zero"), 0.0);
  EXPECT_TRUE(ReadFlatJson(path + ".does_not_exist").empty());
}

}  // namespace
}  // namespace gist
