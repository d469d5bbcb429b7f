// The corpus execution bridge: generated scenarios run clean through the
// harness, replay is thread-count invariant, the FuzzSpec lowering keeps
// the structure, and a fault campaign can draw its workloads from a
// corpus directory end to end.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/families.hpp"
#include "corpus/index.hpp"
#include "harness/campaign.hpp"
#include "harness/corpus_bridge.hpp"
#include "harness/runner.hpp"
#include "sysc/fsio.hpp"
#include "scratch_dir.hpp"

using namespace rtk;
using namespace rtk::corpus;
using namespace rtk::harness;

namespace {

std::vector<ScenarioFile> small_batch() {
    std::vector<ScenarioFile> files;
    std::uint64_t seed = 4242;
    for (const std::string& family : family_names()) {
        ScenarioFile f;
        EXPECT_TRUE(generate_family(family, {3, seed++}, f));
        files.push_back(std::move(f));
    }
    return files;
}

}  // namespace

TEST(Bridge, GeneratedScenariosRunAndPassTheirChecks) {
    for (const ScenarioFile& f : small_batch()) {
        const CorpusRunReport report = run_corpus_scenario(f);
        EXPECT_TRUE(report.result.passed) << f.name << ": "
                                          << report.result.error;
        EXPECT_FALSE(report.result.hung) << f.name;
        EXPECT_NE(report.result.fingerprint, 0u) << f.name;
        EXPECT_TRUE(report.checks_passed) << f.name;
        EXPECT_EQ(report.checks.size(), f.checks.size()) << f.name;
        EXPECT_TRUE(report.passed()) << f.name;
    }
}

TEST(Bridge, ReplayIsThreadCountInvariant) {
    const std::vector<ScenarioFile> files = small_batch();
    std::vector<ScenarioSpec> specs;
    for (const ScenarioFile& f : files) {
        ScenarioSpec spec = scenario_from_corpus(f);
        spec.trace.enabled = true;
        specs.push_back(std::move(spec));
    }

    const BatchReport serial = ScenarioRunner({1}).run(specs);
    const BatchReport parallel = ScenarioRunner({4}).run(specs);
    ASSERT_EQ(serial.results.size(), files.size());
    ASSERT_EQ(parallel.results.size(), files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        EXPECT_TRUE(serial.results[i].passed) << files[i].name;
        EXPECT_EQ(serial.results[i].fingerprint, parallel.results[i].fingerprint)
            << files[i].name;
    }
}

TEST(Bridge, FuzzSpecLoweringKeepsTheStructure) {
    for (const ScenarioFile& f : small_batch()) {
        const fuzz::FuzzSpec spec = corpus_to_fuzz_spec(f);
        EXPECT_EQ(spec.seed, f.seed) << f.name;
        EXPECT_EQ(spec.tasks.size(), f.system.tasks.size()) << f.name;
        EXPECT_EQ(spec.sems.size(), f.system.semaphores.size()) << f.name;
        EXPECT_EQ(spec.flgs.size(), f.system.eventflags.size()) << f.name;
        EXPECT_EQ(spec.mtxs.size(), f.system.mutexes.size()) << f.name;
        EXPECT_EQ(spec.mbxs.size(), f.system.mailboxes.size()) << f.name;
        EXPECT_EQ(spec.cycs.size(), f.system.cyclics.size()) << f.name;
        EXPECT_EQ(spec.alms.size(), f.system.alarms.size()) << f.name;
        EXPECT_EQ(spec.ints.size(), f.system.interrupts.size()) << f.name;
        // Bound tasks keep their program; a lowered spec must be runnable.
        std::size_t bound = 0;
        for (const auto& t : spec.tasks) {
            bound += t.ops.empty() ? 0 : 1;
        }
        EXPECT_EQ(bound, f.task_bindings.size()) << f.name;
    }
}

TEST(Bridge, FaultCampaignDrawsWorkloadsFromACorpusDirectory) {
    namespace fs = std::filesystem;
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    fs::create_directories(dir + "/pipeline");

    // A two-entry corpus with a pinned index, like rtk-corpus gen writes.
    CorpusIndex index;
    std::uint64_t seed = 9090;
    for (int i = 0; i < 2; ++i) {
        ScenarioFile f;
        ASSERT_TRUE(generate_family("pipeline", {2 + i, seed + i}, f));
        const std::string rel =
            "pipeline/pipeline_000" + std::to_string(i) + ".json";
        const std::string bytes = f.dump();
        ASSERT_TRUE(sysc::write_file_atomic(dir + "/" + rel, bytes));
        const CorpusRunReport report = run_corpus_scenario(f);
        ASSERT_TRUE(report.passed()) << report.result.error;
        index.entries.push_back({rel, f.family, fnv1a64(bytes),
                                 report.result.fingerprint, true});
    }
    index.sort();
    std::string error;
    ASSERT_TRUE(index.save(dir, &error)) << error;

    campaign::Manifest m;
    m.name = "bridge_corpus_fault";
    m.kind = campaign::Kind::fault;
    m.base_seed = 7;
    m.corpus = 2;
    m.injections_per_workload = 2;
    m.corpus_dir = dir;

    campaign::BaselineCache cache;
    const std::vector<campaign::Job> jobs = campaign::make_jobs(m);
    ASSERT_EQ(jobs.size(), 4u);
    for (const campaign::Job& job : jobs) {
        const api::Json rec = campaign::run_job(m, job, cache);
        EXPECT_EQ(rec.at("id").as_u64(0), job.id);
        // A valid corpus must never produce skipped-baseline records.
        EXPECT_FALSE(rec.at("skipped").as_bool(false)) << rec.dump(-1);
    }

    // A bad corpus directory degrades to deterministic skips, not a crash.
    campaign::Manifest broken = m;
    broken.corpus_dir = dir + "/nope";
    campaign::BaselineCache cold;
    const api::Json rec = campaign::run_job(broken, jobs[0], cold);
    EXPECT_TRUE(rec.at("skipped").as_bool(false)) << rec.dump(-1);
}
