// The campaign model and engine, in-process: manifest round-trips, job
// ordering, record determinism, round bookkeeping and the merged report.
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/campaign.hpp"
#include "harness/campaign_engine.hpp"
#include "scratch_dir.hpp"

using namespace rtk;
using namespace rtk::harness;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
}

campaign::Manifest tiny_fuzz_manifest() {
    campaign::Manifest m;
    m.name = "engine-test";
    m.kind = campaign::Kind::fuzz;
    m.base_seed = 660001;  // disjoint from the fuzz-smoke/bench blocks
    m.seeds = 3;
    m.both_policies = true;
    m.claim_batch = 2;
    m.flush_every = 2;
    return m;
}

}  // namespace

TEST(Manifest, RoundTripsThroughJson) {
    campaign::Manifest m;
    m.name = "rt";
    m.kind = campaign::Kind::fault;
    m.base_seed = 42;
    m.corpus = 5;
    m.injections_per_workload = 7;
    m.delta_budget = 123456;
    m.claim_batch = 3;
    m.flush_every = 9;

    campaign::Manifest back;
    std::string error;
    ASSERT_TRUE(campaign::Manifest::from_json(m.to_json(), back, &error))
        << error;
    EXPECT_EQ(back.to_json().dump(-1), m.to_json().dump(-1));
    EXPECT_EQ(back.total_jobs(), 35u);

    campaign::Manifest bad;
    EXPECT_FALSE(
        campaign::Manifest::from_json(api::Json::object(), bad, &error));
}

TEST(Jobs, FuzzOrderingMatchesRunFuzzCampaign) {
    campaign::Manifest m = tiny_fuzz_manifest();
    const std::vector<campaign::Job> jobs = campaign::make_jobs(m);
    ASSERT_EQ(jobs.size(), 6u);
    // Per seed: priority-preemptive leg first, then round-robin.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].id, i);
        EXPECT_EQ(jobs[i].seed, m.base_seed + i / 2);
        EXPECT_EQ(jobs[i].round_robin, i % 2 == 1);
    }
}

TEST(Jobs, FaultGridCoversCorpusTimesInjections) {
    campaign::Manifest m;
    m.kind = campaign::Kind::fault;
    m.corpus = 3;
    m.injections_per_workload = 4;
    const std::vector<campaign::Job> jobs = campaign::make_jobs(m);
    ASSERT_EQ(jobs.size(), 12u);
    EXPECT_EQ(jobs[5].workload, 1u);
    EXPECT_EQ(jobs[5].injection, 1u);
    EXPECT_EQ(jobs[11].workload, 2u);
    EXPECT_EQ(jobs[11].injection, 3u);
}

TEST(Campaign, InitPersistsManifestAndJobs) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path("init");  // init_campaign creates it
    campaign::Manifest m = tiny_fuzz_manifest();
    std::string error;
    ASSERT_TRUE(campaign::init_campaign(dir, m, &error)) << error;
    // Submitting twice is an error (the manifest is immutable).
    EXPECT_FALSE(campaign::init_campaign(dir, m, &error));

    campaign::Manifest loaded;
    ASSERT_TRUE(campaign::load_manifest(dir, loaded, &error)) << error;
    EXPECT_EQ(loaded.to_json().dump(-1), m.to_json().dump(-1));

    std::vector<campaign::Job> jobs;
    ASSERT_TRUE(campaign::load_jobs(dir, jobs, &error)) << error;
    EXPECT_EQ(jobs.size(), m.total_jobs());
}

TEST(Campaign, RunJobIsDeterministic) {
    campaign::Manifest m = tiny_fuzz_manifest();
    const std::vector<campaign::Job> jobs = campaign::make_jobs(m);
    campaign::BaselineCache cache;
    const std::string a = campaign::run_job(m, jobs[1], cache).dump(-1);
    const std::string b = campaign::run_job(m, jobs[1], cache).dump(-1);
    EXPECT_EQ(a, b);
    // Records carry no wall-clock or host fields.
    EXPECT_EQ(a.find("seconds"), std::string::npos);
    EXPECT_EQ(a.find("wall"), std::string::npos);
}

TEST(Campaign, FaultRunJobSkipsDeterministically) {
    campaign::Manifest m;
    m.kind = campaign::Kind::fault;
    m.base_seed = 660101;
    m.corpus = 1;
    m.injections_per_workload = 6;
    const std::vector<campaign::Job> jobs = campaign::make_jobs(m);
    campaign::BaselineCache cache;
    // Whatever each job yields -- a result or a skip -- it must be the
    // same bytes on every execution (that is what makes resume safe).
    for (const campaign::Job& job : jobs) {
        campaign::BaselineCache fresh;
        EXPECT_EQ(campaign::run_job(m, job, cache).dump(-1),
                  campaign::run_job(m, job, fresh).dump(-1));
    }
}

TEST(Engine, InProcessRunCompletesAndMerges) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path("inproc");  // init_campaign creates it
    campaign::Manifest m = tiny_fuzz_manifest();
    std::string error;
    ASSERT_TRUE(campaign::init_campaign(dir, m, &error)) << error;

    campaign::EngineOptions opts;
    opts.shards = 1;
    opts.in_process = true;
    const campaign::EngineResult res = campaign::run_campaign(dir, opts);
    EXPECT_TRUE(res.complete) << res.error;
    EXPECT_EQ(res.done_jobs, m.total_jobs());
    EXPECT_EQ(res.shard_failures, 0u);

    bool complete = false;
    ASSERT_TRUE(campaign::merge_campaign(dir, "", &error, &complete)) << error;
    EXPECT_TRUE(complete);

    api::Json doc;
    ASSERT_TRUE(api::Json::parse(slurp(campaign::report_path(dir)), doc,
                                 &error))
        << error;
    EXPECT_EQ(doc.at("rtk_campaign_report").as_u64(), 1u);
    EXPECT_EQ(doc.at("campaign").at("jobs").as_u64(), m.total_jobs());
    EXPECT_EQ(doc.at("campaign").at("completed").as_u64(), m.total_jobs());
    EXPECT_TRUE(doc.at("campaign").at("complete").as_bool());

    const campaign::CampaignStatus st = campaign::query_status(dir);
    EXPECT_TRUE(st.ok) << st.error;
    EXPECT_EQ(st.done_jobs, m.total_jobs());
    EXPECT_EQ(st.skipped_lines, 0u);

    // Resuming a complete campaign is a no-op that stays complete.
    const campaign::EngineResult again = campaign::run_campaign(dir, opts);
    EXPECT_TRUE(again.complete);
    EXPECT_EQ(again.rounds, 0u);
}

TEST(Engine, ShardCountDoesNotChangeReportBytes) {
    const test_support::ScratchDir scratch;
    const std::string dir1 = scratch.path("det1");
    const std::string dir3 = scratch.path("det3");
    campaign::Manifest m = tiny_fuzz_manifest();
    std::string error;
    ASSERT_TRUE(campaign::init_campaign(dir1, m, &error)) << error;
    ASSERT_TRUE(campaign::init_campaign(dir3, m, &error)) << error;

    campaign::EngineOptions one;
    one.shards = 1;
    one.in_process = true;
    campaign::EngineOptions three;
    three.shards = 3;
    three.in_process = true;
    ASSERT_TRUE(campaign::run_campaign(dir1, one).complete);
    ASSERT_TRUE(campaign::run_campaign(dir3, three).complete);

    ASSERT_TRUE(campaign::merge_campaign(dir1, "", &error)) << error;
    ASSERT_TRUE(campaign::merge_campaign(dir3, "", &error)) << error;
    const std::string rep1 = slurp(campaign::report_path(dir1));
    const std::string rep3 = slurp(campaign::report_path(dir3));
    ASSERT_FALSE(rep1.empty());
    EXPECT_EQ(rep1, rep3);
}

TEST(Engine, PrepareRoundListsOnlyPendingJobs) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path("rounds");  // init_campaign creates it
    campaign::Manifest m = tiny_fuzz_manifest();
    std::string error;
    ASSERT_TRUE(campaign::init_campaign(dir, m, &error)) << error;

    campaign::Round r0;
    ASSERT_TRUE(campaign::prepare_round(dir, r0, &error)) << error;
    EXPECT_EQ(r0.pending.size(), m.total_jobs());
    EXPECT_EQ(r0.index, 0u);

    // Run one shard over round 0, then the next round must be empty.
    ASSERT_EQ(campaign::run_shard(dir, 0, r0.runlist), 0);
    campaign::Round r1;
    ASSERT_TRUE(campaign::prepare_round(dir, r1, &error)) << error;
    EXPECT_TRUE(r1.pending.empty());
}

TEST(Engine, MergeReportsIncompleteCampaigns) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path("incomplete");  // init_campaign creates it
    campaign::Manifest m = tiny_fuzz_manifest();
    std::string error;
    ASSERT_TRUE(campaign::init_campaign(dir, m, &error)) << error;
    bool complete = true;
    ASSERT_TRUE(campaign::merge_campaign(dir, "", &error, &complete)) << error;
    EXPECT_FALSE(complete);
    api::Json doc;
    ASSERT_TRUE(api::Json::parse(slurp(campaign::report_path(dir)), doc,
                                 &error));
    EXPECT_FALSE(doc.at("campaign").at("complete").as_bool());
    EXPECT_EQ(doc.at("campaign").at("completed").as_u64(), 0u);
}
