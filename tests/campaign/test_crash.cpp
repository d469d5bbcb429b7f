// The headline guarantee of the campaign service: SIGKILL a shard
// process mid-flight, resume, and the merged report is byte-identical
// to a run that was never interrupted.
//
// The victim shard is the real rtk-campaign tool (fork/exec'd via the
// engine's own spawn helper), killed with SIGKILL -- no atexit, no
// flush, no unwinding -- once its store file shows flushed records.
// Killing at a perfectly adversarial instant is inherently racy, so the
// kill is retried in a fresh directory until it lands mid-campaign
// (records flushed AND jobs still pending); the byte-identity assertion
// itself is unconditional.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "harness/campaign.hpp"
#include "harness/campaign_engine.hpp"
#include "scratch_dir.hpp"

namespace fs = std::filesystem;
using namespace rtk;
using namespace rtk::harness;

#ifdef RTK_CAMPAIGN_TOOL

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
}

campaign::Manifest crash_manifest() {
    campaign::Manifest m;
    m.name = "crash-test";
    m.kind = campaign::Kind::fuzz;
    m.base_seed = 770001;  // disjoint from every other seed block
    m.seeds = 24;
    m.both_policies = true;  // 48 jobs
    m.claim_batch = 4;
    m.flush_every = 2;  // small batches: records land early, kill lands mid-run
    return m;
}

/// Spawn one tool shard on round 0 of `dir`, SIGKILL it as soon as its
/// store holds at least one flushed record, and report how far the
/// campaign got. True when the kill landed mid-campaign.
bool kill_one_shard_mid_flight(const std::string& dir, std::size_t total,
                               std::size_t& done_after_kill) {
    campaign::Round round;
    std::string error;
    if (!campaign::prepare_round(dir, round, &error)) {
        ADD_FAILURE() << error;
        return false;
    }
    const long pid = campaign::spawn_shard(RTK_CAMPAIGN_TOOL, dir, 0,
                                           round.runlist, &error);
    if (pid < 0) {
        ADD_FAILURE() << error;
        return false;
    }

    // Poll the shard's store until a record batch has been flushed, then
    // kill without warning. 20 ms granularity against jobs that take
    // ~10 ms each keeps the kill inside the run with high probability.
    const std::string store = campaign::shards_dir(dir) + "/" +
                              fs::path(round.runlist).stem().string() +
                              "_s0.jsonl";
    for (int i = 0; i < 1000; ++i) {
        std::error_code ec;
        if (fs::file_size(store, ec) > 0 && !ec) {
            break;
        }
        ::usleep(20 * 1000);
    }
    ::kill(static_cast<pid_t>(pid), SIGKILL);
    std::string status;
    EXPECT_FALSE(campaign::wait_shard(pid, &status));
    EXPECT_EQ(status, "signal 9");

    campaign::StoreScan scan;
    if (!campaign::scan_stores(dir, scan, &error)) {
        ADD_FAILURE() << error;
        return false;
    }
    done_after_kill = scan.records.size();
    return done_after_kill > 0 && done_after_kill < total;
}

}  // namespace

TEST(CrashRecovery, ResumeAfterSigkillIsByteIdentical) {
    const test_support::ScratchDir scratch;
    const campaign::Manifest m = crash_manifest();
    std::string error;

    // Control: the same campaign, never interrupted (one in-process
    // shard -- determinism across shard counts is covered elsewhere).
    const std::string control = scratch.path("control");
    ASSERT_TRUE(campaign::init_campaign(control, m, &error)) << error;
    campaign::EngineOptions inproc;
    inproc.shards = 1;
    inproc.in_process = true;
    ASSERT_TRUE(campaign::run_campaign(control, inproc).complete);
    ASSERT_TRUE(campaign::merge_campaign(control, "", &error)) << error;
    const std::string control_report = slurp(campaign::report_path(control));
    ASSERT_FALSE(control_report.empty());

    // Victim: kill a real shard process mid-flight. Retried because the
    // shard may legitimately win the race and finish first.
    std::string dir;
    std::size_t done_after_kill = 0;
    bool mid_flight = false;
    for (int attempt = 0; attempt < 3 && !mid_flight; ++attempt) {
        dir = scratch.path("victim" + std::to_string(attempt));
        ASSERT_TRUE(campaign::init_campaign(dir, m, &error)) << error;
        mid_flight =
            kill_one_shard_mid_flight(dir, m.total_jobs(), done_after_kill);
    }
    ASSERT_TRUE(mid_flight)
        << "could not land SIGKILL mid-campaign in 3 attempts "
        << "(last attempt had " << done_after_kill << "/" << m.total_jobs()
        << " records)";

    // Resume: same loop, two forked tool shards this time. Only the
    // missing jobs re-run.
    campaign::EngineOptions resume;
    resume.shards = 2;
    resume.worker_exe = RTK_CAMPAIGN_TOOL;
    const campaign::EngineResult res = campaign::run_campaign(dir, resume);
    EXPECT_TRUE(res.complete) << res.error;
    EXPECT_EQ(res.shard_failures, 0u);

    // The records the victim flushed before dying must have survived --
    // resume re-runs the rest, it does not start over.
    campaign::StoreScan scan;
    ASSERT_TRUE(campaign::scan_stores(dir, scan, &error)) << error;
    EXPECT_EQ(scan.records.size(), m.total_jobs());
    EXPECT_GE(scan.store_files, 2u);  // victim's partial store + resume's

    // The headline assertion: byte-identical merged report.
    ASSERT_TRUE(campaign::merge_campaign(dir, "", &error)) << error;
    EXPECT_EQ(slurp(campaign::report_path(dir)), control_report);

    // And merging twice is stable (the report is a pure function).
    ASSERT_TRUE(campaign::merge_campaign(dir, "", &error)) << error;
    EXPECT_EQ(slurp(campaign::report_path(dir)), control_report);
}

#else
TEST(CrashRecovery, DISABLED_NoToolPathConfigured) {}
#endif  // RTK_CAMPAIGN_TOOL
