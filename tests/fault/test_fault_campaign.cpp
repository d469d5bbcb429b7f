// The campaign driver end-to-end: a small fixed-seed campaign through
// the batch runner, outcome accounting, the coverage heat-map document,
// repro emission, and the three-observer (oracle + injector + trace
// consumer) fan-out the engine rides on.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness/harness.hpp"
#include "scratch_dir.hpp"

namespace rtk::harness::fault {
namespace {

/// The fixed-seed smoke campaign (same block the bench uses at reduced
/// scale): 4 workloads x 24 injections, every class cycled.
CampaignOptions smoke_options() {
    CampaignOptions opts;
    opts.base_seed = 880001;
    opts.corpus = 4;
    opts.injections_per_workload = 24;
    opts.threads = 2;
    return opts;
}

TEST(FaultCampaignTest, ClassifiesEveryInjection) {
    const CampaignReport rep = run_fault_campaign(smoke_options());

    EXPECT_EQ(rep.workloads, 4u);
    EXPECT_EQ(rep.injections, 4u * 24u);
    // Triggers are sampled inside the baseline profile, so every
    // injection fires...
    EXPECT_EQ(rep.injected, rep.injections);
    // ...and every outcome is one of the four classes (no "unknown").
    std::uint64_t classified = 0;
    for (std::size_t i = 0; i < outcome_count; ++i) {
        classified += rep.outcomes[i];
    }
    EXPECT_EQ(classified, rep.injections);
    // All six fault classes land even in the small campaign, and the
    // corpus spans well over ten distinct service calls.
    EXPECT_EQ(rep.fault_classes_covered(), fault_class_count);
    EXPECT_GE(rep.service_calls_covered(), 10u);
    // The fixed seed block is known to break invariants (that is the
    // point of the campaign); deterministic, so stable across runs.
    EXPECT_GT(rep.count(Outcome::invariant_violated), 0u);
}

TEST(FaultCampaignTest, CampaignIsDeterministic) {
    // Everything but the wall clock must be bit-identical.
    auto strip_wall = [](const CampaignReport& rep) {
        Json doc;
        std::string error;
        EXPECT_TRUE(Json::parse(rep.to_json(), doc, &error)) << error;
        Json agg = doc.at("campaign");
        agg.set("wall_seconds", Json::number(0));
        doc.set("campaign", std::move(agg));
        return doc.dump(2);
    };
    struct Input {
        std::size_t corpus;
        std::size_t injections_per_workload;
        unsigned threads_a;
        unsigned threads_b;
    };
    // The second input runs more than one 256-injection chunk.
    for (const Input& in : {Input{2, 12, 2, 1}, Input{6, 48, 1, 4}}) {
        CampaignOptions opts = smoke_options();
        opts.corpus = in.corpus;
        opts.injections_per_workload = in.injections_per_workload;
        opts.threads = in.threads_a;
        const CampaignReport a = run_fault_campaign(opts);
        opts.threads = in.threads_b;  // thread count must not change any outcome
        const CampaignReport b = run_fault_campaign(opts);
        EXPECT_EQ(a.injections, in.corpus * in.injections_per_workload);
        EXPECT_EQ(strip_wall(a), strip_wall(b));
    }
}

TEST(FaultCampaignTest, CoverageDocumentHasTheHeatMapShape) {
    CampaignOptions opts = smoke_options();
    opts.corpus = 2;
    opts.injections_per_workload = 12;
    const CampaignReport rep = run_fault_campaign(opts);
    const std::string text = rep.to_json();

    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(text, doc, &error)) << error;
    ASSERT_TRUE(doc.has("campaign"));
    ASSERT_TRUE(doc.has("coverage"));
    const Json& agg = doc.at("campaign");
    EXPECT_EQ(agg.at("injections").as_u64(), rep.injections);
    EXPECT_EQ(agg.at("masked").as_u64(), rep.count(Outcome::masked));

    // Every heat-map cell is keyed by a real class name and its counts
    // add up to its total.
    std::uint64_t total = 0;
    for (const auto& [call, row] : doc.at("coverage").members()) {
        EXPECT_FALSE(call.empty());
        for (const auto& [cls, cell] : row.members()) {
            FaultClass ignored;
            EXPECT_TRUE(fault_class_from_string(cls, ignored)) << cls;
            const std::uint64_t cell_total =
                cell.at("masked").as_u64() + cell.at("detected").as_u64() +
                cell.at("invariant_violated").as_u64() +
                cell.at("hung").as_u64();
            EXPECT_EQ(cell.at("total").as_u64(), cell_total);
            total += cell_total;
        }
    }
    EXPECT_EQ(total, rep.injections);
}

TEST(FaultCampaignTest, WritesParseableReproFiles) {
    const test_support::ScratchDir scratch;
    CampaignOptions opts = smoke_options();
    opts.repro_dir = scratch.path();
    opts.max_repros = 2;
    const CampaignReport rep = run_fault_campaign(opts);
    ASSERT_FALSE(rep.repro_paths.empty());
    ASSERT_LE(rep.repro_paths.size(), 2u);

    for (const std::string& path : rep.repro_paths) {
        std::ifstream in(path);
        ASSERT_TRUE(in) << path;
        std::ostringstream text;
        text << in.rdbuf();
        FaultSpec spec;
        std::string error;
        EXPECT_TRUE(parse_repro_json(text.str(), spec, &error))
            << path << ": " << error;
    }
}

TEST(FaultCampaignTest, OracleInjectorAndTracerObserveOneRun) {
    const fuzz::FuzzSpec workload = fuzz::generate_spec(880001);
    const BaselineProfile baseline = profile_baseline(workload);
    ASSERT_GT(baseline.events, 0u);

    FaultSpec f;
    f.workload = workload;
    f.cls = FaultClass::object_bitflip;
    f.trigger = baseline.events / 3;

    const BuiltInjection built = build_injection(f);
    const ScenarioResult run = run_scenario(built.scenario);
    const InjectionResult r = harvest(built, run, baseline);

    // All three observers were live on the same SimApi: the oracle saw
    // events (report harvested by the check predicate), the trace
    // consumer counted them independently, and the injector both counted
    // and fired.
    if (!run.hung && run.error.empty()) {
        EXPECT_TRUE(built.oracle->ran);
        EXPECT_GT(built.oracle->events, 0u);
    }
    // The pre-trigger prefix is bit-identical to the baseline, so the
    // tracer saw at least up to the injection site.
    EXPECT_GT(r.trace_events, f.trigger);
    EXPECT_NE(r.service_call, "");
}

}  // namespace
}  // namespace rtk::harness::fault
