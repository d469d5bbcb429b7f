// The fault-injection x tracing contract: oracle + injector + recorder
// (four observers counting the trace consumer) share one SimApi, the
// injector stamps its injection instant into the capture, and a traced
// campaign writes .rtktrace files that the repro JSONs reference.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness/harness.hpp"
#include "scratch_dir.hpp"
#include "trace/trace.hpp"

namespace rtk::harness::fault {
namespace {

harness::TraceConfig keep_trace() {
    harness::TraceConfig t;
    t.enabled = true;
    t.keep_bytes = true;
    return t;
}

TEST(FaultTrace, RecorderRidesTheInjectionFanOut) {
    const fuzz::FuzzSpec workload = fuzz::generate_spec(880001);
    const BaselineProfile baseline = profile_baseline(workload);
    ASSERT_GT(baseline.events, 0u);

    FaultSpec f;
    f.workload = workload;
    f.cls = FaultClass::irq_dup;  // applies unconditionally at the trigger
    f.trigger = baseline.events / 3;

    const BuiltInjection built = build_injection(f, /*with_fault=*/true,
                                                 keep_trace());
    const ScenarioResult run = run_scenario(built.scenario);
    const InjectionResult r = harvest(built, run, baseline);

    // Oracle, injector and trace consumer all still saw the run...
    EXPECT_GT(r.trace_events, f.trigger);
    ASSERT_TRUE(r.injected);
    // ...and the recorder captured it, including the injector's
    // annotation at the injection instant.
    ASSERT_TRUE(run.traced);
    trace::TraceDoc doc;
    std::string error;
    ASSERT_TRUE(trace::parse_trace(run.trace_data, doc, &error)) << error;
    bool marked = false;
    for (const trace::TraceEvent& e : doc.events) {
        if (e.kind == trace::EventKind::annotation &&
            e.text.rfind("fault:", 0) == 0) {
            EXPECT_NE(e.text.find("irq_dup"), std::string::npos) << e.text;
            marked = true;
        }
    }
    EXPECT_TRUE(marked);
}

TEST(FaultTrace, TracingDoesNotChangeInjectionOutcomes) {
    const fuzz::FuzzSpec workload = fuzz::generate_spec(880002);
    const BaselineProfile baseline = profile_baseline(workload);
    ASSERT_GT(baseline.events, 0u);

    FaultSpec f;
    f.workload = workload;
    f.cls = FaultClass::tcb_bitflip;
    f.trigger = baseline.events / 2;
    f.target = 1;
    f.bit = 3;

    const BuiltInjection plain = build_injection(f);
    const ScenarioResult plain_run = run_scenario(plain.scenario);
    const InjectionResult plain_r = harvest(plain, plain_run, baseline);

    const BuiltInjection traced = build_injection(f, /*with_fault=*/true,
                                                  keep_trace());
    const ScenarioResult traced_run = run_scenario(traced.scenario);
    const InjectionResult traced_r = harvest(traced, traced_run, baseline);

    // The recorder is a passive fourth observer: same trigger ordinals,
    // same outcome, same behaviour fingerprint.
    EXPECT_EQ(traced_r.outcome, plain_r.outcome);
    EXPECT_EQ(traced_r.injected, plain_r.injected);
    EXPECT_EQ(traced_r.service_call, plain_r.service_call);
    EXPECT_EQ(traced_r.fingerprint, plain_r.fingerprint);
    EXPECT_EQ(traced_r.trace_events, plain_r.trace_events);
}

TEST(FaultTrace, TracedCampaignWritesTracesAndReferencesThem) {
    const test_support::ScratchDir scratch;
    CampaignOptions opts;
    opts.base_seed = 880001;
    opts.corpus = 4;  // the fixed seed block known to break invariants
    opts.injections_per_workload = 24;
    opts.threads = 2;
    opts.repro_dir = scratch.path();
    opts.trace_dir = scratch.path();
    opts.max_repros = 3;
    const CampaignReport rep = run_fault_campaign(opts);

    // The fixed seed block produces non-masked outcomes, so both repro
    // JSONs and their traces landed.
    ASSERT_FALSE(rep.repro_paths.empty());
    ASSERT_FALSE(rep.trace_paths.empty());
    EXPECT_EQ(rep.traced_runs, rep.injections);
    EXPECT_GT(rep.trace_metrics.events, 0u);

    // Every written trace parses, and the matching repro references it.
    for (const std::string& path : rep.trace_paths) {
        trace::TraceDoc doc;
        std::string error;
        EXPECT_TRUE(trace::read_trace_file(path, doc, &error))
            << path << ": " << error;
        EXPECT_FALSE(doc.events.empty()) << path;
    }
    bool referenced = false;
    for (const std::string& path : rep.repro_paths) {
        std::ifstream in(path);
        ASSERT_TRUE(in) << path;
        std::ostringstream text;
        text << in.rdbuf();
        Json doc;
        std::string error;
        ASSERT_TRUE(Json::parse(text.str(), doc, &error)) << path << ": " << error;
        if (doc.at("result").has("trace")) {
            const std::string ref = doc.at("result").at("trace").as_string();
            trace::TraceDoc ignored;
            EXPECT_TRUE(trace::read_trace_file(ref, ignored, &error))
                << ref << ": " << error;
            referenced = true;
        }
    }
    EXPECT_TRUE(referenced);

    // The campaign report carries the trace aggregate.
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(rep.to_json(), doc, &error)) << error;
    ASSERT_TRUE(doc.has("trace"));
    EXPECT_EQ(doc.at("trace").at("traced_runs").as_u64(), rep.traced_runs);
}

}  // namespace
}  // namespace rtk::harness::fault
