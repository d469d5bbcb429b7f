// ScenarioRunner / BatchReport behaviour: ordering, error capture,
// aggregation and the JSON export shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "sysc/report.hpp"
#include "tkernel/tkernel.hpp"
#include "scratch_dir.hpp"

namespace rtk::harness {
namespace {

using sysc::Time;

ScenarioSpec trivial_spec(const std::string& name) {
    ScenarioSpec s;
    s.name = name;
    s.duration = Time::ms(5);
    s.workload = [](Simulation& sim, const ScenarioSpec&) {
        sim.set_user_main([] {});
    };
    return s;
}

TEST(ScenarioRunner, EmptyBatch) {
    const BatchReport r = ScenarioRunner().run({});
    EXPECT_TRUE(r.results.empty());
    EXPECT_TRUE(r.all_passed());
    EXPECT_EQ(r.failed(), 0u);
}

TEST(ScenarioRunner, ResultsStayInSpecOrder) {
    std::vector<ScenarioSpec> specs;
    for (int i = 0; i < 12; ++i) {
        specs.push_back(trivial_spec("s" + std::to_string(i)));
    }
    const BatchReport r = ScenarioRunner(ScenarioRunner::Options{3}).run(specs);
    ASSERT_EQ(r.results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(r.results[i].name, specs[i].name);
        EXPECT_TRUE(r.results[i].passed) << r.results[i].error;
    }
}

TEST(ScenarioRunner, CheckFailureIsCapturedNotThrown) {
    ScenarioSpec bad = trivial_spec("failing");
    bad.check = [](Simulation&, const ScenarioSpec&) { return false; };
    const BatchReport r = ScenarioRunner().run({trivial_spec("good"), bad});
    EXPECT_TRUE(r.results[0].passed);
    EXPECT_FALSE(r.results[1].passed);
    EXPECT_EQ(r.results[1].error, "check predicate failed");
    EXPECT_EQ(r.passed(), 1u);
    EXPECT_EQ(r.failed(), 1u);
    EXPECT_FALSE(r.all_passed());
}

TEST(ScenarioRunner, SimErrorIsCapturedIntoTheResult) {
    ScenarioSpec bad = trivial_spec("fatal");
    bad.workload = [](Simulation&, const ScenarioSpec&) {
        sysc::report(sysc::Severity::fatal, "test", "intentional scenario failure");
    };
    const BatchReport r = ScenarioRunner().run({bad});
    ASSERT_EQ(r.results.size(), 1u);
    EXPECT_FALSE(r.results[0].passed);
    EXPECT_NE(r.results[0].error.find("intentional"), std::string::npos);
}

TEST(ScenarioRunner, EffectiveThreadsClampsToBatchSize) {
    ScenarioRunner r(ScenarioRunner::Options{8});
    EXPECT_EQ(r.effective_threads(3), 3u);
    EXPECT_EQ(r.effective_threads(100), 8u);
    EXPECT_EQ(r.effective_threads(0), 1u);
    ScenarioRunner serial(ScenarioRunner::Options{1});
    EXPECT_EQ(serial.effective_threads(100), 1u);
}

TEST(BatchReport, JsonContainsSchemaFields) {
    std::vector<ScenarioSpec> specs = {trivial_spec("alpha"), trivial_spec("beta")};
    const BatchReport r = ScenarioRunner(ScenarioRunner::Options{2}).run(specs);
    const std::string json = r.to_json();
    for (const char* key :
         {"\"batch\"", "\"scenarios\": 2", "\"threads\": 2", "\"passed\": 2",
          "\"failed\": 0", "\"wall_seconds\"", "\"scenarios_per_second\"",
          "\"results\"", "\"name\": \"alpha\"", "\"name\": \"beta\"",
          "\"fingerprint\": \"0x", "\"dispatches\"", "\"sim_time_ms\"",
          "\"total_cet_ms\"", "\"gantt_segments\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
    }
    // Names with quotes/backslashes are escaped.
    ScenarioSpec odd = trivial_spec("we\"ird\\name");
    const BatchReport r2 = ScenarioRunner().run({odd});
    EXPECT_NE(r2.to_json().find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(BatchReport, EmptyBatchSerializesToValidJson) {
    const BatchReport r = ScenarioRunner().run({});
    const std::string json = r.to_json();
    api::Json doc;
    std::string error;
    ASSERT_TRUE(api::Json::parse(json, doc, &error)) << error;
    EXPECT_EQ(doc.at("batch").at("scenarios").as_u64(), 0u);
    EXPECT_TRUE(doc.at("results").items().empty());
}

TEST(BatchReport, ControlCharactersInErrorsAreEscaped) {
    BatchReport r;
    r.error = "line1\nline2\ttab\x01" "end";
    ScenarioResult bad;
    bad.name = "ctrl";
    bad.error = "bell\x07\x1f";
    r.results.push_back(bad);
    const std::string json = r.to_json();
    // The document must survive a strict re-parse despite the control
    // characters (the old hand-rolled writer is gone; api::Json escapes).
    api::Json doc;
    std::string error;
    ASSERT_TRUE(api::Json::parse(json, doc, &error)) << error;
    EXPECT_EQ(doc.at("batch").at("error").as_string(), r.error);
    EXPECT_EQ(doc.at("results").items().at(0).at("error").as_string(),
              bad.error);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(BatchReport, ZeroWallTimeAndNonFiniteRatesStayValidJson) {
    BatchReport r;
    ScenarioResult res;
    res.name = "nan";
    res.stats.cpu_load = std::numeric_limits<double>::quiet_NaN();
    res.host_seconds = std::numeric_limits<double>::infinity();
    r.results.push_back(res);
    r.wall_seconds = 0.0;  // scenarios_per_second degenerates to 0
    const std::string json = r.to_json();
    api::Json doc;
    std::string error;
    ASSERT_TRUE(api::Json::parse(json, doc, &error)) << error;
    EXPECT_EQ(doc.at("batch").at("scenarios_per_second").as_real(-1.0), 0.0);
    const api::Json& jr = doc.at("results").items().at(0);
    EXPECT_EQ(jr.at("cpu_load").as_string(), "nan");
    EXPECT_EQ(jr.at("host_seconds").as_string(), "inf");
}

TEST(BatchReport, HungScenariosAreReportedAsSuch) {
    ScenarioSpec s = trivial_spec("livelock");
    s.duration = Time::ms(50);
    s.delta_budget = 5;  // a handful of delta cycles, then give up
    const BatchReport r = ScenarioRunner().run({s});
    ASSERT_EQ(r.results.size(), 1u);
    EXPECT_TRUE(r.results[0].hung);
    EXPECT_FALSE(r.results[0].passed);
    EXPECT_NE(r.results[0].error.find("delta budget"), std::string::npos);
    EXPECT_NE(r.to_json().find("\"hung\": true"), std::string::npos);
}

TEST(BatchReport, WriteJsonRoundTripsToDisk) {
    const BatchReport r = ScenarioRunner().run({trivial_spec("disk")});
    const test_support::ScratchDir scratch;
    const std::string path = scratch.path("batch_report.json");
    ASSERT_TRUE(r.write_json(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), r.to_json());
}

}  // namespace
}  // namespace rtk::harness
