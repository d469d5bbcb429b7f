// Golden-file checks for the observability outputs: a fixed 3-task
// scenario must keep producing byte-identical VCD (sysc/trace) and
// Gantt (sim/gantt) dumps. Regenerate after an intentional format
// change with: RTK_UPDATE_GOLDEN=1 ./rtk_tests_sim
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/sim.hpp"
#include "sysc/sysc.hpp"

namespace rtk::sim {
namespace {

using sysc::Time;

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string golden_path(const std::string& file) {
    return std::string(RTK_GOLDEN_DIR) + "/" + file;
}

/// Compare `actual` to the named golden file; rewrite the golden when
/// RTK_UPDATE_GOLDEN is set in the environment.
void expect_matches_golden(const std::string& actual, const std::string& file) {
    const std::string path = golden_path(file);
    if (std::getenv("RTK_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        out << actual;
        ASSERT_TRUE(out.good()) << "cannot write golden " << path;
        return;
    }
    const std::string expected = slurp(path);
    ASSERT_FALSE(expected.empty()) << "missing golden file " << path;
    EXPECT_EQ(actual, expected) << "output drifted from golden " << path
                                << " (RTK_UPDATE_GOLDEN=1 regenerates)";
}

struct ScenarioOutput {
    std::string vcd;
    std::string gantt_ascii;
    std::string gantt_csv;
};

/// The fixed scenario: three tasks at distinct priorities, each marking
/// itself in a traced signal, burning task time, then touching the BFM.
/// Everything is simulated-time deterministic.
ScenarioOutput run_three_task_scenario() {
    // Per-test scratch name: the GoldenDump tests are separate ctest
    // entries sharing one working directory, so a fixed name races
    // under `ctest -j`.
    const std::string vcd_path =
        std::string("golden_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".vcd";
    sysc::Kernel kernel;
    PriorityPreemptiveScheduler sched;
    SimApi api{kernel, sched};

    sysc::Signal<std::uint8_t> active(kernel, "active_task", 0);
    {
        sysc::TraceFile trace(kernel, vcd_path, Time::us(1));
        trace.trace(active);
        trace.trace_value("dispatches", 8,
                          [&] { return api.total_dispatches(); });

        auto body = [&](std::uint8_t tag) {
            return [&, tag] {
                active.write(tag);
                api.SIM_Wait(Time::ms(2), ExecContext::task);
                api.SIM_Wait(Time::ms(1), ExecContext::bfm_access);
            };
        };
        TThread& hi = api.SIM_CreateThread("hi", ThreadKind::task, 1, body(1));
        TThread& mid = api.SIM_CreateThread("mid", ThreadKind::task, 5, body(2));
        TThread& lo = api.SIM_CreateThread("lo", ThreadKind::task, 9, body(3));
        api.SIM_StartThread(hi);
        api.SIM_StartThread(mid);
        api.SIM_StartThread(lo);
        kernel.run();
    }

    ScenarioOutput out;
    out.vcd = slurp(vcd_path);
    out.gantt_ascii =
        api.gantt().render_ascii(Time::zero(), Time::ms(9), Time::ms(1));
    out.gantt_csv = api.gantt().to_csv();
    std::remove(vcd_path.c_str());
    return out;
}

TEST(GoldenDump, VcdTraceIsStable) {
    expect_matches_golden(run_three_task_scenario().vcd, "three_tasks.vcd");
}

TEST(GoldenDump, GanttAsciiIsStable) {
    expect_matches_golden(run_three_task_scenario().gantt_ascii,
                          "three_tasks_gantt.txt");
}

TEST(GoldenDump, GanttCsvIsStable) {
    expect_matches_golden(run_three_task_scenario().gantt_csv,
                          "three_tasks_gantt.csv");
}

TEST(GoldenDump, ScenarioSanity) {
    const ScenarioOutput out = run_three_task_scenario();
    // Priority order: hi (prio 1) runs first, lo (prio 9) last.
    EXPECT_NE(out.gantt_ascii.find("hi"), std::string::npos);
    EXPECT_NE(out.gantt_ascii.find("mid"), std::string::npos);
    EXPECT_NE(out.gantt_ascii.find("lo"), std::string::npos);
    EXPECT_NE(out.vcd.find("active_task"), std::string::npos);
    EXPECT_NE(out.gantt_csv.find("bfm"), std::string::npos);
}

}  // namespace
}  // namespace rtk::sim
