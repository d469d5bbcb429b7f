// Wait elision changes no run. sysc::wait(d) advances the clock in place
// when nothing else can happen first, but never while a timestep hook is
// registered, so the same scenario with a VCD trace attached
// (ScenarioSpec::vcd_path) is its un-elided reference. Every corpus/v1
// scenario, the fuzz-smoke seed block and a fault injection grid over
// the fault-smoke workloads run both ways; the .rtktrace bytes (the
// footer's delta count included), the fingerprint, the end-of-run stats
// and the oracle's findings must be identical.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "corpus/index.hpp"
#include "corpus/scenario_file.hpp"
#include "harness/corpus_bridge.hpp"
#include "harness/fault.hpp"
#include "harness/fuzz.hpp"
#include "scratch_dir.hpp"

using namespace rtk;
using namespace rtk::harness;

namespace {

std::uint64_t bits(double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

/// Everything a run reports besides its trace bytes, doubles by bit
/// pattern, so a mismatch prints as a readable diff.
std::string summary(const ScenarioResult& r) {
    std::ostringstream os;
    os << "passed " << r.passed << " hung " << r.hung << " error '" << r.error << "'\n"
       << "sim_time " << r.sim_time.picoseconds() << " fingerprint " << r.fingerprint
       << "\ngantt " << r.gantt_segments << '/' << r.gantt_markers << " trace "
       << r.trace_events << '/' << r.trace_dropped << '\n';
    const sim::SystemStats& s = r.stats;
    os << "stats " << s.elapsed.picoseconds() << ' ' << s.total_cet.picoseconds() << ' '
       << bits(s.total_cee_nj) << ' ' << s.idle_time.picoseconds() << ' ' << bits(s.cpu_load)
       << ' ' << s.dispatches << ' ' << s.preemptions << ' ' << s.interrupts << '\n';
    for (const sim::DistributionRow& row : s.rows) {
        os << "row " << row.tid << ' ' << row.name << ' ' << row.cet.picoseconds() << ' '
           << bits(row.cee_nj) << ' ' << bits(row.cet_share) << ' ' << bits(row.cee_share)
           << '\n';
    }
    return os.str();
}

/// One leg of the differential: a freshly built scenario and a digest of
/// the per-run state its builder shares with the check (oracle findings,
/// injection outcome), read after the run.
struct Leg {
    ScenarioSpec spec;
    std::function<std::string(const ScenarioResult&)> extra;
};

/// Runs two builds of one scenario, the second with a VCD trace
/// attached, and expects identical runs.
void expect_identical_runs(Leg plain, Leg hooked, const std::string& vcd_path) {
    for (Leg* leg : {&plain, &hooked}) {
        leg->spec.trace.enabled = true;
        leg->spec.trace.keep_bytes = true;
    }
    hooked.spec.vcd_path = vcd_path;
    const ScenarioResult a = run_scenario(plain.spec);
    const ScenarioResult b = run_scenario(hooked.spec);
    const std::string& name = plain.spec.name;
    EXPECT_EQ(summary(a), summary(b)) << name;
    EXPECT_FALSE(a.trace_data.empty()) << name;
    // Compared as a bool: a mismatch would otherwise print megabytes.
    EXPECT_TRUE(a.trace_data == b.trace_data) << name << ": .rtktrace bytes differ";
    if (plain.extra) {
        EXPECT_EQ(plain.extra(a), hooked.extra(b)) << name;
    }
    std::ifstream vcd(vcd_path);
    EXPECT_TRUE(vcd.good()) << name << ": the hooked run wrote no VCD";
}

std::string oracle_digest(const fuzz::OracleReport& o) {
    std::string out = "oracle " + std::to_string(o.ran) + ' ' + std::to_string(o.events) +
                      ' ' + std::to_string(o.violation_count);
    for (const std::string& v : o.violations) {
        out += '\n' + v;
    }
    return out;
}

Leg fuzz_leg(const fuzz::FuzzSpec& spec) {
    fuzz::BuiltScenario built = fuzz::build_scenario(spec);
    auto oracle = built.oracle;
    return {std::move(built.scenario),
            [oracle](const ScenarioResult&) { return oracle_digest(*oracle); }};
}

Leg fault_leg(const fault::FaultSpec& f, const fault::BaselineProfile& base) {
    auto built = std::make_shared<fault::BuiltInjection>(fault::build_injection(f));
    ScenarioSpec spec = built->scenario;
    return {std::move(spec), [built, base](const ScenarioResult& run) {
                const fault::InjectionResult r = fault::harvest(*built, run, base);
                std::string out = std::string(fault::to_string(r.outcome)) + ' ' +
                                  std::to_string(r.injected) + ' ' + r.service_call + ' ' +
                                  std::to_string(r.oracle_violations) + ' ' +
                                  std::to_string(r.trace_events);
                for (const std::string& v : r.violations) {
                    out += '\n' + v;
                }
                return out;
            }};
}

TEST(WaitElisionDifferential, EveryCorpusV1ScenarioMatchesItsHookedRun) {
    const test_support::ScratchDir scratch;
    corpus::CorpusIndex index;
    std::string error;
    ASSERT_TRUE(corpus::CorpusIndex::load(RTK_CORPUS_V1_DIR, index, &error)) << error;
    ASSERT_GE(index.entries.size(), 1000u);
    for (const corpus::IndexEntry& e : index.entries) {
        std::ifstream in(std::string(RTK_CORPUS_V1_DIR) + "/" + e.file, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        corpus::ScenarioFile f;
        ASSERT_TRUE(corpus::ScenarioFile::parse(bytes.str(), f, &error)) << e.file << ": " << error;
        expect_identical_runs({scenario_from_corpus(f), nullptr},
                              {scenario_from_corpus(f), nullptr}, scratch.path("run.vcd"));
    }
}

TEST(WaitElisionDifferential, FuzzSmokeSeedsMatchTheirHookedRuns) {
    // The fuzz-smoke block (tests/fuzz/test_fuzz_smoke.cpp), both policies.
    const test_support::ScratchDir scratch;
    constexpr std::uint64_t smoke_base_seed = 20260729;
    constexpr std::size_t smoke_seeds = 256;
    for (std::size_t i = 0; i < smoke_seeds; ++i) {
        fuzz::FuzzSpec spec = fuzz::generate_spec(smoke_base_seed + i);
        for (const bool rr : {false, true}) {
            spec.round_robin = rr;
            expect_identical_runs(fuzz_leg(spec), fuzz_leg(spec), scratch.path("run.vcd"));
        }
    }
}

TEST(WaitElisionDifferential, FaultSmokeInjectionsMatchTheirHookedRuns) {
    // The fault-smoke workloads (tests/fault/test_fault_campaign.cpp): 4
    // seeds x 24 injections, every fault class at four sites spread over
    // the baseline's trigger space.
    const test_support::ScratchDir scratch;
    constexpr std::uint64_t fault_base_seed = 880001;
    std::size_t injections = 0;
    for (std::uint64_t w = 0; w < 4; ++w) {
        const fuzz::FuzzSpec workload = fuzz::generate_spec(fault_base_seed + w);
        const fault::BaselineProfile base = fault::profile_baseline(workload);
        ASSERT_TRUE(base.ok) << base.error;
        for (std::size_t c = 0; c < fault::fault_class_count; ++c) {
            for (std::uint32_t k = 0; k < 4; ++k) {
                fault::FaultSpec f;
                f.workload = workload;
                f.cls = fault::all_fault_classes()[c];
                const std::uint64_t space =
                    f.cls == fault::FaultClass::arg_corrupt ? base.ops : base.events;
                f.trigger = space * (2 * k + 1) / 8;
                f.target = 7 * k;
                f.field = 5 * k + static_cast<std::uint32_t>(c);
                f.bit = 13 * k + 1;
                f.param = f.cls == fault::FaultClass::arg_corrupt ? 0x5a5a
                          : f.cls == fault::FaultClass::irq_drop   ? 2
                                                                   : 7;
                expect_identical_runs(fault_leg(f, base), fault_leg(f, base),
                                      scratch.path("run.vcd"));
                ++injections;
            }
        }
    }
    EXPECT_EQ(injections, 4u * 24u);
}

}  // namespace
