// Generator and repro-format guarantees: deterministic expansion,
// lossless JSON round-trips, full service-surface coverage.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/fuzz.hpp"

namespace rtk::harness::fuzz {

using api::Json;
namespace {

TEST(FuzzGenerator, SameSeedSameSpec) {
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull, 1ull << 52}) {
        const FuzzSpec a = generate_spec(seed);
        const FuzzSpec b = generate_spec(seed);
        EXPECT_TRUE(a == b) << "seed " << seed;
        EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
    }
}

TEST(FuzzGenerator, DistinctSeedsDiffer) {
    const FuzzSpec a = generate_spec(1);
    const FuzzSpec b = generate_spec(2);
    EXPECT_FALSE(a == b);
}

TEST(FuzzGenerator, SpecsAreBoundedByParams) {
    GenParams p;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const FuzzSpec s = generate_spec(seed, p);
        EXPECT_GE(s.tasks.size(), static_cast<std::size_t>(p.min_tasks));
        EXPECT_LE(s.tasks.size(), static_cast<std::size_t>(p.max_tasks));
        EXPECT_LE(s.sems.size(), static_cast<std::size_t>(p.max_sems));
        EXPECT_GE(s.duration_ms, static_cast<std::uint32_t>(p.min_duration_ms));
        EXPECT_LE(s.duration_ms, static_cast<std::uint32_t>(p.max_duration_ms));
        for (const TaskSpec& t : s.tasks) {
            EXPECT_GE(t.pri, 1);
            EXPECT_LE(t.pri, p.max_pri);
            EXPECT_FALSE(t.ops.empty());
        }
    }
}

TEST(FuzzGenerator, CoversTheServiceCallSurface) {
    // Across a fixed block of seeds, the generator must reach every
    // kernel object class -- this is what "exercising the full service
    // surface" means mechanically.
    std::set<std::string> seen;
    bool rr = false;
    bool pp = false;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const FuzzSpec s = generate_spec(seed);
        rr = rr || s.round_robin;
        pp = pp || !s.round_robin;
        for (const TaskSpec& t : s.tasks) {
            for (const corpus::Op& op : t.ops) {
                seen.insert(to_string(op.kind));
            }
        }
        for (const CycSpec& c : s.cycs) {
            for (const corpus::Op& op : c.ops) {
                seen.insert(to_string(op.kind));
            }
        }
    }
    for (const char* required :
         {"compute", "delay", "sleep", "wakeup", "sem_wait", "sem_signal",
          "flg_wait", "flg_set", "mtx_lock", "mtx_unlock", "mbx_send",
          "mbf_send", "mpf_get", "mpl_get", "chg_pri", "rot_rdq", "sta_tsk",
          "ter_tsk", "ext_tsk", "suspend", "resume", "raise_int", "dsp_block",
          "ras_tex", "cyc_start", "alm_start", "ref_poll"}) {
        EXPECT_TRUE(seen.count(required)) << "op never generated: " << required;
    }
    EXPECT_TRUE(rr && pp) << "both scheduler policies must be generated";
}

TEST(FuzzGenerator, JsonRoundTripIsLossless) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const FuzzSpec a = generate_spec(seed);
        const std::string text = a.to_json().dump();
        Json parsed;
        std::string err;
        ASSERT_TRUE(Json::parse(text, parsed, &err)) << err;
        FuzzSpec b;
        ASSERT_TRUE(FuzzSpec::from_json(parsed, b, &err)) << err;
        EXPECT_TRUE(a == b) << "seed " << seed;
    }
}

TEST(FuzzGenerator, ReproDocumentRoundTrips) {
    const FuzzSpec a = generate_spec(7);
    const std::string doc = make_repro_json(a, "invariant", "detail text", true);
    FuzzSpec b;
    std::string err;
    ASSERT_TRUE(parse_repro_json(doc, b, &err)) << err;
    EXPECT_TRUE(a == b);
    // A bare spec object (no repro envelope) parses too.
    FuzzSpec c;
    ASSERT_TRUE(parse_repro_json(a.to_json().dump(), c, &err)) << err;
    EXPECT_TRUE(a == c);
}

TEST(FuzzJson, ParserRejectsMalformedInput) {
    Json out;
    for (const char* bad :
         {"", "{", "[1,", "{\"a\" 1}", "{\"a\": 01x}", "nul", "\"unterminated",
          "{\"a\": 1} trailing", ".5", "1e", "18446744073709551616",
          "-9223372036854775809", "-18446744073709551615"}) {
        EXPECT_FALSE(Json::parse(bad, out)) << "accepted: " << bad;
    }
}

TEST(FuzzJson, RealLiteralsParseButStayOutOfIntegerReaders) {
    // Reals round-trip for the report documents (BatchReport, fault
    // coverage); spec/repro integer fields never read them because the
    // integer accessors fall back.
    Json out;
    ASSERT_TRUE(Json::parse("{\"r\": 1.5, \"e\": -2.25e2}", out));
    EXPECT_EQ(out.at("r").as_real(), 1.5);
    EXPECT_EQ(out.at("e").as_real(), -225.0);
    EXPECT_EQ(out.at("r").as_u64(7), 7u);  // integer reader: fallback
    EXPECT_EQ(out.at("r").dump(-1), "1.500000");
}

TEST(FuzzJson, NumbersKeepFullRange) {
    Json out;
    ASSERT_TRUE(Json::parse("{\"u\": 18446744073709551615, \"n\": -42,"
                            " \"min\": -9223372036854775808, \"z\": -0}",
                            out));
    EXPECT_EQ(out.at("u").as_u64(), UINT64_MAX);
    EXPECT_EQ(out.at("n").as_i64(), -42);
    EXPECT_EQ(out.at("min").as_i64(), INT64_MIN);
    EXPECT_EQ(out.at("z").as_i64(), 0);
}

}  // namespace
}  // namespace rtk::harness::fuzz
