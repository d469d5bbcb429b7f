// The pinned corpus index: digest primitive, canonical serialization,
// lookup and the on-disk load/save round-trip.
#include <string>

#include <gtest/gtest.h>

#include "corpus/index.hpp"
#include "scratch_dir.hpp"

using namespace rtk;
using namespace rtk::corpus;

namespace {

CorpusIndex sample_index() {
    CorpusIndex idx;
    idx.entries.push_back({"pipeline/pipeline_0001.json", "pipeline",
                           0x1111222233334444ull, 0xaaaabbbbccccddddull, true});
    idx.entries.push_back({"fork_join/fork_join_0000.json", "fork_join",
                           0x5555666677778888ull, 0x1234123412341234ull, false});
    idx.sort();
    return idx;
}

}  // namespace

TEST(Index, Fnv1a64MatchesKnownVectors) {
    // Reference values of the 64-bit FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Index, SortsAndFindsByFile) {
    const CorpusIndex idx = sample_index();
    ASSERT_EQ(idx.entries.size(), 2u);
    EXPECT_EQ(idx.entries[0].family, "fork_join");  // sorted by path
    const IndexEntry* e = idx.find("pipeline/pipeline_0001.json");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->fingerprint, 0xaaaabbbbccccddddull);
    EXPECT_TRUE(e->passed);
    EXPECT_EQ(idx.find("nope.json"), nullptr);
}

TEST(Index, CanonicalBytesRoundTrip) {
    const CorpusIndex idx = sample_index();
    const std::string text = idx.dump();
    api::Json j;
    std::string error;
    ASSERT_TRUE(api::Json::parse(text, j, &error)) << error;
    CorpusIndex back;
    ASSERT_TRUE(CorpusIndex::from_json(j, back, &error)) << error;
    EXPECT_EQ(text, back.dump());
    ASSERT_EQ(back.entries.size(), idx.entries.size());
    EXPECT_EQ(back.entries[1].digest, idx.entries[1].digest);

    CorpusIndex bad;
    api::Json not_index = api::Json::object();
    EXPECT_FALSE(CorpusIndex::from_json(not_index, bad, &error));
}

TEST(Index, SaveAndLoadThroughTheDirectory) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();

    const CorpusIndex idx = sample_index();
    std::string error;
    ASSERT_TRUE(idx.save(dir, &error)) << error;
    CorpusIndex back;
    ASSERT_TRUE(CorpusIndex::load(dir, back, &error)) << error;
    EXPECT_EQ(idx.dump(), back.dump());

    CorpusIndex missing;
    EXPECT_FALSE(CorpusIndex::load(dir + "/nope", missing, &error));
}
