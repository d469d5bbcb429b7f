// Persistence primitives of the campaign engine: the append-only JSONL
// store (batched fsync, tail repair), the tolerant reader, the
// flock-guarded claim queue, the shared atomic file writer and the
// strict bench count parser.
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "harness/campaign_store.hpp"
#include "sysc/fsio.hpp"
#include "scratch_dir.hpp"

namespace fs = std::filesystem;
using namespace rtk;
using namespace rtk::harness;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
}

}  // namespace

// ---- write_file_atomic ------------------------------------------------------

TEST(AtomicWrite, ReplacesContentExactly) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    const std::string path = dir + "/doc.json";
    ASSERT_TRUE(sysc::write_file_atomic(path, "first\n"));
    EXPECT_EQ(slurp(path), "first\n");
    ASSERT_TRUE(sysc::write_file_atomic(path, "second\n"));
    EXPECT_EQ(slurp(path), "second\n");
    // No temp droppings left behind.
    std::size_t entries = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(AtomicWrite, BinaryExact) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    const std::string path = dir + "/blob.bin";
    std::string payload = "abc";
    payload.push_back('\0');
    payload += "def\n\r\xff";
    ASSERT_TRUE(sysc::write_file_atomic(path, payload, nullptr,
                                        /*durable=*/true));
    EXPECT_EQ(slurp(path), payload);
}

TEST(AtomicWrite, FailureLeavesOldFileIntact) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    const std::string path = dir + "/keep.json";
    ASSERT_TRUE(sysc::write_file_atomic(path, "precious\n"));
    // Writing into a directory that does not exist must fail cleanly...
    std::string error;
    EXPECT_FALSE(sysc::write_file_atomic(dir + "/no/such/dir/out.json",
                                         "x", &error));
    EXPECT_FALSE(error.empty());
    // ...and never disturb unrelated existing files.
    EXPECT_EQ(slurp(path), "precious\n");
}

// ---- JsonlAppender + read_jsonl ---------------------------------------------

TEST(JsonlStore, AppendsAndReadsBack) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    const std::string path = dir + "/records.jsonl";
    campaign::JsonlAppender store;
    ASSERT_TRUE(store.open(path, /*flush_every=*/2));
    for (int i = 0; i < 5; ++i) {
        api::Json r = api::Json::object();
        r.set("id", api::Json::number(static_cast<std::uint64_t>(i)));
        ASSERT_TRUE(store.append(r.dump(-1)));
    }
    EXPECT_EQ(store.appended(), 5u);
    ASSERT_TRUE(store.close());

    std::size_t skipped = 999;
    const std::vector<api::Json> records = campaign::read_jsonl(path, &skipped);
    EXPECT_EQ(skipped, 0u);
    ASSERT_EQ(records.size(), 5u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].at("id").as_u64(), i);
    }
}

TEST(JsonlStore, ReaderSkipsTornTail) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    const std::string path = dir + "/records.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"id\": 0}\n";
        out << "{\"id\": 1}\n";
        out << "{\"id\": 2, \"trunc";  // killed mid-write, no newline
    }
    std::size_t skipped = 0;
    const std::vector<api::Json> records = campaign::read_jsonl(path, &skipped);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].at("id").as_u64(), 1u);
    EXPECT_EQ(skipped, 1u);
}

TEST(JsonlStore, ReopenRepairsTornTail) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    const std::string path = dir + "/records.jsonl";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"id\": 0}\n{\"id\": 1, \"half";  // torn final line
    }
    campaign::JsonlAppender store;
    ASSERT_TRUE(store.open(path, 1));
    ASSERT_TRUE(store.append("{\"id\": 2}"));
    ASSERT_TRUE(store.close());

    // The torn line must stay isolated (skipped), not fuse with id 2.
    std::size_t skipped = 0;
    const std::vector<api::Json> records = campaign::read_jsonl(path, &skipped);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].at("id").as_u64(), 0u);
    EXPECT_EQ(records[1].at("id").as_u64(), 2u);
    EXPECT_EQ(skipped, 1u);
}

TEST(JsonlStore, MissingFileReadsEmpty) {
    const test_support::ScratchDir scratch;
    std::size_t skipped = 7;
    EXPECT_TRUE(campaign::read_jsonl(scratch.path("nope.jsonl"), &skipped).empty());
    EXPECT_EQ(skipped, 0u);
}

// ---- ClaimQueue -------------------------------------------------------------

TEST(ClaimQueue, LeasesDisjointBatchesUntilExhausted) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    campaign::ClaimQueue q;
    ASSERT_TRUE(q.open(dir + "/cursor"));
    std::vector<bool> seen(10, false);
    std::uint64_t begin = 0, end = 0;
    std::size_t claims = 0;
    while (q.claim(10, 4, begin, end)) {
        ++claims;
        ASSERT_LT(begin, end);
        ASSERT_LE(end, 10u);
        for (std::uint64_t i = begin; i < end; ++i) {
            EXPECT_FALSE(seen[i]) << "index leased twice: " << i;
            seen[i] = true;
        }
    }
    EXPECT_EQ(claims, 3u);  // 4 + 4 + 2
    for (bool s : seen) {
        EXPECT_TRUE(s);
    }
    // Exhausted stays exhausted.
    EXPECT_FALSE(q.claim(10, 4, begin, end));
}

TEST(ClaimQueue, TwoHandlesShareOneCursor) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    campaign::ClaimQueue a, b;
    ASSERT_TRUE(a.open(dir + "/cursor"));
    ASSERT_TRUE(b.open(dir + "/cursor"));
    std::uint64_t begin = 0, end = 0;
    ASSERT_TRUE(a.claim(6, 2, begin, end));
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 2u);
    ASSERT_TRUE(b.claim(6, 2, begin, end));
    EXPECT_EQ(begin, 2u);
    EXPECT_EQ(end, 4u);
    ASSERT_TRUE(a.claim(6, 2, begin, end));
    EXPECT_EQ(begin, 4u);
    EXPECT_EQ(end, 6u);
    EXPECT_FALSE(b.claim(6, 2, begin, end));
}

TEST(ClaimQueue, GarbageCursorHealsToZero) {
    const test_support::ScratchDir scratch;
    const std::string dir = scratch.path();
    const std::string cursor = dir + "/cursor";
    {
        std::ofstream out(cursor, std::ios::binary);
        out << "not a number";
    }
    campaign::ClaimQueue q;
    ASSERT_TRUE(q.open(cursor));
    std::uint64_t begin = 99, end = 99;
    ASSERT_TRUE(q.claim(4, 4, begin, end));
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 4u);
}

// ---- parse_count ------------------------------------------------------------

TEST(ParseCount, AcceptsPlainDecimal) {
    std::uint64_t v = 0;
    EXPECT_TRUE(bench::parse_count("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(bench::parse_count("528", v));
    EXPECT_EQ(v, 528u);
    EXPECT_TRUE(bench::parse_count("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseCount, RejectsJunk) {
    std::uint64_t v = 77;
    EXPECT_FALSE(bench::parse_count(nullptr, v));
    EXPECT_FALSE(bench::parse_count("", v));
    EXPECT_FALSE(bench::parse_count("-1", v));
    EXPECT_FALSE(bench::parse_count("+5", v));
    EXPECT_FALSE(bench::parse_count("12x", v));
    EXPECT_FALSE(bench::parse_count("1e6", v));
    EXPECT_FALSE(bench::parse_count(" 4", v));
    EXPECT_FALSE(bench::parse_count("0x10", v));
    EXPECT_FALSE(bench::parse_count("18446744073709551616", v));  // overflow
    EXPECT_EQ(v, 77u) << "failed parse must not touch the output";
}
