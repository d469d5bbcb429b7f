// api::Json parser limits: nesting is capped at Json::max_depth, so
// hostile input is rejected with a diagnostic instead of overflowing the
// parser's stack.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "api/json.hpp"

namespace rtk::api {
namespace {

std::string nested_arrays(std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonDepth, AcceptsNestingUpToTheCap) {
    Json j;
    std::string err;
    ASSERT_TRUE(Json::parse(nested_arrays(Json::max_depth), j, &err)) << err;
    int depth = 0;
    for (const Json* v = &j; v->is_array(); v = &v->items().front()) {
        ++depth;
        if (v->items().empty()) {
            break;
        }
    }
    EXPECT_EQ(depth, Json::max_depth);
}

TEST(JsonDepth, RejectsNestingBeyondTheCap) {
    Json j;
    std::string err;
    EXPECT_FALSE(Json::parse(nested_arrays(Json::max_depth + 1), j, &err));
    EXPECT_EQ(err, "nesting deeper than 256 levels at offset 256");

    // Objects count toward the same cap.
    std::string objects;
    for (int i = 0; i <= Json::max_depth; ++i) {
        objects += "{\"k\":";
    }
    EXPECT_FALSE(Json::parse(objects + "1", j, &err));
    EXPECT_NE(err.find("nesting deeper than 256 levels"), std::string::npos) << err;
}

TEST(JsonDepth, RejectsTwoMillionOpenBrackets) {
    Json j;
    std::string err;
    EXPECT_FALSE(Json::parse(std::string(2'000'000, '['), j, &err));
    EXPECT_NE(err.find("nesting deeper than 256 levels"), std::string::npos) << err;
}

TEST(JsonDepth, DepthIsCountedPerPathNotPerDocument) {
    // Many siblings at the cap are fine: only open levels count.
    std::string doc = "[";
    for (int i = 0; i < 4; ++i) {
        doc += (i == 0 ? "" : ",") + nested_arrays(Json::max_depth - 1);
    }
    doc += "]";
    Json j;
    std::string err;
    ASSERT_TRUE(Json::parse(doc, j, &err)) << err;
    EXPECT_EQ(j.items().size(), 4u);
}

}  // namespace
}  // namespace rtk::api
