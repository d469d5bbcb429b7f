#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sysc/sysc.hpp"

namespace rtk::sysc {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class TraceTest : public ::testing::Test {
protected:
    std::string path() const {
        return std::string("trace_test_") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name() +
               ".vcd";
    }
    void TearDown() override { std::remove(path().c_str()); }
};

TEST_F(TraceTest, WritesHeaderAndChanges) {
    Kernel k;
    Signal<bool> s(k, "sig", false);
    {
        TraceFile tf(k, path());
        tf.trace(s);
        k.spawn("drv", [&] {
            wait(Time::ns(5));
            s.write(true);
            wait(Time::ns(5));
            s.write(false);
        });
        k.run();
        tf.flush();
        EXPECT_GE(tf.value_changes_written(), 3u);  // initial + 2 edges
    }
    const std::string vcd = slurp(path());
    EXPECT_NE(vcd.find("$timescale"), std::string::npos);
    EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
    EXPECT_NE(vcd.find("sig"), std::string::npos);
    EXPECT_NE(vcd.find("#5"), std::string::npos);
    EXPECT_NE(vcd.find("#10"), std::string::npos);
}

TEST_F(TraceTest, MultiBitVectors) {
    Kernel k;
    Signal<std::uint8_t> s(k, "bus", 0);
    {
        TraceFile tf(k, path());
        tf.trace(s);
        k.spawn("drv", [&] {
            wait(Time::ns(1));
            s.write(0xA5);
        });
        k.run();
    }
    const std::string vcd = slurp(path());
    EXPECT_NE(vcd.find("$var wire 8"), std::string::npos);
    EXPECT_NE(vcd.find("b10100101"), std::string::npos);
}

TEST_F(TraceTest, TraceValueProbesPlainVariables) {
    Kernel k;
    int counter = 0;
    {
        TraceFile tf(k, path());
        tf.trace_value("counter", 16,
                       [&] { return static_cast<std::uint64_t>(counter); });
        k.spawn("drv", [&] {
            for (int i = 0; i < 3; ++i) {
                wait(Time::ns(2));
                ++counter;
            }
        });
        k.run();
    }
    const std::string vcd = slurp(path());
    EXPECT_NE(vcd.find("counter"), std::string::npos);
    EXPECT_NE(vcd.find("b1 "), std::string::npos);
    EXPECT_NE(vcd.find("b11 "), std::string::npos);
}

TEST_F(TraceTest, NoDuplicateDumpsForUnchangedValues) {
    Kernel k;
    Signal<bool> s(k, "sig", false);
    std::uint64_t changes = 0;
    {
        TraceFile tf(k, path());
        tf.trace(s);
        k.spawn("drv", [&] {
            for (int i = 0; i < 10; ++i) {
                wait(Time::ns(1));  // activity without signal changes
            }
        });
        k.run();
        changes = tf.value_changes_written();
    }
    EXPECT_EQ(changes, 1u);  // only the initial dump
}

TEST_F(TraceTest, RegistrationAfterStartIsFatal) {
    Kernel k;
    Signal<bool> a(k, "a", false), b(k, "b", false);
    TraceFile tf(k, path());
    tf.trace(a);
    k.spawn("drv", [&] { a.write(true); });
    k.run();
    EXPECT_THROW(tf.trace(b), SimError);
}

}  // namespace
}  // namespace rtk::sysc
