// Private scratch space for one test's file output.
//
// Tests that write files (campaign stores, corpus indexes, reports,
// VCD dumps) put them here instead of the working directory, so running
// a test binary from anywhere -- the source tree included -- leaves
// nothing behind, and concurrent ctest entries or build trees never
// share a path.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace rtk::test_support {

/// A directory under ::testing::TempDir() named after the running test
/// and the process, created empty and removed with its contents when the
/// object dies.
class ScratchDir {
public:
    ScratchDir() {
        const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = "rtk_";
        name += info == nullptr ? "no_test"
                                : std::string(info->test_suite_name()) + "." + info->name();
        name += "." + std::to_string(::getpid());
        for (char& c : name) {
            if (c == '/') {
                c = '_';  // parameterised suite names contain slashes
            }
        }
        root_ = std::filesystem::path(::testing::TempDir()) / name;
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_);
    }
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    /// The directory itself, or `leaf` inside it (not created).
    std::string path(const std::string& leaf = {}) const {
        return leaf.empty() ? root_.string() : (root_ / leaf).string();
    }

private:
    std::filesystem::path root_;
};

}  // namespace rtk::test_support
