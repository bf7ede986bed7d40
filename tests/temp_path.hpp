// Per-test scratch paths under the system temp directory.
//
// ctest runs every discovered test as its own process, in parallel under
// -j, so a fixed file name shared by several tests lets one test's
// TearDown delete another test's files mid-run. Suffixing the running
// test's name and the process id keeps each path private to one test.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace decor_test {

/// `<temp>/<stem>_<Suite>_<Test>_<pid><ext>` for the running test
/// (parameterized names have their '/' replaced).
inline std::filesystem::path unique_temp_path(const std::string& stem,
                                              const std::string& ext = "") {
  std::string name = stem;
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += '_';
    name += info->test_suite_name();
    name += '_';
    name += info->name();
  }
  name += '_' + std::to_string(::getpid()) + ext;
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace decor_test
