/**
 * @file
 * Per-process unique scratch paths for tests.
 *
 * ctest -j runs every discovered gtest case as its own process, so a
 * fixed file name under the temp directory is shared by concurrently
 * running cases, and one case can read another's half-written file.
 * Prefixing the process id gives each case process its own files.
 */

#ifndef GOBO_TESTS_TEMP_PATH_HH
#define GOBO_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace gobo {

/** TempDir()/gobo_<pid>_<name>: unique to this test process. */
inline std::string
uniqueTempPath(const std::string &name)
{
    return ::testing::TempDir() + "gobo_" + std::to_string(::getpid())
           + "_" + name;
}

} // namespace gobo

#endif // GOBO_TESTS_TEMP_PATH_HH
