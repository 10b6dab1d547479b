/**
 * @file
 * Subprocess tests for tools/bench_diff.py: the machine-dependent
 * block contract (a candidate-only `pmu` block is explicitly skipped,
 * never gated), the unknown-bench error naming the known dispatch
 * keys, the micro_kernels throughput gate, and the tile-width
 * refusals — a forward candidate whose seq_tile stamp differs from
 * the baseline's exits 2, kernel rows sharing a
 * key but disagreeing on per-result seq_tile exit 2, and a
 * candidate-only tier prints an explicit not-gated line instead of
 * failing. These run the real script with python3; hosts without an
 * interpreter skip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "temp_path.hh"

#ifdef __unix__
#include <sys/wait.h>
#endif

#ifndef GOBO_SOURCE_DIR
#error "test_benchdiff needs GOBO_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace gobo {
namespace {

bool
havePython()
{
    static const bool have =
        std::system("python3 -c pass >/dev/null 2>&1") == 0;
    return have;
}

int
exitCode(int status)
{
#ifdef __unix__
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
    return status;
#endif
}

struct DiffResult
{
    int exit = -1;
    std::string output; ///< stdout + stderr, interleaved.
};

/** Run bench_diff.py over two files, capturing combined output. */
DiffResult
runDiff(const std::string &baseline, const std::string &candidate)
{
    std::string outPath = uniqueTempPath("benchdiff_out.txt");
    std::string cmd = "python3 \"" GOBO_SOURCE_DIR
                      "/tools/bench_diff.py\" \"" +
                      baseline + "\" \"" + candidate + "\" > \"" +
                      outPath + "\" 2>&1";
    DiffResult r;
    r.exit = exitCode(std::system(cmd.c_str()));
    std::ifstream in(outPath);
    std::ostringstream os;
    os << in.rdbuf();
    r.output = os.str();
    return r;
}

std::string
writeTemp(const char *name, const std::string &content)
{
    std::string path = uniqueTempPath(name);
    std::ofstream(path) << content;
    return path;
}

const char *kKernelsResults =
    "  \"results\": [\n"
    "    {\"kernel\": \"dot\", \"tier\": \"generic\", \"bits\": 0,"
    " \"n\": 4096, \"gb_per_sec\": 10.0, \"gflop_per_sec\": 2.5}\n"
    "  ]";

std::string
kernelsBaseline()
{
    return std::string("{\n  \"bench\": \"micro_kernels\",\n"
                       "  \"seq_tile\": 8,\n") +
           kKernelsResults + "\n}\n";
}

TEST(BenchDiffTest, CandidateOnlyPmuBlockIsExplicitlySkipped)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    // Same results; the candidate additionally carries the
    // machine-dependent roofline block the baseline lacks.
    std::string cand =
        std::string("{\n  \"bench\": \"micro_kernels\",\n"
                    "  \"seq_tile\": 8,\n") +
        kKernelsResults +
        ",\n  \"pmu\": {\"available\": true, \"backend\": \"fake\","
        " \"cache_line_bytes\": 64, \"results\": []}\n}\n";

    DiffResult r =
        runDiff(writeTemp("kbase.json", kernelsBaseline()),
                writeTemp("kcand_pmu.json", cand));
    EXPECT_EQ(r.exit, 0) << r.output;
    EXPECT_NE(r.output.find("pmu: skipped (machine-dependent"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("FAIL"), std::string::npos) << r.output;
}

TEST(BenchDiffTest, UnknownBenchNamesTheKnownDispatchKeys)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    std::string bogus =
        writeTemp("bogus.json", "{\"bench\": \"bogus\"}\n");
    DiffResult r = runDiff(bogus, bogus);
    EXPECT_EQ(r.exit, 2) << r.output;
    EXPECT_NE(r.output.find("unknown bench 'bogus'"), std::string::npos)
        << r.output;
    for (const char *known :
         {"micro_forward", "micro_serve", "micro_kernels"})
        EXPECT_NE(r.output.find(known), std::string::npos)
            << "error does not name " << known << ": " << r.output;
}

TEST(BenchDiffTest, KernelsThroughputCollapseFails)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    std::string cand =
        "{\n  \"bench\": \"micro_kernels\",\n  \"seq_tile\": 8,\n"
        "  \"results\": [\n"
        "    {\"kernel\": \"dot\", \"tier\": \"generic\", \"bits\": 0,"
        " \"n\": 4096, \"gb_per_sec\": 1.0, \"gflop_per_sec\": 0.25}\n"
        "  ]\n}\n";
    DiffResult r =
        runDiff(writeTemp("kbase2.json", kernelsBaseline()),
                writeTemp("kcand_slow.json", cand));
    EXPECT_EQ(r.exit, 1) << r.output;
    EXPECT_NE(r.output.find("FAIL"), std::string::npos) << r.output;
}

/** Minimal forward doc: enough stamps for the environment gates plus
 * empty measurement blocks so a matching pair diffs clean. */
std::string
forwardDoc(int seqTile)
{
    std::ostringstream os;
    os << "{\n  \"bench\": \"micro_forward\",\n"
       << "  \"kernel_tier\": \"generic\",\n  \"threads\": 1,\n"
       << "  \"seq_tile\": " << seqTile << ",\n"
       << "  \"results\": [], \"scaling\": [], \"spans\": []\n}\n";
    return os.str();
}

TEST(BenchDiffTest, ForwardSeqTileMismatchIsRefused)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    DiffResult r =
        runDiff(writeTemp("fbase_tile.json", forwardDoc(8)),
                writeTemp("fcand_tile.json", forwardDoc(16)));
    EXPECT_EQ(r.exit, 2) << r.output;
    EXPECT_NE(r.output.find("seq_tile mismatch"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("regenerate the baseline"),
              std::string::npos)
        << r.output;
}

TEST(BenchDiffTest, KernelsPerResultSeqTileMismatchIsRefused)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    // Same (kernel, tier, bits) key, different per-result tile width:
    // the working set changed, so GB/s carries no signal.
    std::string base =
        "{\n  \"bench\": \"micro_kernels\",\n  \"seq_tile\": 8,\n"
        "  \"results\": [\n"
        "    {\"kernel\": \"centroid_fma\", \"tier\": \"avx512\","
        " \"bits\": 3, \"n\": 3072, \"seq_tile\": 8,"
        " \"gb_per_sec\": 10.0, \"gflop_per_sec\": 2.5}\n  ]\n}\n";
    std::string cand =
        "{\n  \"bench\": \"micro_kernels\",\n  \"seq_tile\": 8,\n"
        "  \"results\": [\n"
        "    {\"kernel\": \"centroid_fma\", \"tier\": \"avx512\","
        " \"bits\": 3, \"n\": 3072, \"seq_tile\": 16,"
        " \"gb_per_sec\": 20.0, \"gflop_per_sec\": 5.0}\n  ]\n}\n";
    DiffResult r = runDiff(writeTemp("kbase_tile.json", base),
                           writeTemp("kcand_tile.json", cand));
    EXPECT_EQ(r.exit, 2) << r.output;
    EXPECT_NE(r.output.find("per-result seq_tile mismatch"),
              std::string::npos)
        << r.output;
}

TEST(BenchDiffTest, CandidateOnlyTierIsSkippedNotGated)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    // The candidate machine runs a tier the baseline machine lacked
    // (e.g. avx512): its rows are acknowledged, never thresholded.
    std::string cand = std::string(
        "{\n  \"bench\": \"micro_kernels\",\n  \"seq_tile\": 8,\n"
        "  \"results\": [\n"
        "    {\"kernel\": \"dot\", \"tier\": \"generic\", \"bits\": 0,"
        " \"n\": 4096, \"gb_per_sec\": 10.0, \"gflop_per_sec\": 2.5},\n"
        "    {\"kernel\": \"dot\", \"tier\": \"avx512\", \"bits\": 0,"
        " \"n\": 4096, \"seq_tile\": 16, \"gb_per_sec\": 40.0,"
        " \"gflop_per_sec\": 10.0}\n  ]\n}\n");
    DiffResult r =
        runDiff(writeTemp("kbase_newtier.json", kernelsBaseline()),
                writeTemp("kcand_newtier.json", cand));
    EXPECT_EQ(r.exit, 0) << r.output;
    EXPECT_NE(r.output.find("dot/avx512"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("new in candidate; not gated"),
              std::string::npos)
        << r.output;
}

TEST(BenchDiffTest, IdenticalKernelsFilesPass)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    std::string base = writeTemp("kbase3.json", kernelsBaseline());
    DiffResult r = runDiff(base, base);
    EXPECT_EQ(r.exit, 0) << r.output;
    EXPECT_NE(r.output.find("all within tolerance"), std::string::npos)
        << r.output;
}

} // namespace
} // namespace gobo
