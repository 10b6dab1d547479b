/**
 * @file
 * Subprocess tests for the `gobo` CLI's logit lines — the lines the
 * CI logit smokes diff. `generate` must write a model whose logits are
 * not all zero (a zero head would make every diff pass whatever the
 * encoder computed), and `infer` must print logits exactly (`%a`), so
 * a one-centroid perturbation of one FC layer changes the printed
 * line.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "core/quantizer.hh"
#include "model/serialize.hh"
#include "temp_path.hh"

#ifndef GOBO_CLI_PATH
#error "test_cli needs GOBO_CLI_PATH (see tests/CMakeLists.txt)"
#endif

namespace gobo {
namespace {

/** Run the CLI with `args`; return its exit status and stdout. */
int
runCli(const std::string &args, std::string *out)
{
    std::string out_path = uniqueTempPath("cli_out.txt");
    std::string cmd = std::string("\"") + GOBO_CLI_PATH + "\" " + args
                      + " > \"" + out_path + "\" 2>/dev/null";
    int status = std::system(cmd.c_str());
    std::ifstream in(out_path);
    std::ostringstream os;
    os << in.rdbuf();
    *out = os.str();
    std::remove(out_path.c_str());
    return status;
}

/** Exit code of a runCli status, or -1 if the CLI did not exit. */
int
exitCode(int status)
{
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The `seq ...` lines of an infer run on the packed qexec engine. */
std::string
qexecLogitLines(const std::string &model)
{
    std::string out;
    EXPECT_EQ(runCli("infer \"" + model
                         + "\" --engine qexec"
                           " --batch 4 --seq-len 12",
                     &out),
              0);
    std::istringstream in(out);
    std::string line, lines;
    while (std::getline(in, line))
        if (line.rfind("seq", 0) == 0)
            lines += line + "\n";
    return lines;
}

/** Every logit printed between '[' and ']' on the given lines. */
std::vector<double>
parseLogits(const std::string &lines)
{
    std::vector<double> v;
    std::istringstream in(lines);
    std::string line;
    while (std::getline(in, line)) {
        auto open = line.find('['), close = line.find(']');
        if (open == std::string::npos || close == std::string::npos)
            continue;
        std::istringstream fields(line.substr(open + 1, close - open - 1));
        std::string tok;
        while (std::getline(fields, tok, ','))
            v.push_back(std::strtod(tok.c_str(), nullptr));
    }
    return v;
}

/** A generated mini model written by `gobo generate`. */
std::string
generatedModel()
{
    std::string path = uniqueTempPath("generated.gobm");
    std::string out;
    EXPECT_EQ(runCli("generate --family bert-base --seed 9 --out \""
                         + path + "\"",
                     &out),
              0);
    return path;
}

TEST(CliLogits, GeneratedModelPrintsNonZeroFiniteLogits)
{
    std::string model = generatedModel();
    std::string lines = qexecLogitLines(model);
    std::vector<double> logits = parseLogits(lines);
    ASSERT_EQ(logits.size(), 4u) << lines;
    bool any_nonzero = false;
    for (double v : logits) {
        EXPECT_TRUE(std::isfinite(v)) << lines;
        any_nonzero = any_nonzero || v != 0.0;
    }
    EXPECT_TRUE(any_nonzero) << "all-zero logits:\n" << lines;
    // Printed with %a, so the text round-trips to the exact float.
    EXPECT_NE(lines.find("0x"), std::string::npos) << lines;
    std::remove(model.c_str());
}

TEST(CliLogits, OneCentroidPerturbationChangesPrintedLine)
{
    // Replace encoder 0's query weights by their 3-bit GOBO
    // reconstruction, once as is and once with a single centroid moved
    // by 2^-12 of its value. Both runs re-quantize through the packed
    // engine; only the perturbed centroid's weights differ, and the
    // exact logit text must show it.
    std::string gen = generatedModel();
    BertModel model = loadModel(gen);
    GoboConfig cfg;
    cfg.bits = 3;
    QuantizedTensor q = quantizeTensor(model.encoders[0].queryW, cfg);
    std::string base = uniqueTempPath("base.gobm");
    std::string moved = uniqueTempPath("moved.gobm");
    model.encoders[0].queryW = q.dequantize();
    saveModel(base, model);
    q.centroids[3] *= 1.0f + 0x1p-12f;
    model.encoders[0].queryW = q.dequantize();
    saveModel(moved, model);

    std::string lines_base = qexecLogitLines(base);
    ASSERT_FALSE(lines_base.empty());
    EXPECT_EQ(qexecLogitLines(base), lines_base) << "not deterministic";
    EXPECT_NE(qexecLogitLines(moved), lines_base);
    for (const std::string &p : {gen, base, moved})
        std::remove(p.c_str());
}

TEST(CliFlags, UnknownFlagExitsWithUsage)
{
    // A misspelled flag must not run with the default it misses.
    std::string model = generatedModel();
    std::string infer = "infer \"" + model + "\" --batch 1 --seq-len 4";
    std::string out;
    EXPECT_EQ(exitCode(runCli(infer + " --thread 4", &out)), 2);
    EXPECT_EQ(out, "");
    EXPECT_EQ(exitCode(runCli(infer + " --bogus x", &out)), 2);
    EXPECT_EQ(exitCode(runCli(infer + " --threads 4", &out)), 0);
    EXPECT_NE(out.find("seq"), std::string::npos) << out;
    // Flags are per subcommand: serve's --trace-out is not infer's.
    EXPECT_EQ(exitCode(runCli(infer + " --trace-out t.json", &out)), 2);
    EXPECT_EQ(exitCode(runCli("kernels --bogus x", &out)), 2);
    std::remove(model.c_str());
}

} // namespace
} // namespace gobo
