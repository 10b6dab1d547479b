// End-to-end model compression: the workflow a downstream user runs.
//
//   1. obtain a fine-tuned model (here: generated mini BERT-Base with
//      an MNLI-like head and evaluation set),
//   2. save it as FP32, then as a GOBO 3-bit container (GOBC),
//   3. reload the container — it decodes to a plain FP32 model —
//   4. and verify on disk sizes and task accuracy.
//
// Run: ./compress_model [/tmp/workdir]

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/container.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "task/task.hh"
#include "util/timer.hh"

int
main(int argc, char **argv)
{
    using namespace gobo;
    namespace fs = std::filesystem;

    fs::path dir = argc > 1 ? argv[1] : fs::temp_directory_path();
    fs::path fp32_path = dir / "bert_base_mini.gobm";
    fs::path gobc_path = dir / "bert_base_mini_3b.gobc";

    // 1. The "fine-tuned" model and its evaluation set.
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel model = generateModel(cfg, 2024);
    TaskSpec spec = defaultSpec(TaskKind::MnliLike, 2024);
    spec.numExamples = 400;
    Dataset dev = buildTask(model, spec);
    double baseline = evaluate(model, dev);
    std::printf("fine-tuned %s: MNLI-like accuracy %.2f%%\n",
                cfg.name.c_str(), 100.0 * baseline);

    // 2. Save FP32 and compressed.
    saveModel(fp32_path.string(), model);
    ModelQuantOptions options;
    options.base.bits = 3;        // 3-bit G-group indexes
    options.embeddingBits = 4;    // 4-bit embedding table
    WallTimer timer;
    auto report = saveCompressedModel(gobc_path.string(), model, options);
    std::printf("quantized + serialized in %.2f s "
                "(outliers model-wide: %.3f%%)\n",
                timer.seconds(), 100.0 * report.overallOutlierFraction());

    auto fp32_size = fs::file_size(fp32_path);
    auto gobc_size = fs::file_size(gobc_path);
    std::printf("FP32 file:       %8.2f MiB  (%s)\n",
                static_cast<double>(fp32_size) / (1024.0 * 1024.0),
                fp32_path.c_str());
    std::printf("GOBO container:  %8.2f MiB  (%s)\n",
                static_cast<double>(gobc_size) / (1024.0 * 1024.0),
                gobc_path.c_str());
    std::printf("on-disk ratio:   %.2fx  (weights+embeddings alone: "
                "%.2fx)\n",
                static_cast<double>(fp32_size)
                    / static_cast<double>(gobc_size),
                report.totalCompressionRatio());

    // 3. Reload the stored model, decode it to FP32, and 4. re-evaluate.
    BertModel decoded = loadCompressedModel(gobc_path.string()).dequantize();
    double quantized_acc = evaluate(decoded, dev);
    std::printf("decoded accuracy: %.2f%% (delta %+.2f%%)\n",
                100.0 * quantized_acc,
                100.0 * (quantized_acc - baseline));

    fs::remove(fp32_path);
    fs::remove(gobc_path);
    return 0;
}
