/**
 * @file
 * corpus_service: GridService requests against a checkpoint corpus,
 * in a repeating pattern of three requests that hit the corpus and one
 * that misses it. Declared here so the self-test can reach the corpus
 * and filter requests.
 */

#ifndef PERFBENCH_CORPUS_SERVICE_HH
#define PERFBENCH_CORPUS_SERVICE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "ckpt/checkpoint_store.hh"
#include "harness/grid_service.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace perfbench {

class CorpusService final : public BenchWorkload
{
  public:
    CorpusService(std::uint64_t seed, Paths paths);
    ~CorpusService() override;

    CorpusService(const CorpusService &) = delete;
    CorpusService &operator=(const CorpusService &) = delete;

    OpResult setup() override;
    OpResult op(std::size_t i) override;
    std::size_t opGroup() const override;
    std::vector<std::size_t> replayOps(std::size_t n) const override;
    bool replay(std::size_t i, Tracer &t, Counts &counts) override;
    double items(std::size_t) const override { return 1.0; }
    double detailedInsts(std::size_t i) const override;
    void layerMetrics(const Tracer &t, const Counts &counts,
                      Metrics &m) const override;

    /** Rewrites each op's request line before it is sent. */
    std::function<std::string(const std::string &)> requestFilter;

    /** Corpus file of the k-th checkpoint of the hot recipe. */
    std::string hotEntryPath(std::size_t k) const;
    /** Whether op `i` was served from the corpus. */
    bool servedFromCorpus(std::size_t i) const { return ops_[i].hit; }
    const nda::CheckpointStore &store() const { return *store_; }

  private:
    struct Response {
        bool done = false;
        std::string error;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t ffInsts = 0;
        std::uint64_t windows = 0;
        std::vector<std::string> cells;  ///< "cell" lines, verbatim
    };

    struct OpRecord {
        std::uint64_t seed = 0;
        bool hit = false;
        double seconds = 0.0;
        std::uint64_t windows = 0;
        std::vector<std::string> cells;
    };

    nda::SampleParams params(std::uint64_t seed) const;
    std::string request(std::uint64_t seed) const;
    Response serve(const std::string &line, OpResult &timing);
    std::vector<nda::CkptKey> hotKeys() const;
    void openStore(std::uint64_t max_bytes);

    std::uint64_t seed_;
    Paths paths_;
    std::string dir_;
    std::vector<std::unique_ptr<nda::Workload>> workloads_;
    std::vector<const nda::Workload *> ptrs_;
    std::unique_ptr<nda::CheckpointStore> store_;
    std::unique_ptr<nda::GridService> service_;
    std::uint64_t cap_ = 0;
    std::vector<std::string> coldCells_;
    std::vector<OpRecord> ops_;
};

} // namespace perfbench

#endif // PERFBENCH_CORPUS_SERVICE_HH
