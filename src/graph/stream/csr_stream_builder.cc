#include "src/graph/stream/csr_stream_builder.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include "src/graph/generator.h"
#include "src/sim/log.h"

namespace bauvm
{

namespace
{

/** RAII std::tmpfile wrapper: anonymous, auto-deleted spill storage
 *  for one CSR array. */
class SpillFile
{
  public:
    SpillFile() : file_(std::tmpfile())
    {
        if (file_ == nullptr)
            fatal("buildCsrStreamed: cannot create spill temp file");
    }
    ~SpillFile() { std::fclose(file_); }
    SpillFile(const SpillFile &) = delete;
    SpillFile &operator=(const SpillFile &) = delete;

    template <typename T>
    void
    append(const std::vector<T> &data)
    {
        if (data.empty())
            return;
        if (std::fwrite(data.data(), sizeof(T), data.size(), file_) !=
            data.size()) {
            fatal("buildCsrStreamed: spill write failed");
        }
    }

    /** Reads the whole file back; @p count must match what was
     *  appended. */
    template <typename T>
    void
    readAll(std::vector<T> *out, std::uint64_t count)
    {
        out->resize(count);
        std::rewind(file_);
        if (count != 0 &&
            std::fread(out->data(), sizeof(T), count, file_) != count) {
            fatal("buildCsrStreamed: spill read failed");
        }
    }

  private:
    std::FILE *file_;
};

} // namespace

GraphStreamConfig &
graphStreamConfig()
{
    static GraphStreamConfig config;
    return config;
}

CsrGraph
buildCsrStreamed(const RmatParams &params, const StreamCsrOptions &opt)
{
    // The capture pass counts out-degrees as it draws. It drops self
    // loops and counts undirected edges at both ends, so these are
    // exactly the final CSR degrees. Every capture group past the
    // first counts into its own n-entry array: the scratch budget caps
    // those arrays, as it caps the scatter partitions below.
    BuildThreads capture = opt.threads;
    capture.threads = std::min<std::uint64_t>(
        capture.chunksFor(params.num_edges),
        1 + opt.scratch_bytes / (std::uint64_t{rmatVertexCount(params)} *
                                 sizeof(std::uint64_t)));
    std::vector<std::uint64_t> degree;
    const StreamedRmatGenerator gen(params, opt.edges_per_block, &degree,
                                    capture);
    const VertexId n = gen.numVertices();
    const bool weighted = params.weighted;

    // Old-id -> new-id mapping: the in-core relabelByDegree order.
    std::vector<VertexId> new_id;
    if (opt.relabel_by_degree) {
        new_id = degreeDescendingIds(degree);
    } else {
        new_id.resize(n);
        std::iota(new_id.begin(), new_id.end(), 0);
    }

    // Row offsets in new-id space. The relabeling is a bijection, so
    // new row new_id[v] holds exactly old vertex v's edges.
    std::vector<std::uint64_t> row(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v)
        row[new_id[v] + 1] = degree[v];
    std::partial_sum(row.begin(), row.end(), row.begin());
    const std::uint64_t num_edges = row[n];

    degree = {}; // released before the scatter passes

    // Scatter: counting-sort passes over contiguous new-id partitions,
    // each sized to the scratch budget, spilling finished rows. Within
    // a row the scatter sees edges in stream (= generation) order —
    // the same order CsrGraph::fromEdges's stable counting sort keeps
    // in core, which is what makes the builds bit-identical.
    SpillFile col_spill;
    SpillFile weight_spill;
    std::vector<VertexId> cols;
    std::vector<std::uint32_t> wts;
    std::vector<std::uint64_t> cursor;
    RmatStreamBlock block;
    const std::uint64_t bytes_per_edge = weighted ? 8 : 4;

    VertexId r_lo = 0;
    while (r_lo < n) {
        VertexId r_hi = r_lo + 1; // a partition holds >= 1 row
        while (r_hi < n &&
               (row[r_hi + 1] - row[r_lo]) * bytes_per_edge +
                       (static_cast<std::uint64_t>(r_hi) + 1 - r_lo) * 8 <=
                   opt.scratch_bytes) {
            ++r_hi;
        }
        const std::uint64_t base = row[r_lo];
        const std::uint64_t part_edges = row[r_hi] - base;

        cols.assign(part_edges, 0);
        if (weighted)
            wts.assign(part_edges, 0);
        cursor.resize(r_hi - r_lo);
        for (VertexId r = r_lo; r < r_hi; ++r)
            cursor[r - r_lo] = row[r] - base;

        for (std::uint64_t b = 0; b < gen.numBlocks(); ++b) {
            gen.block(b, &block);
            for (std::size_t i = 0; i < block.edges.size(); ++i) {
                const VertexId ns = new_id[block.edges[i].first];
                if (ns < r_lo || ns >= r_hi)
                    continue;
                const std::uint64_t pos = cursor[ns - r_lo]++;
                cols[pos] = new_id[block.edges[i].second];
                if (weighted)
                    wts[pos] = block.weights[i];
            }
        }

        col_spill.append(cols);
        if (weighted)
            weight_spill.append(wts);
        r_lo = r_hi;
    }

    // Release everything but the row offsets before the read-back so
    // peak RSS is max(scratch pass, final arrays) — not their sum.
    new_id = {};
    cols = {};
    wts = {};
    cursor = {};
    block.clear();
    block.edges.shrink_to_fit();
    block.weights.shrink_to_fit();

    std::vector<VertexId> col_indices;
    col_spill.readAll(&col_indices, num_edges);
    std::vector<std::uint32_t> weights;
    if (weighted)
        weight_spill.readAll(&weights, num_edges);

    return CsrGraph::fromCsrArrays(std::move(row), std::move(col_indices),
                                   std::move(weights));
}

} // namespace bauvm
