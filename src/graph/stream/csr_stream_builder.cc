#include "src/graph/stream/csr_stream_builder.h"

namespace bauvm
{

GraphStreamConfig &
graphStreamConfig()
{
    static GraphStreamConfig config;
    return config;
}

CsrGraph
buildCsrStreamed(const RmatParams &params, const StreamCsrOptions &opt)
{
    return buildRmatCsr(params,
                        opt.relabel_by_degree ? RmatOrder::ByDegree
                                              : RmatOrder::Raw,
                        opt.threads);
}

} // namespace bauvm
