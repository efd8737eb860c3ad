/**
 * @file
 * Plain-data configuration structs for every subsystem.
 *
 * Defaults follow Table 1 of the paper (16 SMs @ 1 GHz, 16 KB L1, 2 MB
 * L2, 64/1024-entry TLBs, 64 KB pages, 1024-entry fault buffer, 20 us
 * GPU-runtime fault handling time, 15.75 GB/s PCIe). core/presets.h
 * exposes named factories built on top of these structs.
 */

#ifndef BAUVM_SIM_CONFIG_H_
#define BAUVM_SIM_CONFIG_H_

#include <cstdint>

#include "src/sim/field_table.h"
#include "src/sim/types.h"

namespace bauvm
{

/** Geometry and latency of one set-associative cache level. */
struct CacheConfig {
    std::uint64_t size_bytes = 16 * 1024;
    std::uint32_t associativity = 4;
    std::uint32_t line_bytes = 128;
    Cycle hit_latency = 28; //!< cycles from access to data on a hit
};
template <FieldsOf<CacheConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("size_bytes", c.size_bytes, kKeyed);
    f("associativity", c.associativity, kKeyed);
    f("line_bytes", c.line_bytes, kKeyed);
    f("hit_latency", c.hit_latency, kKeyed);
}
BAUVM_FIELD_TABLE_COMPLETE(CacheConfig);

/** Geometry of one TLB level. 0 associativity means fully associative. */
struct TlbConfig {
    std::uint32_t entries = 64;
    std::uint32_t associativity = 0;
    Cycle hit_latency = 1;
};
template <FieldsOf<TlbConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("entries", c.entries, kKeyed);
    f("associativity", c.associativity, kKeyed);
    f("hit_latency", c.hit_latency, kKeyed);
}
BAUVM_FIELD_TABLE_COMPLETE(TlbConfig);

/** GPU memory-system (non-UVM) parameters. */
struct MemConfig {
    CacheConfig l1{16 * 1024, 4, 128, 28};
    CacheConfig l2{2 * 1024 * 1024, 16, 128, 120};
    TlbConfig l1_tlb{64, 0, 1};
    TlbConfig l2_tlb{1024, 32, 10};
    Cycle dram_latency = 200;         //!< Table 1: 200-cycle memory
    Cycle atomic_latency = 24;        //!< extra cycles for atomic ops
    std::uint32_t dram_bytes_per_cycle = 64; //!< device-memory bandwidth
    std::uint32_t mshrs_per_sm = 64;  //!< outstanding L1 misses per SM
    std::uint32_t walker_threads = 64; //!< concurrent page-table walks
    std::uint32_t page_table_levels = 4;
    std::uint32_t walk_cache_entries = 64;
    Cycle walk_cache_latency = 4;
};
template <FieldsOf<MemConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("l1", c.l1, kNoFlags);
    f("l2", c.l2, kNoFlags);
    f("l1_tlb", c.l1_tlb, kNoFlags);
    f("l2_tlb", c.l2_tlb, kNoFlags);
    f("dram_latency", c.dram_latency, kKeyed | kKnob);
    f("atomic_latency", c.atomic_latency, kKeyed);
    f("dram_bytes_per_cycle", c.dram_bytes_per_cycle, kKeyed | kKnob);
    f("mshrs_per_sm", c.mshrs_per_sm, kKeyed | kKnob);
    f("walker_threads", c.walker_threads, kKeyed | kKnob);
    f("page_table_levels", c.page_table_levels, kKeyed);
    f("walk_cache_entries", c.walk_cache_entries, kKeyed);
    f("walk_cache_latency", c.walk_cache_latency, kKeyed);
}
BAUVM_FIELD_TABLE_COMPLETE(MemConfig);

/** Unified-virtual-memory runtime parameters. */
struct UvmConfig {
    std::uint64_t page_bytes = 64 * 1024;  //!< Table 1: 64 KB pages
    std::uint32_t fault_buffer_entries = 1024;
    /** Traditional (non-UVM) GPU mode: every allocation is resident
     *  before the first kernel, so no page fault ever fires. Requires
     *  the memory ratio to be >= 1 or unlimited. Used by Fig 5. */
    bool preload = false;
    double fault_handling_us = 20.0;       //!< GPU runtime fault handling
    /** Per-fault addition to the handling time (CPU-side page-table
     *  walk + sort work per entry). The paper uses a flat 20 us but
     *  measures 50-430 us on real irregular workloads; the per-page
     *  term reproduces that growth. */
    double fault_handling_per_page_us = 0.6;
    /** Delay between the MMU raising the fault interrupt and the
     *  runtime starting the batch (top-half ISR dispatch). */
    double interrupt_latency_us = 1.0;
    double pcie_gbps = 15.75;              //!< host-to-device bandwidth
    /** Device-to-host bandwidth; 0 means symmetric with pcie_gbps.
     *  (The paper notes D2H is faster than H2D on real systems, which
     *  is what keeps UE's eviction stream off the critical path.) */
    double pcie_d2h_gbps = 0.0;
    bool prefetch_enabled = true;          //!< tree prefetcher (baseline)
    std::uint64_t va_block_bytes = 2 * 1024 * 1024; //!< prefetch tree span
    double prefetch_density = 0.5;         //!< subtree density threshold
    /** Alternative policy: instead of the tree analysis, prefetch the
     *  next N pages after each faulted page (a naive sequential
     *  prefetcher, used as an ablation point). 0 selects the tree. */
    std::uint32_t sequential_prefetch_pages = 0;
    bool unobtrusive_eviction = false;     //!< the paper's UE technique
    bool ideal_eviction = false;           //!< zero-latency eviction (Fig 8)
    double pcie_compression_ratio = 1.0;   //!< >1 shrinks transfer time
    std::uint32_t root_chunk_pages = 1;    //!< eviction granularity (pages)
    /** Window for the page-lifetime running average (premature-eviction
     *  monitor), in cycles. Paper: every 100k cycles. */
    Cycle lifetime_window_cycles = 100000;
    /** Relative drop in the lifetime running average that throttles
     *  thread oversubscription. Paper: empirically 20%. */
    double lifetime_drop_threshold = 0.20;
};
template <FieldsOf<UvmConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("page_bytes", c.page_bytes, kKeyed);
    f("fault_buffer_entries", c.fault_buffer_entries, kKeyed | kKnob);
    f("preload", c.preload, kKeyed | kKnob);
    f("fault_handling_us", c.fault_handling_us, kKeyed | kKnob);
    f("fault_handling_per_page_us", c.fault_handling_per_page_us,
      kKeyed | kKnob);
    f("interrupt_latency_us", c.interrupt_latency_us, kKeyed | kKnob);
    f("pcie_gbps", c.pcie_gbps, kKeyed | kKnob);
    f("pcie_d2h_gbps", c.pcie_d2h_gbps, kKeyed | kKnob);
    f("prefetch_enabled", c.prefetch_enabled, kKeyed | kKnob);
    f("va_block_bytes", c.va_block_bytes, kKeyed | kKnob);
    f("prefetch_density", c.prefetch_density, kKeyed | kKnob);
    f("sequential_prefetch_pages", c.sequential_prefetch_pages,
      kKeyed | kKnob);
    f("unobtrusive_eviction", c.unobtrusive_eviction, kKeyed | kKnob);
    f("ideal_eviction", c.ideal_eviction, kKeyed | kKnob);
    f("pcie_compression_ratio", c.pcie_compression_ratio, kKeyed | kKnob);
    f("root_chunk_pages", c.root_chunk_pages, kKeyed | kKnob);
    f("lifetime_window_cycles", c.lifetime_window_cycles, kKeyed | kKnob);
    f("lifetime_drop_threshold", c.lifetime_drop_threshold, kKeyed | kKnob);
}
BAUVM_FIELD_TABLE_COMPLETE(UvmConfig);

/** Thread-oversubscription (TO) parameters. */
struct ToConfig {
    bool enabled = false;
    /** Extra (inactive) thread blocks allocated per SM at kernel start. */
    std::uint32_t initial_extra_blocks = 1;
    /** Hard cap on extra blocks per SM the dynamic controller may reach. */
    std::uint32_t max_extra_blocks = 3;
    /** Bytes/cycle of global-memory bandwidth used to save/restore
     *  contexts (Eq. in paper section 6.5). */
    std::uint32_t ctx_switch_bytes_per_cycle = 128;
    /** Per-thread-block bookkeeping state saved besides registers. */
    std::uint64_t block_state_bytes = 5 * 1024;
    /** If true, context save/restore costs zero cycles (section 6.5's
     *  close-to-ideal shared-memory variant). */
    bool ideal_ctx_switch = false;
    /** If true, a block is also switched out when all its warps are
     *  merely waiting on memory (not page faults). This reproduces the
     *  "traditional GPU" context-switching cost experiment (Fig 5);
     *  the paper's TO proper only switches on page-fault stalls. */
    bool switch_on_memory_stall = false;
};
template <FieldsOf<ToConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("enabled", c.enabled, kKeyed | kKnob);
    f("initial_extra_blocks", c.initial_extra_blocks, kKeyed | kKnob);
    f("max_extra_blocks", c.max_extra_blocks, kKeyed | kKnob);
    f("ctx_switch_bytes_per_cycle", c.ctx_switch_bytes_per_cycle,
      kKeyed | kKnob);
    f("block_state_bytes", c.block_state_bytes, kKeyed);
    f("ideal_ctx_switch", c.ideal_ctx_switch, kKeyed | kKnob);
    f("switch_on_memory_stall", c.switch_on_memory_stall, kKeyed | kKnob);
}
BAUVM_FIELD_TABLE_COMPLETE(ToConfig);

/** Simulation tracing (src/trace) parameters. */
struct TraceConfig {
    /** Master switch: when false no TraceSink is built and every
     *  instrumentation site reduces to one null-pointer branch. */
    bool enabled = false;
    /** Ring capacity in 32-byte records; when the simulation emits
     *  more, the oldest records are overwritten and counted as
     *  dropped_events in the export. */
    std::uint64_t buffer_records = 1u << 20;
};
template <FieldsOf<TraceConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    // Not keyed: tracing is proven non-perturbing (CI byte-compares
    // traced vs untraced stdout), so traced and untraced runs share
    // cached results; buffer_records only sizes the observer ring.
    f("enabled", c.enabled, kNoFlags);
    f("buffer_records", c.buffer_records, kNoFlags);
}
BAUVM_FIELD_TABLE_COMPLETE(TraceConfig);

/** Online model auditing (src/check) parameters. */
struct CheckConfig {
    /** Master switch: when false no ModelAuditor is built and every
     *  hook site reduces to one null-pointer branch, exactly like
     *  disabled tracing. */
    bool enabled = false;
};
template <FieldsOf<CheckConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("enabled", c.enabled, kKeyed);
}
BAUVM_FIELD_TABLE_COMPLETE(CheckConfig);

/** ETC baseline (Li et al., ASPLOS'19) parameters. */
struct EtcConfig {
    bool enabled = false;
    /** Disabled for irregular apps. */
    bool proactive_eviction = false;
    bool memory_aware_throttling = true;
    bool capacity_compression = true;
    double compression_ratio = 1.5;  //!< effective capacity multiplier
    Cycle compression_latency = 8;   //!< added to every L2 access
    Cycle epoch_cycles = 200000;     //!< detection/execution epoch length
};
template <FieldsOf<EtcConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("enabled", c.enabled, kKeyed | kKnob);
    f("proactive_eviction", c.proactive_eviction, kKeyed);
    f("memory_aware_throttling", c.memory_aware_throttling, kKeyed | kKnob);
    f("capacity_compression", c.capacity_compression, kKeyed | kKnob);
    f("compression_ratio", c.compression_ratio, kKeyed | kKnob);
    f("compression_latency", c.compression_latency, kKeyed | kKnob);
    f("epoch_cycles", c.epoch_cycles, kKeyed | kKnob);
}
BAUVM_FIELD_TABLE_COMPLETE(EtcConfig);

/**
 * How the GpuMemoryManager arbitrates device frames between tenants
 * when several workloads share the GPU (core/tenant.h).
 */
enum class SharePolicy : std::uint8_t {
    /** No per-tenant accounting on the eviction path: the global LRU
     *  chunk order picks victims regardless of owner (a tenant can
     *  grow without bound at the others' expense). */
    FreeForAll = 0,
    /** Hard per-tenant frame caps: a tenant at its quota evicts its
     *  own oldest chunk and can never displace another tenant. */
    StrictQuota = 1,
    /** Weighted fair share: the victim is the tenant furthest above
     *  its weighted share of committed frames. */
    Proportional = 2,
};

/** Multi-tenant arbitration parameters. */
struct MtConfig {
    SharePolicy policy = SharePolicy::FreeForAll;
};
template <FieldsOf<MtConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("policy", c.policy, kKeyed | kKnob);
}
BAUVM_FIELD_TABLE_COMPLETE(MtConfig);

/** SM and grid-dispatch parameters. */
struct GpuConfig {
    std::uint32_t num_sms = 16;
    std::uint32_t max_threads_per_sm = 1024; //!< Table 1
    std::uint32_t max_blocks_per_sm = 16;
    std::uint64_t regfile_bytes_per_sm = 256 * 1024; //!< Table 1
    std::uint32_t warp_size = 32;
    std::uint32_t issue_width = 1; //!< instructions issued per SM cycle
    /** Arithmetic surrounding each memory instruction (index
     *  computation, predicate evaluation, ...), charged on the warp's
     *  completion path. */
    Cycle mem_op_overhead_cycles = 20;
};
template <FieldsOf<GpuConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("num_sms", c.num_sms, kKeyed | kKnob);
    f("max_threads_per_sm", c.max_threads_per_sm, kKeyed | kKnob);
    f("max_blocks_per_sm", c.max_blocks_per_sm, kKeyed | kKnob);
    f("regfile_bytes_per_sm", c.regfile_bytes_per_sm, kKeyed);
    f("warp_size", c.warp_size, kKeyed);
    f("issue_width", c.issue_width, kKeyed | kKnob);
    f("mem_op_overhead_cycles", c.mem_op_overhead_cycles, kKeyed | kKnob);
}
BAUVM_FIELD_TABLE_COMPLETE(GpuConfig);

/** Everything needed to run one simulation. */
struct SimConfig {
    GpuConfig gpu;
    MemConfig mem;
    UvmConfig uvm;
    ToConfig to;
    EtcConfig etc;
    TraceConfig trace;
    CheckConfig check;
    MtConfig mt;
    /**
     * GPU memory capacity as a fraction of the workload footprint
     * (the paper's oversubscription ratio). 1.0 means everything fits;
     * <= 0 means unlimited memory (no evictions ever).
     */
    double memory_ratio = 0.5;
    std::uint64_t seed = 1;
};
template <FieldsOf<SimConfig> S, class F>
constexpr void
forEachField(S &c, F &&f)
{
    f("gpu", c.gpu, kNoFlags);
    f("mem", c.mem, kNoFlags);
    f("uvm", c.uvm, kNoFlags);
    f("to", c.to, kNoFlags);
    f("etc", c.etc, kNoFlags);
    f("trace", c.trace, kNoFlags);
    f("check", c.check, kNoFlags);
    f("mt", c.mt, kNoFlags);
    f("memory_ratio", c.memory_ratio, kKeyed | kKnob);
    f("seed", c.seed, kKeyed);
}
BAUVM_FIELD_TABLE_COMPLETE(SimConfig);

} // namespace bauvm

#endif // BAUVM_SIM_CONFIG_H_
