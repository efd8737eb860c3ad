#include "src/core/system.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/sim/log.h"
#include "src/workloads/workload_registry.h"

namespace bauvm
{

GpuUvmSystem::GpuUvmSystem(const SimConfig &config)
    : config_(config),
      trace_(config.trace.enabled
                 ? std::make_unique<TraceSink>(config.trace.buffer_records)
                 : nullptr),
      audit_(config.check.enabled
                 ? std::make_unique<ModelAuditor>(config.uvm, &events_,
                                                  trace_.get())
                 : nullptr),
      hooks_{trace_.get(), audit_.get(), &events_},
      manager_(config.uvm, /*capacity: set after build*/ 0, hooks_),
      hierarchy_(config_.mem, config_.gpu.num_sms, config_.uvm.page_bytes,
                 manager_.pageTable(), hooks_),
      runtime_(config_.uvm, events_, manager_, hierarchy_, hooks_),
      gpu_(config_, events_, hierarchy_, runtime_, hooks_)
{
    if (config_.etc.enabled) {
        etc_ = std::make_unique<EtcFramework>(
            config_.etc, EtcAppClass::Irregular, manager_, hierarchy_,
            runtime_, gpu_.dispatcher(), config_.gpu.num_sms);
        runtime_.setBatchEndCallback(
            [this](const BatchRecord &) {
                etc_->onBatchEnd(events_.now());
            });
    }
}

void
GpuUvmSystem::clearTenants()
{
    runtime_.clearAdviceCallbacks();
    runtime_.setTenantHierarchies({});
    tenant_gpus_.clear();
    tenant_hierarchies_.clear();
}

RunResult
GpuUvmSystem::run(Workload &workload, WorkloadScale scale)
{
    workload.build(scale, config_.seed);
    if (audit_)
        audit_->setContext(workload.name());

    for (const auto &range : workload.allocator().ranges())
        runtime_.registerAllocation(range.base, range.bytes);

    const std::uint64_t footprint_pages =
        workload.allocator().footprintPages();
    if (config_.memory_ratio > 0.0) {
        auto capacity = static_cast<std::uint64_t>(
            std::ceil(config_.memory_ratio *
                      static_cast<double>(footprint_pages)));
        capacity = std::max<std::uint64_t>(capacity, 4);
        manager_.setCapacityPages(capacity);
    } // else: unlimited (capacity 0)

    if (etc_)
        etc_->applyStatic();

    if (config_.uvm.preload) {
        // Traditional GPU: cudaMemcpy'd everything up front.
        if (config_.memory_ratio > 0.0 && config_.memory_ratio < 1.0)
            fatal("preload requires memory_ratio >= 1 or unlimited");
        for (const auto &range : workload.allocator().ranges()) {
            const PageNum first = range.base / config_.uvm.page_bytes;
            const PageNum last = (range.base + range.bytes - 1) /
                                 config_.uvm.page_bytes;
            for (PageNum vpn = first; vpn <= last; ++vpn) {
                if (manager_.isResident(vpn))
                    continue;
                if (audit_)
                    audit_->onPreload(vpn);
                manager_.reserveFrame();
                manager_.commitPage(vpn, events_.now());
            }
        }
    }

    RunResult r;
    r.workload = workload.name();
    r.seed = config_.seed;
    r.footprint_bytes = workload.footprintBytes();
    r.capacity_pages = manager_.capacityPages();

    const Cycle begin = events_.now();
    const std::uint64_t events_begin = events_.executedEvents();
    const auto wall_begin = std::chrono::steady_clock::now();
    KernelInfo kernel;
    while (workload.nextKernel(&kernel)) {
        gpu_.runKernel(kernel);
        ++r.kernels;
    }
    r.cycles = events_.now() - begin;
    r.sim_events = events_.executedEvents() - events_begin;
    r.event_order_digest = events_.orderDigest();
    r.host_wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_begin)
                        .count();
    r.events_per_sec = r.host_wall_s > 0.0
                           ? static_cast<double>(r.sim_events) /
                                 r.host_wall_s
                           : 0.0;

    r.instructions = gpu_.totalIssuedInstructions();
    r.batches = runtime_.batches();
    r.avg_batch_pages = runtime_.averageBatchPages();
    r.avg_batch_time = runtime_.averageProcessingTime();
    r.avg_handling_time = runtime_.averageHandlingTime();
    r.demand_pages = runtime_.demandFaultPages();
    r.prefetched_pages = runtime_.prefetchedPages();
    r.migrations = manager_.migrations();
    r.evictions = manager_.evictions();
    r.premature_evictions = manager_.prematureEvictions();
    r.premature_rate = manager_.prematureEvictionRate();
    r.context_switches = gpu_.vtc().contextSwitches();
    r.context_switch_cycles = gpu_.vtc().switchCycles();
    r.pcie_h2d_bytes = runtime_.pcie().bytesMoved(PcieDir::HostToDevice);
    r.pcie_d2h_bytes = runtime_.pcie().bytesMoved(PcieDir::DeviceToHost);
    r.translations = hierarchy_.accesses();
    r.tlb_hit_rate = hierarchy_.tlbHitRate();
    r.faults_per_kcycle =
        r.cycles ? 1000.0 * static_cast<double>(hierarchy_.faults()) /
                       static_cast<double>(r.cycles)
                 : 0.0;
    if (audit_) {
        audit_->finalize(r, manager_.committedFrames(),
                         manager_.pageTable().residentPages());
    }
    // Last: the runtime hands its batch records over, not a copy.
    r.batch_records = runtime_.takeBatchLog();
    return r;
}

namespace
{

std::uint64_t
lcm64(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a, y = b;
    while (y != 0) {
        const std::uint64_t t = x % y;
        x = y;
        y = t;
    }
    return a / x * b;
}

/** Per-tenant in-flight kernel state for the shared-queue run. */
struct TenantRun {
    Workload *workload = nullptr;
    Gpu *gpu = nullptr;
    KernelInfo kernel; //!< storage for the in-flight kernel
    bool done = false;
    Cycle done_cycle = 0;
    std::uint64_t kernels = 0;
};

} // namespace

std::string
multiTenantRefusal(const SimConfig &config, std::size_t tenants)
{
    if (config.etc.enabled)
        return "ETC is not supported in multi-tenant runs";
    if (config.uvm.preload)
        return "preload is not supported in multi-tenant runs";
    if (!(config.memory_ratio > 0.0))
        return "multi-tenant runs need a finite memory ratio";
    if (config.gpu.num_sms < tenants)
        return std::to_string(tenants) + " tenants need at least " +
               std::to_string(tenants) + " SMs";
    return "";
}

RunResult
GpuUvmSystem::run(const std::vector<TenantSpec> &specs)
{
    if (specs.empty())
        fatal("GpuUvmSystem: empty tenant mix");
    for (const TenantSpec &spec : specs)
        if (!validTenantQuota(spec.quota))
            fatal("GpuUvmSystem: the quota of '%s' must be a finite "
                  "number >= 0",
                  spec.workload.c_str());
    const std::string refusal =
        multiTenantRefusal(config_, specs.size());
    if (!refusal.empty())
        fatal("GpuUvmSystem: %s", refusal.c_str());
    const auto n = static_cast<std::uint32_t>(specs.size());

    // --- Build every tenant into its own VA slice. Slices are aligned
    // to both the prefetch-tree span and the eviction chunk, so no
    // structure the runtime moves as a unit ever spans two tenants.
    const std::uint64_t page = config_.uvm.page_bytes;
    const std::uint64_t align = lcm64(
        std::max<std::uint64_t>(config_.uvm.va_block_bytes / page, 1),
        config_.uvm.root_chunk_pages);
    tenant_dir_ = std::make_unique<TenantDirectory>(config_.mt.policy);
    tenant_workloads_.clear();
    clearTenants();

    std::vector<TenantContext> contexts(n);
    PageNum next_page = 0;
    std::uint64_t total_footprint_pages = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        auto workload =
            WorkloadRegistry::instance().create(specs[i].workload);
        TenantContext &ctx = contexts[i];
        ctx.id = static_cast<TenantId>(i);
        ctx.workload = specs[i].workload;
        ctx.seed = deriveTenantSeed(config_.seed, i);
        ctx.first_vpn = next_page;
        workload->allocator().rebase(ctx.first_vpn * page);
        workload->build(specs[i].scale, ctx.seed);
        const PageNum watermark =
            (workload->allocator().watermark() + page - 1) / page;
        next_page = (watermark + align - 1) / align * align;
        ctx.end_vpn = next_page;
        ctx.footprint_pages = workload->allocator().footprintPages();
        total_footprint_pages += ctx.footprint_pages;
        for (const auto &range : workload->allocator().ranges())
            runtime_.registerAllocation(range.base, range.bytes);
        tenant_workloads_.push_back(std::move(workload));
    }

    // --- Device capacity and per-tenant budgets.
    auto capacity = static_cast<std::uint64_t>(
        std::ceil(config_.memory_ratio *
                  static_cast<double>(total_footprint_pages)));
    capacity = std::max<std::uint64_t>(capacity, 4);
    manager_.setCapacityPages(capacity);

    double quota_sum = 0.0;
    for (const TenantSpec &spec : specs)
        quota_sum += spec.quota;
    for (std::uint32_t i = 0; i < n; ++i) {
        const double share = quota_sum > 0.0
                                 ? specs[i].quota / quota_sum
                                 : 1.0 / static_cast<double>(n);
        TenantContext &ctx = contexts[i];
        ctx.weight = share;
        ctx.quota_pages = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                share * static_cast<double>(capacity)),
            4);
        tenant_dir_->add(ctx);
    }

    // --- Wire tenancy through the stack.
    manager_.setTenantDirectory(tenant_dir_.get());
    runtime_.setTenantDirectory(tenant_dir_.get());
    if (audit_) {
        audit_->setTenantDirectory(tenant_dir_.get());
        audit_->setContext(tenantMixLabel(specs));
    }

    // --- Partition the SMs: tenant i gets a contiguous share, its own
    // GPU front end and cache/TLB hierarchy, all on the shared event
    // queue, runtime and memory manager. clearTenants() dropped the
    // default gpu_'s advice sink; each tenant GPU registers its own,
    // and eviction shootdowns route to the owner's hierarchy.
    const std::uint32_t base_sms = config_.gpu.num_sms / n;
    const std::uint32_t extra_sms = config_.gpu.num_sms % n;
    std::uint32_t track_base = 0;
    std::vector<MemoryHierarchy *> routes;
    for (std::uint32_t i = 0; i < n; ++i) {
        SimConfig tenant_config = config_;
        tenant_config.gpu.num_sms = base_sms + (i < extra_sms ? 1 : 0);
        tenant_hierarchies_.push_back(std::make_unique<MemoryHierarchy>(
            tenant_config.mem, tenant_config.gpu.num_sms, page,
            manager_.pageTable(), hooks_));
        routes.push_back(tenant_hierarchies_.back().get());
        tenant_gpus_.push_back(std::make_unique<Gpu>(
            tenant_config, events_, *tenant_hierarchies_.back(), runtime_,
            hooks_, track_base));
        track_base += tenant_config.gpu.num_sms;
    }
    runtime_.setTenantHierarchies(std::move(routes));

    // --- Run every tenant's kernel chain on the shared queue. Each
    // tenant launches its next kernel from a zero-delay event (never
    // from inside the dispatcher's completion callback, which is
    // still unwinding), so tenants progress independently until the
    // queue drains.
    RunResult r;
    r.workload = tenantMixLabel(specs);
    r.seed = config_.seed;
    r.capacity_pages = manager_.capacityPages();
    for (const auto &w : tenant_workloads_)
        r.footprint_bytes += w->footprintBytes();

    std::vector<TenantRun> runs(n);
    std::function<void(std::uint32_t)> launch_next =
        [&](std::uint32_t i) {
            TenantRun &t = runs[i];
            if (!t.workload->nextKernel(&t.kernel)) {
                t.done = true;
                t.done_cycle = events_.now();
                return;
            }
            ++t.kernels;
            t.gpu->launchKernel(&t.kernel, [&, i] {
                events_.scheduleAfter(0,
                                      [&, i] { launch_next(i); });
            });
        };

    const Cycle begin = events_.now();
    const std::uint64_t events_begin = events_.executedEvents();
    const auto wall_begin = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < n; ++i) {
        runs[i].workload = tenant_workloads_[i].get();
        runs[i].gpu = tenant_gpus_[i].get();
        launch_next(i);
    }
    events_.run();
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!runs[i].done) {
            panic("GpuUvmSystem: event queue drained but tenant %u "
                  "(%s) has not finished (simulator deadlock)",
                  i, specs[i].workload.c_str());
        }
    }

    r.cycles = events_.now() - begin;
    r.sim_events = events_.executedEvents() - events_begin;
    r.event_order_digest = events_.orderDigest();
    r.host_wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_begin)
                        .count();
    r.events_per_sec = r.host_wall_s > 0.0
                           ? static_cast<double>(r.sim_events) /
                                 r.host_wall_s
                           : 0.0;

    for (std::uint32_t i = 0; i < n; ++i)
        r.instructions += tenant_gpus_[i]->totalIssuedInstructions();
    r.batches = runtime_.batches();
    r.avg_batch_pages = runtime_.averageBatchPages();
    r.avg_batch_time = runtime_.averageProcessingTime();
    r.avg_handling_time = runtime_.averageHandlingTime();
    r.demand_pages = runtime_.demandFaultPages();
    r.prefetched_pages = runtime_.prefetchedPages();
    r.migrations = manager_.migrations();
    r.evictions = manager_.evictions();
    r.premature_evictions = manager_.prematureEvictions();
    r.premature_rate = manager_.prematureEvictionRate();
    for (std::uint32_t i = 0; i < n; ++i) {
        r.context_switches +=
            tenant_gpus_[i]->vtc().contextSwitches();
        r.context_switch_cycles +=
            tenant_gpus_[i]->vtc().switchCycles();
    }
    r.pcie_h2d_bytes = runtime_.pcie().bytesMoved(PcieDir::HostToDevice);
    r.pcie_d2h_bytes = runtime_.pcie().bytesMoved(PcieDir::DeviceToHost);
    std::uint64_t hierarchy_faults = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        r.translations += tenant_hierarchies_[i]->accesses();
        hierarchy_faults += tenant_hierarchies_[i]->faults();
    }
    {
        double hits = 0.0;
        for (std::uint32_t i = 0; i < n; ++i) {
            hits += tenant_hierarchies_[i]->tlbHitRate() *
                    static_cast<double>(
                        tenant_hierarchies_[i]->accesses());
        }
        r.tlb_hit_rate = r.translations
                             ? hits / static_cast<double>(
                                          r.translations)
                             : 0.0;
    }
    r.faults_per_kcycle =
        r.cycles ? 1000.0 * static_cast<double>(hierarchy_faults) /
                       static_cast<double>(r.cycles)
                 : 0.0;

    r.tenants.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto id = static_cast<TenantId>(i);
        TenantResult &t = r.tenants[i];
        t.id = id;
        t.workload = specs[i].workload;
        t.seed = contexts[i].seed;
        t.cycles = runs[i].done_cycle - begin;
        t.kernels = runs[i].kernels;
        t.instructions =
            tenant_gpus_[i]->totalIssuedInstructions();
        t.footprint_bytes = tenant_workloads_[i]->footprintBytes();
        t.quota_pages = contexts[i].quota_pages;
        t.demand_pages = runtime_.demandPagesOf(id);
        t.evictions_caused = manager_.evictionsCausedBy(id);
        t.evictions_suffered = manager_.evictionsSufferedBy(id);
        t.peak_resident_pages = manager_.peakCommittedFramesOf(id);
        t.avg_lifetime_cycles = manager_.avgLifetimeOf(id);
        r.kernels += t.kernels;
    }

    if (audit_) {
        audit_->finalize(r, manager_.committedFrames(),
                         manager_.pageTable().residentPages());
    }
    // Last: the runtime hands its batch records over, not a copy.
    r.batch_records = runtime_.takeBatchLog();
    return r;
}

RunResult
runWorkload(const SimConfig &config, const std::string &name,
            WorkloadScale scale, bool validate)
{
    auto workload = WorkloadRegistry::instance().create(name);
    GpuUvmSystem system(config);
    RunResult result = system.run(*workload, scale);
    if (validate)
        workload->validate();
    return result;
}

RunResult
runTenantMix(const SimConfig &config,
             const std::vector<TenantSpec> &specs, bool validate)
{
    GpuUvmSystem system(config);
    RunResult result = system.run(specs);
    if (validate) {
        for (const auto &workload : system.tenantWorkloads())
            workload->validate();
    }
    return result;
}

} // namespace bauvm
