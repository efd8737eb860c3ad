/**
 * @file
 * Unified-memory device arrays.
 *
 * DeviceArray<T> pairs a host-backed functional store with a virtual
 * address range in the simulated unified address space. Kernels read
 * and write elements directly (the functional side) and yield the
 * element addresses to the timing model (the performance side); the UVM
 * runtime migrates the pages those addresses live on.
 *
 * DeviceView<T, Host> is the read-only counterpart for inputs the host
 * already holds (the cached CSR graph), read in place instead of copied.
 */

#ifndef BAUVM_WORKLOADS_DEVICE_ARRAY_H_
#define BAUVM_WORKLOADS_DEVICE_ARRAY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/sim/log.h"
#include "src/sim/types.h"

namespace bauvm
{

/** Page-aligned bump allocator for the unified address space. */
class DeviceAllocator
{
  public:
    /** @param page_bytes UVM page size (allocation alignment). */
    explicit DeviceAllocator(std::uint64_t page_bytes = 64 * 1024)
        : page_bytes_(page_bytes), next_(page_bytes)
    {
    }

    /** One registered allocation range. */
    struct Range {
        VAddr base;
        std::uint64_t bytes;
        std::string name;
    };

    /** Reserves @p bytes, page aligned. */
    VAddr
    allocate(std::uint64_t bytes, std::string name)
    {
        if (bytes == 0)
            fatal("DeviceAllocator: zero-byte allocation '%s'",
                  name.c_str());
        const VAddr base = next_;
        const std::uint64_t rounded =
            (bytes + page_bytes_ - 1) / page_bytes_ * page_bytes_;
        next_ += rounded;
        ranges_.push_back(Range{base, bytes, std::move(name)});
        return base;
    }

    const std::vector<Range> &ranges() const { return ranges_; }
    std::uint64_t pageBytes() const { return page_bytes_; }

    /**
     * Moves the bump pointer to @p base before anything is allocated,
     * placing all subsequent allocations in [base + page, ...). Used by
     * multi-tenant runs to give each tenant a disjoint VA slice. Keeps
     * the one-page guard so vpn 0 relative to the slice stays unmapped.
     */
    void
    rebase(VAddr base)
    {
        if (!ranges_.empty())
            fatal("DeviceAllocator: rebase after allocation");
        if (base % page_bytes_ != 0)
            fatal("DeviceAllocator: rebase to unaligned base");
        next_ = base + page_bytes_;
    }

    /** First unallocated virtual address (page aligned). */
    VAddr watermark() const { return next_; }

    /** Total footprint in bytes, rounded up to whole pages. */
    std::uint64_t
    footprintBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &r : ranges_) {
            total += (r.bytes + page_bytes_ - 1) / page_bytes_ *
                     page_bytes_;
        }
        return total;
    }

    /** Footprint in pages. */
    std::uint64_t
    footprintPages() const
    {
        return footprintBytes() / page_bytes_;
    }

  private:
    std::uint64_t page_bytes_;
    VAddr next_;
    std::vector<Range> ranges_;
};

/** A typed array living in unified memory. */
template <typename T>
class DeviceArray
{
  public:
    DeviceArray() = default;

    DeviceArray(DeviceAllocator &alloc, std::size_t n, std::string name)
        : data_(n), base_(alloc.allocate(n * sizeof(T), std::move(name)))
    {
    }

    std::size_t size() const { return data_.size(); }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /** Virtual address of element @p i. */
    VAddr addr(std::size_t i) const { return base_ + i * sizeof(T); }

    VAddr base() const { return base_; }

    std::vector<T> &host() { return data_; }
    const std::vector<T> &host() const { return data_; }

    void fill(const T &v) { std::fill(data_.begin(), data_.end(), v); }

  private:
    std::vector<T> data_;
    VAddr base_ = 0;
};

/**
 * A read-only array in unified memory over caller-owned host storage.
 * The simulated elements are sizeof(T) bytes wide, exactly as in a
 * DeviceArray<T> of the same length, so addresses and footprints do
 * not depend on how the host stores the values; element i is read from
 * host[i] and widened to T. The storage must outlive the view. There
 * is no mutator: shared inputs cannot be written through a view.
 */
template <typename T, typename Host = T>
class DeviceView
{
  public:
    DeviceView() = default;

    DeviceView(DeviceAllocator &alloc, std::span<const Host> host,
               std::string name)
        : DeviceView(alloc, host, host.size(), std::move(name))
    {
    }

    /** Reserves @p n >= host.size() elements; those past the host
     *  storage have addresses but no values. */
    DeviceView(DeviceAllocator &alloc, std::span<const Host> host,
               std::size_t n, std::string name)
        : host_(host), base_(alloc.allocate(n * sizeof(T), std::move(name)))
    {
        if (n < host.size())
            fatal("DeviceView: range shorter than its host storage");
    }

    T operator[](std::size_t i) const { return static_cast<T>(host_[i]); }

    /** Virtual address of element @p i. */
    VAddr addr(std::size_t i) const { return base_ + i * sizeof(T); }

  private:
    std::span<const Host> host_;
    VAddr base_ = 0;
};

} // namespace bauvm

#endif // BAUVM_WORKLOADS_DEVICE_ARRAY_H_
