/**
 * @file
 * Tests for the sweep service subsystem (src/serve): the JSON parser,
 * the result aggregator, content addressing, the on-disk result
 * cache, request parsing/expansion, and the daemon itself — sharding,
 * caching, cross-request dedupe, hard timeouts, and kill-and-resume
 * equivalence against the serial in-process reference.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/core/presets.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/runner/cell_spec.h"
#include "src/runner/job.h"
#include "src/runner/sweep_result.h"
#include "src/serve/aggregator.h"
#include "src/serve/cell_json.h"
#include "src/serve/client.h"
#include "src/serve/json.h"
#include "src/serve/result_cache.h"
#include "src/serve/sweep_request.h"
#include "src/serve/sweep_service.h"

namespace bauvm
{
namespace
{

JsonValue
parseOrDie(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, &v, &error)) << error;
    return v;
}

/**
 * Canonical re-serialization of a parsed JSON tree with the
 * execution-provenance members removed (the fields that legitimately
 * differ between a serial run, a sharded daemon run, and a cache
 * replay — the C++ twin of ci/check_sweep_equiv.py's strip set).
 * Member order is preserved, so two documents produced by the same
 * writer compare equal iff their deterministic content matches.
 */
void
canonStripped(const JsonValue &v, std::string *out)
{
    static const std::vector<std::string> kProvenance = {
        "wall_s",     "host_wall_s", "events_per_sec", "elapsed_s",
        "jobs",       "worker_pid",  "hostname",       "cached",
    };
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        *out += "null";
        return;
      case JsonValue::Kind::Bool:
        *out += v.asBool() ? "true" : "false";
        return;
      case JsonValue::Kind::Number: {
        const double d = v.asDouble();
        if (std::floor(d) == d && d >= 0.0 && d <= 1.8e19) {
            // Plain unsigned tokens (seeds, counters) round-trip
            // exactly through asU64 even above 2^53.
            char buf[32];
            std::snprintf(buf, sizeof buf, "%llu",
                          static_cast<unsigned long long>(v.asU64()));
            *out += buf;
        } else {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", d);
            *out += buf;
        }
        return;
      }
      case JsonValue::Kind::String:
        *out += '"';
        *out += v.asString();
        *out += '"';
        return;
      case JsonValue::Kind::Array:
        *out += '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                *out += ',';
            canonStripped(v.at(i), out);
        }
        *out += ']';
        return;
      case JsonValue::Kind::Object:
        *out += '{';
        bool first = true;
        for (const auto &m : v.members()) {
            bool skip = false;
            for (const auto &p : kProvenance)
                skip = skip || m.first == p;
            if (skip)
                continue;
            if (!first)
                *out += ',';
            first = false;
            *out += '"';
            *out += m.first;
            *out += "\":";
            canonStripped(m.second, out);
        }
        *out += '}';
        return;
    }
}

std::string
strippedDoc(const std::string &json_text)
{
    std::string canon;
    canonStripped(parseOrDie(json_text), &canon);
    return canon;
}

std::size_t
cacheEntryCount(const std::string &dir)
{
    std::size_t n = 0;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator
             it(dir, ec), end; it != end; it.increment(ec)) {
        if (ec)
            break;
        if (it->is_regular_file() &&
            it->path().extension() == ".json")
            ++n;
    }
    return n;
}

std::string
requestJson(const std::string &extra = "")
{
    // No explicit "seed": the parser defaults it to 1, and callers
    // can pass "seed": N via @p extra without creating a duplicate
    // member.
    return "{\"schema\": \"bauvm.sweep-request/1\","
           " \"bench\": \"serve_test\","
           " \"workloads\": [\"BFS-TWC\", \"PR\"],"
           " \"policies\": [\"BASELINE\", \"TO+UE\"],"
           " \"scale\": \"tiny\", \"ratio\": 0.5" +
           (extra.empty() ? "" : ", " + extra) + "}";
}

/** An in-process daemon on its own thread, stopped on scope exit. */
class ServiceFixture
{
  public:
    explicit ServiceFixture(SweepServiceOptions opt)
        : service_(std::move(opt))
    {
        std::string error;
        if (!service_.start(&error)) {
            ADD_FAILURE() << "service start failed: " << error;
            return;
        }
        started_ = true;
        thread_ = std::thread([this] { service_.run(); });
        EXPECT_TRUE(waitForService(service_.socketPath(), 10.0));
    }

    ~ServiceFixture()
    {
        if (started_) {
            service_.stop();
            thread_.join();
        }
    }

    SweepService &service() { return service_; }
    const std::string &socket() { return service_.socketPath(); }

  private:
    SweepService service_;
    std::thread thread_;
    bool started_ = false;
};

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

TEST(JsonParse, ScalarsStringsAndNesting)
{
    const JsonValue v = parseOrDie(
        "{\"s\": \"a\\\"b\\\\c\\nd\", \"b\": true, \"n\": null,"
        " \"d\": -1.5, \"arr\": [1, \"x\", {\"k\": 2}]}");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.getString("s"), "a\"b\\c\nd");
    EXPECT_TRUE(v.getBool("b"));
    ASSERT_NE(v.find("n"), nullptr);
    EXPECT_TRUE(v.find("n")->isNull());
    EXPECT_DOUBLE_EQ(v.getDouble("d"), -1.5);

    const JsonValue *arr = v.find("arr");
    ASSERT_NE(arr, nullptr);
    ASSERT_TRUE(arr->isArray());
    ASSERT_EQ(arr->size(), 3u);
    EXPECT_EQ(arr->at(0).asU64(), 1u);
    EXPECT_EQ(arr->at(1).asString(), "x");
    EXPECT_EQ(arr->at(2).getU64("k"), 2u);
}

TEST(JsonParse, U64KeepsFullPrecision)
{
    // 2^64 - 1 is not representable as a double; the raw token must
    // survive. Seeds and cycle counters rely on this.
    const JsonValue v =
        parseOrDie("{\"seed\": 18446744073709551615}");
    EXPECT_EQ(v.getU64("seed"), 18446744073709551615ull);

    const JsonValue big = parseOrDie("{\"c\": 9007199254740993}");
    EXPECT_EQ(big.getU64("c"), 9007199254740993ull); // 2^53 + 1
}

TEST(JsonParse, ReportsErrors)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::parse("{\"a\": }", &v, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(JsonValue::parse("{} trailing", &v, &error));
    EXPECT_FALSE(JsonValue::parse("", &v, &error));
    EXPECT_TRUE(JsonValue::parse("{}  \n", &v, &error)) << error;
}

// ---------------------------------------------------------------------
// Result aggregator
// ---------------------------------------------------------------------

TEST(ResultAggregatorTest, FlushesAtCapacityAndOnScopeExit)
{
    std::vector<std::vector<std::string>> batches;
    {
        ResultAggregator agg(
            [&](const std::vector<std::string> &items) {
                batches.push_back(items);
            },
            3);
        EXPECT_EQ(agg.capacity(), 3u);
        for (int i = 0; i < 7; ++i)
            agg.add(std::to_string(i));
        EXPECT_EQ(batches.size(), 2u); // 3 + 3 shipped, 1 pending
        EXPECT_EQ(agg.pending(), 1u);
        EXPECT_EQ(agg.flushes(), 2u);
        agg.flush();
        agg.flush(); // empty: must not ship a zero-item batch
        EXPECT_EQ(batches.size(), 3u);
        agg.add("tail");
    } // destructor is the barrier
    ASSERT_EQ(batches.size(), 4u);
    EXPECT_EQ(batches[0],
              (std::vector<std::string>{"0", "1", "2"}));
    EXPECT_EQ(batches[2], (std::vector<std::string>{"6"}));
    EXPECT_EQ(batches[3], (std::vector<std::string>{"tail"}));
}

// ---------------------------------------------------------------------
// Content addressing
// ---------------------------------------------------------------------

/** Moves one config leaf off its default value. */
template <class T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
    else
        v = v + 1;
}

TEST(CellDigest, StableUniqueAndInvalidating)
{
    CellSpec spec;
    spec.workload = "BFS-TWC";
    spec.policy = Policy::Baseline;
    spec.scale = WorkloadScale::Tiny;

    const std::string key =
        cellKey(spec.workload, spec.scale, cellConfig(spec), "rev1");
    const std::string digest = digestHex(key);
    EXPECT_EQ(digest.size(), 32u);
    EXPECT_EQ(digest, digestHex(key)); // pure function

    // Every coordinate that changes simulated behaviour must change
    // the address: policy, any config knob, the seed, the code rev.
    CellSpec to = spec;
    to.policy = Policy::ToUe;
    EXPECT_NE(digestHex(cellKey(to.workload, to.scale, cellConfig(to),
                                "rev1")),
              digest);

    CellSpec knob = spec;
    knob.overrides.push_back({"uvm.fault_buffer_entries", 1000.0});
    EXPECT_NE(digestHex(cellKey(knob.workload, knob.scale,
                                cellConfig(knob), "rev1")),
              digest);

    CellSpec seeded = spec;
    seeded.base_seed = 2;
    EXPECT_NE(digestHex(cellKey(seeded.workload, seeded.scale,
                                cellConfig(seeded), "rev1")),
              digest);

    EXPECT_NE(digestHex(cellKey(spec.workload, spec.scale,
                                cellConfig(spec), "rev2")),
              digest);

    // Pinned before the key was derived from the field table: every
    // existing result cache must keep its addresses.
    CellSpec toue = spec;
    toue.policy = Policy::ToUe;
    EXPECT_EQ(digestHex(canonicalConfigString(cellConfig(toue))),
              "72ead01a022a7c4ccb0b602622bbe1c8");
    EXPECT_EQ(digestHex(cellKey(toue.workload, toue.scale,
                                cellConfig(toue), "rev1")),
              "d24c575d01547842a9c927cecc1fcae7");
    EXPECT_EQ(digest, "49421768b439a4f42873230909735e60");

    // Perturbing any keyed leaf changes the key; trace.* are the only
    // leaves left out, and perturbing them changes nothing.
    const SimConfig defaults;
    const std::string base = canonicalConfigString(defaults);
    std::size_t keyed = 0;
    forEachLeaf(defaults, [&](const std::string &name, const auto &,
                              unsigned flags) {
        SimConfig changed;
        forEachLeaf(changed, [&](const std::string &other, auto &field,
                                 unsigned) {
            if (other == name)
                perturb(field);
        });
        const bool is_keyed = (flags & kKeyed) != 0;
        EXPECT_EQ(canonicalConfigString(changed) != base, is_keyed)
            << name;
        EXPECT_EQ(is_keyed, name.rfind("trace.", 0) != 0) << name;
        keyed += is_keyed;
    });
    EXPECT_EQ(keyed, 65u);

    // The override set is fixed: a new config field is not a knob
    // until someone flags it kKnob on purpose.
    EXPECT_EQ(knownOverrideKeys(),
              (std::vector<std::string>{
                  "etc.capacity_compression",
                  "etc.compression_latency",
                  "etc.compression_ratio",
                  "etc.enabled",
                  "etc.epoch_cycles",
                  "etc.memory_aware_throttling",
                  "gpu.issue_width",
                  "gpu.max_blocks_per_sm",
                  "gpu.max_threads_per_sm",
                  "gpu.mem_op_overhead_cycles",
                  "gpu.num_sms",
                  "mem.dram_bytes_per_cycle",
                  "mem.dram_latency",
                  "mem.mshrs_per_sm",
                  "mem.walker_threads",
                  "memory_ratio",
                  "mt.policy",
                  "to.ctx_switch_bytes_per_cycle",
                  "to.enabled",
                  "to.ideal_ctx_switch",
                  "to.initial_extra_blocks",
                  "to.max_extra_blocks",
                  "to.switch_on_memory_stall",
                  "uvm.fault_buffer_entries",
                  "uvm.fault_handling_per_page_us",
                  "uvm.fault_handling_us",
                  "uvm.ideal_eviction",
                  "uvm.interrupt_latency_us",
                  "uvm.lifetime_drop_threshold",
                  "uvm.lifetime_window_cycles",
                  "uvm.pcie_compression_ratio",
                  "uvm.pcie_d2h_gbps",
                  "uvm.pcie_gbps",
                  "uvm.prefetch_density",
                  "uvm.prefetch_enabled",
                  "uvm.preload",
                  "uvm.root_chunk_pages",
                  "uvm.sequential_prefetch_pages",
                  "uvm.unobtrusive_eviction",
                  "uvm.va_block_bytes",
              }));
}

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

CellOutcome
fakeOutcome(const std::string &workload, std::uint64_t cycles)
{
    CellOutcome out;
    out.workload = workload;
    out.policy = Policy::Baseline;
    out.seed = 7;
    out.job_seed = 8;
    out.ok = true;
    out.digest = "unused-by-store";
    out.result.workload = workload;
    out.result.seed = 7;
    out.result.cycles = cycles;
    out.result.batches = 3;
    return out;
}

TEST(ResultCacheTest, StoreThenLookupHits)
{
    const std::string dir = tempPath("rc_hit");
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);

    const std::string key = "bauvm.cell/1|rev|W|tiny|cfg";
    const std::string digest = digestHex(key);
    EXPECT_FALSE(cache.contains(digest));

    CellOutcome miss;
    EXPECT_FALSE(cache.lookup(digest, key, &miss));
    EXPECT_EQ(cache.misses(), 1u);

    ASSERT_TRUE(cache.store(digest, key, fakeOutcome("W", 12345)));
    EXPECT_EQ(cache.stores(), 1u);
    EXPECT_TRUE(cache.contains(digest));

    CellOutcome hit;
    ASSERT_TRUE(cache.lookup(digest, key, &hit));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_TRUE(hit.ok);
    EXPECT_TRUE(hit.from_cache);
    EXPECT_EQ(hit.workload, "W");
    EXPECT_EQ(hit.result.cycles, 12345u);
    EXPECT_EQ(hit.result.batches, 3u);
}

TEST(ResultCacheTest, BatchRecordsSurviveRoundTrip)
{
    // Figs 3/12-16 replay from cached cells, so the per-batch records
    // must survive the store/lookup round-trip exactly — a resumed
    // run must not differ from a fresh one.
    const std::string dir = tempPath("rc_batchrec");
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);

    CellOutcome out = fakeOutcome("W", 42);
    BatchRecord a;
    a.begin = 100;
    a.first_transfer = 110;
    a.end = 150;
    a.fault_pages = 7;
    a.prefetch_pages = 3;
    a.duplicate_faults = 1;
    a.migrated_bytes = 65536;
    BatchRecord b;
    b.begin = 200;
    b.first_transfer = 205;
    b.end = 260;
    b.fault_pages = 9;
    b.migrated_bytes = 4096;
    out.result.batch_records = {a, b};

    const std::string key = "bauvm.cell/1|rev|W|tiny|cfg-br";
    const std::string digest = digestHex(key);
    ASSERT_TRUE(cache.store(digest, key, out));

    CellOutcome hit;
    ASSERT_TRUE(cache.lookup(digest, key, &hit));
    ASSERT_EQ(hit.result.batch_records.size(), 2u);
    const BatchRecord &ra = hit.result.batch_records[0];
    EXPECT_EQ(ra.begin, a.begin);
    EXPECT_EQ(ra.first_transfer, a.first_transfer);
    EXPECT_EQ(ra.end, a.end);
    EXPECT_EQ(ra.fault_pages, a.fault_pages);
    EXPECT_EQ(ra.prefetch_pages, a.prefetch_pages);
    EXPECT_EQ(ra.duplicate_faults, a.duplicate_faults);
    EXPECT_EQ(ra.migrated_bytes, a.migrated_bytes);
    const BatchRecord &rb = hit.result.batch_records[1];
    EXPECT_EQ(rb.begin, b.begin);
    EXPECT_EQ(rb.end, b.end);
    EXPECT_EQ(rb.fault_pages, b.fault_pages);
    EXPECT_EQ(rb.migrated_bytes, b.migrated_bytes);
}

TEST(ResultCacheTest, KeyMismatchReadsAsMiss)
{
    // A digest collision (or a corrupted entry) must never serve a
    // wrong result: the stored full key is verified on lookup.
    const std::string dir = tempPath("rc_keycheck");
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);

    const std::string key = "bauvm.cell/1|rev|W|tiny|cfgA";
    const std::string digest = digestHex(key);
    ASSERT_TRUE(cache.store(digest, key, fakeOutcome("W", 1)));

    CellOutcome out;
    EXPECT_FALSE(
        cache.lookup(digest, "bauvm.cell/1|rev|W|tiny|cfgB", &out));
    EXPECT_TRUE(cache.lookup(digest, key, &out));
}

TEST(ResultCacheTest, NeverStoresFailures)
{
    const std::string dir = tempPath("rc_fail");
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);

    CellOutcome failed = fakeOutcome("W", 1);
    failed.ok = false;
    failed.error = "boom";
    EXPECT_FALSE(cache.store("d1", "k1", failed));

    CellOutcome timed = fakeOutcome("W", 1);
    timed.timed_out = true;
    EXPECT_FALSE(cache.store("d2", "k2", timed));
    EXPECT_EQ(cacheEntryCount(dir), 0u);
}

// ---------------------------------------------------------------------
// Sweep requests
// ---------------------------------------------------------------------

TEST(SweepRequestParse, FullDocumentRoundTrips)
{
    const JsonValue doc = parseOrDie(requestJson(
        "\"variants\": [{\"label\": \"\"},"
        " {\"label\": \"big-buf\", \"overrides\":"
        "  [{\"key\": \"uvm.fault_buffer_entries\","
        "    \"value\": 2000}]}],"
        " \"jobs\": 3, \"chunk_cells\": 2, \"flush_cells\": 4,"
        " \"hard_timeout_s\": 9.5"));
    SweepRequest req;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(doc, &req, &error)) << error;
    EXPECT_EQ(req.bench, "serve_test");
    EXPECT_EQ(req.workloads,
              (std::vector<std::string>{"BFS-TWC", "PR"}));
    ASSERT_EQ(req.policies.size(), 2u);
    EXPECT_EQ(req.policies[0], Policy::Baseline);
    EXPECT_EQ(req.policies[1], Policy::ToUe);
    ASSERT_EQ(req.variants.size(), 2u);
    EXPECT_EQ(req.variants[1].label, "big-buf");
    ASSERT_EQ(req.variants[1].overrides.size(), 1u);
    EXPECT_EQ(req.variants[1].overrides[0].key,
              "uvm.fault_buffer_entries");
    EXPECT_EQ(req.scale, WorkloadScale::Tiny);
    EXPECT_EQ(req.jobs, 3u);
    EXPECT_EQ(req.chunk_cells, 2u);
    EXPECT_EQ(req.flush_cells, 4u);
    EXPECT_DOUBLE_EQ(req.hard_timeout_s, 9.5);

    // Expansion: variant-major -> workload -> policy, the SweepRunner
    // order the daemon's merged document must reproduce.
    const std::vector<CellSpec> cells = expandCells(req);
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].workload, "BFS-TWC");
    EXPECT_EQ(cells[0].policy, Policy::Baseline);
    EXPECT_EQ(cells[0].variant, "");
    EXPECT_EQ(cells[1].policy, Policy::ToUe);
    EXPECT_EQ(cells[2].workload, "PR");
    EXPECT_EQ(cells[4].variant, "big-buf");
    EXPECT_EQ(cells[4].workload, "BFS-TWC");
}

TEST(SweepRequestParse, DefaultsAndGroupExpansion)
{
    const JsonValue doc = parseOrDie(
        "{\"schema\": \"bauvm.sweep-request/1\","
        " \"workloads\": [\"@irregular\"], \"scale\": \"tiny\"}");
    SweepRequest req;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(doc, &req, &error)) << error;
    EXPECT_GE(req.workloads.size(), 2u);
    EXPECT_EQ(req.policies.size(), allPolicies().size());
    ASSERT_EQ(req.variants.size(), 1u);
    EXPECT_EQ(req.variants[0].label, "");
    EXPECT_EQ(req.jobs, 1u);
}

TEST(SweepRequestParse, FrontierGroupExpandsToTheFamily)
{
    const JsonValue doc = parseOrDie(
        "{\"schema\": \"bauvm.sweep-request/1\","
        " \"workloads\": [\"@frontier\"], \"scale\": \"tiny\"}");
    SweepRequest req;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(doc, &req, &error)) << error;
    const std::vector<std::string> expected = {"BFS-HYB", "CC", "TC",
                                               "KTRUSS"};
    EXPECT_EQ(req.workloads, expected);
}

TEST(CellKeyStreamParams, StreamConfigReKeysTheCell)
{
    // The graph-stream policy lives outside SimConfig, so cellKey()
    // carries it in its own lane: changing any stream parameter must
    // change the content address (cache miss), and restoring it must
    // restore the address (cache replay).
    const SimConfig config = paperConfig(0.5, 1);
    const GraphStreamConfig saved = graphStreamConfig();
    const std::string base =
        cellKey("BFS-HYB", WorkloadScale::Tiny, config, "rev");

    graphStreamConfig().stream_threshold_edges = 1;
    const std::string threshold =
        cellKey("BFS-HYB", WorkloadScale::Tiny, config, "rev");
    EXPECT_NE(threshold, base);

    graphStreamConfig() = saved;
    graphStreamConfig().edges_per_block /= 2;
    const std::string block =
        cellKey("BFS-HYB", WorkloadScale::Tiny, config, "rev");
    EXPECT_NE(block, base);
    EXPECT_NE(block, threshold);

    graphStreamConfig() = saved;
    EXPECT_EQ(cellKey("BFS-HYB", WorkloadScale::Tiny, config, "rev"),
              base);
    EXPECT_EQ(digestHex(base).size(), 32u);
}

TEST(SweepRequestParse, RejectsInvalidDocuments)
{
    SweepRequest req;
    std::string error;
    EXPECT_FALSE(parseSweepRequest(
        parseOrDie("{\"schema\": \"bauvm.other/1\","
                   " \"workloads\": [\"PR\"]}"),
        &req, &error));
    EXPECT_FALSE(parseSweepRequest(
        parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                   " \"workloads\": [\"NOPE\"]}"),
        &req, &error));
    EXPECT_FALSE(parseSweepRequest(
        parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                   " \"workloads\": [\"PR\"],"
                   " \"policies\": [\"NOPE\"]}"),
        &req, &error));
    EXPECT_FALSE(parseSweepRequest(
        parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                   " \"workloads\": []}"),
        &req, &error));
    // A negative or infinite ratio would run as unlimited memory.
    for (const std::string bad_ratio : {"-0.5", "1e999"}) {
        EXPECT_FALSE(parseSweepRequest(
            parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                       " \"workloads\": [\"PR\"], \"ratio\": " +
                       bad_ratio + "}"),
            &req, &error))
            << bad_ratio;
        CellSpec spec;
        EXPECT_FALSE(parseCellSpec(
            parseOrDie("{\"workload\": \"PR\", \"ratio\": " +
                       bad_ratio + "}"),
            &spec, &error))
            << bad_ratio;
    }
    EXPECT_TRUE(parseSweepRequest(
        parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                   " \"workloads\": [\"PR\"], \"ratio\": 0}"),
        &req, &error))
        << error;

    // Override values are checked against the knob's type where the
    // request is parsed, so none of these can reach fatal() (which
    // would take the daemon down) or an undefined cast.
    const auto withOverride = [](const std::string &entry) {
        return parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                          " \"workloads\": [\"PR\"], \"variants\":"
                          " [{\"label\": \"v\", \"overrides\": [" +
                          entry + "]}]}");
    };
    const auto cellWithOverride = [](const std::string &entry) {
        return parseOrDie("{\"workload\": \"PR\", \"overrides\": [" +
                          entry + "]}");
    };
    CellSpec cell;
    for (const std::string bad : {
             "{\"key\": \"mt.policy\", \"value\": 7}",
             "{\"key\": \"mt.policy\", \"value\": -1}",
             "{\"key\": \"gpu.num_sms\", \"value\": -1}",
             "{\"key\": \"gpu.num_sms\", \"value\": 1.5}",
             "{\"key\": \"gpu.num_sms\", \"value\": 4294967296}",
             "{\"key\": \"gpu.num_sms\", \"value\": \"abc\"}",
             "{\"key\": \"gpu.num_sms\"}",
             "{\"key\": \"uvm.va_block_bytes\", \"value\": 1e20}",
             "{\"key\": \"to.enabled\", \"value\": 2}",
             "{\"key\": \"to.enabled\", \"value\": 0.5}",
             "{\"key\": \"uvm.pcie_gbps\", \"value\": true}",
             "{\"key\": \"gpu.warp_size\", \"value\": 16}",
             // Double knobs: none has a meaning below zero, and 1e999
             // parses to infinity.
             "{\"key\": \"memory_ratio\", \"value\": -0.5}",
             "{\"key\": \"uvm.pcie_gbps\", \"value\": -1}",
             "{\"key\": \"uvm.prefetch_density\", \"value\": 1e999}",
             "{\"key\": \"uvm.fault_handling_us\", \"value\": -1e999}",
         }) {
        error.clear();
        EXPECT_FALSE(parseSweepRequest(withOverride(bad), &req, &error))
            << bad;
        EXPECT_NE(error.find("override"), std::string::npos) << error;
        EXPECT_FALSE(parseCellSpec(cellWithOverride(bad), &cell, &error))
            << bad;
    }
    for (const std::string good : {
             "{\"key\": \"mt.policy\", \"value\": 2}",
             "{\"key\": \"gpu.num_sms\", \"value\": 4294967295}",
             "{\"key\": \"to.enabled\", \"value\": 1}",
             "{\"key\": \"uvm.pcie_gbps\", \"value\": 0.5}",
             "{\"key\": \"memory_ratio\", \"value\": 0}",
         }) {
        EXPECT_TRUE(parseSweepRequest(withOverride(good), &req, &error))
            << error;
        EXPECT_TRUE(parseCellSpec(cellWithOverride(good), &cell, &error))
            << error;
    }
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

TEST(SweepServiceTest, ShardedMatchesSerialThenServesFromCache)
{
    const std::string cache_dir = tempPath("svc_cache");
    std::filesystem::remove_all(cache_dir);

    // Serial in-process reference for the same request.
    SweepRequest req;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(parseOrDie(requestJson()), &req,
                                  &error))
        << error;
    const std::string serial =
        runRequestSerial(req).toJson(/*pretty=*/false);

    SweepServiceOptions opt;
    opt.socket_path = tempPath("svc1.sock");
    opt.cache_dir = cache_dir;
    opt.verbose = false;
    ServiceFixture daemon(std::move(opt));

    // Sharded across 2 forked workers: must match serial bit-for-bit
    // on every deterministic field.
    const SweepSubmitResult sharded =
        submitSweep(daemon.socket(), requestJson("\"jobs\": 2"));
    ASSERT_TRUE(sharded.ok) << sharded.error;
    EXPECT_EQ(sharded.cells, 4u);
    EXPECT_EQ(sharded.failed, 0u);
    EXPECT_EQ(sharded.cached, 0u);
    EXPECT_EQ(strippedDoc(sharded.sweep_json), strippedDoc(serial));
    EXPECT_EQ(cacheEntryCount(cache_dir), 4u);

    // Identical resubmission: every cell replays from the daemon's
    // completion memo / the disk cache, still equal to serial.
    const SweepSubmitResult replay =
        submitSweep(daemon.socket(), requestJson("\"jobs\": 2"));
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_EQ(replay.cached, 4u);
    EXPECT_EQ(strippedDoc(replay.sweep_json), strippedDoc(serial));
    EXPECT_EQ(daemon.service().cellsExecuted(), 4u);

    // A config change (different base seed) changes every content
    // address: nothing may come from the cache.
    const SweepSubmitResult reseeded = submitSweep(
        daemon.socket(), requestJson("\"jobs\": 2, \"seed\": 99"));
    ASSERT_TRUE(reseeded.ok) << reseeded.error;
    EXPECT_EQ(reseeded.cached, 0u);
    EXPECT_EQ(daemon.service().cellsExecuted(), 8u);
    EXPECT_EQ(cacheEntryCount(cache_dir), 8u);
}

TEST(SweepServiceTest, ConcurrentIdenticalRequestsDedupe)
{
    const std::string cache_dir = tempPath("svc_dedupe");
    std::filesystem::remove_all(cache_dir);

    SweepServiceOptions opt;
    opt.socket_path = tempPath("svc2.sock");
    opt.cache_dir = cache_dir;
    opt.verbose = false;
    ServiceFixture daemon(std::move(opt));

    // Two clients submit the same 4-cell matrix at once. However the
    // completions interleave, the daemon must run each unique cell
    // exactly once; the second request's cells either wait on the
    // running twin or replay the memo, and both merged documents are
    // identical on deterministic fields.
    SweepSubmitResult a, b;
    std::thread ta([&] {
        a = submitSweep(daemon.socket(), requestJson("\"jobs\": 2"));
    });
    std::thread tb([&] {
        b = submitSweep(daemon.socket(), requestJson("\"jobs\": 2"));
    });
    ta.join();
    tb.join();

    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.cells, 4u);
    EXPECT_EQ(b.cells, 4u);
    EXPECT_EQ(a.failed + b.failed, 0u);
    EXPECT_EQ(strippedDoc(a.sweep_json), strippedDoc(b.sweep_json));

    EXPECT_EQ(daemon.service().cellsExecuted(), 4u);
    EXPECT_EQ(daemon.service().cellsFromCache() +
                  daemon.service().cellsDeduped(),
              4u);
    EXPECT_EQ(cacheEntryCount(cache_dir), 4u);
}

TEST(SweepServiceTest, HardTimeoutKillsWorkerAndCellRetries)
{
    const std::string cache_dir = tempPath("svc_hardto");
    std::filesystem::remove_all(cache_dir);

    SweepServiceOptions opt;
    opt.socket_path = tempPath("svc3.sock");
    opt.cache_dir = cache_dir;
    opt.verbose = false;
    ServiceFixture daemon(std::move(opt));

    // A hard budget far below any tiny cell's runtime: the daemon
    // must SIGKILL the worker, charge exactly the running cell with
    // timed_out, and keep the request alive to completion.
    const SweepSubmitResult killed = submitSweep(
        daemon.socket(),
        "{\"schema\": \"bauvm.sweep-request/1\","
        " \"bench\": \"hardto\", \"workloads\": [\"BFS-TWC\"],"
        " \"policies\": [\"BASELINE\", \"TO+UE\"],"
        " \"scale\": \"tiny\", \"hard_timeout_s\": 0.001}");
    ASSERT_TRUE(killed.ok) << killed.error;
    EXPECT_EQ(killed.cells, 2u);
    EXPECT_GE(killed.timed_out, 1u);
    EXPECT_EQ(killed.failed, killed.timed_out);
    EXPECT_GE(daemon.service().workersKilled(), 1u);

    const JsonValue doc = parseOrDie(killed.sweep_json);
    const JsonValue *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    std::size_t marked = 0;
    for (std::size_t i = 0; i < cells->size(); ++i) {
        if (cells->at(i).getBool("timed_out")) {
            ++marked;
            EXPECT_FALSE(cells->at(i).getBool("ok"));
        }
    }
    EXPECT_EQ(marked, killed.timed_out);

    // Timed-out cells are never memoized or stored: the same matrix
    // without the budget must recompute and succeed.
    const SweepSubmitResult retried = submitSweep(
        daemon.socket(),
        "{\"schema\": \"bauvm.sweep-request/1\","
        " \"bench\": \"hardto\", \"workloads\": [\"BFS-TWC\"],"
        " \"policies\": [\"BASELINE\", \"TO+UE\"],"
        " \"scale\": \"tiny\"}");
    ASSERT_TRUE(retried.ok) << retried.error;
    EXPECT_EQ(retried.failed, 0u);
    EXPECT_EQ(retried.timed_out, 0u);
}

TEST(SweepServiceTest, KillAndResumeMatchesSerial)
{
    const std::string cache_dir = tempPath("svc_resume");
    const std::string sock = tempPath("svc4.sock");
    std::filesystem::remove_all(cache_dir);

    const std::string request = requestJson(
        "\"jobs\": 1, \"chunk_cells\": 1, \"flush_cells\": 1");

    SweepRequest req;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(parseOrDie(request), &req, &error))
        << error;
    const std::string serial =
        runRequestSerial(req).toJson(/*pretty=*/false);

    // First daemon generation runs in a forked child so it can be
    // SIGKILLed mid-matrix — the crash the checkpoint/resume design
    // exists for. flush_cells=1 makes every completed cell durable
    // before its "cell" event reaches the client.
    const pid_t daemon_pid = fork();
    ASSERT_GE(daemon_pid, 0);
    if (daemon_pid == 0) {
        SweepServiceOptions opt;
        opt.socket_path = sock;
        opt.cache_dir = cache_dir;
        opt.verbose = false;
        SweepService svc(std::move(opt));
        std::string err;
        if (!svc.start(&err))
            _exit(9);
        svc.run();
        _exit(0);
    }
    ASSERT_TRUE(waitForService(sock, 10.0));

    std::atomic<std::uint64_t> seen{0};
    const SweepSubmitResult interrupted = submitSweep(
        sock, request, [&](const JsonValue &event) {
            if (event.getString("op") != "cell")
                return;
            // Two cells durably finished: kill the daemon dead.
            if (++seen == 2)
                ::kill(daemon_pid, SIGKILL);
        });
    int status = 0;
    ASSERT_EQ(::waitpid(daemon_pid, &status, 0), daemon_pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_FALSE(interrupted.ok);
    EXPECT_GE(seen.load(), 2u);

    const std::size_t checkpointed = cacheEntryCount(cache_dir);
    EXPECT_GE(checkpointed, 2u);
    EXPECT_LT(checkpointed, 4u) << "kill landed after the matrix";

    // Second generation on the same cache: the resubmitted sweep must
    // replay every checkpointed cell and match serial bit-for-bit on
    // deterministic fields.
    SweepServiceOptions opt;
    opt.socket_path = sock;
    opt.cache_dir = cache_dir;
    opt.verbose = false;
    ServiceFixture daemon(std::move(opt));

    const SweepSubmitResult resumed = submitSweep(sock, request);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.cells, 4u);
    EXPECT_EQ(resumed.failed, 0u);
    EXPECT_GE(resumed.cached, checkpointed);
    EXPECT_EQ(strippedDoc(resumed.sweep_json), strippedDoc(serial));
    EXPECT_EQ(cacheEntryCount(cache_dir), 4u);
}

} // namespace
} // namespace bauvm
