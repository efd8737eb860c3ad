/**
 * @file
 * Tests for src/serve: the JSON parser, content addressing, the
 * on-disk result cache, sweep-request parsing into a SweepSpec, and
 * SweepRunner's resume path over that cache.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/presets.h"
#include "src/graph/stream/csr_stream_builder.h"
#include "src/runner/cell_spec.h"
#include "src/runner/job.h"
#include "src/runner/sweep_result.h"
#include "src/runner/sweep_runner.h"
#include "src/serve/json.h"
#include "src/serve/result_cache.h"
#include "src/serve/sweep_request.h"

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
 * differ between a serial run, a threaded run, and a cache replay —
 * the C++ twin of ci/check_sweep_equiv.py's strip set).
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

/** The config SweepRunner gives the first cell of @p spec. */
SimConfig
firstCellConfig(const SweepSpec &spec)
{
    return cellConfig(spec, expandSweep(spec).front());
}

/** The content address of that cell under @p rev. */
std::string
firstCellDigest(const SweepSpec &spec, const std::string &rev = "rev1")
{
    return digestHex(cellKey(spec.workloads.front(), spec.opt.scale,
                             firstCellConfig(spec), rev));
}

TEST(CellDigest, StableUniqueAndInvalidating)
{
    SweepSpec spec;
    spec.workloads = {"BFS-TWC"};
    spec.policies = {Policy::Baseline};
    spec.opt.scale = WorkloadScale::Tiny;

    const std::string digest = firstCellDigest(spec);
    EXPECT_EQ(digest.size(), 32u);
    EXPECT_EQ(digest, firstCellDigest(spec)); // pure function

    // Every coordinate that changes simulated behaviour must change
    // the address: policy, any config knob, the seed, the code rev.
    SweepSpec to = spec;
    to.policies = {Policy::ToUe};
    EXPECT_NE(firstCellDigest(to), digest);

    SweepSpec knob = spec;
    knob.variants = {{"fb1000", [](SimConfig &c) {
                          ASSERT_TRUE(applyConfigOverride(
                              c, "uvm.fault_buffer_entries", 1000.0));
                      }}};
    EXPECT_NE(firstCellDigest(knob), digest);

    SweepSpec seeded = spec;
    seeded.opt.seed = 2;
    EXPECT_NE(firstCellDigest(seeded), digest);

    EXPECT_NE(firstCellDigest(spec, "rev2"), digest);

    // Pinned before the key was derived from the field table: every
    // existing result cache must keep its addresses.
    EXPECT_EQ(digestHex(canonicalConfigString(firstCellConfig(to))),
              "72ead01a022a7c4ccb0b602622bbe1c8");
    EXPECT_EQ(firstCellDigest(to), "d24c575d01547842a9c927cecc1fcae7");
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

    CellOutcome miss;
    EXPECT_FALSE(cache.lookup(digest, key, &miss));
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    ASSERT_TRUE(cache.store(digest, key, fakeOutcome("W", 12345)));
    EXPECT_EQ(cache.stores(), 1u);

    CellOutcome hit;
    ASSERT_TRUE(cache.lookup(digest, key, &hit));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
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
    out.result.batch_records = BatchLog({a, b});

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
        " \"jobs\": 3, \"seed\": 7, \"audit\": true,"
        " \"timeout_s\": 9.5"));
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(doc, &spec, &error)) << error;
    EXPECT_EQ(spec.bench, "serve_test");
    EXPECT_EQ(spec.workloads,
              (std::vector<std::string>{"BFS-TWC", "PR"}));
    ASSERT_EQ(spec.policies.size(), 2u);
    EXPECT_EQ(spec.policies[0], Policy::Baseline);
    EXPECT_EQ(spec.policies[1], Policy::ToUe);
    EXPECT_EQ(spec.opt.scale, WorkloadScale::Tiny);
    EXPECT_DOUBLE_EQ(spec.opt.ratio, 0.5);
    EXPECT_EQ(spec.opt.seed, 7u);
    EXPECT_EQ(spec.opt.jobs, 3u);
    EXPECT_TRUE(spec.opt.audit);
    EXPECT_DOUBLE_EQ(spec.opt.timeout_s, 9.5);
    EXPECT_TRUE(spec.opt.tenants.empty());
    EXPECT_EQ(expandSweep(spec).size(), 8u);

    // Each variant's overrides become its config mutation.
    ASSERT_EQ(spec.variants.size(), 2u);
    EXPECT_EQ(spec.variants[0].label, "");
    EXPECT_FALSE(spec.variants[0].mutate);
    EXPECT_EQ(spec.variants[1].label, "big-buf");
    ASSERT_TRUE(spec.variants[1].mutate);
    SimConfig config;
    spec.variants[1].mutate(config);
    EXPECT_EQ(config.uvm.fault_buffer_entries, 2000u);

    // A tenant mix: the workload axis only labels the cells, and the
    // share policy lands on BenchOptions like --share-policy.
    const JsonValue mix = parseOrDie(
        "{\"schema\": \"bauvm.sweep-request/1\","
        " \"workloads\": [\"BFS-HYB+PR\"],"
        " \"policies\": [\"BASELINE\"], \"scale\": \"tiny\","
        " \"tenants\": [{\"workload\": \"BFS-HYB\", \"quota\": 0.7},"
        "             {\"workload\": \"PR\", \"quota\": 0.3}],"
        " \"share_policy\": \"strict\"}");
    ASSERT_TRUE(parseSweepRequest(mix, &spec, &error)) << error;
    EXPECT_EQ(spec.workloads, (std::vector<std::string>{"BFS-HYB+PR"}));
    EXPECT_EQ(spec.opt.share_policy, SharePolicy::StrictQuota);
    ASSERT_EQ(spec.opt.tenants.size(), 2u);
    EXPECT_EQ(spec.opt.tenants[0].workload, "BFS-HYB");
    EXPECT_DOUBLE_EQ(spec.opt.tenants[0].quota, 0.7);
    EXPECT_EQ(spec.opt.tenants[1].workload, "PR");
    EXPECT_DOUBLE_EQ(spec.opt.tenants[1].quota, 0.3);
    EXPECT_TRUE(spec.variants.empty());
    EXPECT_EQ(spec.opt.jobs, 1u);
}

TEST(SweepRequestParse, DefaultsAndGroupExpansion)
{
    const JsonValue doc = parseOrDie(
        "{\"schema\": \"bauvm.sweep-request/1\","
        " \"workloads\": [\"@irregular\"], \"scale\": \"tiny\"}");
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(doc, &spec, &error)) << error;
    EXPECT_GE(spec.workloads.size(), 2u);
    EXPECT_EQ(spec.policies.size(), allPolicies().size());
    EXPECT_TRUE(spec.variants.empty());
    EXPECT_EQ(spec.bench, "sweep");
    EXPECT_EQ(spec.opt.jobs, 1u);
    EXPECT_EQ(spec.opt.seed, 1u);
    EXPECT_FALSE(spec.opt.audit);
    EXPECT_EQ(spec.opt.share_policy, SharePolicy::FreeForAll);
}

TEST(SweepRequestParse, FrontierGroupExpandsToTheFamily)
{
    const JsonValue doc = parseOrDie(
        "{\"schema\": \"bauvm.sweep-request/1\","
        " \"workloads\": [\"@frontier\"], \"scale\": \"tiny\"}");
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(parseSweepRequest(doc, &spec, &error)) << error;
    const std::vector<std::string> expected = {"BFS-HYB", "CC", "TC",
                                               "KTRUSS"};
    EXPECT_EQ(spec.workloads, expected);
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
    SweepSpec req;
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
    }
    EXPECT_TRUE(parseSweepRequest(
        parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                   " \"workloads\": [\"PR\"], \"ratio\": 0}"),
        &req, &error))
        << error;

    // A tenant mix needs two registered workloads.
    for (const std::string bad_tenants : {
             "[{\"workload\": \"PR\"}]",
             "[{\"workload\": \"PR\"}, {\"workload\": \"NOPE\"}]",
         }) {
        EXPECT_FALSE(parseSweepRequest(
            parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                       " \"workloads\": [\"mix\"], \"tenants\": " +
                       bad_tenants + "}"),
            &req, &error))
            << bad_tenants;
    }

    // The keys of the retired sweep daemon are refused by name: a
    // request that asks for a hard kill must not run without one.
    for (const std::string retired :
         {"hard_timeout_s", "chunk_cells", "flush_cells"}) {
        error.clear();
        EXPECT_FALSE(parseSweepRequest(
            parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                       " \"workloads\": [\"PR\"], \"" +
                       retired + "\": 1}"),
            &req, &error))
            << retired;
        EXPECT_NE(error.find(retired), std::string::npos) << error;
        EXPECT_NE(error.find("no longer supported"), std::string::npos)
            << error;
    }

    // Any other key the request, a variant or a tenant does not define
    // is refused by name: a misspelled "policies" used to run all six
    // policies.
    for (const auto &[doc, key] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"workloads\": [\"PR\"], \"polices\": [\"BASELINE\"]",
              "polices"},
             {"\"workloads\": [\"PR\"], \"variants\":"
              " [{\"label\": \"v\", \"override\": []}]",
              "override"},
             {"\"workloads\": [\"mix\"], \"tenants\":"
              " [{\"workload\": \"PR\"},"
              " {\"workload\": \"BFS-HYB\", \"quote\": 0.5}]",
              "quote"},
         }) {
        error.clear();
        EXPECT_FALSE(parseSweepRequest(
            parseOrDie("{\"schema\": \"bauvm.sweep-request/1\", " + doc +
                       "}"),
            &req, &error))
            << key;
        EXPECT_NE(error.find("unknown key '" + key + "'"),
                  std::string::npos)
            << error;
    }

    // Override values are checked against the knob's type where the
    // request is parsed, so none of these can reach the fatal() in a
    // variant's mutation or an undefined cast.
    const auto withOverride = [](const std::string &entry) {
        return parseOrDie("{\"schema\": \"bauvm.sweep-request/1\","
                          " \"workloads\": [\"PR\"], \"variants\":"
                          " [{\"label\": \"v\", \"overrides\": [" +
                          entry + "]}]}");
    };
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
    }
}

// ---------------------------------------------------------------------
// Resume through the result cache
// ---------------------------------------------------------------------

TEST(SweepRunner, ResumeReplaysEveryOkCell)
{
    const std::string cache_dir = tempPath("runner_resume");
    std::filesystem::remove_all(cache_dir);

    const auto run = [&](const std::string &extra) {
        SweepSpec spec;
        std::string error;
        EXPECT_TRUE(parseSweepRequest(parseOrDie(requestJson(extra)),
                                      &spec, &error))
            << error;
        spec.opt.resume_dir = cache_dir;
        spec.verbose = false;
        return SweepRunner(std::move(spec)).run();
    };

    // 2 workloads x 2 policies on two worker threads: every cell is
    // computed and stored.
    const SweepResult first = run("\"jobs\": 2");
    ASSERT_EQ(first.cells.size(), 4u);
    for (const CellOutcome &cell : first.cells) {
        EXPECT_TRUE(cell.ok) << cell.error;
        EXPECT_FALSE(cell.from_cache);
    }
    EXPECT_EQ(cacheEntryCount(cache_dir), 4u);

    // The same matrix again: every cell replays, and the document is
    // equal modulo provenance.
    const SweepResult second = run("\"jobs\": 2");
    ASSERT_EQ(second.cells.size(), 4u);
    for (const CellOutcome &cell : second.cells)
        EXPECT_TRUE(cell.from_cache) << cell.workload;
    EXPECT_EQ(strippedDoc(second.toJson(/*pretty=*/false)),
              strippedDoc(first.toJson(/*pretty=*/false)));

    // A variant that changes a keyed knob must miss the cache for
    // exactly its own cells; the default variant still replays.
    const SweepResult third = run(
        "\"jobs\": 2, \"variants\": [{\"label\": \"\"},"
        " {\"label\": \"fb512\", \"overrides\":"
        "  [{\"key\": \"uvm.fault_buffer_entries\", \"value\": 512}]}]");
    ASSERT_EQ(third.cells.size(), 8u);
    for (std::size_t i = 0; i < third.cells.size(); ++i) {
        const CellOutcome &cell = third.cells[i];
        EXPECT_TRUE(cell.ok) << cell.error;
        EXPECT_EQ(cell.from_cache, i < 4) << i;
        EXPECT_EQ(cell.variant, i < 4 ? "" : "fb512") << i;
        if (i < 4)
            EXPECT_EQ(cell.digest, first.cells[i].digest) << i;
        else
            EXPECT_NE(cell.digest, third.cells[i - 4].digest) << i;
    }
    EXPECT_EQ(cacheEntryCount(cache_dir), 8u);
}
} // namespace
} // namespace bauvm
