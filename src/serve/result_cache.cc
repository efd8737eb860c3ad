#include "src/serve/result_cache.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/runner/json_writer.h"
#include "src/runner/sweep_result.h"
#include "src/serve/cell_json.h"
#include "src/serve/json.h"
#include "src/sim/log.h"

namespace bauvm
{

namespace fs = std::filesystem;

ResultCache::ResultCache(std::string dir)
    : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("ResultCache: empty cache directory");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("ResultCache: cannot create '%s': %s", dir_.c_str(),
              ec.message().c_str());
}

std::string
ResultCache::entryPath(const std::string &digest) const
{
    // Two-hex-char fan-out; digests shorter than that (never produced
    // by digestHex, but paths must stay sane) land in "xx".
    const std::string shard =
        digest.size() >= 2 ? digest.substr(0, 2) : std::string("xx");
    return dir_ + "/" + shard + "/" + digest + ".json";
}

bool
ResultCache::lookup(const std::string &digest, const std::string &key,
                    CellOutcome *out)
{
    std::ifstream in(entryPath(digest));
    if (!in) {
        misses_.fetch_add(1);
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    JsonValue doc;
    std::string error;
    if (!JsonValue::parse(text, &doc, &error)) {
        warn("ResultCache: corrupt entry %s (%s), treating as miss",
             digest.c_str(), error.c_str());
        misses_.fetch_add(1);
        return false;
    }
    const std::string schema = doc.getString("schema");
    if (schema.rfind("bauvm.cellcache/1", 0) != 0) {
        misses_.fetch_add(1);
        return false;
    }
    if (doc.getString("key") != key) {
        // Digest collision or a cache produced by different code —
        // never serve it.
        warn("ResultCache: key mismatch under digest %s, ignoring "
             "entry",
             digest.c_str());
        misses_.fetch_add(1);
        return false;
    }
    const JsonValue *outcome = doc.find("outcome");
    if (!outcome || !parseCellOutcome(*outcome, out, &error)) {
        warn("ResultCache: unparseable outcome in %s (%s)",
             digest.c_str(), error.c_str());
        misses_.fetch_add(1);
        return false;
    }
    if (!out->ok) {
        // Defensive: failed cells are never stored, but a hand-edited
        // cache must not poison sweeps.
        misses_.fetch_add(1);
        return false;
    }
    out->from_cache = true;
    hits_.fetch_add(1);
    return true;
}

bool
ResultCache::store(const std::string &digest, const std::string &key,
                   const CellOutcome &outcome)
{
    // Only clean completions are worth addressing: failures and
    // timeouts (even ones marked ok by a lenient producer) must retry
    // on the next run, not replay forever.
    if (!outcome.ok || outcome.timed_out)
        return false;

    JsonWriter cell(/*pretty=*/false);
    writeCellJson(cell, outcome, /*with_batch_records=*/true);

    JsonWriter doc(/*pretty=*/false);
    doc.beginObject();
    doc.field("schema", kSchema);
    doc.field("digest", digest);
    doc.field("key", key);
    doc.rawField("outcome", cell.str());
    doc.endObject();

    const std::string path = entryPath(digest);
    const fs::path parent = fs::path(path).parent_path();
    std::error_code ec;
    fs::create_directories(parent, ec);
    if (ec) {
        warn("ResultCache: cannot create shard dir '%s': %s",
             parent.string().c_str(), ec.message().c_str());
        return false;
    }

    // pid + digest alone is not unique: two threads of one process
    // (the threaded --resume SweepRunner) storing the same digest
    // would share a temp path and interleave writes. A process-wide
    // counter keeps every in-flight store on its own file.
    static std::atomic<std::uint64_t> store_seq{0};
    const std::uint64_t seq = store_seq.fetch_add(1);
    char tmpname[96];
    std::snprintf(tmpname, sizeof tmpname, ".tmp.%d.%llu.%s",
                  static_cast<int>(getpid()),
                  static_cast<unsigned long long>(seq),
                  digest.substr(0, 16).c_str());
    const std::string tmp = parent.string() + "/" + tmpname;
    {
        std::ofstream outf(tmp, std::ios::trunc);
        if (!outf) {
            warn("ResultCache: cannot open '%s' for writing",
                 tmp.c_str());
            return false;
        }
        outf << doc.str();
        if (!outf) {
            warn("ResultCache: short write to '%s'", tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("ResultCache: rename '%s' -> '%s' failed: %s",
             tmp.c_str(), path.c_str(), ec.message().c_str());
        std::remove(tmp.c_str());
        return false;
    }
    stores_.fetch_add(1);
    return true;
}

} // namespace bauvm
