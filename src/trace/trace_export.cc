#include "src/trace/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/runner/json_writer.h"
#include "src/sim/write_file.h"

namespace bauvm
{

namespace
{

/** Chrome tid for a track: SMs keep their id, specials go to 1000+. */
std::uint32_t
trackTid(TraceTrack track)
{
    switch (track) {
      case kTraceTrackRuntime:
        return 1000;
      case kTraceTrackPcieH2d:
        return 1001;
      case kTraceTrackPcieD2h:
        return 1002;
      case kTraceTrackMemory:
        return 1003;
      default:
        return track;
    }
}

/** Simulated cycles to Chrome timestamp microseconds (1 GHz clock). */
double
cyclesToUs(Cycle c)
{
    return static_cast<double>(c) / 1000.0;
}

/** Writes one record's type-specific args object. */
void
writeArgs(JsonWriter &w, const TraceRecord &r)
{
    w.beginObject("args");
    switch (r.eventType()) {
      case TraceEventType::BatchWindow:
        w.field("fault_pages", static_cast<std::uint64_t>(r.arg0));
        w.field("prefetch_pages", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::FaultHandling:
        w.field("fault_pages", static_cast<std::uint64_t>(r.arg0));
        break;
      case TraceEventType::PageFault:
        w.field("vpn", static_cast<std::uint64_t>(r.arg0));
        w.field("warp", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::Migration:
      case TraceEventType::Eviction:
        w.field("vpn", static_cast<std::uint64_t>(r.arg0));
        w.field("bytes", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::PrefetchIssue:
        w.field("pages", static_cast<std::uint64_t>(r.arg0));
        w.field("demand_pages", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::CtxSwitchOut:
        w.field("slot", static_cast<std::uint64_t>(r.arg0));
        break;
      case TraceEventType::CtxSwitchIn:
        w.field("slot", static_cast<std::uint64_t>(r.arg0));
        w.field("restore_cycles", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::PcieBusy:
        w.field("bytes", static_cast<std::uint64_t>(r.arg0));
        w.field("transfer", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::LifetimeWindow:
        w.field("avg_lifetime_cycles",
                static_cast<std::uint64_t>(r.arg0));
        w.field("advice", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::BlockDispatch:
        w.field("block", static_cast<std::uint64_t>(r.arg0));
        w.field("active", r.arg1 != 0);
        break;
      case TraceEventType::BlockFinish:
        w.field("block", static_cast<std::uint64_t>(r.arg0));
        w.field("slot", static_cast<std::uint64_t>(r.arg1));
        break;
      default:
        w.field("arg0", static_cast<std::uint64_t>(r.arg0));
        w.field("arg1", static_cast<std::uint64_t>(r.arg1));
        break;
    }
    w.endObject();
}

/** Counter series (name -> value columns) for the "C" phase. */
void
writeCounterEvent(JsonWriter &w, const TraceRecord &r)
{
    w.beginObject();
    w.field("ph", "C");
    w.field("pid", std::uint64_t{0});
    w.field("tid", static_cast<std::uint64_t>(trackTid(r.track)));
    w.field("ts", cyclesToUs(r.begin));
    w.field("name", traceTrackName(r.track) + ":" +
                        traceEventTypeName(r.eventType()));
    w.beginObject("args");
    switch (r.eventType()) {
      case TraceEventType::SmOccupancy:
        w.field("active", static_cast<std::uint64_t>(r.arg0));
        w.field("resident", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::FaultBufferDepth:
        w.field("entries", static_cast<std::uint64_t>(r.arg0));
        w.field("overflow", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::CommittedFrames:
        w.field("frames", static_cast<std::uint64_t>(r.arg0));
        w.field("capacity", static_cast<std::uint64_t>(r.arg1));
        break;
      case TraceEventType::OversubDegree:
        w.field("extra_blocks", static_cast<std::uint64_t>(r.arg0));
        break;
      default:
        w.field("value", static_cast<std::uint64_t>(r.arg0));
        break;
    }
    w.endObject();
    w.endObject();
}

/** Thread-name/sort metadata for every track present in the trace. */
void
writeTrackMetadata(JsonWriter &w, const std::vector<TraceTrack> &tracks)
{
    for (TraceTrack t : tracks) {
        const std::uint64_t tid = trackTid(t);
        w.beginObject();
        w.field("ph", "M");
        w.field("pid", std::uint64_t{0});
        w.field("tid", tid);
        w.field("name", "thread_name");
        w.beginObject("args");
        w.field("name", traceTrackName(t));
        w.endObject();
        w.endObject();

        w.beginObject();
        w.field("ph", "M");
        w.field("pid", std::uint64_t{0});
        w.field("tid", tid);
        w.field("name", "thread_sort_index");
        w.beginObject("args");
        // Runtime + PCIe tracks first (the paper's story), SMs after.
        w.field("sort_index",
                static_cast<std::int64_t>(tid >= 1000 ? tid - 1000
                                                      : tid + 16));
        w.endObject();
        w.endObject();
    }
}

} // namespace

std::string
toChromeTraceJson(const TraceSink &sink, const TraceMeta &meta)
{
    // Snapshot in emission order, then sort by begin cycle (Perfetto
    // prefers monotonically non-decreasing timestamps). stable_sort
    // keeps same-cycle records in emission order.
    std::vector<TraceRecord> records;
    records.reserve(sink.size());
    sink.forEach([&](const TraceRecord &r) { records.push_back(r); });
    std::stable_sort(records.begin(), records.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.begin < b.begin;
                     });

    std::vector<TraceTrack> tracks;
    for (const TraceRecord &r : records) {
        if (std::find(tracks.begin(), tracks.end(), r.track) ==
            tracks.end())
            tracks.push_back(r.track);
    }
    std::sort(tracks.begin(), tracks.end());

    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.beginObject("otherData");
    w.field("schema", kTraceSchema);
    w.field("bench", meta.bench);
    w.field("workload", meta.workload);
    w.field("policy", meta.policy);
    w.field("variant", meta.variant);
    w.field("scale", meta.scale);
    w.field("seed", meta.seed);
    w.field("ratio", meta.ratio);
    w.field("partial", meta.partial);
    w.field("total_events", sink.totalEvents());
    w.field("retained_events", sink.size());
    w.field("dropped_events", sink.droppedEvents());
    w.endObject();

    w.beginArray("traceEvents");
    writeTrackMetadata(w, tracks);
    for (const TraceRecord &r : records) {
        if (traceEventIsCounter(r.eventType())) {
            writeCounterEvent(w, r);
            continue;
        }
        const bool instant = r.end == r.begin;
        w.beginObject();
        w.field("ph", instant ? "i" : "X");
        w.field("pid", std::uint64_t{0});
        w.field("tid", static_cast<std::uint64_t>(trackTid(r.track)));
        w.field("ts", cyclesToUs(r.begin));
        if (instant)
            w.field("s", "t"); // instant scope: thread
        else
            w.field("dur", cyclesToUs(r.end - r.begin));
        w.field("name", traceEventTypeName(r.eventType()));
        writeArgs(w, r);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
writeChromeTrace(const TraceSink &sink, const TraceMeta &meta,
                 const std::string &path)
{
    return writeFileInPlace(path, toChromeTraceJson(sink, meta), "trace");
}

std::string
toCounterCsv(const TraceSink &sink)
{
    std::string out = "cycle,track,counter,value\n";
    char line[160];
    sink.forEach([&](const TraceRecord &r) {
        if (!traceEventIsCounter(r.eventType()))
            return;
        const std::string track = traceTrackName(r.track);
        const char *name = traceEventTypeName(r.eventType());
        std::snprintf(line, sizeof line, "%llu,%s,%s,%llu\n",
                      static_cast<unsigned long long>(r.begin),
                      track.c_str(), name,
                      static_cast<unsigned long long>(r.arg0));
        out += line;
    });
    char tail[96];
    std::snprintf(tail, sizeof tail, "# dropped_events,%llu\n",
                  static_cast<unsigned long long>(sink.droppedEvents()));
    out += tail;
    return out;
}

bool
writeCounterCsv(const TraceSink &sink, const std::string &path)
{
    return writeFileInPlace(path, toCounterCsv(sink), "trace");
}

} // namespace bauvm
