/**
 * @file
 * bauvm_submit: submit a sweep request to bauvm_sweepd and collect
 * the merged result.
 *
 * Reads a bauvm.sweep-request/1 document (file or stdin), submits it
 * over the daemon's Unix socket, streams per-cell progress to stderr,
 * and writes the merged bauvm.sweep/1.4 document exactly as the
 * daemon produced it.
 *
 * --local runs the same request serially in-process instead — no
 * daemon, no workers, no cache. That is the reference execution the
 * sharded service is compared against in CI
 * (ci/check_sweep_equiv.py), and a convenient one-shot mode.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/serve/client.h"
#include "src/serve/json.h"
#include "src/serve/sweep_request.h"
#include "src/sim/log.h"

namespace
{

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: bauvm_submit --socket PATH --request FILE [options]\n"
        "       bauvm_submit --local --request FILE [options]\n"
        "  --socket PATH   daemon socket (see bauvm_sweepd)\n"
        "  --request FILE  bauvm.sweep-request/1 JSON ('-' = stdin)\n"
        "  --json PATH     write the merged sweep JSON here "
        "('-' = stdout, default)\n"
        "  --local         run the request serially in-process "
        "instead of submitting\n"
        "  --wait S        wait up to S seconds for the daemon "
        "socket to accept\n"
        "  --quiet         no per-cell progress on stderr\n");
}

bool
writeDoc(const std::string &path, const std::string &doc)
{
    if (path == "-") {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        std::fputc('\n', stdout);
        return true;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        bauvm::warn("cannot open '%s' for writing", path.c_str());
        return false;
    }
    out << doc << "\n";
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string request_path;
    std::string json_path = "-";
    bool local = false;
    bool quiet = false;
    double wait_s = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                bauvm::fatal("missing value for %s", what);
            return argv[++i];
        };
        if (arg == "--socket") {
            socket_path = next("--socket");
        } else if (arg == "--request") {
            request_path = next("--request");
        } else if (arg == "--json") {
            json_path = next("--json");
        } else if (arg == "--local") {
            local = true;
        } else if (arg == "--wait") {
            wait_s = std::strtod(next("--wait").c_str(), nullptr);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else {
            printUsage(stderr);
            bauvm::fatal("unknown argument '%s'", arg.c_str());
        }
    }
    if (request_path.empty() || (socket_path.empty() && !local)) {
        printUsage(stderr);
        bauvm::fatal(local ? "--request is required"
                           : "--socket and --request are required");
    }

    std::string request_text;
    if (request_path == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        request_text = buf.str();
    } else {
        std::ifstream in(request_path);
        if (!in)
            bauvm::fatal("cannot read request file '%s'",
                         request_path.c_str());
        std::ostringstream buf;
        buf << in.rdbuf();
        request_text = buf.str();
    }

    if (local) {
        bauvm::JsonValue doc;
        std::string error;
        if (!bauvm::JsonValue::parse(request_text, &doc, &error))
            bauvm::fatal("malformed request JSON: %s", error.c_str());
        bauvm::SweepRequest req;
        if (!bauvm::parseSweepRequest(doc, &req, &error))
            bauvm::fatal("%s", error.c_str());
        const bauvm::SweepResult result =
            bauvm::runRequestSerial(req, /*verbose=*/!quiet);
        if (!writeDoc(json_path, result.toJson(/*pretty=*/false)))
            return 1;
        return result.failedCells() == 0 ? 0 : 2;
    }

    if (wait_s > 0.0 &&
        !bauvm::waitForService(socket_path, wait_s))
        bauvm::fatal("daemon socket '%s' not accepting after %.1fs",
                     socket_path.c_str(), wait_s);

    const bauvm::SweepSubmitResult result = bauvm::submitSweep(
        socket_path, request_text,
        [&](const bauvm::JsonValue &event) {
            if (quiet || event.getString("op") != "cell")
                return;
            std::fprintf(
                stderr, "  [%llu/%llu] %s/%s%s%s %s%s\n",
                static_cast<unsigned long long>(
                    event.getU64("done")),
                static_cast<unsigned long long>(
                    event.getU64("total")),
                event.getString("workload").c_str(),
                event.getString("policy").c_str(),
                event.getString("variant").empty() ? "" : " ",
                event.getString("variant").c_str(),
                event.getBool("ok") ? "ok" : "FAILED",
                event.getBool("cached") ? " (cached)" : "");
        });
    if (!result.ok)
        bauvm::fatal("submit failed: %s", result.error.c_str());
    if (!quiet)
        std::fprintf(stderr,
                     "submit: %llu cells (%llu cached, %llu failed, "
                     "%llu timed out)\n",
                     static_cast<unsigned long long>(result.cells),
                     static_cast<unsigned long long>(result.cached),
                     static_cast<unsigned long long>(result.failed),
                     static_cast<unsigned long long>(
                         result.timed_out));
    if (!writeDoc(json_path, result.sweep_json))
        return 1;
    return result.failed == 0 ? 0 : 2;
}
