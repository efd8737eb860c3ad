/**
 * @file
 * bauvm_submit: run a sweep request in-process and write its sweep
 * document.
 *
 * Reads a bauvm.sweep-request/1 document (file or stdin), lowers it
 * onto a SweepSpec (src/serve/sweep_request.h) and runs it through
 * SweepRunner on the request's "jobs" worker threads, like every
 * bench. Per-cell progress goes to stderr; the bauvm.sweep/1.5
 * document goes to --json. --resume=DIR loads finished ok cells from
 * the content-addressed result cache in DIR instead of recomputing
 * them, and stores fresh ones there.
 *
 * Exit status: 0 when every cell is ok, 2 when some cell failed, 1 on
 * an invalid request or an unwritable output.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/runner/sweep_runner.h"
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
        "usage: bauvm_submit --request FILE [options]\n"
        "  --request FILE  bauvm.sweep-request/1 JSON ('-' = stdin)\n"
        "  --json PATH     write the sweep JSON here "
        "('-' = stdout, default)\n"
        "  --resume=DIR    replay finished cells from the result "
        "cache in DIR\n"
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
    std::string request_path;
    std::string json_path = "-";
    std::string resume_dir;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                bauvm::fatal("missing value for %s", what);
            return argv[++i];
        };
        if (arg == "--request") {
            request_path = next("--request");
        } else if (arg == "--json") {
            json_path = next("--json");
        } else if (arg.rfind("--resume=", 0) == 0) {
            resume_dir = arg.substr(std::strlen("--resume="));
            if (resume_dir.empty())
                bauvm::fatal("--resume= requires a directory");
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
    if (request_path.empty()) {
        printUsage(stderr);
        bauvm::fatal("--request is required");
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

    bauvm::JsonValue doc;
    std::string error;
    if (!bauvm::JsonValue::parse(request_text, &doc, &error))
        bauvm::fatal("malformed request JSON: %s", error.c_str());
    bauvm::SweepSpec spec;
    if (!bauvm::parseSweepRequest(doc, &spec, &error))
        bauvm::fatal("%s", error.c_str());
    spec.opt.resume_dir = resume_dir;
    spec.verbose = !quiet;
    const bauvm::SweepResult result =
        bauvm::SweepRunner(std::move(spec)).run();
    if (!writeDoc(json_path, result.toJson(/*pretty=*/false)))
        return 1;
    return result.failedCells() == 0 ? 0 : 2;
}
