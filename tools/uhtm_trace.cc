/**
 * @file
 * uhtm_trace: offline inventory/histogram viewer for the binary
 * lifecycle-event traces recorded by obs::Tracer (src/obs/event.hh).
 * The heavier causal analysis lives in uhtm_analyze; both share the
 * reader and Chrome exporter in src/obs/analyze.{hh,cc}.
 *
 * Usage:
 *   uhtm_trace <trace.uhtmtrace | dir>... [--chrome out.json]
 *   uhtm_trace <trace.uhtmtrace | dir>... --text[=LINE]
 *
 * Prints, across all input files:
 *   - an event-kind inventory;
 *   - the abort-cause breakdown (counts, share, protocol time) with
 *     per-cause totals that sum exactly to the trace's abort count;
 *   - per-stage latency histograms (commit and abort protocol) as
 *     power-of-two buckets.
 *
 * With --chrome, additionally emits Chrome trace_event JSON (open in
 * chrome://tracing or https://ui.perfetto.dev): one "X" complete event
 * per transaction from begin to commit/abort, instants for overflows,
 * signature hits, DRAM-cache evictions and NVM write-backs, and
 * killer→victim conflict flow arrows (trace v2). pid = input file (one
 * simulated machine each), tid = core.
 *
 * With --text, prints only the human-readable event log instead: one
 * line per event in file order (obs::writeTextTrace). --text=LINE keeps
 * the events on one cache line (hex, line-aligned); a malformed LINE
 * exits 2.
 *
 * Accepts any trace version in [kTraceVersionMin, kTraceVersion]; a
 * record with an out-of-range event kind is a hard error (corrupt or
 * future-format file), not a silent truncation.
 */

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/abort_profile.hh"
#include "obs/analyze.hh"
#include "sim/stats.hh"

using namespace uhtm;
using obs::Event;
using obs::EventKind;

namespace
{

void
printHistogram(const char *title, const Distribution &d)
{
    std::printf("\n%s (count=%" PRIu64 ", mean=%.1f ns, stddev=%.1f ns, "
                "max=%.1f ns)\n",
                title, d.count(), d.mean(), d.stddev(), d.max());
    const auto &h = d.histogram();
    std::uint64_t peak = 0;
    for (auto b : h)
        peak = std::max(peak, b);
    if (!peak)
        return;
    for (unsigned i = 0; i < Distribution::kLog2Buckets; ++i) {
        if (!h[i])
            continue;
        const double lo = i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1));
        const int bar =
            static_cast<int>(50.0 * static_cast<double>(h[i]) /
                             static_cast<double>(peak));
        std::printf("  >=%10.0f ns %10" PRIu64 " %.*s\n", lo, h[i],
                    bar > 0 ? bar : (h[i] ? 1 : 0),
                    "##################################################");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    static const char *const kUsage =
        "usage: uhtm_trace <trace.uhtmtrace | dir>... "
        "[--chrome out.json | --text[=LINE]]\n";
    std::vector<std::string> inputs;
    std::string chrome_out;
    bool text = false;
    std::optional<Addr> text_line;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--chrome") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--chrome needs an output path\n");
                return 2;
            }
            chrome_out = argv[++i];
        } else if (arg.rfind("--chrome=", 0) == 0) {
            chrome_out = arg.substr(9);
        } else if (arg == "--text") {
            text = true;
        } else if (arg.rfind("--text=", 0) == 0) {
            Addr line = 0;
            if (!obs::parseTraceLine(arg.substr(7), line)) {
                std::fprintf(stderr,
                             "uhtm_trace: --text=LINE needs a %u-byte "
                             "aligned hex line address, got '%s'\n",
                             kLineBytes, arg.c_str() + 7);
                return 2;
            }
            text = true;
            text_line = line;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("%s", kUsage);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return 2;
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty() || (text && !chrome_out.empty())) {
        std::fprintf(stderr, "%s", kUsage);
        return 2;
    }

    std::vector<obs::TraceData> files;
    for (const auto &p : obs::expandTraceInputs(inputs)) {
        obs::TraceData tf;
        std::string err;
        if (!obs::readTrace(p, tf, &err)) {
            std::fprintf(stderr, "uhtm_trace: %s\n", err.c_str());
            return 1;
        }
        files.push_back(std::move(tf));
    }
    if (files.empty()) {
        std::fprintf(stderr, "uhtm_trace: no trace files found\n");
        return 1;
    }
    if (text) {
        obs::writeTextTrace(files, stdout, text_line);
        return 0;
    }

    // ---- inventory ----
    std::array<std::uint64_t, obs::kEventKindCount> kinds{};
    std::uint64_t total = 0;
    for (const auto &f : files) {
        for (const Event &e : f.events) {
            ++kinds[static_cast<unsigned>(e.kind)];
            ++total;
        }
    }
    std::printf("%zu trace file(s), %" PRIu64 " events\n", files.size(),
                total);
    for (unsigned k = 1; k < obs::kEventKindCount; ++k) {
        if (kinds[k]) {
            std::printf("  %-14s %10" PRIu64 "\n",
                        obs::eventKindName(static_cast<EventKind>(k)),
                        kinds[k]);
        }
    }

    // ---- abort attribution ----
    struct CauseRow
    {
        std::uint64_t count = 0;
        Tick protocolTicks = 0;
    };
    std::array<CauseRow, kAbortCauseCount> causes{};
    // Per-domain (tenant) attribution: TxBegin carries the domain in
    // arg, TxAbort only the cause, so join them on the tx id. Tx ids
    // are only unique within one trace file, so the join map resets
    // per file. Aborts whose begin fell outside the trace land in the
    // "unknown" bucket so the table still sums exactly.
    std::map<std::uint32_t, std::array<std::uint64_t, kAbortCauseCount>>
        domainCauses;
    std::uint64_t domainUnknown = 0;
    Distribution commit_ns, abort_ns;
    std::uint64_t commits = 0, aborts = 0;
    for (const auto &f : files) {
        std::unordered_map<TxId, std::uint32_t> txDomain;
        for (const Event &e : f.events) {
            if (e.kind == EventKind::TxBegin) {
                txDomain[e.tx] = static_cast<std::uint32_t>(e.arg);
            } else if (e.kind == EventKind::TxCommitDone) {
                ++commits;
                commit_ns.sample(nsFromTicks(e.arg));
                txDomain.erase(e.tx);
            } else if (e.kind == EventKind::TxAbort) {
                ++aborts;
                abort_ns.sample(nsFromTicks(e.arg));
                CauseRow &row = causes[e.extra % kAbortCauseCount];
                ++row.count;
                row.protocolTicks += e.arg;
                auto it = txDomain.find(e.tx);
                if (it != txDomain.end()) {
                    ++domainCauses[it->second][e.extra % kAbortCauseCount];
                    txDomain.erase(it);
                } else {
                    ++domainUnknown;
                }
            }
        }
    }

    std::printf("\ncommits %" PRIu64 ", aborts %" PRIu64
                " (abort rate %.2f%%)\n",
                commits, aborts,
                commits + aborts
                    ? 100.0 * static_cast<double>(aborts) /
                          static_cast<double>(commits + aborts)
                    : 0.0);
    if (aborts) {
        std::printf("%-26s %10s %8s %14s\n", "abort cause", "count",
                    "share", "protocol ns");
        std::uint64_t check = 0;
        for (unsigned c = 0; c < kAbortCauseCount; ++c) {
            if (!causes[c].count)
                continue;
            check += causes[c].count;
            std::printf("%-26s %10" PRIu64 " %7.2f%% %14.0f\n",
                        obs::abortClassName(static_cast<AbortCause>(c)),
                        causes[c].count,
                        100.0 * static_cast<double>(causes[c].count) /
                            static_cast<double>(aborts),
                        nsFromTicks(causes[c].protocolTicks));
        }
        std::printf("%-26s %10" PRIu64 "\n", "total", check);
    }

    if (aborts && (!domainCauses.empty() || domainUnknown)) {
        std::printf("\n%-26s %10s %8s %26s\n", "domain (tenant)", "count",
                    "share", "dominant cause");
        std::uint64_t check = 0;
        for (const auto &[dom, byCause] : domainCauses) {
            std::uint64_t count = 0, best = 0;
            unsigned bestCause = 0;
            for (unsigned c = 0; c < kAbortCauseCount; ++c) {
                count += byCause[c];
                if (byCause[c] > best) {
                    best = byCause[c];
                    bestCause = c;
                }
            }
            check += count;
            std::printf("%-26s %10" PRIu64 " %7.2f%% %26s\n",
                        ("domain" + std::to_string(dom)).c_str(), count,
                        100.0 * static_cast<double>(count) /
                            static_cast<double>(aborts),
                        obs::abortClassName(
                            static_cast<AbortCause>(bestCause)));
        }
        if (domainUnknown) {
            check += domainUnknown;
            std::printf("%-26s %10" PRIu64 " %7.2f%% %26s\n", "unknown",
                        domainUnknown,
                        100.0 * static_cast<double>(domainUnknown) /
                            static_cast<double>(aborts),
                        "-");
        }
        std::printf("%-26s %10" PRIu64 "\n", "total", check);
    }

    printHistogram("commit protocol latency", commit_ns);
    printHistogram("abort protocol latency", abort_ns);

    if (!chrome_out.empty()) {
        std::string err;
        if (!obs::writeChromeTrace(files, chrome_out, &err)) {
            std::fprintf(stderr, "uhtm_trace: %s\n", err.c_str());
            return 1;
        }
        std::printf("wrote %s\n", chrome_out.c_str());
    }
    return 0;
}
