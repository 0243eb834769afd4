/**
 * @file
 * Observability event schema: the compact binary transaction-lifecycle
 * events recorded by obs::Tracer and consumed by `tools/uhtm_trace`.
 *
 * Events are fixed-size (32 bytes) POD records so that the hot-path
 * cost of recording one is a handful of stores into a preallocated
 * ring. Trace files are a TraceFileHeader followed by raw native-endian
 * Event records; they are diagnostic artifacts, not part of the
 * deterministic bench JSON, and no simulator behaviour may depend on
 * whether they are being recorded (see DESIGN.md section 9).
 */

#ifndef UHTM_OBS_EVENT_HH
#define UHTM_OBS_EVENT_HH

#include <cstdint>

#include "sim/types.hh"

namespace uhtm::obs
{

/** What happened. Keep values stable: they are written to trace files. */
enum class EventKind : std::uint8_t
{
    None = 0,

    /** Transaction lifecycle. */
    TxBegin = 1,     ///< arg=domain, extra=attempt, flag0=serialized
    TxCommitStart,   ///< commit protocol entered
    TxCommitDone,    ///< arg=protocol duration (ticks)
    TxAbort,         ///< arg=protocol duration (ticks), extra=AbortCause
    TxSuspend,       ///< preempted off its core (paper IV-E)
    TxResume,        ///< re-installed on a core
    TxOverflow,      ///< first line left the on-chip caches; arg=line

    /** Version-management traffic. */
    RedoLogAppend,   ///< arg=line, flag0=coalesced into existing record
    UndoLogAppend,   ///< arg=line (old value logged on LLC eviction)
    DramCacheFill,   ///< arg=line inserted into the DRAM cache
    DramCacheEvict,  ///< arg=line, extra=EvictReason
    NvmWriteBack,    ///< arg=line lazily written to in-place NVM

    /** Off-chip conflict detection. */
    SigCheckHit,     ///< arg=line, tx=victim probed, flag0=false positive
    SigCheckMiss,    ///< arg=line, tx=victim probed

    /** Causal abort attribution (trace v2). Both fire back to back at
     *  the tick conflict resolution dooms the victim; tx=victim. */
    TxConflict,      ///< arg=conflicting line (0 = no line), extra=cause
    TxConflictBy,    ///< arg=killer tx id (kNoTx = none), extra=cause

    /** Commit stalled waiting for redo-log durability (trace v2);
     *  arg=stall ticks (emitted only when non-zero). */
    TxLogDrain,

    /** Traffic request lifecycle (trace v2, service figure; tx=0). */
    ReqBegin,        ///< arg=arrival tick, extra=request id, flags=tenant
    ReqEnd,          ///< arg=retries, extra=request id, flags=tenant
};

/** Number of defined kinds (for tool-side validation). */
inline constexpr unsigned kEventKindCount =
    static_cast<unsigned>(EventKind::ReqEnd) + 1;

/** DramCacheEvict reasons (Event::extra). */
enum EvictReason : std::uint32_t
{
    kEvictWriteBack = 0,       ///< committed dirty data, written to NVM
    kEvictUncommittedDrop = 1, ///< live speculative line forced out
    kEvictInvalidatedDrop = 2, ///< aborted data dropped silently
    kEvictClean = 3,           ///< committed clean data dropped
};

/** Printable EvictReason name ("?" for an unknown value). */
inline const char *
evictReasonName(std::uint32_t r)
{
    switch (r) {
      case kEvictWriteBack: return "write-back";
      case kEvictUncommittedDrop: return "uncommitted-drop";
      case kEvictInvalidatedDrop: return "invalidated-drop";
      case kEvictClean: return "clean";
    }
    return "?";
}

/** Event::flags bit 0 (meaning depends on kind, see EventKind). */
inline constexpr std::uint8_t kEvFlag0 = 1u << 0;

/** One recorded event. POD, written to trace files verbatim. */
struct Event
{
    Tick tick = 0;           ///< simulated time of the event
    TxId tx = 0;             ///< transaction involved (0 if none)
    std::uint64_t arg = 0;   ///< address or duration, per kind
    std::uint32_t extra = 0; ///< cause / domain / reason, per kind
    std::uint16_t core = 0;  ///< issuing core (0xffff if none)
    EventKind kind = EventKind::None;
    std::uint8_t flags = 0;
};

static_assert(sizeof(Event) == 32, "trace file format is fixed-size");

/** True when @p e names a cache line in Event::arg: the kinds that
 *  EventKind documents as arg=line, and a TxConflict unless arg=0
 *  ("no line"). Used by the readers' `line` fields and the
 *  `uhtm_trace --text=LINE` filter. */
inline constexpr bool
eventHasLine(const Event &e)
{
    switch (e.kind) {
      case EventKind::TxOverflow:
      case EventKind::RedoLogAppend:
      case EventKind::UndoLogAppend:
      case EventKind::DramCacheFill:
      case EventKind::DramCacheEvict:
      case EventKind::NvmWriteBack:
      case EventKind::SigCheckHit:
      case EventKind::SigCheckMiss:
        return true;
      case EventKind::TxConflict:
        return e.arg != 0;
      default:
        return false;
    }
}

/** Sentinel Event::core value for "no core". */
inline constexpr std::uint16_t kEvNoCore = 0xffff;

/** Trace file header, followed by raw Event records. */
struct TraceFileHeader
{
    char magic[8];            ///< "UHTMTRC\0"
    std::uint32_t version;    ///< kTraceVersion
    std::uint32_t eventBytes; ///< sizeof(Event)
    std::uint64_t ticksPerNs; ///< simulated time base (kTicksPerNs)
    std::uint64_t seed;       ///< the run's seed (job identification)
    std::uint64_t reserved;
};

static_assert(sizeof(TraceFileHeader) == 40);

inline constexpr char kTraceMagic[8] = {'U', 'H', 'T', 'M',
                                        'T', 'R', 'C', '\0'};
/** Current writer version. v2 added the causal-attribution kinds
 *  (TxConflict/TxConflictBy/TxLogDrain) and the traffic request
 *  lifecycle (ReqBegin/ReqEnd). Readers accept any version in
 *  [kTraceVersionMin, kTraceVersion]: the record layout is unchanged,
 *  older files simply lack the newer kinds. */
inline constexpr std::uint32_t kTraceVersion = 2;
inline constexpr std::uint32_t kTraceVersionMin = 1;

/** Printable event-kind name (tool and test output). */
inline const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::None: return "none";
      case EventKind::TxBegin: return "tx-begin";
      case EventKind::TxCommitStart: return "commit-start";
      case EventKind::TxCommitDone: return "commit-done";
      case EventKind::TxAbort: return "abort";
      case EventKind::TxSuspend: return "suspend";
      case EventKind::TxResume: return "resume";
      case EventKind::TxOverflow: return "overflow";
      case EventKind::RedoLogAppend: return "redo-append";
      case EventKind::UndoLogAppend: return "undo-append";
      case EventKind::DramCacheFill: return "dcache-fill";
      case EventKind::DramCacheEvict: return "dcache-evict";
      case EventKind::NvmWriteBack: return "nvm-writeback";
      case EventKind::SigCheckHit: return "sig-hit";
      case EventKind::SigCheckMiss: return "sig-miss";
      case EventKind::TxConflict: return "conflict";
      case EventKind::TxConflictBy: return "conflict-by";
      case EventKind::TxLogDrain: return "log-drain";
      case EventKind::ReqBegin: return "req-begin";
      case EventKind::ReqEnd: return "req-end";
    }
    return "?";
}

} // namespace uhtm::obs

#endif // UHTM_OBS_EVENT_HH
