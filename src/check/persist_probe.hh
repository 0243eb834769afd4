/**
 * @file
 * Persistence-ordering probe interface.
 *
 * Every point at which the simulated machine orders data towards
 * durable NVM (or towards the volatile logs that recovery depends on)
 * can notify an attached PersistProbe. The probe interface is
 * dependency-free so that the passive mem/ components can expose hooks
 * without pulling in the check/ subsystem; the concrete implementation
 * (FaultInjector) lives in check/fault_injector.hh.
 *
 * A null probe pointer is the common case and costs one branch.
 */

#ifndef UHTM_CHECK_PERSIST_PROBE_HH
#define UHTM_CHECK_PERSIST_PROBE_HH

#include <cstdint>

#include "sim/types.hh"

namespace uhtm
{

/** The kinds of persistence-ordering points the machine exposes. */
enum class PersistPoint
{
    /** NVM redo-log record append (async log write issued). */
    RedoLogAppend,
    /** NVM commit-record write (the transaction's durability point). */
    CommitMark,
    /** NVM abort-flag write. */
    AbortMark,
    /** DRAM-cache eviction of a committed dirty line towards NVM. */
    DramCacheWriteback,
    /** DRAM-cache eviction dropping an uncommitted line. */
    DramCacheDrop,
    /** In-place NVM line write (durable image update), reported at
     *  issue; complete_at is its completion, when it becomes durable. */
    InPlaceNvmWrite,
    /** DRAM undo-log record append (old value logged). */
    UndoLogAppend,
    /** DRAM undo commit-mark write. */
    UndoCommitMark,
    /** Undo-log copy-back of one old value during abort. */
    UndoCopyBack,
};

/** Printable persist-point name. */
inline const char *
persistPointName(PersistPoint p)
{
    switch (p) {
      case PersistPoint::RedoLogAppend: return "redo-append";
      case PersistPoint::CommitMark: return "commit-mark";
      case PersistPoint::AbortMark: return "abort-mark";
      case PersistPoint::DramCacheWriteback: return "dcache-writeback";
      case PersistPoint::DramCacheDrop: return "dcache-drop";
      case PersistPoint::InPlaceNvmWrite: return "inplace-nvm-write";
      case PersistPoint::UndoLogAppend: return "undo-append";
      case PersistPoint::UndoCommitMark: return "undo-commit-mark";
      case PersistPoint::UndoCopyBack: return "undo-copyback";
    }
    return "?";
}

/**
 * Observer of persistence-ordering points.
 *
 * @p complete_at is the tick at which the operation's effect becomes
 * durable (0 if the component does not know; the receiver substitutes
 * the current tick). @p bytes is the 64-byte line image involved, or
 * nullptr when the point carries no data (marks, drops).
 */
struct PersistProbe
{
    virtual ~PersistProbe() = default;

    virtual void notifyPersist(PersistPoint point, Addr line,
                               Tick complete_at,
                               const std::uint8_t *bytes) = 0;
};

} // namespace uhtm

#endif // UHTM_CHECK_PERSIST_PROBE_HH
