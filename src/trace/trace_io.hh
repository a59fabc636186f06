/**
 * @file
 * Binary (de)serialization of TaskTraces.
 *
 * The on-disk format lets users snapshot generated workloads and feed
 * identical traces to different simulator configurations, mirroring
 * the trace-driven workflow of TaskSim. The stream overloads also
 * back content hashing (harness/result_cache keys traces by their
 * serialized bytes) and, eventually, shipping traces to
 * out-of-process workers.
 *
 * Corruption (truncation, bad magic, implausible lengths, an
 * out-of-range memory-pattern kind, dangling dependency edges)
 * raises IoError — recoverable, see common/binary_io — so a damaged
 * file can be skipped by a batch instead of killing it. A trace that decodes structurally but
 * violates DAG invariants still panics in TaskTrace::validate(),
 * which signals a serializer bug rather than bad bytes.
 */

#ifndef TP_TRACE_TRACE_IO_HH
#define TP_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/trace.hh"

namespace tp::trace {

/** Write a trace to a stream in the native binary format. */
void serializeTrace(const TaskTrace &trace, std::ostream &out);

/** Write a trace to `path` in the native binary format. */
void serializeTrace(const TaskTrace &trace, const std::string &path);

/**
 * Read a trace back from a stream.
 *
 * @param name label for error messages (the path when reading a file)
 * @throws IoError on any corruption (see file comment)
 */
TaskTrace deserializeTrace(std::istream &in, const std::string &name);

/** Read a trace back from `path`; throws IoError on corruption. */
TaskTrace deserializeTrace(const std::string &path);

} // namespace tp::trace

#endif // TP_TRACE_TRACE_IO_HH
