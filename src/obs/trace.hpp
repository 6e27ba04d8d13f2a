// Structured runtime tracing: the recording half of the observability
// layer (src/obs).
//
// Every headline figure of the paper is an observation of the runtime —
// task timelines (Figs. 9, 11), per-kernel-class flop breakdowns (Table I,
// Fig. 10), rank traffic through the hcore kernels (Fig. 1). This recorder
// captures those observations for real executions:
//
//   * one Span per executed task, holding the task name, tile coordinates,
//     kernel class, worker lane, global steady-clock interval, the flops
//     the task actually charged, and the operand ranks in/out reported by
//     the hcore kernels;
//   * communication events from the in-process Communicator (mailbox);
//   * run-level metadata set by the drivers (problem size, BAND_SIZE,
//     thread count, accuracy).
//
// Recording is lock-free on the hot path: each recording thread owns a
// registered buffer and appends without synchronization; the registry
// mutex is taken only at thread registration/retirement and at flush
// time. Flushing while tasks are in flight is a data race by contract —
// drivers flush after the worker pool has joined.
//
// The master switch is off by default and every hook compiles to a single
// relaxed atomic load when disabled, so an untraced run pays nothing.
// Environment knobs (read by enable_from_env / write_chrome_trace_from_env,
// see docs/observability.md):
//
//   PTLR_TRACE=1          enable recording (0/empty/unset: disabled)
//   PTLR_TRACE_FILE=path  Chrome trace output path (default ptlr_trace.json)
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "obs/counters.hpp"

namespace ptlr::obs {

/// What a span describes; becomes the "cat" field of the Chrome event.
enum class SpanCat : int {
  kTask = 0,   ///< an executed task body (executor lane, pid 0)
  kComm = 1,   ///< a message send (sending-thread lane, pid 1)
  kResil = 2,  ///< a recovery event (resilience lane, pid 2)
};

/// One recorded event.
struct Span {
  std::string name;    ///< task name, e.g. "gemm(5,3,1)", or "send"
  std::string detail;  ///< free-form detail (resilience events only)
  SpanCat cat = SpanCat::kTask;
  int kind = -1;       ///< kernel class (flops::Kernel value; -1 = other)
  int panel = -1;      ///< Cholesky panel index k
  int ti = -1, tj = -1;  ///< tile coordinates (comm: from/to ranks)
  int worker = 0;      ///< lane: worker id (tasks), recording thread (rest)
  double t0 = 0.0;     ///< seconds on the process-global steady clock
  double t1 = 0.0;
  double flops = 0.0;  ///< flops charged by this task's kernels (measured)
  long long bytes = 0; ///< output/payload bytes
  int rank_in = -1;    ///< max operand rank entering the kernel (-1: n/a)
  int rank_out = -1;   ///< output rank leaving the kernel (-1: n/a)
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Master switch for the whole observability layer (tracing + counters).
/// A relaxed load — this is the only cost instrumentation pays when off.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flip the master switch programmatically (tests, tools).
void enable(bool on);

/// True if the PTLR_TRACE environment knob asks for tracing.
bool env_trace_requested();

/// enable(true) iff PTLR_TRACE asks for it; returns the resulting state.
bool enable_from_env();

/// PTLR_TRACE_FILE, or "ptlr_trace.json" when unset.
std::string trace_file_from_env();

/// Seconds on the process-global steady clock (epoch = first use). All
/// span timestamps share this timebase, so spans from successive runs in
/// one process are globally ordered and survive wall-clock adjustments.
double now_seconds();

/// Drop every recorded span, metadata entry, and counter. Callers must be
/// quiesced (no worker pool running).
void reset();

// -------------------------------------------------------------- recording
// The executor wraps each task body in task_begin()/task_end(). Between
// the two, layers below may annotate the open span (actual kernel class
// from hcore dispatch, operand ranks); annotations are thread-local, so
// they need no plumbing through the task-graph bodies.
//
// Nested child tasks (runtime/nested.hpp) open no spans of their own —
// the parent's span covers the whole fork/join scope. This keeps span
// flop attribution exact under nesting by construction: flop models are
// charged at the public dense:: entry points, which always execute on the
// parent's thread (children run only the uncharged internal bodies), so
// the parent's thread-local accumulator sees every flop of the kernel no
// matter which workers the children land on, and a retried parent re-opens
// its span exactly as before.

/// Open a span on this thread: stamps t0 and zeroes the thread-local flop
/// accumulator. No-op when disabled.
void task_begin();

/// Override the kernel class of the open span with the kernel the hcore
/// dispatch actually selected. No-op when disabled or no span is open.
void annotate_kernel(int kind) noexcept;

/// Report operand ranks of the open span: `rank_in` entering the kernel,
/// `rank_out` of the (low-rank) output, -1 for not-applicable. No-op when
/// disabled or no span is open.
void annotate_ranks(int rank_in, int rank_out) noexcept;

/// Close the span: stamps t1, reads the thread-local flop delta, merges
/// the annotations, appends to this thread's buffer and feeds the counter
/// registry. `kind` is the task's declared class (annotate_kernel wins
/// when both are present). No-op when disabled.
void task_end(const std::string& name, int kind, int panel, int ti, int tj,
              int worker, long long output_bytes);

/// Record a mailbox deposit `from -> to` of `bytes` payload bytes: an
/// instant comm span plus the comm counters. No-op when disabled.
void record_comm(int from, int to, long long bytes);

/// What a wire-level frame event describes (src/net socket transport).
enum class NetEvent : int { kSend = 0, kRecv, kRetransmit, kRejoin };

/// Record one wire frame `from -> to` of `bytes` payload crossing a real
/// socket: an instant comm-lane span named "net_send" / "net_recv" /
/// "net_retransmit" plus the net counter channel. No-op when disabled.
void record_net(NetEvent ev, int from, int to, long long bytes);

/// Record one recompression: `rank_in` before (concatenated factor),
/// `rank_out` after rounding. Counter-only. No-op when disabled.
void record_compression(int rank_in, int rank_out);

/// Record one adaptive-engine recompression attempt: sketch columns drawn,
/// whether the deterministic fallback decided, and the final stochastic
/// residual estimate. Counter-only. No-op when disabled.
void record_adaptive(int sketch_cols, bool fallback, double est_residual);

/// Record one recovery event (counters.hpp vocabulary): an instant span in
/// the resilience lane (pid 2, one tid per recording thread so lane
/// timestamps stay monotone) plus the resilience counter channel. `detail`
/// is free-form context ("task trsm(3,1) attempt 1", "tag 0x4...").
/// Drivers should prefer resil::note() (src/resilience), which also feeds
/// the always-on RecoveryStats; this hook is the obs half. No-op when
/// disabled.
void record_resilience(ResilienceEvent ev, const std::string& detail);

// -------------------------------------------------------------- metadata

/// Attach a run-level key/value (problem size, BAND_SIZE, accuracy...);
/// written into the trace header's "run" metadata event. Unlike spans this
/// records even when the master switch is off — it is driver-level, not
/// hot-path.
void set_metadata(const std::string& key, const std::string& value);

// ---------------------------------------------------------------- output

/// Copy of every span recorded so far, across all registered threads, in
/// per-thread recording order. Callers must be quiesced.
std::vector<Span> snapshot_spans();

/// Serialize all recorded spans + metadata as Chrome trace_event JSON
/// (object form, "traceEvents" array; load at chrome://tracing or
/// https://ui.perfetto.dev). Throws ptlr::Error on I/O failure.
void write_chrome_trace(const std::string& path);

/// write_chrome_trace(trace_file_from_env()) iff PTLR_TRACE is on.
/// Returns the path written, or an empty string if tracing is off.
std::string write_chrome_trace_from_env();

/// Write `content` to `path` (reporter JSON artifacts next to the trace).
/// Throws ptlr::Error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace ptlr::obs
