// qp::obs continuous profiling: where do the cycles, the lock
// waits and the bytes go?
//
// Three collectors, all cheap enough to leave on in a serving process:
//
//  1. CpuProfiler — a sampling wall/CPU profiler. SIGPROF from
//     setitimer(ITIMER_PROF) fires against whichever thread is burning CPU
//     (the kernel delivers process-CPU-timer signals to a running thread),
//     so per-thread attribution falls out statistically with no thread
//     registration. The handler takes an async-signal-safe frame-pointer
//     backtrace (requires -fno-omit-frame-pointer, which the build sets
//     globally) and pushes it into a lock-free fixed-capacity MPSC ring;
//     the ring is drained OFF-signal into a stack -> count fold table and
//     symbolized lazily (dladdr + __cxa_demangle) only at render time.
//     Output is collapsed/folded-stack text: `frame;frame;frame count`,
//     one line per unique stack, root first — directly consumable by
//     flamegraph.pl or scripts/fold_to_svg.py.
//
//  2. Lock contention — rendered from common::ContentionRegistry (the
//     sites behind common::ProfiledMutex; the registry lives in `common`
//     because the thread pool itself uses a profiled mutex and obs depends
//     on common, not the other way around).
//
//  3. HeapProfiler — sampled operator new/delete interposition: a
//     thread-local byte countdown with geometrically distributed refresh
//     (mean Options-chosen bytes between samples) picks ~one allocation
//     per interval; sampled pointers carry their stack until freed, so
//     live bytes AND allocation rate both attribute to stacks. Each sample
//     is weighted by max(size, interval) as an unbiased-enough estimate of
//     the bytes it represents. The interposed operators are compiled out
//     under ASan/TSan (those runtimes own malloc and new/delete pairing
//     diagnostics); HeapProfiler::Available() reports which build this is.
//
// Determinism contract: everything here is timing-derived and lives
// OUTSIDE the deterministic surface. Profiling state must never feed the
// query log's deterministic projection, answers, ExecStats or the pinned
// bench counters — all byte-identical guarantees hold with every collector
// enabled (tests/prof_stress_test.cc pins this differentially).
//
// Signal-safety rules for CpuProfiler's handler (see DESIGN.md):
//   - no allocation, no locks, no stdio, no exceptions;
//   - the only shared-state writes are lock-free ring slots + relaxed
//     counters;
//   - every frame pointer is validated (alignment, monotonically
//     increasing, bounded step) and its page proven readable before
//     dereference by write(2)-ing one byte from it into a pre-opened
//     self-pipe (EFAULT == unreadable; unlike msync this rejects PROT_NONE
//     guard pages, and unlike /dev/null — whose driver reports success
//     without ever reading the buffer — a pipe write genuinely copies from
//     user memory), so a broken chain ends the walk instead of faulting;
//   - errno is saved and restored.

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace qp::obs {

/// Cumulative CPU-profiler counters (relaxed reads; exact totals).
struct CpuProfileTotals {
  uint64_t samples = 0;  ///< backtraces captured into the ring
  uint64_t dropped = 0;  ///< samples lost to a full ring
};

/// \brief Process-global sampling CPU profiler (one SIGPROF timer exists
/// per process, so this is a singleton by nature).
///
/// Thread-safety: Start/Stop/Reset serialize on an internal mutex;
/// FoldedText and totals() may run concurrently with sampling.
class CpuProfiler {
 public:
  struct Options {
    /// Sampling frequency in Hz of process CPU time (not wall time): an
    /// idle process produces no samples. 97 is prime, so periodic work
    /// cannot alias against the sampling grid.
    int hz = 97;
  };

  static CpuProfiler& Global();

  /// Installs the SIGPROF handler (first call only; the handler stays
  /// installed for the process lifetime so a straggling signal after Stop
  /// can never hit SIG_DFL and kill the process) and arms the interval
  /// timer. AlreadyExists when running.
  Status Start(const Options& options);
  Status Start() { return Start(Options()); }

  /// Disarms the timer. Samples already in the ring survive for the next
  /// drain. Idempotent.
  void Stop();

  bool running() const;

  /// Drops every folded stack and zeroes the totals — the start of a fresh
  /// observation window (/pprofz does this for on-demand captures).
  void Reset();

  /// Drains the ring and renders the fold table as collapsed-stack text,
  /// symbolizing lazily: `a;b;c 42` per unique stack, root first.
  /// Cumulative since the last Reset().
  std::string FoldedText();

  CpuProfileTotals totals() const;

 private:
  CpuProfiler() = default;
};

/// Cumulative heap-sampler counters. `sampled_*` count what the sampler
/// actually caught; `estimated_*` scale each sample by its weight.
struct HeapProfileTotals {
  uint64_t sampled_allocs = 0;
  uint64_t sampled_bytes = 0;          ///< raw bytes of sampled allocations
  uint64_t estimated_alloc_bytes = 0;  ///< weighted cumulative allocation
  uint64_t live_sampled_bytes = 0;     ///< raw bytes of still-live samples
  uint64_t live_estimated_bytes = 0;   ///< weighted live heap estimate
};

/// \brief Process-global sampling heap profiler over the interposed
/// operator new/delete (compiled out under ASan/TSan — Available()).
class HeapProfiler {
 public:
  static HeapProfiler& Global();

  /// True when this build interposes operator new/delete. When false,
  /// Enable() is a no-op and every total stays 0.
  static bool Available();

  /// Starts sampling roughly one allocation per `mean_sample_bytes`
  /// allocated per thread (geometric intervals). Already-live allocations
  /// are not retroactively sampled.
  void Enable(uint64_t mean_sample_bytes = 512 * 1024);

  /// Stops sampling new allocations. Live sampled pointers keep their
  /// records until freed (their frees are still matched), so live-byte
  /// attribution stays correct across Disable.
  void Disable();

  bool enabled() const;

  /// Forgets every record and zeroes the totals. Only safe semantics-wise
  /// when callers accept losing attribution for currently-live sampled
  /// pointers (their later frees become no-ops); /allocz never calls this.
  void Reset();

  /// Collapsed-stack text. `live` weights each stack by estimated live
  /// bytes; otherwise by estimated cumulative allocated bytes.
  std::string FoldedText(bool live = true);

  HeapProfileTotals totals() const;

 private:
  HeapProfiler() = default;
};

/// The /contentionz body: one line per common::ContentionRegistry site —
/// acquisitions, contended acquisitions, total/max wait and the wait-time
/// histogram buckets.
std::string ContentionText();

/// Aggregate lock-contention totals across every site (the
/// qp_prof_lock_* families).
struct ContentionTotals {
  uint64_t acquisitions = 0;
  uint64_t contentions = 0;
  double wait_seconds = 0.0;
};
ContentionTotals ContentionTotalsNow();

/// Best-effort symbolization of one program counter: demangled function
/// name when dladdr resolves it (the build exports dynamic symbols via
/// CMAKE_ENABLE_EXPORTS precisely so it can), else "module+0xoff", else a
/// hex address. Exposed for tests.
std::string SymbolizePc(const void* pc);

namespace internal {
/// Frame-pointer stack walk from the CALLER's context: fills `pcs` with up
/// to `max` return addresses, skipping `skip` innermost frames. Safe
/// against broken chains (page-probe + validation); NOT the signal-context
/// entry point, but shares its walker. Exposed for tests.
int WalkStackFromHere(const void** pcs, int max, int skip);
}  // namespace internal

}  // namespace qp::obs
