#include "obs/prof.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/profiled_mutex.h"

// Heap interposition is compiled out under ASan/TSan: those runtimes own
// the allocator (and its new/delete pairing diagnostics); overriding the
// global operators there would trade their checking for our sampling.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QP_HEAP_INTERPOSED 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QP_HEAP_INTERPOSED 0
#else
#define QP_HEAP_INTERPOSED 1
#endif
#else
#define QP_HEAP_INTERPOSED 1
#endif

namespace qp::obs {
namespace {

constexpr int kMaxFrames = 64;
constexpr size_t kRingCapacity = 2048;  // power of two
constexpr size_t kRingMask = kRingCapacity - 1;

// ---------------------------------------------------------------------------
// Async-signal-safe stack walking

/// A self-pipe for readability probes, created lazily from NON-signal
/// contexts (Start/Enable/WalkStackFromHere) so the signal handler only
/// ever loads the fds. -1 until the first profiler activation. The write
/// end is published last: a handler that sees the write fd can rely on the
/// read fd.
std::atomic<int> g_probe_read_fd{-1};
std::atomic<int> g_probe_write_fd{-1};

/// Creates the probe pipe once. Never called from a signal handler.
void EnsureProbeFd() {
  if (g_probe_write_fd.load(std::memory_order_acquire) >= 0) return;
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return;
  int expected = -1;
  if (g_probe_read_fd.compare_exchange_strong(expected, fds[0],
                                              std::memory_order_acq_rel)) {
    g_probe_write_fd.store(fds[1], std::memory_order_release);
  } else {
    // Lost the race; the winner's pipe serves everyone.
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

/// True when the page containing `addr` is actually READABLE, proven by
/// making the kernel copy one byte from it: write(2) into a pipe fails
/// with EFAULT on an unreadable source. Two classic probes get this
/// wrong — msync(MS_ASYNC) only checks that a MAPPING exists, so a
/// PROT_NONE mapping (a thread-stack guard page, exactly where a garbage
/// frame pointer lands) passes it; and write-to-/dev/null never touches
/// the buffer at all (the null driver just returns the count), so it
/// cannot EFAULT either. A pipe write genuinely copies. write/read are
/// async-signal-safe, allocation-free and lock-free; the pipe is drained
/// after each hit so concurrent probes cannot fill its buffer. Without
/// the pipe the probe fails closed and the walk ends at the first
/// unverifiable frame.
///
/// Raw syscall(2), NOT ::write/::read: the sanitizer runtimes interpose
/// libc I/O and their interceptors touch shadow memory for the source
/// buffer — for an arbitrary probed address outside the app ranges the
/// shadow itself is unmapped, so the *interceptor* faults before the
/// kernel ever checks the pointer (observed as a prof_stress_test SEGV
/// under TSan). syscall() skips the interposition; the kernel performs
/// the only dereference and reports it as EFAULT.
bool PageReadable(uintptr_t addr, uintptr_t page_mask) {
  const int wfd = g_probe_write_fd.load(std::memory_order_relaxed);
  if (wfd < 0) return false;
  const void* page = reinterpret_cast<const void*>(addr & ~page_mask);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const ssize_t n = ::syscall(SYS_write, wfd, page, 1);
    char scratch[64];
    // Drain our byte (plus any strays from racing probes). Reading after
    // a failed write too keeps the pipe empty for the retry.
    (void)::syscall(SYS_read, g_probe_read_fd.load(std::memory_order_relaxed),
                    scratch, sizeof(scratch));
    if (n == 1) return true;
    if (errno != EAGAIN) return false;  // EFAULT: unreadable
    // EAGAIN: racing probes momentarily filled the pipe; retry once after
    // the drain above, else fail closed.
  }
  return false;
}

/// Walks a frame-pointer chain starting at (pc, fp). Every dereference is
/// guarded: fp must be pointer-aligned, strictly increasing (stacks grow
/// down; walking toward the base only moves up), step at most 1 MiB, and
/// both words of the frame record probed readable. A chain broken by a
/// frame-pointer-less library frame simply ends the walk.
///
/// no_sanitize: the frame loads are wild-but-verified reads. Under TSan
/// an instrumented read computes a shadow address first, and a page that
/// is kernel-readable yet outside TSan's application ranges (runtime
/// internals, odd mappings a garbage fp can land in) has NO shadow — the
/// instrumentation faults on the shadow access before the app load even
/// runs (observed: SEGV inside __tsan::MemoryAccess). Under ASan the
/// load could trip poisoned-redzone reports for the same reason. The
/// plain uninstrumented load is exactly what the pipe probe proved safe.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((no_sanitize("thread", "address")))
#endif
int WalkFromFp(const void* pc, uintptr_t fp, uintptr_t page_mask,
               const void** pcs, int max) {
  int n = 0;
  if (pc != nullptr && n < max) pcs[n++] = pc;
  uintptr_t last_probed_page = 0;
  while (n < max) {
    // < 4096: a frame pointer in the zero page is garbage even when some
    // environment maps page zero readable.
    if (fp < 4096 || (fp & (sizeof(uintptr_t) - 1)) != 0) break;
    // Probe the two words [fp, fp+2*ws): one page check usually covers
    // both; re-probe only when the record crosses a page edge.
    const uintptr_t first_page = fp & ~page_mask;
    const uintptr_t last_page =
        (fp + 2 * sizeof(uintptr_t) - 1) & ~page_mask;
    if (first_page != last_probed_page) {
      if (!PageReadable(fp, page_mask)) break;
      last_probed_page = first_page;
    }
    if (last_page != first_page) {
      if (!PageReadable(last_page, page_mask)) break;
      // Walking up the stack, the next frames live on this page: remember
      // it so they skip their first-word probe.
      last_probed_page = last_page;
    }
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t next_fp = frame[0];
    const uintptr_t ret = frame[1];
    if (ret < 4096) break;  // return address in the zero page: garbage
    pcs[n++] = reinterpret_cast<const void*>(ret);
    if (next_fp <= fp || next_fp - fp > (1u << 20)) break;
    fp = next_fp;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Lock-free MPSC sample ring (Vyukov bounded queue)
//
// Producers are SIGPROF handlers on arbitrary threads; the consumer is
// whoever drains under the profiler mutex. Push is lock-free (CAS loop, no
// syscalls) and drops on full — a profiler must never block the profiled.

struct RingCell {
  std::atomic<uint64_t> seq{0};
  int32_t depth = 0;
  const void* pcs[kMaxFrames];
};

struct SampleRing {
  RingCell cells[kRingCapacity];
  std::atomic<uint64_t> head{0};
  uint64_t tail = 0;  ///< consumer-only; guarded by the profiler mutex

  void InitSequences() {
    for (size_t i = 0; i < kRingCapacity; ++i) {
      cells[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Signal-context push. False when the ring is full.
  bool TryPush(const void* const* pcs, int depth) {
    uint64_t pos = head.load(std::memory_order_relaxed);
    for (;;) {
      RingCell& cell = cells[pos & kRingMask];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t dif =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (dif == 0) {
        if (head.compare_exchange_weak(pos, pos + 1,
                                       std::memory_order_relaxed)) {
          cell.depth = depth;
          for (int i = 0; i < depth; ++i) cell.pcs[i] = pcs[i];
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = head.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer pop; false when empty (or the next slot is mid-write, in
  /// which case it will be available on the next drain).
  bool TryPop(const void** pcs, int* depth) {
    RingCell& cell = cells[tail & kRingMask];
    const uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(tail + 1) < 0) {
      return false;
    }
    *depth = cell.depth;
    for (int i = 0; i < cell.depth; ++i) pcs[i] = cell.pcs[i];
    cell.seq.store(tail + kRingCapacity, std::memory_order_release);
    ++tail;
    return true;
  }
};

// ---------------------------------------------------------------------------
// Symbolization + folded rendering (render-time only, never on the hot path)

/// Demangles and trims one frame name for folded output: strip the
/// argument list (flamegraph frames are function identities, not
/// signatures) and replace the characters the folded format reserves.
std::string CleanFrameName(std::string name) {
  // "(anonymous namespace)" would be destroyed by the paren trim below.
  for (size_t pos; (pos = name.find("(anonymous namespace)")) !=
                   std::string::npos;) {
    name.replace(pos, 21, "{anon}");
  }
  size_t paren = name.find('(');
  // Keep "operator()" and friends intact.
  while (paren != std::string::npos && paren >= 8 &&
         name.compare(paren - 8, 8, "operator") == 0) {
    paren = name.find('(', paren + 2);
  }
  if (paren != std::string::npos) name.resize(paren);
  for (char& c : name) {
    if (c == ';' || c == ' ' || c == '\n') c = '_';
  }
  return name.empty() ? std::string("??") : name;
}

using Stack = std::vector<const void*>;
using SymbolCache = std::map<const void*, std::string>;

const std::string& SymbolFor(const void* pc, SymbolCache* cache) {
  auto it = cache->find(pc);
  if (it != cache->end()) return it->second;
  return cache->emplace(pc, SymbolizePc(pc)).first->second;
}

/// Renders a stack -> weight fold table as collapsed-stack text, merging
/// stacks that symbolize identically. Stacks are stored leaf-first; the
/// folded format wants root first.
std::string RenderFolded(const std::map<Stack, uint64_t>& folds,
                         SymbolCache* cache) {
  std::map<std::string, uint64_t> lines;
  for (const auto& [stack, weight] : folds) {
    if (weight == 0) continue;
    std::string line;
    for (size_t i = stack.size(); i-- > 0;) {
      if (!line.empty()) line += ';';
      line += SymbolFor(stack[i], cache);
    }
    if (line.empty()) line = "??";
    lines[line] += weight;
  }
  std::string out;
  for (const auto& [line, weight] : lines) {
    out += line;
    out += ' ';
    out += std::to_string(weight);
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// CPU profiler state

struct CpuState {
  std::mutex mu;  ///< lifecycle + fold table + ring consumer side
  SampleRing ring;
  bool ring_inited = false;
  bool handler_installed = false;
  std::atomic<bool> running{false};
  std::atomic<uint64_t> samples{0};
  std::atomic<uint64_t> dropped{0};
  uintptr_t page_mask = 4095;
  std::map<Stack, uint64_t> folds;
  SymbolCache symbols;
};

/// Plain pointer for the signal handler (no magic-static guard on the
/// signal path). Set under CpuS()'s initialization, which Start() runs
/// before the handler is ever installed.
CpuState* g_cpu_state = nullptr;

CpuState& CpuS() {
  static CpuState* state = [] {
    auto* s = new CpuState();
    g_cpu_state = s;
    return s;
  }();
  return *state;
}

void SigprofHandler(int /*sig*/, siginfo_t* /*info*/, void* ucontext) {
  CpuState* s = g_cpu_state;
  if (s == nullptr || !s->running.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const void* pc = nullptr;
  uintptr_t fp = 0;
#if defined(__x86_64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext);
  pc = reinterpret_cast<const void*>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext);
  pc = reinterpret_cast<const void*>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)ucontext;
  // Unknown ABI: attribute the sample to the handler's caller chain. The
  // walk crosses the signal trampoline only if the kernel links it; the
  // validators make that safe either way.
  fp = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
#endif
  const void* pcs[kMaxFrames];
  const int depth = WalkFromFp(pc, fp, s->page_mask, pcs, kMaxFrames);
  if (depth > 0 && s->ring.TryPush(pcs, depth)) {
    s->samples.fetch_add(1, std::memory_order_relaxed);
  } else {
    s->dropped.fetch_add(1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

/// Drains the ring into the fold table (caller holds s->mu).
void DrainLocked(CpuState* s) {
  const void* pcs[kMaxFrames];
  int depth = 0;
  while (s->ring.TryPop(pcs, &depth)) {
    s->folds[Stack(pcs, pcs + depth)] += 1;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// CpuProfiler

CpuProfiler& CpuProfiler::Global() {
  CpuS();  // force state construction
  static CpuProfiler* profiler = new CpuProfiler();
  return *profiler;
}

Status CpuProfiler::Start(const Options& options) {
  CpuState& s = CpuS();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.running.load(std::memory_order_relaxed)) {
    return Status::AlreadyExists("cpu profiler already running");
  }
  if (options.hz <= 0 || options.hz > 1000) {
    return Status::InvalidArgument("cpu profiler hz out of range (1..1000)");
  }
  if (!s.ring_inited) {
    s.ring.InitSequences();
    s.ring_inited = true;
  }
  EnsureProbeFd();
  const long page = ::sysconf(_SC_PAGESIZE);
  s.page_mask = static_cast<uintptr_t>(page > 0 ? page : 4096) - 1;
  if (!s.handler_installed) {
    // Installed once, never restored: a SIGPROF left pending after Stop()
    // must land in our (now no-op) handler, not SIG_DFL, whose default
    // action terminates the process.
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = SigprofHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
      return Status::Internal(std::string("sigaction(SIGPROF): ") +
                              std::strerror(errno));
    }
    s.handler_installed = true;
  }
  s.running.store(true, std::memory_order_relaxed);
  itimerval timer;
  const long usec = 1000000L / options.hz;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = usec;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    s.running.store(false, std::memory_order_relaxed);
    return Status::Internal(std::string("setitimer(ITIMER_PROF): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void CpuProfiler::Stop() {
  CpuState& s = CpuS();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.running.load(std::memory_order_relaxed)) return;
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  ::setitimer(ITIMER_PROF, &off, nullptr);
  s.running.store(false, std::memory_order_relaxed);
}

bool CpuProfiler::running() const {
  return CpuS().running.load(std::memory_order_relaxed);
}

void CpuProfiler::Reset() {
  CpuState& s = CpuS();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.ring_inited) DrainLocked(&s);  // discard below, but advance tail
  s.folds.clear();
  s.samples.store(0, std::memory_order_relaxed);
  s.dropped.store(0, std::memory_order_relaxed);
}

std::string CpuProfiler::FoldedText() {
  CpuState& s = CpuS();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.ring_inited) DrainLocked(&s);
  return RenderFolded(s.folds, &s.symbols);
}

CpuProfileTotals CpuProfiler::totals() const {
  CpuState& s = CpuS();
  CpuProfileTotals out;
  out.samples = s.samples.load(std::memory_order_relaxed);
  out.dropped = s.dropped.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// Heap profiler
//
// Fast-path globals are constant-initialized (no dynamic initializers):
// the interposed operators run during static initialization of other
// translation units, long before any heap-profiler state could be built.
// All heavier state hangs off g_heap_st, which exists only once Enable()
// (or Global()) has run — and g_heap_on can only be true after that.

namespace {

struct HeapRecord {
  uint64_t size = 0;    ///< raw allocation size
  uint64_t weight = 0;  ///< estimated bytes this sample represents
  Stack stack;
};

constexpr size_t kHeapShards = 16;

struct HeapShard {
  std::mutex mu;
  std::unordered_map<const void*, HeapRecord> live;
};

struct HeapState {
  HeapShard shards[kHeapShards];
  std::atomic<uint64_t> sampled_allocs{0};
  std::atomic<uint64_t> sampled_bytes{0};
  std::atomic<uint64_t> estimated_alloc_bytes{0};
  std::atomic<uint64_t> live_sampled_bytes{0};
  std::atomic<uint64_t> live_estimated_bytes{0};
  /// Cumulative allocation attribution (survives frees).
  std::mutex alloc_mu;
  std::map<Stack, uint64_t> alloc_folds;
  SymbolCache symbols;
  std::mutex symbols_mu;
};

std::atomic<bool> g_heap_on{false};
std::atomic<uint64_t> g_heap_interval{512 * 1024};
/// Live sampled pointers: lets the free path skip the shard lock entirely
/// whenever nothing is being tracked.
std::atomic<uint64_t> g_heap_live_count{0};
HeapState* g_heap_st = nullptr;

HeapState& HeapS() {
  static HeapState* state = [] {
    auto* s = new HeapState();
    g_heap_st = s;
    return s;
  }();
  return *state;
}

#if QP_HEAP_INTERPOSED

thread_local bool tl_in_heap_hook = false;
thread_local bool tl_heap_inited = false;
thread_local uint64_t tl_heap_rng = 0;
thread_local int64_t tl_heap_countdown = 0;

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

/// Geometric (exponential) bytes-to-next-sample with the configured mean.
int64_t NextHeapInterval() {
  const uint64_t mean = g_heap_interval.load(std::memory_order_relaxed);
  const uint64_t r = XorShift64(&tl_heap_rng);
  // Uniform in (0, 1]: never 0, so log() is finite.
  const double u =
      (static_cast<double>(r >> 11) + 1.0) / 9007199254740993.0;
  const double next = -std::log(u) * static_cast<double>(mean);
  return next < 1.0 ? 1 : static_cast<int64_t>(next);
}

size_t HeapShardOf(const void* p) {
  uintptr_t v = reinterpret_cast<uintptr_t>(p);
  v ^= v >> 12;
  return (v >> 4) % kHeapShards;
}

void HeapSampleAlloc(void* p, size_t size) {
  if (!g_heap_on.load(std::memory_order_relaxed)) return;
  if (tl_in_heap_hook) return;
  if (!tl_heap_inited) {
    tl_heap_inited = true;
    tl_heap_rng =
        reinterpret_cast<uintptr_t>(&tl_heap_rng) | 1;  // per-thread seed
    tl_heap_countdown = NextHeapInterval();
    return;
  }
  tl_heap_countdown -= static_cast<int64_t>(size);
  if (tl_heap_countdown >= 0) return;
  HeapState* s = g_heap_st;
  if (s == nullptr) return;
  // Everything below may allocate (map nodes, stack vector); the guard
  // makes those inner allocations plain instead of recursing.
  tl_in_heap_hook = true;
  tl_heap_countdown = NextHeapInterval();
  const uint64_t interval = g_heap_interval.load(std::memory_order_relaxed);
  const uint64_t weight = size > interval ? size : interval;
  const void* pcs[kMaxFrames];
  const int depth = internal::WalkStackFromHere(pcs, kMaxFrames, /*skip=*/2);
  HeapRecord rec;
  rec.size = size;
  rec.weight = weight;
  rec.stack.assign(pcs, pcs + depth);
  {
    HeapShard& shard = s->shards[HeapShardOf(p)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.live[p] = rec;
  }
  {
    std::lock_guard<std::mutex> lock(s->alloc_mu);
    s->alloc_folds[rec.stack] += weight;
  }
  s->sampled_allocs.fetch_add(1, std::memory_order_relaxed);
  s->sampled_bytes.fetch_add(size, std::memory_order_relaxed);
  s->estimated_alloc_bytes.fetch_add(weight, std::memory_order_relaxed);
  s->live_sampled_bytes.fetch_add(size, std::memory_order_relaxed);
  s->live_estimated_bytes.fetch_add(weight, std::memory_order_relaxed);
  g_heap_live_count.fetch_add(1, std::memory_order_relaxed);
  tl_in_heap_hook = false;
}

void HeapSampleFree(void* p) {
  // Checked even when sampling is off: records of still-live sampled
  // allocations must be matched after Disable() or live attribution leaks.
  if (g_heap_live_count.load(std::memory_order_relaxed) == 0) return;
  if (tl_in_heap_hook) return;
  HeapState* s = g_heap_st;
  if (s == nullptr) return;
  HeapShard& shard = s->shards[HeapShardOf(p)];
  tl_in_heap_hook = true;  // map erase may free nodes
  uint64_t size = 0;
  uint64_t weight = 0;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.live.find(p);
    if (it != shard.live.end()) {
      size = it->second.size;
      weight = it->second.weight;
      shard.live.erase(it);
      found = true;
    }
  }
  tl_in_heap_hook = false;
  if (found) {
    s->live_sampled_bytes.fetch_sub(size, std::memory_order_relaxed);
    s->live_estimated_bytes.fetch_sub(weight, std::memory_order_relaxed);
    g_heap_live_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

/// Marks this thread as inside the heap hook for a scope. Reset and
/// FoldedText allocate and free while holding a shard mutex or alloc_mu;
/// without the mark the interposed new/delete would re-lock that mutex on
/// the same thread and deadlock.
class HeapHookScope {
 public:
  HeapHookScope() : prev_(tl_in_heap_hook) { tl_in_heap_hook = true; }
  ~HeapHookScope() { tl_in_heap_hook = prev_; }
  HeapHookScope(const HeapHookScope&) = delete;
  HeapHookScope& operator=(const HeapHookScope&) = delete;

 private:
  const bool prev_;
};

#endif  // QP_HEAP_INTERPOSED

}  // namespace

HeapProfiler& HeapProfiler::Global() {
  HeapS();  // force state construction before sampling can start
  static HeapProfiler* profiler = new HeapProfiler();
  return *profiler;
}

bool HeapProfiler::Available() { return QP_HEAP_INTERPOSED != 0; }

void HeapProfiler::Enable(uint64_t mean_sample_bytes) {
  HeapS();
  EnsureProbeFd();  // the sampling hook walks stacks; arm the probe first
  if (mean_sample_bytes == 0) mean_sample_bytes = 1;
  g_heap_interval.store(mean_sample_bytes, std::memory_order_relaxed);
  if (Available()) g_heap_on.store(true, std::memory_order_relaxed);
}

void HeapProfiler::Disable() {
  g_heap_on.store(false, std::memory_order_relaxed);
}

bool HeapProfiler::enabled() const {
  return g_heap_on.load(std::memory_order_relaxed);
}

void HeapProfiler::Reset() {
#if QP_HEAP_INTERPOSED
  HeapHookScope in_hook;
#endif
  HeapState& s = HeapS();
  uint64_t forgotten = 0;
  for (HeapShard& shard : s.shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    forgotten += shard.live.size();
    shard.live.clear();
  }
  // Forgotten pointers' later frees become no-ops by design; keep the live
  // counter in sync so the free fast path stays cheap.
  g_heap_live_count.fetch_sub(forgotten, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(s.alloc_mu);
    s.alloc_folds.clear();
  }
  s.sampled_allocs.store(0, std::memory_order_relaxed);
  s.sampled_bytes.store(0, std::memory_order_relaxed);
  s.estimated_alloc_bytes.store(0, std::memory_order_relaxed);
  s.live_sampled_bytes.store(0, std::memory_order_relaxed);
  s.live_estimated_bytes.store(0, std::memory_order_relaxed);
}

std::string HeapProfiler::FoldedText(bool live) {
#if QP_HEAP_INTERPOSED
  HeapHookScope in_hook;
#endif
  HeapState& s = HeapS();
  std::map<Stack, uint64_t> folds;
  if (live) {
    for (HeapShard& shard : s.shards) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [p, rec] : shard.live) {
        folds[rec.stack] += rec.weight;
      }
    }
  } else {
    std::lock_guard<std::mutex> lock(s.alloc_mu);
    folds = s.alloc_folds;
  }
  std::lock_guard<std::mutex> lock(s.symbols_mu);
  return RenderFolded(folds, &s.symbols);
}

HeapProfileTotals HeapProfiler::totals() const {
  HeapState& s = HeapS();
  HeapProfileTotals out;
  out.sampled_allocs = s.sampled_allocs.load(std::memory_order_relaxed);
  out.sampled_bytes = s.sampled_bytes.load(std::memory_order_relaxed);
  out.estimated_alloc_bytes =
      s.estimated_alloc_bytes.load(std::memory_order_relaxed);
  out.live_sampled_bytes =
      s.live_sampled_bytes.load(std::memory_order_relaxed);
  out.live_estimated_bytes =
      s.live_estimated_bytes.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// Contention rendering

std::string ContentionText() {
  const std::vector<common::ContentionStats> sites =
      common::ContentionRegistry::Global().Snapshot();
  std::string out =
      "# lock contention by site (common::ProfiledMutex)\n"
      "# wait buckets (s): <=1e-6 <=1e-5 <=1e-4 <=1e-3 <=1e-2 <=1e-1 <=1 "
      "+Inf\n";
  char buf[256];
  for (const common::ContentionStats& site : sites) {
    std::snprintf(buf, sizeof(buf),
                  "%s acquisitions=%llu contentions=%llu wait_seconds=%.6f "
                  "max_wait_seconds=%.6f buckets=",
                  site.name.c_str(),
                  static_cast<unsigned long long>(site.acquisitions),
                  static_cast<unsigned long long>(site.contentions),
                  site.wait_seconds, site.max_wait_seconds);
    out += buf;
    for (size_t i = 0; i < common::kContentionBuckets; ++i) {
      if (i > 0) out += ',';
      out += std::to_string(site.wait_buckets[i]);
    }
    out += '\n';
  }
  return out;
}

ContentionTotals ContentionTotalsNow() {
  ContentionTotals out;
  for (const common::ContentionStats& site :
       common::ContentionRegistry::Global().Snapshot()) {
    out.acquisitions += site.acquisitions;
    out.contentions += site.contentions;
    out.wait_seconds += site.wait_seconds;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Symbolization

std::string SymbolizePc(const void* pc) {
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name = (status == 0 && demangled != nullptr)
                           ? std::string(demangled)
                           : std::string(info.dli_sname);
    std::free(demangled);
    return CleanFrameName(std::move(name));
  }
  char buf[64];
  if (info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    std::snprintf(buf, sizeof(buf), "+0x%llx",
                  static_cast<unsigned long long>(
                      reinterpret_cast<uintptr_t>(pc) -
                      reinterpret_cast<uintptr_t>(info.dli_fbase)));
    return CleanFrameName(std::string(base) + buf);
  }
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<uintptr_t>(pc)));
  return buf;
}

namespace internal {

int WalkStackFromHere(const void** pcs, int max, int skip) {
  EnsureProbeFd();  // non-signal context; covers direct (test) callers
  const uintptr_t fp =
      reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  const long page = ::sysconf(_SC_PAGESIZE);
  const uintptr_t page_mask =
      static_cast<uintptr_t>(page > 0 ? page : 4096) - 1;
  const void* raw[kMaxFrames];
  const int limit = max + skip + 1 > kMaxFrames ? kMaxFrames
                                                : max + skip + 1;
  // pc=nullptr: this function's own pc is frame "skip 0"; start from the
  // chain, then drop `skip`+1 innermost entries (this frame included).
  const int n = WalkFromFp(nullptr, fp, page_mask, raw, limit);
  int out = 0;
  for (int i = skip; i < n && out < max; ++i) pcs[out++] = raw[i];
  return out;
}

}  // namespace internal

}  // namespace qp::obs

// ---------------------------------------------------------------------------
// Interposed global operator new/delete (sampled; see header). Every
// overload funnels through malloc/free so pairing is uniform. Compiled out
// under ASan/TSan (QP_HEAP_INTERPOSED) to keep their allocator diagnostics.

#if QP_HEAP_INTERPOSED

namespace {

void* QpAllocOrThrow(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  qp::obs::HeapSampleAlloc(p, size);
  return p;
}

void* QpAllocNoThrow(std::size_t size) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr) qp::obs::HeapSampleAlloc(p, size);
  return p;
}

void* QpAllocAligned(std::size_t size, std::size_t align) noexcept {
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (::posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  qp::obs::HeapSampleAlloc(p, size);
  return p;
}

void QpFree(void* p) noexcept {
  if (p == nullptr) return;
  qp::obs::HeapSampleFree(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return QpAllocOrThrow(size); }
void* operator new[](std::size_t size) { return QpAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return QpAllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return QpAllocNoThrow(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = QpAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = QpAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return QpAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return QpAllocAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { QpFree(p); }
void operator delete[](void* p) noexcept { QpFree(p); }
void operator delete(void* p, std::size_t) noexcept { QpFree(p); }
void operator delete[](void* p, std::size_t) noexcept { QpFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { QpFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { QpFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { QpFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { QpFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  QpFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  QpFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  QpFree(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  QpFree(p);
}

#endif  // QP_HEAP_INTERPOSED
