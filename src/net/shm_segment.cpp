#include "net/shm_segment.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <new>
#include <stdexcept>
#include <thread>

#include "net/retry.h"

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

namespace emlio::net {

namespace {

constexpr std::uint32_t kMagic = 0x454D5348u;  // "EMSH"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kStateInitializing = 0;
constexpr std::uint32_t kStateReady = 1;
constexpr std::uint32_t kStateClosed = 2;
constexpr std::size_t kPageAlign = 4096;

// Geometry bounds shared by create() and attach-time validation. They keep
// compute_layout's arithmetic overflow-free: slab_count * slab_bytes ≤
// 2^20 * 2^32 = 2^52, comfortably inside size_t, and ring_capacity ≤ 2^20.
constexpr std::size_t kMaxSlabCount = 1u << 20;
constexpr std::size_t kMaxSlabBytes = UINT32_MAX;

std::size_t align_up(std::size_t v, std::size_t a) { return (v + a - 1) & ~(a - 1); }

std::uint32_t next_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) {
    // v > 2^31 has no u32 power-of-two ≥ it; without this guard the shift
    // wraps to 0 and the loop never exits. Unreachable from create() (slab
    // counts are capped) but reachable from a corrupt attached header.
    if (p > (UINT32_MAX >> 1)) return 0;
    p <<= 1;
  }
  return p;
}

/// Byte offsets of the variable-size regions for a given geometry.
struct Layout {
  std::uint32_t ring_capacity;
  std::size_t data_slots_off;
  std::size_t free_slots_off;
  std::size_t slabs_off;
  std::size_t total_bytes;
};

Layout compute_layout(std::size_t slab_bytes, std::size_t slab_count) {
  Layout l;
  l.ring_capacity = next_pow2(static_cast<std::uint32_t>(slab_count));
  l.data_slots_off = align_up(sizeof(ShmSegmentHeader), alignof(std::uint64_t));
  l.free_slots_off = l.data_slots_off + l.ring_capacity * sizeof(std::uint64_t);
  l.slabs_off = align_up(l.free_slots_off + l.ring_capacity * sizeof(std::uint64_t), kPageAlign);
  l.total_bytes = l.slabs_off + slab_count * slab_bytes;
  return l;
}

std::string normalize_name(const std::string& name) {
  if (name.empty()) throw std::invalid_argument("shm segment name must not be empty");
  return name.front() == '/' ? name : "/" + name;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

bool pid_alive(std::uint32_t pid) {
  if (pid == 0) return true;  // never registered — nothing to check
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

#ifdef __linux__
long futex_call(std::atomic<std::uint32_t>* addr, int op, std::uint32_t val,
                const struct timespec* timeout) {
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), op, val, timeout, nullptr,
                   0);
}
#endif

}  // namespace

ShmHeaderCheck check_shm_header(const ShmSegmentHeader& hdr, std::size_t mapped_bytes,
                                const std::string& name) {
  const std::uint32_t state = hdr.state.load(std::memory_order_acquire);
  if (state == kStateInitializing) {
    // Either mid-setup (magic already stamped) or garbage that will never
    // initialize; give the creator a beat before deciding.
    if (hdr.magic == kMagic) return ShmHeaderCheck::kRetry;
    throw std::runtime_error("shm segment " + name + " exists but is not an EMLIO segment");
  }
  if (hdr.magic != kMagic) {
    throw std::runtime_error("shm segment " + name + " exists but is not an EMLIO segment");
  }
  if (hdr.version != kVersion) {
    throw std::runtime_error("shm segment " + name + " has layout version " +
                             std::to_string(hdr.version) + ", expected " +
                             std::to_string(kVersion) +
                             " (stale segment from an incompatible build?)");
  }
  if (state == kStateClosed) {
    throw std::runtime_error("shm segment " + name +
                             " was already closed by its creator (stale leftover)");
  }
  if (!pid_alive(hdr.creator_pid)) {
    throw std::runtime_error("shm segment " + name + " creator (pid " +
                             std::to_string(hdr.creator_pid) +
                             ") is dead — stale leftover from a crashed daemon");
  }
  // Bounds first: compute_layout on an unchecked slab_count/slab_bytes could
  // overflow (or spin in next_pow2) before the comparison ever ran.
  if (hdr.slab_count == 0 || hdr.slab_count > kMaxSlabCount || hdr.slab_bytes == 0 ||
      hdr.slab_bytes > kMaxSlabBytes) {
    throw std::runtime_error("shm segment " + name + " geometry is inconsistent (corrupt?)");
  }
  const Layout layout = compute_layout(hdr.slab_bytes, hdr.slab_count);
  if (hdr.ring_capacity != layout.ring_capacity || hdr.total_bytes != layout.total_bytes ||
      mapped_bytes < layout.total_bytes) {
    throw std::runtime_error("shm segment " + name + " geometry is inconsistent (corrupt?)");
  }
  return ShmHeaderCheck::kReady;
}

// ------------------------------------------------------------- ring + bell

bool ShmSegment::push(ShmRingControl& ring, std::uint64_t* slots, std::uint64_t desc) noexcept {
  const std::uint32_t cap = header_->ring_capacity;
  const std::uint32_t tail = ring.tail.load(std::memory_order_relaxed);
  const std::uint32_t head = ring.head.load(std::memory_order_acquire);
  if (tail - head >= cap) return false;  // unreachable: descriptors ≤ slabs ≤ cap
  slots[tail & (cap - 1)] = desc;
  // Publishes the slot AND the slab bytes the descriptor points at.
  ring.tail.store(tail + 1, std::memory_order_release);
  return true;
}

std::optional<std::uint64_t> ShmSegment::pop(ShmRingControl& ring, std::uint64_t* slots) noexcept {
  const std::uint32_t cap = header_->ring_capacity;
  const std::uint32_t head = ring.head.load(std::memory_order_relaxed);
  const std::uint32_t tail = ring.tail.load(std::memory_order_acquire);
  if (head == tail) return std::nullopt;
  const std::uint64_t desc = slots[head & (cap - 1)];
  // Releases the slot for reuse; the producer's acquire on `head` orders its
  // next slab write after our reads of this one.
  ring.head.store(head + 1, std::memory_order_release);
  return desc;
}

void ShmSegment::ring(ShmDoorbell& bell) noexcept {
  // seq_cst pairs with the waiter's seq_cst sleepers↑ / seq re-check: at
  // least one side observes the other, so a waiter never parks through a
  // wake-up. The kernel is entered only when someone is actually parked —
  // the steady-state (peer keeping up, ring never observed empty) costs
  // zero syscalls per message.
  bell.seq.fetch_add(1, std::memory_order_seq_cst);
  if (bell.sleepers.load(std::memory_order_seq_cst) != 0) {
#ifdef __linux__
    futex_call(&bell.seq, FUTEX_WAKE, INT32_MAX, nullptr);
#endif
  }
}

bool ShmSegment::wait(ShmDoorbell& bell, std::uint32_t seen_seq,
                      std::chrono::milliseconds timeout) noexcept {
  bell.sleepers.fetch_add(1, std::memory_order_seq_cst);
  bool moved = true;
  if (bell.seq.load(std::memory_order_seq_cst) == seen_seq) {
#ifdef __linux__
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    ts.tv_nsec = static_cast<long>((timeout.count() % 1000) * 1'000'000);
    const long rc = futex_call(&bell.seq, FUTEX_WAIT, seen_seq, &ts);
    moved = !(rc == -1 && errno == ETIMEDOUT);
#else
    // Portable fallback: doze in short slices until the sequence moves or
    // the timeout elapses. Functional, not fast — the futex path is the one
    // the bench measures.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    moved = false;
    while (std::chrono::steady_clock::now() < deadline) {
      if (bell.seq.load(std::memory_order_seq_cst) != seen_seq) {
        moved = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
#endif
  }
  bell.sleepers.fetch_sub(1, std::memory_order_seq_cst);
  return moved;
}

// ----------------------------------------------------------- create/attach

std::shared_ptr<ShmSegment> ShmSegment::create(const std::string& raw_name,
                                               const ShmOptions& opts) {
  if (opts.slab_bytes == 0 || opts.slab_count == 0) {
    throw std::invalid_argument("shm segment needs slab_bytes > 0 and slab_count > 0");
  }
  if (opts.slab_bytes > kMaxSlabBytes) {
    throw std::invalid_argument("shm slab_bytes must fit a u32 (descriptor length field)");
  }
  if (opts.slab_count > kMaxSlabCount) {
    throw std::invalid_argument("shm slab_count unreasonably large");
  }
  const std::string name = normalize_name(raw_name);
  const Layout layout = compute_layout(opts.slab_bytes, opts.slab_count);

  // A previous run that crashed leaves its object behind; O_EXCL would then
  // fail forever. Removing the *name* is safe even if some zombie still maps
  // the old object — mappings keep their object alive independently.
  ::shm_unlink(name.c_str());
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) throw_errno("shm_open(" + name + ")");
  if (::ftruncate(fd, static_cast<off_t>(layout.total_bytes)) != 0) {
    const int saved = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    errno = saved;
    throw_errno("ftruncate(" + name + ")");
  }
  void* base = ::mmap(nullptr, layout.total_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the object referenced
  if (base == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    throw_errno("mmap(" + name + ")");
  }

  auto seg = std::shared_ptr<ShmSegment>(new ShmSegment());
  seg->name_ = name;
  seg->base_ = base;
  seg->map_bytes_ = layout.total_bytes;
  seg->is_creator_ = true;

  // ftruncate zero-fills, but construct the header explicitly anyway.
  auto* hdr = new (base) ShmSegmentHeader{};
  hdr->magic = kMagic;
  hdr->version = kVersion;
  struct timespec now;
  ::clock_gettime(CLOCK_REALTIME, &now);
  hdr->epoch_stamp = (static_cast<std::uint64_t>(now.tv_sec) << 30) ^
                     static_cast<std::uint64_t>(now.tv_nsec) ^
                     (static_cast<std::uint64_t>(::getpid()) << 48);
  hdr->creator_pid = static_cast<std::uint32_t>(::getpid());
  hdr->ring_capacity = layout.ring_capacity;
  hdr->slab_bytes = opts.slab_bytes;
  hdr->slab_count = static_cast<std::uint32_t>(opts.slab_count);
  hdr->total_bytes = layout.total_bytes;
  seg->header_ = hdr;
  seg->map_pointers();

  // Every slab starts on the free ring (all available to the sender).
  for (std::uint32_t i = 0; i < hdr->slab_count; ++i) {
    seg->free_push(shm_desc_make(i, 0));
  }
  // Publish last: an attacher that acquires `ready` sees the whole layout.
  hdr->state.store(kStateReady, std::memory_order_release);
  return seg;
}

std::shared_ptr<ShmSegment> ShmSegment::try_attach(const std::string& raw_name) {
  const std::string name = normalize_name(raw_name);
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
  if (fd < 0) {
    if (errno == ENOENT) return nullptr;  // not created yet — retryable
    throw_errno("shm_open(" + name + ")");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat(" + name + ")");
  }
  if (static_cast<std::size_t>(st.st_size) < sizeof(ShmSegmentHeader)) {
    ::close(fd);  // creator raced between shm_open and ftruncate — retryable
    return nullptr;
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) throw_errno("mmap(" + name + ")");

  auto* hdr = static_cast<ShmSegmentHeader*>(base);
  ShmHeaderCheck verdict;
  try {
    verdict = check_shm_header(*hdr, static_cast<std::size_t>(st.st_size), name);
  } catch (...) {
    ::munmap(base, static_cast<std::size_t>(st.st_size));
    throw;
  }
  if (verdict == ShmHeaderCheck::kRetry) {
    ::munmap(base, static_cast<std::size_t>(st.st_size));
    return nullptr;
  }

  auto seg = std::shared_ptr<ShmSegment>(new ShmSegment());
  seg->name_ = name;
  seg->base_ = base;
  seg->map_bytes_ = static_cast<std::size_t>(st.st_size);
  seg->is_creator_ = false;
  seg->header_ = hdr;
  seg->map_pointers();
  hdr->attacher_pid.store(static_cast<std::uint32_t>(::getpid()), std::memory_order_seq_cst);
  return seg;
}

std::shared_ptr<ShmSegment> ShmSegment::attach(const std::string& name) {
  auto seg = try_attach(name);
  if (!seg) {
    throw std::runtime_error("shm segment " + normalize_name(name) + " does not exist");
  }
  return seg;
}

std::shared_ptr<ShmSegment> ShmSegment::attach_wait(const std::string& name,
                                                    std::chrono::milliseconds timeout) {
  // Backoff from ~1 ms: a daemon started in parallel usually has the segment
  // up within a few milliseconds, and the shared policy caps the poll at a
  // gentle 20 ms instead of hammering shm_open on a slow daemon.
  RetryOptions ro;
  ro.max_attempts = 0;  // bounded by the deadline alone
  ro.initial_backoff = std::chrono::milliseconds(1);
  ro.max_backoff = std::chrono::milliseconds(20);
  ro.jitter = 0.0;
  ro.deadline = timeout;
  RetryPolicy policy(ro);
  while (true) {
    if (auto seg = try_attach(name)) return seg;  // permanent failures throw through
    auto delay = policy.next_delay();
    if (!delay) {
      throw std::runtime_error("timed out waiting for shm segment " + normalize_name(name) +
                               " to appear");
    }
    std::this_thread::sleep_for(*delay);
  }
}

void ShmSegment::map_pointers() {
  const Layout layout = compute_layout(header_->slab_bytes, header_->slab_count);
  auto* bytes = static_cast<std::uint8_t*>(base_);
  data_slots_ = reinterpret_cast<std::uint64_t*>(bytes + layout.data_slots_off);
  free_slots_ = reinterpret_cast<std::uint64_t*>(bytes + layout.free_slots_off);
  slabs_ = bytes + layout.slabs_off;
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) ::munmap(base_, map_bytes_);
  if (is_creator_) ::shm_unlink(name_.c_str());
}

bool ShmSegment::creator_alive() const noexcept { return pid_alive(header_->creator_pid); }

bool ShmSegment::attacher_alive() const noexcept {
  return pid_alive(header_->attacher_pid.load(std::memory_order_relaxed));
}

}  // namespace emlio::net
