#include "audit/exporter.h"

#include <fcntl.h>
#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace sentinel {
namespace audit {

namespace {

/// The highest n of the `<path>.<n>` files on disk; 0 when there is none.
uint64_t HighestRotation(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path live(path);
  const std::string prefix = live.filename().string() + ".";
  const fs::path dir =
      live.parent_path().empty() ? fs::path(".") : live.parent_path();
  uint64_t highest = 0;
  std::error_code error;
  for (fs::directory_iterator it(dir, error), end; !error && it != end;
       it.increment(error)) {
    const std::string name = it->path().filename().string();
    if (!name.starts_with(prefix)) continue;
    const char* first = name.data() + prefix.size();
    const char* last = name.data() + name.size();
    uint64_t n = 0;
    const auto [ptr, ec] = std::from_chars(first, last, n);
    if (ec == std::errc() && ptr == last && n > highest) highest = n;
  }
  return highest;
}

}  // namespace

AuditExporter::AuditExporter(Options options) : options_(std::move(options)) {
  // Both hand-off vectors start at the same size, so the steady-state swap
  // never hands a producer a vector that must grow.
  const size_t reserve =
      options_.queue_capacity < 4096 ? options_.queue_capacity : 4096;
  pending_.reserve(reserve);
  batch_.reserve(reserve);
  writer_ = std::thread([this] { WriterLoop(); });
}

AuditExporter::~AuditExporter() { Close(); }

void AuditExporter::Offer(QueuedRecord record) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!closing_ && pending_.size() < options_.queue_capacity) {
      // Wake the writer only on the empty->non-empty transition (or when a
      // large backlog says "stop lingering"); it coalesces the rest. A
      // notify per record would context-switch the writer per decision.
      const bool wake = pending_.empty() || pending_.size() + 1 >= kCoalesceBatch;
      pending_.push_back(std::move(record));
      ++enqueued_;
      if (wake) wake_writer_.notify_one();
      return;
    }
  }
  drops_.fetch_add(1, std::memory_order_relaxed);
}

void AuditExporter::Offer(AuditRecord record) {
  QueuedRecord queued;
  queued.text = std::make_unique<AuditRecord>(std::move(record));
  Offer(std::move(queued));
}

void AuditExporter::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = enqueued_;
  flush_requested_ = true;  // Cuts the writer's coalescing linger short.
  wake_writer_.notify_one();
  flush_done_.wait(lock, [this, target] { return consumed_ >= target; });
}

void AuditExporter::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
    wake_writer_.notify_one();
  }
  if (writer_.joinable()) writer_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool AuditExporter::failed() const {
  return failed_.load(std::memory_order_relaxed);
}

AuditExporter::Counters AuditExporter::counters() const {
  Counters c;
  c.records = records_.load(std::memory_order_relaxed);
  c.drops = drops_.load(std::memory_order_relaxed);
  c.bytes = bytes_.load(std::memory_order_relaxed);
  c.batches = batches_.load(std::memory_order_relaxed);
  return c;
}

void AuditExporter::InjectWriterStallForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  stall_hook_ = std::move(hook);
}

void AuditExporter::OpenOutput() {
  fd_ = ::open(options_.path.c_str(),
               O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0666);
  current_file_bytes_ = 0;
  if (fd_ < 0) {
    failed_.store(true, std::memory_order_relaxed);
    return;
  }
  // Appending to a pre-existing file (restart): resume its size so the
  // rotation threshold keeps meaning "bytes in this file".
  struct stat info = {};
  if (::fstat(fd_, &info) == 0 && info.st_size > 0) {
    current_file_bytes_ = static_cast<uint64_t>(info.st_size);
  }
}

void AuditExporter::RotateIfNeeded() {
  if (fd_ < 0 || options_.rotate_bytes == 0 ||
      current_file_bytes_ <= options_.rotate_bytes) {
    return;
  }
  ::close(fd_);
  fd_ = -1;
  const std::string rotated =
      options_.path + "." + std::to_string(++rotation_count_);
  if (std::rename(options_.path.c_str(), rotated.c_str()) != 0) {
    failed_.store(true, std::memory_order_relaxed);
  }
  OpenOutput();
}

bool AuditExporter::WriteScratch() {
  const char* data = scratch_.data();
  size_t left = scratch_.size();
  while (left > 0) {
    // One write per batch; the loop only resumes a short or interrupted one.
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      failed_.store(true, std::memory_order_relaxed);
      return false;
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

void AuditExporter::WriterLoop() {
  pthread_setname_np(pthread_self(), "audit-writer");
  rotation_count_ = HighestRotation(options_.path);
  OpenOutput();
  while (true) {
    std::function<void()> stall;
    bool last_round = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_writer_.wait(lock,
                        [this] { return closing_ || !pending_.empty(); });
      // Linger briefly so one wakeup drains many records: serialization
      // and the write then amortize across the whole batch instead of
      // costing a syscall round-trip per decision. Close and Flush (and a
      // backlog of kCoalesceBatch) cut the linger short.
      if (!closing_ && !flush_requested_ &&
          pending_.size() < kCoalesceBatch) {
        wake_writer_.wait_for(lock, std::chrono::milliseconds(1), [this] {
          return closing_ || flush_requested_ ||
                 pending_.size() >= kCoalesceBatch;
        });
      }
      flush_requested_ = false;
      // O(1) hand-off: producers never wait behind serialization or I/O.
      batch_.swap(pending_);
      stall = stall_hook_;
      last_round = closing_ && pending_.empty() && batch_.empty();
    }
    if (last_round) {
      std::lock_guard<std::mutex> lock(mu_);
      flush_done_.notify_all();
      return;
    }
    if (stall) stall();
    scratch_.clear();
    for (const QueuedRecord& record : batch_) {
      AppendJsonLine(View(record), &scratch_);
    }
    const bool wrote = fd_ >= 0 && !scratch_.empty() && WriteScratch();
    if (wrote) {
      records_.fetch_add(batch_.size(), std::memory_order_relaxed);
      bytes_.fetch_add(scratch_.size(), std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);
      current_file_bytes_ += scratch_.size();
      RotateIfNeeded();
    } else if (!batch_.empty()) {
      // Failed output: the records are gone; keep the books balanced.
      drops_.fetch_add(batch_.size(), std::memory_order_relaxed);
    }
    const uint64_t done = batch_.size();
    batch_.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      consumed_ += done;
      flush_done_.notify_all();
    }
  }
}

}  // namespace audit
}  // namespace sentinel
