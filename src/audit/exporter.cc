#include "audit/exporter.h"

#include <pthread.h>

#include <chrono>
#include <utility>

namespace sentinel {
namespace audit {

AuditExporter::AuditExporter(Options options) : options_(std::move(options)) {
  pending_.reserve(options_.queue_capacity < 4096 ? options_.queue_capacity
                                                  : 4096);
  writer_ = std::thread([this] { WriterLoop(); });
}

AuditExporter::~AuditExporter() { Close(); }

void AuditExporter::Offer(AuditRecord record) {
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

void AuditExporter::AddUpstreamLoss(uint64_t n) {
  if (n > 0) drops_.fetch_add(n, std::memory_order_relaxed);
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
    if (closing_) {
      // Already closed (or closing): just make sure the thread is joined.
    }
    closing_ = true;
    wake_writer_.notify_one();
  }
  if (writer_.joinable()) writer_.join();
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
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
  return c;
}

void AuditExporter::InjectWriterStallForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  stall_hook_ = std::move(hook);
}

void AuditExporter::OpenOutput() {
  out_ = std::fopen(options_.path.c_str(), "ab");
  if (out_ == nullptr) {
    failed_.store(true, std::memory_order_relaxed);
    current_file_bytes_ = 0;
    return;
  }
  // Appending to a pre-existing file (restart): resume its size so the
  // rotation threshold keeps meaning "bytes in this file".
  std::fseek(out_, 0, SEEK_END);
  const long size = std::ftell(out_);
  current_file_bytes_ = size > 0 ? static_cast<uint64_t>(size) : 0;
}

void AuditExporter::RotateIfNeeded() {
  if (out_ == nullptr || options_.rotate_bytes == 0 ||
      current_file_bytes_ <= options_.rotate_bytes) {
    return;
  }
  std::fclose(out_);
  out_ = nullptr;
  const std::string rotated =
      options_.path + "." + std::to_string(++rotation_count_);
  if (std::rename(options_.path.c_str(), rotated.c_str()) != 0) {
    failed_.store(true, std::memory_order_relaxed);
  }
  OpenOutput();
}

void AuditExporter::WriterLoop() {
  pthread_setname_np(pthread_self(), "audit-writer");
  OpenOutput();
  std::vector<AuditRecord> batch;
  while (true) {
    std::function<void()> stall;
    bool last_round = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_writer_.wait(lock,
                        [this] { return closing_ || !pending_.empty(); });
      // Linger briefly so one wakeup drains many records: serialization,
      // fwrite, and fflush then amortize across the whole batch instead of
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
      batch.swap(pending_);
      stall = stall_hook_;
      last_round = closing_ && pending_.empty() && batch.empty();
    }
    if (last_round) {
      if (out_ != nullptr) std::fflush(out_);
      std::lock_guard<std::mutex> lock(mu_);
      flush_done_.notify_all();
      return;
    }
    if (stall) stall();
    scratch_.clear();
    for (const AuditRecord& record : batch) {
      AppendJsonLine(record, &scratch_);
    }
    bool wrote = false;
    if (out_ != nullptr && !scratch_.empty()) {
      wrote = std::fwrite(scratch_.data(), 1, scratch_.size(), out_) ==
              scratch_.size();
      if (!wrote) failed_.store(true, std::memory_order_relaxed);
      std::fflush(out_);
    }
    if (wrote) {
      records_.fetch_add(batch.size(), std::memory_order_relaxed);
      bytes_.fetch_add(scratch_.size(), std::memory_order_relaxed);
      current_file_bytes_ += scratch_.size();
      RotateIfNeeded();
    } else if (!batch.empty()) {
      // Failed output: the records are gone; keep the books balanced.
      drops_.fetch_add(batch.size(), std::memory_order_relaxed);
    }
    const uint64_t done = batch.size();
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      consumed_ += done;
      flush_done_.notify_all();
    }
  }
}

}  // namespace audit
}  // namespace sentinel
