#ifndef SENTINELPP_AUDIT_EXPORTER_H_
#define SENTINELPP_AUDIT_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "audit/record.h"

namespace sentinel {
namespace audit {

/// \brief Asynchronous JSON-lines audit writer.
///
/// One dedicated writer thread drains a bounded hand-off buffer that any
/// number of producer threads (the service's per-shard record sinks) feed
/// through Offer. The contract the decision path depends on: **Offer never
/// blocks on I/O**. Producers and the writer share one mutex, but the writer
/// holds it only to swap the pending buffer for an empty one — O(1), never
/// while serializing or writing — so the worst an Offer can hit is that
/// swap. When the writer falls behind and the pending buffer reaches
/// capacity, new records are dropped and counted, never queued unboundedly
/// and never waited for: audit pressure degrades the audit stream, not the
/// authorization path.
///
/// Records queue fixed-field (QueuedRecord: symbols, not text), so an Offer
/// copies no names; the writer resolves and serializes a whole batch into
/// one buffer and hands it to the OS with one write(2).
///
/// Wakeups are coalesced: producers signal the writer only on the
/// empty->non-empty transition, and the writer lingers ~1ms before swapping
/// so one wakeup (and one write) covers every record of the window.
/// Records are therefore durable within ~1ms of Offer in steady state;
/// Flush() and Close() cut the linger short and are exact.
///
/// Output is one JSON object per line (see record.h for the schema), rotated
/// by size: when the current file exceeds rotate_bytes after a batch, it is
/// renamed to `<path>.<n>` (n increasing, oldest = 1) and a fresh `<path>`
/// is opened — `<path>` is always the live tail. Numbering continues after
/// the highest `<path>.<n>` on disk when the writer starts, so a restart
/// never renames over an earlier run's files. Close() (and the destructor)
/// flushes everything already offered before returning.
class AuditExporter {
 public:
  struct Options {
    /// Output file path; the live tail. Must be non-empty.
    std::string path;
    /// Rotate once the current file exceeds this many bytes (checked after
    /// each batch, so files overshoot by at most one batch). 0 disables.
    uint64_t rotate_bytes = 0;
    /// Max records buffered between producers and the writer; beyond it,
    /// Offer drops (counted). The default rides out ~100ms of a saturated
    /// service's decision rate.
    size_t queue_capacity = 65536;
  };

  explicit AuditExporter(Options options);
  ~AuditExporter();

  AuditExporter(const AuditExporter&) = delete;
  AuditExporter& operator=(const AuditExporter&) = delete;

  /// Hands one record to the writer. Thread-safe, never blocks on I/O;
  /// drops (and counts) when the buffer is full or the exporter is closed.
  /// The record's symbol table must outlive Close().
  void Offer(QueuedRecord record);
  /// Offers a record that carries its own words.
  void Offer(AuditRecord record);

  /// Blocks until every record offered before this call is written.
  /// Producers may keep offering concurrently.
  void Flush();

  /// Flush, stop the writer thread, close the file. Idempotent. Offers
  /// arriving after Close are counted as drops.
  void Close();

  /// True once the output file failed to open or a write failed; records
  /// consumed while failed count as drops, so accounting stays exact.
  bool failed() const;

  struct Counters {
    uint64_t records = 0;  // Lines durably handed to the OS.
    uint64_t drops = 0;    // Offered but lost: queue full, closed, failed.
    uint64_t bytes = 0;    // Serialized bytes written.
    uint64_t batches = 0;  // Batches written, one write each.
  };
  Counters counters() const;

  /// Test hook: the writer thread calls `hook` before each batch write
  /// (outside the producer lock). A sleeping hook simulates a slow disk so
  /// tests can force queue-full drops deterministically. Set before traffic.
  void InjectWriterStallForTest(std::function<void()> hook);

 private:
  void WriterLoop();
  /// Opens `path` for append and resumes its size. Sets failed_.
  void OpenOutput();
  void RotateIfNeeded();
  /// Writes scratch_ whole; false (and failed_) when the OS refuses it.
  bool WriteScratch();

  const Options options_;

  /// Backlog size at which the writer stops lingering and producers wake it
  /// eagerly; below it, one wakeup per ~1ms linger window drains everything
  /// accumulated, so wakeups and the write amortize across the batch.
  static constexpr size_t kCoalesceBatch = 256;

  std::mutex mu_;
  std::condition_variable wake_writer_;   // Signaled on first Offer/Flush/Close.
  std::condition_variable flush_done_;    // Signaled after each batch.
  std::vector<QueuedRecord> pending_;     // Guarded by mu_.
  uint64_t enqueued_ = 0;                 // Records ever accepted. (mu_)
  uint64_t consumed_ = 0;                 // Records written or failed. (mu_)
  bool closing_ = false;                  // (mu_)
  bool flush_requested_ = false;          // Cuts the linger short. (mu_)
  std::function<void()> stall_hook_;      // (mu_ to set; writer reads copy)

  // Writer-thread state (no lock needed).
  int fd_ = -1;
  uint64_t current_file_bytes_ = 0;
  /// Highest `<path>.<n>` so far; starts at the highest one on disk.
  uint64_t rotation_count_ = 0;
  std::vector<QueuedRecord> batch_;  // Swapped with pending_.
  std::string scratch_;              // Reused serialization buffer.

  // Counters: relaxed atomics — monotone, read by any thread.
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<bool> failed_{false};

  std::thread writer_;
};

}  // namespace audit
}  // namespace sentinel

#endif  // SENTINELPP_AUDIT_EXPORTER_H_
