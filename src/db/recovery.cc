#include "db/recovery.h"

#include <unordered_map>
#include <unordered_set>

namespace tendax {

Status RecoveryManager::Run(const std::vector<LogRecord>& log) {
  // --- Locate the last complete fuzzy checkpoint ---
  //
  // Its end record pins where each pass must start. A kCheckpointBegin
  // without a matching end (crash mid-checkpoint) is simply inert: the
  // passes fall back to the previous complete checkpoint, or to record
  // zero when there is none.
  const LogRecord* checkpoint = nullptr;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->type == LogType::kCheckpointEnd) {
      checkpoint = &*it;
      break;
    }
  }
  size_t start = 0;
  Lsn redo_lsn = kInvalidLsn;  // 0 = no gate: redo every scanned record
  if (checkpoint != nullptr) {
    stats_.checkpoint_lsn = checkpoint->lsn;
    redo_lsn = checkpoint->checkpoint_redo_lsn;
    if (redo_lsn == kInvalidLsn ||
        redo_lsn > checkpoint->checkpoint_begin_lsn) {
      // A well-formed record has 0 < redo_lsn <= begin_lsn; distrust
      // anything else and fall back to the checkpoint's own start.
      redo_lsn = checkpoint->checkpoint_begin_lsn;
    }
    // Undo must be able to walk every transaction that was in flight at
    // the snapshot back to its first record.
    Lsn scan_lsn = redo_lsn;
    for (const CheckpointTxnEntry& e : checkpoint->att) {
      Lsn first = e.first_lsn == kInvalidLsn ? 1 : e.first_lsn;
      if (first < scan_lsn) scan_lsn = first;
    }
    while (start < log.size() && log[start].lsn < scan_lsn) ++start;
  }
  stats_.records_skipped = start;
  stats_.records_scanned = log.size() - start;

  // --- Analysis ---
  std::unordered_set<uint64_t> seen, winners, finished;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> compensated;
  if (checkpoint != nullptr) {
    // Seed with the snapshot's in-flight transactions: all their records
    // are at/after scan_lsn (that is how scan_lsn was chosen), but a
    // record-free transaction — begin logged, nothing else yet — would
    // otherwise escape the loser count.
    for (const CheckpointTxnEntry& e : checkpoint->att) {
      seen.insert(e.txn);
    }
  }
  for (size_t i = start; i < log.size(); ++i) {
    const LogRecord& rec = log[i];
    if (rec.type == LogType::kCheckpointBegin ||
        rec.type == LogType::kCheckpointEnd) {
      continue;  // checkpoint markers are not transactional
    }
    seen.insert(rec.txn.value);
    switch (rec.type) {
      case LogType::kCommit:
        winners.insert(rec.txn.value);
        finished.insert(rec.txn.value);
        break;
      case LogType::kAbort:
        finished.insert(rec.txn.value);
        break;
      case LogType::kCompensation:
        compensated[rec.txn.value].insert(rec.undo_next_lsn);
        break;
      default:
        break;
    }
  }
  stats_.txns_seen = seen.size();
  stats_.winners = winners.size();

  // --- Redo: repeat history in log order ---
  //
  // Records below redo_lsn are skipped outright: by the rec_lsn rule every
  // page they touched was already on disk when the checkpoint's dirty-page
  // table was snapshotted. (Applying them anyway would also be safe — page
  // LSNs make redo idempotent — skipping is the bounded-restart point.)
  for (size_t i = start; i < log.size(); ++i) {
    const LogRecord& rec = log[i];
    if (rec.type != LogType::kUpdate && rec.type != LogType::kCompensation) {
      continue;
    }
    if (checkpoint != nullptr && rec.lsn < redo_lsn) continue;
    HeapTable* table = table_for_(rec.table_id);
    if (table == nullptr) {
      return Status::Corruption("recovery: unknown table " +
                                std::to_string(rec.table_id));
    }
    const std::string& image =
        rec.op == UpdateOp::kDelete ? std::string() : rec.after;
    TENDAX_RETURN_IF_ERROR(table->ApplyChange(
        rec.op, RecordId::Unpack(rec.rid), image, rec.lsn));
    ++stats_.redo_applied;
  }

  // --- Undo losers in reverse log order ---
  //
  // The scanned suffix is complete for undo: scan_lsn lower-bounds the
  // first_lsn of every transaction in the checkpoint's ATT, and anything
  // that began later has all its records above the checkpoint anyway.
  for (auto it = log.rbegin(); it != log.rend() - start; ++it) {
    const LogRecord& rec = *it;
    if (rec.type != LogType::kUpdate) continue;
    if (finished.count(rec.txn.value)) continue;  // winner or aborted cleanly
    auto comp = compensated.find(rec.txn.value);
    if (comp != compensated.end() && comp->second.count(rec.lsn)) {
      continue;  // a pre-crash CLR already undid this update
    }
    UpdateOp inverse;
    const std::string* image;
    switch (rec.op) {
      case UpdateOp::kInsert:
        inverse = UpdateOp::kDelete;
        image = &rec.before;
        break;
      case UpdateOp::kDelete:
        inverse = UpdateOp::kInsert;
        image = &rec.before;
        break;
      case UpdateOp::kUpdate:
        inverse = UpdateOp::kUpdate;
        image = &rec.before;
        break;
      default:
        return Status::Corruption("recovery: unknown update op");
    }
    Lsn clr_lsn = kInvalidLsn;
    if (wal_ != nullptr) {
      LogRecord clr;
      clr.type = LogType::kCompensation;
      clr.txn = rec.txn;
      clr.op = inverse;
      clr.table_id = rec.table_id;
      clr.rid = rec.rid;
      clr.after = *image;
      clr.undo_next_lsn = rec.lsn;
      clr_lsn = wal_->Append(&clr);
    }
    HeapTable* table = table_for_(rec.table_id);
    if (table == nullptr) {
      return Status::Corruption("recovery: unknown table " +
                                std::to_string(rec.table_id));
    }
    TENDAX_RETURN_IF_ERROR(table->ApplyChange(
        inverse, RecordId::Unpack(rec.rid), *image, clr_lsn));
    ++stats_.undo_applied;
  }

  size_t losers = 0;
  for (uint64_t t : seen) {
    if (!finished.count(t)) ++losers;
  }
  stats_.losers = losers;
  return Status::OK();
}

}  // namespace tendax
