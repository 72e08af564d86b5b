#include "exec/physical_op.h"

#include "base/string_util.h"
#include "exec/query_guard.h"

namespace tmdb {

std::string ExecStats::ToString() const {
  std::string out;
  for (const StatCounter& counter : kStatCounters) {
    if (!out.empty()) out += ' ';
    out += StrCat(counter.name, "=", this->*counter.field);
  }
  return out;
}

namespace {

void PrintTree(const PhysicalOp& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op.Describe());
  out->append("\n");
  for (const PhysicalOp* child : op.children()) {
    PrintTree(*child, depth + 1, out);
  }
}

}  // namespace

std::string PhysicalOp::ToString() const {
  std::string out;
  PrintTree(*this, 0, &out);
  return out;
}

Result<ColumnBatch> PhysicalOp::NextColumnBatch() {
  return Status::Internal(
      StrCat("NextColumnBatch on a row-only operator: ", Describe()));
}

void BatchReader::Reset() {
  batch_.clear();
  pos_ = 0;
  done_ = false;
}

Result<Value*> BatchReader::Read(PhysicalOp* child, ExecContext* ctx) {
  if (pos_ == batch_.size()) {
    if (done_) return nullptr;
    batch_.clear();
    pos_ = 0;
    TMDB_RETURN_IF_ERROR(CheckGuard(ctx));
    TMDB_ASSIGN_OR_RETURN(size_t got, child->NextBatch(&batch_, kExecBatchSize));
    if (got == 0) {
      done_ = true;
      return nullptr;
    }
  }
  return &batch_[pos_++];
}

Result<std::vector<Value>> CollectRows(PhysicalOp* op, ExecContext* ctx) {
  Status status = op->Open(ctx);
  if (!status.ok()) {
    // Close even though Open failed: a composite operator may have
    // materialised part of its input (or opened children) before tripping.
    op->Close();
    return status;
  }
  std::vector<Value> rows;
  while (true) {
    status = CheckGuard(ctx);
    if (!status.ok()) break;
    auto appended = op->NextBatch(&rows, kExecBatchSize);
    if (!appended.ok()) {
      status = appended.status();
      break;
    }
    if (*appended == 0) break;
  }
  op->Close();
  if (!status.ok()) return status;
  return rows;
}

}  // namespace tmdb
