#include "bat/bat.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace dc {

Bat::Bat(TypeId t) : type_(t), size_(0) {}

BatPtr Bat::MakeBool(std::vector<uint8_t> v) {
  auto b = std::make_shared<Bat>(TypeId::kBool);
  b->size_ = v.size();
  b->bools_ = std::move(v);
  return b;
}

BatPtr Bat::MakeI64(std::vector<int64_t> v) {
  auto b = std::make_shared<Bat>(TypeId::kI64);
  b->size_ = v.size();
  b->ints_ = std::move(v);
  return b;
}

BatPtr Bat::MakeF64(std::vector<double> v) {
  auto b = std::make_shared<Bat>(TypeId::kF64);
  b->size_ = v.size();
  b->dbls_ = std::move(v);
  return b;
}

BatPtr Bat::MakeStr(const std::vector<std::string>& v) {
  auto b = std::make_shared<Bat>(TypeId::kStr);
  for (const auto& s : v) b->AppendStr(s);
  return b;
}

BatPtr Bat::MakeTs(std::vector<int64_t> v) {
  auto b = std::make_shared<Bat>(TypeId::kTs);
  b->size_ = v.size();
  b->ints_ = std::move(v);
  return b;
}

size_t Bat::MemoryBytes() const {
  return bools_.capacity() + ints_.capacity() * sizeof(int64_t) +
         dbls_.capacity() * sizeof(double) +
         strs_.capacity() * sizeof(uint64_t) + heap_.ByteSize() +
         nulls_.capacity();
}

void Bat::Reserve(uint64_t n) {
  switch (type_) {
    case TypeId::kBool:
      bools_.reserve(n);
      break;
    case TypeId::kI64:
    case TypeId::kTs:
      ints_.reserve(n);
      break;
    case TypeId::kF64:
      dbls_.reserve(n);
      break;
    case TypeId::kStr:
      strs_.reserve(n);
      break;
  }
}

void Bat::AppendBool(bool v) {
  bools_.push_back(v ? 1 : 0);
  ++size_;
}

void Bat::AppendI64(int64_t v) {
  ints_.push_back(v);
  ++size_;
}

void Bat::AppendF64(double v) {
  dbls_.push_back(v);
  ++size_;
}

void Bat::AppendStr(std::string_view v) {
  strs_.push_back(heap_.Add(v));
  ++size_;
}

void Bat::AppendRepeatedI64(int64_t v, uint64_t n) {
  ints_.insert(ints_.end(), n, v);
  size_ += n;
}

void Bat::AppendNull() {
  nulls_.resize(size_, 0);
  switch (type_) {
    case TypeId::kBool:
      bools_.push_back(0);
      break;
    case TypeId::kI64:
    case TypeId::kTs:
      ints_.push_back(0);
      break;
    case TypeId::kF64:
      dbls_.push_back(0);
      break;
    case TypeId::kStr:
      strs_.push_back(heap_.Add(""));
      break;
  }
  ++size_;
  nulls_.push_back(1);
}

void Bat::SetNulls(std::vector<uint8_t> flags) {
  while (!flags.empty() && flags.back() == 0) flags.pop_back();
  for (uint64_t i = 0; i < flags.size(); ++i) {
    if (flags[i] == 0) continue;
    flags[i] = 1;
    switch (type_) {
      case TypeId::kBool:
        bools_[i] = 0;
        break;
      case TypeId::kI64:
      case TypeId::kTs:
        ints_[i] = 0;
        break;
      case TypeId::kF64:
        dbls_[i] = 0;
        break;
      case TypeId::kStr:
        if (!StrAt(i).empty()) strs_[i] = heap_.Add("");
        break;
    }
  }
  nulls_ = std::move(flags);
}

void Bat::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case TypeId::kBool:
      AppendBool(v.AsBool());
      return;
    case TypeId::kI64:
    case TypeId::kTs:
      AppendI64(v.AsI64());
      return;
    case TypeId::kF64:
      AppendF64(v.type() == TypeId::kF64 ? v.AsF64() : v.NumericAsDouble());
      return;
    case TypeId::kStr:
      AppendStr(v.AsStr());
      return;
  }
  abort();
}

void Bat::AppendRange(const Bat& src, uint64_t from, uint64_t to) {
  switch (type_) {
    case TypeId::kBool:
      bools_.insert(bools_.end(), src.bools_.begin() + from,
                    src.bools_.begin() + to);
      break;
    case TypeId::kI64:
    case TypeId::kTs:
      ints_.insert(ints_.end(), src.ints_.begin() + from,
                   src.ints_.begin() + to);
      break;
    case TypeId::kF64:
      dbls_.insert(dbls_.end(), src.dbls_.begin() + from,
                   src.dbls_.begin() + to);
      break;
    case TypeId::kStr:
      for (uint64_t i = from; i < to; ++i) strs_.push_back(heap_.Add(src.StrAt(i)));
      break;
  }
  size_ += to - from;
  if (src.has_nulls()) {
    bool any = false;
    for (uint64_t i = from; i < to && !any; ++i) any = src.IsNull(i);
    if (any) {
      nulls_.resize(size_ - (to - from), 0);
      for (uint64_t i = from; i < to; ++i) {
        nulls_.push_back(src.IsNull(i) ? 1 : 0);
      }
    }
  }
}

void Bat::AppendCandidates(const Bat& src, const Candidates& cand) {
  if (cand.is_dense()) {
    if (cand.empty()) return;
    AppendRange(src, cand.first(), cand.first() + cand.size());
    return;
  }
  switch (type_) {
    case TypeId::kBool:
      cand.ForEach([&](Oid o) { bools_.push_back(src.bools_[o]); });
      break;
    case TypeId::kI64:
    case TypeId::kTs:
      cand.ForEach([&](Oid o) { ints_.push_back(src.ints_[o]); });
      break;
    case TypeId::kF64:
      cand.ForEach([&](Oid o) { dbls_.push_back(src.dbls_[o]); });
      break;
    case TypeId::kStr:
      cand.ForEach([&](Oid o) { strs_.push_back(heap_.Add(src.StrAt(o))); });
      break;
  }
  size_ += cand.size();
  if (src.has_nulls()) {
    bool any = false;
    cand.ForEach([&](Oid o) { any = any || src.IsNull(o); });
    if (any) {
      nulls_.resize(size_ - cand.size(), 0);
      cand.ForEach([&](Oid o) { nulls_.push_back(src.IsNull(o) ? 1 : 0); });
    }
  }
}

void Bat::DropHead(uint64_t n) {
  if (n == 0) return;
  n = std::min(n, size_);
  switch (type_) {
    case TypeId::kBool:
      bools_.erase(bools_.begin(), bools_.begin() + n);
      break;
    case TypeId::kI64:
    case TypeId::kTs:
      ints_.erase(ints_.begin(), ints_.begin() + n);
      break;
    case TypeId::kF64:
      dbls_.erase(dbls_.begin(), dbls_.begin() + n);
      break;
    case TypeId::kStr: {
      // Rebuild the heap with the surviving strings so the arena does not
      // grow without bound as the basket slides.
      StringHeap fresh;
      std::vector<uint64_t> offs;
      offs.reserve(size_ - n);
      for (uint64_t i = n; i < size_; ++i) offs.push_back(fresh.Add(StrAt(i)));
      heap_ = std::move(fresh);
      strs_ = std::move(offs);
      break;
    }
  }
  size_ -= n;
  if (!nulls_.empty()) {
    nulls_.erase(nulls_.begin(),
                 nulls_.begin() + std::min<uint64_t>(n, nulls_.size()));
  }
}

Value Bat::GetValue(uint64_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case TypeId::kBool:
      return Value::Bool(bools_[i] != 0);
    case TypeId::kI64:
      return Value::I64(ints_[i]);
    case TypeId::kTs:
      return Value::Ts(ints_[i]);
    case TypeId::kF64:
      return Value::F64(dbls_[i]);
    case TypeId::kStr:
      return Value::Str(std::string(StrAt(i)));
  }
  abort();
}

BatPtr Bat::Slice(uint64_t from, uint64_t to) const {
  auto out = std::make_shared<Bat>(type_);
  out->Reserve(to - from);
  out->AppendRange(*this, from, to);
  return out;
}

BatPtr Bat::Gather(const Candidates& cand) const {
  auto out = std::make_shared<Bat>(type_);
  out->Reserve(cand.size());
  out->AppendCandidates(*this, cand);
  return out;
}

std::string Bat::ToString(uint64_t max_rows) const {
  std::string out = StrFormat("Bat<%s>[%llu]{", TypeName(type_),
                              static_cast<unsigned long long>(size_));
  const uint64_t n = std::min(size_, max_rows);
  for (uint64_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += GetValue(i).ToString();
  }
  if (size_ > n) out += ", ...";
  out += "}";
  return out;
}

Result<size_t> ColumnSet::Find(std::string_view name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return Status::NotFound(StrFormat("no column named '%.*s'",
                                    static_cast<int>(name.size()),
                                    name.data()));
}

std::vector<Value> ColumnSet::Row(uint64_t i) const {
  std::vector<Value> row;
  row.reserve(cols.size());
  for (const auto& c : cols) row.push_back(c->GetValue(i));
  return row;
}

std::string ColumnSet::ToString(uint64_t max_rows) const {
  const uint64_t rows = NumRows();
  const uint64_t shown = std::min(rows, max_rows);
  // Compute column widths.
  std::vector<size_t> width(names.size());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t c = 0; c < names.size(); ++c) width[c] = names[c].size();
  for (uint64_t r = 0; r < shown; ++r) {
    cells[r].resize(names.size());
    for (size_t c = 0; c < names.size(); ++c) {
      cells[r][c] = cols[c]->GetValue(r).ToString();
      width[c] = std::max(width[c], cells[r][c].size());
    }
  }
  std::string out;
  for (size_t c = 0; c < names.size(); ++c) {
    out += StrFormat("%-*s", static_cast<int>(width[c] + 2), names[c].c_str());
  }
  out += "\n";
  for (size_t c = 0; c < names.size(); ++c) {
    out += std::string(width[c], '-') + "  ";
  }
  out += "\n";
  for (uint64_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < names.size(); ++c) {
      out += StrFormat("%-*s", static_cast<int>(width[c] + 2),
                       cells[r][c].c_str());
    }
    out += "\n";
  }
  if (rows > shown) {
    out += StrFormat("... (%llu rows total)\n",
                     static_cast<unsigned long long>(rows));
  }
  return out;
}

}  // namespace dc
