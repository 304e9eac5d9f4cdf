#include "core/gc_matrix.hpp"

#include <algorithm>
#include <array>

#include "util/check.hpp"
#include "util/enum_names.hpp"
#include "util/fast_div.hpp"
#include "util/simd.hpp"

namespace gcm {

const char* FormatName(GcFormat format) {
  switch (format) {
    case GcFormat::kCsrv:
      return "csrv";
    case GcFormat::kRe32:
      return "re_32";
    case GcFormat::kReIv:
      return "re_iv";
    case GcFormat::kReAns:
      return "re_ans";
  }
  return "?";
}

GcFormat FormatByName(const std::string& name) {
  return detail::EnumByName<GcFormat>(name, "matrix format",
                                      {{"csrv", GcFormat::kCsrv},
                                       {"re_32", GcFormat::kRe32},
                                       {"re_iv", GcFormat::kReIv},
                                       {"re_ans", GcFormat::kReAns}});
}

GcMatrix GcMatrix::FromSequence(std::vector<u32> sequence, std::size_t rows,
                                std::size_t cols, SharedDict dict,
                                const GcBuildOptions& options) {
  GCM_CHECK(dict != nullptr);
  GcMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.format_ = options.format;
  m.dict_ = std::move(dict);
  u64 alphabet = 1 + static_cast<u64>(m.dict_->size()) * cols;
  GCM_CHECK_MSG(alphabet <= 0xffffffffULL, "CSRV alphabet overflow");
  m.alphabet_size_ = static_cast<u32>(alphabet);

  if (options.format == GcFormat::kCsrv) {
    m.c_length_ = sequence.size();
    m.rule_count_ = 0;
    sequence.shrink_to_fit();  // stored long-term; drop growth slack
    m.c_ = ArrayRef<u32>(std::move(sequence));
    return m;
  }

  RePairConfig repair;
  repair.forbidden_terminal = kCsrvSentinel;
  repair.max_rules = options.max_rules;
  RePairResult compressed =
      RePairCompress(sequence, m.alphabet_size_, repair);
  sequence.clear();
  sequence.shrink_to_fit();

  m.c_length_ = compressed.final_sequence.size();
  m.rule_count_ = compressed.slp.rule_count();

  // Flatten R as [left0, right0, left1, right1, ...].
  std::vector<u32> flat_rules;
  flat_rules.reserve(2 * m.rule_count_);
  for (const SlpRule& rule : compressed.slp.rules()) {
    flat_rules.push_back(rule.left);
    flat_rules.push_back(rule.right);
  }

  // Pack both arrays with a single width 1+floor(log2(Nmax)) as in
  // Section 4 (Nmax is the largest symbol id overall).
  u32 max_symbol = m.alphabet_size_ - 1 + static_cast<u32>(m.rule_count_);
  u32 width = BitWidth(max_symbol);

  switch (options.format) {
    case GcFormat::kRe32:
      compressed.final_sequence.shrink_to_fit();  // drop growth slack
      m.c_ = ArrayRef<u32>(std::move(compressed.final_sequence));
      m.r_plain_ = std::move(flat_rules);
      break;
    case GcFormat::kReIv: {
      IntVector& c = m.c_.emplace<IntVector>(
          compressed.final_sequence.size(), width);
      for (std::size_t i = 0; i < compressed.final_sequence.size(); ++i) {
        c.Set(i, compressed.final_sequence[i]);
      }
      m.r_packed_ = IntVector(flat_rules.size(), width);
      for (std::size_t i = 0; i < flat_rules.size(); ++i) {
        m.r_packed_.Set(i, flat_rules[i]);
      }
      break;
    }
    case GcFormat::kReAns: {
      m.c_ = RansEncode(compressed.final_sequence, options.fold_bits);
      m.r_packed_ = IntVector(flat_rules.size(), width);
      for (std::size_t i = 0; i < flat_rules.size(); ++i) {
        m.r_packed_.Set(i, flat_rules[i]);
      }
      break;
    }
    case GcFormat::kCsrv:
      GCM_ASSERT(false);
      break;
  }
  return m;
}

GcMatrix GcMatrix::FromCsrv(const CsrvMatrix& csrv,
                            const GcBuildOptions& options) {
  auto dict =
      std::make_shared<const std::vector<double>>(csrv.dictionary().ToVector());
  return FromSequence(csrv.sequence().ToVector(), csrv.rows(), csrv.cols(),
                      std::move(dict), options);
}

GcMatrix GcMatrix::FromDense(const DenseMatrix& dense,
                             const GcBuildOptions& options) {
  return FromCsrv(CsrvMatrix::FromDense(dense), options);
}

GcMatrix GcMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                std::vector<Triplet> entries,
                                const GcBuildOptions& options) {
  return FromCsrv(CsrvFromTriplets(rows, cols, std::move(entries)), options);
}

u64 GcMatrix::PayloadBytes() const {
  switch (format_) {
    case GcFormat::kCsrv:
    case GcFormat::kRe32:
      return c_plain().size() * sizeof(u32) + r_plain_.size() * sizeof(u32);
    case GcFormat::kReIv:
      return c_packed().SizeInBytes() + r_packed_.SizeInBytes();
    case GcFormat::kReAns:
      return c_ans().SizeInBytes() + r_packed_.SizeInBytes();
  }
  return 0;
}

inline u32 GcMatrix::RuleLeft(std::size_t i) const {
  GCM_DCHECK_BOUNDS(i, rule_count_);
  return format_ == GcFormat::kRe32
             ? r_plain_[2 * i]
             : static_cast<u32>(r_packed_.Get(2 * i));
}

inline u32 GcMatrix::RuleRight(std::size_t i) const {
  GCM_DCHECK_BOUNDS(i, rule_count_);
  return format_ == GcFormat::kRe32
             ? r_plain_[2 * i + 1]
             : static_cast<u32>(r_packed_.Get(2 * i + 1));
}

template <typename F>
void GcMatrix::ForEachFinalSymbol(F&& fn) const {
  switch (format_) {
    case GcFormat::kCsrv:
    case GcFormat::kRe32:
      for (u32 symbol : c_plain()) fn(symbol);
      break;
    case GcFormat::kReIv: {
      const IntVector& c = c_packed();
      for (std::size_t i = 0; i < c.size(); ++i) {
        fn(static_cast<u32>(c.Get(i)));
      }
      break;
    }
    case GcFormat::kReAns: {
      RansDecoder decoder(c_ans());
      std::array<u32, 256> batch;
      while (std::size_t n = decoder.NextBatch(batch)) {
        for (std::size_t i = 0; i < n; ++i) fn(batch[i]);
      }
      break;
    }
  }
}

std::vector<double> GcMatrix::MultiplyRight(
    const std::vector<double>& x) const {
  std::vector<double> y(rows_);
  MultiplyRightInto(x, y);
  return y;
}

std::vector<double> GcMatrix::MultiplyLeft(const std::vector<double>& y) const {
  std::vector<double> x(cols_);
  MultiplyLeftInto(y, x);
  return x;
}

namespace {

/// Magic-multiply divisor for decoding packed terminals
/// (value_id = packed / cols, column = packed - value_id * cols); exact,
/// so symbol decoding is bitwise unchanged. A zero-column block's
/// alphabet is just the sentinel -- no terminal is ever decoded -- so the
/// placeholder divisor only keeps construction legal.
U32Divisor ColsDivisor(std::size_t cols) {
  return U32Divisor(cols == 0 ? 1u : static_cast<u32>(cols));
}

}  // namespace

void GcMatrix::MultiplyRightInto(std::span<const double> x,
                                 std::span<double> y) const {
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyRight: wrong vector length");
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyRight: wrong output length");
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);

  // Forward pass over R: W[i] = eval_x(N_i) (Lemma 3.2; each side is either
  // a terminal pair evaluated directly or an earlier nonterminal). Rules
  // may reference earlier rules, so this pass stays sequential.
  std::vector<double> w(rule_count_, 0.0);
  auto eval = [&](u32 symbol) -> double {
    if (symbol >= alphabet_size_) {
      // Load-time validation bounds every stored symbol to the declared
      // rule range; asserted per expansion because a stale index here is a
      // silent out-of-bounds read on the hot path.
      GCM_DCHECK_BOUNDS(symbol - alphabet_size_, rule_count_);
      return w[symbol - alphabet_size_];
    }
    if (symbol == kCsrvSentinel) return 0.0;  // never occurs inside rules
    u32 packed = symbol - 1;
    u32 value_id = by_cols.Divide(packed);
    GCM_DCHECK_BOUNDS(value_id, dict.size());
    return dict[value_id] * x[packed - value_id * cols];
  };
  for (std::size_t i = 0; i < rule_count_; ++i) {
    w[i] = eval(RuleLeft(i)) + eval(RuleRight(i));
  }

  // Scan of C: accumulate per-row partial sums, closing a row at each
  // sentinel (C may interleave terminals and nonterminals; Section 4).
  std::size_t row = 0;
  double acc = 0.0;
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      y[row++] = acc;
      acc = 0.0;
      return;
    }
    acc += eval(symbol);
  });
  GCM_CHECK_MSG(row == rows_, "compressed sequence closed " << row
                                  << " rows, expected " << rows_);
}

void GcMatrix::MultiplyLeftInto(std::span<const double> y,
                                std::span<double> x) const {
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyLeft: wrong vector length");
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyLeft: wrong output length");
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);
  std::fill(x.begin(), x.end(), 0.0);

  // Scan of C: seed W with row weights for nonterminals appearing in C;
  // terminals in C contribute directly (Section 4's generalization).
  std::vector<double> w(rule_count_, 0.0);
  std::size_t row = 0;
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      ++row;
      return;
    }
    if (symbol >= alphabet_size_) {
      GCM_DCHECK_BOUNDS(symbol - alphabet_size_, w.size());
      GCM_DCHECK_BOUNDS(row, rows_);
      w[symbol - alphabet_size_] += y[row];
    } else {
      u32 packed = symbol - 1;
      u32 value_id = by_cols.Divide(packed);
      GCM_DCHECK_BOUNDS(value_id, dict.size());
      GCM_DCHECK_BOUNDS(row, rows_);
      x[packed - value_id * cols] += y[row] * dict[value_id];
    }
  });
  GCM_CHECK_MSG(row == rows_, "compressed sequence closed " << row
                                  << " rows, expected " << rows_);

  // Backward pass over R (Lemma 3.9): when rule j is reached, W[j] already
  // equals sum_y(N_j); push it into children or accumulate into x.
  for (std::size_t j = rule_count_; j-- > 0;) {
    double weight = w[j];
    if (weight == 0.0) continue;
    for (u32 symbol : {RuleLeft(j), RuleRight(j)}) {
      if (symbol >= alphabet_size_) {
        // Topological order: rule sides reference strictly earlier rules.
        GCM_DCHECK_BOUNDS(symbol - alphabet_size_, j);
        w[symbol - alphabet_size_] += weight;
      } else {
        u32 packed = symbol - 1;
        u32 value_id = by_cols.Divide(packed);
        GCM_DCHECK_BOUNDS(value_id, dict.size());
        x[packed - value_id * cols] += dict[value_id] * weight;
      }
    }
  }
}

DenseMatrix GcMatrix::MultiplyRightMulti(const DenseMatrix& x) const {
  GCM_CHECK_MSG(x.rows() == cols_,
                "MultiplyRightMulti: X has " << x.rows() << " rows, expected "
                                             << cols_);
  const std::size_t k = x.cols();
  DenseMatrix y(rows_, k);
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);

  // W is rule_count x k, filled forward as in the single-vector kernel.
  // The k-wide accumulates vectorize safely: lanes are independent
  // columns of X, so simd::Add/Axpy change no per-lane summation order.
  std::vector<double> w(rule_count_ * k, 0.0);
  std::vector<double> acc(k, 0.0);
  auto add_symbol = [&](u32 symbol, double* out) {
    if (symbol >= alphabet_size_) {
      GCM_DCHECK_BOUNDS(symbol - alphabet_size_, rule_count_);
      const double* row = w.data() + static_cast<std::size_t>(
                                         symbol - alphabet_size_) * k;
      simd::Add(out, row, k);
      return;
    }
    if (symbol == kCsrvSentinel) return;
    u32 packed = symbol - 1;
    u32 value_id = by_cols.Divide(packed);
    GCM_DCHECK_BOUNDS(value_id, dict.size());
    double value = dict[value_id];
    const double* x_row =
        x.data().data() +
        static_cast<std::size_t>(packed - value_id * cols) * k;
    simd::Axpy(out, value, x_row, k);
  };
  for (std::size_t i = 0; i < rule_count_; ++i) {
    double* row = w.data() + i * k;
    add_symbol(RuleLeft(i), row);
    add_symbol(RuleRight(i), row);
  }
  std::size_t row = 0;
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      for (std::size_t t = 0; t < k; ++t) {
        y.Set(row, t, acc[t]);
        acc[t] = 0.0;
      }
      ++row;
      return;
    }
    add_symbol(symbol, acc.data());
  });
  GCM_CHECK_MSG(row == rows_, "compressed sequence closed " << row
                                  << " rows, expected " << rows_);
  return y;
}

DenseMatrix GcMatrix::MultiplyLeftMulti(const DenseMatrix& x) const {
  GCM_CHECK_MSG(x.cols() == rows_,
                "MultiplyLeftMulti: X has " << x.cols()
                                            << " columns, expected " << rows_);
  const std::size_t k = x.rows();
  DenseMatrix out(k, cols_);
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);
  std::vector<double> w(rule_count_ * k, 0.0);

  std::size_t row = 0;
  auto scatter = [&](u32 symbol, const double* weights) {
    if (symbol >= alphabet_size_) {
      GCM_DCHECK_BOUNDS(symbol - alphabet_size_, rule_count_);
      double* dest = w.data() + static_cast<std::size_t>(
                                    symbol - alphabet_size_) * k;
      simd::Add(dest, weights, k);
    } else {
      u32 packed = symbol - 1;
      u32 value_id = by_cols.Divide(packed);
      GCM_DCHECK_BOUNDS(value_id, dict.size());
      double value = dict[value_id];
      u32 column = packed - value_id * cols;
      // Output columns are strided by cols, so this scatter stays scalar.
      for (std::size_t t = 0; t < k; ++t) {
        out.Set(t, column, out.At(t, column) + value * weights[t]);
      }
    }
  };
  std::vector<double> row_weights(k);
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      ++row;
      return;
    }
    for (std::size_t t = 0; t < k; ++t) row_weights[t] = x.At(t, row);
    scatter(symbol, row_weights.data());
  });
  GCM_CHECK_MSG(row == rows_, "compressed sequence closed " << row
                                  << " rows, expected " << rows_);
  for (std::size_t j = rule_count_; j-- > 0;) {
    const double* weights = w.data() + j * k;
    if (!simd::AnyNonZero(weights, k)) continue;
    scatter(RuleLeft(j), weights);
    scatter(RuleRight(j), weights);
  }
  return out;
}

template <typename F>
void GcMatrix::ExpandSymbol(u32 symbol, std::vector<u32>* stack,
                            F&& emit) const {
  if (symbol < alphabet_size_) {
    emit(symbol);
    return;
  }
  stack->clear();
  stack->push_back(symbol);
  while (!stack->empty()) {
    u32 top = stack->back();
    stack->pop_back();
    if (top < alphabet_size_) {
      emit(top);
      continue;
    }
    u32 rule = top - alphabet_size_;
    GCM_DCHECK_BOUNDS(rule, rule_count_);
    stack->push_back(RuleRight(rule));
    stack->push_back(RuleLeft(rule));
  }
}

std::vector<u32> GcMatrix::DecompressSequence() const {
  // Expansion length of every rule (one forward pass over R), summed over
  // C: the output is allocated once, at its exact size. The checked adds
  // keep a crafted grammar from wrapping the size and overrunning `out`.
  auto add = [](u64 a, u64 b) {
    GCM_CHECK_MSG(a <= ~u64{0} - b, "GcMatrix expansion overflows 64 bits");
    return a + b;
  };
  std::vector<u64> length(rule_count_);
  auto length_of = [&](u32 symbol) -> u64 {
    return symbol < alphabet_size_ ? 1 : length[symbol - alphabet_size_];
  };
  for (std::size_t i = 0; i < rule_count_; ++i) {
    length[i] = add(length_of(RuleLeft(i)), length_of(RuleRight(i)));
  }
  u64 total = 0;
  ForEachFinalSymbol(
      [&](u32 symbol) { total = add(total, length_of(symbol)); });

  // Expand C left to right. A rule is walked only at its first occurrence;
  // every later occurrence copies that finished stretch of the output
  // (rules reference only earlier rules, so it never contains itself).
  constexpr u64 kNotSeen = ~u64{0};
  std::vector<u64> first(rule_count_, kNotSeen);
  std::vector<u32> out(total);
  u32* const base = out.data();
  u32* next = base;
  std::vector<u32> stack;
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol < alphabet_size_) {
      *next++ = symbol;
      return;
    }
    stack.push_back(symbol);
    while (!stack.empty()) {
      u32 top = stack.back();
      stack.pop_back();
      if (top < alphabet_size_) {
        *next++ = top;
        continue;
      }
      u32 rule = top - alphabet_size_;
      GCM_DCHECK_BOUNDS(rule, rule_count_);
      if (first[rule] != kNotSeen) {
        next = std::copy_n(base + first[rule], length[rule], next);
        continue;
      }
      first[rule] = static_cast<u64>(next - base);
      stack.push_back(RuleRight(rule));
      stack.push_back(RuleLeft(rule));
    }
  });
  GCM_DCHECK(next == base + total);
  return out;
}

std::vector<double> GcMatrix::ExtractRow(std::size_t r) const {
  GCM_CHECK_MSG(r < rows_, "row " << r << " out of range");
  std::vector<double> row(cols_, 0.0);
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);
  std::size_t current = 0;
  // Expand only the C symbols that belong to row r; everything before is
  // skipped by sentinel counting, everything after is ignored.
  std::vector<u32> stack;
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      ++current;
      return;
    }
    if (current != r) return;
    // Rules never contain the sentinel, so every emitted terminal is a
    // packed (value, column) pair.
    ExpandSymbol(symbol, &stack, [&](u32 t) {
      u32 packed = t - 1;
      u32 value_id = by_cols.Divide(packed);
      GCM_DCHECK_BOUNDS(value_id, dict.size());
      row[packed - value_id * cols] = dict[value_id];
    });
  });
  return row;
}

DenseMatrix GcMatrix::ToDense() const {
  DenseMatrix dense(rows_, cols_);
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);
  std::size_t row = 0;
  std::vector<u32> stack;
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      ++row;
      return;
    }
    ExpandSymbol(symbol, &stack, [&](u32 t) {
      u32 packed = t - 1;
      u32 value_id = by_cols.Divide(packed);
      GCM_DCHECK_BOUNDS(value_id, dict.size());
      dense.Set(row, packed - value_id * cols, dict[value_id]);
    });
  });
  return dense;
}

void GcMatrix::PrefetchPayload() const {
  constexpr std::size_t kLine = 64;
  auto touch = [](const void* base, std::size_t bytes) {
    // A few lines from the head hide the first-access miss; the hardware
    // prefetcher takes over once the scan is streaming.
    const char* p = static_cast<const char*>(base);
    std::size_t span = std::min<std::size_t>(bytes, 4 * kLine);
    for (std::size_t off = 0; off < span; off += kLine) {
      simd::Prefetch(p + off);
    }
  };
  switch (format_) {
    case GcFormat::kCsrv:
    case GcFormat::kRe32:
      touch(c_plain().data(), c_plain().size() * sizeof(u32));
      touch(r_plain_.data(), r_plain_.size() * sizeof(u32));
      break;
    case GcFormat::kReIv:
      touch(c_packed().words().data(), c_packed().SizeInBytes());
      touch(r_packed_.words().data(), r_packed_.SizeInBytes());
      break;
    case GcFormat::kReAns:
      touch(c_ans().chunks.data(), c_ans().chunks.size() * sizeof(u32));
      touch(r_packed_.words().data(), r_packed_.SizeInBytes());
      break;
  }
}

void GcMatrix::Serialize(ByteWriter* writer) const {
  writer->Put<u8>(static_cast<u8>(format_));
  writer->PutVarint(rows_);
  writer->PutVarint(cols_);
  writer->PutVarint(alphabet_size_);
  writer->PutVarint(c_length_);
  writer->PutVarint(rule_count_);
  switch (format_) {
    case GcFormat::kCsrv:
    case GcFormat::kRe32:
      writer->PutArray(c_plain());
      writer->PutArray(r_plain_);
      break;
    case GcFormat::kReIv:
      writer->Put<u8>(static_cast<u8>(c_packed().width()));
      writer->PutArray(c_packed().words());
      writer->Put<u8>(static_cast<u8>(r_packed_.width()));
      writer->PutArray(r_packed_.words());
      break;
    case GcFormat::kReAns:
      c_ans().Serialize(writer);
      writer->Put<u8>(static_cast<u8>(r_packed_.width()));
      writer->PutArray(r_packed_.words());
      break;
  }
}

void GcMatrix::SerializeInto(ByteWriter* writer) const {
  writer->PutVector(*dict_);
  Serialize(writer);
}

GcMatrix GcMatrix::DeserializeFrom(ByteReader* reader) {
  auto dict = std::make_shared<const std::vector<double>>(
      reader->GetVector<double>());
  return Deserialize(reader, std::move(dict));
}

GcMatrix GcMatrix::Deserialize(ByteReader* reader, SharedDict dict) {
  GCM_CHECK(dict != nullptr);
  GcMatrix m;
  u8 format = reader->Get<u8>();
  GCM_CHECK_MSG(format <= static_cast<u8>(GcFormat::kReAns),
                "corrupt GcMatrix: bad format byte");
  m.format_ = static_cast<GcFormat>(format);
  m.rows_ = reader->GetVarint();
  m.cols_ = reader->GetVarint();
  m.alphabet_size_ = static_cast<u32>(reader->GetVarint());
  m.c_length_ = reader->GetVarint();
  m.rule_count_ = reader->GetVarint();
  // Every symbol (terminal or rule) must fit a u32; checked before
  // anything below multiplies rule_count_ or sums it into a u32.
  GCM_CHECK_MSG(m.rule_count_ <= (u64{1} << 32) - m.alphabet_size_,
                "corrupt GcMatrix: " << m.rule_count_ << " rules over an "
                                     << m.alphabet_size_
                                     << "-symbol alphabet exceed the u32 "
                                        "symbol space");
  m.dict_ = std::move(dict);
  u64 expected_alphabet = 1 + static_cast<u64>(m.dict_->size()) * m.cols_;
  GCM_CHECK_MSG(m.alphabet_size_ == expected_alphabet,
                "corrupt GcMatrix: alphabet/dictionary mismatch");
  switch (m.format_) {
    case GcFormat::kCsrv:
    case GcFormat::kRe32: {
      m.c_ = reader->GetArray<u32>();
      m.r_plain_ = reader->GetArray<u32>();
      GCM_CHECK_MSG(m.c_plain().size() == m.c_length_ &&
                        m.r_plain_.size() == 2 * m.rule_count_,
                    "corrupt GcMatrix: payload length mismatch");
      break;
    }
    case GcFormat::kReIv: {
      u8 c_width = reader->Get<u8>();
      m.c_.emplace<IntVector>().RestoreFrom(m.c_length_, c_width,
                                            reader->GetArray<u64>());
      u8 r_width = reader->Get<u8>();
      m.r_packed_.RestoreFrom(2 * m.rule_count_, r_width,
                              reader->GetArray<u64>());
      break;
    }
    case GcFormat::kReAns: {
      m.c_ = RansStream::Deserialize(reader);
      GCM_CHECK_MSG(m.c_ans().symbol_count == m.c_length_,
                    "corrupt GcMatrix: ANS payload length mismatch");
      u8 r_width = reader->Get<u8>();
      m.r_packed_.RestoreFrom(2 * m.rule_count_, r_width,
                              reader->GetArray<u64>());
      break;
    }
  }

  // Range-check every stored symbol before the kernels trust it: the
  // multiply passes index the W array and the dictionary straight off
  // these values, so a checksum-valid but corrupt payload must fail here,
  // not scribble over the heap mid-multiply. One linear scan; for re_ans
  // this decodes the stream once (still no re-encoding).
  u32 symbol_limit = m.alphabet_size_ + static_cast<u32>(m.rule_count_);
  for (std::size_t i = 0; i < m.rule_count_; ++i) {
    for (u32 symbol : {m.RuleLeft(i), m.RuleRight(i)}) {
      GCM_CHECK_MSG(symbol != kCsrvSentinel,
                    "corrupt GcMatrix: rule " << i
                                              << " contains the sentinel");
      GCM_CHECK_MSG(symbol < m.alphabet_size_ + i,
                    "corrupt GcMatrix: rule " << i << " references symbol "
                                              << symbol
                                              << " before it is defined");
    }
  }
  std::size_t sentinels = 0;
  m.ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      ++sentinels;
      return;
    }
    GCM_CHECK_MSG(symbol < symbol_limit,
                  "corrupt GcMatrix: sequence symbol " << symbol
                                                       << " outside alphabet "
                                                       << symbol_limit);
  });
  GCM_CHECK_MSG(sentinels == m.rows_,
                "corrupt GcMatrix: sequence closes " << sentinels
                                                     << " rows, header "
                                                        "declares "
                                                     << m.rows_);
  return m;
}

}  // namespace gcm
