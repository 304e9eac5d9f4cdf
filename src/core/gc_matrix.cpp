#include "core/gc_matrix.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/enum_names.hpp"
#include "util/fast_div.hpp"
#include "util/partials.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

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
    m.c_plain_ = std::move(sequence);
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
      m.c_plain_ = std::move(compressed.final_sequence);
      m.r_plain_ = std::move(flat_rules);
      break;
    case GcFormat::kReIv: {
      m.c_packed_ = IntVector(compressed.final_sequence.size(), width);
      for (std::size_t i = 0; i < compressed.final_sequence.size(); ++i) {
        m.c_packed_.Set(i, compressed.final_sequence[i]);
      }
      m.r_packed_ = IntVector(flat_rules.size(), width);
      for (std::size_t i = 0; i < flat_rules.size(); ++i) {
        m.r_packed_.Set(i, flat_rules[i]);
      }
      break;
    }
    case GcFormat::kReAns: {
      m.c_ans_ = RansEncode(compressed.final_sequence, options.fold_bits);
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
      return c_plain_.size() * sizeof(u32) + r_plain_.size() * sizeof(u32);
    case GcFormat::kReIv:
      return c_packed_.SizeInBytes() + r_packed_.SizeInBytes();
    case GcFormat::kReAns:
      return c_ans_.SizeInBytes() + r_packed_.SizeInBytes();
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
      for (u32 symbol : c_plain_) fn(symbol);
      break;
    case GcFormat::kReIv:
      for (std::size_t i = 0; i < c_packed_.size(); ++i) {
        fn(static_cast<u32>(c_packed_.Get(i)));
      }
      break;
    case GcFormat::kReAns: {
      RansDecoder decoder(c_ans_);
      while (!decoder.AtEnd()) fn(decoder.Next());
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

/// Minimum C symbols per worker before the two-pass chunked scan pays for
/// its extra sentinel-counting pass.
constexpr std::size_t kParallelScanGrain = 4096;

/// Magic-multiply divisor for decoding packed terminals
/// (value_id = packed / cols, column = packed - value_id * cols); exact,
/// so symbol decoding is bitwise unchanged. A zero-column block's
/// alphabet is just the sentinel -- no terminal is ever decoded -- so the
/// placeholder divisor only keeps construction legal.
U32Divisor ColsDivisor(std::size_t cols) {
  return U32Divisor(cols == 0 ? 1u : static_cast<u32>(cols));
}

}  // namespace

u32 GcMatrix::FinalSymbolAt(std::size_t i) const {
  GCM_ASSERT(format_ != GcFormat::kReAns);
  return format_ == GcFormat::kReIv ? static_cast<u32>(c_packed_.Get(i))
                                    : c_plain_[i];
}

std::size_t GcMatrix::ScanChunkCount(const ThreadPool* pool) const {
  if (pool == nullptr || format_ == GcFormat::kReAns || rows_ == 0) return 1;
  std::size_t by_grain = c_length_ / kParallelScanGrain;
  return std::max<std::size_t>(1, std::min(pool->size(), by_grain));
}

std::vector<std::size_t> GcMatrix::ChunkRowStarts(std::size_t chunks,
                                                  ThreadPool* pool) const {
  std::size_t per_chunk = (c_length_ + chunks - 1) / chunks;
  std::vector<std::size_t> counts(chunks, 0);
  pool->ParallelFor(chunks, [&](std::size_t c) {
    std::size_t begin = c * per_chunk;
    std::size_t end = std::min(c_length_, begin + per_chunk);
    // Only the random-access formats reach here (re_ans scans run with
    // chunks == 1); the plain u32 encodings count sentinels with the
    // vectorized exact-match primitive, bit-packed C walks element-wise.
    if (format_ != GcFormat::kReIv) {
      counts[c] =
          simd::CountEqualsU32(c_plain_.data() + begin, end - begin,
                               kCsrvSentinel);
      return;
    }
    std::size_t sentinels = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (FinalSymbolAt(i) == kCsrvSentinel) ++sentinels;
    }
    counts[c] = sentinels;
  });
  std::vector<std::size_t> starts(chunks, 0);
  std::size_t total = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    starts[c] = total;
    total += counts[c];
  }
  GCM_CHECK_MSG(total == rows_, "compressed sequence closed " << total
                                    << " rows, expected " << rows_);
  return starts;
}

void GcMatrix::MultiplyRightInto(std::span<const double> x,
                                 std::span<double> y,
                                 ThreadPool* pool) const {
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

  std::size_t chunks = ScanChunkCount(pool);
  if (chunks > 1) {
    ParallelRightScan(x, y, w, chunks, pool);
    return;
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

void GcMatrix::ParallelRightScan(std::span<const double> x,
                                 std::span<double> y,
                                 const std::vector<double>& w,
                                 std::size_t chunks, ThreadPool* pool) const {
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);
  std::vector<std::size_t> row_start = ChunkRowStarts(chunks, pool);
  std::size_t per_chunk = (c_length_ + chunks - 1) / chunks;

  // Per chunk: the partial sum before its first sentinel (head), the
  // partial after its last sentinel (tail), and whether it saw a sentinel
  // at all. Rows fully inside a chunk are written to y directly; the rows
  // cut by chunk boundaries are stitched sequentially below.
  std::vector<double> head(chunks, 0.0);
  std::vector<double> tail(chunks, 0.0);
  std::vector<u8> closed_row(chunks, 0);
  pool->ParallelFor(chunks, [&](std::size_t c) {
    std::size_t begin = c * per_chunk;
    std::size_t end = std::min(c_length_, begin + per_chunk);
    std::size_t row = row_start[c];
    bool saw_sentinel = false;
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      u32 symbol = FinalSymbolAt(i);
      if (symbol != kCsrvSentinel) {
        if (symbol >= alphabet_size_) {
          GCM_DCHECK_BOUNDS(symbol - alphabet_size_, w.size());
          acc += w[symbol - alphabet_size_];
        } else {
          u32 packed = symbol - 1;
          u32 value_id = by_cols.Divide(packed);
          GCM_DCHECK_BOUNDS(value_id, dict.size());
          acc += dict[value_id] * x[packed - value_id * cols];
        }
        continue;
      }
      if (!saw_sentinel) {
        head[c] = acc;  // closes row_start[c]; needs the previous chunks
        saw_sentinel = true;
      } else {
        y[row] = acc;  // row fully contained in this chunk
      }
      ++row;
      acc = 0.0;
    }
    if (!saw_sentinel) {
      head[c] = acc;  // whole chunk is one partial row
    }
    tail[c] = acc;
    closed_row[c] = saw_sentinel ? 1 : 0;
  });

  // Stitch boundary rows: carry the running partial of the row that is
  // open at each chunk boundary.
  double carry = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (closed_row[c]) {
      y[row_start[c]] = carry + head[c];
      carry = tail[c];
    } else {
      carry += head[c];
    }
  }
  // Every row is sentinel-terminated, so the final carry is the (empty)
  // partial after the last sentinel.
  GCM_ASSERT(carry == 0.0);
}

void GcMatrix::MultiplyLeftInto(std::span<const double> y,
                                std::span<double> x,
                                ThreadPool* pool) const {
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyLeft: wrong vector length");
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyLeft: wrong output length");
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);
  std::fill(x.begin(), x.end(), 0.0);

  // Scan of C: seed W with row weights for nonterminals appearing in C;
  // terminals in C contribute directly (Section 4's generalization).
  std::vector<double> w(rule_count_, 0.0);
  std::size_t chunks = ScanChunkCount(pool);
  if (chunks > 1) {
    ParallelLeftScan(y, x, &w, chunks, pool);
  } else {
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
  }

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

void GcMatrix::ParallelLeftScan(std::span<const double> y,
                                std::span<double> x, std::vector<double>* w,
                                std::size_t chunks, ThreadPool* pool) const {
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);
  std::vector<std::size_t> row_start = ChunkRowStarts(chunks, pool);
  std::size_t per_chunk = (c_length_ + chunks - 1) / chunks;

  // Chunks scatter into W and x, so each keeps private accumulators
  // (O(chunks * (|R| + cols)) words, the same order as the multi-vector
  // kernels' auxiliary space); the chunk-order reduction restores
  // scheduling-independent determinism without atomics.
  PartialVectors w_parts(chunks, rule_count_);
  PartialVectors x_parts(chunks, cols_);
  pool->ParallelFor(chunks, [&](std::size_t c) {
    std::size_t begin = c * per_chunk;
    std::size_t end = std::min(c_length_, begin + per_chunk);
    std::span<double> local_w = w_parts.part(c);
    std::span<double> local_x = x_parts.part(c);
    std::size_t row = row_start[c];
    for (std::size_t i = begin; i < end; ++i) {
      u32 symbol = FinalSymbolAt(i);
      if (symbol == kCsrvSentinel) {
        ++row;
        continue;
      }
      if (symbol >= alphabet_size_) {
        GCM_DCHECK_BOUNDS(symbol - alphabet_size_, local_w.size());
        GCM_DCHECK_BOUNDS(row, rows_);
        local_w[symbol - alphabet_size_] += y[row];
      } else {
        u32 packed = symbol - 1;
        u32 value_id = by_cols.Divide(packed);
        GCM_DCHECK_BOUNDS(value_id, dict.size());
        GCM_DCHECK_BOUNDS(row, rows_);
        local_x[packed - value_id * cols] += y[row] * dict[value_id];
      }
    }
  });
  w_parts.AccumulateInto(*w);
  x_parts.AccumulateInto(x);
}

namespace {

/// Splits [0, k) into one batch per pool worker and runs fn(t0, t1) on the
/// pool; sequential when pool is null or the batching is degenerate.
void ForEachColumnBatch(
    std::size_t k, ThreadPool* pool,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  std::size_t batches =
      pool == nullptr ? 1 : std::min(k, std::max<std::size_t>(1, pool->size()));
  if (batches <= 1) {
    fn(0, k);
    return;
  }
  std::size_t per_batch = (k + batches - 1) / batches;
  pool->ParallelFor(batches, [&](std::size_t b) {
    std::size_t t0 = b * per_batch;
    std::size_t t1 = std::min(k, t0 + per_batch);
    if (t0 < t1) fn(t0, t1);
  });
}

}  // namespace

void GcMatrix::MultiplyRightMultiRange(const DenseMatrix& x, DenseMatrix* y,
                                       std::size_t t0, std::size_t t1) const {
  const std::size_t k = x.cols();
  const std::size_t kb = t1 - t0;  // batch width
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);

  // W is rule_count x kb, filled forward as in the single-vector kernel.
  // The kb-wide accumulates vectorize safely: lanes are independent
  // columns of X, so simd::Add/Axpy change no per-lane summation order.
  std::vector<double> w(rule_count_ * kb, 0.0);
  std::vector<double> acc(kb, 0.0);
  auto add_symbol = [&](u32 symbol, double* out) {
    if (symbol >= alphabet_size_) {
      GCM_DCHECK_BOUNDS(symbol - alphabet_size_, rule_count_);
      const double* row = w.data() + static_cast<std::size_t>(
                                         symbol - alphabet_size_) * kb;
      simd::Add(out, row, kb);
      return;
    }
    if (symbol == kCsrvSentinel) return;
    u32 packed = symbol - 1;
    u32 value_id = by_cols.Divide(packed);
    GCM_DCHECK_BOUNDS(value_id, dict.size());
    double value = dict[value_id];
    const double* x_row =
        x.data().data() +
        static_cast<std::size_t>(packed - value_id * cols) * k + t0;
    simd::Axpy(out, value, x_row, kb);
  };
  for (std::size_t i = 0; i < rule_count_; ++i) {
    double* row = w.data() + i * kb;
    add_symbol(RuleLeft(i), row);
    add_symbol(RuleRight(i), row);
  }
  std::size_t row = 0;
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      for (std::size_t t = 0; t < kb; ++t) {
        y->Set(row, t0 + t, acc[t]);
        acc[t] = 0.0;
      }
      ++row;
      return;
    }
    add_symbol(symbol, acc.data());
  });
  GCM_CHECK_MSG(row == rows_, "compressed sequence closed " << row
                                  << " rows, expected " << rows_);
}

DenseMatrix GcMatrix::MultiplyRightMulti(const DenseMatrix& x,
                                         ThreadPool* pool) const {
  GCM_CHECK_MSG(x.rows() == cols_,
                "MultiplyRightMulti: X has " << x.rows() << " rows, expected "
                                             << cols_);
  DenseMatrix y(rows_, x.cols());
  // Batches write disjoint column ranges of y, so they can run in parallel.
  ForEachColumnBatch(x.cols(), pool, [&](std::size_t t0, std::size_t t1) {
    MultiplyRightMultiRange(x, &y, t0, t1);
  });
  return y;
}

void GcMatrix::MultiplyLeftMultiRange(const DenseMatrix& x, DenseMatrix* out,
                                      std::size_t t0, std::size_t t1) const {
  const std::size_t kb = t1 - t0;  // batch width
  const std::vector<double>& dict = *dict_;
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols = ColsDivisor(cols_);
  std::vector<double> w(rule_count_ * kb, 0.0);

  std::size_t row = 0;
  auto scatter = [&](u32 symbol, const double* weights) {
    if (symbol >= alphabet_size_) {
      GCM_DCHECK_BOUNDS(symbol - alphabet_size_, rule_count_);
      double* dest = w.data() + static_cast<std::size_t>(
                                    symbol - alphabet_size_) * kb;
      simd::Add(dest, weights, kb);
    } else {
      u32 packed = symbol - 1;
      u32 value_id = by_cols.Divide(packed);
      GCM_DCHECK_BOUNDS(value_id, dict.size());
      double value = dict[value_id];
      u32 column = packed - value_id * cols;
      // Output columns are strided by cols, so this scatter stays scalar.
      for (std::size_t t = 0; t < kb; ++t) {
        out->Set(t0 + t, column,
                 out->At(t0 + t, column) + value * weights[t]);
      }
    }
  };
  std::vector<double> row_weights(kb);
  ForEachFinalSymbol([&](u32 symbol) {
    if (symbol == kCsrvSentinel) {
      ++row;
      return;
    }
    for (std::size_t t = 0; t < kb; ++t) row_weights[t] = x.At(t0 + t, row);
    scatter(symbol, row_weights.data());
  });
  GCM_CHECK_MSG(row == rows_, "compressed sequence closed " << row
                                  << " rows, expected " << rows_);
  for (std::size_t j = rule_count_; j-- > 0;) {
    const double* weights = w.data() + j * kb;
    if (!simd::AnyNonZero(weights, kb)) continue;
    scatter(RuleLeft(j), weights);
    scatter(RuleRight(j), weights);
  }
}

DenseMatrix GcMatrix::MultiplyLeftMulti(const DenseMatrix& x,
                                        ThreadPool* pool) const {
  GCM_CHECK_MSG(x.cols() == rows_,
                "MultiplyLeftMulti: X has " << x.cols()
                                            << " columns, expected " << rows_);
  DenseMatrix out(x.rows(), cols_);
  // Batches write disjoint rows of `out` (one per left-hand vector), so
  // they can run in parallel.
  ForEachColumnBatch(x.rows(), pool, [&](std::size_t t0, std::size_t t1) {
    MultiplyLeftMultiRange(x, &out, t0, t1);
  });
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
  std::vector<u32> out;
  out.reserve(c_length_);
  std::vector<u32> stack;
  ForEachFinalSymbol([&](u32 symbol) {
    ExpandSymbol(symbol, &stack, [&](u32 t) { out.push_back(t); });
  });
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
      touch(c_plain_.data(), c_plain_.size() * sizeof(u32));
      touch(r_plain_.data(), r_plain_.size() * sizeof(u32));
      break;
    case GcFormat::kReIv:
      touch(c_packed_.words().data(), c_packed_.SizeInBytes());
      touch(r_packed_.words().data(), r_packed_.SizeInBytes());
      break;
    case GcFormat::kReAns:
      touch(c_ans_.chunks.data(), c_ans_.chunks.size() * sizeof(u32));
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
      writer->PutArray(c_plain_);
      writer->PutArray(r_plain_);
      break;
    case GcFormat::kReIv:
      writer->Put<u8>(static_cast<u8>(c_packed_.width()));
      writer->PutArray(c_packed_.words());
      writer->Put<u8>(static_cast<u8>(r_packed_.width()));
      writer->PutArray(r_packed_.words());
      break;
    case GcFormat::kReAns:
      c_ans_.Serialize(writer);
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
  m.dict_ = std::move(dict);
  u64 expected_alphabet = 1 + static_cast<u64>(m.dict_->size()) * m.cols_;
  GCM_CHECK_MSG(m.alphabet_size_ == expected_alphabet,
                "corrupt GcMatrix: alphabet/dictionary mismatch");
  switch (m.format_) {
    case GcFormat::kCsrv:
    case GcFormat::kRe32: {
      m.c_plain_ = reader->GetArray<u32>();
      m.r_plain_ = reader->GetArray<u32>();
      GCM_CHECK_MSG(m.c_plain_.size() == m.c_length_ &&
                        m.r_plain_.size() == 2 * m.rule_count_,
                    "corrupt GcMatrix: payload length mismatch");
      break;
    }
    case GcFormat::kReIv: {
      u8 c_width = reader->Get<u8>();
      m.c_packed_.RestoreFrom(m.c_length_, c_width, reader->GetArray<u64>());
      u8 r_width = reader->Get<u8>();
      m.r_packed_.RestoreFrom(2 * m.rule_count_, r_width,
                              reader->GetArray<u64>());
      break;
    }
    case GcFormat::kReAns: {
      m.c_ans_ = RansStream::Deserialize(reader);
      GCM_CHECK_MSG(m.c_ans_.symbol_count == m.c_length_,
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
